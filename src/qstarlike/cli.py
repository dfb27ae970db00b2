"""Command-line front end for membership testing, extremal members,
circle-integral comparisons, and subordination reports.

Usage:
    qstarlike membership --q 0.5 --series '{"sign":"minus","coeffs":[0.5]}'
    qstarlike extremal --n 2 --q 0.5 --format json
    qstarlike integral-means --q 0.5 --seed 7 --r 0.5 --eta 2
    qstarlike subordination --q 0.5 --lambda 1 --seed 7 --format json
    qstarlike limit-check
    qstarlike sweep --q 0.5 --seed 7 --format csv

Series may be passed inline (--series) or from a file (--series-file) as
{"sign": "plus"|"minus", "coeffs": [a2, a3, ...]}; commands that accept a
series fall back to a seeded random member when none is given.

Exit codes: 0 verified/pass, 1 numerical verification failure, 2 usage or
parameter error.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    INTEGRAL_MEANS_SLACK,
    QuadratureConfig,
    SampleGrid,
    WILF_RADII,
    default_nodes,
    min_real_part,
    subordination_report,
    sweep_integral_means,
    sweep_to_csv,
    verify_integral_means,
)
from .classes import Verdict, coefficient_test, extremal_function, random_member
from .qcore import ClassParams, kernel_coeffs
from .series import PowerSeries, poly_eval, q_derivative

LIMIT_Q = 1.0 - 1.0e-6
KERNEL_LIMIT_TOL = 1.0e-3
DERIVATIVE_LIMIT_TOL = 1.0e-4
NODES_HELP = "quadrature nodes, a power of two >= 16 (default: max(256, 4*trunc) rounded up)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qstarlike",
        description="Numerical verification for a q-difference starlike class",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p):
        p.add_argument("--q", type=float, default=0.5)
        p.add_argument("--lambda", dest="lam", type=float, default=0.0)
        p.add_argument("--alpha", type=float, default=0.0)
        p.add_argument("--k", type=float, default=0.0)
        p.add_argument("--trunc", type=int, default=64)

    def add_format(p):
        p.add_argument("--format", choices=("human", "json", "csv"), default="human")

    def add_series(p):
        p.add_argument("--series", help="inline series JSON")
        p.add_argument("--series-file", help="path to a series JSON file")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--density", type=float, default=0.8)

    p = sub.add_parser("membership", help="run the sufficient coefficient test")
    add_params(p)
    add_format(p)
    add_series(p)

    p = sub.add_parser("extremal", help="emit the order-n extremal member")
    add_params(p)
    add_format(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("integral-means", help="compare circle integrals against the extremal member")
    add_params(p)
    add_format(p)
    add_series(p)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--nodes", type=int, default=None, help=NODES_HELP)
    p.add_argument(
        "--allow-uncertified",
        action="store_true",
        help="proceed even if the series fails the coefficient test",
    )

    p = sub.add_parser("subordination", help="factor constant, Wilf positivity, and sharpness")
    add_params(p)
    add_format(p)
    add_series(p)
    p.add_argument("--allow-uncertified", action="store_true")

    p = sub.add_parser("limit-check", help="near-classical consistency checks (q -> 1)")
    add_format(p)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("sweep", help="integral-means sweep over an (r, eta) grid")
    add_params(p)
    add_format(p)
    add_series(p)
    p.add_argument("--r-list", default="0.25,0.5,0.75,0.95")
    p.add_argument("--eta-list", default="0.5,1,2,3")
    p.add_argument("--nodes", type=int, default=None, help=NODES_HELP)
    p.add_argument("--allow-uncertified", action="store_true")

    return parser


def _params(args) -> ClassParams:
    return ClassParams(q=args.q, lam=args.lam, alpha=args.alpha, k=args.k, trunc=args.trunc)


def _load_series(args, params: ClassParams, required: bool = False) -> PowerSeries:
    if args.series and args.series_file:
        raise ValueError("pass either --series or --series-file, not both")
    if args.series_file:
        text = Path(args.series_file).read_text()
    elif args.series:
        text = args.series
    else:
        if required:
            raise ValueError("a series is required: pass --series or --series-file")
        return random_member(params, seed=args.seed, density=args.density)
    try:
        data = json.loads(text)
        return PowerSeries.from_dict(data)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"invalid series JSON: {exc}") from None


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, allow_nan=False))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


def _reject_csv(fmt: str) -> None:
    if fmt == "csv":
        raise ValueError("csv output is only available for the sweep command")


def cmd_membership(args) -> int:
    _reject_csv(args.format)
    params = _params(args)
    f = _load_series(args, params, required=True)
    report = coefficient_test(f, params)
    _emit(report.to_dict(), args.format)
    return 0 if report.verdict is Verdict.SUFFICIENT_PASS else 1


def cmd_extremal(args) -> int:
    _reject_csv(args.format)
    params = _params(args)
    f = extremal_function(args.n, params)
    _emit(f.to_dict(), args.format)
    return 0


def cmd_integral_means(args) -> int:
    _reject_csv(args.format)
    params = _params(args)
    f = _load_series(args, params)
    nodes = default_nodes(max(f.order, params.trunc)) if args.nodes is None else args.nodes
    cfg = QuadratureConfig(nodes=nodes, r=args.r, eta=args.eta)
    cmp = verify_integral_means(f, params, cfg)
    if not cmp.certified and not args.allow_uncertified:
        print(
            "error: series fails the coefficient test, so the integral-means "
            "hypothesis is uncertified (use --allow-uncertified to force)",
            file=sys.stderr,
        )
        return 2
    doc = {"r": cfg.r, "eta": cfg.eta, "nodes": cfg.nodes}
    doc.update(cmp.to_dict())
    _emit(doc, args.format)
    return 0 if cmp.holds else 1


def cmd_subordination(args) -> int:
    _reject_csv(args.format)
    params = _params(args)
    f = _load_series(args, params)
    certified = coefficient_test(f, params).verdict is Verdict.SUFFICIENT_PASS
    if not certified and not args.allow_uncertified:
        print(
            "error: series fails the coefficient test, so the subordination "
            "hypothesis is uncertified (use --allow-uncertified to force)",
            file=sys.stderr,
        )
        return 2
    report = subordination_report(f, params)
    grid = SampleGrid(WILF_RADII + (0.999,), 512)
    min_re = min_real_part(f, grid)
    doc = report.to_dict()
    doc["min_real_part"] = min_re
    doc["certified"] = certified
    _emit(doc, args.format)
    ok = (
        report.wilf_min > 0.0
        and report.sharpness_min >= -0.5 - 1.0e-9
        and min_re > report.realpart_bound
    )
    return 0 if ok else 1


def _limit_check(seed: int) -> dict:
    worst_kernel = 0.0
    for lam in (0, 1, 2, 3):
        exact = np.array([math.comb(n + lam - 1, n - 1) for n in range(2, 13)], dtype=float)
        approx = kernel_coeffs(float(lam), LIMIT_Q, 12)
        worst_kernel = max(worst_kernel, float(np.max(np.abs(approx - exact) / exact)))

    rng = np.random.default_rng(seed)
    worst_deriv = 0.0
    for _ in range(20):
        n_index = np.arange(2.0, 17.0)
        coeffs = rng.uniform(-1.0, 1.0, n_index.size) / n_index**3
        f = PowerSeries(tuple(coeffs))
        dq = q_derivative(f, LIMIT_Q)
        classical = f.full()[1:] * np.arange(1.0, f.order + 1.0)
        z = rng.uniform(0.1, 0.6, 50) * np.exp(2j * np.pi * rng.random(50))
        ref = poly_eval(classical, z)
        rel = np.abs(poly_eval(dq, z) - ref) / np.abs(ref)
        worst_deriv = max(worst_deriv, float(np.max(rel)))

    return {
        "kernel_max_rel_err": worst_kernel,
        "kernel_tol": KERNEL_LIMIT_TOL,
        "q_derivative_max_rel_err": worst_deriv,
        "q_derivative_tol": DERIVATIVE_LIMIT_TOL,
    }


def cmd_limit_check(args) -> int:
    _reject_csv(args.format)
    doc = _limit_check(args.seed)
    _emit(doc, args.format)
    ok = (
        doc["kernel_max_rel_err"] <= KERNEL_LIMIT_TOL
        and doc["q_derivative_max_rel_err"] <= DERIVATIVE_LIMIT_TOL
    )
    return 0 if ok else 1


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated floats, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must name at least one value")
    return values


def cmd_sweep(args) -> int:
    params = _params(args)
    f = _load_series(args, params)
    certified = coefficient_test(f, params).verdict is Verdict.SUFFICIENT_PASS
    if not certified and not args.allow_uncertified:
        print(
            "error: series fails the coefficient test, so the sweep "
            "hypothesis is uncertified (use --allow-uncertified to force)",
            file=sys.stderr,
        )
        return 2
    r_values = _parse_float_list(args.r_list, "--r-list")
    eta_values = _parse_float_list(args.eta_list, "--eta-list")
    rows = sweep_integral_means(f, params, r_values, eta_values, nodes=args.nodes)
    if args.format == "csv":
        print(sweep_to_csv(rows), end="")
    elif args.format == "json":
        print(json.dumps({"rows": [row._asdict() for row in rows]}, indent=2, allow_nan=False))
    else:
        for row in rows:
            print(f"r={row.r} eta={row.eta} lhs={row.lhs} rhs={row.rhs} margin={row.margin}")
    ok = all(row.lhs <= row.rhs * (1.0 + INTEGRAL_MEANS_SLACK) for row in rows)
    return 0 if ok else 1


_COMMANDS = {
    "membership": cmd_membership,
    "extremal": cmd_extremal,
    "integral-means": cmd_integral_means,
    "subordination": cmd_subordination,
    "limit-check": cmd_limit_check,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
