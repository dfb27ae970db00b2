"""Command-line front end for membership testing, extremal members,
circle-integral comparisons, and subordination reports.

Usage:
    qstarlike membership --q 0.5 --series '{"sign":"minus","coeffs":[0.5]}'
    qstarlike extremal --n 2 --q 0.5 --format json
    qstarlike integral-means --q 0.5 --seed 7 --r 0.5 --eta 2
    qstarlike subordination --q 0.5 --lambda 1 --seed 7 --format json
    qstarlike limit-check
    qstarlike sweep --q 0.5 --seed 7 --format csv

Series may be passed inline (--series) or from a file (--series-file), not
both, as {"sign": "plus"|"minus", "coeffs": [a2, a3, ...]}; membership needs
one, and the other commands fall back to a seeded random member without one.
Each of the four tests its series once: membership reports a failure, and
the other three refuse an uncertified series unless --allow-uncertified.

Each command returns its document and its verdict; main prints the
document and decides the exit code: 0 verified/pass, 1 numerical
verification failure, 2 usage or parameter error, 141 when the reader
closes stdout early.  Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .analysis import (
    default_nodes,
    subordination_report,
    sweep_integral_means,
    sweep_to_csv,
)
from .classes import MembershipReport, _generator, coefficient_test, extremal_function, random_member
from .qcore import Q_MAX, ClassParams, kernel_coeffs
from .series import PowerSeries, poly_eval, q_derivative

KERNEL_LIMIT_TOL = 1.0e-3
DERIVATIVE_LIMIT_TOL = 1.0e-4
NODES_HELP = "quadrature nodes, a power of two in [16, 2^20] (default max(256, 4*order) rounded up)"
FORCED_HELP = "proceed even if the series fails the coefficient test"


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

    def add_format(p, *extra):
        p.add_argument("--format", choices=("human", "json", *extra), default="human")

    def add_series(p, required=False):
        source = p.add_mutually_exclusive_group(required=required)
        source.add_argument("--series", help="inline series JSON")
        source.add_argument("--series-file", help="path to a series JSON file")
        if not required:
            p.add_argument("--seed", type=int, default=42)
            p.add_argument("--density", type=float, default=0.8)
            p.add_argument("--allow-uncertified", action="store_true", help=FORCED_HELP)

    p = sub.add_parser("membership", help="run the sufficient coefficient test")
    p.set_defaults(run=cmd_membership, allow_uncertified=True)
    add_params(p)
    add_format(p)
    add_series(p, required=True)

    p = sub.add_parser("extremal", help="emit the order-n extremal member")
    p.set_defaults(run=cmd_extremal)
    add_params(p)
    add_format(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("integral-means", help="compare circle integrals against the extremal member")
    p.set_defaults(run=cmd_integral_means)
    add_params(p)
    add_format(p)
    add_series(p)
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--eta", type=float, default=2.0)
    p.add_argument("--nodes", type=int, default=None, help=NODES_HELP)

    p = sub.add_parser("subordination", help="factor constant, Wilf positivity, and sharpness")
    p.set_defaults(run=cmd_subordination)
    add_params(p)
    add_format(p)
    add_series(p)

    p = sub.add_parser("limit-check", help="near-classical consistency checks (q -> 1)")
    p.set_defaults(run=cmd_limit_check)
    add_format(p)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("sweep", help="integral-means sweep over an (r, eta) grid")
    p.set_defaults(run=cmd_sweep)
    add_params(p)
    add_format(p, "csv")
    add_series(p)
    p.add_argument("--r-list", type=_float_list, default="0.25,0.5,0.75,0.95")
    p.add_argument("--eta-list", type=_float_list, default="0.5,1,2,3")
    p.add_argument("--nodes", type=int, default=None, help=NODES_HELP)

    return parser


def _params(args) -> ClassParams:
    return ClassParams(q=args.q, lam=args.lam, alpha=args.alpha, k=args.k, trunc=args.trunc)


def _load_series(args, params: ClassParams) -> PowerSeries:
    if args.series is None and args.series_file is None:
        return random_member(params, seed=args.seed, density=args.density)
    try:
        if args.series_file is not None:
            text = Path(args.series_file).read_text(encoding="utf-8")
        else:
            text = args.series
        return PowerSeries.from_dict(json.loads(text))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError, TypeError) as exc:
        raise ValueError(f"invalid series JSON: {exc}") from None


def _certified_member(args) -> tuple[ClassParams, PowerSeries, MembershipReport]:
    """Class parameters, series, and its coefficient test report, before any
    other work is done.  An uncertified series is refused unless
    allow_uncertified is set: by --allow-uncertified, or by default for
    membership, which reports the failure."""
    params = _params(args)
    f = _load_series(args, params)
    report = coefficient_test(f, params)
    if not report.holds and not args.allow_uncertified:
        raise ValueError(
            f"series fails the coefficient test with margin {report.margin}, so the "
            f"{args.command} hypothesis is uncertified (use --allow-uncertified to force)"
        )
    return params, f, report


def _nodes(args, f: PowerSeries) -> int:
    return default_nodes(f.order) if args.nodes is None else args.nodes


def cmd_membership(args) -> tuple[dict, bool]:
    _, _, report = _certified_member(args)
    return report.to_dict(), report.holds


def cmd_extremal(args) -> tuple[dict, bool]:
    return extremal_function(args.n, _params(args)).to_dict(), True


def cmd_integral_means(args) -> tuple[dict, bool]:
    params, f, certification = _certified_member(args)
    nodes = _nodes(args, f)
    (row,) = sweep_integral_means(f, params, (args.r,), (args.eta,), nodes)
    doc = {"r": row.r, "eta": row.eta, "nodes": nodes, "lhs": row.lhs, "rhs": row.rhs}
    doc.update(margin=row.margin, certified=certification.holds, holds=row.holds)
    return doc, row.holds


def cmd_subordination(args) -> tuple[dict, bool]:
    params, f, certification = _certified_member(args)
    report = subordination_report(f, params)
    return {**asdict(report), "certified": certification.holds}, report.holds


def cmd_limit_check(args) -> tuple[dict, bool]:
    worst_kernel = 0.0
    for lam in (0, 1, 2, 3):
        exact = np.array([math.comb(n + lam - 1, n - 1) for n in range(2, 13)], dtype=float)
        approx = kernel_coeffs(float(lam), Q_MAX, 12)
        worst_kernel = max(worst_kernel, float(np.max(np.abs(approx - exact) / exact)))

    rng = _generator(args.seed)
    worst_deriv = 0.0
    for _ in range(20):
        n_index = np.arange(2.0, 17.0)
        coeffs = rng.uniform(-1.0, 1.0, n_index.size) / n_index**3
        f = PowerSeries(tuple(coeffs))
        dq = q_derivative(f, Q_MAX)
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
    }, worst_kernel <= KERNEL_LIMIT_TOL and worst_deriv <= DERIVATIVE_LIMIT_TOL


def _float_list(text: str) -> list[float]:
    """The value of --r-list or --eta-list, for argparse."""
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects comma-separated floats, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("must name at least one value")
    return values


def cmd_sweep(args) -> tuple[dict | str, bool]:
    """The JSON document, or for csv and human the rendered text."""
    params, f, _ = _certified_member(args)
    nodes = _nodes(args, f)
    rows = sweep_integral_means(f, params, args.r_list, args.eta_list, nodes)
    holds = all(row.holds for row in rows)
    if args.format == "json":
        return {"nodes": nodes, "rows": [row._asdict() for row in rows]}, holds
    if args.format == "csv":
        return sweep_to_csv(rows), holds
    lines = (" ".join(f"{key}={value}" for key, value in row._asdict().items()) for row in rows)
    return "".join(line + "\n" for line in lines), holds


def _emit(doc: dict | str, fmt: str) -> None:
    if isinstance(doc, str):
        print(doc, end="")
    elif fmt == "json":
        print(json.dumps(doc, indent=2, allow_nan=False))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc, ok = args.run(args)
        _emit(doc, args.format)
        sys.stdout.flush()
        return 0 if ok else 1
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
