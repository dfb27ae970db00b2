"""Workloads of the qstarlike benchmark.

Each workload turns a seed into blocks of op inputs, runs one op in-process,
and checks the op's output.  An op returns the list of invariants it broke;
an empty list means the op succeeded.  The harness in run.py times the ops;
nothing here reads a clock.

The package is imported as ``qs`` and every call goes through an attribute
of ``qs`` (or of ``qs.cli``), so the boundary tracer in tracer.py sees it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

import qstarlike as qs
import qstarlike.cli

# ---------------------------------------------------------------------------
# checks shared by the library ops


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _subordination_failures(sub, min_re: float | None = None) -> list[str]:
    bad = []
    values = (sub.constant, sub.realpart_bound, sub.wilf_min, sub.sharpness_min)
    if not _finite(*values):
        bad.append("subordination report has a non-finite value")
    if not 0.0 < sub.constant < 0.5:
        bad.append("factor constant outside (0, 1/2)")
    if not sub.wilf_min > 0.0:
        bad.append("wilf_min <= 0")
    if not sub.sharpness_min >= -0.5 - 1.0e-9:
        bad.append("sharpness_min < -1/2")
    if min_re is not None and not min_re > sub.realpart_bound:
        bad.append("min_real_part <= realpart_bound")
    return bad


# ---------------------------------------------------------------------------
# library ops


def pipeline_op(inp) -> list[str]:
    """Certify a seeded member, then check both of its consequences."""
    params, seed = inp
    f = qs.random_member(params, seed)
    report = qs.coefficient_test(f, params)
    margin = qs.criterion_min_margin(f, params)
    cfg = qs.QuadratureConfig(nodes=qs.default_nodes(params.trunc))
    cmp = qs.verify_integral_means(f, params, cfg)
    sub = qs.subordination_report(f, params)
    min_re = qs.min_real_part(f)

    bad = []
    if not _finite(report.margin, margin, cmp.lhs, cmp.rhs, min_re):
        bad.append("non-finite margin, integral or real part")
    if report.verdict is not qs.Verdict.SUFFICIENT_PASS or not report.margin >= 0.0:
        bad.append("random member is not SUFFICIENT_PASS with margin >= 0")
    if not (cmp.certified and cmp.holds):
        bad.append("integral means do not hold")
    return bad + _subordination_failures(sub, min_re)


QUAD_R = tuple(float(r) for r in np.linspace(0.1, 0.95, 8))
QUAD_ETA = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
QUAD_NODES = 4096
QUAD_GRID = qs.SampleGrid(tuple(float(r) for r in np.linspace(0.05, 0.95, 19)), 256)


def quadrature_op(inp) -> list[str]:
    """Ring-evaluation heavy op: an 8x8 integral-means sweep at 4096 nodes,
    the subordination report and the criterion on a dense grid."""
    params, seed = inp
    f = qs.random_member(params, seed)
    rows = qs.sweep_integral_means(f, params, QUAD_R, QUAD_ETA, nodes=QUAD_NODES)
    sub = qs.subordination_report(f, params)
    margin = qs.criterion_min_margin(f, params, QUAD_GRID)

    bad = []
    if not _finite(margin, *(v for row in rows for v in (row.lhs, row.rhs))):
        bad.append("non-finite sweep value or criterion margin")
    slack = 1.0 + qs.analysis.INTEGRAL_MEANS_SLACK
    if not all(row.lhs <= row.rhs * slack for row in rows):
        bad.append("integral means do not hold")
    return bad + _subordination_failures(sub)


# ---------------------------------------------------------------------------
# CLI ops

SRC = str(Path(qs.__file__).resolve().parent.parent)
CLI_TIMEOUT_S = 120

# Exit codes of the README commands at the commit that introduced this
# benchmark, for every generated input: all of them verify.
EXPECTED_EXIT = 0


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def cli_output_failures(argv: Sequence[str], code: int, stdout: str) -> list[str]:
    """A CLI op fails on an unexpected exit code or on stdout that does not
    parse strictly (NaN and Infinity are rejected)."""
    bad = []
    if code != EXPECTED_EXIT:
        bad.append(f"exit code {code}, expected {EXPECTED_EXIT}")
    try:
        if "csv" in argv:
            header, *rows = stdout.strip().splitlines()
            if header != qs.analysis.CSV_HEADER or not rows:
                raise ValueError("bad CSV header or no rows")
            if not _finite(*(float(v) for row in rows for v in row.split(","))):
                raise ValueError("non-finite CSV value")
        else:
            json.loads(stdout, parse_constant=_reject_constant)
    except ValueError as exc:
        bad.append(f"stdout does not parse: {exc}")
    return bad


def cli_commands(rng: np.random.Generator) -> list[list[str]]:
    """The six README commands with seeded inputs, then a large sweep."""

    def seed() -> str:
        return str(int(rng.integers(1, 1_000_000)))

    a = float(rng.uniform(0.05, 0.6))
    series = json.dumps({"sign": "minus", "coeffs": [a]})
    return [
        ["membership", "--q", "0.5", "--series", series, "--format", "json"],
        ["extremal", "--n", str(int(rng.integers(2, 9))), "--q", "0.5", "--format", "json"],
        ["integral-means", "--q", "0.5", "--seed", seed(), "--r", "0.5", "--eta", "2",
         "--format", "json"],
        ["subordination", "--q", "0.5", "--lambda", "1", "--seed", seed(), "--format", "json"],
        ["limit-check", "--seed", seed(), "--format", "json"],
        ["sweep", "--q", "0.5", "--seed", seed(), "--format", "csv"],
        ["sweep", "--trunc", "1024", "--nodes", "4096", "--seed", seed(), "--format", "json"],
    ]


def cli_subprocess_op(argv: Sequence[str]) -> list[str]:
    """One CLI invocation as a fresh ``python -m qstarlike`` process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "qstarlike", *argv],
        capture_output=True, text=True, env=env, timeout=CLI_TIMEOUT_S,
    )
    return cli_output_failures(argv, proc.returncode, proc.stdout)


def cli_inprocess_op(argv: Sequence[str]) -> list[str]:
    """One CLI invocation through ``cli.main`` with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qs.cli.main(list(argv))
    return cli_output_failures(argv, code, out.getvalue())


# ---------------------------------------------------------------------------
# workload table

CERTIFY_PARAMS = qs.ClassParams(q=0.5, lam=1.0, alpha=0.3, k=2.0, trunc=256)
QUAD_PARAMS = qs.ClassParams(q=0.5, lam=1.0, trunc=64)
SCAN_TRUNCS = (64, 128, 256, 512, 1024)


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, count)]


def _certify_block(rng):
    return [(CERTIFY_PARAMS, s) for s in _seeds(rng, 1)]


def _quadrature_block(rng):
    return [(QUAD_PARAMS, s) for s in _seeds(rng, 1)]


def _scan_params(rng: np.random.Generator, trunc: int):
    """One draw over the documented domain.  q is taken log-uniform near 0,
    uniform, or log-uniform near 1 with equal odds, so both edges of
    [1e-6, 1 - 1e-6] are reached; lam is log-spaced above -1 up to 50."""
    edge = int(rng.integers(3))
    if edge == 0:
        q = 10.0 ** rng.uniform(-6.0, -1.0)
    elif edge == 1:
        q = rng.uniform(1.0e-6, 1.0 - 1.0e-6)
    else:
        q = 1.0 - 10.0 ** rng.uniform(-6.0, -1.0)
    lam = -1.0 + 10.0 ** rng.uniform(-2.0, math.log10(51.0))
    return qs.ClassParams(
        q=float(q),
        lam=float(min(lam, 50.0)),
        alpha=float(rng.uniform(0.0, 1.0)),
        k=float(rng.uniform(0.0, 5.0)),
        trunc=trunc,
    )


def _scan_block(rng):
    # every trunc once per block, in seeded order, so the latency
    # quantiles always see the same trunc mix
    truncs = rng.permutation(SCAN_TRUNCS)
    return [(_scan_params(rng, int(t)), s) for t, s in zip(truncs, _seeds(rng, len(truncs)))]


def _scan_oracle_params():
    return tuple(
        qs.ClassParams(q=q, lam=lam, alpha=0.3, k=2.0, trunc=256)
        for q in (1.0e-6, 0.5, 0.99, 1.0 - 1.0e-6)
        for lam in (-0.99, 0.0, 3.0, 50.0)
    )


@dataclass(frozen=True)
class Workload:
    """block(rng) gives the inputs of one block of ops; a run times whole
    blocks.  op(input) runs one op in this process.  When spawn_op is set,
    the timed run uses it instead: the same op in a child process.
    oracle_params are the class parameters whose criterion weights the
    workload uses."""

    name: str
    block: Callable[[np.random.Generator], list]
    op: Callable[[object], list[str]]
    oracle_params: tuple
    spawn_op: Callable[[object], list[str]] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify_shared", _certify_block, pipeline_op, (CERTIFY_PARAMS,)),
        Workload("param_scan", _scan_block, pipeline_op, _scan_oracle_params()),
        Workload("quadrature", _quadrature_block, quadrature_op, (QUAD_PARAMS,)),
        Workload(
            "cli_readme",
            cli_commands,
            cli_inprocess_op,
            (
                qs.ClassParams(q=0.5, trunc=64),
                qs.ClassParams(q=0.5, lam=1.0, trunc=64),
                qs.ClassParams(q=0.5, trunc=1024),
            ),
            spawn_op=cli_subprocess_op,
        ),
    )
}


# ---------------------------------------------------------------------------
# mpmath oracle for the criterion weights

ORACLE_DPS = 50


def oracle_max_rel_err(params_list: Sequence) -> float:
    """Largest relative error of ``criterion_weights`` against mpmath at 50
    digits, over n = 2..trunc of each parameter set.  Non-finite weights are
    left out: they fail the ops that use them."""
    import mpmath

    ctx = mpmath.MPContext()
    ctx.dps = ORACLE_DPS
    worst = 0.0
    for p in params_list:
        got = np.asarray(qs.criterion_weights(p), dtype=float)
        q = ctx.mpf(p.q)

        def bracket(t):
            return (1 - ctx.power(q, t)) / (1 - q)

        kernel = ctx.mpf(1)
        for n in range(2, p.trunc + 1):
            kernel *= bracket(ctx.mpf(p.lam) + (n - 1)) / bracket(n - 1)
            exact = (bracket(n) * (1 + ctx.mpf(p.k)) - p.k - ctx.mpf(p.alpha)) * kernel
            if math.isfinite(got[n - 2]):
                worst = max(worst, float(abs((ctx.mpf(got[n - 2]) - exact) / exact)))
    return worst


def warmup(name: str, seed: int) -> None:
    """Run the first op of a workload in this process, whatever its outcome.
    The set-up probe times a fresh interpreter importing the package and
    calling this; the timed loop is what checks op outputs."""
    w = WORKLOADS[name]
    w.op(w.block(np.random.default_rng(seed))[0])
