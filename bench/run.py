#!/usr/bin/env python3
"""qstarlike benchmark: one workload, one client, closed loop.

    python3 bench/run.py --workload certify_shared --seed 1 --seconds 36 --trace 0

Run from the repository root.  The package is imported from ./src.  All
inputs are generated from --seed.  The client sends the next op only after
the previous one has returned.  Every op's output is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics: half the run is untraced, half is traced by tracer.py.  The last
line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The lines before it list the same metrics, plus fail_frac and the reasons
ops failed.  bench/README.md says what each metric and workload is for.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark is a single client on a small machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Set-up and import probes per run; each result is the median.
SETUP_PROBES = 5
IMPORT_PROBES = 5
PROBE_TIMEOUT_S = 120
# A timed run has at least this many ops, so ten lie beyond the p90.
MIN_OPS = 100

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "oracle_max_rel_err": "rel",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "calls": "count/op",
    "self_ms": "ms/op",
    "errors": "count/op",
    "weights_built": "count/op",
    "useful_ratio": "ratio",
    "nonfinite": "count/op",
    "coeffs_transformed": "count/op",
    "point_terms": "count/op",
    "grid_points": "count/op",
    "transforms_per_margin": "ratio",
    "quadrature_nodes": "count/op",
    "recertifications": "count/op",
    "wall_ms": "ms",
    "import_ms": "ms",
    "overhead_ms": "ms",
    "bad_exit": "count/op",
    "overhead_frac": "ratio",
}


def die(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


@dataclass
class Loop:
    """Outcome of a closed loop: one latency per op, failures by reason."""

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    @property
    def ops_per_s(self) -> float:
        """Completed ops per second of op time."""
        return (len(self.latencies) - self.failed) / sum(self.latencies)

    def percentile_ms(self, p: int) -> float:
        lat = sorted(self.latencies)
        if len(lat) < 2:
            return lat[0] * 1e3
        return statistics.quantiles(lat, n=100)[p - 1] * 1e3


def closed_loop(op, blocks, seconds: float, min_ops: int = 0, after_op=None) -> Loop:
    """Run whole blocks of ops one at a time until at least ``min_ops`` ops
    have run, starting a further block only while it is expected to finish
    within ``seconds``."""
    loop = Loop()
    start = time.perf_counter()
    done = 0
    while True:
        for inp in next(blocks):
            t0 = time.perf_counter()
            try:
                bad = op(inp)
            except Exception as exc:  # an op that raises is a failed op
                bad = [f"raised {type(exc).__name__}"]
            loop.latencies.append(time.perf_counter() - t0)
            if bad:
                loop.failed += 1
                loop.reasons.update(bad)
            if after_op is not None:
                after_op()
        done += 1
        elapsed = time.perf_counter() - start
        if len(loop.latencies) >= min_ops and elapsed + elapsed / done > seconds:
            return loop


def wall_of(argv: list[str]) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        die(f"probe {argv[-1]!r} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return wall


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing the package and
    finishing one warm-up op of the workload."""
    code = (
        f"import sys; sys.path[:0] = {[str(SRC), str(BENCH)]!r}; "
        f"import workloads; workloads.warmup({name!r}, {seed})"
    )
    return statistics.median(wall_of([sys.executable, "-c", code]) for _ in range(SETUP_PROBES))


def import_ms() -> float:
    """Median wall time of a fresh interpreter running ``import qstarlike``:
    the start-up floor every CLI invocation pays."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import qstarlike"
    return 1e3 * statistics.median(
        wall_of([sys.executable, "-c", code]) for _ in range(IMPORT_PROBES)
    )


def block_stream(workload, rng):
    while True:
        yield workload.block(rng)


def run_plain(W, workload, rng, seed: int, seconds: float):
    setup = setup_seconds(workload.name, seed)
    oracle_err = W.oracle_max_rel_err(workload.oracle_params)
    blocks = block_stream(workload, rng)
    for inp in next(blocks):  # warm-up, not timed
        workload.op(inp)
    loop = closed_loop(workload.spawn_op or workload.op, blocks, seconds, min_ops=MIN_OPS)
    who = resource.RUSAGE_CHILDREN if workload.spawn_op else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": loop.percentile_ms(50),
        "op_p90_ms": loop.percentile_ms(90),
        "oracle_max_rel_err": oracle_err,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return loop, metrics, dict(END_TO_END)


def run_traced(W, workload, rng, seconds: float):
    import qstarlike
    from tracer import LayerStats, Tracer

    start = time.perf_counter()
    floor_ms = import_ms()
    cli = {"cli.wall_ms": 0.0, "cli.import_ms": floor_ms, "cli.overhead_ms": 0.0}
    blocks = block_stream(workload, rng)
    probe = Loop()
    if workload.spawn_op:
        # one block as child processes: wall time per CLI invocation
        probe = closed_loop(workload.spawn_op, blocks, 0.0)
        cli["cli.wall_ms"] = 1e3 * statistics.median(probe.latencies)
        cli["cli.overhead_ms"] = cli["cli.wall_ms"] - floor_ms
    for inp in next(blocks):  # warm-up, not timed
        workload.op(inp)
    half = max(seconds - (time.perf_counter() - start), 0.0) / 2.0
    plain = closed_loop(workload.op, blocks, half)

    tracer, stats = Tracer(qstarlike), LayerStats()
    tracer.install(entry_points=((qstarlike.cli, "main"),))
    try:
        traced = closed_loop(
            workload.op, blocks, half, after_op=lambda: stats.fold(tracer.take())
        )
    finally:
        tracer.uninstall()

    metrics = stats.metrics()
    metrics.update(cli)
    cli_ops = len(probe.latencies) + (len(traced.latencies) if workload.spawn_op else 0)
    bad_exit = sum(n for reason, n in (probe.reasons + traced.reasons).items()
                   if reason.startswith("exit code"))
    metrics["cli.bad_exit"] = bad_exit / cli_ops if cli_ops else 0.0
    rate = [len(lp.latencies) / sum(lp.latencies) for lp in (plain, traced)]
    metrics["trace.overhead_frac"] = rate[0] / rate[1] - 1.0

    loop = Loop(
        probe.latencies + plain.latencies + traced.latencies,
        probe.failed + plain.failed + traced.failed,
        probe.reasons + plain.reasons + traced.reasons,
    )
    units = {name: PER_LAYER_UNITS[name.rsplit(".", 1)[1]] for name in metrics}
    return loop, metrics, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qstarlike" / "__init__.py").is_file():
        die(f"no package source at {SRC}; run from a qstarlike checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy as np
    import workloads as W

    if args.workload not in W.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    workload = W.WORKLOADS[args.workload]
    rng = np.random.default_rng(args.seed)
    if args.trace:
        loop, metrics, units = run_traced(W, workload, rng, args.seconds)
    else:
        loop, metrics, units = run_plain(W, workload, rng, args.seed, args.seconds)

    attempted = len(loop.latencies)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ops {attempted}")
    print(f"  fail_frac {loop.failed / attempted:.6g} ratio")
    for reason, n in loop.reasons.most_common():
        print(f"  failed {n}x: {reason}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
