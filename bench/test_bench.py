"""Smoke test of the benchmark (about 30 s on two cores):

    python3 -m pytest bench/test_bench.py

It makes one-second runs in both modes, and checks three things: every
metric named in BENCHMARK.json is emitted with its unit, the work counts of
two traced runs match exactly, and an op whose output is NaN is counted as
failed.  A timed run still makes at least 100 ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORK_COUNTS = (
    "qcore.weights_built",
    "qcore.useful_ratio",
    "classes.transforms_per_margin",
    "series.point_terms",
    "analysis.quadrature_nodes",
    "analysis.recertifications",
)


def run(workload: str, trace: int, seed: int = 3) -> dict:
    argv = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload, trace, group",
    [("certify_shared", 0, "end_to_end"), ("cli_readme", 1, "per_layer")],
)
def test_every_named_metric_is_emitted(workload, trace, group):
    result = run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_work_counts_repeat_across_traced_runs():
    first, second = (run("certify_shared", 1, seed)["metrics"] for seed in (3, 4))
    for name in WORK_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_injected_nan_op_counts_as_failed(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import qstarlike
    import run as bench_run

    real = qstarlike.criterion_min_margin
    calls = []

    def nan_on_second_call(*args, **kwargs):
        # the first call is the untimed warm-up op, the second the first timed op
        calls.append(None)
        return math.nan if len(calls) == 2 else real(*args, **kwargs)

    monkeypatch.setattr(qstarlike, "criterion_min_margin", nan_on_second_call)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench_run.main(["--workload", "certify_shared", "--seed", "3",
                               "--seconds", "1", "--trace", "0"])
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["failed"] == 1 and not result["correct"]
    assert f"  fail_frac {1 / result['attempted']:.6g} ratio" in lines
