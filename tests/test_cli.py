import json
import subprocess
import sys

import numpy as np
import pytest

from qstarlike.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_membership_pass(capsys):
    code, out, _ = run_cli(
        capsys,
        "membership",
        "--q", "0.5", "--lambda", "0", "--alpha", "0", "--k", "0",
        "--series", '{"sign":"minus","coeffs":[0.5]}',
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "SUFFICIENT_PASS"
    assert doc["coefficient_sum"] == pytest.approx(0.75)
    assert doc["margin"] == pytest.approx(0.25)


def test_membership_fail_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "membership", "--q", "0.5",
        "--series", '{"sign":"minus","coeffs":[2.0]}',
        "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "SUFFICIENT_FAIL"


def test_membership_requires_series(capsys):
    code, _, err = run_cli(capsys, "membership", "--q", "0.5")
    assert code == 2
    assert "series" in err


def test_invalid_q_exits_two(capsys):
    code, _, err = run_cli(
        capsys,
        "membership", "--q", "1.5",
        "--series", '{"sign":"minus","coeffs":[0.5]}',
    )
    assert code == 2
    assert "q" in err


def test_invalid_series_json_exits_two(capsys):
    code, _, err = run_cli(
        capsys, "membership", "--q", "0.5", "--series", "{not json",
    )
    assert code == 2
    assert "series" in err


def test_overflowing_series_exits_two_without_json(capsys):
    code, out, err = run_cli(
        capsys,
        "membership", "--series", '{"sign":"plus","coeffs":[1e308,1e308]}',
        "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert "overflows" in err


def test_json_output_refuses_non_finite_numbers(capsys):
    from qstarlike.cli import _emit

    with pytest.raises(ValueError):
        _emit({"margin": float("nan")}, "json")
    assert capsys.readouterr().out == ""


def test_unknown_flag_exits_two(capsys):
    code = main(["membership", "--bogus", "1"])
    capsys.readouterr()
    assert code == 2


def test_extremal_values(capsys):
    code, out, _ = run_cli(
        capsys, "extremal", "--n", "2", "--q", "0.5", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["sign"] == "minus"
    assert doc["coeffs"][0] == pytest.approx(0.6667, abs=1e-4)


def test_extremal_membership_round_trip(capsys):
    for argv in (
        ["--q", "0.5", "--lambda", "0", "--alpha", "0", "--k", "0"],
        ["--q", "0.8", "--lambda", "1.5", "--alpha", "0.25", "--k", "2"],
    ):
        code, out, _ = run_cli(capsys, "extremal", "--n", "3", "--format", "json", *argv)
        assert code == 0
        code, out, _ = run_cli(
            capsys, "membership", "--series", out, "--format", "json", *argv
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["margin"]) <= 1e-12


def test_csv_rejected_outside_sweep(capsys):
    code, _, err = run_cli(
        capsys,
        "membership", "--q", "0.5",
        "--series", '{"sign":"minus","coeffs":[0.5]}',
        "--format", "csv",
    )
    assert code == 2
    assert "csv" in err


def test_integral_means_member(capsys):
    code, out, _ = run_cli(
        capsys,
        "integral-means", "--q", "0.5", "--seed", "7", "--density", "0.5",
        "--r", "0.5", "--eta", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] and doc["holds"]
    assert doc["lhs"] <= doc["rhs"] * (1 + 1e-9)


def test_integral_means_uncertified_needs_override(capsys):
    fixture = [
        "integral-means", "--q", "0.9",
        "--series", '{"sign":"minus","coeffs":[2.0]}',
        "--r", "0.9", "--eta", "2", "--format", "json",
    ]
    code, _, err = run_cli(capsys, *fixture)
    assert code == 2
    assert "uncertified" in err

    code, out, _ = run_cli(capsys, *fixture, "--allow-uncertified")
    assert code == 1  # forced run exposes the violation
    doc = json.loads(out)
    assert not doc["certified"] and not doc["holds"]


def test_integral_means_default_nodes_follow_trunc(capsys):
    # 256 nodes alias a trunc-512 member: the eta = 2 integral at r = 0.95 is
    # then 2.1e-9 off Parseval, beyond the 1e-9 comparison slack
    from qstarlike import ClassParams, random_member

    argv = ["integral-means", "--q", "0.5", "--trunc", "512", "--seed", "7",
            "--r", "0.95", "--eta", "2", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["nodes"] == 2048
    coeffs = random_member(ClassParams(q=0.5, trunc=512), seed=7).full()
    exact = 2.0 * np.pi * np.sum((coeffs * 0.95 ** np.arange(coeffs.size)) ** 2)
    assert doc["lhs"] == pytest.approx(exact, rel=1e-13)

    code, out, _ = run_cli(capsys, "integral-means", "--trunc", "64", "--format", "json")
    assert json.loads(out)["nodes"] == 256


def test_subordination_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "subordination", "--q", "0.5", "--lambda", "1", "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert 0 < doc["constant"] < 0.5
    assert doc["realpart_bound"] < -1
    assert doc["wilf_min"] > 0
    assert doc["min_real_part"] > doc["realpart_bound"]
    assert doc["sharpness_min"] == pytest.approx(-0.5, abs=2e-2)


def test_limit_check(capsys):
    code, out, _ = run_cli(capsys, "limit-check", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kernel_max_rel_err"] <= 1e-3
    assert doc["q_derivative_max_rel_err"] <= 1e-4


def test_sweep_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--q", "0.5", "--seed", "5", "--density", "0.5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,eta,lhs,rhs,margin"
    assert len(lines) == 1 + 4 * 4
    for line in lines[1:]:
        r, eta, lhs, rhs, margin = (float(tok) for tok in line.split(","))
        assert margin == rhs - lhs
        assert lhs <= rhs * (1 + 1e-9)


def test_sweep_violation_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep", "--q", "0.9",
        "--series", '{"sign":"minus","coeffs":[2.0]}',
        "--allow-uncertified", "--format", "csv",
    )
    assert code == 1


def test_sweep_rejects_bad_list(capsys):
    code, _, err = run_cli(
        capsys,
        "sweep", "--q", "0.5", "--r-list", "a,b", "--format", "csv",
    )
    assert code == 2
    assert "--r-list" in err


def test_identical_argv_identical_output(capsys):
    argv = [
        "subordination", "--q", "0.6", "--lambda", "0.5", "--alpha", "0.1",
        "--seed", "11", "--format", "json",
    ]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second

    argv = ["sweep", "--q", "0.5", "--seed", "5", "--format", "csv"]
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qstarlike", "extremal", "--n", "2", "--q", "0.5",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sign"] == "minus"
