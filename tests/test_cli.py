import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # an empty --series is a given series, not a request for a random member
    for command in ("integral-means", "subordination", "sweep"):
        code, out, err = run_cli(capsys, command, "--series", "", "--format", "json")
        assert (code, out) == (2, ""), command
        assert "invalid series JSON" in err, command


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
    for argv in (
        ["membership", "--bogus", "1"],
        # only integral-means, subordination and sweep generate or force a
        # member, so only they take --seed, --density and --allow-uncertified
        ["membership", "--series", '{"sign":"minus","coeffs":[0.5]}', "--allow-uncertified"],
        ["membership", "--seed", "3", "--series", '{"sign":"minus","coeffs":[0.5]}'],
        ["membership", "--density", "0.5", "--series", '{"sign":"minus","coeffs":[0.5]}'],
    ):
        code = main(argv)
        assert capsys.readouterr().out == ""
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
    # csv is a --format choice of sweep only; every other command refuses it
    for argv in (
        ["membership", "--q", "0.5", "--series", '{"sign":"minus","coeffs":[0.5]}'],
        ["extremal", "--n", "2"],
        ["integral-means", "--seed", "7"],
        ["subordination", "--seed", "7"],
        ["limit-check"],
    ):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 2, argv
        assert out == "", argv
        assert "csv" in err, argv


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
    # the refusal names the margin: 1 - [2] * 2.0 with [2] = 1.9 at q = 0.9
    assert "fails the coefficient test with margin -2.8000000000000003" in err

    code, out, _ = run_cli(capsys, *fixture, "--allow-uncertified")
    assert code == 1  # forced run exposes the violation
    doc = json.loads(out)
    assert not doc["certified"] and not doc["holds"]


def test_integral_means_checks_hypothesis_before_integrating(capsys):
    # the circle integral of this series overflows, but the refusal of an
    # uncertified series comes first, as it does for sweep
    for command in ("integral-means", "sweep"):
        code, out, err = run_cli(
            capsys, command, "--series", '{"sign":"plus","coeffs":[1e200]}',
        )
        assert code == 2, command
        assert out == "", command
        assert "uncertified" in err, command
        assert "overflows" not in err, command


@pytest.mark.parametrize(
    "argv, name",
    [
        (["membership", "--series", '{"sign":"minus","coeffs":[0.5]}', "--k", "inf"], "k"),
        (["integral-means", "--k", "inf"], "k"),
        (["extremal", "--n", "2", "--k", "inf"], "k"),
        (["integral-means", "--lambda", "inf"], "lambda"),
        (["integral-means", "--eta", "inf", "--format", "json"], "eta"),
        (["sweep", "--eta-list", "2,inf", "--format", "json"], "eta"),
    ],
)
def test_non_finite_parameter_is_a_usage_error(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"error: {name} must be finite" in err


@pytest.mark.parametrize("eta", ["1100", "1e308"])
def test_underflowing_circle_integral_is_a_usage_error(capsys, eta):
    # at r = 0.5, |f|**1100 underflows to 0 at every node, and at 1e308 so
    # does |f_2|**eta; a zero lhs would make the verdict vacuous
    code, out, err = run_cli(capsys, "integral-means", "--eta", eta)
    assert code == 2
    assert out == ""
    assert "underflows" in err


def test_overflowing_circle_integral_names_its_radius_and_eta(capsys):
    # a certified seeded member: max|f| exceeds 1 at r = 0.99, so |f|**5000
    # leaves the double range there; the coefficients are not at fault
    code, out, err = run_cli(capsys, "integral-means", "--q", "0.5", "--seed", "7",
                             "--r", "0.99", "--eta", "5000")
    assert (code, out) == (2, "")
    assert "the circle integral overflows at r = 0.99, eta = 5000.0" in err
    assert "coefficients" not in err


def test_a_density_below_the_normal_range_is_named(capsys):
    # density * (1 - alpha) = 1e-310 is subnormal: the density is refused,
    # not the criterion weights
    code, out, err = run_cli(capsys, "subordination", "--q", "0.5", "--lambda", "3",
                             "--density", "1e-310")
    assert (code, out) == (2, "")
    assert "error: density = 1e-310 is too small" in err
    assert "weights" not in err


@pytest.mark.parametrize("k", ["1e17", "1e300"])
def test_huge_finite_k_rounds_the_factor_constant_to_one_half(capsys, k):
    # once w_2 exceeds about 2**53 (1 - alpha), c rounds to 1/2 and the
    # real-part bound to -1; that is still a report, not a usage error
    code, out, _ = run_cli(capsys, "subordination", "--k", k, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["constant"] == 0.5
    assert doc["realpart_bound"] == -1.0
    assert doc["wilf_min"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        # the scale of the random member is subnormal, where backing it off
        # by a factor 1 - 2**-52 leaves it unchanged
        ["--lambda", "6", "--trunc", "43", "--density", "0.5", "--seed", "1"],
        # the weighted sum overflows, so the scale would be 0 and the member zero
        ["--lambda", "5", "--trunc", "64"],
    ],
)
def test_random_member_beyond_the_normal_float_range_is_a_usage_error(argv):
    # a subprocess with a timeout, so a hang fails this test instead of the suite
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qstarlike", "subordination",
         "--q", "0.99", "--k", "1e300", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "underflow at k = 1e+300" in proc.stderr


@pytest.mark.parametrize(
    "argv, name",
    [
        (["subordination", "--trunc", "262145"], "trunc"),
        (["integral-means", "--nodes", "2097152"], "nodes"),
        (["sweep", "--nodes", "2097152"], "nodes"),
    ],
)
def test_sizes_above_their_ceilings_are_usage_errors(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: {name} must" in err


@pytest.mark.parametrize("command", ["membership", "integral-means", "subordination", "sweep"])
def test_series_beyond_the_trunc_ceiling_is_a_usage_error(capsys, tmp_path, command):
    # a given series is capped where it is built, so the error names its
    # order, not a --nodes that was never passed
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"sign": "minus", "coeffs": [0.0] * 300000}))
    code, out, err = run_cli(capsys, command, "--series-file", str(path), "--format", "json")
    assert (code, out) == (2, "")
    assert err == "error: series order must be at most 262144, got 300001\n"


def test_non_number_coefficient_is_a_usage_error(capsys):
    # a JSON string, bool or null is refused by name, not coerced by numpy
    for coeffs, entry in (('["0.25", false]', "coeffs[0]"), ("[0.25, false]", "coeffs[1]"),
                          ("[0.25, null]", "coeffs[1]")):
        series = '{"sign":"minus","coeffs":%s}' % coeffs
        code, out, err = run_cli(capsys, "membership", "--series", series)
        assert (code, out) == (2, "")
        assert f"invalid series JSON: {entry} must be a number" in err
    # a JSON integer beyond the float range is not finite, not a traceback
    huge = '{"sign":"plus","coeffs":[1%s]}' % ("0" * 400)
    code, out, err = run_cli(capsys, "membership", "--series", huge)
    assert (code, out, err) == (2, "", "error: series coefficients must be finite\n")
    code, out, _ = run_cli(capsys, "membership", "--series", '{"sign":"minus","coeffs":[0, 1]}')
    assert code == 1 and "per_term: [[2, " in out


def test_huge_k_overflowing_the_weights_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "subordination", "--k", "1e308")
    assert code == 2
    assert out == ""
    assert "k = 1e+308" in err
    # the order-2 weight of a one-coefficient series stays finite
    code, out, _ = run_cli(
        capsys, "membership", "--k", "1e308",
        "--series", '{"sign":"minus","coeffs":[0.5]}', "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["per_term"] == [[2, 5e307, 2.5e307]]


@pytest.mark.parametrize(
    "series",
    [
        ["--seed", "7"],
        ["--q", "0.9", "--series", '{"sign":"minus","coeffs":[2.0]}', "--allow-uncertified"],
    ],
)
def test_integral_means_runs_the_coefficient_test_once(capsys, monkeypatch, series):
    # and so does every command that tests a series: membership takes the
    # seeded member as given (a pass), and reports the forced series'
    # failure with no flag
    from qstarlike import ClassParams, analysis, cli, random_member

    calls = []

    def counting(test):
        def counted(f, params):
            calls.append(test)
            return test(f, params)

        return counted

    for module in (cli, analysis):
        monkeypatch.setattr(module, "coefficient_test", counting(module.coefficient_test))
    if "--seed" in series:
        member = random_member(ClassParams(q=0.5), seed=7).to_dict()
        membership = ["--series", json.dumps(member)]
    else:
        membership = series[:-1]
    for command, argv in [("integral-means", series), ("subordination", series),
                          ("sweep", series), ("membership", membership)]:
        calls.clear()
        code, _, _ = run_cli(capsys, command, *argv, "--format", "json")
        assert code == (0 if "--seed" in series else 1), command
        assert len(calls) == 1, command


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

    # a given series is sized by its own order, whatever --trunc says:
    # 256 nodes integrate an order-3 series exactly
    series = '{"sign":"minus","coeffs":[0.1,0.05]}'
    code, out, _ = run_cli(capsys, "integral-means", "--series", series, "--trunc", "512",
                           "--r", "0.95", "--format", "json")
    doc = json.loads(out)
    assert doc["nodes"] == 256
    coeffs = np.array([0.0, 1.0, -0.1, -0.05])
    exact = 2.0 * np.pi * np.sum((coeffs * 0.95 ** np.arange(4)) ** 2)
    assert doc["lhs"] == pytest.approx(exact, rel=1e-13)


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

    # a forced uncertified series breaks Wilf positivity: exit 1
    code, out, _ = run_cli(
        capsys, "subordination", "--series", '{"sign":"minus","coeffs":[2.0]}',
        "--allow-uncertified", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["wilf_min"] < 0
    assert doc["certified"] is False


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


@pytest.mark.parametrize(
    "series",
    [
        ["--seed", "5", "--density", "0.5"],
        ["--q", "0.9", "--series", '{"sign":"minus","coeffs":[2.0]}', "--allow-uncertified"],
    ],
)
def test_integral_means_and_sweep_share_one_comparison(capsys, series):
    for r, eta in (("0.5", "2"), ("0.9", "0.5")):
        code, out, _ = run_cli(
            capsys, "integral-means", *series, "--r", r, "--eta", eta, "--format", "json",
        )
        single = json.loads(out)
        sweep_code, out, _ = run_cli(
            capsys, "sweep", *series, "--r-list", r, "--eta-list", eta, "--format", "json",
        )
        (row,) = json.loads(out)["rows"]
        assert (row["lhs"], row["rhs"], row["margin"]) == (
            single["lhs"], single["rhs"], single["margin"],
        )
        assert sweep_code == code


@pytest.mark.parametrize(
    "argv, nodes",
    [
        (["--seed", "7"], 256),
        (["--seed", "9", "--trunc", "512"], 2048),
        (["--seed", "7", "--nodes", "512"], 512),
    ],
)
def test_sweep_json_reports_its_nodes(capsys, argv, nodes):
    code, out, _ = run_cli(capsys, "sweep", "--q", "0.5", *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert list(doc) == ["nodes", "rows"] and doc["nodes"] == nodes
    code, out, _ = run_cli(capsys, "sweep", "--q", "0.5", *argv, "--format", "csv")
    assert out.startswith("r,eta,lhs,rhs,margin\n")


@pytest.mark.parametrize(
    "series, message",
    [
        ("[1,2]", "a series must be a JSON object, got array"),
        ("null", "a series must be a JSON object, got null"),
        ('{"sign":"minus","coeffs":"abc"}', "coeffs must be a JSON array, got string"),
        ('{"coeffs":{"a":1}}', "coeffs must be a JSON array, got object"),
    ],
    ids=["list", "null", "string-coeffs", "object-coeffs"],
)
def test_series_json_shape_error_names_the_shape(capsys, series, message):
    code, out, err = run_cli(capsys, "membership", "--series", series)
    assert (code, out, err) == (2, "", f"error: invalid series JSON: {message}\n")


@pytest.mark.parametrize(
    "source, message",
    [
        ("nested", "maximum recursion depth exceeded"),
        ("not-utf8", "'utf-8' codec can't decode byte 0xff in position 0"),
    ],
)
def test_undecodable_series_is_a_usage_error(capsys, tmp_path, source, message):
    # JSON nested past the parser's depth and a file that is not UTF-8 are
    # series JSON errors, not tracebacks
    if source == "nested":
        argv = ["--series", "[" * 100000]
    else:
        path = tmp_path / "series.json"
        path.write_bytes(b'\xff{"sign":"minus","coeffs":[0.5]}')
        argv = ["--series-file", str(path)]
    code, out, err = run_cli(capsys, "membership", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid series JSON: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "series, message",
    [
        ('{"sign":"bogus","coeffs":[0.5]}', 'sign must be "plus" or "minus", got "bogus"'),
        ('{"sign":["minus"],"coeffs":[0.5]}', 'sign must be "plus" or "minus", got ["minus"]'),
        ('{"coeffs":[0.5]}', 'a series needs the key "sign"'),
        ('{"sign":"minus"}', 'a series needs the key "coeffs"'),
    ],
    ids=["bogus-sign", "list-sign", "missing-sign", "missing-coeffs"],
)
def test_series_json_key_or_sign_error_names_what_was_found(capsys, series, message):
    code, out, err = run_cli(capsys, "membership", "--series", series)
    assert (code, out, err) == (2, "", f"error: invalid series JSON: {message}\n")


@pytest.mark.parametrize("command", ["integral-means", "subordination", "sweep", "limit-check"])
def test_negative_seed_is_a_usage_error_naming_seed(capsys, command):
    code, out, err = run_cli(capsys, command, "--seed", "-1")
    assert (code, out, err) == (2, "", "error: seed must be a non-negative integer, got -1\n")


def test_sweep_rejects_bad_list(capsys):
    # the parser reads the lists, so a bad one is refused with the usage
    # line before any series is loaded, even one that fails certification
    oversized = ["--series", '{"sign":"minus","coeffs":[2.0]}']
    for series in ([], oversized):
        for flag, value, message in (
            ("--r-list", "a,b", "expects comma-separated floats, got 'a,b'"),
            ("--eta-list", ",", "must name at least one value"),
        ):
            code, out, err = run_cli(
                capsys, "sweep", "--q", "0.5", *series, flag, value, "--format", "csv",
            )
            assert (code, out) == (2, ""), (series, flag)
            assert err.startswith("usage: qstarlike sweep"), (series, flag)
            assert err.endswith(f"qstarlike sweep: error: argument {flag}: {message}\n")


def test_main_alone_prints_each_document_and_decides_the_exit_code():
    # every command returns (document, verdict); cli.main is the one caller
    # of _emit and the one place that maps a verdict to 0 or 1
    import ast
    import inspect

    from qstarlike import cli

    tree = ast.parse(inspect.getsource(cli))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    callers = {
        name for name, node in functions.items()
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_emit"
    }
    assert callers == {"main"}
    for name, node in functions.items():
        if name.startswith("cmd_"):
            calls = {getattr(c.func, "id", None) for c in ast.walk(node) if isinstance(c, ast.Call)}
            assert "print" not in calls, name
            assert node.returns is not None and ast.unparse(node.returns).startswith("tuple["), name


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


def test_cli_import_leaves_out_numpy_polynomial():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qstarlike.cli; print('numpy.polynomial' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        (["membership", "--q", "0.5", "--series", '{"sign":"minus","coeffs":[0.5]}'], "1"),
        (["membership", "--q", "0.5", "--series", '{"sign":"minus","coeffs":[0.5]}'], ""),
        (["sweep", "--trunc", "512"], "1"),
    ],
)
def test_closed_stdout_exits_quietly(argv, unbuffered):
    # the read end is closed before the child starts, so its first write to
    # stdout (unbuffered) or its final flush (buffered) meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qstarlike", *argv, "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def refuse_non_finite(token):
    raise ValueError(f"non-finite number {token} in JSON output")


@settings(max_examples=40, deadline=None)
@given(
    sign=st.sampled_from(["plus", "minus"]),
    coeffs=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=6),
)
@example(sign="plus", coeffs=[1e200])
@example(sign="plus", coeffs=[1e308])
def test_series_parse_boundary_property(sign, coeffs):
    # any finite series: a verdict (exit 0 or 1) with strict JSON on stdout,
    # or a usage error (exit 2) with nothing on stdout; the RuntimeWarning
    # filter in pyproject.toml turns any leaked numpy warning into a failure
    series = json.dumps({"sign": sign, "coeffs": coeffs})
    for command in ("integral-means", "sweep", "subordination"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--series", series, "--allow-uncertified", "--format", "json"])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
        else:
            json.loads(out.getvalue(), parse_constant=refuse_non_finite)
