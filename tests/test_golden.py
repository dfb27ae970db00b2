"""Replay the golden CLI corpus in tests/golden/.

Each case pins the exit code exactly and stdout token by token: every
number in stdout must match its golden value to a relative tolerance of
GOLDEN_RTOL, and all text between numbers (keys, verdicts, punctuation,
layout) must match exactly.  A margin is a difference of nearly equal
numbers, so an ulp move of its operands is a large relative move of it:
it gets the absolute slack GOLDEN_RTOL * max(|a|, |b|), a and b its
operands in its record (lhs and rhs, or budget and coefficient_sum).  No
other number gets absolute slack, so a golden 0.0 must stay 0.0.
Regenerate cases with tests/golden/generate.py only when a change means to
alter them; its number tokenizer is the one used here.
"""

import json
import math
import re
from pathlib import Path

import pytest

from golden import generate
from golden.generate import describe_move, split_numbers
from qstarlike.cli import main

GOLDEN_RTOL = 1.0e-12

# A number's label in the text before it: a JSON key, or `key:` or `key=`.
LABEL = re.compile(r'(\w+)"?\s*[:=]\s*$')
CSV_HEADER = re.compile(r"^\w+(?:,\w+)+$", re.MULTILINE)
MARGIN_OPERANDS = (("lhs", "rhs"), ("coefficient_sum", "budget"))

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))


def labels(text: list[str]) -> list[str | None]:
    """The name of each number, from the text before it: its label, or
    else its column under the last CSV header."""
    names, columns, column = [], [], 0
    for before in text[:-1]:
        headers = CSV_HEADER.findall(before)
        if headers:
            columns = headers[-1].split(",")
        column = 0 if before.endswith("\n") else column + 1
        label = LABEL.search(before)
        names.append(label[1] if label else columns[column] if column < len(columns) else None)
    return names


def slack(text: list[str], numbers: list[float]) -> list[float]:
    """The absolute slack of each golden number: GOLDEN_RTOL times the larger
    operand for a margin whose operands precede it in its record, else 0."""
    out, record = [], {}
    for name, value in zip(labels(text), numbers):
        operands = [(record[a], record[b]) for a, b in MARGIN_OPERANDS if {a, b} <= record.keys()]
        if name == "margin" and operands:
            out.append(GOLDEN_RTOL * max(map(abs, operands[0])))
            record = {}
        else:
            out.append(0.0)
            record[name] = value
    return out


def assert_replays(got: str, want: str) -> None:
    """got matches the golden stdout want: text exactly, numbers to
    GOLDEN_RTOL, margins with their slack."""
    got_text, got_numbers = split_numbers(got)
    want_text, want_numbers = split_numbers(want)
    assert got_text == want_text
    assert len(got_numbers) == len(want_numbers)
    for g, w, abs_tol in zip(got_numbers, want_numbers, slack(want_text, want_numbers)):
        assert math.isclose(g, w, rel_tol=GOLDEN_RTOL, abs_tol=abs_tol), (g, w)


def test_corpus_is_present():
    assert len(CASES) >= 20


def test_describe_move_on_synthetic_stdouts():
    old = '{\n  "a": 0.25,\n  "b": -1e-3,\n  "n": 7\n}\n'
    assert split_numbers(old) == (['{\n  "a": ', ',\n  "b": ', ',\n  "n": ', "\n}\n"],
                                  [0.25, -1e-3, 7.0])
    moved = '{\n  "a": 0.25,\n  "b": -1.1e-3,\n  "n": 7\n}\n'
    assert describe_move((0, old), (1, moved)) == (
        "exit 0 -> 1, text unchanged, 1 of 3 numbers moved, largest relative move 0.1"
    )
    assert describe_move((0, old), (0, old.replace('"n"', '"m"'))) == (
        "exit 0 -> 0, text changed, 0 of 3 numbers moved, largest relative move 0"
    )
    assert describe_move((0, old), (0, "a: 0.25\n")).endswith("text changed, 3 -> 1 numbers")


def render(fmt: str, record: dict) -> str:
    """One record as the CLI prints it: JSON, `key: value` lines,
    `key=value` fields, or a CSV header and row."""
    if fmt == "json":
        return json.dumps(record, indent=2) + "\n"
    if fmt == "colon":
        return "".join(f"{key}: {value!r}\n" for key, value in record.items())
    if fmt == "equals":
        return " ".join(f"{key}={value!r}" for key, value in record.items()) + "\n"
    return ",".join(record) + "\n" + ",".join(map(repr, record.values())) + "\n"


@pytest.mark.parametrize("fmt", ["json", "colon", "equals", "csv"])
@pytest.mark.parametrize("first, second", MARGIN_OPERANDS)
def test_a_margin_may_move_by_the_ulps_of_its_operands(fmt, first, second):
    # operands that agree to 1e-5 and each move by one ulp move their
    # margin by about 4e-11 relative, which GOLDEN_RTOL alone would refuse
    a, b = 1.0, 1.00001

    def stdout(a, b, margin=None):
        record = {"r": 0.5, "eta": 2.0} if first == "lhs" else {}
        record.update({first: a, second: b, "margin": b - a if margin is None else margin})
        return render(fmt, record)

    want = stdout(a, b)
    a_ulp, b_ulp = math.nextafter(a, 2.0), math.nextafter(b, 0.0)
    assert not math.isclose(b_ulp - a_ulp, b - a, rel_tol=GOLDEN_RTOL)
    assert_replays(stdout(a_ulp, b_ulp), want)
    # an operand itself keeps GOLDEN_RTOL, and a margin moved beyond its
    # slack fails too
    with pytest.raises(AssertionError):
        assert_replays(stdout(a * (1.0 + 2e-12), b), want)
    with pytest.raises(AssertionError):
        assert_replays(stdout(a, b, margin=b - a + 3e-12), want)


def test_every_golden_margin_finds_its_operands():
    margins = 0
    for path in CASES:
        text, numbers = split_numbers(json.loads(path.read_text())["stdout"])
        for name, abs_tol in zip(labels(text), slack(text, numbers)):
            if name == "margin":
                margins += 1
                assert abs_tol > 0.0, path.stem
    assert margins >= 60


def test_check_reports_a_case_without_a_golden_file_as_new(tmp_path, monkeypatch, capsys):
    # a case named in cases() before its file is written is one line of
    # --check output, not a FileNotFoundError
    argv = ["limit-check", "--format", "json"]
    monkeypatch.setattr(generate, "GOLDEN", tmp_path)
    monkeypatch.setattr(generate, "cases", lambda: {"limit_check": argv, "brand_new": argv})
    generate.write_cases(["limit_check"])
    capsys.readouterr()
    assert generate.check([]) == 1
    assert capsys.readouterr().out == "brand_new: new case, no golden file yet\n"
    generate.write_cases(["brand_new"])
    capsys.readouterr()
    assert generate.check([]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_golden_case(path, capsys):
    case = json.loads(path.read_text())
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit_code"]
    assert_replays(out, case["stdout"])
