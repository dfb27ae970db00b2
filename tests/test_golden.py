"""Replay the golden CLI corpus in tests/golden/.

Each case pins the exit code exactly and stdout token by token: every
number in stdout must match its golden value to a relative tolerance of
GOLDEN_RTOL (no absolute slack, so a golden 0.0 must stay 0.0), and all
text between numbers (keys, verdicts, punctuation, layout) must match
exactly.  Regenerate cases with tests/golden/generate.py only when a change
means to alter them; its number tokenizer is the one used here.
"""

import json
import math
from pathlib import Path

import pytest

from golden import generate
from golden.generate import describe_move, split_numbers
from qstarlike.cli import main

GOLDEN_RTOL = 1.0e-12

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))


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

    got_text, got_numbers = split_numbers(out)
    want_text, want_numbers = split_numbers(case["stdout"])
    assert got_text == want_text
    assert len(got_numbers) == len(want_numbers)
    for got, want in zip(got_numbers, want_numbers):
        assert math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=0.0), (got, want)
