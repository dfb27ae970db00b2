"""Replay the golden CLI corpus in tests/golden/.

Each case pins the exit code exactly and stdout token by token: every
number in stdout must match its golden value to a relative tolerance of
GOLDEN_RTOL (no absolute slack, so a golden 0.0 must stay 0.0), and all
text between numbers (keys, verdicts, punctuation, layout) must match
exactly.  Regenerate cases with tests/golden/generate.py only when a change
means to alter them.
"""

import json
import math
import re
from pathlib import Path

import pytest

from qstarlike.cli import main

GOLDEN_RTOL = 1.0e-12

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between numbers, and the numbers themselves."""
    return NUMBER.split(text), [float(tok) for tok in NUMBER.findall(text)]


def test_corpus_is_present():
    assert len(CASES) >= 20


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
