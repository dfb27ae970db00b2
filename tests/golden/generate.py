"""Write the golden CLI corpus: one ``<name>.json`` per invocation holding
its argv, exit code and stdout.

    PYTHONPATH=src python tests/golden/generate.py            # every case
    PYTHONPATH=src python tests/golden/generate.py limit_check  # named cases
    PYTHONPATH=src python tests/golden/generate.py --check    # compare only

Regenerate a case only when a change means to alter its output, and record
the diff in CHANGES.md.  ``--check`` writes nothing: it names each case whose
exit code or stdout is no longer byte-identical, says how it moved (exit
code, text between numbers, how many numbers moved and the largest relative
move), and exits 1 if there is one; a case with no golden file yet is
reported as new.  ``test_golden.py`` replays the corpus to a tolerance with
the same number tokenizer, and remains the gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

from qstarlike.cli import main

GOLDEN = Path(__file__).resolve().parent

MEMBER_05 = '{"sign":"minus","coeffs":[0.5]}'
OVERSIZED = '{"sign":"minus","coeffs":[2.0]}'

NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def split_numbers(text: str) -> tuple[list[str], list[float]]:
    """The text between numbers, and the numbers themselves."""
    return NUMBER.split(text), [float(tok) for tok in NUMBER.findall(text)]


def describe_move(old: tuple[int, str], new: tuple[int, str]) -> str:
    """How an (exit code, stdout) pair differs from its golden one."""
    old_text, old_numbers = split_numbers(old[1])
    new_text, new_numbers = split_numbers(new[1])
    text = "changed" if old_text != new_text else "unchanged"
    if len(old_numbers) != len(new_numbers):
        numbers = f"{len(old_numbers)} -> {len(new_numbers)} numbers"
    else:
        moves = [abs(b - a) / abs(a) if a else math.inf
                 for a, b in zip(old_numbers, new_numbers) if a != b]
        numbers = (f"{len(moves)} of {len(old_numbers)} numbers moved, "
                   f"largest relative move {max(moves, default=0.0):.2g}")
    return f"exit {old[0]} -> {new[0]}, text {text}, {numbers}"


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def cases() -> dict[str, list[str]]:
    extremal_2 = run(["extremal", "--n", "2", "--q", "0.5", "--format", "json"])[1]
    return {
        # README examples
        "readme_membership": ["membership", "--q", "0.5", "--series", MEMBER_05, "--format", "json"],
        "readme_extremal": ["extremal", "--n", "2", "--q", "0.5", "--format", "json"],
        "readme_extremal_round_trip": ["membership", "--q", "0.5", "--series", extremal_2],
        "readme_integral_means": ["integral-means", "--q", "0.5", "--seed", "7", "--r", "0.5",
                                  "--eta", "2", "--format", "json"],
        "readme_subordination": ["subordination", "--q", "0.5", "--lambda", "1", "--seed", "7",
                                 "--format", "json"],
        "limit_check": ["limit-check", "--format", "json"],
        "readme_sweep_csv": ["sweep", "--q", "0.5", "--seed", "7", "--format", "csv"],
        # human output and verification failures (exit 1)
        "membership_fail_human": ["membership", "--q", "0.5", "--alpha", "0.3", "--k", "2",
                                  "--series", OVERSIZED],
        "sweep_violation_human": ["sweep", "--q", "0.9", "--series", OVERSIZED,
                                  "--allow-uncertified"],
        # large truncation orders
        "integral_means_trunc512": ["integral-means", "--q", "0.5", "--lambda", "1",
                                    "--trunc", "512", "--seed", "11", "--nodes", "2048",
                                    "--format", "json"],
        "subordination_trunc512": ["subordination", "--q", "0.5", "--lambda", "2", "--alpha",
                                   "0.2", "--k", "1", "--trunc", "512", "--seed", "4",
                                   "--format", "json"],
        "sweep_trunc1024": ["sweep", "--trunc", "1024", "--nodes", "4096", "--seed", "3",
                            "--format", "json"],
        # node count left to the default, max(256, 4 * trunc) rounded up
        "integral_means_trunc512_default_nodes": ["integral-means", "--q", "0.5", "--trunc",
                                                  "512", "--seed", "7", "--r", "0.95",
                                                  "--eta", "2", "--format", "json"],
        "sweep_trunc512_default_nodes": ["sweep", "--trunc", "512", "--seed", "9",
                                         "--format", "json"],
        # f(0.5) = 0: a ring value of exactly zero, whose |f|^eta is exactly 0
        "sweep_zero_on_ring": ["sweep", "--series", '{"sign":"plus","coeffs":[-2.0]}',
                               "--allow-uncertified", "--r-list", "0.5", "--eta-list", "0.5,2",
                               "--format", "json"],
        # q away from 0.5
        "extremal_q09": ["extremal", "--n", "5", "--q", "0.9", "--lambda", "2.5", "--alpha",
                         "0.25", "--k", "1.5", "--trunc", "8", "--format", "json"],
        "subordination_q099": ["subordination", "--q", "0.99", "--lambda", "3", "--alpha", "0.1",
                               "--k", "0.5", "--trunc", "128", "--seed", "5", "--format", "json"],
        # usage and parameter errors (exit 2, nothing on stdout)
        "error_series_required": ["membership", "--q", "0.5"],
        "error_series_and_file": ["membership", "--series", MEMBER_05, "--series-file", "x.json"],
        "error_series_file_missing": ["membership", "--series-file", "no/such/series.json"],
        "error_series_json": ["membership", "--series", "{not json"],
        "error_series_nested": ["membership", "--series", "[" * 100000],
        "error_series_key": ["membership", "--series", '{"coeffs":[0.5]}'],
        "error_series_sign": ["membership", "--series", '{"sign":"down","coeffs":[0.5]}'],
        "error_series_negative_minus": ["membership", "--series",
                                        '{"sign":"minus","coeffs":[-0.5]}'],
        "error_series_nan": ["membership", "--series", '{"sign":"minus","coeffs":[NaN]}',
                             "--format", "json"],
        "error_series_infinity": ["integral-means", "--series",
                                  '{"sign":"plus","coeffs":[0.1,Infinity]}', "--format", "json"],
        "error_series_overflow": ["membership", "--series",
                                  '{"sign":"plus","coeffs":[1e308,1e308]}', "--format", "json"],
        "error_series_not_number": ["membership", "--series",
                                    '{"sign":"minus","coeffs":["0.25",false]}'],
        "error_integral_means_overflow": ["integral-means", "--series",
                                          '{"sign":"plus","coeffs":[1e200]}',
                                          "--allow-uncertified"],
        "error_sweep_overflow_csv": ["sweep", "--series", '{"sign":"plus","coeffs":[1e308]}',
                                     "--allow-uncertified", "--format", "csv"],
        "error_q_range": ["membership", "--q", "1.5", "--series", MEMBER_05],
        "error_lambda_floor": ["extremal", "--n", "2", "--lambda", "-1"],
        "error_alpha_range": ["extremal", "--n", "2", "--alpha", "1"],
        "error_trunc_small": ["extremal", "--n", "2", "--trunc", "1"],
        "error_extremal_order": ["extremal", "--n", "65"],
        "error_csv_outside_sweep": ["membership", "--series", MEMBER_05, "--format", "csv"],
        "error_density": ["subordination", "--density", "0"],
        "error_nodes": ["integral-means", "--nodes", "100"],
        "error_radius": ["integral-means", "--r", "1.5"],
        "error_uncertified_integral_means": ["integral-means", "--q", "0.9", "--series", OVERSIZED],
        "error_uncertified_subordination": ["subordination", "--series", OVERSIZED],
        "error_uncertified_sweep": ["sweep", "--series", OVERSIZED],
        "error_r_list": ["sweep", "--r-list", "a,b", "--format", "csv"],
        "error_eta_list_empty": ["sweep", "--eta-list", ",", "--format", "csv"],
        "error_limit_check_seed": ["limit-check", "--seed", "-1"],
        "error_unknown_flag": ["membership", "--bogus", "1"],
        "error_missing_command": [],
    }


def write_cases(names: list[str]) -> None:
    table = cases()
    for name in names or sorted(table):
        argv = table[name]
        code, stdout = run(argv)
        doc = {"argv": argv, "exit_code": code, "stdout": stdout}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{name}: exit {code}")


def moved_cases(names: list[str]) -> dict[str, str]:
    """Cases whose exit code or stdout differs byte for byte from the corpus,
    each with a description of the move, and cases with no golden file."""
    table = cases()
    moved = {}
    for name in names or sorted(table):
        path = GOLDEN / f"{name}.json"
        if not path.exists():
            moved[name] = "new case, no golden file yet"
            continue
        golden = json.loads(path.read_text())
        old, new = (golden["exit_code"], golden["stdout"]), run(table[name])
        if new != old:
            moved[name] = describe_move(old, new)
    return moved


def check(names: list[str]) -> int:
    """Print one line per moved or new case; the exit code of --check."""
    moved = moved_cases(names)
    for name, move in moved.items():
        print(f"{name}: {move}")
    return 1 if moved else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        sys.exit(check(sys.argv[2:]))
    write_cases(sys.argv[1:])
