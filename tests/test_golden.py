"""Byte-for-byte golden outputs of the command line.

Each case runs ``wrlat.cli.main`` in-process and compares stdout, stderr and
the exit code with the files under ``tests/golden/``: ``<case>.stdout``,
``<case>.stderr`` (absent when stderr is empty), ``<case>.file`` for the
``--out`` case, and ``exit_codes.json``.  The goldens pin the exact bytes of
every output format, so a change to any renderer shows up here.

To record the goldens again after an intended change of output:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from wrlat.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "classify": ["classify", "--", "-15", "2", "0", "1"],
    # a valid ideal that is not WR (exit 1) and an invalid triple (exit 2)
    "classify_not_wr": ["classify", "--", "-15", "1", "0", "1"],
    "classify_invalid": ["classify", "--", "-15", "4", "1", "1"],
    # includes the non-maximal orders D = -12, -8, 8, 12
    "survey": ["survey", "--d-min", "-12", "--d-max", "12", "--norm-bound", "6"],
    # non-maximal orders with D = 1 (mod 4) and g up to 4; D = -27 has hexagonal ideals
    "survey_d_minus27": ["survey", "--d-min", "-27", "--d-max", "-27", "--norm-bound", "20"],
    "survey_d_45": ["survey", "--d-min", "45", "--d-max", "45", "--norm-bound", "20"],
    "tables": ["tables"],
    "family_imaginary": ["family", "imaginary", "--t-max", "9"],
    "family_real": ["family", "real", "--t-max", "13"],
    "family_real_empty": ["family", "real", "--t-max", "3"],
    "cyclo_12": ["cyclo", "12"],
    "cyclo_7": ["cyclo", "7"],
}

CASES = {
    f"{name}.{fmt}": argv[:1] + ["--format", fmt] + argv[1:]
    for name, argv in COMMANDS.items()
    for fmt in ("text", "csv", "json")
}
OUT_CASE = "tables.json.out"
OUT_ARGV = ["tables", "--format", "json", "--out"]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    code, out, err = run(CASES[case])
    assert out == _read(GOLDEN / f"{case}.stdout")
    assert err == _read(GOLDEN / f"{case}.stderr")
    assert code == _exit_codes()[case]


def test_golden_out_file(tmp_path):
    target = tmp_path / "tables.json"
    code, out, err = run(OUT_ARGV + [str(target)])
    assert (out, err) == ("", "")
    assert target.read_bytes() == (GOLDEN / f"{OUT_CASE}.file").read_bytes()
    assert code == _exit_codes()[OUT_CASE]


def record():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in CASES.items():
        codes[case], out, err = run(argv)
        (GOLDEN / f"{case}.stdout").write_text(out, encoding="utf-8")
        if err:
            (GOLDEN / f"{case}.stderr").write_text(err, encoding="utf-8")
    target = GOLDEN / f"{OUT_CASE}.file"
    codes[OUT_CASE], _, _ = run(OUT_ARGV + [str(target)])
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(record())
