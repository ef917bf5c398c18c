"""Byte-for-byte golden outputs of the command line.

Each case runs ``wrlat.cli.main`` in-process and compares stdout, stderr and
the exit code with the files under ``tests/golden/``: ``<case>.stdout``,
``<case>.stderr`` (absent when stderr is empty), ``<case>.file`` for the
``--out`` case, and ``exit_codes.json``.  The goldens pin the exact bytes of
every output format, so a change to any renderer shows up here.

``test_cyclo_rings_digest`` pins, beyond those files, one SHA-256 over the
exit code, stdout and stderr of ``wrlat cyclo K`` for each of the 51 rings with
phi(k) <= MAX_ENUM_DIM, in json, csv and text.

``test_survey_digests`` pins the SHA-256 of each ``--out`` file of two larger
surveys: the acceptance window (squarefree -200 <= D <= 200, norms <= 500) in
csv, json and text, and the wide window (-4000 <= D <= 4000, norms <= 12) in
csv with one and with two workers, which must give the same bytes.

To record the goldens again after an intended change of output (the script
prints the new ring digest, which CYCLO_RINGS_SHA256 then takes, and the new
survey digests, which SURVEY_SHA256 then takes):

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from wrlat.cli import main
from wrlat.svp import MAX_ENUM_DIM
from oracles import phi_by_factorization

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
RING_KS = [k for k in range(3, 2 * MAX_ENUM_DIM**2) if phi_by_factorization(k) <= MAX_ENUM_DIM]
CYCLO_RINGS_SHA256 = "d31840bae4c3612e6570ecb60b643e24ac584b247bd7e50dbf385a8054414df7"
ACCEPTANCE_ARGV = ["--d-min", "-200", "--d-max", "200", "--norm-bound", "500", "--squarefree"]
WIDE_ARGV = ["--d-min", "-4000", "--d-max", "4000", "--norm-bound", "12", "--format", "csv"]
SURVEYS = {
    "acceptance.csv": ACCEPTANCE_ARGV + ["--format", "csv"],
    "acceptance.json": ACCEPTANCE_ARGV + ["--format", "json"],
    "acceptance.text": ACCEPTANCE_ARGV + ["--format", "text"],
    "wide.csv.workers1": WIDE_ARGV + ["--workers", "1"],
    "wide.csv.workers2": WIDE_ARGV + ["--workers", "2"],
}
SURVEY_SHA256 = {
    "acceptance.csv": "8fae50d6a72c2570fd7eb638f4e733b140624d1c752b419db2575342a01eef7d",
    "acceptance.json": "8c1c5ace74abb1f266af7617faa9e7be0f59be1f352c4874a4f6d012e5c86c4a",
    "acceptance.text": "bcc3da4067dca4f1004e0495ed62c96d990203eec7d15f19f55b3068a5fec0d7",
    "wide.csv.workers1": "b0ffa79a54a8af0ca7f2da3fda5ca2a84facced05e2f8ac7a798f4603b981687",
    "wide.csv.workers2": "b0ffa79a54a8af0ca7f2da3fda5ca2a84facced05e2f8ac7a798f4603b981687",
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


def cyclo_rings_digest() -> str:
    h = hashlib.sha256()
    for k in RING_KS:
        for fmt in ("json", "csv", "text"):
            code, out, err = run(["cyclo", "--format", fmt, str(k)])
            h.update(f"{k} {fmt} {code}\n{len(out)}\n{out}{len(err)}\n{err}".encode())
    return h.hexdigest()


def test_cyclo_rings_digest():
    assert len(RING_KS) == 51
    assert cyclo_rings_digest() == CYCLO_RINGS_SHA256


def survey_digests(out_dir: Path) -> dict[str, str]:
    """The SHA-256 of each SURVEYS case's --out file, written under out_dir
    and read back in chunks (the acceptance json is about 35 MB)."""
    digests = {}
    for case, argv in SURVEYS.items():
        target = out_dir / case
        code, out, _ = run(["survey", *argv, "--out", str(target)])  # stderr: the summary
        assert (code, out) == (0, ""), case
        h = hashlib.sha256()
        with open(target, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        target.unlink()
        digests[case] = h.hexdigest()
    return digests


def test_survey_digests(tmp_path):
    assert survey_digests(tmp_path) == SURVEY_SHA256


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
    print(f"CYCLO_RINGS_SHA256 = {cyclo_rings_digest()!r}")
    with tempfile.TemporaryDirectory() as out_dir:
        print(f"SURVEY_SHA256 = {survey_digests(Path(out_dir))!r}")


if __name__ == "__main__":
    sys.exit(record())
