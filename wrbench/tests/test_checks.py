import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from checks import (SURVEY_PINS, check_cyclo_ring, check_survey, lattice_minimum,
                    record_problem, sha256_file)

from wrlat import cli

BENCH = Path(__file__).resolve().parent.parent


def _survey(tmp_path, *extra):
    out = tmp_path / "survey.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["survey", "--format", "csv", "--out", str(out), *extra])
    assert code == 0
    return out, err.getvalue()


@pytest.mark.parametrize("D, triple, expected", [
    (-1, (1, 0, 1), (1, 4)),   # Z[i]: the square lattice
    (-3, (1, 0, 1), (1, 6)),   # Eisenstein integers: hexagonal
    (-5, (2, 1, 1), (4, 2)),   # the non-principal ideal (2, 1 + sqrt(-5))
    (2, (1, 0, 1), (2, 2)),    # Z[sqrt 2]: 1 has squared length 1 + 1
    (5, (1, 0, 1), (2, 2)),
])
def test_box_search_minimum(D, triple, expected):
    assert lattice_minimum(D, *triple) == expected


def test_clean_survey_passes_every_check(tmp_path):
    out, err = _survey(tmp_path, "--d-min", "-40", "--d-max", "40", "--norm-bound", "30")
    pin = {"sha256": sha256_file(out), "records": 0, "wr": 0, "hexagonal": 0}
    failures, n = check_survey(out, err, 0, None, sample_size=10**6)
    assert failures == [] and n > 100
    rows = out.read_text().splitlines()[1:]
    pin.update(records=n, wr=sum(r.split(",")[8] == "true" for r in rows),
               hexagonal=sum(r.split(",")[9] == "true" for r in rows))
    assert check_survey(out, err, 0, pin, sample_size=10) == ([], n)


@pytest.mark.parametrize("where", [0.1, 0.5, 0.9])
def test_flipped_csv_byte_fails(tmp_path, where):
    out, err = _survey(tmp_path, "--d-min", "-40", "--d-max", "40", "--norm-bound", "30")
    pin = {"sha256": sha256_file(out), "records": None, "wr": None, "hexagonal": None}
    data = bytearray(out.read_bytes())
    data[int(len(data) * where)] ^= 0x01
    out.write_bytes(bytes(data))
    failures, n = check_survey(out, err, 0, pin, sample_size=10)
    assert any("sha256" in f for f in failures)
    assert len(failures) / max(1, n) > 0


def test_mutated_record_minimum_fails(tmp_path):
    out, err = _survey(tmp_path, "--d-min", "-40", "--d-max", "40", "--norm-bound", "30")
    lines = out.read_text().split("\n")
    cells = lines[7].split(",")
    cells[5] = str(int(cells[5]) + 1)  # minimum_num; the bound still holds
    lines[7] = ",".join(cells)
    out.write_text("\n".join(lines))
    failures, n = check_survey(out, err, 0, None, sample_size=10**6)
    assert any("box search gives" in f for f in failures)
    assert len(failures) / n > 0


def test_record_problem_catches_a_bad_triple():
    row = (-5, 2, 1, 1, 2, 4, 1, 2, False, False, True)
    assert record_problem(row) is None
    assert "does not divide" in record_problem((-5, 5, 1, 1, 5, 6, 1, 2, False, False, True))
    assert "order_maximal" in record_problem(row[:10] + (False,))


def test_cyclo_ring_check():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["cyclo", "9", "--format", "json"]) == 0
    assert check_cyclo_ring(9, 0, out.getvalue()) is None
    assert "exit code" in check_cyclo_ring(9, 3, out.getvalue())
    rep = json.loads(out.getvalue())
    rep["n_minimal"] = 9
    assert "expected" in check_cyclo_ring(9, 0, json.dumps(rep))


def test_survey_wide_pin_is_the_one_worker_output(tmp_path):
    out, _ = _survey(tmp_path, "--d-min", "-4000", "--d-max", "4000", "--norm-bound", "12",
                     "--workers", "1")
    assert sha256_file(out) == SURVEY_PINS["survey_wide"]["sha256"]


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "wrbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "wrbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "wrbench/run.py", "--workload", "cyclo_rings",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
