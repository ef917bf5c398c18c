import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import wrlat
import wrlat.cli as cli
from wrlat.cli import EXIT_BAD_INPUT, EXIT_INVARIANT, EXIT_NOT_WR, EXIT_OK, load_config, main
from wrlat.arith import MAX_RADICAND
from wrlat.cyclo import CycloTheoremReport
from wrlat.ideals import MAX_NORM_BOUND
from wrlat.svp import MAX_ENUM_DIM
from oracles import phi_by_factorization, squarefree_by_factorization


# ---------------------------------------------------------------------------
# classify

def test_classify_wr_exit_zero(capsys):
    assert main(["classify", "-15", "2", "0", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == "D=-15 (a,b,g)=(2,0,1) norm=2 min=4 nmin=4 wr=yes hex=no maximal=yes\n"


def test_classify_not_wr_exit_one(capsys):
    assert main(["classify", "-5", "3", "1", "1"]) == EXIT_NOT_WR
    assert "wr=no" in capsys.readouterr().out


def test_classify_second_wr_example():
    assert main(["classify", "-15", "2", "1", "1"]) == EXIT_OK


def test_classify_double_dash_form():
    assert main(["classify", "--", "-15", "2", "0", "1"]) == EXIT_OK


def test_classify_square_radicand_rejected(capsys):
    assert main(["classify", "4", "1", "0", "1"]) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


def test_classify_refuses_radicand_above_cap(capsys):
    D = -(10**30) - 57
    assert main(["classify", "--", str(D), "1", "0", "1"]) == EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: radicand {D} exceeds MAX_RADICAND = {MAX_RADICAND} in absolute value\n"


def test_classify_invalid_triple_rejected(capsys):
    assert main(["classify", "-15", "2", "1", "2"]) == EXIT_BAD_INPUT
    assert "invalid ideal triple" in capsys.readouterr().err


def test_classify_json_format(capsys):
    assert main(["classify", "-15", "2", "0", "1", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["D"] == -15 and obj["wr"] is True
    assert obj["minimum_num"] == 4 and obj["minimum_den"] == 1


def test_classify_csv_format(capsys):
    assert main(["classify", "-15", "2", "0", "1", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("D,a,b,g,norm")
    assert lines[1] == "-15,2,0,1,2,4,1,4,true,false,true"


def test_classify_out_file(tmp_path, capsys):
    target = tmp_path / "one.json"
    code = main(["classify", "-15", "2", "0", "1", "--format", "json", "--out", str(target)])
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["wr"] is True


# ---------------------------------------------------------------------------
# survey

def test_survey_requires_range(capsys):
    assert main(["survey"]) == EXIT_BAD_INPUT
    assert "--d-min" in capsys.readouterr().err


def test_survey_text(capsys):
    code = main(["survey", "--d-min", "-20", "--d-max", "-1", "--norm-bound", "5"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "D=-15 (a,b,g)=(2,0,1)" in out
    assert out.splitlines()[-1].endswith("ideals: " + out.splitlines()[-1].split("ideals: ")[1])


def test_survey_csv_summary_on_stderr(capsys):
    code = main(["survey", "--d-min", "-5", "--d-max", "-3", "--format", "csv"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("D,a,b,g,norm")
    assert "ideals:" in captured.err


def test_survey_json_deterministic(capsys):
    argv = ["survey", "--d-min", "-12", "--d-max", "12", "--format", "json"]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first
    obj = json.loads(first)
    assert obj["summary"]["records"] == len(obj["records"])


def test_survey_workers_match_serial(capsys):
    base = ["survey", "--d-min", "-15", "--d-max", "15", "--format", "json"]
    assert main(base) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(base + ["--workers", "2"]) == EXIT_OK
    assert capsys.readouterr().out == serial


def test_survey_squarefree_flag_matches_config(tmp_path, capsys):
    window = ["--d-min", "-30", "--d-max", "30", "--norm-bound", "3", "--format", "csv"]
    assert main(["survey", *window, "--squarefree"]) == EXIT_OK
    flagged = capsys.readouterr().out
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("require_squarefree = yes\n")
    assert main(["survey", "--config", str(cfg), *window]) == EXIT_OK
    assert capsys.readouterr().out == flagged
    radicands = {int(line.split(",")[0]) for line in flagged.splitlines()[1:]}
    # every radicand of the window with squarefree |D|, and no other
    assert radicands == {D for D in range(-30, 31) if D not in (0, 1) and squarefree_by_factorization(abs(D))}


def test_survey_invalid_range(capsys):
    assert main(["survey", "--d-min", "5", "--d-max", "4"]) == EXIT_BAD_INPUT
    assert "d_min" in capsys.readouterr().err


def test_survey_rejects_nonpositive_workers(tmp_path, capsys):
    assert main(["survey", "--d-min", "1", "--d-max", "5", "--workers", "0"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == "error: workers must be at least 1\n"
    assert _config_error(tmp_path, capsys, {"workers": -1}) == "error: workers must be at least 1\n"


def test_survey_refuses_norm_bound_above_cap(tmp_path, capsys):
    line = f"error: norm bound must be at most MAX_NORM_BOUND = {MAX_NORM_BOUND}\n"
    argv = ["survey", "--d-min", "-3", "--d-max", "-3", "--norm-bound", str(10**30)]
    assert main(argv) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == line
    assert _config_error(tmp_path, capsys, {"norm_bound": MAX_NORM_BOUND + 1}) == line


def test_survey_refuses_radicand_above_cap(tmp_path, capsys):
    big = 10**30 + 57
    line = f"error: radicand {big} exceeds MAX_RADICAND = {MAX_RADICAND} in absolute value\n"
    argv = ["survey", "--d-min", str(big), "--d-max", str(big), "--norm-bound", "2"]
    assert main(argv) == EXIT_BAD_INPUT
    assert capsys.readouterr() == ("", line)
    # either end of the window is checked
    low = -MAX_RADICAND - 1
    assert main(["survey", "--d-min", str(low), "--d-max", "-3"]) == EXIT_BAD_INPUT
    assert str(low) in capsys.readouterr().err
    assert _config_error(tmp_path, capsys, {"d_max": MAX_RADICAND + 1}) == (
        f"error: radicand {MAX_RADICAND + 1} exceeds MAX_RADICAND = {MAX_RADICAND} "
        "in absolute value\n"
    )


def test_survey_out_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code = main([
        "survey", "--d-min", "-5", "--d-max", "-3",
        "--format", "csv", "--out", str(target),
    ])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ideals:" in captured.err
    assert target.read_text().splitlines()[0].startswith("D,a,b,g,norm")


# a monkeypatch reaches the survey workers only when they are forked
_NEEDS_FORK = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                 reason="needs the fork start method")


@pytest.mark.parametrize("to_file, workers", [
    pytest.param(False, 1, id="stdout-text"),
    pytest.param(True, 1, id="out-csv"),
    pytest.param(False, 2, id="stdout-text-pooled", marks=_NEEDS_FORK),
    pytest.param(True, 2, id="out-csv-pooled", marks=_NEEDS_FORK),
])
def test_survey_invariant_violation_exit_three(monkeypatch, capsys, tmp_path, to_file, workers):
    # the survey's own bound check: the reduction of one norm form, that of
    # (3, 1, 1) in D = -5, is made to report the minimum 2 < N(I) = 3; the
    # failed survey writes nothing, and with --out it creates no file.  With
    # two workers the violation is raised in a worker and re-raised here.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    reduce = wrlat.survey.gauss_reduce

    def one_bad_reduction(c1, c2, c3):
        red = reduce(c1, c2, c3)
        return (2, *red[1:]) if (c1, c2, c3) == (9, 6, 6) else red

    monkeypatch.setattr(wrlat.survey, "gauss_reduce", one_bad_reduction)
    target = tmp_path / "survey.csv"
    code = main(["survey", "--d-min", "-20", "--d-max", "20", "--norm-bound", "10",
                 "--workers", str(workers)]
                + (["--format", "csv", "--out", str(target)] if to_file else []))
    assert code == EXIT_INVARIANT
    assert not target.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "invariant violation: minimum bound violated for D=-5, triple=(3,1,1), "
        "min=2, norm=3; replay: wrlat classify -- -5 3 1 1\n"
    )


@pytest.mark.parametrize("workers", [
    pytest.param(1, id="serial"),
    pytest.param(2, id="pooled", marks=_NEEDS_FORK),
])
def test_survey_violation_names_primitive_before_its_multiple(monkeypatch, capsys, tmp_path, workers):
    # the survey reduces (2, 0, 1) of D = -7 (4*2^2 >= |Delta| = 7) once,
    # gives its shape to its conjugate (2, 1, 1) and scales it to the
    # multiple (4, 0, 2) of norm 8; made to report the minimum 1 < N(I) = 2,
    # the reduction breaks all three rows, and the one named is the least in
    # (norm, a, b, g) order: the primitive
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    reduce = wrlat.survey.gauss_reduce

    def one_bad_reduction(c1, c2, c3):
        red = reduce(c1, c2, c3)
        return (1, *red[1:]) if (c1, c2, c3) == (4, 2, 2) else red

    monkeypatch.setattr(wrlat.survey, "gauss_reduce", one_bad_reduction)
    target = tmp_path / "survey.csv"
    code = main(["survey", "--d-min", "-20", "--d-max", "20", "--norm-bound", "10",
                 "--workers", str(workers), "--format", "csv", "--out", str(target)])
    assert code == EXIT_INVARIANT
    assert not target.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "invariant violation: minimum bound violated for D=-7, triple=(2,0,1), "
        "min=1, norm=2; replay: wrlat classify -- -7 2 0 1\n"
    )


@pytest.mark.parametrize("workers", [
    pytest.param(1, id="serial"),
    pytest.param(2, id="pooled", marks=_NEEDS_FORK),
])
def test_real_violation_names_primitive_and_spares_its_multiple(monkeypatch, capsys, tmp_path, workers):
    # for D > 0 the bound min^2 >= 4*N scales by g^4 on the left and g^2 on
    # the right: the reduction of (2, 1, 1) in D = 3, the form (8, 8, 8), made
    # to report the minimum 2 breaks 2^2 >= 4*2, but its multiple (4, 2, 2),
    # of minimum 8 and norm 8, keeps 8^2 >= 4*8.  The survey names the
    # primitive; classify of the multiple reads the same reduction and passes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    reduce = wrlat.survey.gauss_reduce

    def one_bad_reduction(c1, c2, c3):
        red = reduce(c1, c2, c3)
        return (2, *red[1:]) if (c1, c2, c3) == (8, 8, 8) else red

    monkeypatch.setattr(wrlat.survey, "gauss_reduce", one_bad_reduction)
    target = tmp_path / "survey.csv"
    code = main(["survey", "--d-min", "-20", "--d-max", "20", "--norm-bound", "10",
                 "--workers", str(workers), "--format", "csv", "--out", str(target)])
    assert code == EXIT_INVARIANT
    assert not target.exists()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "invariant violation: minimum bound violated for D=3, triple=(2,1,1), "
        "min=2, norm=2; replay: wrlat classify -- 3 2 1 1\n"
    )
    assert main(["classify", "--", "3", "4", "2", "2"]) == EXIT_NOT_WR
    assert capsys.readouterr() == (
        "D=3 (a,b,g)=(4,2,2) norm=8 min=8 nmin=2 wr=no hex=no maximal=yes\n", ""
    )


def test_minimum_below_bound_exits_three_with_replay(monkeypatch, capsys):
    # a minimum of 1/2 breaks min >= N(I) for every ideal that is reduced;
    # the survey reduces every ideal of D = -3, as 4*a^2 >= |Delta| = 3
    monkeypatch.setattr(
        wrlat.survey, "gauss_reduce", lambda c1, c2, c3: (Fraction(1, 2), 0, 1)
    )
    assert main(["classify", "--", "-15", "2", "0", "1"]) == EXIT_INVARIANT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "invariant violation: minimum bound violated for D=-15, triple=(2,0,1), "
        "min=1/2, norm=2; replay: wrlat classify -- -15 2 0 1\n"
    )
    assert main(["survey", "--d-min", "-3", "--d-max", "-3", "--norm-bound", "2"]) == EXIT_INVARIANT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("replay: wrlat classify -- -3 1 0 1\n")


# ---------------------------------------------------------------------------
# config files

def test_config_json(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"d_min": -10, "d_max": -3, "norm_bound": 4}))
    assert main(["survey", "--config", str(cfg)]) == EXIT_OK
    assert "D=-3" in capsys.readouterr().out


def test_config_key_value(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "# survey window\n"
        "d_min = -10\n"
        "d_max = -3\n"
        "norm_bound = 4\n"
        "require_squarefree = yes\n"
    )
    loaded = load_config(str(cfg))
    assert loaded == {"d_min": -10, "d_max": -3, "norm_bound": 4, "require_squarefree": True}


def test_config_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"d_min": -10, "d_max": -1, "output_format": "csv"}))
    assert main(["survey", "--config", str(cfg), "--d-max", "-9", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert {r["D"] for r in obj["records"]} == {-10, -9}


def test_config_format_respected_without_flag(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"d_min": -5, "d_max": -3, "output_format": "csv"}))
    assert main(["survey", "--config", str(cfg)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0].startswith("D,a,b,g,norm")


@pytest.mark.parametrize("flag", (["--format", "text"], ["--format=text"]))
def test_flag_format_overrides_config_format(tmp_path, capsys, flag):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"d_min": -5, "d_max": -3, "output_format": "csv"}))
    assert main(["survey", "--config", str(cfg)] + flag) == EXIT_OK
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].startswith("D=-5 (a,b,g)=(1,0,1) ")
    assert "ideals:" in lines[-1]
    assert captured.err == ""


@pytest.mark.parametrize(
    "text, want",
    [('{"require_squarefree": true}', True), ('{"require_squarefree": false}', False),
     ("require_squarefree = no\n", False), ("require_squarefree = off\n", False)],
)
def test_config_booleans(tmp_path, text, want):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text)
    assert load_config(str(cfg)) == {"require_squarefree": want}


def test_config_rejects_bad_format(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"d_min": -5, "d_max": -3, "output_format": "xml"}))
    assert main(["survey", "--config", str(cfg)]) == EXIT_BAD_INPUT
    assert "unknown output format" in capsys.readouterr().err


def _config_error(tmp_path, capsys, settings) -> str:
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"d_min": -5, "d_max": -3, **settings}))
    assert main(["survey", "--config", str(cfg)]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_config_rejects_null_integer(tmp_path, capsys):
    assert "'d_min'" in _config_error(tmp_path, capsys, {"d_min": None})


def test_config_rejects_list_integer(tmp_path, capsys):
    assert "'d_max'" in _config_error(tmp_path, capsys, {"d_max": [3]})


def test_config_rejects_float_integer(tmp_path, capsys):
    assert "'workers'" in _config_error(tmp_path, capsys, {"workers": 1.5})


def test_config_rejects_bool_integer(tmp_path, capsys):
    assert "'norm_bound'" in _config_error(tmp_path, capsys, {"norm_bound": True})


def test_config_rejects_json_string_integer(tmp_path, capsys):
    assert "'d_min'" in _config_error(tmp_path, capsys, {"d_min": "-5"})


def test_config_rejects_unparsable_integer_line(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d_min = -10\nd_max = 2.5\n")
    with pytest.raises(ValueError, match="'d_max' needs an integer"):
        load_config(str(cfg))


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"d_min": -10, "d_max": -1, "colour": "red"}))
    assert main(["survey", "--config", str(cfg)]) == EXIT_BAD_INPUT
    assert "unknown config key" in capsys.readouterr().err


def test_config_rejects_non_object_json(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match="must be an object"):
        load_config(str(cfg))


def test_config_rejects_bad_boolean(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("require_squarefree = maybe\n")
    with pytest.raises(ValueError, match="boolean"):
        load_config(str(cfg))


def test_config_rejects_bad_line(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d_min -10\n")
    with pytest.raises(ValueError, match="bad config line"):
        load_config(str(cfg))


def test_config_missing_file(capsys):
    assert main(["survey", "--config", "/no/such/file.json"]) == EXIT_BAD_INPUT
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tables

def test_tables_text(capsys):
    assert main(["tables"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "all rows match"
    assert "t=7 D=-207" in out and "[non-maximal order]" in out


def test_tables_json(capsys):
    assert main(["tables", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["rows"]) == 8
    assert all(row["match"] for row in obj["rows"])


def _mismatched_tables(monkeypatch):
    import wrlat.survey as sv

    patched = list(sv._EXPECTED_ROWS)
    family, t, D, ideal, minimal, maximal = patched[3]
    patched[3] = (family, t, D, ideal, minimal, True)  # D=-207 is not maximal
    monkeypatch.setattr(sv, "_EXPECTED_ROWS", tuple(patched))


def test_tables_mismatch_exit_three(monkeypatch, capsys):
    _mismatched_tables(monkeypatch)
    assert main(["tables"]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out
    assert captured.err == ("invariant violation: reference table row imaginary t=7 (D=-207) "
                            "failed to reproduce; replay: wrlat tables\n")


# ---------------------------------------------------------------------------
# family

def test_family_text(capsys):
    assert main(["family", "imaginary", "--t-max", "7"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0] == (
        "t=1 D=-15 (a,b,g)=(2,0,1) form=(4,2,4) p_prime=yes squarefree=yes"
    )


def test_family_squarefree_filter(capsys):
    assert main(["family", "imaginary", "--t-max", "7", "--squarefree"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "D=-207" not in out and "D=-119" in out


def test_family_json(capsys):
    assert main(["family", "real", "--t-max", "13", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert [i["t"] for i in obj["instances"]] == [5, 7, 9, 11, 13]
    assert obj["instances"][0]["D"] == 21


def test_family_csv(capsys):
    assert main(["family", "real", "--t-max", "5", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,D,a,b,g,c1,c2,c3,p_prime,squarefree"
    assert lines[1] == "5,21,7,3,1,35,28,35,true,true"


def test_family_empty_stream(capsys):
    assert main(["family", "real", "--t-max", "3"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_family_closed_form_mismatch_exits_three(monkeypatch, capsys):
    _bad_closed_form(monkeypatch)
    assert main(["family", "imaginary", "--t-max", "7"]) == EXIT_INVARIANT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("invariant violation: closed form mismatch at t=5: (36, 30, 36) != (36, 32, 36); "
                   "replay: wrlat family imaginary --t-max 5\n")


def test_family_huge_t_max_refused_at_once():
    # the bound is checked before any instance is built, so this takes well
    # under a second instead of hours
    for kind in ("imaginary", "real"):
        proc = subprocess.run(
            [sys.executable, "-m", "wrlat", "family", kind, "--t-max", "1000000000"],
            capture_output=True, text=True, env=_ENV, timeout=30,
        )
        assert proc.returncode == EXIT_BAD_INPUT
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: radicand ") and proc.stderr.count("\n") == 1
        assert f"exceeds MAX_RADICAND = {MAX_RADICAND}" in proc.stderr


def test_family_t_max_bound_is_the_radicand_cap(capsys, monkeypatch):
    def accepted(kind, t):
        raise _Accepted(t)

    monkeypatch.setattr(wrlat.families, "family_instance", accepted)
    # the last t whose |D| fits, and the first that does not
    for kind, last_ok in (("imaginary", 577347), ("real", 999999)):
        for t_max in (last_ok, last_ok + 1):
            with pytest.raises(_Accepted):
                main(["family", kind, "--t-max", str(t_max)])
        start = time.perf_counter()
        assert main(["family", kind, "--t-max", str(last_ok + 2)]) == EXIT_BAD_INPUT
        assert time.perf_counter() - start < 1.0
        assert "exceeds MAX_RADICAND" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# render

_RENDER_ROWS = [(1, "\u221a2", True), (-2, "x", False), (3, "", None)]


@pytest.mark.parametrize("n", [0, 1, 3])
def test_render_json_is_json_dumps(n):
    fh = io.StringIO()
    cli.render(fh, "json", iter(_RENDER_ROWS[:n]), ("k", "s", "b"), None, key="rows")
    want = [dict(zip(("k", "s", "b"), r)) for r in _RENDER_ROWS[:n]]
    assert fh.getvalue() == json.dumps({"rows": want}, indent=2) + "\n"


def test_render_json_writes_each_row_before_the_next_is_made():
    fh = io.StringIO()

    def rows():
        for i, r in enumerate(_RENDER_ROWS):
            if i:
                assert f'"k": {_RENDER_ROWS[i - 1][0]},' in fh.getvalue()
            yield r

    cli.render(fh, "json", rows(), ("k", "s", "b"), None, key="rows")
    assert json.loads(fh.getvalue())["rows"][2] == {"k": 3, "s": "", "b": None}


# ---------------------------------------------------------------------------
# cyclo

def test_cyclo_pass(capsys):
    assert main(["cyclo", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "k=5 phi=4" in out and out.splitlines()[-1] == "PASS"


def _missing_root(monkeypatch, dropped=(1, 0, 0, 0)):
    # the minimal set loses one vector, by default 1 in Z[zeta_5]
    real_enumerate = wrlat.cyclo.enumerate_shortest

    def without_dropped(G):
        rep = real_enumerate(G)
        return rep._replace(vectors=tuple(v for v in rep.vectors if v != dropped))

    monkeypatch.setattr(wrlat.cyclo, "enumerate_shortest", without_dropped)


# zeta^j in the power basis of Z[zeta_5]; the first and the last power pin
# both ends of the walk over the roots of unity.  For even k, -zeta^j is
# zeta^(j+k/2): in Z[zeta_4] the root -1 is named zeta^2, not -zeta^0.
# Composite k is checked in the powerful basis, zeta^e for e = 3*i_4 + 4*i_3
# (k = 12) and 5*i_3 + 3*i_5 (k = 15), where zeta_q^(j_q) with j_q >= phi(q)
# is minus a sum of lower powers: zeta^2 = zeta_4^2 * zeta_3^2 = 1 + zeta^4
# in Z[zeta_12], and zeta^7 = zeta_3^2 * zeta_5^4 is the sum of the whole
# basis in Z[zeta_15], whose -zeta^7 is looked up as well
@pytest.mark.parametrize(
    "k, j, dropped",
    [(5, 0, (1, 0, 0, 0)), (5, 3, (0, 0, 0, 1)), (5, 4, (-1, -1, -1, -1)), (4, 2, (-1, 0)),
     (12, 2, (1, 1, 0, 0)), (15, 7, (1,) * 8), (15, 7, (-1,) * 8)],
    ids=["zeta^0", "zeta^3", "zeta^4", "k4-zeta^2", "k12-zeta^2", "k15-zeta^7", "k15-minus-zeta^7"],
)
def test_cyclo_missing_root_of_unity_exits_three(monkeypatch, capsys, k, j, dropped):
    _missing_root(monkeypatch, dropped)
    assert main(["cyclo", str(k)]) == EXIT_INVARIANT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"invariant violation: root of unity zeta^{j} missing from the minimal set (k={k}); "
                   f"replay: wrlat cyclo {k}\n")


def _failing_profile(monkeypatch):
    monkeypatch.setattr(cli, "verify_cyclotomic_theorem",
                        lambda F: CycloTheoremReport(F.k, F.phi, 1, F.phi // 2, F.k, F.k, True))


def test_cyclo_failed_profile_exits_three_with_replay(monkeypatch, capsys):
    _failing_profile(monkeypatch)
    assert main(["cyclo", "12"]) == EXIT_INVARIANT
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "FAIL"
    assert err == "invariant violation: cyclotomic profile failed for k=12; replay: wrlat cyclo 12\n"


def test_cyclo_small_k_rejected(capsys):
    assert main(["cyclo", "2"]) == EXIT_BAD_INPUT
    assert "at least 3" in capsys.readouterr().err


def test_cyclo_dimension_guard(capsys):
    assert main(["cyclo", "105"]) == EXIT_BAD_INPUT
    assert "enumeration guard" in capsys.readouterr().err


def test_cyclo_factors_k_once(monkeypatch):
    # cyclo_field is the one gate for k: the guard reads phi off the field,
    # whose polynomial and trace table share one table of k's divisors
    seen = []
    factorize = wrlat.arith.factorize

    def counting(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(wrlat.arith, "factorize", counting)
    monkeypatch.setattr(wrlat.cyclo, "factorize", counting)
    ks = [k for k in range(3, 91) if phi_by_factorization(k) <= MAX_ENUM_DIM]
    assert len(ks) == 51
    # each call factors k afresh: a second call for the same k reuses nothing
    for k in ks:
        for _ in range(2):
            seen.clear()
            assert main(["cyclo", str(k)]) == EXIT_OK
            assert seen == [k]


GUARD_LINE = f"error: phi(k) exceeds the enumeration guard ({MAX_ENUM_DIM})\n"


def test_cyclo_huge_k_refused_without_factoring(capsys, monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr(wrlat.arith, "factorize", no_factoring)
    monkeypatch.setattr(wrlat.cyclo, "factorize", no_factoring)
    start = time.perf_counter()
    assert main(["cyclo", "1000000000000000003"]) == EXIT_BAD_INPUT
    assert time.perf_counter() - start < 1.0
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == GUARD_LINE


class _Accepted(Exception):
    pass


def test_cyclo_guard_agrees_with_phi(capsys, monkeypatch):
    # cyclo_field runs for every k up to 2 * MAX_ENUM_DIM**2, so acceptance
    # is the call that would check the theorem
    def accepted(F):
        raise _Accepted(F.k)

    monkeypatch.setattr(cli, "verify_cyclotomic_theorem", accepted)
    for k in range(3, 2001):
        try:
            code = main(["cyclo", str(k)])
        except _Accepted:
            assert phi_by_factorization(k) <= MAX_ENUM_DIM, k
            continue
        assert phi_by_factorization(k) > MAX_ENUM_DIM, k
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err == GUARD_LINE


def test_cyclo_json(capsys):
    assert main(["cyclo", "12", "--format", "json"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["k"] == 12 and obj["phi"] == 4
    assert obj["minimum_num"] == 2 and obj["minimum_den"] == 1
    assert obj["n_minimal"] == 12 and obj["pass"] is True


def test_cyclo_csv(capsys):
    assert main(["cyclo", "4", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("k,phi,minimum_num")


# ---------------------------------------------------------------------------
# a failed run leaves --out alone

def _bad_survey_reduction(monkeypatch):
    # D = -5 lies inside the window, so earlier radicands are done when the
    # reduction of (3, 1, 1) reports the minimum 2 < N(I) = 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    reduce = wrlat.survey.gauss_reduce

    def one_bad_reduction(c1, c2, c3):
        red = reduce(c1, c2, c3)
        return (2, *red[1:]) if (c1, c2, c3) == (9, 6, 6) else red

    monkeypatch.setattr(wrlat.survey, "gauss_reduce", one_bad_reduction)


def _bad_closed_form(monkeypatch):
    # t = 1 and t = 3 are done when t = 5 fails its cross-check
    family_instance = wrlat.families.family_instance

    def skewed(kind, t):
        inst = family_instance(kind, t)
        c1, c2, c3 = inst.closed_form
        return inst._replace(closed_form=(c1, c2 + 2, c3)) if t == 5 else inst

    monkeypatch.setattr(wrlat.families, "family_instance", skewed)


_SURVEY_WINDOW = ["survey", "--d-min", "-20", "--d-max", "20", "--norm-bound", "10", "--format", "csv"]


@pytest.mark.parametrize("argv, breaks, code", [
    pytest.param([*_SURVEY_WINDOW, "--workers", "1"], _bad_survey_reduction, EXIT_INVARIANT,
                 id="survey-violation"),
    pytest.param([*_SURVEY_WINDOW, "--workers", "2"], _bad_survey_reduction, EXIT_INVARIANT,
                 id="survey-violation-pooled", marks=_NEEDS_FORK),
    pytest.param(["family", "imaginary", "--t-max", "7"], _bad_closed_form, EXIT_INVARIANT,
                 id="family-mismatch"),
    pytest.param(["survey", "--norm-bound", "5"], None, EXIT_BAD_INPUT, id="survey-no-window"),
    pytest.param(["cyclo", "2"], None, EXIT_BAD_INPUT, id="cyclo-small-k"),
    pytest.param(["cyclo", "105"], None, EXIT_BAD_INPUT, id="cyclo-guard"),
])
def test_failed_run_leaves_out_alone(monkeypatch, capsys, tmp_path, argv, breaks, code):
    if breaks:
        breaks(monkeypatch)
    existing = tmp_path / "existing.out"
    existing.write_bytes(b"earlier output\n")
    missing = tmp_path / "missing.out"
    for target in (existing, missing):
        assert main([*argv, "--out", str(target)]) == code
        assert capsys.readouterr().out == ""
    assert existing.read_bytes() == b"earlier output\n"
    assert not missing.exists()


@pytest.mark.parametrize("argv, breaks", [
    pytest.param(["survey", "--d-min", "-5", "--d-max", "-1", "--format", "csv"], None, id="survey-summary"),
    pytest.param(["tables"], _mismatched_tables, id="tables-mismatch"),
    pytest.param(["cyclo", "12"], _failing_profile, id="cyclo-fail"),
])
def test_unwritable_out_prints_only_the_error(monkeypatch, capsys, tmp_path, argv, breaks):
    # the command's own stderr lines are dropped with its output
    if breaks:
        breaks(monkeypatch)
    target = tmp_path / "no_such_dir" / "x.out"
    assert main([*argv, "--out", str(target)]) == EXIT_BAD_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert not target.exists()


@pytest.mark.parametrize("argv, breaks", [
    pytest.param([*_SURVEY_WINDOW, "--workers", "1"], _bad_survey_reduction, id="survey-violation"),
    pytest.param(["family", "imaginary", "--t-max", "7"], _bad_closed_form, id="family-mismatch"),
    pytest.param(["tables"], _mismatched_tables, id="tables-mismatch"),
    pytest.param(["cyclo", "12"], _failing_profile, id="cyclo-fail"),
    pytest.param(["cyclo", "5"], _missing_root, id="cyclo-missing-root"),
])
def test_every_exit_three_names_a_replay_command(monkeypatch, capsys, argv, breaks):
    # the last stderr line names a command that, run alone, fails the same way
    breaks(monkeypatch)
    assert main(argv) == EXIT_INVARIANT
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("invariant violation: ") and "; replay: wrlat " in last
    replay = last.rpartition("; replay: wrlat ")[2].split()
    assert main(replay) == EXIT_INVARIANT
    assert capsys.readouterr().err.splitlines()[-1] == last


# ---------------------------------------------------------------------------
# --format X and --format=X

FORMAT_COMMANDS = (
    ["classify", "-15", "2", "0", "1"],
    ["survey", "--d-min", "-5", "--d-max", "-3"],
    ["tables"],
    ["family", "real", "--t-max", "9"],
    ["cyclo", "5"],
)


@pytest.mark.parametrize("argv", FORMAT_COMMANDS, ids=lambda argv: argv[0])
def test_format_equals_form_matches_spaced_form(capsys, argv):
    outputs = []
    for flag in (["--format", "csv"], ["--format=csv"]):
        assert main(argv + flag) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert "," in outputs[0].out.splitlines()[0]


def test_survey_format_equals_csv_prints_header(capsys):
    assert main(["survey", "--d-min", "-5", "--d-max", "-3", "--format=csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == (
        "D,a,b,g,norm,minimum_num,minimum_den,n_minimal,wr,hexagonal,order_maximal"
    )


# ---------------------------------------------------------------------------
# one parser per process: nothing carries over from one main call to the next

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_out_and_format_do_not_carry_over(tmp_path, capsys):
    target = tmp_path / "cyclo_12.json"
    assert main(["cyclo", "12", "--format", "json", "--out", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    # an old mtime, so that a rewrite with the same bytes still shows
    os.utime(target, ns=(0, 0))
    assert main(["cyclo", "12"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "cyclo_12.text.stdout").read_text()
    assert target.stat().st_mtime_ns == 0
    assert target.read_text() == (GOLDEN / "cyclo_12.json.stdout").read_text()


def test_squarefree_does_not_carry_over(capsys):
    # the golden window has the non-maximal orders D = -12, -8, 8, 12
    argv = ["survey", "--format", "csv", "--d-min", "-12", "--d-max", "12", "--norm-bound", "6"]
    assert main([*argv, "--squarefree"]) == EXIT_OK
    squarefree = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (GOLDEN / "survey.csv.stdout").read_text()
    assert out != squarefree


def test_usage_error_leaves_the_parser_usable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cyclo"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert "required: k" in capsys.readouterr().err
    assert main(["cyclo", "7"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "cyclo_7.text.stdout").read_text()


# ---------------------------------------------------------------------------
# end to end

# the subprocess imports the same wrlat as these tests, installed or not
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(wrlat.__file__).parent.parent), os.environ.get("PYTHONPATH")))
)}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "wrlat", "classify", "--", "-15", "2", "0", "1"],
        capture_output=True, text=True, env=_ENV,
    )
    assert proc.returncode == EXIT_OK
    assert "wr=yes" in proc.stdout


def test_module_entry_point_not_wr():
    proc = subprocess.run(
        [sys.executable, "-m", "wrlat", "classify", "--", "-5", "3", "1", "1"],
        capture_output=True, text=True, env=_ENV,
    )
    assert proc.returncode == EXIT_NOT_WR


def test_import_loads_every_module():
    # a tracer patches the bindings of every loaded wrlat module, so importing
    # the package must load them all
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wrlat; print(' '.join(sorted(m for m in sys.modules if m.startswith('wrlat.'))))"],
        capture_output=True, text=True, env=_ENV,
    )
    modules = ("_frozen", "arith", "cyclo", "errors", "families", "ideals", "planar", "survey", "svp")
    assert proc.stdout.split() == [f"wrlat.{m}" for m in modules], proc.stderr


def test_cli_import_leaves_the_process_pool_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wrlat.cli; "
         "print('concurrent.futures.process' in sys.modules, 'multiprocessing' in sys.modules)"],
        capture_output=True, text=True, env=_ENV,
    )
    assert proc.stdout == "False False\n", proc.stderr
    import concurrent.futures
    import wrlat.survey

    assert wrlat.survey.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor


def test_cli_import_leaves_unneeded_modules_unloaded():
    # start-up is most of a one-command run: dataclasses alone, with the inspect
    # module it loads, once took a third of `import wrlat.cli`, and no command
    # needs it; the pool modules load only when a survey starts workers, and
    # json and csv only for their output formats and --config
    unneeded = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing", "json", "csv")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, wrlat.cli; print(*[m for m in {unneeded!r} if m in sys.modules])"],
        capture_output=True, text=True, env=_ENV,
    )
    assert proc.returncode == 0 and proc.stdout == "\n", (proc.stdout, proc.stderr)
