import contextlib
import io
import sys

from spans import LAYERS, Layer, SpanStats, Tracer, scan_candidates

import wrlat
from wrlat import cli


def test_self_time_on_synthetic_span_tree():
    # a[0,10] encloses b[1,4] (which encloses c[2,3]) and b[5,7]; d[8,9] is a
    # root of its own after a closes
    stats = SpanStats()
    for op, name, t in [("in", "a", 0), ("in", "b", 1), ("in", "c", 2), ("out", None, 3),
                        ("out", None, 4), ("in", "b", 5), ("out", None, 7), ("out", None, 10),
                        ("in", "d", 11), ("out", None, 12)]:
        if op == "in":
            stats.enter(name, t)
        else:
            stats.exit(t)
    assert dict(stats.calls) == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert dict(stats.self_s) == {"a": 10 - 3 - 2, "b": 2 + 2, "c": 1, "d": 1}
    assert not stats.stack


def test_worker_totals_add_up():
    stats = SpanStats()
    stats.enter("x", 0.0)
    stats.exit(2.0)
    stats.counts["x.n"] += 3
    stats.add({"calls": {"x": 2}, "self_s": {"x": 1.5}, "counts": {"x.n": 4}})
    assert stats.calls["x"] == 3 and stats.self_s["x"] == 3.5 and stats.counts["x.n"] == 7


def test_scan_candidates_counts_the_scan_loop():
    for n in (1, 2, 12, 97, 500):
        visited = 0
        g = 1
        while g * g <= n:
            for a in range(g, n // g + 1, g):
                visited += len(range(0, a, g))
            g += 1
        assert scan_candidates(n) == visited


def _bindings():
    mods = {n: m for n, m in sys.modules.items() if n == "wrlat" or n.startswith("wrlat.")}
    snap = {(n, attr): id(v) for n, m in mods.items() for attr, v in vars(m).items()}
    methods = {}
    for layer in LAYERS:
        cls = getattr(sys.modules[f"wrlat.{layer.module}"], layer.name)
        if isinstance(cls, type):
            methods[layer.key] = id(vars(cls)[layer.method])
    return snap, methods


def test_wrappers_are_installed_everywhere_and_removed_afterwards(tmp_path):
    before = _bindings()
    original = wrlat.planar.minimal_vectors
    with Tracer(tmp_path) as tracer:
        assert wrlat.survey.minimal_vectors is not original
        assert wrlat.planar.minimal_vectors is wrlat.survey.minimal_vectors
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["cyclo", "7", "--format", "json"]) == 0
            assert cli.main(["survey", "--d-min", "-30", "--d-max", "30", "--norm-bound", "20",
                             "--workers", "2", "--format", "csv", "--out", str(tmp_path / "s.csv")]) == 0
    assert _bindings() == before
    assert wrlat.survey.minimal_vectors is original
    # the survey ran in two forked workers, which report their own spans
    assert tracer.merge_workers() >= 1
    report = tracer.report()
    assert report["absent"] == []
    assert report["calls"]["cli.main"] == 2
    assert report["calls"]["survey.run_survey"] == 1
    # the parent's wait for the pool is a child span, not run_survey's self time
    assert report["calls"]["survey.ProcessPoolExecutor.map"] == 1
    assert report["self_s"]["survey.ProcessPoolExecutor.map"] > 0
    assert report["calls"]["planar.minimal_vectors"] == report["calls"]["survey.classify_triple"] > 0
    assert report["calls"]["svp.lll_reduce"] == 1
    assert report["counts"]["ideals.enumerate_ideals.ideals_out"] == report["calls"]["survey.classify_triple"]


def test_deleted_function_is_reported_absent(tmp_path):
    layers = LAYERS + (Layer("ideals", "no_such_function"), Layer("no_such_module", "f"))
    with Tracer(tmp_path, layers) as tracer:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["cyclo", "5", "--format", "json"])
    assert tracer.report()["absent"] == ["ideals.no_such_function", "no_such_module.f"]
    assert tracer.report()["calls"]["cli.main"] == 1
