"""The benchmark's tracer (wrbench/spans.py) finds every layer it times.

A layer whose function or class is gone is skipped by the tracer and listed
in ``absent``; its per-layer metrics would then read as missing rather than
fail.  This test makes such a removal fail here instead.  The full ring's Gram is built by a traced layer, so a
ring sweep's Gram time is counted where the benchmark reports it.
"""

import importlib
from pathlib import Path

WRBENCH = Path(__file__).resolve().parent.parent / "wrbench"


def test_tracer_finds_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(WRBENCH))
    spans = importlib.import_module("spans")
    with spans.Tracer(tmp_path) as tracer:
        assert tracer.absent == []
    assert len(spans.LAYERS) == 17


def test_ring_gram_is_a_traced_layer(tmp_path, monkeypatch):
    # the full ring is checked as the ideal (1), so its Gram is built by the
    # traced gram_principal
    monkeypatch.syspath_prepend(str(WRBENCH))
    spans = importlib.import_module("spans")
    from wrlat import cli

    with spans.Tracer(tmp_path) as tracer:
        assert cli.main(["cyclo", "12"]) == 0
    assert tracer.stats.calls["cyclo.gram_principal"] == 1
    assert tracer.stats.calls["cyclo.verify_cyclotomic_theorem"] == 1
