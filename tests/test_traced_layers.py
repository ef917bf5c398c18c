"""The benchmark's tracer (wrbench/spans.py) finds every layer it times.

A layer whose function or class is gone is skipped by the tracer and listed
in ``absent``; its per-layer metrics would then read as missing rather than
fail.  This test makes such a removal fail here instead.
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
