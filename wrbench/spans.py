"""Span tracing of wrlat's public functions, installed from outside the program.

A traced pass replaces each named function with a timing wrapper at every
``wrlat.*`` module binding that holds it.  Bindings are matched by identity,
because ``survey``, ``cyclo`` and ``svp`` bind their callees with
from-imports, so patching the defining module alone would miss most calls.
Classes (``QuadOrder``, ``GramMatrix``) are timed through their ``__init__``,
patched on the class itself, so ``isinstance`` and pickling keep working.
The parent's wait for survey workers is a span of its own, on the ``map`` of
the pool class that ``wrlat.survey`` binds, so that ``run_survey``'s self
time is its filtering, merging and sorting.  Everything is restored when the
traced block ends.

Spans are aggregated as they close instead of being stored: a survey pass
closes about 600k of them.  A span's self time is its duration minus the
durations of the wrapped spans it directly encloses.

Worker processes forked by a traced survey inherit the wrappers.  Each one
starts from empty totals and writes them to ``trace-worker-<pid>.json`` in
the tracer's directory when it exits; ``merge_workers`` adds them in.  This
relies on the ``fork`` start method, the default on Linux.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import resource
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def scan_candidates(norm_bound: int) -> int:
    """Number of b values a full scan of enumerate_ideals visits for norms <= N.

    For each g with g*g <= N and each multiple a of g up to N // g the scan
    tries b = 0, g, ..., a - g, which is a // g values.  The count does not
    depend on the radicand.
    """
    total = 0
    g = 1
    while g * g <= norm_bound:
        top = norm_bound // g // g  # a = g*j for j = 1..top
        total += top * (top + 1) // 2
        g += 1
    return total


def _enumerate_ideals_counts(args, kwargs, result) -> dict:
    norm_bound = kwargs["norm_bound"] if "norm_bound" in kwargs else args[1]
    return {"ideals_out": len(result), "candidates": scan_candidates(norm_bound)}


def _enumerate_shortest_counts(args, kwargs, result) -> dict:
    return {"vectors_out": len(result.vectors)}


@dataclass(frozen=True)
class Layer:
    """One traced function ``wrlat.<module>.<name>``, or for a class its ``method``.

    ``counts`` maps (args, kwargs, result) to extra counters for the span;
    ``cpu`` also records the calling process's CPU time inside the span;
    ``drain`` consumes a returned iterator inside the span.
    """

    module: str
    name: str
    counts: Callable | None = None
    cpu: bool = False
    method: str = "__init__"
    drain: bool = False

    @property
    def key(self) -> str:
        suffix = "" if self.method == "__init__" else f".{self.method}"
        return f"{self.module}.{self.name}{suffix}"


LAYERS = (
    Layer("arith", "QuadOrder"),
    Layer("arith", "is_squarefree"),
    Layer("ideals", "enumerate_ideals", counts=_enumerate_ideals_counts),
    Layer("planar", "form_from_ideal"),
    Layer("planar", "gauss_reduce"),
    Layer("planar", "minimal_vectors"),
    Layer("survey", "classify_triple"),
    Layer("survey", "run_survey", cpu=True),
    Layer("survey", "ProcessPoolExecutor", method="map", drain=True),
    Layer("cli", "main"),
    Layer("cyclo", "cyclo_field"),
    Layer("cyclo", "gram_principal"),
    Layer("cyclo", "verify_cyclotomic_theorem"),
    Layer("cyclo", "verify_principal_ideal_wr"),
    Layer("svp", "GramMatrix"),
    Layer("svp", "lll_reduce"),
    Layer("svp", "enumerate_shortest", counts=_enumerate_shortest_counts),
)


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class SpanStats:
    """Per-name call counts, self time and counters, accumulated as spans close."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.stack: list[list] = []  # [name, start, time covered by child spans]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)

    def enter(self, name: str, t: float):
        self.stack.append([name, t, 0.0])

    def exit(self, t: float):
        name, start, covered = self.stack.pop()
        duration = t - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self.stack:
            self.stack[-1][2] += duration

    def as_dict(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}

    def add(self, other: dict):
        for field in ("calls", "self_s", "counts"):
            mine = getattr(self, field)
            for name, value in other[field].items():
                mine[name] += value


class Tracer:
    """Installs span wrappers on LAYERS for the duration of a ``with`` block."""

    def __init__(self, worker_dir: Path, layers=LAYERS):
        self.worker_dir = Path(worker_dir)
        self.layers = layers
        self.stats = SpanStats()
        self.absent: list[str] = []
        self.active = False
        self._restore: list[tuple] = []
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _wrap(self, layer: Layer, fn):
        stats, clock, key = self.stats, time.perf_counter, layer.key

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cpu0 = _cpu_seconds() if layer.cpu else 0.0
            stats.enter(key, clock())
            try:
                result = fn(*args, **kwargs)
                if layer.drain:
                    result = iter(list(result))
            finally:
                stats.exit(clock())
                if layer.cpu:
                    stats.counts[f"{key}.cpu_s"] += _cpu_seconds() - cpu0
            if layer.counts is not None:
                for name, value in layer.counts(args, kwargs, result).items():
                    stats.counts[f"{key}.{name}"] += value
            return result

        return wrapper

    def install(self):
        originals = {}
        for layer in self.layers:
            try:
                originals[layer] = getattr(importlib.import_module(f"wrlat.{layer.module}"), layer.name)
            except (ImportError, AttributeError):
                self.absent.append(layer.key)
        # listed after the imports above, which may load further wrlat modules
        modules = [m for n, m in list(sys.modules.items()) if n == "wrlat" or n.startswith("wrlat.")]
        for layer, original in originals.items():
            if isinstance(original, type):
                method = original.__dict__.get(layer.method)
                if method is None:
                    self.absent.append(layer.key)
                    continue
                self._restore.append((original, layer.method, method))
                setattr(original, layer.method, self._wrap(layer, method))
                continue
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        self.active = True

    def restore(self):
        self.active = False
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _after_fork(self):
        # runs in a forked worker, after multiprocessing has cleared the
        # parent's finalizers; the worker reports only its own spans
        if not self.active:
            return
        self.stats.reset()
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self):
        path = self.worker_dir / f"trace-worker-{os.getpid()}.json"
        path.write_text(json.dumps(self.stats.as_dict()), encoding="utf-8")

    def merge_workers(self) -> int:
        """Add the totals written by exited workers; returns how many there were."""
        paths = sorted(self.worker_dir.glob("trace-worker-*.json"))
        for path in paths:
            self.stats.add(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        return len(paths)

    def report(self) -> dict:
        return {**self.stats.as_dict(), "absent": list(self.absent)}
