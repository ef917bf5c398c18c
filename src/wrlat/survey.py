"""Batch classification of quadratic ideal lattices and the reference tables.

A survey task is one radicand: build its order, enumerate its ideals,
classify them in one loop (classify_triple) and hand the rows to the
caller's `emit`, in a worker process or in this one alike.  Survey results
are deterministic: rows come in (D, norm, a, b, g) order, so identical
configurations give identical results regardless of worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

from .arith import QuadOrder, check_radicand_bound, is_squarefree, is_valid_radicand
from .errors import InvariantViolation
from .families import imaginary_instance, real_instance
from .ideals import IdealTriple, check_norm_bound, enumerate_ideals
from .planar import form_from_ideal, gauss_reduce, minimal_vectors, norm_form


@dataclass(frozen=True)
class SurveyConfig:
    """A survey window; the constructor raises ValueError for an invalid one."""

    d_min: int
    d_max: int
    norm_bound: int = 10
    require_squarefree: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.d_min > self.d_max:
            raise ValueError("d_min must not exceed d_max")
        check_radicand_bound(self.d_min)
        check_radicand_bound(self.d_max)
        check_norm_bound(self.norm_bound)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def classify_triple(order: QuadOrder, triples):
    """Classify each ideal (a, b + g*delta) of `order` in `triples`, yielding
    the row (D, a, b, g, norm, minimum, n_minimal, wr, hexagonal,
    order_maximal): minimum, minimal vector count, and the well-rounded and
    hexagonal flags are all read off the reduced norm form (c1, c2, c3), and
    the minimum is an int.  Each triple must be valid: it comes from
    enumerate_ideals or has passed IdealTriple.

    Raises InvariantViolation, naming the replay command, if a minimum breaks
    its lower bound: min >= N(I) for D < 0, min^2 >= 4*N(I) for D > 0.  Both
    sides are integers, so the comparison is exact.
    """
    D, maximal = order.D, order.maximal
    for a, b, g in triples:
        c1, c2, c3 = gauss_reduce(*norm_form(order, a, b, g))
        nrm = a * g
        if not (c1 >= nrm if D < 0 else c1 * c1 >= 4 * nrm):
            raise InvariantViolation(
                f"minimum bound violated for D={D}, triple=({a},{b},{g}), "
                f"min={c1}, norm={nrm}; replay: wrlat classify -- {D} {a} {b} {g}"
            )
        # minimal vectors: 6 when c1 = c2 = c3, 4 when c1 = c3, else 2
        wr = c1 == c3
        hexagonal = wr and c1 == c2
        yield D, a, b, g, nrm, c1, 6 if hexagonal else 4 if wr else 2, wr, hexagonal, maximal


def _survey_radicand(norm_bound: int, emit, D: int) -> tuple:
    """One survey task: (emit(rows), #rows, #wr, #hexagonal) for radicand D."""
    order = QuadOrder(D)
    rows = list(classify_triple(order, enumerate_ideals(order, norm_bound)))
    return emit(rows), len(rows), sum([r[7] for r in rows]), sum([r[8] for r in rows])


def __getattr__(name):
    # keeps wrlat.survey.ProcessPoolExecutor reachable without importing the pool
    # machinery for every command (PEP 562)
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_MIN_RADICANDS = 8  # radicands per survey worker, at least
# tasks sent to each survey worker: fewer, larger tasks pay less per task, and
# smaller ones hold fewer records in a worker at a time
_TASKS_PER_WORKER = 32


def run_survey(cfg: SurveyConfig, emit):
    """Classify every ideal of norm <= norm_bound for each radicand in the
    window, yielding (emit(rows), #rows, #wr, #hexagonal) per radicand as it
    is classified.

    `emit` maps a radicand's list of classify_triple rows to a value, and
    runs where the radicand is classified, so with workers > 1 it must be a
    picklable (module-level) function and its value picklable too.  The
    values come in ascending D, each radicand's rows in (norm, a, b, g)
    order, without a sort: pool.map returns results in submission order and
    enumerate_ideals sorts the ideals of each radicand.  So any worker count
    gives the same sequence.
    """
    ds = [
        D for D in range(cfg.d_min, cfg.d_max + 1)
        if is_valid_radicand(D) and (not cfg.require_squarefree or is_squarefree(abs(D)))
    ]
    task = partial(_survey_radicand, cfg.norm_bound, emit)
    # the pool starts all its processes at once, so start no more than there
    # are CPUs or groups of _MIN_RADICANDS radicands
    workers = min(cfg.workers, -(-len(ds) // _MIN_RADICANDS), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here

        chunksize = -(-len(ds) // (_TASKS_PER_WORKER * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(task, ds, chunksize=chunksize)
    else:
        yield from map(task, ds)


# ---------------------------------------------------------------------------
# reference tables

def element_str(order: QuadOrder, x: int, y: int) -> str:
    """Exact algebraic rendering of x + y*delta, e.g. (1-√-15)/2 or 1-√3."""
    if y == 0:
        return str(x)
    if order.delta_trace:
        return f"({_radical_combo(2 * x + y, -y, order.D)})/2"
    return _radical_combo(x, -y, order.D)


def _radical_combo(r: int, s: int, D: int) -> str:
    """String for r + s*sqrt(D) with s != 0."""
    mag = "" if abs(s) == 1 else str(abs(s))
    rad = f"{mag}√{D}"
    if r == 0:
        return rad if s > 0 else f"-{rad}"
    return f"{r}+{rad}" if s > 0 else f"{r}-{rad}"


class TableRow(NamedTuple):
    family: str
    t: int
    D: int
    a: int
    b: int
    g: int
    ideal: str
    minimal_elements: str
    order_maximal: bool
    match: bool


# The example tables for the two families: four imaginary rows (t = 1, 3, 5, 7)
# and four real rows (t = 5, 13, 17, 31), with the expected canonical basis,
# minimal elements and maximality flag.  D = -207 is the one non-maximal order.
_EXPECTED_ROWS = (
    ("imaginary", 1, -15, "<2, (1-√-15)/2>", "±2, ±(1-√-15)/2", True),
    ("imaginary", 3, -55, "<4, (3-√-55)/2>", "±4, ±(3-√-55)/2", True),
    ("imaginary", 5, -119, "<6, (5-√-119)/2>", "±6, ±(5-√-119)/2", True),
    ("imaginary", 7, -207, "<8, (7-√-207)/2>", "±8, ±(7-√-207)/2", False),
    ("real", 5, 21, "<7, (7-√21)/2>", "±(7-√21)/2, ±(7+√21)/2", True),
    ("real", 13, 165, "<15, (15-√165)/2>", "±(15-√165)/2, ±(15+√165)/2", True),
    ("real", 17, 285, "<19, (19-√285)/2>", "±(19-√285)/2, ±(19+√285)/2", True),
    ("real", 31, 957, "<33, (33-√957)/2>", "±(33-√957)/2, ±(33+√957)/2", True),
)


def _minimal_elements_str(t: IdealTriple) -> str:
    _, vecs = minimal_vectors(*form_from_ideal(t))
    reps = [v for v in vecs if v > (-v[0], -v[1])]
    reps.sort(key=lambda v: (abs(v[1]), abs(v[0]), v[1], v[0]))
    return ", ".join("±" + element_str(t.order, t.a * m + t.b * n, t.g * n) for m, n in reps)


def reference_tables() -> list[TableRow]:
    """Both example tables, recomputed from scratch and flagged against the
    expected rows."""
    rows = []
    for family, t, D, ideal_exp, minimal_exp, maximal_exp in _EXPECTED_ROWS:
        inst = imaginary_instance(t) if family == "imaginary" else real_instance(t)
        trip = inst.triple
        ideal = f"<{trip.a}, {element_str(trip.order, trip.b, trip.g)}>"
        minimal = _minimal_elements_str(trip)
        maximal = trip.order.maximal
        match = (
            inst.D == D
            and ideal == ideal_exp
            and minimal == minimal_exp
            and maximal == maximal_exp
        )
        rows.append(TableRow(
            family, t, inst.D, trip.a, trip.b, trip.g, ideal, minimal, maximal, match,
        ))
    return rows
