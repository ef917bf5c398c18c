"""Batch classification of quadratic ideal lattices and the reference tables.

Survey results are deterministic: records are sorted by (D, norm, a, b, g),
so identical configurations give identical records regardless of worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

from .arith import QuadOrder, check_radicand_bound, is_squarefree, is_valid_radicand
from .errors import InvariantViolation
from .families import imaginary_instance, real_instance
from .ideals import IdealTriple, check_norm_bound, enumerate_ideals
from .planar import form_from_ideal, gauss_reduce, minimal_vectors, norm_form


class SurveyRecord(NamedTuple):
    """One classified ideal; the norm form has integer coefficients, so the minimum is an int."""

    D: int
    a: int
    b: int
    g: int
    norm: int
    minimum: int
    n_minimal: int
    wr: bool
    hexagonal: bool
    order_maximal: bool


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


def classify_triple(order: QuadOrder, a: int, b: int, g: int) -> SurveyRecord:
    """Full classification of the ideal (a, b + g*delta) of `order`: minimum,
    minimal vector count, and the well-rounded and hexagonal flags, all read
    off the reduced norm form (c1, c2, c3).  The triple must be valid: it
    comes from enumerate_ideals or has passed IdealTriple.

    Raises InvariantViolation, naming the replay command, if the minimum breaks
    its lower bound: min >= N(I) for D < 0, min^2 >= 4*N(I) for D > 0.  Both
    sides are integers, so the comparison is exact.
    """
    (c1, c2, c3), _ = gauss_reduce(*norm_form(order, a, b, g))
    D = order.D
    nrm = a * g
    if not (c1 >= nrm if D < 0 else c1 * c1 >= 4 * nrm):
        raise InvariantViolation(
            f"minimum bound violated for D={D}, triple=({a},{b},{g}), "
            f"min={c1}, norm={nrm}; replay: wrlat classify -- {D} {a} {b} {g}"
        )
    # the minimal vectors are +-p, also +-q when c1 = c3, also +-(p - q) when c1 = c2 = c3
    wr = c1 == c3
    hexagonal = wr and c1 == c2
    return SurveyRecord(
        D, a, b, g, nrm, c1, 6 if hexagonal else 4 if wr else 2, wr, hexagonal, order.maximal
    )


def _survey_radicand(args) -> list[SurveyRecord]:
    D, norm_bound = args
    order = QuadOrder(D)
    return [classify_triple(order, a, b, g) for a, b, g in enumerate_ideals(order, norm_bound)]


def _survey_rows(args) -> list[tuple]:
    # a survey worker's task: plain tuples pickle and unpickle in C, while a
    # SurveyRecord goes through Python-level __getnewargs__ and __new__
    return list(map(tuple, _survey_radicand(args)))


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


def run_survey(cfg: SurveyConfig) -> tuple[list[SurveyRecord], dict]:
    """Classify every ideal of norm <= norm_bound for each radicand in the window.

    The records come out in (D, norm, a, b, g) order without a sort: the jobs
    ascend in D, pool.map returns results in submission order, and
    enumerate_ideals sorts the ideals of each radicand.  All of them are
    classified before this returns, so a bound violation raises before the
    command line writes a byte of output.  Workers return plain tuples, which
    become SurveyRecords again here, so any worker count gives the same list.
    """
    jobs = [
        (D, cfg.norm_bound) for D in range(cfg.d_min, cfg.d_max + 1)
        if is_valid_radicand(D) and (not cfg.require_squarefree or is_squarefree(abs(D)))
    ]
    # the pool starts all its processes at once, so start no more than there
    # are CPUs or groups of _MIN_RADICANDS jobs
    workers = min(cfg.workers, -(-len(jobs) // _MIN_RADICANDS), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only here

        chunksize = -(-len(jobs) // (_TASKS_PER_WORKER * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = [SurveyRecord._make(row)
                       for rows in pool.map(_survey_rows, jobs, chunksize=chunksize)
                       for row in rows]
    else:
        chunks = [_survey_radicand(job) for job in jobs]
        records = [rec for chunk in chunks for rec in chunk]
    summary = {
        "records": len(records),
        "wr": sum(r.wr for r in records),
        "hexagonal": sum(r.hexagonal for r in records),
        "bound_ok": len(records),  # classify_triple raises on a violation
    }
    return records, summary


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
    ms = minimal_vectors(form_from_ideal(t))
    reps = [v for v in ms.vectors if v > (-v[0], -v[1])]
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
