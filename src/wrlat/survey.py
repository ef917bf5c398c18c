"""Batch classification of quadratic ideal lattices and the reference tables.

A survey task is one radicand: build its order, root its primitive ideals
(primitive_ideals), classify them and their multiples g*I within the norm
bound in one pass over the norms (classify_triple), which emits the rows
already in (norm, a, b, g) order, and hand them to the caller's `emit`, in a
forked worker or in this one alike (a worker sends emit's values back with
marshal: str, int, bool, tuple, list).  The multiples are pushed forward from
I's row to their norms, by scaling.  A primitive ideal I = (a, b + delta) of
small norm, 4*a^2 < |Delta| with Delta = Tr(delta)^2 - 4*N(delta) the
discriminant of Z[delta], has its shape read off a alone: its norm form has
discriminant a^2*Delta (D < 0) or -4*a^2*Delta (D > 0), so one shear leaves
c3 > c1 = a^2 (D < 0) or 2*a^2 (D > 0), and I is not WR.  Every other one is
reduced once per conjugate pair I, conj(I), whose lattices are congruent for
either sign of D.
Survey results are deterministic: rows come in (D, norm, a, b, g) order, so
identical configurations give identical results regardless of worker count.
"""

from __future__ import annotations

import marshal
import os
from functools import partial
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from ._frozen import Frozen
from .arith import QuadOrder, check_radicand_bound, is_squarefree, is_valid_radicand
from .errors import InvariantViolation
from .families import family_instance
from .ideals import IdealTriple, check_norm_bound, primitive_ideals
from .planar import form_from_ideal, gauss_reduce, minimal_vectors, norm_form


class SurveyConfig(Frozen):
    """A survey window; the constructor raises ValueError for an invalid one."""

    __slots__ = ("d_min", "d_max", "norm_bound", "require_squarefree", "workers")

    def __init__(self, d_min: int, d_max: int, norm_bound: int = 10,
                 require_squarefree: bool = False, workers: int = 1):
        if d_min > d_max:
            raise ValueError("d_min must not exceed d_max")
        check_radicand_bound(d_min)
        check_radicand_bound(d_max)
        check_norm_bound(norm_bound)
        if workers < 1:
            raise ValueError("workers must be at least 1")
        object.__setattr__(self, "d_min", d_min)
        object.__setattr__(self, "d_max", d_max)
        object.__setattr__(self, "norm_bound", norm_bound)
        object.__setattr__(self, "require_squarefree", require_squarefree)
        object.__setattr__(self, "workers", workers)


def _violation(D: int, a: int, b: int, g: int, minimum: int, nrm: int) -> InvariantViolation:
    """The minimum bound's violation by g*I, I = (a, b + delta), naming the
    replay command."""
    return InvariantViolation(
        f"minimum bound violated for D={D}, triple=({g * a},{g * b},{g}), "
        f"min={minimum}, norm={nrm}; replay: wrlat classify -- {D} {g * a} {g * b} {g}"
    )


def ideal_shape(order: QuadOrder, a: int, b: int, g: int) -> tuple:
    """The shape (minimum, n_minimal, wr, hexagonal) of g*I, I = (a, b + delta)
    a primitive ideal.  I's norm form is reduced (Buchmann & Vollmer): that of
    g*I is g^2 times it, and the reduction commutes with scaling, so g*I has
    the norm g^2*a, the minimum g^2*c1 and I's minimal vector count, 6 when
    c1 = c2 = c3, 4 when c1 = c3, else 2.

    Raises InvariantViolation, naming the replay command, if the minimum
    breaks its bound, min >= N for D < 0 or min^2 >= 4*N for D > 0 (exact, in
    ints).  Scaling multiplies both sides by g^2 for D < 0, and the minimum
    side by g^4 but the norm side by g^2 for D > 0, so g*I breaks it only if
    I does.
    """
    D = order.D
    c1, c2, c3 = gauss_reduce(*norm_form(order, a, b, 1))
    wr = c1 == c3
    hexagonal = wr and c1 == c2
    gg = g * g
    minimum, nrm = gg * c1, gg * a
    if not (minimum >= nrm if D < 0 else minimum * minimum >= 4 * nrm):
        raise _violation(D, a, b, g, minimum, nrm)
    return minimum, 6 if hexagonal else 4 if wr else 2, wr, hexagonal


def classify_triple(order: QuadOrder, roots: list[list[int]], maximal: bool) -> list[tuple]:
    """The rows (D, a, b, g, norm, minimum, n_minimal, wr, hexagonal,
    order_maximal) of every ideal of norm <= len(roots) - 1, in (norm, a, b, g)
    order, from primitive_ideals' root lists.  order_maximal is `maximal`,
    which the caller decides: order.maximal factors |D|, and a caller that
    already knows |D| is squarefree passes True.

    One pass over the norms N: first the multiples g*I of norm N, g >= 2,
    pushed forward from the primitive norm N/g^2; then the primitive ideals
    (N, b + delta), b in roots[N].  When 4*N lies in the bound, their rows
    are scaled for each g = 2..isqrt(bound // N), the minimum by g^2 (see
    ideal_shape), and pushed to norm g^2*N.  The pushes come by ascending
    primitive norm, then b, so each norm's multiples come by ascending
    triple a = N/g, then b: (norm, a, b, g) order with no sort.

    A primitive ideal of small norm, 4*N^2 < |Delta| with Delta =
    Tr(delta)^2 - 4*N(delta) the discriminant of Z[delta] (N <= small below),
    is not reduced.  Its norm form (c1, c2, c3), c1 = N^2 for D < 0 and 2*N^2
    for D > 0 (planar.norm_form), has the discriminant c2^2 - 4*c1*c3 =
    N^2*Delta for D < 0 and -4*N^2*Delta for D > 0.  One shear brings c2 into
    [-c1, c1), so 4*c1*c3 = c2^2 + N^2*|Delta| gives c3 >= |Delta|/4 > c1
    for D < 0, and 8*N^2*c3 = c2^2 + 4*N^2*Delta gives c3 >= Delta/2 > c1
    for D > 0: the sheared form is reduced with c1 < c3.  So every such
    ideal has the minimum c1, reached only at +-N, 2 minimal vectors, and is
    not WR.

    Every other one is reduced once per conjugate class.  The conjugate of I
    is (a, b' + delta), b' = (-Tr(delta) - b) mod a, also in roots[a], and
    its lattice is I's under an isometry: complex conjugation for D < 0, the
    swap of the two real embeddings for D > 0.  So the two reduced forms
    differ at most in the sign of c2 and share the minimum, the minimal
    vector count and both flags: the first of a pair is classified and its
    shape given to its partner when it comes.

    The minimum bound is checked once per conjugate class, or once per small
    norm, at g = 1: g*I breaks it only if I does, and I is classified before
    any multiple of it is emitted, so an InvariantViolation names the least
    (norm, a, b, g) row that breaks it.
    """
    D, tr = order.D, order.delta_trace
    bound = len(roots) - 1
    # 4*N^2 < |Delta| exactly when N <= small
    small = isqrt(abs(tr * tr - 4 * order.delta_norm) - 1) // 2
    scale = 1 if D < 0 else 2  # c1 = scale*N^2 at N <= small
    ahead: dict[int, list] = {}  # norm -> the rows of its multiples g*I, g >= 2, pushed so far
    rows: list[tuple] = []
    append = rows.append
    for n, bs in enumerate(roots):
        if n in ahead:
            rows += ahead.pop(n)
        if bs:
            start = len(rows)
            if n <= small:
                c1 = scale * n * n
                if not (c1 >= n if D < 0 else c1 * c1 >= 4 * n):  # ideal_shape's bound
                    raise _violation(D, n, bs[0], 1, c1, n)
                rows += [(D, n, b, 1, n, c1, 2, False, False, maximal) for b in bs]
            else:
                shapes = {}  # b' -> the shape of b, until b' comes
                for b in bs:
                    shape = shapes.pop(b, None)
                    if shape is None:
                        shape = ideal_shape(order, n, b, 1)
                        shapes[(-tr - b) % n] = shape
                    c1, n_minimal, wr, hexagonal = shape
                    append((D, n, b, 1, n, c1, n_minimal, wr, hexagonal, maximal))
            if 4 * n <= bound:  # 2*I lies in the bound
                primitive = rows[start:]
                for g in range(2, isqrt(bound // n) + 1):
                    gg = g * g
                    ahead.setdefault(gg * n, []).extend(
                        [(D, g * n, g * b, g, gg * n, gg * c1, n_minimal, wr, hexagonal, maximal)
                         for _, _, b, _, _, c1, n_minimal, wr, hexagonal, _ in primitive])
    return rows


def _survey_radicand(norm_bound: int, emit, squarefree: bool, D: int) -> tuple:
    """One survey task: (emit(rows), #rows, #wr, #hexagonal) for radicand D.
    A squarefree window has found |D| squarefree, so the order is maximal;
    otherwise order.maximal factors |D|."""
    order = QuadOrder(D)
    rows = classify_triple(order, primitive_ideals(order, norm_bound), squarefree or order.maximal)
    return emit(rows), len(rows), sum(map(itemgetter(7), rows)), sum(map(itemgetter(8), rows))


_MIN_RADICANDS = 8  # radicands per survey worker, at least
# chunks run by each survey worker: fewer, larger chunks pay less per chunk,
# and smaller ones hold fewer records in a worker at a time
_TASKS_PER_WORKER = 32


def run_survey(cfg: SurveyConfig, emit):
    """Classify every ideal of norm <= norm_bound for each radicand in the
    window, yielding (emit(rows), #rows, #wr, #hexagonal) per radicand as it
    is classified.

    `emit` maps a radicand's list of classify_triple rows to a value, and
    runs where the radicand is classified, so with workers > 1 its values
    must be ones marshal can write (str, int, bool, tuple, list).  The values
    come in ascending D, each radicand's rows in (norm, a, b, g) order: the
    chunks of radicands are yielded in order, and classify_triple emits each
    radicand's rows in that order, so any worker count gives the same sequence.
    """
    ds = [
        D for D in range(cfg.d_min, cfg.d_max + 1)
        if is_valid_radicand(D) and (not cfg.require_squarefree or is_squarefree(abs(D)))
    ]
    task = partial(_survey_radicand, cfg.norm_bound, emit, cfg.require_squarefree)
    # start no more workers than there are CPUs this process may run on or
    # groups of _MIN_RADICANDS radicands
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cfg.workers, -(-len(ds) // _MIN_RADICANDS), cpus)
    if workers > 1 and hasattr(os, "fork"):
        size = -(-len(ds) // (_TASKS_PER_WORKER * workers))
        yield from _run_forked(task, [ds[i:i + size] for i in range(0, len(ds), size)], workers)
    else:
        yield from map(task, ds)


def _run_forked(task, chunks: list, workers: int):
    """Yield task's values for the chunks in order.  Chunk i runs here when
    i % workers == 0, else in child i % workers, which sends it over its pipe
    as one frame: an 8-byte length, then marshal bytes of the values, or of the
    pickled exception that stops the child.  A child leaves by os._exit alone,
    so it flushes no buffer it inherited (the spool's, stdio's)."""
    pipes, pids = [], []
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            pipes.append(open(r, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    try:
                        for pipe in pipes:
                            pipe.close()
                        for chunk in chunks[k::workers]:
                            try:
                                frame, stop = marshal.dumps(list(map(task, chunk))), False
                            except BaseException as exc:  # raised again in the parent
                                import pickle
                                frame, stop = marshal.dumps(pickle.dumps(exc)), True
                            frame = memoryview(len(frame).to_bytes(8, "little") + frame)
                            while frame:  # a stop signal can cut a write short
                                frame = frame[os.write(w, frame):]
                            if stop:
                                break
                    finally:
                        os._exit(0)
                pids.append(pid)
            finally:
                os.close(w)
        for i, chunk in enumerate(chunks):
            if i % workers == 0:
                yield from map(task, chunk)
                continue
            pipe = pipes[i % workers - 1]
            n = int.from_bytes(head := pipe.read(8), "little")
            if len(head) < 8 or len(frame := pipe.read(n)) < n:
                raise RuntimeError(f"survey worker {i % workers} exited before sending its results")
            values = marshal.loads(frame)
            if type(values) is bytes:
                import pickle
                raise pickle.loads(values)
            yield from values
    finally:  # a child whose pipe is closed fails at its next write, and exits
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.waitpid(pid, 0)


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
        inst = family_instance(family, t)
        trip = inst.triple
        ideal = f"<{trip.a}, {element_str(trip.order, trip.b, trip.g)}>"
        minimal = _minimal_elements_str(trip)
        # the family decided squarefree |D| from its two coprime factors
        maximal = inst.squarefree
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
