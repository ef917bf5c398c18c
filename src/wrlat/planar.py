"""Rank-2 lattices of quadratic ideals as exact binary quadratic forms.

An ideal (a, b + g*delta) embeds in the plane; the squared length of
m*sigma(a) + n*sigma(b + g*delta) is a positive definite form
Q(m, n) = c1*m^2 + c2*m*n + c3*n^2 with integer coefficients, read off the
trace and norm of b + g*delta by norm_form.  One Gauss-Lagrange reduction,
gauss_reduce, runs on the coefficients (c1, c2, c3) and tracks the two basis
vectors p, q it ends on.  Every answer is read off the reduced coefficients:
the minimum is c1, the lattice is well-rounded exactly when c1 = c3, and
hexagonal exactly when also c1 = c2 (Buchmann & Vollmer, Binary Quadratic
Forms).  A survey classifies each ideal from the reduced coefficients alone,
in survey.classify_triple, which also checks the minimum bound; BinaryForm
serves the families, and minimal_vectors expands the basis into vectors only
for the tables, which print them.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import QuadOrder, norm_xy, trace_xy
from .ideals import IdealTriple

Mat2 = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class BinaryForm:
    """Positive definite binary quadratic form c1*m^2 + c2*m*n + c3*n^2."""

    c1: Fraction | int
    c2: Fraction | int
    c3: Fraction | int

    def __post_init__(self):
        if not (self.c1 > 0 and 4 * self.c1 * self.c3 - self.c2 * self.c2 > 0):
            raise ValueError("form is not positive definite")

    def __call__(self, m, n):
        return self.c1 * m * m + self.c2 * m * n + self.c3 * n * n

    def coeffs(self):
        return (self.c1, self.c2, self.c3)


@dataclass(frozen=True)
class MinimalSet:
    """Lattice minimum together with every vector attaining it."""

    minimum: Fraction | int
    vectors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.vectors) not in (2, 4, 6):
            raise ValueError("a planar lattice has 2, 4 or 6 minimal vectors")


def norm_form(order: QuadOrder, a: int, b: int, g: int) -> tuple[int, int, int]:
    """Coefficients (c1, c2, c3) of the norm form of the ideal (a, b + g*delta)
    in that basis; the triple is not checked.

    With beta = b + g*delta: for D < 0 the plane is the single complex
    embedding and the form is (a^2, a*Tr(beta), N(beta)); for D > 0 the
    entries are traces across the two real embeddings, Tr(a^2) = 2a^2,
    2*Tr(a*beta) = 2a*Tr(beta) and Tr(beta^2) = Tr(beta)^2 - 2N(beta).
    """
    tr, nm = trace_xy(order, b, g), norm_xy(order, b, g)
    if order.D < 0:
        return a * a, a * tr, nm
    return 2 * a * a, 2 * a * tr, tr * tr - 2 * nm


def form_from_ideal(t: IdealTriple) -> BinaryForm:
    """Norm form of the embedded ideal in the canonical basis (a, b + g*delta)."""
    return BinaryForm(*norm_form(t.order, t.a, t.b, t.g))


def gauss_reduce(c1, c2, c3) -> tuple[tuple, Mat2]:
    """Gauss-Lagrange reduction of the positive definite form (c1, c2, c3).

    Returns the reduced coefficients (c1, c2, c3), with |c2| <= c1 <= c3 and
    sign-normalized to c2 >= 0 whenever |c2| = c1 or c1 = c3, and U
    unimodular such that the reduced Gram equals U^T G U exactly.  The
    columns p, q of U are the reduced basis in the original coordinates: a
    shear is q <- q - k*p and a swap is (p, q) <- (q, -p).
    """
    p0, p1, q0, q1 = 1, 0, 0, 1
    while True:
        # shear with k nearest to c2/(2*c1); afterwards c2 lies in [-c1, c1)
        k = (c2 + c1) // (2 * c1)
        if k:
            c2, c3 = c2 - 2 * k * c1, c1 * k * k - c2 * k + c3
            q0, q1 = q0 - k * p0, q1 - k * p1
        if c1 > c3:
            c1, c2, c3 = c3, -c2, c1
            p0, p1, q0, q1 = q0, q1, -p0, -p1
            continue
        break
    if c2 < 0 and -c2 == c1:
        c2 = c1
        q0, q1 = q0 + p0, q1 + p1
    elif c2 < 0 and c1 == c3:
        c2 = -c2
        p0, p1, q0, q1 = q0, q1, -p0, -p1
    return (c1, c2, c3), ((p0, q0), (p1, q1))


def minimal_vectors(f: BinaryForm) -> MinimalSet:
    """All vectors attaining the minimum, in the original basis coordinates.

    With p, q the reduced basis, the minimum is c1 and the minimal vectors are
    +-p, also +-q when c1 = c3, and also +-(p - q) when c1 = c2 = c3.
    """
    (c1, c2, c3), ((p0, q0), (p1, q1)) = gauss_reduce(f.c1, f.c2, f.c3)
    vecs = [(p0, p1), (-p0, -p1)]
    if c1 == c3:
        vecs += [(q0, q1), (-q0, -q1)]
        if c2 == c1:
            vecs += [(p0 - q0, p1 - q1), (q0 - p0, q1 - p1)]
    vecs.sort()
    return MinimalSet(c1, tuple(vecs))
