"""Rank-2 lattices of quadratic ideals as exact binary quadratic forms.

An ideal (a, b + g*delta) embeds in the plane; the squared length of
m*sigma(a) + n*sigma(b + g*delta) is a positive definite form
Q(m, n) = c1*m^2 + c2*m*n + c3*n^2 with exact rational coefficients.
Everything here is exact: reduction, minima, and the well-rounded /
hexagonal / similarity predicates use no floating point.  The minimum bound
is checked where ideals are classified, in survey.classify_triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import QuadInt
from .ideals import IdealTriple

Mat2 = tuple[tuple[int, int], tuple[int, int]]

_IDENT2: Mat2 = ((1, 0), (0, 1))
# basis swap and shear (m, n) -> (m - k*n); both have determinant +-1
_SWAP: Mat2 = ((0, -1), (1, 0))


def _mul2(p: Mat2, q: Mat2) -> Mat2:
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


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

    @property
    def is_reduced(self) -> bool:
        return abs(self.c2) <= self.c1 <= self.c3

    def gram(self):
        """Gram matrix rows ((c1, c2/2), (c2/2, c3))."""
        h = Fraction(self.c2, 2)
        return ((self.c1, h), (h, self.c3))


@dataclass(frozen=True)
class MinimalSet:
    """Lattice minimum together with every vector attaining it."""

    minimum: Fraction | int
    vectors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.vectors) not in (2, 4, 6):
            raise ValueError("a planar lattice has 2, 4 or 6 minimal vectors")

    @property
    def wr(self) -> bool:
        """Well-rounded: the minimal vectors span the plane (4 or 6 of them)."""
        return len(self.vectors) >= 4

    @property
    def hexagonal(self) -> bool:
        """Similar to the hexagonal lattice, equivalently six minimal vectors."""
        return len(self.vectors) == 6


def form_from_ideal(t: IdealTriple) -> BinaryForm:
    """Norm form of the embedded ideal in the canonical basis (a, b + g*delta).

    For D < 0 the plane is the single complex embedding and the Gram entries
    come from N and the trace of the conjugate product; for D > 0 they are
    traces of plain products across the two real embeddings.
    """
    o = t.order
    beta = QuadInt(t.b, t.g, o)
    if o.D < 0:
        return BinaryForm(t.a * t.a, t.a * beta.trace(), beta.norm())
    alpha = QuadInt(t.a, 0, o)
    return BinaryForm((alpha * alpha).trace(), 2 * (alpha * beta).trace(), (beta * beta).trace())


def gauss_reduce(f: BinaryForm) -> tuple[BinaryForm, Mat2]:
    """Gauss-Lagrange reduction.

    Returns (reduced form, U) with |c2| <= c1 <= c3, sign-normalized to
    c2 >= 0 whenever |c2| = c1 or c1 = c3, and U unimodular such that the
    reduced Gram equals U^T G U exactly.
    """
    c1, c2, c3 = f.c1, f.c2, f.c3
    u = _IDENT2
    while True:
        # shear with k nearest to c2/(2*c1); afterwards c2 lies in [-c1, c1)
        k = (c2 + c1) // (2 * c1)
        if k:
            c2, c3 = c2 - 2 * k * c1, c1 * k * k - c2 * k + c3
            u = _mul2(u, ((1, -k), (0, 1)))
        if c1 > c3:
            c1, c2, c3 = c3, -c2, c1
            u = _mul2(u, _SWAP)
            continue
        break
    if c2 < 0 and -c2 == c1:
        c2 = c1
        u = _mul2(u, ((1, 1), (0, 1)))
    elif c2 < 0 and c1 == c3:
        c2 = -c2
        u = _mul2(u, _SWAP)
    return BinaryForm(c1, c2, c3), u


def minimal_vectors(f: BinaryForm) -> MinimalSet:
    """All vectors attaining the minimum, in the original basis coordinates.

    After reduction the minimum is the leading coefficient and every minimal
    vector has window coordinates |m|, |n| <= 2; candidates are mapped back
    through the reduction transform.
    """
    red, u = gauss_reduce(f)
    m0 = red.c1
    vecs = []
    for m in range(-2, 3):
        for n in range(-2, 3):
            if (m or n) and red(m, n) == m0:
                vecs.append((u[0][0] * m + u[0][1] * n, u[1][0] * m + u[1][1] * n))
    vecs.sort()
    return MinimalSet(m0, tuple(vecs))


def is_similar(f: BinaryForm, h: BinaryForm) -> bool:
    """Lattice similarity: reduced forms proportional up to the sign of c2.

    Rotations and reflections are both allowed, so only |c2| matters.
    """
    a, _ = gauss_reduce(f)
    b, _ = gauss_reduce(h)
    return (
        abs(a.c2) * b.c1 == abs(b.c2) * a.c1
        and a.c3 * b.c1 == b.c3 * a.c1
    )

