"""Rank-2 lattices of quadratic ideals as exact binary quadratic forms.

An ideal (a, b + g*delta) embeds in the plane; the squared length of
m*sigma(a) + n*sigma(b + g*delta) is a positive definite form
Q(m, n) = c1*m^2 + c2*m*n + c3*n^2 with integer coefficients, read off the
trace and norm of b + g*delta by norm_form.  One Gauss-Lagrange reduction,
gauss_reduce, runs on the coefficients (c1, c2, c3) alone.  Every answer is
read off the reduced coefficients: the minimum is c1, the lattice is
well-rounded exactly when c1 = c3, and hexagonal exactly when also c1 = c2
(Buchmann & Vollmer, Binary Quadratic Forms).  The form of a primitive
ideal (a, b + delta) has c1 = a^2 (D < 0) or 2*a^2 (D > 0) and the
discriminant c2^2 - 4*c1*c3 = a^2*Delta (D < 0) or -4*a^2*Delta (D > 0),
Delta = Tr(delta)^2 - 4*N(delta) the discriminant of Z[delta].  So when
4*a^2 < |Delta|, the shear that brings c2 into [-c1, c1) leaves
c3 >= |Delta|/4 > c1 (D < 0) or c3 >= Delta/2 > c1 (D > 0): the form is
reduced with minimum c1, and the lattice is not WR.  The form of g*I is g^2
times that of I, and the reduction commutes with that scaling, so a survey
reads such ideals off a in survey.classify_triple, reduces one primitive
ideal of each other conjugate pair once (the two forms are equivalent) in
survey.ideal_shape, which checks its minimum bound, reads both ideals off
the same coefficients and scales them for the multiples; the families
cross-check their closed forms against form_from_ideal; only the tables
print minimal vectors, which minimal_vectors gets from
svp.enumerate_shortest.  Forms are plain integer triples, and all is exact.
"""

from __future__ import annotations

from .arith import QuadOrder, norm_xy, trace_xy
from .ideals import IdealTriple
from .svp import GramMatrix, enumerate_shortest


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


def form_from_ideal(t: IdealTriple) -> tuple[int, int, int]:
    """Norm form (c1, c2, c3) of the embedded ideal in the canonical basis (a, b + g*delta)."""
    return norm_form(t.order, t.a, t.b, t.g)


def gauss_reduce(c1, c2, c3) -> tuple[int, int, int]:
    """Gauss-Lagrange reduction of the positive definite form (c1, c2, c3).

    Returns the reduced coefficients (c1, c2, c3), with |c2| <= c1 <= c3 and
    sign-normalized to c2 >= 0 whenever |c2| = c1 or c1 = c3.  Each step is a
    change of basis: a shear q <- q - k*p, a swap (p, q) <- (q, -p), and the
    final sign flip q <- q + p when -c2 = c1, or (p, q) <- (q, -p) when c1 = c3.
    """
    while True:
        # shear with k nearest to c2/(2*c1); afterwards c2 lies in [-c1, c1)
        k = (c2 + c1) // (2 * c1)
        if k:
            c2, c3 = c2 - 2 * k * c1, c1 * k * k - c2 * k + c3
        if c1 > c3:
            c1, c2, c3 = c3, -c2, c1
            continue
        break
    if c2 < 0 and (-c2 == c1 or c1 == c3):
        c2 = -c2
    return c1, c2, c3


def minimal_vectors(c1, c2, c3) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(minimum, vectors) of the positive definite form (c1, c2, c3), the
    vectors sorted and in the original basis coordinates.  The doubled Gram
    matrix takes the value 2*Q(m, n), so its minimum halves exactly;
    GramMatrix raises ValueError for a form that is not positive definite.
    """
    rep = enumerate_shortest(GramMatrix(((2 * c1, c2), (c2, 2 * c3))))
    return rep.minimum // 2, rep.vectors
