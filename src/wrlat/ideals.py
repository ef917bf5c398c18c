"""Ideals of quadratic orders in canonical two-generator form (a, b + g*delta).

A triple (a, b, g) spans the Z-module a*Z + (b + g*delta)*Z.  The module is an
ideal of Z[delta] exactly when 0 <= b < a, 0 < g <= a, g | a, g | b and
g*a | N(b + g*delta); the ideal then has norm a*g.  Since
N(b + g*delta) = g^2 * N(b/g + delta), (a, b, g) is an ideal exactly when the
primitive triple (a/g, b/g, 1) is one, so enumeration scans primitive pairs
and scales each by g.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import QuadOrder, norm_xy


@dataclass(frozen=True)
class IdealTriple:
    """A valid triple: the constructor raises ValueError for one that does not
    span an ideal, so every IdealTriple is an ideal of norm a*g."""

    a: int
    b: int
    g: int
    order: QuadOrder

    def __post_init__(self):
        a, b, g = self.a, self.b, self.g
        if a < 1 or g < 1 or b < 0:
            raise ValueError("triple entries must satisfy a >= 1, g >= 1, b >= 0")
        if b >= a:
            reason = "b out of range [0, a)"
        elif g > a:
            reason = "g out of range (0, a]"
        elif a % g:
            reason = "g does not divide a"
        elif b % g:
            reason = "g does not divide b"
        elif norm_xy(self.order, b, g) % (g * a):
            reason = "g*a does not divide N(b + g*delta)"
        else:
            return
        raise ValueError(f"invalid ideal triple: {reason}")


def enumerate_ideals(order: QuadOrder, norm_bound: int) -> list[IdealTriple]:
    """Every valid triple with a*g <= norm_bound, sorted by (norm, a, b, g).

    One scan finds the primitive pairs (a, b), those with
    a | N(b + delta) = b*(b + Tr(delta)) + N(delta); each gives the ideals
    (g*a, g*b, g) of norm g^2*a for every g with g^2*a <= norm_bound.
    """
    if norm_bound < 1:
        raise ValueError("norm bound must be at least 1")
    tr, nm = order.delta_trace, order.delta_norm
    out = []
    for a in range(1, norm_bound + 1):
        for b in range(a):
            if (b * (b + tr) + nm) % a == 0:
                g = 1
                while g * g * a <= norm_bound:
                    out.append(IdealTriple(g * a, g * b, g, order))
                    g += 1
    out.sort(key=lambda t: (t.a * t.g, t.a, t.b, t.g))
    return out
