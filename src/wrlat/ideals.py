"""Ideals of quadratic orders in canonical two-generator form (a, b + g*delta).

A triple (a, b, g) spans the Z-module a*Z + (b + g*delta)*Z.  The module is an
ideal of Z[delta] exactly when 0 <= b < a, 0 < g <= a, g | a, g | b and
g*a | N(b + g*delta); the ideal then has norm a*g.  Since
N(b + g*delta) = g^2 * N(b/g + delta), (a, b, g) is an ideal exactly when the
primitive triple (a/g, b/g, 1) is one, so enumeration scans primitive pairs
and scales each by g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import QuadInt, QuadOrder, norm_xy


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

    @property
    def second_generator(self) -> QuadInt:
        return QuadInt(self.b, self.g, self.order)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(d, r, s) with r*a + s*b = d = gcd(a, b)."""
    r0, s0, r1, s1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if a < 0:
        return -a, -r0, -s0
    return a, r0, s0


def hnf_from_generators(u: QuadInt, v: QuadInt | None = None) -> IdealTriple:
    """Canonical triple of the ideal generated by u (and v if given).

    The ideal is the Z-span of u, v, delta*u, delta*v; column reduction of
    those four vectors yields the unique basis (a, b + g*delta).
    """
    order = u.order
    if v is None:
        v = QuadInt(0, 0, order)
    u._require_same_order(v)
    if u.is_zero and v.is_zero:
        raise ValueError("zero ideal has no canonical triple")
    delta = QuadInt(0, 1, order)
    cols = []
    for w in (u, v, u * delta, v * delta):
        if not w.is_zero:
            cols.append((w.x, w.y))
    # fold every column into the pivot (b_x over g_y); leftovers have y = 0
    b_x, g_y = 0, 0
    xs = []
    for x, y in cols:
        if y == 0:
            xs.append(x)
        elif g_y == 0:
            b_x, g_y = x, y
        else:
            d, r, s = _egcd(g_y, y)
            xs.append((y // d) * b_x - (g_y // d) * x)
            b_x, g_y = r * b_x + s * x, d
    if g_y < 0:
        b_x, g_y = -b_x, -g_y
    a = 0
    for x in xs:
        a = math.gcd(a, x)
    if a == 0 or g_y == 0:
        raise ValueError("generators do not span a rank-2 module")
    # closure under delta makes the triple valid, so the constructor's check passes
    return IdealTriple(a, b_x % a, g_y, order)


def enumerate_ideals(order: QuadOrder, norm_bound: int) -> list[IdealTriple]:
    """Every valid triple with a*g <= norm_bound, sorted by (norm, a, b, g).

    One scan finds the primitive pairs (a, b), those with
    a | N(b + delta) = b*(b + Tr(delta)) + N(delta); each gives the ideals
    (g*a, g*b, g) of norm g^2*a for every g with g^2*a <= norm_bound.
    """
    if norm_bound < 1:
        raise ValueError("norm bound must be at least 1")
    tr, nm = order.delta_trace, norm_xy(order, 0, 1)
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
