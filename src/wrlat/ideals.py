"""Ideals of quadratic orders in canonical two-generator form (a, b + g*delta).

A triple (a, b, g) spans the Z-module a*Z + (b + g*delta)*Z.  The module is an
ideal of Z[delta] exactly when 0 <= b < a, 0 < g <= a, g | a, g | b and
g*a | N(b + g*delta); the ideal then has norm a*g.  Since
N(b + g*delta) = g^2 * N(b/g + delta), (a, b, g) is an ideal exactly when the
primitive triple (a/g, b/g, 1) is one.  The primitive triples of a given a
are the roots b of f(b) = N(b + delta) = b^2 + Tr(delta)*b + N(delta) modulo
a, so enumeration roots f modulo each prime (Tonelli-Shanks), lifts the roots
to prime powers, combines them by the Chinese remainder theorem (Cohen, A
Course in Computational Algebraic Number Theory, 1.5-1.6) and scales each
primitive triple by g.  Norm bounds are capped at MAX_NORM_BOUND.

IdealTriple is the gate for user input (wrlat classify, the families and the
tables): its constructor checks the conditions above.  primitive_ideals
builds only valid primitive pairs, so it returns them as plain (a, b) tuples
and a survey, which classifies each one and scales it to its multiples, runs
on ints without checking them again; enumerate_ideals lists every triple.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from ._frozen import Frozen
from .arith import QuadOrder, norm_xy

# Largest norm bound enumerate_ideals and a survey accept.  The tables are
# built up to the bound, and one radicand at 10**5 already has, for example,
# 60,466 ideals for D = -3 and 140,492 for D = -5.
MAX_NORM_BOUND = 10**5


class IdealTriple(Frozen):
    """A valid triple: the constructor raises ValueError for one that does not
    span an ideal, so every IdealTriple is an ideal of norm a*g."""

    __slots__ = ("a", "b", "g", "order")

    def __init__(self, a: int, b: int, g: int, order: QuadOrder):
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
        elif norm_xy(order, b, g) % (g * a):
            reason = "g*a does not divide N(b + g*delta)"
        else:
            reason = None
        if reason is not None:
            raise ValueError(f"invalid ideal triple: {reason}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "order", order)


def check_norm_bound(norm_bound: int) -> None:
    """Raise ValueError unless 1 <= norm_bound <= MAX_NORM_BOUND."""
    if norm_bound < 1:
        raise ValueError("norm bound must be at least 1")
    if norm_bound > MAX_NORM_BOUND:
        raise ValueError(f"norm bound must be at most MAX_NORM_BOUND = {MAX_NORM_BOUND}")


@lru_cache(maxsize=1)
def _splits(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """For a = 2..n, the tuple (p, q, m, inv): p the smallest prime factor of
    a, q its full power in a, m = a // q and inv the inverse of m modulo q (0
    when m = 1).  None of it depends on the order, and a survey enumerates
    every radicand with one bound, so the last table is kept."""
    spf = list(range(n + 1))
    # descending, so a smaller divisor overwrites a larger one; the smallest
    # divisor p > 1 of a composite k is prime and has p*p <= k
    for p in range(isqrt(n), 1, -1):
        spf[p * p::p] = [p] * len(range(p * p, n + 1, p))
    out = []
    for a in range(2, n + 1):
        p = spf[a]
        q, m = p, a // p
        while m % p == 0:
            q *= p
            m //= p
        out.append((p, q, m, pow(m, -1, q) if m > 1 else 0))
    return tuple(out)


def _sqrt_mod_prime(n: int, p: int) -> int:
    """A square root of the quadratic residue n modulo the odd prime p
    (Tonelli-Shanks)."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    t, r = pow(n, q, p), pow(n, (q + 1) // 2, p)
    if t == 1:  # always so for p = 3 (mod 4)
        return r
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _roots_mod_prime(p: int, tr: int, nm: int, disc: int) -> list[int]:
    """The roots of b^2 + tr*b + nm modulo the prime p; disc = tr^2 - 4*nm."""
    if p == 2:
        return [b for b in (0, 1) if (b * (b + tr) + nm) % 2 == 0]
    half = (p + 1) // 2  # the inverse of 2 modulo p
    if disc % p == 0:
        return [-tr * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = _sqrt_mod_prime(disc % p, p)
    return [(s - tr) * half % p, (-s - tr) * half % p]


def primitive_ideals(order: QuadOrder, norm_bound: int) -> list[tuple[int, int]]:
    """Every primitive pair (a, b), the ideal (a, b + delta) of norm a, with
    a <= norm_bound, sorted by (a, b).

    The b are the roots of f(b) = b*(b + Tr(delta)) + N(delta) modulo a, for
    a = 1..norm_bound along a smallest-prime-factor sieve.  Modulo a prime p
    they are both residues tested for p = 2, the double root -Tr(delta)/2 for
    p | disc and (-Tr(delta) +- sqrt(disc))/2 otherwise, disc = Tr(delta)^2 -
    4*N(delta).  Each root r modulo p^(e-1) lifts by testing r + k*p^(e-1)
    for k < p, which covers the repeated roots of p | disc too.  Modulo
    a = q*m, q the full power of a's smallest prime, they are the CRT
    combinations of the roots modulo q and m, none when either has none.
    As f(-Tr(delta) - b) = f(b), the roots come in pairs b, (-Tr(delta) - b)
    mod a: an ideal and its conjugate.  Raises ValueError for a bound
    outside [1, MAX_NORM_BOUND].
    """
    check_norm_bound(norm_bound)
    tr, nm = order.delta_trace, order.delta_norm
    disc = tr * tr - 4 * nm
    roots: list[list[int]] = [[], [0]]
    for p, q, m, inv in _splits(norm_bound):
        if m > 1:  # a = q*m with gcd(q, m) = 1
            if not (roots[q] and roots[m]):  # no root modulo q or m, so none modulo a
                roots.append([])
                continue
            rs = [s + m * ((r - s) * inv % q) for r in roots[q] for s in roots[m]]
        elif q == p:
            rs = _roots_mod_prime(p, tr, nm, disc)
        else:
            step = q // p
            rs = [b for r in roots[step] for b in range(r, q, step) if (b * (b + tr) + nm) % q == 0]
        rs.sort()
        roots.append(rs)
    return [(a, b) for a, rs in enumerate(roots) for b in rs]


@lru_cache(maxsize=1)
def multipliers(norm_bound: int) -> tuple[range, ...]:
    """For a = 0..norm_bound, the g >= 1 with g^2*a <= norm_bound (none for a = 0),
    so that the multiples (g*a, g*b, g) of a primitive pair (a, b) lie in the bound."""
    return (range(0), *(range(1, isqrt(norm_bound // a) + 1) for a in range(1, norm_bound + 1)))


def enumerate_ideals(order: QuadOrder, norm_bound: int) -> list[tuple[int, int, int]]:
    """Every valid triple (a, b, g) with a*g <= norm_bound, sorted by
    (norm, a, b, g): the multiples (g*a, g*b, g) of each primitive pair
    (a, b).  Raises ValueError for a bound outside [1, MAX_NORM_BOUND]."""
    pairs, gs = primitive_ideals(order, norm_bound), multipliers(norm_bound)
    keys = [(g * g * a, g * a, g * b, g) for a, b in pairs for g in gs[a]]
    keys.sort()
    return [(a, b, g) for _, a, b, g in keys]
