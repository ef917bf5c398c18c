"""Ideals of quadratic orders in canonical two-generator form (a, b + g*delta).

A triple (a, b, g) spans the Z-module a*Z + (b + g*delta)*Z.  The module is an
ideal of Z[delta] exactly when 0 <= b < a, 0 < g <= a, g | a, g | b and
g*a | N(b + g*delta); the ideal then has norm a*g.  Since
N(b + g*delta) = g^2 * N(b/g + delta), (a, b, g) is an ideal exactly when the
primitive triple (a/g, b/g, 1) is one.  The primitive triples of a given a
are the roots b of f(b) = N(b + delta) = b^2 + Tr(delta)*b + N(delta) modulo
a, so enumeration roots f modulo each prime (Tonelli-Shanks, one pow per
prime from constants kept with the sieve, which also decides residuosity),
lifts the roots to prime powers, combines them by the Chinese remainder
theorem (Cohen, A Course in Computational Algebraic Number Theory, 1.5-1.6)
and scales each primitive triple by g = 1..isqrt(bound // a).  Norm bounds
are capped at MAX_NORM_BOUND.

IdealTriple is the gate for user input (wrlat classify, the families and the
tables): its constructor checks the conditions above.  primitive_ideals
builds only valid primitive ideals, so it returns them as plain lists of
roots b per a, and a survey, which classifies each one and scales it to its
multiples, runs on ints without checking them again; enumerate_ideals lists
every triple in (norm, a, b, g) order, by a sort of their keys.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from ._frozen import Frozen
from .arith import QuadOrder, norm_xy

# Largest norm bound enumerate_ideals and a survey accept.  The sieve table
# and the root lists run up to the bound, and one radicand at 10**5 already
# has, for example, 60,466 ideals for D = -3 and 140,492 for D = -5.
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
def _splits(n: int) -> tuple[tuple[int, int, int, int, tuple[int, int, int] | None], ...]:
    """For a = 2..n, the tuple (p, q, m, inv, ts): p the smallest prime factor
    of a, q its full power in a, m = a // q, inv the inverse of m modulo q (0
    when m = 1), and for an odd prime a = p, ts = (e, u, c) with p - 1 = 2^e*u,
    u odd, and c = z^u mod p for the least non-residue z (None otherwise).
    None of it depends on the order, and a survey enumerates every radicand
    with one bound, so the last table is kept."""
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
        ts = None
        if a == p > 2:
            e = ((p - 1) & (1 - p)).bit_length() - 1  # 2^e is the largest power of 2 dividing p - 1
            u = (p - 1) >> e
            if e == 1:  # z^u = z^((p-1)/2) = -1 for every non-residue z
                ts = 1, u, p - 1
            else:
                # 2 is a non-residue exactly when p = +-3 (mod 8), and p = 1
                # (mod 4) here, so for p = 5 (mod 8) it is the least one
                z = 2
                while p % 8 == 1 and pow(z, (p - 1) // 2, p) != p - 1:
                    z += 1
                ts = e, u, pow(z, u, p)
        out.append((p, q, m, pow(m, -1, q) if m > 1 else 0, ts))
    return tuple(out)


def _roots_mod_prime(p: int, ts, tr: int, nm: int, disc: int) -> list[int]:
    """The roots of b^2 + tr*b + nm modulo the prime p; disc = tr^2 - 4*nm and
    ts = (e, u, c) is _splits' entry for an odd p.

    Tonelli-Shanks (Cohen, A Course in Computational Algebraic Number Theory,
    1.5.1) from one pow: w = n^((u-1)/2), r = w*n and t = w*r = n^u for
    n = disc mod p, so that r^2 = t*n.  t has order 2^i dividing 2^e, and n is
    a residue exactly when t^(2^(e-1)) = n^((p-1)/2) = 1, i < e; each step
    multiplies r by b = c^(2^(e-i-1)) and t by b^2, an element of order 2^i,
    so t's order falls until t = 1 and r^2 = n."""
    if p == 2:
        return [b for b in (0, 1) if (b * (b + tr) + nm) % 2 == 0]
    half = (p + 1) // 2  # the inverse of 2 modulo p
    n = disc % p
    if n == 0:
        return [-tr * half % p]
    e, u, c = ts
    w = pow(n, (u - 1) // 2, p)
    r = w * n % p
    t = w * r % p
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        if i == e:  # t^(2^(e-1)) != 1: n is a non-residue
            return []
        for _ in range(e - i - 1):
            c = c * c % p
        e, r, c = i, r * c % p, c * c % p
        t = t * c % p
    return [(r - tr) * half % p, (-r - tr) * half % p]


def primitive_ideals(order: QuadOrder, norm_bound: int) -> list[list[int]]:
    """The primitive ideals (a, b + delta) of norm a <= norm_bound as root
    lists: roots[a] holds their b in ascending order, for a = 0..norm_bound
    (roots[0] is empty).

    The b are the roots of f(b) = b*(b + Tr(delta)) + N(delta) modulo a, for
    a = 1..norm_bound along a smallest-prime-factor sieve.  Modulo a prime p
    they are both residues tested for p = 2, the double root -Tr(delta)/2 for
    p | disc and (-Tr(delta) +- sqrt(disc))/2 otherwise (none when disc is no
    square modulo p), disc = Tr(delta)^2 - 4*N(delta).  Each root r modulo
    p^(e-1) lifts by testing r + k*p^(e-1) for k < p, which covers the
    repeated roots of p | disc too.  Modulo a = q*m, q the full power of a's
    smallest prime, they are the CRT combinations of the roots modulo q and
    m, none when either has none.  As f(-Tr(delta) - b) = f(b), the roots
    come in pairs b, (-Tr(delta) - b) mod a: an ideal and its conjugate.
    Raises ValueError for a bound outside [1, MAX_NORM_BOUND].
    """
    check_norm_bound(norm_bound)
    tr, nm = order.delta_trace, order.delta_norm
    disc = tr * tr - 4 * nm
    roots: list[list[int]] = [[], [0]]
    for p, q, m, inv, ts in _splits(norm_bound):
        if m > 1:  # a = q*m with gcd(q, m) = 1
            if not (roots[q] and roots[m]):  # no root modulo q or m, so none modulo a
                roots.append([])
                continue
            rs = [s + m * ((r - s) * inv % q) for r in roots[q] for s in roots[m]]
        elif q == p:
            rs = _roots_mod_prime(p, ts, tr, nm, disc)
        else:
            step = q // p
            rs = [b for r in roots[step] for b in range(r, q, step) if (b * (b + tr) + nm) % q == 0]
        rs.sort()
        roots.append(rs)
    return roots


def enumerate_ideals(order: QuadOrder, norm_bound: int) -> list[tuple[int, int, int]]:
    """Every valid triple (a, b, g) with a*g <= norm_bound, sorted by
    (norm, a, b, g): the multiples (g*a, g*b, g) of each primitive pair
    (a, b), g = 1..isqrt(norm_bound // a), sorted by their keys
    (g^2*a, g*a, g*b, g).  Raises ValueError for a bound outside
    [1, MAX_NORM_BOUND]."""
    roots = primitive_ideals(order, norm_bound)
    keys = sorted((g * g * a, g * a, g * b, g) for a, bs in enumerate(roots) for b in bs
                  for g in range(1, isqrt(norm_bound // a) + 1))
    return [key[1:] for key in keys]
