"""Exact arithmetic layer: number-theoretic predicates, the quadratic orders
Z[delta], and the norm and trace of x + y*delta in them."""

from __future__ import annotations

import math

from ._frozen import Frozen

# Largest |D| a quadratic order or a survey window accepts: is_squarefree
# factors |D| by trial division, which takes 0.06 s for a prime near 10**12.
MAX_RADICAND = 10**12


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}, primes ascending."""
    if n < 1:
        raise ValueError("nonpositive input")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n."""
    return max(factorize(n).values(), default=1) == 1


def check_radicand_bound(d: int) -> None:
    """Raise ValueError unless |d| <= MAX_RADICAND."""
    if abs(d) > MAX_RADICAND:
        raise ValueError(f"radicand {d} exceeds MAX_RADICAND = {MAX_RADICAND} in absolute value")


def is_valid_radicand(d: int) -> bool:
    """True for integers defining a quadratic field: not 0 or 1, not a square."""
    return d not in (0, 1) and (d < 0 or math.isqrt(d) ** 2 != d)


class QuadOrder(Frozen):
    """The ring Z[delta] attached to a non-square integer D.

    delta = -sqrt(D) when D != 1 (mod 4) and (1 - sqrt(D))/2 when
    D = 1 (mod 4), so Z[delta] is the maximal order exactly when D is
    squarefree; `maximal` decides that when read, from D.  delta is a root of
    X^2 - Tr(delta)*X + N(delta), with Tr(delta) = 0 and N(delta) = -D in the
    first case and Tr(delta) = 1 and N(delta) = (1 - D)/4 in the second.
    """

    __slots__ = ("D", "delta_trace", "delta_norm")

    def __init__(self, D: int):
        if not is_valid_radicand(D):
            raise ValueError(f"invalid radicand {D}: need a non-square integer, not 0 or 1")
        check_radicand_bound(D)
        half = D % 4 == 1
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "delta_trace", 1 if half else 0)
        object.__setattr__(self, "delta_norm", (1 - D) // 4 if half else -D)

    @property
    def maximal(self) -> bool:
        return is_squarefree(abs(self.D))


def norm_xy(order: QuadOrder, x: int, y: int) -> int:
    """N(x + y*delta) = x^2 + Tr(delta)*x*y + N(delta)*y^2, a rational integer."""
    return x * x + order.delta_trace * x * y + order.delta_norm * y * y


def trace_xy(order: QuadOrder, x: int, y: int) -> int:
    """Tr(x + y*delta) = 2x + Tr(delta)*y."""
    return 2 * x + y * order.delta_trace
