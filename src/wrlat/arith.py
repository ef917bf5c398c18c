"""Exact arithmetic layer: number-theoretic predicates plus the quadratic
integers x + y*delta of a fixed quadratic order Z[delta]."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

_U64_LIMIT = 2**64

# deterministic Miller-Rabin witness set, valid for every n < 3.3e24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for 1 <= n < 2**64."""
    if n < 1:
        raise ValueError("nonpositive input")
    if n >= _U64_LIMIT:
        raise ValueError("primality test only supports inputs below 2**64")
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
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


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def is_squarefree(n: int) -> bool:
    """True iff no prime square divides n."""
    return mobius(n) != 0


def is_valid_radicand(d: int) -> bool:
    """True for integers defining a quadratic field: not 0 or 1, not a square."""
    return d not in (0, 1) and (d < 0 or math.isqrt(d) ** 2 != d)


class DeltaKind(Enum):
    MINUS_SQRT_D = "minus_sqrt_d"
    HALF_ONE_MINUS_SQRT_D = "half_one_minus_sqrt_d"


@dataclass(frozen=True)
class QuadOrder:
    """The ring Z[delta] attached to a non-square integer D.

    delta = -sqrt(D) when D != 1 (mod 4) and (1 - sqrt(D))/2 when
    D = 1 (mod 4), so Z[delta] is the maximal order exactly when D is
    squarefree; the `maximal` flag records that.
    """

    D: int
    delta_kind: DeltaKind = field(init=False, repr=False, compare=False)
    signature: tuple[int, int] = field(init=False, repr=False, compare=False)
    maximal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_valid_radicand(self.D):
            raise ValueError(f"invalid radicand {self.D}: need a non-square integer, not 0 or 1")
        kind = DeltaKind.HALF_ONE_MINUS_SQRT_D if self.D % 4 == 1 else DeltaKind.MINUS_SQRT_D
        object.__setattr__(self, "delta_kind", kind)
        object.__setattr__(self, "signature", (2, 0) if self.D > 0 else (0, 1))
        object.__setattr__(self, "maximal", is_squarefree(abs(self.D)))

    @property
    def delta_sq(self) -> tuple[int, int]:
        """(s, t) with delta**2 = s + t*delta."""
        if self.delta_kind is DeltaKind.MINUS_SQRT_D:
            return self.D, 0
        return (self.D - 1) // 4, 1

    @property
    def delta_trace(self) -> int:
        return 0 if self.delta_kind is DeltaKind.MINUS_SQRT_D else 1


def norm_xy(order: QuadOrder, x: int, y: int) -> int:
    """N(x + y*delta), always a rational integer."""
    if order.delta_kind is DeltaKind.MINUS_SQRT_D:
        return x * x - order.D * y * y
    return x * x + x * y + y * y * (1 - order.D) // 4


def trace_xy(order: QuadOrder, x: int, y: int) -> int:
    return 2 * x + y * order.delta_trace


@dataclass(frozen=True)
class QuadInt:
    """Element x + y*delta of a quadratic order."""

    x: int
    y: int
    order: QuadOrder

    def _require_same_order(self, other: "QuadInt"):
        if self.order != other.order:
            raise ValueError("mismatched orders")

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._require_same_order(other)
        return QuadInt(self.x + other.x, self.y + other.y, self.order)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._require_same_order(other)
        return QuadInt(self.x - other.x, self.y - other.y, self.order)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.x, -self.y, self.order)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._require_same_order(other)
        s, t = self.order.delta_sq
        yy = self.y * other.y
        return QuadInt(
            self.x * other.x + s * yy,
            self.x * other.y + other.x * self.y + t * yy,
            self.order,
        )

    def conj(self) -> "QuadInt":
        if self.order.delta_kind is DeltaKind.MINUS_SQRT_D:
            return QuadInt(self.x, -self.y, self.order)
        return QuadInt(self.x + self.y, -self.y, self.order)

    def norm(self) -> int:
        return norm_xy(self.order, self.x, self.y)

    def trace(self) -> int:
        return trace_xy(self.order, self.x, self.y)
