"""Cyclotomic integers and the Gram matrices of embedded principal ideals.

Elements of Z[zeta_k] are integer coefficient vectors on the power basis
1, zeta, ..., zeta^(phi(k)-1); products are reduced modulo the k-th
cyclotomic polynomial.  Traces of root powers come from the closed-form
Ramanujan sum mu(k/gcd(j,k)) * phi(k) / phi(k/gcd(j,k)), and the inner
product of the Minkowski embedding is half the trace of u * conj(v).
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

from .arith import euler_phi, mobius
from .errors import InvariantViolation
from .svp import GramMatrix, enumerate_shortest


def _poly_divmod(num, den):
    """Quotient and remainder of integer polynomials, divisor monic.

    Coefficient lists are ordered low degree first.
    """
    num = list(num)
    dn = len(den) - 1
    if len(num) <= dn:
        return [], num
    q = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            q[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    return q, num[:dn]


def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """Coefficients of the k-th cyclotomic polynomial, low degree first.

    Built by exact division: x^d - 1 divided by the polynomials of the
    proper divisors of d, for each divisor d of k in turn.
    """
    if k < 1:
        raise ValueError("k must be positive")
    cache: dict[int, list[int]] = {}
    for d in range(1, k + 1):
        if k % d:
            continue
        num = [-1] + [0] * (d - 1) + [1]
        for e, pe in cache.items():
            if d % e == 0:
                num, rem = _poly_divmod(num, pe)
                if any(rem):
                    raise ArithmeticError("cyclotomic division left a remainder")
        cache[d] = num
    return tuple(cache[k])


@dataclass(frozen=True)
class CycloField:
    """Degree, defining polynomial and trace table of Q(zeta_k)."""

    k: int
    phi: int
    poly: tuple[int, ...]
    trace_table: tuple[int, ...]


def cyclo_field(k: int) -> CycloField:
    if k < 3:
        raise ValueError("k must be at least 3")
    poly = cyclotomic_poly(k)
    phi = len(poly) - 1
    table = []
    for j in range(k):
        g = math.gcd(j, k)
        m = k // g
        mu = mobius(m)
        table.append(0 if mu == 0 else mu * (phi // euler_phi(m)))
    return CycloField(k, phi, poly, tuple(table))


@dataclass(frozen=True)
class CycloElement:
    """Integer combination of 1, zeta, ..., zeta^(phi-1)."""

    coeffs: tuple[int, ...]
    fld: CycloField

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __mul__(self, other: "CycloElement") -> "CycloElement":
        if self.fld.k != other.fld.k:
            raise ValueError("mismatched cyclotomic fields")
        a, b = self.coeffs, other.coeffs
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        return element(self.fld, conv)

    def conj(self) -> "CycloElement":
        """Complex conjugation zeta -> zeta^(k-1)."""
        k = self.fld.k
        acc = [0] * k
        for i, c in enumerate(self.coeffs):
            acc[(k - i) % k] += c
        return element(self.fld, acc)

    def times_zeta(self) -> "CycloElement":
        return element(self.fld, (0,) + self.coeffs)


def element(F: CycloField, coeffs) -> CycloElement:
    """Element from a coefficient list of any length, reduced mod the polynomial."""
    _, rem = _poly_divmod(list(coeffs), list(F.poly))
    rem = rem + [0] * (F.phi - len(rem))
    return CycloElement(tuple(rem), F)


def zeta_power(F: CycloField, j: int) -> CycloElement:
    j %= F.k
    return element(F, [0] * j + [1])


def gram_principal(F: CycloField, x: CycloElement) -> GramMatrix:
    """Gram matrix of the ideal lattice generated by x, basis x*zeta^i.

    Entry (i, j) is Tr(x*zeta^i * conj(x*zeta^j)) = Tr(y*zeta^|i-j|), twice the
    Minkowski inner product, with y = x*conj(x), which is real, so one product
    gives every entry: Tr(y*zeta^m) is the sum of y_l * Tr(zeta^(l+m)).
    """
    if x.fld.k != F.k:
        raise ValueError("mismatched cyclotomic fields")
    if x.is_zero:
        raise ValueError("zero element generates no lattice")
    y = (x * x.conj()).coeffs
    k, n, T = F.k, F.phi, F.trace_table
    diag = [sum(c * T[(l + m) % k] for l, c in enumerate(y) if c) for m in range(n)]
    return GramMatrix(tuple(tuple(diag[abs(i - j)] for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class CycloTheoremReport:
    k: int
    phi: int
    minimum: Fraction
    expected: Fraction
    n_minimal: int
    expected_count: int
    wr: bool

    @property
    def passed(self) -> bool:
        return self.minimum == self.expected and self.n_minimal == self.expected_count and self.wr


def verify_cyclotomic_theorem(F: CycloField) -> CycloTheoremReport:
    """Check the full ring of integers: minimum phi(k)/2, minimal vectors the
    embedded roots of unity (k of them for even k, 2k for odd k), well-rounded."""
    rep = enumerate_shortest(gram_principal(F, element(F, [1])))
    vecs = set(rep.vectors)
    for j in range(F.k):
        w = zeta_power(F, j).coeffs
        if w not in vecs or tuple(-c for c in w) not in vecs:
            raise InvariantViolation(f"root of unity zeta^{j} missing from the minimal set (k={F.k})")
    expected_count = F.k if F.k % 2 == 0 else 2 * F.k
    return CycloTheoremReport(
        F.k,
        F.phi,
        Fraction(rep.minimum, 2),
        Fraction(F.phi, 2),
        len(rep.vectors),
        expected_count,
        rep.span_rank == F.phi,
    )


def _form_value(a, c) -> int:
    """c^T A c for an integer matrix A and an integer vector c."""
    return sum(ci * sum(map(operator.mul, row, c)) for ci, row in zip(c, a) if ci)


_ROTATION_TRIALS = 100  # random vectors w checked for |zeta*w| = |w|


def verify_principal_ideal_wr(F: CycloField, x: CycloElement, rng=None) -> bool:
    """Well-roundedness of the lattice of the principal ideal (x).

    Also spot-checks rotation invariance: multiplying the ring coordinate
    vector by zeta leaves the trace form value unchanged, exactly.
    """
    G = gram_principal(F, x)
    rng = rng if rng is not None else random.Random(20210)
    for _ in range(_ROTATION_TRIALS):
        w = element(F, [rng.randint(-9, 9) for _ in range(F.phi)])
        rotated = w.times_zeta()
        if _form_value(G.rows, rotated.coeffs) != _form_value(G.rows, w.coeffs):
            raise InvariantViolation(
                f"rotation by zeta changed a vector length "
                f"(k={F.k}, generator={list(x.coeffs)}, w={list(w.coeffs)})"
            )
    return enumerate_shortest(G).span_rank == F.phi
