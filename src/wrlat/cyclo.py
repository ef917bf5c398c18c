"""Cyclotomic integers and the Gram matrices of embedded principal ideals.

Elements of Z[zeta_k] are integer coefficient sequences on 1, zeta, zeta^2,
..., of any length and never reduced: every product is formed modulo
x^k - 1, and traces are read off a table.  cyclo_field(k) builds the table
of traces of root powers and the prime powers q || k from one factorization
of k, with mu and phi of each divisor of k read off the same factorization.
Traces come from the closed-form Ramanujan sum
mu(k/gcd(j,k)) * phi(k) / phi(k/gcd(j,k)), evaluated once per divisor
gcd(j,k) of k.  The Gram matrix of a basis x*zeta^s of an ideal (x) is read
off that table: entry (a, b) is Tr(y*zeta^(s_a - s_b)), y = x * conj(x) mod
x^k - 1.  Every lattice is checked in the powerful basis, the tensor product
of the power bases of the Z[zeta_q] (for a prime power k, the power basis):
the ring as the ideal (1), and an ideal (x) on the basis x*zeta^e, e a
powerful exponent.  The trace form is twice the Minkowski inner product.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple

from .arith import factorize
from .errors import InvariantViolation
from .svp import GramMatrix, enumerate_shortest


def _divisors(factors: dict[int, int]) -> list[tuple[int, int, int]]:
    """(d, mu(d), phi(d)) for every divisor d of the number factored as
    ``factors``, ascending."""
    table = [(1, 1, 1)]
    for p, e in factors.items():
        table += [
            (d * p**i, mu * (-1 if i == 1 else 0), phi * (p - 1) * p ** (i - 1))
            for d, mu, phi in table
            for i in range(1, e + 1)
        ]
    return sorted(table)


class CycloField(NamedTuple):
    """Degree and trace table of Q(zeta_k), and the pairs (q, phi(q)) for the
    prime powers q || k, by ascending prime."""

    k: int
    phi: int
    trace_table: tuple[int, ...]
    prime_powers: tuple[tuple[int, int], ...]


def cyclo_field(k: int) -> CycloField:
    """Q(zeta_k) for k >= 3, from one factorization of k; trace_table[j]
    is the integer Tr(zeta^j), 0 <= j < k."""
    if k < 3:
        raise ValueError("k must be at least 3")
    factors = factorize(k)
    divisors = _divisors(factors)
    n = divisors[-1][2]
    by_gcd = {k // e: mu and mu * (n // phi_e) for e, mu, phi_e in divisors}
    powers = tuple((p**e, (p - 1) * p ** (e - 1)) for p, e in factors.items())
    return CycloField(k, n, tuple(by_gcd[math.gcd(j, k)] for j in range(k)), powers)


def element(F: CycloField, coeffs) -> tuple[int, ...]:
    """The coefficient tuple of sum coeffs[i] * zeta^i; F is unused.  Kept while
    wrbench's cyclo_ideals workload calls it (until ROADMAP item 1b)."""
    return tuple(coeffs)


def gram_principal(F: CycloField, x, shifts) -> GramMatrix:
    """Gram matrix of the ideal lattice generated by x, a coefficient sequence
    on 1, zeta, zeta^2, ..., basis x*zeta^s, s in ``shifts``, each 0 <= s < k.

    Entry (a, b) is Tr(x*zeta^s_a * conj(x*zeta^s_b)) = Tr(y*zeta^(s_a-s_b)),
    twice the Minkowski inner product, with y = x*conj(x) formed modulo
    x^k - 1 (Tr is linear and zeta^k = 1): y_d sums x_a * x_b over a - b = d.
    Tr(y*zeta^m) sums y_l * T[(l+m) mod k] over the nonzero y_l, for m <= k/2
    only: y is real, so Tr(y*zeta^m) = Tr(y*zeta^(k-m)).  Tr(x*conj(x)) =
    tr[0] is 0 only for x = 0, however x is written.
    """
    k, T = F.k, F.trace_table
    y = [0] * k
    for a, xa in enumerate(x):
        if xa:
            for b, xb in enumerate(x):
                y[(a - b) % k] += xa * xb
    tr = [0] * (k // 2 + 1)
    for l, c in filter(operator.itemgetter(1), enumerate(y)):
        tr = [t + c * u for t, u in zip(tr, T[l:] + T)]  # u = T[(l+m) mod k]
    if not tr[0]:
        raise ValueError("zero element generates no lattice")
    tr += tr[(k - 1) // 2:0:-1]  # tr[m] = tr[k - m] = tr[-m]: no index needs reducing mod k
    return GramMatrix([[tr[a - b] for b in shifts] for a in shifts])


def _powerful_basis(F: CycloField) -> tuple[list[int], Callable[[int], tuple[int, ...]]]:
    """Exponents of the powerful basis of Z[zeta_k], and the coordinates of
    zeta^j on it.

    Z[zeta_k] is the tensor product of the Z[zeta_q], zeta_q = zeta^(k/q),
    over the prime powers q || k, so the zeta^e, e = sum (k/q)*i_q mod k,
    0 <= i_q < phi(q), are a Z-basis, the first q the most significant
    (Lyubashevsky, Peikert & Regev, A Toolkit for Ring-LWE Cryptography,
    2013); for a prime power k it is the power basis.  zeta^j is the product
    of the zeta_q^(j_q) with (k/q)*j_q = j mod q, so its coordinates are the
    Kronecker product of theirs in the power basis of each Z[zeta_q]:
    e_(j_q) for j_q < phi(q), else, as Phi_q(x) is the sum of x^(t*q/p) over
    0 <= t < p, minus the sum of e_(j_q - t*q/p) over 1 <= t < p.
    """
    k, n = F.k, F.phi
    exponents = [0]
    for q, phi_q in F.prime_powers:
        exponents = [e + k // q * i for e in exponents for i in range(phi_q)]
    parts = [(q, phi_q, pow(k // q, -1, q), q - phi_q) for q, phi_q in F.prime_powers]

    def coords(j: int) -> tuple[int, ...]:
        terms = [(0, 1)]
        for q, phi_q, inv, r in parts:
            jq = j * inv % q
            factor = [(jq, 1)] if jq < phi_q else [(i, -1) for i in range(jq - r, -1, -r)]
            terms = [(pos * phi_q + i, c * ci) for pos, c in terms for i, ci in factor]
        w = [0] * n
        for pos, c in terms:
            w[pos] = c
        return tuple(w)

    return [e % k for e in exponents], coords


class CycloTheoremReport(NamedTuple):
    k: int
    phi: int
    minimum: int
    expected: int
    n_minimal: int
    expected_count: int
    wr: bool

    @property
    def passed(self) -> bool:
        return self.minimum == self.expected and self.n_minimal == self.expected_count and self.wr


def verify_cyclotomic_theorem(F: CycloField) -> CycloTheoremReport:
    """Check the full ring of integers, the ideal (1), in its powerful
    basis: minimum phi(k)/2, minimal vectors the embedded roots of unity (k
    of them for even k, 2k for odd k), well-rounded.  For even k, -zeta^j is
    zeta^(j+k/2), so only odd k looks up -zeta^j."""
    exponents, coords = _powerful_basis(F)
    rep = enumerate_shortest(gram_principal(F, (1,), exponents))
    vecs, odd = set(rep.vectors), F.k % 2
    for j in range(F.k):
        w = coords(j)
        if w not in vecs or odd and tuple(-c for c in w) not in vecs:
            raise InvariantViolation(f"root of unity zeta^{j} missing from the minimal set (k={F.k}); "
                                     f"replay: wrlat cyclo {F.k}")
    expected_count = 2 * F.k if odd else F.k
    return CycloTheoremReport(
        F.k,
        F.phi,
        rep.minimum // 2,
        F.phi // 2,
        len(rep.vectors),
        expected_count,
        rep.span_rank == F.phi,
    )


def verify_principal_ideal_wr(F: CycloField, x, rng=None) -> bool:
    """Well-roundedness of the lattice of the principal ideal (x), x a
    coefficient sequence on 1, zeta, zeta^2, ..., on its basis x*zeta^e over
    the powerful exponents e.

    Also checks, exactly, that multiplication by zeta is an isometry of the
    trace form G: with Z its matrix on that basis, whose column i holds the
    powerful coordinates of zeta^(e_i + 1), it tests Z^T G Z = G, which by
    polarization is |zeta*w| = |w| for every w.  A failed diagonal entry i
    names the witness w = e_i, else the first failed entry (i, j) names
    e_i + e_j.  ``rng`` is unused.
    """
    exponents, coords = _powerful_basis(F)
    G = gram_principal(F, x, exponents)
    n, rows = F.phi, G.rows
    cols = [[(r, c) for r, c in enumerate(coords((e + 1) % F.k)) if c] for e in exponents]

    def zt(m):
        """Z^T m, m given by its rows: row i sums the rows of m scaled by the
        nonzero entries of column i of Z, and copies one row for a unit column."""
        return tuple(
            m[col[0][0]] if col[0][1] == 1 and len(col) == 1
            else tuple(map(sum, zip(*([c * v for v in m[r]] for r, c in col))))
            for col in cols
        )

    ztgz = zt(tuple(zip(*zt(rows))))  # Z^T (Z^T G)^T = Z^T G Z, as G is symmetric
    if ztgz != rows:
        _, i, j = min((i != j, i, j) for i in range(n) for j in range(i, n) if ztgz[i][j] != rows[i][j])
        raise InvariantViolation(
            f"rotation by zeta changed a vector length "
            f"(k={F.k}, generator={list(x)}, w={[int(m in (i, j)) for m in range(n)]})"
        )
    return enumerate_shortest(G).span_rank == F.phi
