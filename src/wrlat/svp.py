"""Exact shortest-vector computation for small Gram matrices, on integers.

Everything runs on integers.  GramMatrix takes a symmetric integer matrix G
(for a cyclotomic ideal, its traces) and factors it by integral Gram-Schmidt
(Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7, after
de Weger): d[i] is the leading principal minor of order i, d[0] = 1, and
lam_ij = d[j+1]*mu_ij, for the Gram-Schmidt coefficients mu and the squared
Gram-Schmidt lengths d[i+1]/d[i].  Every entry is an integer and every division
is exact; the factorization is also the positive-definiteness check (every
d[i] > 0).

LLL (delta = 99/100, for every caller) starts from (lam, d) and updates both
in place after each size reduction and swap.  It rounds as floor(mu + 1/2),
runs the Lovasz test in integers and size reduces in Cohen's order, so it
makes the decisions, and returns the basis change U, of the same LLL in
fractions; it never forms U^T G U, as enumeration reads its walk and starting
bound off lam and d.  A depth-first Fincke-Pohst walk then enumerates every
vector attaining the minimum, with integer level weights
E_j = Q g_j^2/(d[j] d[j+1]), g_j the common factor of column j, Q the least
that makes them integers: its bound starts at Q times the smallest diagonal
entry of the reduced matrix and tightens to the best value seen.
Every comparison is Q times the rational one, so the visiting order, the
minimum and the vectors are exactly those of the walk in fractions, and the
minimum of G is the integer best/Q.  The walk keeps to the half-space whose
last nonzero coordinate is positive (Fincke & Pohst 1985; Schnorr & Euchner
1994), so it finds one vector of each +- pair: the vectors of the walk in
fractions filtered to that half-space, in the same order.  Only those are
mapped through U, each as the sum of the columns of U at its nonzero
coordinates (short vectors of a reduced basis are sparse), and their
negations appended.
Whether they span the space is decided by an integer echelon built one vector
at a time, which stops as soon as the rank is full.  Dimensions are capped at
MAX_ENUM_DIM: this is a verification tool, not a general SVP solver.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from ._frozen import Frozen


MAX_ENUM_DIM = 24


class GramMatrix(Frozen):
    """Symmetric positive definite integer matrix G, given by its ``rows``.

    ``ldl`` is the integral Gram-Schmidt pair (lam, d) of ``_ldl`` on G,
    computed as the positive-definiteness check.
    """

    __slots__ = ("rows", "ldl")

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(map(tuple, rows))
        n = len(rows)
        if not n:
            raise ValueError("matrix must be non-empty")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        if any(rows[i][j] != rows[j][i] for i in range(n) for j in range(i)):
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ldl", _ldl(rows))  # raises if not positive definite

    @property
    def n(self) -> int:
        return len(self.rows)


class ShortVectorReport(NamedTuple):
    minimum: int
    vectors: tuple[tuple[int, ...], ...]
    span_rank: int


def _ldl(a):
    """Integral Gram-Schmidt (lam, d) of an integer matrix (Cohen, Alg. 2.6.7).

    d[i] is the leading principal minor of order i, d[0] = 1, and row i of lam
    holds lam_ij = d[j+1]*mu_ij for j < i, where mu is the unit lower
    triangular L of A = L diag(d[i+1]/d[i]) L^T.  Every entry is an integer
    and every division is exact; the matrix is positive definite exactly
    when every d[i] > 0.
    """
    lam = []
    d = [1]
    for i, row in enumerate(a):
        li = []
        for j in range(i + 1):
            lj = lam[j] if j < i else li
            u = row[j]
            for k in range(j):
                u = (d[k + 1] * u - li[k] * lj[k]) // d[k]
            li.append(u)
        di = li.pop()
        if di <= 0:
            raise ValueError("matrix is not positive definite")
        lam.append(li)
        d.append(di)
    return tuple(map(tuple, lam)), tuple(d)


def _swap(t, lam, d, k):
    """Exchange b_(k-1) and b_k, updating lam and d in place (Cohen, Alg. 2.6.7, SWAPI)."""
    t[k - 1], t[k] = t[k], t[k - 1]
    lk = lam[k]
    m = lk[k - 1]
    lam[k - 1], lam[k] = lk[:-1], lam[k - 1] + [m]
    b = (d[k - 1] * d[k + 1] + m * m) // d[k]
    for i in range(k + 1, len(lam)):
        li = lam[i]
        x = li[k]
        li[k] = (d[k + 1] * li[k - 1] - m * x) // d[k]
        li[k - 1] = (b * x + m * li[k]) // d[k + 1]
    d[k] = b


def lll_reduce(G: GramMatrix) -> tuple[list, list, tuple[tuple[int, ...], ...]]:
    """LLL reduction (delta = 99/100) of the Gram matrix, on integers.

    Returns (lam, d, U): U is unimodular, lam and d are the integral
    Gram-Schmidt pair of the reduced matrix U^T G U, and a vector with
    coordinates w in the reduced basis has coordinates U @ w in the original
    one.  Row k is size reduced against j with
    q = floor(mu_kj + 1/2) = (2 lam_kj + d[j+1]) // (2 d[j+1]).  The Lovasz
    test d[k+1]/d[k] >= (99/100 - mu^2) d[k]/d[k-1], mu = lam_k,k-1/d[k], is
    read as 100 d[k+1] d[k-1] >= 99 d[k]^2 - 100 lam_k,k-1^2: the decisions
    are those of the same LLL in fractions.  In Cohen's order (Alg. 2.6.7)
    row k is reduced against j = k-1 alone before the test, and against
    j = k-2, ..., 0 only once the test passes.  Reducing against those j
    changes neither lam_k,k-1 nor d, and a row swapped down to k-1 differs
    from the fully reduced one by a combination of rows 0..k-2, which moves
    mu_k-1,k-2 by an integer and which its own size reduction removes, so
    the decisions, U and (lam, d) are those of reducing the whole row before
    every test.
    """
    n = G.n
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    lam = [list(row) for row in G.ldl[0]]
    d = list(G.ldl[1])
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            q = (2 * lk[j] + dj) // (2 * dj)
            if q:
                t[k] = [a - q * b for a, b in zip(t[k], t[j])]
                lj = lam[j]
                for i in range(j):
                    lk[i] -= q * lj[i]
                lk[j] -= q * dj
            if j == k - 1 and 100 * d[k + 1] * d[j] < 99 * dj * dj - 100 * lk[j] ** 2:
                _swap(t, lam, d, k)
                k = max(k - 1, 1)
                break
        else:
            k += 1
    u = tuple(tuple(t[i][r] for i in range(n)) for r in range(n))  # transpose
    return lam, d, u


def _walk(lam, d):
    """Depth-first enumeration of the nonzero vectors of least form value, one
    of each +- pair.

    Returns (best, Q, vectors): the minimum of the form of (lam, d) is best/Q,
    and the vectors attaining it whose last nonzero coordinate is positive are
    in the coordinates of lam and d; their negations attain it too.

    The walk runs on integers read off (lam, d).  Column j of mu is
    lam_ij/d[j+1] (i > j); with g_j the gcd of d[j+1] and those lam_ij, its
    common denominator is M_j = d[j+1]/g_j, with numerators lam_ij/g_j.  The
    squared Gram-Schmidt length d[j+1]/d[j] over M_j^2 is g_j^2/(d[j] d[j+1]),
    so with Q the common denominator of these fractions in lowest terms the
    level weights E_j = Q g_j^2/(d[j] d[j+1]) are integers.  At level j the
    centre is -C/M_j with C = sum (lam_ij/g_j)*x_i, and x_j = k adds E_j*v^2,
    v = M_j*k + C, Q times the rational step; v moves by M_j as k moves by 1.
    The walk starts from Q times the smallest diagonal entry,
    min_i sum_j (lam_ij/g_j)^2*E_j with lam_ii = d[i+1], which a basis vector
    attains; the bound then tightens to the best value seen, so the vectors
    kept are exactly those attaining the minimum.  Every value is Q times the
    rational one, so the visiting order, the minimum and the vector list are
    those of the same walk in fractions.

    While every coordinate above level j is 0, only x_j >= 0 is tried.  A
    branch x_j = -k left out mirrors x_j = k, visited earlier under a bound no
    smaller, so it could only append negations at the best value: the bound
    and the resets evolve as in the full walk, and the list is the full
    walk's list filtered to the half-space, in the same order.
    """
    n = len(lam)
    gcds = [math.gcd(d[j + 1], *(row[j] for row in lam[j + 1:])) for j in range(n)]
    cols = [[lam[i][j] // g for i in range(j + 1, n)] for j, g in enumerate(gcds)]
    den = [dj // g for dj, g in zip(d[1:], gcds)]
    q = math.lcm(*(a * b // math.gcd(g * g, a * b) for g, a, b in zip(gcds, d, d[1:])))
    weight = [q * g * g // (a * b) for g, a, b in zip(gcds, d, d[1:])]
    best = min(
        sum((m // g) ** 2 * e for m, g, e in zip(row, gcds, weight) if m) + den[i] ** 2 * weight[i]
        for i, row in enumerate(lam)
    )
    x = [0] * n
    found: list[tuple[int, ...]] = []

    def record(total):
        nonlocal best
        if total < best:
            best = total
            found.clear()
        found.append(tuple(x))

    def descend(j, partial, top):
        m, e = den[j], weight[j]
        c = sum(map(operator.mul, cols[j], x[j + 1:]))
        start = (m - 2 * c) // (2 * m)  # nearest integer to -c/m, ties upwards
        # upwards from the nearest integer, v = m*x_j + c stepping by m, then
        # downwards from the one below it; while every coordinate above j is 0,
        # c = 0 and only x_j >= 0 is tried
        k, v = start, m * start + c
        while (total := partial + e * v * v) <= best:
            x[j] = k
            if j:
                descend(j - 1, total, top and not k)
            elif k or not top:  # a nonzero vector
                record(total)
            k += 1
            v += m
        k, v = start - 1, m * start + c - m
        while not top and (total := partial + e * v * v) <= best:
            x[j] = k
            if j:
                descend(j - 1, total, False)
            else:
                record(total)
            k -= 1
            v -= m
        x[j] = 0

    descend(n - 1, 0, True)
    return best, q, found


def _apply(u, vecs):
    """U @ w for every w in vecs, in order, as the sum of w_i times column i
    of U over the nonzero w_i only: short vectors of a reduced basis are sparse."""
    cols = tuple(zip(*u))
    out = []
    for w in vecs:
        v = None
        for col, wi in zip(cols, w):
            if wi:
                term = col if wi == 1 else [wi * a for a in col]
                v = term if v is None else list(map(operator.add, v, term))
        out.append(tuple(v))
    return out


def _span_rank(vectors) -> int:
    """Rank of integer vectors, from an integer echelon built one vector at a time.

    Each new vector is reduced against the rows kept so far by
    cross-multiplication and divided by its content; the scan stops once the
    rank is full.
    """
    ncols = len(vectors[0]) if vectors else 0
    rows = []  # (pivot column, row); each row is zero at the earlier rows' pivots
    for v in vectors:
        for p, r in rows:
            if v[p]:
                a, b = r[p], v[p]
                v = [a * x - b * y for x, y in zip(v, r)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        content = math.gcd(*v)
        rows.append((pivot, [x // content for x in v]))
        if len(rows) == ncols:
            break
    return len(rows)


def enumerate_shortest(G: GramMatrix) -> ShortVectorReport:
    """Minimum of the lattice and every vector attaining it.

    The walk returns the minimum as best/Q, an exact division: an integer
    matrix takes integer values at integer vectors.
    """
    if G.n > MAX_ENUM_DIM:
        raise ValueError(f"dimension {G.n} exceeds the enumeration guard ({MAX_ENUM_DIM})")
    lam, d, u = lll_reduce(G)
    best, q, half = _walk(lam, d)
    mapped = _apply(u, half)
    vectors = sorted(mapped + [tuple(-c for c in v) for v in mapped])
    return ShortVectorReport(best // q, tuple(vectors), _span_rank(mapped))
