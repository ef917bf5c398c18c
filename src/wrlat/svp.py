"""Exact shortest-vector computation for small rational Gram matrices.

LLL (delta = 3/4) runs directly on the Gram matrix in exact rational
arithmetic, then a depth-first Fincke-Pohst walk enumerates every vector
attaining the minimum: its bound starts at the smallest diagonal entry of the
reduced matrix and tightens to the best value seen.  The walk itself runs on
integers: once per enumeration, column j of mu is scaled by the lcm M_j of its
denominators, and the bound and each d_j/M_j^2 by one common denominator Q,
giving integer level weights E_j = Q*d_j/M_j^2 and bound B = Q*bound.  Every
comparison is then Q times the rational one, so the visiting order, the
minimum and the vectors are exactly those of the walk in fractions.  Whether
the minimal vectors span the space is decided by an integer echelon built one
vector at a time, which stops as soon as the rank is full.  Dimensions are
capped at MAX_ENUM_DIM: this is a verification tool, not a general SVP solver.

The LDL factorization G = L diag(d) L^T, whose L is the Gram-Schmidt
coefficient matrix mu and whose d holds the squared Gram-Schmidt lengths, is
computed once per matrix: GramMatrix computes it as its positive-definiteness
check and keeps it.  LLL starts from it and updates mu and d in place after
each size reduction and swap (Cohen, A Course in Computational Algebraic
Number Theory, Alg. 2.6.3) and returns them with the basis change U; it never
forms U^T G U, as enumeration reads its walk and starting bound off mu and d.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction


MAX_ENUM_DIM = 24

_LOVASZ = Fraction(3, 4)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric positive definite matrix with exact rational entries.

    ``ldl`` is the pair (mu, d) of ``_ldl``, computed by the constructor as
    its positive-definiteness check.
    """

    entries: tuple[tuple[Fraction | int, ...], ...]
    ldl: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", rows)
        n = len(rows)
        if not n:
            raise ValueError("matrix must be non-empty")
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "ldl", _ldl(rows))  # raises if not positive definite

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ShortVectorReport:
    minimum: Fraction
    vectors: tuple[tuple[int, ...], ...]
    span_rank: int


def _ldl(g):
    """Unit lower triangular L and positive diagonal d with G = L diag(d) L^T.

    L doubles as the Gram-Schmidt coefficient matrix mu and d as the squared
    lengths of the orthogonalized vectors.
    """
    n = len(g)
    L = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for i in range(n):
        Li = L[i]
        r = []  # r[j] = L[i][j] * d[j]
        for j in range(i):
            s = Fraction(g[i][j]) - sum(map(operator.mul, r, L[j]))
            r.append(s)
            Li[j] = s / d[j]
        s = Fraction(g[i][i]) - sum(map(operator.mul, r, Li))
        if s <= 0:
            raise ValueError("matrix is not positive definite")
        d[i] = s
        Li[i] = Fraction(1)
    return tuple(map(tuple, L)), tuple(d)


def _swap(t, mu, d, k):
    """Exchange b_(k-1) and b_k, updating mu and d in place (Cohen, Alg. 2.6.3, SWAP)."""
    t[k - 1], t[k] = t[k], t[k - 1]
    mk, mp = mu[k], mu[k - 1]
    for j in range(k - 1):
        mk[j], mp[j] = mp[j], mk[j]
    m = mk[k - 1]
    b = d[k] + m * m * d[k - 1]
    mk[k - 1] = m * d[k - 1] / b
    d[k] = d[k - 1] * d[k] / b
    d[k - 1] = b
    for i in range(k + 1, len(d)):
        mi = mu[i]
        x = mi[k]
        mi[k] = mi[k - 1] - m * x
        mi[k - 1] = x + mk[k - 1] * mi[k]


def lll_reduce(G: GramMatrix) -> tuple[list, list, tuple[tuple[int, ...], ...]]:
    """LLL reduction of the Gram matrix.

    Returns (mu, d, U): U is unimodular, mu and d are the LDL factors of the
    reduced matrix U^T G U, and a vector with coordinates w in the reduced
    basis has coordinates U @ w in the original one.
    """
    n = G.n
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    mu = [list(row) for row in G.ldl[0]]
    d = list(G.ldl[1])
    k = 1
    while k < n:
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            q = math.floor(mk[j] + _HALF)
            if q:
                t[k] = [a - q * b for a, b in zip(t[k], t[j])]
                mj = mu[j]
                for i in range(j):
                    mk[i] -= q * mj[i]
                mk[j] -= q
        if d[k] >= (_LOVASZ - mk[k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            _swap(t, mu, d, k)
            k = max(k - 1, 1)
    u = tuple(tuple(t[i][r] for i in range(n)) for r in range(n))  # transpose
    return mu, d, u


def _walk(mu, d, bound):
    """Depth-first enumeration of the nonzero vectors of least form value.

    Some vector must attain the starting bound; the bound then tightens to the
    best value seen, so the vectors kept are exactly those attaining the
    minimum.  Returns (minimum, vectors) in the coordinates of mu and d.

    The walk runs on integers, scaled once before it starts.  M_j is the lcm
    of the denominators of column j of mu below the diagonal, so that
    mu'_ij = M_j*mu_ij is an integer; Q is the lcm of the denominators of the
    bound and of every d_j/M_j^2, so that E_j = Q*d_j/M_j^2 and B = Q*bound
    are integers.  At level j the centre is -C/M_j with C = sum mu'_ij*x_i,
    and x_j = k adds Q*d_j*(k + C/M_j)^2 = E_j*(M_j*k + C)^2 to the scaled
    partial sum.  Every value is Q times the rational one, so the visiting
    order, the minimum and the vector list are those of the same walk done
    in fractions.
    """
    n = len(d)
    scale = [math.lcm(*(mu[i][j].denominator for i in range(j + 1, n))) for j in range(n)]
    cols = [
        [mu[i][j].numerator * (m // mu[i][j].denominator) for i in range(j + 1, n)]
        for j, m in enumerate(scale)
    ]
    ratios = [Fraction(dj) / (m * m) for dj, m in zip(d, scale)]
    bound = Fraction(bound)
    q = math.lcm(bound.denominator, *(r.denominator for r in ratios))
    weight = [r.numerator * (q // r.denominator) for r in ratios]
    best = bound.numerator * (q // bound.denominator)
    x = [0] * n
    found: list[tuple[int, ...]] = []

    def descend(j, partial):
        nonlocal best
        if j < 0:
            if any(x):
                if partial < best:
                    best = partial
                    found.clear()
                found.append(tuple(x))
            return
        m, e = scale[j], weight[j]
        c = sum(map(operator.mul, cols[j], x[j + 1:]))
        start = (m - 2 * c) // (2 * m)  # nearest integer to -c/m, ties upwards
        # upwards from the nearest integer, then downwards from the one below it
        for k, dk in ((start, 1), (start - 1, -1)):
            while True:
                total = partial + e * (m * k + c) ** 2
                if total > best:
                    break
                x[j] = k
                descend(j - 1, total)
                k += dk
        x[j] = 0

    descend(n - 1, 0)
    return Fraction(best, q), found


def _apply(u, w):
    return tuple(sum(u[r][c] * w[c] for c in range(len(w))) for r in range(len(w)))


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

    The initial enumeration bound is the smallest diagonal entry after LLL,
    which a basis vector always attains; entry i of U^T G U is
    sum_j mu_ij^2 d_j, as mu_ii = 1 and mu_ij = 0 for j > i.
    """
    if G.n > MAX_ENUM_DIM:
        raise ValueError(f"dimension {G.n} exceeds the enumeration guard ({MAX_ENUM_DIM})")
    mu, d, u = lll_reduce(G)
    bound = min(sum(m * m * dj for m, dj in zip(row, d) if m) for row in mu)
    minimum, vecs = _walk(mu, d, bound)
    mapped = sorted(_apply(u, w) for w in vecs)
    return ShortVectorReport(minimum, tuple(mapped), _span_rank(mapped))
