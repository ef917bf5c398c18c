"""Independent reference implementations used only by the tests.

Everything here favors obviousness over speed: brute-force boxes, plain trial
division, Newton's identities, literal coset counting.  The package must agree
with these on every tested input; nothing in here imports package internals
beyond plain data, except gram_from_rows, which builds the package's integer
GramMatrix from a matrix with rational entries, and classify_items, which
reduces with the package's norm_form and gauss_reduce and raises its
InvariantViolation.  rotation_spot_check takes the
matrix of multiplication by zeta from zeta_on_basis, not from the package.
Some are the package's own former algorithms, kept as references after a
faster one replaced them (lll_rebuild, lll_fraction, span_rank_fraction,
walk_fraction, apply_by_rows, window_minimal_vectors, gram_by_products,
rotation_spot_check, enumerate_ideals_scan, roots_mod_prime_legendre,
render_records_reference, classify_items and survey_rows_by_sort) or after the package stopped needing them
(hnf_triple, the canonical triple of an ideal from its generators, and
is_similar, lattice similarity of two binary forms).
"""

import csv
import functools
import io
import json
import math
import operator
from fractions import Fraction
from itertools import product

import numpy as np

from wrlat.errors import InvariantViolation
from wrlat.planar import gauss_reduce, norm_form
from wrlat.svp import GramMatrix


# ---------------------------------------------------------------------------
# elementary number theory

def trial_division_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def naive_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_by_factorization(n: int) -> bool:
    return all(e == 1 for e in naive_factorization(n).values())


def phi_by_factorization(n: int) -> int:
    phi = 1
    for p, e in naive_factorization(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def phi_by_count(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


def mobius_by_factorization(n: int) -> int:
    fac = naive_factorization(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt(D)) as pairs r + s*sqrt(D), r, s rational

def qd_from_xy(D: int, half: bool, x: int, y: int):
    """(r, s) image of x + y*delta."""
    if half:  # delta = (1 - sqrt(D))/2
        return (Fraction(2 * x + y, 2), Fraction(-y, 2))
    return (Fraction(x), Fraction(-y))


def qd_mul(u, v, D: int):
    (r1, s1), (r2, s2) = u, v
    return (r1 * r2 + D * s1 * s2, r1 * s2 + s1 * r2)


def qd_add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def qd_scale(c, u):
    return (c * u[0], c * u[1])


def qd_norm(u, D: int):
    return u[0] * u[0] - D * u[1] * u[1]


def qd_trace(u):
    return 2 * u[0]


# ---------------------------------------------------------------------------
# canonical triple of the ideal spanned by generators

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


def hnf_triple(D: int, *gens) -> tuple[int, int, int]:
    """Canonical (a, b, g) of the ideal of Z[delta] generated by the elements
    x + y*delta given as (x, y) pairs.

    The ideal is the Z-span of every generator and delta times it; with
    delta^2 = Tr(delta)*delta - N(delta), delta*(x + y*delta) is
    -N(delta)*y + (x + Tr(delta)*y)*delta.  Column reduction of those vectors
    yields the unique basis (a, b + g*delta) with 0 <= b < a.
    """
    half = D % 4 == 1
    tr, nm = (1, (1 - D) // 4) if half else (0, -D)
    cols = []
    for x, y in gens:
        for w in ((x, y), (-nm * y, x + tr * y)):
            if w != (0, 0):
                cols.append(w)
    if not cols:
        raise ValueError("zero ideal has no canonical triple")
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
    return a, b_x % a, g_y


# ---------------------------------------------------------------------------
# forms and Gram matrices as the tests write them

def form_value(c, m, n):
    """c1*m^2 + c2*m*n + c3*n^2 for the binary form c = (c1, c2, c3)."""
    c1, c2, c3 = c
    return c1 * m * m + c2 * m * n + c3 * n * n


def gram_from_rows(rows):
    """(GramMatrix(s*G), s) for a matrix G with int or Fraction entries, s the
    lcm of the entry denominators.  Minima of s*G are s times those of G."""
    rows = [[Fraction(v) for v in row] for row in rows]
    s = math.lcm(*(v.denominator for row in rows for v in row))
    return GramMatrix(tuple(tuple(int(v * s) for v in row) for row in rows)), s


def rational_entries(G, s=1):
    """The entries of the GramMatrix G of s times a rational matrix, divided
    by s, as Fractions."""
    return tuple(tuple(Fraction(v, s) for v in row) for row in G.rows)


# ---------------------------------------------------------------------------
# brute-force minima

def min_bound_holds(rec) -> bool:
    """The minimum bound read off a survey record: min >= N(I) for D < 0,
    min^2 >= 4 N(I) for D > 0."""
    if rec.D < 0:
        return rec.minimum >= rec.norm
    return rec.minimum * rec.minimum >= 4 * rec.norm


def is_similar(f, h) -> bool:
    """Lattice similarity of two positive definite forms given as (c1, c2, c3):
    their reduced forms are proportional up to the sign of c2.

    Rotations and reflections are both allowed, so only |c2| matters.
    """
    def reduced(c1, c2, c3):
        while True:
            k = (c2 + c1) // (2 * c1)  # nearest integer to c2/(2*c1)
            c2, c3 = c2 - 2 * k * c1, c1 * k * k - c2 * k + c3
            if c1 <= c3:
                return c1, abs(c2), c3
            c1, c2, c3 = c3, -c2, c1

    a, b = reduced(*f), reduced(*h)
    return a[1] * b[0] == b[1] * a[0] and a[2] * b[0] == b[2] * a[0]


def box_form_minimum(c1, c2, c3, radius: int):
    """Minimum and all minimizers of a binary form over 0 < max(|m|,|n|) <= radius."""
    best = None
    vecs: list[tuple[int, int]] = []
    for m in range(-radius, radius + 1):
        for n in range(-radius, radius + 1):
            if m == 0 and n == 0:
                continue
            q = c1 * m * m + c2 * m * n + c3 * n * n
            if best is None or q < best:
                best, vecs = q, [(m, n)]
            elif q == best:
                vecs.append((m, n))
    return best, sorted(vecs)


def window_minimal_vectors(c1, c2, c3):
    """Minimum and sorted minimal vectors of a positive definite binary form,
    by Gauss-Lagrange reduction with the transform kept as a 2x2 matrix product,
    then a search of the window |m|, |n| <= 2 of the reduced form mapped back.

    Rational coefficients are scaled to integers first; scaling a form by a
    positive constant changes neither the reduction steps nor the vectors."""
    den = math.lcm(*(Fraction(c).denominator for c in (c1, c2, c3)))
    c1, c2, c3 = (int(c * den) for c in (c1, c2, c3))

    def mul(p, q):
        return tuple(
            tuple(sum(p[i][r] * q[r][j] for r in range(2)) for j in range(2))
            for i in range(2)
        )

    swap = ((0, -1), (1, 0))
    u = ((1, 0), (0, 1))
    while True:
        k = (c2 + c1) // (2 * c1)
        if k:
            c2, c3 = c2 - 2 * k * c1, c1 * k * k - c2 * k + c3
            u = mul(u, ((1, -k), (0, 1)))
        if c1 > c3:
            c1, c2, c3 = c3, -c2, c1
            u = mul(u, swap)
            continue
        break
    if c2 < 0 and -c2 == c1:
        c2 = c1
        u = mul(u, ((1, 1), (0, 1)))
    elif c2 < 0 and c1 == c3:
        c2 = -c2
        u = mul(u, swap)
    vecs = []
    for m in range(-2, 3):
        for n in range(-2, 3):
            if (m or n) and c1 * m * m + c2 * m * n + c3 * n * n == c1:
                vecs.append((u[0][0] * m + u[0][1] * n, u[1][0] * m + u[1][1] * n))
    return Fraction(c1, den), sorted(vecs)


def box_form_minimum_np(c1: int, c2: int, c3: int, radius: int = 25):
    """Same search vectorized for integer coefficients (exact in int64)."""
    r = np.arange(-radius, radius + 1, dtype=np.int64)
    m, n = np.meshgrid(r, r, indexing="ij")
    q = c1 * m * m + c2 * m * n + c3 * n * n
    q[radius, radius] = np.iinfo(np.int64).max  # mask the origin
    best = q.min()
    idx = np.argwhere(q == best)
    return int(best), sorted((int(m[i, j]), int(n[i, j])) for i, j in idx)


def box_gram_minimum(entries, radius: int):
    """Exact brute-force minimum of v G v^T over the box, any dimension."""
    n = len(entries)
    best = None
    vecs = []
    for v in product(range(-radius, radius + 1), repeat=n):
        if not any(v):
            continue
        q = sum(entries[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if best is None or q < best:
            best, vecs = q, [v]
        elif q == best:
            vecs.append(v)
    return best, sorted(vecs)


def box_gram_within(entries, bound):
    """Every nonzero v with v G v^T <= bound, sorted, by a box search over the
    whole ellipsoid: each |v_i| <= sqrt(bound * (G^-1)_ii) (Cauchy-Schwarz)."""
    n = len(entries)
    # Gauss-Jordan inverse over the rationals
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(entries)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    radii = [math.isqrt(math.floor(Fraction(bound) * m[i][n + i])) for i in range(n)]
    out = []
    for v in product(*(range(-r, r + 1) for r in radii)):
        if any(v) and sum(entries[i][j] * v[i] * v[j] for i in range(n) for j in range(n)) <= bound:
            out.append(v)
    return sorted(out)


def span_rank_fraction(vectors) -> int:
    """Rank by Gaussian elimination over the rationals on all the vectors."""
    rows = [list(map(Fraction, v)) for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
        if rank == ncols:
            break
    return rank


def apply_by_rows(u, vecs):
    """U @ w for every w in vecs, in one pass over the rows of U.

    The package's former map-back of the walk's vectors, replaced by a sum
    over the nonzero coordinates of each w.
    """
    return list(zip(*([sum(map(operator.mul, row, w)) for w in vecs] for row in u)))


# ---------------------------------------------------------------------------
# LLL that refactors the Gram matrix from scratch after every step

def ldl_factor(g):
    """Unit lower triangular L and diagonal d with G = L diag(d) L^T."""
    n = len(g)
    L = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for i in range(n):
        for j in range(i + 1):
            s = Fraction(g[i][j])
            for k in range(j):
                s -= L[i][k] * L[j][k] * d[k]
            if j < i:
                L[i][j] = s / d[j]
            else:
                d[i] = s
                L[i][i] = Fraction(1)
    return L, d


def transform_gram(entries, u):
    """U^T G U, for the Gram matrix G of a basis and a basis change U.

    Computed on the integer matrix qG, q the lcm of the denominators of G;
    the entries are ints when G's are integers and Fractions otherwise.
    """
    n = len(u)
    q = math.lcm(*(Fraction(x).denominator for row in entries for x in row))
    g = [[int(x * q) for x in row] for row in entries]
    gu = [[sum(g[r][s] * u[s][j] for s in range(n)) for j in range(n)] for r in range(n)]
    scale = int if q == 1 else (lambda x: Fraction(x, q))
    return tuple(
        tuple(scale(sum(u[r][i] * gu[r][j] for r in range(n))) for j in range(n))
        for i in range(n)
    )


def lll_rebuild(entries):
    """LLL (delta = 99/100) on a Gram matrix, reading mu and d off the LDL of
    the current matrix after every size reduction and swap.

    The LDL is rebuilt lazily, row by row as the loop reads it, each row from
    the current matrix as ``ldl_factor`` computes it.  A step that changes
    rows k and beyond keeps rows 0..k-1, those of the unchanged leading block.

    Returns (reduced entries, U) with the conventions of ``svp.lll_reduce``:
    reduced = U^T G U.
    """
    n = len(entries)
    g = [list(row) for row in entries]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    mu, d = [], []

    def rows_through(k):
        """Extend mu and d to rows 0..k of the LDL of g."""
        for i in range(len(d), k + 1):
            row, r = [], []  # r[m] = row[m] * d[m]
            for j in range(i):
                s = Fraction(g[i][j]) - sum(map(operator.mul, r, mu[j]))
                r.append(s)
                row.append(s / d[j])
            d.append(Fraction(g[i][i]) - sum(map(operator.mul, r, row)))
            mu.append(row + [Fraction(1)])

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            rows_through(k)
            q = math.floor(mu[k][j] + Fraction(1, 2))
            if q:
                for col in range(n):
                    g[k][col] -= q * g[j][col]
                for row in range(n):
                    g[row][k] -= q * g[row][j]
                t[k] = [t[k][i] - q * t[j][i] for i in range(n)]
                del mu[k:], d[k:]
        rows_through(k)
        if d[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            g[k - 1], g[k] = g[k], g[k - 1]
            for row in g:
                row[k - 1], row[k] = row[k], row[k - 1]
            t[k - 1], t[k] = t[k], t[k - 1]
            del mu[k - 1:], d[k - 1:]
            k = max(k - 1, 1)
    u = tuple(tuple(t[i][r] for i in range(n)) for r in range(n))
    return tuple(tuple(row) for row in g), u


# ---------------------------------------------------------------------------
# LLL in fractions, updating mu and d in place (Cohen, Alg. 2.6.3)

def _fraction_ldl(g):
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


def _fraction_swap(t, mu, d, k):
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


def lll_fraction(entries):
    """LLL (delta = 99/100) on a Gram matrix in fractions.

    Returns (mu, d, U): U is unimodular, mu and d are the LDL factors of the
    reduced matrix U^T G U (mu with ones on its diagonal), and a vector with
    coordinates w in the reduced basis has coordinates U @ w in the original
    one.
    """
    n = len(entries)
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    L, d = _fraction_ldl(entries)
    mu = [list(row) for row in L]
    d = list(d)
    k = 1
    while k < n:
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            q = math.floor(mk[j] + Fraction(1, 2))
            if q:
                t[k] = [a - q * b for a, b in zip(t[k], t[j])]
                mj = mu[j]
                for i in range(j):
                    mk[i] -= q * mj[i]
                mk[j] -= q
        if d[k] >= (Fraction(99, 100) - mk[k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            _fraction_swap(t, mu, d, k)
            k = max(k - 1, 1)
    u = tuple(tuple(t[i][r] for i in range(n)) for r in range(n))  # transpose
    return mu, d, u


def fraction_gram_schmidt(lam, d, scale=1):
    """(mu, lengths) in fractions from an integral Gram-Schmidt pair (lam, d)
    of the matrix scale*G: mu_ij = lam_ij/d[j+1] below the diagonal, ones on
    it, and lengths_j = d[j+1]/(d[j]*scale), the squared Gram-Schmidt lengths
    of G.  Lists of lists, like ``ldl_factor`` and ``lll_fraction``."""
    n = len(lam)
    mu = [
        [Fraction(lam[i][j], d[j + 1]) if j < i else Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    return mu, [Fraction(d[j + 1], d[j] * scale) for j in range(n)]


# ---------------------------------------------------------------------------
# Fincke-Pohst walk in fractions

_HALF = Fraction(1, 2)


def walk_fraction(mu, d, bound):
    """Depth-first enumeration of the nonzero vectors of least form value.

    Some vector must attain the starting bound; the bound then tightens to the
    best value seen, so the vectors kept are exactly those attaining the
    minimum.  Returns (minimum, vectors) in the coordinates of mu and d.
    """
    n = len(d)
    x = [0] * n
    found: list[tuple[int, ...]] = []
    bound = Fraction(bound)

    def descend(j, partial):
        nonlocal bound
        if j < 0:
            if any(x):
                if partial < bound:
                    bound = partial
                    found.clear()
                found.append(tuple(x))
            return
        c = Fraction(0)
        for i in range(j + 1, n):
            if x[i]:
                c += mu[i][j] * x[i]
        start = math.floor(_HALF - c)  # nearest integer to -c
        # upwards from the nearest integer, then downwards from the one below it
        for k, dk in ((start, 1), (start - 1, -1)):
            while True:
                step = d[j] * (k + c) ** 2
                if partial + step > bound:
                    break
                x[j] = k
                descend(j - 1, partial + step)
                k += dk
        x[j] = 0

    descend(n - 1, Fraction(0))
    return bound, found


# ---------------------------------------------------------------------------
# quadratic ideals by scanning every b

def enumerate_ideals_scan(order, norm_bound: int) -> list[tuple[int, int, int]]:
    """Every ideal triple (a, b, g) with a*g <= norm_bound, sorted by
    (norm, a, b, g), from a scan of every b in [0, a) for every a.

    The package's former enumeration, returning plain triples: (a, b) is a
    primitive pair when a | N(b + delta) = b*(b + Tr(delta)) + N(delta), and
    each gives the ideals (g*a, g*b, g) of norm g^2*a for every g with
    g^2*a <= norm_bound.
    """
    tr, nm = order.delta_trace, order.delta_norm
    out = []
    for a in range(1, norm_bound + 1):
        for b in range(a):
            if (b * (b + tr) + nm) % a == 0:
                g = 1
                while g * g * a <= norm_bound:
                    out.append((g * a, g * b, g))
                    g += 1
    out.sort(key=lambda t: (t[0] * t[2], t[0], t[1], t[2]))
    return out


# ---------------------------------------------------------------------------
# survey rows from items and a sort by norm

def classify_items(order, items, maximal: bool):
    """For each item (a, b, gs), a primitive pair from primitive_ideals or the
    (a/g, b/g) of an IdealTriple, yield the row (D, g*a, g*b, g, norm, minimum,
    n_minimal, wr, hexagonal, order_maximal) of g*I, I = (a, b + delta), for
    each g in gs.  I's norm form (c1, c2, c3) is reduced once: that of g*I is
    g^2 times it, and the reduction commutes with scaling, so g*I has the norm
    g^2*a, the minimum g^2*c1, and I's minimal vector count and flags.
    order_maximal is `maximal`, which the caller decides: order.maximal
    factors |D|, and a caller that already knows |D| is squarefree passes True.

    The conjugate of I is (a, b' + delta), b' = (-Tr(delta) - b) mod a, and
    its lattice is I's under an isometry: complex conjugation for D < 0, the
    swap of the two real embeddings for D > 0.  So the two reduced forms
    differ at most in the sign of c2 and share the minimum, the minimal vector
    count and both flags (Buchmann & Vollmer).  The first of a pair to come
    is reduced and its shape kept under its partner's key until the partner
    comes: a shape is reused only for its own conjugate, in any item order.

    Raises InvariantViolation, naming the replay command, if a row's minimum
    breaks its bound, min >= N for D < 0 or min^2 >= 4*N for D > 0 (exact, in
    ints).  Scaling multiplies both sides by g^2 for D < 0, and the minimum
    side by g^4 but the norm side by g^2 for D > 0, so g*I breaks it only if
    I does: with (a, b) ascending and gs from 1 up, the row raised is the
    least (norm, a, b, g) one that breaks it.

    The package's survey classifier until it became one pass over the norms.
    """
    D, tr = order.D, order.delta_trace
    shapes = {}  # (a, b') -> the shape of (a, b), until (a, b') comes
    for a, b, gs in items:
        shape = shapes.pop((a, b), None)
        if shape is None:
            c1, c2, c3 = gauss_reduce(*norm_form(order, a, b, 1))
            # minimal vectors: 6 when c1 = c2 = c3, 4 when c1 = c3, else 2
            wr = c1 == c3
            hexagonal = wr and c1 == c2
            shape = c1, 6 if hexagonal else 4 if wr else 2, wr, hexagonal
            shapes[a, (-tr - b) % a] = shape
        c1, n_minimal, wr, hexagonal = shape
        for g in gs:
            gg = g * g
            minimum, nrm = gg * c1, gg * a
            if not (minimum >= nrm if D < 0 else minimum * minimum >= 4 * nrm):
                raise InvariantViolation(
                    f"minimum bound violated for D={D}, triple=({g * a},{g * b},{g}), "
                    f"min={minimum}, norm={nrm}; replay: wrlat classify -- {D} {g * a} {g * b} {g}"
                )
            yield D, g * a, g * b, g, nrm, minimum, n_minimal, wr, hexagonal, maximal


def survey_rows_by_sort(order, pairs, norm_bound: int, maximal: bool) -> list[tuple]:
    """One radicand's survey rows as the package made them before its one-pass
    classifier: classify_items over the primitive pairs (a, b), ascending,
    each with g = 1..isqrt(norm_bound // a), then a stable sort by norm.
    classify_items yields the rows of one norm N by ascending a = N/g, then
    b, so the sort puts them in (norm, a, b, g) order."""
    items = [(a, b, range(1, math.isqrt(norm_bound // a) + 1)) for a, b in pairs]
    return sorted(classify_items(order, items, maximal), key=operator.itemgetter(4))


# ---------------------------------------------------------------------------
# roots of b^2 + Tr(delta)*b + N(delta) modulo a prime, one Legendre test first

def sqrt_mod_prime_tonelli(n: int, p: int) -> int:
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


def roots_mod_prime_legendre(p: int, tr: int, nm: int, disc: int) -> list[int]:
    """The roots of b^2 + tr*b + nm modulo the prime p; disc = tr^2 - 4*nm.

    The package's former root finder: Euler's criterion decides whether disc
    is a residue, then Tonelli-Shanks searches its own non-residue and takes
    the square root."""
    if p == 2:
        return [b for b in (0, 1) if (b * (b + tr) + nm) % 2 == 0]
    half = (p + 1) // 2  # the inverse of 2 modulo p
    if disc % p == 0:
        return [-tr * half % p]
    if pow(disc, (p - 1) // 2, p) != 1:
        return []
    s = sqrt_mod_prime_tonelli(disc % p, p)
    return [(s - tr) * half % p, (-s - tr) * half % p]


# ---------------------------------------------------------------------------
# survey records rendered through the csv module and Fraction

RECORD_COLUMNS = (
    "D", "a", "b", "g", "norm", "minimum_num", "minimum_den",
    "n_minimal", "wr", "hexagonal", "order_maximal",
)


def render_records_reference(records, fmt: str, summary=None) -> str:
    """The CSV ("csv": header and one line per record), the record lines
    ("text") or the JSON document ("json", with `summary` last) of survey
    records, as the command line's one generic renderer wrote them: each
    record becomes a row in RECORD_COLUMNS order, the csv module writes the
    rows with booleans mapped cell by cell, a text line prints the minimum as
    Fraction(minimum_num, minimum_den), and json.dumps indents a dict per row."""
    rows = [(*r[:5], r.minimum.numerator, r.minimum.denominator, *r[6:]) for r in records]
    if fmt == "json":
        obj = {"records": [dict(zip(RECORD_COLUMNS, row)) for row in rows], "summary": summary}
        return json.dumps(obj, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RECORD_COLUMNS)
        writer.writerows(
            [("true" if v else "false") if v.__class__ is bool else v for v in row] for row in rows
        )
        return buf.getvalue()

    def yn(flag):
        return "yes" if flag else "no"

    return "".join(
        f"D={D} (a,b,g)=({a},{b},{g}) norm={norm} min={Fraction(num, den)} "
        f"nmin={n_minimal} wr={yn(wr)} hex={yn(hexagonal)} maximal={yn(maximal)}\n"
        for D, a, b, g, norm, num, den, n_minimal, wr, hexagonal, maximal in rows
    )


# ---------------------------------------------------------------------------
# lattice index by literal coset counting

def coset_index(a: int, b: int, g: int) -> int:
    """|Z^2 / L| for L = Z(a,0) + Z(b,g), counting lattice points in a period box.

    L contains ag*Z^2, so the index is (ag)^2 divided by the number of points
    of L inside [0, ag) x [0, ag).
    """
    period = a * g
    count = 0
    for n in range(period // g):
        x0 = n * b
        lo = -(x0 // a)
        for m in range(lo - 1, lo + g + 2):
            if 0 <= m * a + x0 < period:
                count += 1
    assert count and period * period % count == 0
    return period * period // count


# ---------------------------------------------------------------------------
# cyclotomic oracles

def poly_mul_int(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def poly_divmod_int(num, den):
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


@functools.cache
def moebius_cyclo_poly(k: int) -> tuple[int, ...]:
    """Phi_k exactly, via the product formula over (x^d - 1)^mu(k/d)."""
    num = [1]
    den = [1]
    for d in range(1, k + 1):
        if k % d:
            continue
        mu = mobius_by_factorization(k // d)
        f = [-1] + [0] * (d - 1) + [1]
        if mu == 1:
            num = poly_mul_int(num, f)
        elif mu == -1:
            den = poly_mul_int(den, f)
    q, r = poly_divmod_int(num, den)
    assert not any(r)
    return tuple(q)


def reduce_cyclo(k: int, coeffs) -> tuple[int, ...]:
    """Power-basis coordinates of sum coeffs[i] * zeta_k^i: the remainder of
    long division by Phi_k, padded to phi(k) entries."""
    poly = moebius_cyclo_poly(k)
    _, rem = poly_divmod_int(coeffs, poly)
    return tuple(rem) + (0,) * (len(poly) - 1 - len(rem))


def zeta_on_basis(k: int, exponents):
    """The integer matrix of multiplication by zeta_k on the basis
    zeta_k^e, e in ``exponents``, as rows: column i solves P c = zeta^(e_i + 1)
    exactly, P the matrix whose columns are the power-basis coordinates of
    the basis.  Fails unless the basis is a Z-basis of Z[zeta_k]."""
    n = len(exponents)
    cols = [reduce_cyclo(k, [0] * e + [1]) for e in exponents]
    images = [reduce_cyclo(k, [0] * (e + 1) + [1]) for e in exponents]
    # Gauss-Jordan on [P | images] in fractions
    aug = [[Fraction(cols[c][r]) for c in range(n)] + [Fraction(v[r]) for v in images] for r in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    assert all(v.denominator == 1 for row in aug for v in row[n:]), "not a Z-basis"
    return tuple(tuple(int(v) for v in row[n:]) for row in aug)


def newton_power_sums(poly, count: int) -> list[int]:
    """Power sums p_1..p_count of the roots of a monic integer polynomial.

    poly is low-degree-first with leading coefficient 1; Newton's identities
    give every p_m as an integer combination of earlier ones.
    """
    n = len(poly) - 1
    assert poly[n] == 1
    # e[i] = i-th elementary symmetric function of the roots
    e = [(-1) ** i * poly[n - i] for i in range(n + 1)]
    p = [n]  # p_0
    for m in range(1, count + 1):
        s = 0
        for i in range(1, min(m - 1, n) + 1):
            s += (-1) ** (i - 1) * e[i] * p[m - i]
        if m <= n:
            s += (-1) ** (m - 1) * m * e[m]
        p.append(s)
    return p[1:]


def newton_trace_table(k: int) -> tuple[int, ...]:
    """Tr(zeta_k^j) for 0 <= j < k from power sums of the roots of Phi_k."""
    poly = moebius_cyclo_poly(k)
    phi = len(poly) - 1
    if k == 1:
        return (1,)
    sums = newton_power_sums(poly, k - 1)
    return (phi, *sums)


def gram_by_products(F, coeffs):
    """Gram entries of the ideal lattice of x = sum coeffs[i] * zeta^i, basis
    x*zeta^i, with one element product per entry: (i, j) is
    Tr(x*zeta^i * conj(x*zeta^j)) / 2.

    Uses only the plain data of the field (k, phi, trace table) and the
    coefficients of x; products are reduced mod Phi_k here (reduce_cyclo).
    """
    k, phi, table = F.k, F.phi, F.trace_table

    def conj(c):
        acc = [0] * k
        for i, v in enumerate(c):
            acc[(k - i) % k] += v
        return reduce_cyclo(k, acc)

    us = [reduce_cyclo(k, coeffs)]
    for _ in range(phi - 1):
        us.append(reduce_cyclo(k, (0, *us[-1])))
    vs = [conj(u) for u in us]
    rows = [[Fraction(0)] * phi for _ in range(phi)]
    for i in range(phi):
        for j in range(i + 1):
            prod = reduce_cyclo(k, poly_mul_int(us[i], vs[j]))
            rows[i][j] = rows[j][i] = Fraction(sum(c * t for c, t in zip(prod, table)), 2)
    return tuple(map(tuple, rows))


def gram_value(rows, c) -> int:
    """c^T A c for an integer matrix A, given by its rows, and an integer vector c."""
    return sum(ci * sum(map(operator.mul, row, c)) for ci, row in zip(c, rows) if ci)


def rotation_spot_check(rows, zeta, rng, trials):
    """The first of ``trials`` random vectors w, coordinates in [-9, 9], whose
    length under the form ``rows`` changes when w is multiplied by zeta, whose
    matrix on the same basis is ``zeta`` (rows, see zeta_on_basis), as a
    list, or None when every trial keeps its length.

    The package's former rotation check, replaced by the exact Z^T G Z = G.
    """
    for _ in range(trials):
        w = [rng.randint(-9, 9) for _ in range(len(rows))]
        if gram_value(rows, [sum(map(operator.mul, row, w)) for row in zeta]) != gram_value(rows, w):
            return w
    return None


def numeric_trace(k: int, coeffs) -> float:
    """Float trace by summing the element over all primitive embeddings."""
    total = 0j
    for m in range(1, k + 1):
        if math.gcd(m, k) != 1:
            continue
        z = np.exp(2j * np.pi * m / k)
        total += sum(c * z**i for i, c in enumerate(coeffs))
    return total.real


def numeric_gram(k: int, coeffs):
    """Float Gram matrix of the ideal lattice of x = sum coeffs[i] zeta^i.

    Works directly with the complex embeddings: row i is the embedding image
    of x*zeta^i, and the real inner product of two complex tuples u, v is
    Re(sum u conj(v)).  Half of the embeddings (one per conjugate pair) with
    doubled weight gives the same value.
    """
    phi = phi_by_count(k)
    prim = [m for m in range(1, k + 1) if math.gcd(m, k) == 1]
    zs = [np.exp(2j * np.pi * m / k) for m in prim]
    emb = []
    for i in range(phi):
        emb.append([sum(c * z ** (j + i) for j, c in enumerate(coeffs)) for z in zs])
    G = np.zeros((phi, phi))
    for i in range(phi):
        for j in range(phi):
            G[i, j] = sum(u * np.conj(v) for u, v in zip(emb[i], emb[j])).real / 2
    return G


# ---------------------------------------------------------------------------
# float embedding of quadratic ideals

def numeric_quad_gram(D: int, half: bool, a: int, b: int, g: int):
    """Float Gram of the embedded ideal basis {a, b + g*delta}."""
    if D < 0:
        delta = complex(0.5, -0.5 * math.sqrt(-D)) if half else complex(0, -math.sqrt(-D))
        basis = [complex(a, 0), b + g * delta]
        G = np.zeros((2, 2))
        for i in range(2):
            for j in range(2):
                G[i, j] = (basis[i] * basis[j].conjugate()).real
        return G
    root = math.sqrt(D)
    d1 = (1 - root) / 2 if half else -root
    d2 = (1 + root) / 2 if half else root
    basis = [(a, a), (b + g * d1, b + g * d2)]
    G = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            G[i, j] = basis[i][0] * basis[j][0] + basis[i][1] * basis[j][1]
    return G
