"""Independent reference implementations used only by the tests.

Everything here favors obviousness over speed: brute-force boxes, plain trial
division, Newton's identities, literal coset counting.  The package must agree
with these on every tested input; nothing in here imports package internals
beyond plain data.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np


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
# brute-force minima

def min_bound_holds(rec) -> bool:
    """The minimum bound read off a survey record: min >= N(I) for D < 0,
    min^2 >= 4 N(I) for D > 0."""
    if rec.D < 0:
        return rec.minimum >= rec.norm
    return rec.minimum * rec.minimum >= 4 * rec.norm


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


def lll_rebuild(entries):
    """LLL (delta = 3/4) on a Gram matrix, recomputing mu and d by a full LDL
    after every size reduction and swap.

    Returns (reduced entries, U) with the conventions of ``svp.lll_reduce``:
    reduced = U^T G U.
    """
    n = len(entries)
    g = [list(row) for row in entries]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        mu, d = ldl_factor(g)
        k = 1
        while k < n:
            for j in range(k - 1, -1, -1):
                q = math.floor(mu[k][j] + Fraction(1, 2))
                if q:
                    for col in range(n):
                        g[k][col] -= q * g[j][col]
                    for row in range(n):
                        g[row][k] -= q * g[row][j]
                    t[k] = [t[k][i] - q * t[j][i] for i in range(n)]
                    mu, d = ldl_factor(g)
            if d[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * d[k - 1]:
                k += 1
            else:
                g[k - 1], g[k] = g[k], g[k - 1]
                for row in g:
                    row[k - 1], row[k] = row[k], row[k - 1]
                t[k - 1], t[k] = t[k], t[k - 1]
                mu, d = ldl_factor(g)
                k = max(k - 1, 1)
    u = tuple(tuple(t[i][r] for i in range(n)) for r in range(n))
    return tuple(tuple(row) for row in g), u


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

def numeric_cyclo_poly(k: int) -> tuple[int, ...]:
    """Coefficients of Phi_k (low degree first) from its complex roots.

    Float rounding limits this to moderate k; the Moebius-formula oracle below
    covers the full test range exactly.
    """
    roots = [np.exp(2j * np.pi * m / k) for m in range(1, k + 1) if math.gcd(m, k) == 1]
    coeffs = np.poly(roots)
    out = []
    for c in coeffs:
        r = round(c.real)
        assert abs(c - r) < 1e-6, f"rounding failed for k={k}"
        out.append(int(r))
    out.reverse()
    return tuple(out)


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


def gram_by_products(F, x):
    """Gram entries of the ideal lattice of x, basis x*zeta^i, with one element
    product per entry: (i, j) is Tr(x*zeta^i * conj(x*zeta^j)) / 2.

    Uses only the plain data of the field (k, phi, poly, trace table) and the
    coefficients of x; products are reduced mod the polynomial here.
    """
    k, phi, poly, table = F.k, F.phi, list(F.poly), F.trace_table

    def reduce(coeffs):
        _, rem = poly_divmod_int(coeffs, poly)
        return rem + [0] * (phi - len(rem))

    def conj(c):
        acc = [0] * k
        for i, v in enumerate(c):
            acc[(k - i) % k] += v
        return reduce(acc)

    us = [reduce(list(x.coeffs))]
    for _ in range(phi - 1):
        us.append(reduce([0] + us[-1]))
    vs = [conj(u) for u in us]
    rows = [[Fraction(0)] * phi for _ in range(phi)]
    for i in range(phi):
        for j in range(i + 1):
            prod = reduce(poly_mul_int(us[i], vs[j]))
            rows[i][j] = rows[j][i] = Fraction(sum(c * t for c, t in zip(prod, table)), 2)
    return tuple(map(tuple, rows))


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
