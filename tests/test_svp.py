import math
import random
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wrlat import cyclo, svp
from wrlat.arith import QuadOrder
from wrlat.cyclo import cyclo_field, gram_principal
from wrlat.ideals import IdealTriple, enumerate_ideals
from wrlat.planar import form_from_ideal
from wrlat.svp import (
    MAX_ENUM_DIM,
    GramMatrix,
    enumerate_shortest,
    lll_reduce,
)
from oracles import (
    apply_by_rows,
    box_gram_minimum,
    box_gram_within,
    fraction_gram_schmidt,
    gram_from_rows,
    ldl_factor,
    lll_fraction,
    lll_rebuild,
    phi_by_factorization,
    rational_entries,
    span_rank_fraction,
    transform_gram,
    walk_fraction,
)
from records import classify_one


def identity_gram(n):
    return GramMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def random_gram(rng, n, spread=4):
    """B^T B for a random integer matrix B with nonzero determinant."""
    while True:
        B = [[rng.randint(-spread, spread) for _ in range(n)] for _ in range(n)]
        # exact determinant by fraction-free expansion is overkill; LDL in the
        # GramMatrix constructor rejects singular products, so just try it
        G = [[sum(B[k][i] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        try:
            return GramMatrix(tuple(tuple(row) for row in G))
        except ValueError:
            continue


# ---------------------------------------------------------------------------
# construction

def test_gram_guards():
    with pytest.raises(ValueError, match="non-empty"):
        GramMatrix(())
    with pytest.raises(ValueError, match="square"):
        GramMatrix(((1, 0),))
    with pytest.raises(ValueError, match="symmetric"):
        GramMatrix(((1, 2), (0, 1)))
    with pytest.raises(ValueError, match="positive definite"):
        GramMatrix(((1, 2), (2, 1)))
    with pytest.raises(ValueError, match="positive definite"):
        GramMatrix(((0, 0), (0, 1)))


def test_gram_is_a_frozen_value():
    # rows are stored as tuples
    G = GramMatrix([[2, 1], [1, 2]])
    assert G.rows == ((2, 1), (1, 2)) and G.ldl == (((), (1,)), (1, 2, 3))
    with pytest.raises(AttributeError, match="^cannot assign to field 'ldl'$"):
        G.ldl = None


def test_dimension_guard():
    G = identity_gram(MAX_ENUM_DIM + 1)
    with pytest.raises(ValueError, match="enumeration guard"):
        enumerate_shortest(G)
    # at the guard itself enumeration runs: the minimal vectors of Z^n are the
    # 2n signed unit vectors
    rep = enumerate_shortest(identity_gram(MAX_ENUM_DIM))
    assert rep.minimum == 1 and len(rep.vectors) == 2 * MAX_ENUM_DIM
    assert rep.span_rank == MAX_ENUM_DIM


# ---------------------------------------------------------------------------
# reduction

def test_lll_identity_fixed_point():
    G = identity_gram(5)
    _, _, u = lll_reduce(G)
    assert transform_gram(G.rows, u) == G.rows
    assert u == tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def test_lll_examples():
    G = GramMatrix(((15, 10), (10, 15)))
    red = transform_gram(rational_entries(G), lll_reduce(G)[2])
    assert red[0][0] < 15
    # power-basis Gram of the fifth cyclotomic field: diagonal cannot drop
    # below the lattice minimum 2 (half the trace form)
    F = cyclo_field(5)
    G = gram_principal(F, [1], range(F.phi))
    red = transform_gram(rational_entries(G, 2), lll_reduce(G)[2])
    assert all(red[i][i] >= 2 for i in range(G.n))


def test_lll_transform_soundness():
    rng = random.Random(321)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            G = random_gram(rng, n)
            lam, d, u = lll_reduce(G)
            assert fraction_gram_schmidt(lam, d) == ldl_factor(transform_gram(G.rows, u))
            # integer unimodular: check det via row reduction over fractions
            m = [[Fraction(u[i][j]) for j in range(n)] for i in range(n)]
            det = Fraction(1)
            for c in range(n):
                piv = next(r for r in range(c, n) if m[r][c])
                if piv != c:
                    m[c], m[piv] = m[piv], m[c]
                    det = -det
                det *= m[c][c]
                for r in range(c + 1, n):
                    f = m[r][c] / m[c][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
            assert det in (1, -1)


def _lll_inputs():
    """Full rings with phi(k) <= 24, seeded principal ideals of the sizes the
    benchmark uses, and seeded random Gram matrices for n = 2..8, each as
    (label, G, s) with G the integer matrix s times a rational one: the trace
    forms with s = 2, so that G/s is the Minkowski Gram matrix."""
    for k in range(3, 91):
        if phi_by_factorization(k) <= 24:
            F = cyclo_field(k)
            yield f"ring k={k}", gram_principal(F, [1], range(F.phi)), 2
    rng = random.Random(0)
    for k in (13, 17, 19, 21, 25, 27, 28, 32, 36, 40, 44, 48, 60):
        F = cyclo_field(k)
        coeffs = [0]
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in range(F.phi)]
        yield f"ideal k={k} {coeffs}", gram_principal(F, coeffs, range(F.phi)), 2
    rng = random.Random(2024)
    for n in range(2, 9):
        for i in range(4):
            yield f"random n={n} #{i}", random_gram(rng, n), 1


def _is_integral_pair(lam, d, n):
    """lam has rows of length 0..n-1, d has n+1 entries from d[0] = 1, all ints."""
    return (
        [len(row) for row in lam] == list(range(n))
        and len(d) == n + 1
        and d[0] == 1
        and all(type(x) is int for x in chain(d, *lam))
    )


def test_lll_matches_rebuilding_oracle():
    """In-place integral Gram-Schmidt updates give exactly the reduction that
    a full LDL after every step gives, and the lam and d stored and returned
    are the LDL of the matrix and of the reduced matrix, as mu_ij =
    lam_ij/d[j+1] and squared lengths d[j+1]/(d[j]*s)."""
    for label, G, s in _lll_inputs():
        assert _is_integral_pair(*G.ldl, G.n), label
        assert fraction_gram_schmidt(*G.ldl, s) == ldl_factor(rational_entries(G, s)), label
        lam, d, u = lll_reduce(G)
        red = transform_gram(rational_entries(G, s), u)
        assert (red, u) == lll_rebuild(rational_entries(G, s)), label
        assert _is_integral_pair(lam, d, G.n), label
        assert fraction_gram_schmidt(lam, d, s) == ldl_factor(red), label


def test_lll_conditions():
    """The returned lam and d are size reduced, |2 lam_kj| <= d[j+1], and
    satisfy the Lovasz condition with delta = 99/100 in its integer form
    100 d[k+1] d[k-1] >= 99 d[k]^2 - 100 lam_k,k-1^2, checked directly rather
    than against an oracle."""
    for label, G, _ in _lll_inputs():
        lam, d, _ = lll_reduce(G)
        for i in range(G.n):
            assert all(abs(2 * lam[i][j]) <= d[j + 1] for j in range(i)), label
        for k in range(1, G.n):
            m = lam[k][k - 1]
            assert 100 * d[k + 1] * d[k - 1] >= 99 * d[k] ** 2 - 100 * m * m, label


def test_integer_lll_matches_fraction_lll():
    """The integer LLL makes the decisions of the LLL in fractions: the same
    U, mu_ij = lam_ij/d[j+1] and Gram-Schmidt lengths d[j+1]/d[j] of sG, on
    the LLL inputs and on random Gram matrices scaled by 1, 1/7 and 3/2."""
    for label, G, s in chain(_lll_inputs(), _scaled_random_inputs()):
        lam, d, u = lll_reduce(G)
        mu, lengths, want_u = lll_fraction(rational_entries(G, s))
        assert u == want_u, label
        assert _is_integral_pair(lam, d, G.n), label
        for i in range(G.n):
            assert all(Fraction(lam[i][j], d[j + 1]) == mu[i][j] for j in range(i)), label
        assert [Fraction(d[j + 1], d[j]) for j in range(G.n)] == [
            s * x for x in lengths
        ], label


def test_lll_rounds_exact_ties_upwards():
    """mu = +1/2 and -1/2 exactly round as floor(mu + 1/2), to 1 and 0, in
    the last column and at j < k-1, as in the rebuilding oracle; skipping
    every |mu| <= 1/2 would leave the +1/2 ties unreduced and change U."""
    half = Fraction(1, 2)
    cases = (
        (((2, 1), (1, 2)), {(1, 0): half}),
        (((2, -1), (-1, 2)), {(1, 0): -half}),
        (((1, half), (half, 1)), {(1, 0): half}),
        (((2, 0, 1), (0, 2, 0), (1, 0, 2)), {(1, 0): 0, (2, 1): 0, (2, 0): half}),
        (((2, 0, -1), (0, 2, 0), (-1, 0, 2)), {(1, 0): 0, (2, 1): 0, (2, 0): -half}),
    )
    for entries, ties in cases:
        G, s = gram_from_rows(entries)
        mu = fraction_gram_schmidt(*G.ldl, s)[0]
        assert {ij: mu[ij[0]][ij[1]] for ij in ties} == ties, entries
        u = lll_reduce(G)[2]
        assert (transform_gram(rational_entries(G, s), u), u) == lll_rebuild(entries), entries


def test_enumeration_reuses_stored_ldl(monkeypatch):
    F = cyclo_field(12)
    G = gram_principal(F, [1, 2, 0, -1], range(F.phi))
    assert fraction_gram_schmidt(*G.ldl) == ldl_factor(G.rows)
    calls = []
    real_ldl = svp._ldl

    def counting_ldl(g):
        calls.append(len(g))
        return real_ldl(g)

    monkeypatch.setattr(svp, "_ldl", counting_ldl)
    rep = enumerate_shortest(G)
    assert calls == []
    assert list(rep.vectors) == box_gram_within(G.rows, rep.minimum)
    assert GramMatrix(G.rows).ldl == G.ldl
    assert calls == [F.phi]


# ---------------------------------------------------------------------------
# enumeration

def _scaled_random_inputs():
    """Seeded random Gram matrices for n = 1..8 scaled by 1, 1/7 and 3/2, so
    that mu, d and the bound have denominators beyond those of the Gram matrix
    itself, as (label, G, s) from gram_from_rows."""
    rng = random.Random(7007)
    for n in range(1, 9):
        for i in range(3):
            G = random_gram(rng, n)
            for s in (1, Fraction(1, 7), Fraction(3, 2)):
                rows = tuple(tuple(s * e for e in row) for row in G.rows)
                yield f"random n={n} #{i} x{s}", *gram_from_rows(rows)


def _walk_inputs():
    """The rings and principal ideals of _lll_inputs, and the scaled random
    Gram matrices."""
    for label, G, s in _lll_inputs():
        if not label.startswith("random"):
            yield label, G, s
    yield from _scaled_random_inputs()


def test_walk_matches_fraction_oracle(monkeypatch):
    """The integer walk keeps the vectors of the walk in fractions whose last
    nonzero coordinate is positive, in the same order, one of each +- pair,
    and their closure under negation is the fraction walk's whole list, on
    the LDL factors of the reduced matrix that enumeration gives it as
    (lam, d) and from the smallest diagonal entry of the reduced matrix.
    With g_j the gcd of d[j+1] and column j of lam, its weights
    E_j = Q g_j^2/(d[j] d[j+1]) are integers and reproduce that diagonal as
    sum_j (lam_ij/g_j)^2 E_j with lam_ii = d[i+1]; Q divides the
    lcm_j(d[j] d[j+1]) of the walk without the gcds.  The minimum is the
    integer best/Q, s times the minimum of the walk in fractions on G/s."""
    walks = []
    real_walk = svp._walk

    def recording_walk(lam, d):
        walks.append((lam, d, real_walk(lam, d)))
        return walks[-1][-1]

    monkeypatch.setattr(svp, "_walk", recording_walk)
    fractional_bounds = 0
    for label, G, s in _walk_inputs():
        rep = enumerate_shortest(G)
        [(lam, d, (best, q, vectors))] = walks
        walks.clear()
        red = transform_gram(rational_entries(G, s), lll_reduce(G)[2])
        mu, lengths = fraction_gram_schmidt(lam, d, s)
        assert (mu, lengths) == ldl_factor(red), label
        gcds = [math.gcd(d[j + 1], *(row[j] for row in lam[j + 1:])) for j in range(G.n)]
        weight = [Fraction(q * g * g, a * b) for g, a, b in zip(gcds, d, d[1:])]
        assert all(e.denominator == 1 for e in weight), label
        assert math.lcm(*(a * b for a, b in zip(d, d[1:]))) % q == 0, label
        diagonal = [
            sum(Fraction(m, g) ** 2 * e for m, g, e in zip(list(row) + [d[i + 1]], gcds, weight))
            for i, row in enumerate(lam)
        ]
        assert diagonal == [q * s * red[i][i] for i in range(G.n)], label
        bound = min(red[i][i] for i in range(G.n))
        fractional_bounds += Fraction(bound).denominator > 1
        want_minimum, want_vectors = walk_fraction(mu, lengths, bound)
        assert Fraction(best, q) == rep.minimum == s * want_minimum, label
        assert type(rep.minimum) is int, label
        assert vectors == [v for v in want_vectors if _last_nonzero(v) > 0], label
        assert set(vectors) | {_negated(v) for v in vectors} == set(want_vectors), label
    assert fractional_bounds


def _last_nonzero(v):
    return next(c for c in reversed(v) if c)


def _negated(v):
    return tuple(-c for c in v)


def test_enumeration_closes_the_half_walk_under_negation():
    """enumerate_shortest returns sorted, distinct vectors, closed under
    negation, and the rank that full elimination over Q gives on all of them,
    though it ranks only the half the walk found."""
    for label, G, _ in _lll_inputs():
        rep = enumerate_shortest(G)
        assert list(rep.vectors) == sorted(set(rep.vectors)), label
        assert {_negated(v) for v in rep.vectors} == set(rep.vectors), label
        assert rep.span_rank == span_rank_fraction(rep.vectors), label


def _map_back_inputs():
    """The 51 rings in the powerful basis that verify_cyclotomic_theorem
    checks, the 13 principal ideals of _lll_inputs and the three hard
    principal ideals of Z[zeta_35]."""
    for k in range(3, 91):
        if phi_by_factorization(k) <= 24:
            F = cyclo_field(k)
            yield f"ring k={k}", gram_principal(F, [1], cyclo._powerful_basis(F)[0])
    for label, G, _ in _lll_inputs():
        if label.startswith("ideal"):
            yield label, G
    F = cyclo_field(35)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        yield f"zeta_35 seed {seed}", gram_principal(F, [rng.randint(-3, 3) for _ in range(F.phi)], range(F.phi))


def _sparse_map_back_agrees(G):
    """The walk's vectors mapped through U by their nonzero coordinates equal,
    in the same order, the former pass over the rows of U."""
    lam, d, u = lll_reduce(G)
    half = svp._walk(lam, d)[2]
    return svp._apply(u, half) == apply_by_rows(u, half)


def test_sparse_map_back_matches_row_oracle():
    inputs = list(_map_back_inputs())
    assert len(inputs) == 51 + 13 + 3
    for label, G in inputs:
        assert _sparse_map_back_agrees(G), label


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_sparse_map_back_matches_row_oracle_on_drawn_grams(b):
    n = len(b)
    rows = tuple(tuple(sum(b[r][i] * b[r][j] for r in range(n)) for j in range(n)) for i in range(n))
    try:
        G = GramMatrix(rows)
    except ValueError:  # B is singular
        assume(False)
    assert _sparse_map_back_agrees(G)


def test_enumerate_identity():
    rep = enumerate_shortest(identity_gram(4))
    assert rep.minimum == 1
    assert len(rep.vectors) == 8
    assert rep.span_rank == 4


def test_enumerate_simple_cases():
    rep = enumerate_shortest(GramMatrix(((1, 0), (0, 2))))
    assert rep.minimum == 1 and set(rep.vectors) == {(1, 0), (-1, 0)}
    assert rep.span_rank == 1
    # hexagonal plane
    rep = enumerate_shortest(GramMatrix(((2, 1), (1, 2))))
    assert rep.minimum == 2 and len(rep.vectors) == 6 and rep.span_rank == 2


def test_enumerate_cyclotomic_examples():
    F = cyclo_field(5)
    rep = enumerate_shortest(gram_principal(F, [1], range(F.phi)))
    # the trace-form minimum, twice the Minkowski minimum phi/2 = 2
    assert rep.minimum == 4 and len(rep.vectors) == 10 and rep.span_rank == 4
    F = cyclo_field(8)
    G = gram_principal(F, [1], range(F.phi))
    assert enumerate_shortest(G).span_rank == G.n


def test_enumerate_planar_agreement():
    rng = random.Random(808)
    pool = []
    for D in (-15, -5, -3, 2, 3, 21, 165):
        o = QuadOrder(D)
        pool.extend(IdealTriple(a, b, g, o) for a, b, g in enumerate_ideals(o, 40))
    # the survey reads the minimum and the vector count off the reduced form;
    # the walk on the doubled Gram matrix finds twice that minimum
    for t in rng.sample(pool, 60):
        c1, c2, c3 = form_from_ideal(t)
        rec = classify_one(t.order, t.a, t.b, t.g)
        minimum, n_minimal = rec.minimum, rec.n_minimal
        rep = enumerate_shortest(GramMatrix(((2 * c1, c2), (c2, 2 * c3))))
        assert rep.minimum == 2 * minimum
        assert len(rep.vectors) == n_minimal


def test_enumerate_matches_box_oracle():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(15):
            G = random_gram(rng, n, spread=3)
            rep = enumerate_shortest(G)
            # oracle works in the reduced basis where a small box suffices
            u = lll_reduce(G)[2]
            omin, ovecs = box_gram_minimum(transform_gram(rational_entries(G), u), 6)
            assert rep.minimum == omin
            mapped = sorted(
                tuple(sum(u[r][c] * w[c] for c in range(n)) for r in range(n)) for w in ovecs
            )
            assert sorted(rep.vectors) == mapped


def test_vectors_attain_minimum_in_original_gram():
    rng = random.Random(5050)
    for n in (2, 3, 4, 5, 6):
        G = random_gram(rng, n)
        rep = enumerate_shortest(G)
        got = set(rep.vectors)
        for v in rep.vectors:
            q = sum(G.rows[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
            assert q == rep.minimum
            assert tuple(-c for c in v) in got


def test_span_rank_matches_fraction_oracle():
    """The integer echelon gives the rank of full Gaussian elimination over Q,
    on the minimal vectors of every LLL input and on rank-deficient sets."""
    for label, G, _ in _lll_inputs():
        vecs = enumerate_shortest(G).vectors
        assert svp._span_rank(vecs) == span_rank_fraction(vecs), label
    rng = random.Random(99)
    for _ in range(200):
        n, rank, count = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 12)
        basis = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rank)]
        vecs = [
            tuple(sum(rng.randint(-3, 3) * row[i] for row in basis) for i in range(n))
            for _ in range(count)
        ]
        assert svp._span_rank(vecs) == span_rank_fraction(vecs), vecs


def test_enumerate_within_consistency():
    rng = random.Random(42)
    for _ in range(10):
        G = random_gram(rng, 3)
        rep = enumerate_shortest(G)
        at_min = box_gram_within(G.rows, rep.minimum)
        assert sorted(rep.vectors) == at_min
        assert box_gram_within(G.rows, rep.minimum - Fraction(1, 2)) == []
        larger = box_gram_within(G.rows, rep.minimum + 5)
        assert set(at_min) <= set(larger)
