import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrlat import svp
from wrlat.arith import QuadOrder, euler_phi
from wrlat.cyclo import cyclo_field, element, gram_principal
from wrlat.ideals import IdealTriple, enumerate_ideals
from wrlat.planar import form_from_ideal, minimal_vectors
from wrlat.svp import (
    MAX_ENUM_DIM,
    GramMatrix,
    enumerate_shortest,
    lll_reduce,
)
from oracles import (
    box_gram_minimum,
    box_gram_within,
    ldl_factor,
    lll_rebuild,
    span_rank_fraction,
    transform_gram,
    walk_fraction,
)


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
    assert transform_gram(G.entries, u) == G.entries
    assert u == tuple(tuple(int(i == j) for j in range(5)) for i in range(5))


def test_lll_examples():
    G = GramMatrix(((15, 10), (10, 15)))
    red = transform_gram(G.entries, lll_reduce(G)[2])
    assert red[0][0] < 15
    # power-basis Gram of the fifth cyclotomic field: diagonal cannot drop
    # below the lattice minimum 2
    G = gram_principal(cyclo_field(5), element(cyclo_field(5), [1]))
    red = transform_gram(G.entries, lll_reduce(G)[2])
    assert all(red[i][i] >= 2 for i in range(G.n))


def test_lll_transform_soundness():
    rng = random.Random(321)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            G = random_gram(rng, n)
            mu, d, u = lll_reduce(G)
            assert (mu, d) == ldl_factor(transform_gram(G.entries, u))
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
    benchmark uses, and seeded random Gram matrices for n = 2..8."""
    for k in range(3, 91):
        if euler_phi(k) <= 24:
            F = cyclo_field(k)
            yield f"ring k={k}", gram_principal(F, element(F, [1]))
    rng = random.Random(0)
    for k in (13, 17, 19, 21, 25, 27, 28, 32, 36, 40, 44, 48, 60):
        F = cyclo_field(k)
        coeffs = [0]
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in range(F.phi)]
        yield f"ideal k={k} {coeffs}", gram_principal(F, element(F, coeffs))
    rng = random.Random(2024)
    for n in range(2, 9):
        for i in range(4):
            yield f"random n={n} #{i}", random_gram(rng, n)


def test_lll_matches_rebuilding_oracle():
    """In-place Gram-Schmidt updates give exactly the reduction that a full
    LDL after every step gives, and the mu and d returned are the LDL of the
    reduced matrix."""
    for label, G in _lll_inputs():
        L, d = ldl_factor(G.entries)
        assert G.ldl == (tuple(map(tuple, L)), tuple(d)), label
        mu, d, u = lll_reduce(G)
        red = transform_gram(G.entries, u)
        assert (red, u) == lll_rebuild(G.entries), label
        assert (mu, d) == ldl_factor(red), label


def test_lll_conditions():
    """The returned mu and d are size reduced and satisfy the Lovasz condition
    with delta = 3/4, checked directly rather than against an oracle."""
    for label, G in _lll_inputs():
        mu, d, _ = lll_reduce(G)
        for i in range(G.n):
            assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i)), label
        for k in range(1, G.n):
            assert d[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * d[k - 1], label


def test_enumeration_reuses_stored_ldl(monkeypatch):
    F = cyclo_field(12)
    G = gram_principal(F, element(F, [1, 2, 0, -1]))
    calls = []
    real_ldl = svp._ldl

    def counting_ldl(g):
        calls.append(len(g))
        return real_ldl(g)

    monkeypatch.setattr(svp, "_ldl", counting_ldl)
    rep = enumerate_shortest(G)
    assert calls == []
    assert list(rep.vectors) == box_gram_within(G.entries, rep.minimum)
    assert GramMatrix(G.entries).ldl == G.ldl
    assert calls == [F.phi]


# ---------------------------------------------------------------------------
# enumeration

def _walk_inputs():
    """The rings and principal ideals of _lll_inputs, and seeded random Gram
    matrices for n = 1..8 scaled by 1, 1/7 and 3/2, so that mu, d and the
    bound have denominators beyond those of the Gram matrix itself."""
    for label, G in _lll_inputs():
        if not label.startswith("random"):
            yield label, G
    rng = random.Random(7007)
    for n in range(1, 9):
        for i in range(3):
            G = random_gram(rng, n)
            for s in (1, Fraction(1, 7), Fraction(3, 2)):
                rows = tuple(tuple(s * e for e in row) for row in G.entries)
                yield f"random n={n} #{i} x{s}", GramMatrix(rows)


def test_walk_matches_fraction_oracle(monkeypatch):
    """The integer walk visits the same vectors in the same order as the walk
    in fractions, on the mu, d and starting bound that enumeration gives it:
    the LDL factors and the smallest diagonal entry of the reduced matrix."""
    walks = []
    real_walk = svp._walk

    def recording_walk(mu, d, bound):
        walks.append((mu, d, bound, real_walk(mu, d, bound)))
        return walks[-1][-1]

    monkeypatch.setattr(svp, "_walk", recording_walk)
    fractional_bounds = 0
    for label, G in _walk_inputs():
        enumerate_shortest(G)
        [(mu, d, bound, (minimum, vectors))] = walks
        walks.clear()
        red = transform_gram(G.entries, lll_reduce(G)[2])
        assert (mu, d) == ldl_factor(red), label
        assert bound == min(red[i][i] for i in range(G.n)), label
        fractional_bounds += Fraction(bound).denominator > 1
        want_minimum, want_vectors = walk_fraction(mu, d, bound)
        assert minimum == want_minimum, label
        assert type(minimum) is type(want_minimum) is Fraction, label
        assert vectors == want_vectors, label
    assert fractional_bounds


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
    rep = enumerate_shortest(gram_principal(F, element(F, [1])))
    assert rep.minimum == 2 and len(rep.vectors) == 10 and rep.span_rank == 4
    F = cyclo_field(8)
    G = gram_principal(F, element(F, [1]))
    assert enumerate_shortest(G).span_rank == G.n


def test_enumerate_planar_agreement():
    rng = random.Random(808)
    pool = []
    for D in (-15, -5, -3, 2, 3, 21, 165):
        o = QuadOrder(D)
        pool.extend(IdealTriple(a, b, g, o) for a, b, g in enumerate_ideals(o, 40))
    for t in rng.sample(pool, 60):
        f = form_from_ideal(t)
        ms = minimal_vectors(f)
        h = Fraction(f.c2, 2)
        rep = enumerate_shortest(GramMatrix(((f.c1, h), (h, f.c3))))
        assert rep.minimum == ms.minimum
        assert sorted(rep.vectors) == sorted(ms.vectors)


def test_enumerate_matches_box_oracle():
    rng = random.Random(11)
    for n in (2, 3, 4):
        for _ in range(15):
            G = random_gram(rng, n, spread=3)
            rep = enumerate_shortest(G)
            # oracle works in the reduced basis where a small box suffices
            u = lll_reduce(G)[2]
            omin, ovecs = box_gram_minimum(transform_gram(G.entries, u), 6)
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
            q = sum(G.entries[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
            assert q == rep.minimum
            assert tuple(-c for c in v) in got


def test_span_rank_matches_fraction_oracle():
    """The integer echelon gives the rank of full Gaussian elimination over Q,
    on the minimal vectors of every LLL input and on rank-deficient sets."""
    for label, G in _lll_inputs():
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
        at_min = box_gram_within(G.entries, rep.minimum)
        assert sorted(rep.vectors) == at_min
        assert box_gram_within(G.entries, rep.minimum - Fraction(1, 2)) == []
        larger = box_gram_within(G.entries, rep.minimum + 5)
        assert set(at_min) <= set(larger)
