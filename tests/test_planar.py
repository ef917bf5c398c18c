import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wrlat.arith import QuadOrder
from wrlat.ideals import IdealTriple, enumerate_ideals, primitive_ideals
from wrlat.planar import form_from_ideal, gauss_reduce, minimal_vectors
from wrlat.survey import classify_triple
from oracles import (
    box_form_minimum,
    form_value,
    is_similar,
    min_bound_holds,
    numeric_quad_gram,
    qd_from_xy,
    qd_mul,
    qd_norm,
    qd_trace,
    window_minimal_vectors,
)
from records import Record, classify_one

SAMPLE_D = (-15, -55, -5, -3, -1, -20, 2, 3, 5, 21, 165, 60)


def random_ideals(rng, count, norm_bound=60):
    pool = []
    for D in SAMPLE_D:
        o = QuadOrder(D)
        pool.extend(IdealTriple(a, b, g, o) for a, b, g in enumerate_ideals(o, norm_bound))
    return rng.sample(pool, count)


coeff = st.integers(1, 60)
off = st.integers(-120, 120)
pd_forms = st.builds(
    lambda c1, c2, c3: (c1, c2, c3), coeff, off, coeff
).filter(lambda c: 4 * c[0] * c[2] - c[1] * c[1] > 0)


# ---------------------------------------------------------------------------
# form construction

def test_form_from_ideal_examples():
    assert form_from_ideal(IdealTriple(2, 0, 1, QuadOrder(-15))) == (4, 2, 4)
    assert form_from_ideal(IdealTriple(1, 0, 1, QuadOrder(-1))) == (1, 0, 1)
    f = form_from_ideal(IdealTriple(7, 3, 1, QuadOrder(21)))
    assert gauss_reduce(*f) == (35, 28, 35)


def test_form_from_ideal_rejects_invalid():
    # an invalid triple cannot be built, so it never reaches form_from_ideal
    with pytest.raises(ValueError, match="invalid ideal triple"):
        IdealTriple(4, 1, 1, QuadOrder(-15))


def test_form_value_is_embedded_length():
    # Q(m, n) must equal N(ma + n(b + g*delta)) for D < 0 and the trace of the
    # square for D > 0; both identities come straight from the embedding.
    rng = random.Random(99)
    for t in random_ideals(rng, 80):
        D = t.order.D
        f = form_from_ideal(t)
        for _ in range(20):
            m, n = rng.randint(-8, 8), rng.randint(-8, 8)
            z = qd_from_xy(D, D % 4 == 1, m * t.a + n * t.b, n * t.g)
            if D < 0:
                assert form_value(f, m, n) == qd_norm(z, D)
            else:
                assert form_value(f, m, n) == qd_trace(qd_mul(z, z, D))


def test_form_matches_float_embedding():
    rng = random.Random(100)
    for t in random_ideals(rng, 60):
        D = t.order.D
        G = numeric_quad_gram(D, D % 4 == 1, t.a, t.b, t.g)
        c1, c2, c3 = form_from_ideal(t)
        assert abs(G[0, 0] - c1) < 1e-6
        assert abs(2 * G[0, 1] - c2) < 1e-6
        assert abs(G[1, 1] - c3) < 1e-6


# ---------------------------------------------------------------------------
# reduction

def test_gauss_reduce_examples():
    assert gauss_reduce(4, 2, 4) == (4, 2, 4)
    c1, c2, c3 = gauss_reduce(15, 20, 15)
    assert abs(c2) <= c1 <= c3 and c1 < 15
    assert gauss_reduce(1, 1, 1) == (1, 1, 1)


@given(pd_forms)
def test_gauss_reduce_properties(c):
    red = gauss_reduce(*c)
    assert type(red) is tuple and all(type(x) is int for x in red)
    c1, c2, c3 = red
    # 0 < c1 and |c2| <= c1 <= c3 make the reduced form positive definite
    assert 0 < c1 and abs(c2) <= c1 <= c3
    if abs(c2) == c1 or c1 == c3:
        assert c2 >= 0
    # a change of basis keeps the discriminant and the lattice up to similarity
    assert c2 * c2 - 4 * c1 * c3 == c[1] * c[1] - 4 * c[0] * c[2]
    assert is_similar(c, red)


@given(pd_forms)
def test_gauss_reduce_idempotent_on_forms(c):
    red = gauss_reduce(*c)
    assert gauss_reduce(*red) == red


# ---------------------------------------------------------------------------
# minimal vectors

def test_minimal_vectors_examples():
    minimum, vectors = minimal_vectors(4, 2, 4)
    assert minimum == 4
    assert set(vectors) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    minimum, vectors = minimal_vectors(1, 1, 1)
    assert minimum == 1 and len(vectors) == 6
    minimum, vectors = minimal_vectors(1, 0, 3)
    assert minimum == 1 and set(vectors) == {(1, 0), (-1, 0)}


@given(pd_forms)
def test_minimal_vectors_properties(c):
    minimum, vectors = minimal_vectors(*c)
    assert len(vectors) in (2, 4, 6)
    assert list(vectors) == sorted(vectors)
    got = set(vectors)
    for v in vectors:
        assert form_value(c, *v) == minimum
        assert (-v[0], -v[1]) in got
    # well-roundedness is equivalent to a symmetric reduced form
    c1, c2, c3 = gauss_reduce(*c)
    assert minimum == c1
    assert (len(vectors) >= 4) == (c1 == c3)
    assert (len(vectors) == 6) == (c1 == c2 == c3)


def test_minimal_vector_count_bulk():
    rng = random.Random(2024)
    seen = set()
    for _ in range(10_000):
        c1 = rng.randint(1, 40)
        c3 = rng.randint(1, 40)
        lim = 4 * c1 * c3
        c2 = rng.randint(-int(lim**0.5), int(lim**0.5))
        if c2 * c2 >= lim:
            continue
        _, vectors = minimal_vectors(c1, c2, c3)
        seen.add(len(vectors))
        assert len(vectors) in (2, 4, 6)
    assert seen == {2, 4, 6}


def test_minimal_vectors_match_box_oracle():
    rng = random.Random(7171)
    for t in random_ideals(rng, 100):
        f = form_from_ideal(t)
        minimum, vectors = minimal_vectors(*f)
        omin, ovecs = box_form_minimum(*f, 25)
        assert minimum == omin
        assert sorted(vectors) == ovecs


def test_minimal_vectors_match_window_oracle():
    """The minimal vectors from svp's walk equal a search of the window of
    the reduced form, whose basis the oracle tracks, on every positive
    definite form of a grid; on the grid scaled by 1/7 and 3/2 the oracle
    gives the same vectors and the scaled minimum."""
    count = 0
    for scale in (1, Fraction(1, 7), Fraction(3, 2)):
        for c1 in range(1, 16):
            for c3 in range(1, 16):
                for c2 in range(-30, 31):
                    if 4 * c1 * c3 <= c2 * c2:
                        continue
                    minimum, vectors = minimal_vectors(c1, c2, c3)
                    want = window_minimal_vectors(c1 * scale, c2 * scale, c3 * scale)
                    assert (minimum * scale, list(vectors)) == want
                    count += 1
    assert count > 19_000


# ---------------------------------------------------------------------------
# predicates

def ideal_record(a, b, g, D):
    t = IdealTriple(a, b, g, QuadOrder(D))
    return classify_one(t.order, t.a, t.b, t.g)


def test_is_wr_examples():
    assert ideal_record(2, 0, 1, -15).wr
    assert not ideal_record(1, 0, 1, 2).wr
    rec = ideal_record(1, 0, 1, -3)
    assert rec.wr and rec.hexagonal


def test_is_hexagonal_examples():
    assert len(minimal_vectors(1, 1, 1)[1]) == 6
    assert len(minimal_vectors(1, 0, 1)[1]) == 4
    assert ideal_record(2, 1, 1, 3).hexagonal
    assert not ideal_record(1, 0, 1, -1).hexagonal


def test_is_similar():
    q = (3, 2, 5)
    assert is_similar(q, (21, 14, 35))
    assert is_similar(q, (Fraction(3, 7), Fraction(2, 7), Fraction(5, 7)))
    # reflections are similarities: flip the middle coefficient
    assert is_similar(q, (3, -2, 5))
    assert not is_similar((1, 0, 1), (1, 1, 1))
    # <2> in Z[(1-sqrt(-3))/2] is a rotated, dilated copy of the full ring
    o = QuadOrder(-3)
    f2 = form_from_ideal(IdealTriple(2, 0, 2, o))
    f1 = form_from_ideal(IdealTriple(1, 0, 1, o))
    assert is_similar(f2, f1)


def test_check_min_bound_examples():
    # classify_triple raises InvariantViolation on a violation
    assert min_bound_holds(ideal_record(2, 0, 1, -15))
    rec = ideal_record(1, 0, 1, -1)
    assert min_bound_holds(rec) and rec.minimum == rec.norm  # equality case
    assert min_bound_holds(ideal_record(7, 3, 1, 21))


def test_check_min_bound_holds_on_samples():
    for D in SAMPLE_D:
        o = QuadOrder(D)
        for rec in map(Record._make, classify_triple(o, primitive_ideals(o, 40), o.maximal)):
            assert min_bound_holds(rec), rec
