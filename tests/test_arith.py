import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrlat.arith import (
    DeltaKind,
    QuadInt,
    QuadOrder,
    euler_phi,
    is_prime,
    is_squarefree,
    is_valid_radicand,
    mobius,
)
from oracles import (
    mobius_by_factorization,
    phi_by_count,
    qd_add,
    qd_from_xy,
    qd_mul,
    qd_norm,
    qd_trace,
    squarefree_by_factorization,
    trial_division_prime,
)

radicands = st.integers(-60, 60).filter(is_valid_radicand)


def make_quad(order, x, y):
    return QuadInt(x, y, order)


def oracle_pair(u: QuadInt):
    half = u.order.delta_kind is DeltaKind.HALF_ONE_MINUS_SQRT_D
    return qd_from_xy(u.order.D, half, u.x, u.y)


# ---------------------------------------------------------------------------
# predicates

def test_is_prime_matches_trial_division_small():
    for n in range(1, 2000):
        assert is_prime(n) == trial_division_prime(n), n


@given(st.integers(1, 10**6))
def test_is_prime_matches_trial_division_random(n):
    assert is_prime(n) == trial_division_prime(n)


def test_is_prime_examples():
    assert is_prime(3)
    assert not is_prime(1)
    assert not is_prime(15)


def test_is_prime_rejects_bad_input():
    with pytest.raises(ValueError):
        is_prime(0)
    with pytest.raises(ValueError):
        is_prime(-7)
    with pytest.raises(ValueError):
        is_prime(2**64)
    assert is_prime(2**61 - 1)  # largest inputs below the cap still work


def test_is_squarefree_examples():
    assert is_squarefree(15)
    assert is_squarefree(1)
    assert not is_squarefree(207)


def test_is_squarefree_matches_factorization_oracle():
    for n in range(1, 100_001):
        assert is_squarefree(n) == squarefree_by_factorization(n), n


def test_is_squarefree_rejects_nonpositive():
    with pytest.raises(ValueError, match="nonpositive"):
        is_squarefree(0)


def test_euler_phi_matches_count():
    for n in range(1, 300):
        assert euler_phi(n) == phi_by_count(n), n


def test_mobius_matches_oracle_and_sums():
    for n in range(1, 1000):
        assert mobius(n) == mobius_by_factorization(n), n
    for n in range(1, 500):
        total = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert total == (1 if n == 1 else 0), n


def test_is_valid_radicand():
    for d in (0, 1, 4, 9, 16, 100):
        assert not is_valid_radicand(d)
    for d in (-1, -4, -15, 2, 3, 5, 21, 957):
        assert is_valid_radicand(d)


# ---------------------------------------------------------------------------
# orders

@given(radicands)
def test_order_delta_kind_and_signature(D):
    o = QuadOrder(D)
    if D % 4 == 1:
        assert o.delta_kind is DeltaKind.HALF_ONE_MINUS_SQRT_D
        assert o.delta_trace == 1
    else:
        assert o.delta_kind is DeltaKind.MINUS_SQRT_D
        assert o.delta_trace == 0
    assert o.signature == ((2, 0) if D > 0 else (0, 1))
    assert o.maximal == squarefree_by_factorization(abs(D))


def test_order_rejects_bad_radicand():
    for d in (0, 1, 4, 49):
        with pytest.raises(ValueError, match="radicand"):
            QuadOrder(d)


@given(radicands)
def test_delta_square_identity(D):
    # delta^2 = s + t*delta must hold in the exact sqrt(D) representation
    o = QuadOrder(D)
    s, t = o.delta_sq
    half = o.delta_kind is DeltaKind.HALF_ONE_MINUS_SQRT_D
    delta = qd_from_xy(D, half, 0, 1)
    lhs = qd_mul(delta, delta, D)
    rhs = qd_add((Fraction(s), Fraction(0)), qd_mul((Fraction(t), Fraction(0)), delta, D))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# quadratic integers

coords = st.integers(-50, 50)


@given(radicands, coords, coords, coords, coords)
def test_mul_matches_sqrt_representation(D, x1, y1, x2, y2):
    o = QuadOrder(D)
    u, v = make_quad(o, x1, y1), make_quad(o, x2, y2)
    w = u * v
    assert oracle_pair(w) == qd_mul(oracle_pair(u), oracle_pair(v), D)


@given(radicands, coords, coords)
def test_norm_trace_conj_match_sqrt_representation(D, x, y):
    o = QuadOrder(D)
    u = make_quad(o, x, y)
    pair = oracle_pair(u)
    assert u.norm() == qd_norm(pair, D)
    assert u.trace() == qd_trace(pair)
    # conjugation flips the sqrt(D) component
    assert oracle_pair(u.conj()) == (pair[0], -pair[1])


@given(radicands, coords, coords)
def test_conj_involution_and_product(D, x, y):
    u = make_quad(QuadOrder(D), x, y)
    assert u.conj().conj() == u
    prod = u * u.conj()
    assert (prod.x, prod.y) == (u.norm(), 0)
    assert u.trace() == (u + u.conj()).x


def test_norm_multiplicativity_bulk():
    rng = random.Random(1211)
    for D in (-15, -5, -1, -3, 2, 3, 5, 21, -60, 57):
        o = QuadOrder(D)
        for _ in range(1000):
            u = make_quad(o, rng.randint(-99, 99), rng.randint(-99, 99))
            v = make_quad(o, rng.randint(-99, 99), rng.randint(-99, 99))
            assert (u * v).norm() == u.norm() * v.norm()


def test_quad_examples():
    # delta * delta = D for the plain square root kind
    o = QuadOrder(3)
    d = make_quad(o, 0, 1)
    assert d * d == make_quad(o, 3, 0)
    # identity element
    o = QuadOrder(5)
    u = make_quad(o, 7, -2)
    assert make_quad(o, 1, 0) * u == u
    # N((1 - sqrt(-15))/2) = 4 and N((5 - sqrt(5))/2) = 5
    assert make_quad(QuadOrder(-15), 0, 1).norm() == 4
    assert make_quad(QuadOrder(5), 2, 1).norm() == 5


def test_mismatched_orders_rejected():
    u = make_quad(QuadOrder(-15), 1, 0)
    v = make_quad(QuadOrder(-7), 1, 0)
    with pytest.raises(ValueError, match="mismatched"):
        u * v
    with pytest.raises(ValueError, match="mismatched"):
        u + v


big = st.integers(-(2**128), 2**128)
bigpos = st.integers(1, 2**128)


@settings(max_examples=200)
@given(big, bigpos, big, bigpos)
def test_rational_arithmetic_exact(p, q, r, s):
    assert Fraction(p, q) + Fraction(r, s) - Fraction(r, s) == Fraction(p, q)
