from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrlat.arith import (
    MAX_RADICAND,
    QuadOrder,
    is_squarefree,
    is_valid_radicand,
    norm_xy,
    trace_xy,
)
from oracles import (
    qd_add,
    qd_from_xy,
    qd_mul,
    qd_norm,
    qd_scale,
    qd_trace,
    squarefree_by_factorization,
)

radicands = st.integers(-60, 60).filter(is_valid_radicand)


# ---------------------------------------------------------------------------
# predicates

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


def test_is_valid_radicand():
    for d in (0, 1, 4, 9, 16, 100):
        assert not is_valid_radicand(d)
    for d in (-1, -4, -15, 2, 3, 5, 21, 957):
        assert is_valid_radicand(d)


# ---------------------------------------------------------------------------
# orders

@given(radicands)
def test_order_delta_trace_norm_and_maximal(D):
    # Tr(delta) and N(delta) from the exact sqrt(D) representation of delta
    o = QuadOrder(D)
    delta = qd_from_xy(D, D % 4 == 1, 0, 1)
    assert o.delta_trace == qd_trace(delta)
    assert o.delta_norm == qd_norm(delta, D)
    assert o.maximal == squarefree_by_factorization(abs(D))


def test_order_rejects_bad_radicand():
    for d in (0, 1, 4, 49):
        with pytest.raises(ValueError, match="radicand"):
            QuadOrder(d)


def test_order_radicand_cap():
    # both ends of the cap are accepted; one past it is refused without factoring
    assert QuadOrder(-MAX_RADICAND).maximal is False
    assert QuadOrder(MAX_RADICAND - 1).D == MAX_RADICAND - 1
    for d in (MAX_RADICAND + 2, -MAX_RADICAND - 1, -(10**30) - 57):
        with pytest.raises(ValueError, match="MAX_RADICAND"):
            QuadOrder(d)


def test_order_is_a_frozen_value():
    o = QuadOrder(-15)
    assert (o.delta_trace, o.delta_norm) == (1, 4)
    with pytest.raises(AttributeError, match="^cannot assign to field 'D'$"):
        o.D = -3
    with pytest.raises(AttributeError):
        o.extra = 1
    with pytest.raises(AttributeError, match="^cannot delete field 'delta_norm'$"):
        del o.delta_norm
    assert (o.D, o.delta_norm) == (-15, 4)


@given(radicands)
def test_delta_square_identity(D):
    # delta^2 = Tr(delta)*delta - N(delta) must hold in the exact sqrt(D)
    # representation
    o = QuadOrder(D)
    delta = qd_from_xy(D, D % 4 == 1, 0, 1)
    lhs = qd_mul(delta, delta, D)
    rhs = qd_add(qd_scale(o.delta_trace, delta), (Fraction(-o.delta_norm), Fraction(0)))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# norm and trace on coordinates

coords = st.integers(-50, 50)


@given(radicands, coords, coords)
def test_norm_trace_conj_match_sqrt_representation(D, x, y):
    o = QuadOrder(D)
    half = D % 4 == 1
    pair = qd_from_xy(D, half, x, y)
    assert norm_xy(o, x, y) == qd_norm(pair, D)
    assert trace_xy(o, x, y) == qd_trace(pair)
    # the conjugate x + y*(Tr(delta) - delta) flips the sqrt(D) component and
    # keeps norm and trace
    cx, cy = x + o.delta_trace * y, -y
    assert qd_from_xy(D, half, cx, cy) == (pair[0], -pair[1])
    assert (norm_xy(o, cx, cy), trace_xy(o, cx, cy)) == (norm_xy(o, x, y), trace_xy(o, x, y))


def test_quad_examples():
    # N(sqrt(3)) = -3 and N(1) = 1
    o = QuadOrder(3)
    assert norm_xy(o, 0, 1) == -3 and norm_xy(o, 1, 0) == 1
    # N((1 - sqrt(-15))/2) = 4 and N((5 - sqrt(5))/2) = 5
    assert norm_xy(QuadOrder(-15), 0, 1) == 4
    assert norm_xy(QuadOrder(5), 2, 1) == 5
    # Tr((1 - sqrt(-15))/2) = 1 and Tr(7 + 2*sqrt(3)) = 14
    assert trace_xy(QuadOrder(-15), 0, 1) == 1
    assert trace_xy(QuadOrder(3), 7, -2) == 14


big = st.integers(-(2**128), 2**128)
bigpos = st.integers(1, 2**128)


@settings(max_examples=200)
@given(big, bigpos, big, bigpos)
def test_rational_arithmetic_exact(p, q, r, s):
    assert Fraction(p, q) + Fraction(r, s) - Fraction(r, s) == Fraction(p, q)
