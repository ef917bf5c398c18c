import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrlat.arith import QuadOrder, is_valid_radicand, norm_xy
from wrlat.ideals import (
    MAX_NORM_BOUND, IdealTriple, _roots_mod_prime, _splits, enumerate_ideals, primitive_ideals,
)
from oracles import coset_index, enumerate_ideals_scan, hnf_triple, roots_mod_prime_legendre

radicands = st.integers(-60, 60).filter(is_valid_radicand)

SAMPLE_D = (-15, -55, -5, -3, -1, -20, -27, 2, 3, 5, 21, 165, 60, 45)


def in_module(x, y, a, b, g):
    """Membership of (x, y) in Z(a,0) + Z(b,g)."""
    if y % g:
        return False
    return (x - (y // g) * b) % a == 0


# ---------------------------------------------------------------------------
# validation

def is_ideal(a, b, g, order) -> bool:
    try:
        IdealTriple(a, b, g, order)
    except ValueError:
        return False
    return True


def test_validate_examples():
    assert is_ideal(2, 0, 1, QuadOrder(-15))
    for D in SAMPLE_D:
        assert is_ideal(1, 0, 1, QuadOrder(D))
    # N(1 + delta) = 6 for D = -15, and 2*1 divides 6
    assert is_ideal(2, 1, 1, QuadOrder(-15))


def test_violation_reasons():
    o = QuadOrder(-15)
    for bad, reason in (
        ((2, 2, 1), "b out of range"),
        ((2, 0, 4), "g out of range"),
        ((6, 4, 4), "does not divide a"),
        ((4, 1, 2), "does not divide b"),
        ((4, 1, 1), "N\\(b"),
    ):
        with pytest.raises(ValueError, match=f"^invalid ideal triple: .*{reason}"):
            IdealTriple(*bad, o)


def test_triple_constructor_guards():
    o = QuadOrder(-15)
    for bad in ((0, 0, 1), (2, 0, 0), (2, -1, 1)):
        with pytest.raises(ValueError):
            IdealTriple(*bad, o)


def test_triple_is_a_frozen_value():
    t = IdealTriple(2, 1, 1, QuadOrder(-15))
    with pytest.raises(AttributeError, match="^cannot assign to field 'b'$"):
        t.b = 0


# ---------------------------------------------------------------------------
# norms

def test_ideal_norm_examples():
    # the norm of a valid triple is a*g
    for a, b, g, D, norm in ((2, 0, 1, -15, 2), (1, 0, 1, 7, 1), (7, 3, 1, 21, 7)):
        t = IdealTriple(a, b, g, QuadOrder(D))
        assert t.a * t.g == norm == coset_index(t.a, t.b, t.g)


def test_ideal_norm_rejects_invalid():
    with pytest.raises(ValueError, match="invalid ideal triple"):
        IdealTriple(4, 1, 1, QuadOrder(-15))


def test_ideal_norm_equals_coset_count():
    for D in SAMPLE_D:
        for a, b, g in enumerate_ideals(QuadOrder(D), 50):
            assert a * g == coset_index(a, b, g)


# ---------------------------------------------------------------------------
# canonical form from generators, against the oracles' HNF

def test_hnf_examples():
    # <1 - sqrt(3)> in Z[-sqrt(3)]: 1 - sqrt(3) = 1 + delta
    assert hnf_triple(3, (1, 1)) == (2, 1, 1)
    # <4, (3 - sqrt(-55))/2> with delta = (1 - sqrt(-55))/2
    assert hnf_triple(-55, (4, 0), (1, 1)) == (4, 1, 1)
    assert hnf_triple(-55, (1, 0)) == (1, 0, 1)


def test_hnf_zero_ideal_rejected():
    with pytest.raises(ValueError, match="zero ideal"):
        hnf_triple(-15, (0, 0), (0, 0))


def test_hnf_idempotent_on_canonical_generators():
    # every enumerated triple is already the canonical basis of its ideal
    for D in SAMPLE_D:
        for a, b, g in enumerate_ideals(QuadOrder(D), 30):
            assert hnf_triple(D, (a, 0), (b, g)) == (a, b, g)


def test_hnf_output_spans_input_generators():
    rng = random.Random(515)
    for _ in range(300):
        D = rng.choice(SAMPLE_D)
        o = QuadOrder(D)
        u = (rng.randint(-20, 20), rng.randint(-20, 20))
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        if u == v == (0, 0):
            continue
        a, b, g = hnf_triple(D, u, v)
        IdealTriple(a, b, g, o)  # an ideal, so the constructor accepts it
        # delta*(x + y*delta) = -N(delta)*y + (x + Tr(delta)*y)*delta
        for x, y in (u, v):
            for w in ((x, y), (-o.delta_norm * y, x + o.delta_trace * y)):
                assert in_module(*w, a, b, g)


@given(radicands, st.integers(-30, 30), st.integers(-30, 30))
def test_principal_ideal_norm_is_absolute_norm(D, x, y):
    if x == 0 and y == 0:
        return
    a, b, g = hnf_triple(D, (x, y))
    t = IdealTriple(a, b, g, QuadOrder(D))
    assert t.a * t.g == abs(norm_xy(t.order, x, y))


# ---------------------------------------------------------------------------
# enumeration

def brute_force_triples(order, bound):
    out = []
    for a in range(1, bound + 1):
        for b in range(a):
            for g in range(1, a + 1):
                if a * g > bound:
                    continue
                if is_ideal(a, b, g, order):
                    out.append((a * g, a, b, g))
    return sorted(out)


def test_enumerate_matches_brute_force():
    for D in SAMPLE_D:
        o = QuadOrder(D)
        got = [(a * g, a, b, g) for a, b, g in enumerate_ideals(o, 25)]
        assert got == brute_force_triples(o, 25)


def test_enumerate_sorted_unique_valid():
    for D in SAMPLE_D:
        o = QuadOrder(D)
        ts = enumerate_ideals(o, 40)
        assert all(type(t) is tuple and len(t) == 3 for t in ts)
        keys = [(a * g, a, b, g) for a, b, g in ts]
        assert keys == sorted(set(keys))
        assert all(is_ideal(a, b, g, o) for a, b, g in ts)
        assert all(a * g <= 40 for a, b, g in ts)
        # the user-input gate accepts every enumerated triple
        assert all(IdealTriple(a, b, g, o) for a, b, g in ts)


def test_enumerate_examples():
    got = set(enumerate_ideals(QuadOrder(-15), 2))
    assert {(1, 0, 1), (2, 0, 1)} <= got
    for D in SAMPLE_D:
        assert enumerate_ideals(QuadOrder(D), 1) == [(1, 0, 1)]
    got = set(enumerate_ideals(QuadOrder(-3), 3))
    assert (3, 1, 1) in got  # N(1 + delta) = 3


def test_enumerate_rejects_bad_bound():
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_ideals(QuadOrder(-15), 0)


def test_enumerate_rejects_bound_above_cap():
    with pytest.raises(ValueError, match=f"at most MAX_NORM_BOUND = {MAX_NORM_BOUND}$"):
        enumerate_ideals(QuadOrder(-3), MAX_NORM_BOUND + 1)
    with pytest.raises(ValueError, match="MAX_NORM_BOUND"):
        enumerate_ideals(QuadOrder(-3), 10**30)


# ---------------------------------------------------------------------------
# roots modulo a against the scan of every b

def test_enumerate_matches_scan_over_window():
    # every valid radicand, squares excluded by is_valid_radicand and
    # non-maximal orders included
    for D in range(-300, 301):
        if not is_valid_radicand(D):
            continue
        o = QuadOrder(D)
        for bound in (1, 2, 7, 64, 200):
            assert enumerate_ideals(o, bound) == enumerate_ideals_scan(o, bound), (D, bound)


# high prime-power square factors, where roots modulo p^e branch on lifting
PRIME_POWER_D = (-2**9 * 3, 5**4 * 3, -1728 * 7, 8 * 27 * 5, -4 * 9 * 25, -2**11, 3**7, -2**6 * 3**4)


def test_enumerate_matches_scan_on_prime_power_radicands():
    for D in PRIME_POWER_D:
        o = QuadOrder(D)
        assert not o.maximal
        for bound in (64, 250, 1000):
            assert enumerate_ideals(o, bound) == enumerate_ideals_scan(o, bound), (D, bound)


def test_primitive_ideals_match_scan():
    # the scan's g = 1 triples, in its (norm, a, b) order: by a, and each a's
    # roots b ascending
    for D in (*range(-100, 101), *PRIME_POWER_D):
        if not is_valid_radicand(D):
            continue
        o = QuadOrder(D)
        for bound in (1, 2, 64, 250):
            want = [(a, b) for a, b, g in enumerate_ideals_scan(o, bound) if g == 1]
            roots = primitive_ideals(o, bound)
            assert len(roots) == bound + 1 and roots[0] == []
            assert [(a, b) for a, bs in enumerate(roots) for b in bs] == want, (D, bound)


def tonelli_constants(p):
    """_splits' (e, u, c) for the odd prime p."""
    *_, ts = _splits(p)[p - 2]
    return ts


def test_sqrt_mod_prime_with_deep_two_power_in_p_minus_1():
    # 2^s | p - 1 with s up to 16, so Tonelli-Shanks runs its inner loop; the
    # roots of b^2 - n are the square roots of n, and a non-residue has none
    for p in (17, 97, 193, 257, 7681, 12289, 65537):
        ts = tonelli_constants(p)
        for n in range(1, min(p, 400)):
            roots = _roots_mod_prime(p, ts, 0, -n, 4 * n)
            if pow(n, (p - 1) // 2, p) == 1:
                assert len(roots) == 2 and all(0 <= r < p and r * r % p == n for r in roots)
            else:
                assert roots == []


def test_tonelli_constants_use_the_least_non_residue():
    # every odd prime up to the norm cap with 4 | p - 1: c = z^u for the least
    # non-residue z, which _splits takes to be 2 for p = 5 (mod 8) unsearched
    primes = 0
    for p, q, m, _, ts in _splits(MAX_NORM_BOUND):
        if ts is None or ts[0] < 2:
            continue
        assert q == p and m == 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        e, u, c = ts
        assert (p - 1 == u << e) and u % 2 == 1 and c == pow(z, u, p), p
        primes += 1
    assert primes == 4783


def test_roots_mod_prime_match_legendre_and_tonelli():
    # every odd prime p < 2000 with its Tonelli-Shanks constants from the table,
    # every N(delta) mod p and both traces: the root finder's one pow agrees
    # with a Legendre test followed by Tonelli-Shanks
    for p, *_, ts in _splits(1999):
        if ts is None:  # 2 or no prime
            continue
        for tr in (0, 1):
            for nm in range(p):
                disc = tr * tr - 4 * nm
                got = sorted(_roots_mod_prime(p, ts, tr, nm, disc))
                assert got == sorted(roots_mod_prime_legendre(p, tr, nm, disc)), (p, tr, nm)
                if pow(disc, (p - 1) // 2, p) == p - 1:
                    assert got == [], (p, tr, nm)


def test_enumerated_ideals_closed_under_conjugation():
    # conjugation maps b + g*delta to b + g*Tr(delta) - g*delta, so the ideal
    # (a, b, g) to (a, (-b - g*Tr(delta)) mod a, g); the roots of
    # b^2 + Tr(delta)*b + N(delta) come in pairs r, -Tr(delta) - r
    window = [D for D in range(-60, 61) if is_valid_radicand(D)]
    for D in sorted(set(SAMPLE_D + PRIME_POWER_D + tuple(window))):
        o = QuadOrder(D)
        got = set(enumerate_ideals(o, 150))
        assert {(a, (-b - g * o.delta_trace) % a, g) for a, b, g in got} == got, D
