import random
import re
from fractions import Fraction
from itertools import chain

import pytest

from wrlat import cyclo
from wrlat.cyclo import (
    cyclo_field,
    element,
    gram_principal,
    verify_cyclotomic_theorem,
    verify_principal_ideal_wr,
)
from wrlat.errors import InvariantViolation
from wrlat.svp import GramMatrix, ShortVectorReport, enumerate_shortest
from oracles import (
    gram_by_products,
    gram_value,
    is_similar,
    naive_factorization,
    newton_trace_table,
    numeric_gram,
    numeric_trace,
    phi_by_factorization,
    rational_entries,
    reduce_cyclo,
    rotation_spot_check,
    zeta_on_basis,
)

SMALL_K = (3, 4, 5, 6, 7, 8, 9, 12)


def trace(F, u):
    """Tr(u) from the trace table of F, linear in the coefficients of u."""
    return sum(c * t for c, t in zip(u, F.trace_table))


# ---------------------------------------------------------------------------
# fields and traces

def test_cyclo_field_examples():
    F = cyclo_field(5)
    assert (F.phi, F.trace_table) == (4, (4, -1, -1, -1, -1))
    F = cyclo_field(4)
    assert (F.phi, F.trace_table) == (2, (2, 0, -2, 0))
    F = cyclo_field(3)
    assert (F.phi, F.trace_table) == (2, (2, -1, -1))


def test_cyclo_field_guard():
    for k in (0, 1, 2):
        with pytest.raises(ValueError, match="at least 3"):
            cyclo_field(k)


def test_prime_powers_match_factorization():
    # every k up to the cap of wrlat cyclo, 2 * 24**2
    for k in range(3, 1153):
        want = tuple((p**e, phi_by_factorization(p**e)) for p, e in sorted(naive_factorization(k).items()))
        assert cyclo_field(k).prime_powers == want, k


def test_trace_table_symmetry():
    for k in range(3, 40):
        F = cyclo_field(k)
        assert F.trace_table[0] == F.phi
        for j in range(1, k):
            assert F.trace_table[j] == F.trace_table[k - j]


def test_traces_match_newton_identities():
    # up to 210 = 2*3*5*7, past the composites 105, 165 and 195
    for k in range(3, 211):
        assert cyclo_field(k).trace_table == newton_trace_table(k), k


def test_trace_matches_numeric_embeddings():
    rng = random.Random(31)
    for k in SMALL_K:
        F = cyclo_field(k)
        for _ in range(20):
            u = [rng.randint(-9, 9) for _ in range(F.phi)]
            assert abs(trace(F, u) - numeric_trace(k, u)) < 1e-6


# ---------------------------------------------------------------------------
# Gram matrices

def test_gram_examples():
    F = cyclo_field(4)
    G = gram_principal(F, [1], range(F.phi))
    assert rational_entries(G, 2) == ((1, 0), (0, 1))
    # the integer traces, twice the Minkowski Gram matrix
    assert G.rows == ((2, 0), (0, 2))
    F = cyclo_field(3)
    h = Fraction(-1, 2)
    assert rational_entries(gram_principal(F, [1], range(F.phi)), 2) == ((1, h), (h, 1))
    F = cyclo_field(5)
    entries = rational_entries(gram_principal(F, [1], range(F.phi)), 2)
    for i in range(4):
        for j in range(4):
            assert entries[i][j] == (2 if i == j else Fraction(-1, 2))


# zero, and zero written unreduced as 1 + zeta + ... + zeta^(p-1) for a prime
# p: elements are never reduced mod Phi_k, so Tr(x*conj(x)) = 0 refuses both
ZEROS = ((5, [0]), (5, [1] * 5), (7, [1] * 7))


def test_gram_rejects_zero():
    for k, coeffs in ZEROS:
        F = cyclo_field(k)
        assert not any(reduce_cyclo(k, coeffs))
        with pytest.raises(ValueError, match="zero element generates no lattice"):
            gram_principal(F, coeffs, range(F.phi))


def test_gram_matches_numeric_embeddings():
    rng = random.Random(77)
    for k in SMALL_K:
        F = cyclo_field(k)
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in range(F.phi)]
            if not any(coeffs):
                coeffs[0] = 1
            entries = rational_entries(gram_principal(F, coeffs, range(F.phi)), 2)
            N = numeric_gram(k, coeffs)
            for i in range(F.phi):
                for j in range(F.phi):
                    assert abs(float(entries[i][j]) - N[i, j]) < 1e-6


def test_elements_are_coefficient_sequences():
    """A generator is any sequence of coefficients on 1, zeta, zeta^2, ...:
    a list and the same coefficients as a tuple with trailing zeros give the
    same Gram matrix, and element(F, c) is the tuple of c."""
    for k, coeffs in ((5, [2, -1, 0, 3]), (12, [1, 2, 0, -1]), (15, [1, 0, 1])):
        F = cyclo_field(k)
        exponents = cyclo._powerful_basis(F)[0]
        padded = tuple(coeffs) + (0,) * 3
        assert gram_principal(F, coeffs, exponents).rows == gram_principal(F, padded, exponents).rows
        assert verify_principal_ideal_wr(F, coeffs) is verify_principal_ideal_wr(F, padded)
        assert element(F, coeffs) == tuple(coeffs)


def _benchmark_generators():
    """The 13 seeded principal ideals the benchmark uses, 12 <= phi <= 20."""
    rng = random.Random(0)
    for k in (13, 17, 19, 21, 25, 27, 28, 32, 36, 40, 44, 48, 60):
        F = cyclo_field(k)
        coeffs = [0]
        while not any(coeffs):
            coeffs = [rng.randint(-3, 3) for _ in range(F.phi)]
        yield F, coeffs


def _gram_generators():
    """Full rings with phi(k) <= 24, the seeded principal ideals the benchmark
    uses, and seeded random generators for small k."""
    for k in range(3, 91):
        if phi_by_factorization(k) <= 24:
            F = cyclo_field(k)
            yield F, [1]
    yield from _benchmark_generators()
    rng = random.Random(31)
    for k in range(3, 31):
        F = cyclo_field(k)
        for _ in range(3):
            coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 2 * F.phi))]
            if any(reduce_cyclo(k, coeffs)):
                yield F, coeffs


def test_gram_matches_product_oracle():
    count = 0
    for F, coeffs in _gram_generators():
        assert rational_entries(gram_principal(F, coeffs, range(F.phi)), 2) == gram_by_products(F, coeffs), (
            F.k, coeffs
        )
        count += 1
    assert count > 140


def test_powerful_basis_matches_power_basis():
    """For every ring with phi <= 24, with P the matrix whose column i holds
    the power-basis coordinates of the i-th powerful basis element
    zeta^(e_i), reduced mod Phi_k by the oracle: for x = 1 and one seeded
    generator x, the Gram of the ideal (x) on the basis x*zeta^(e_i) is
    P^T G P for its power-basis Gram G, and P maps the powerful coordinates
    of zeta^j to those of zeta^j in the power basis, j < k."""
    rings = [cyclo_field(k) for k in range(3, 91) if phi_by_factorization(k) <= 24]
    assert len(rings) == 51
    rng = random.Random(32)
    for F in rings:
        n = F.phi
        exponents, coords = cyclo._powerful_basis(F)
        assert sorted(exponents) == sorted(set(exponents)), F.k
        cols = [reduce_cyclo(F.k, [0] * e + [1]) for e in exponents]
        seeded = [rng.randint(-3, 3) for _ in range(n)]
        for x in ([1], seeded):
            power = gram_principal(F, x, range(F.phi)).rows
            want = tuple(
                tuple(sum(a * power[r][s] * b for r, a in enumerate(cols[i]) for s, b in enumerate(cols[j]))
                      for j in range(n))
                for i in range(n)
            )
            assert gram_principal(F, x, exponents).rows == want, (F.k, x)
        for j in range(F.k):
            w = coords(j)
            assert tuple(sum(col[r] * c for col, c in zip(cols, w)) for r in range(n)) == (
                reduce_cyclo(F.k, [0] * j + [1])
            ), (F.k, j)
    # a prime power k keeps the power basis
    assert cyclo._powerful_basis(cyclo_field(27))[0] == list(range(18))


def _zeta_35_seeds():
    F = cyclo_field(35)
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        yield F, [rng.randint(-3, 3) for _ in range(F.phi)]


def test_power_and_powerful_bases_give_the_same_lattice():
    """The 13 benchmark ideals and the hard ideals of Z[zeta_35] have the same
    minimum, minimal vector count and span rank on the power basis and on
    the powerful basis that verify_principal_ideal_wr reads."""
    count = 0
    for F, coeffs in chain(_benchmark_generators(), _zeta_35_seeds()):
        power = enumerate_shortest(gram_principal(F, coeffs, range(F.phi)))
        powerful = enumerate_shortest(gram_principal(F, coeffs, cyclo._powerful_basis(F)[0]))
        assert (power.minimum, len(power.vectors), power.span_rank) == (
            powerful.minimum, len(powerful.vectors), powerful.span_rank
        ), (F.k, coeffs)
        count += 1
    assert count == 16


# ---------------------------------------------------------------------------
# theorem-level checks

def test_verify_cyclotomic_theorem_small():
    for k in SMALL_K:
        rep = verify_cyclotomic_theorem(cyclo_field(k))
        assert rep.passed
        assert rep.minimum == Fraction(phi_by_factorization(k), 2)
        assert rep.n_minimal == (k if k % 2 == 0 else 2 * k)
        assert rep.wr


def test_verify_principal_ideal_examples():
    F = cyclo_field(8)
    assert verify_principal_ideal_wr(F, [1, 1])
    # <2> in the third cyclotomic field is similar to the full ring
    F = cyclo_field(3)
    assert verify_principal_ideal_wr(F, [2])
    g2 = rational_entries(gram_principal(F, [2], range(F.phi)), 2)
    g1 = rational_entries(gram_principal(F, [1], range(F.phi)), 2)
    f2 = (g2[0][0], 2 * g2[0][1], g2[1][1])
    f1 = (g1[0][0], 2 * g1[0][1], g1[1][1])
    assert is_similar(f2, f1)
    # a unit multiple is literally the same lattice
    F = cyclo_field(5)
    assert verify_principal_ideal_wr(F, [0, 1])
    rep1 = verify_cyclotomic_theorem(F)
    from wrlat.svp import enumerate_shortest

    rep2 = enumerate_shortest(gram_principal(F, [0, 1], range(F.phi)))
    assert Fraction(rep2.minimum, 2) == rep1.minimum


def test_verify_principal_rejects_zero():
    for k, coeffs in ZEROS:
        F = cyclo_field(k)
        with pytest.raises(ValueError, match="zero element generates no lattice"):
            verify_principal_ideal_wr(F, coeffs)


def _witness(msg):
    """The vector w named by a rotation violation message."""
    return [int(c) for c in re.search(r"w=\[([^\]]*)\]", msg).group(1).split(",")]


def _changes_length(zeta, rows, w):
    """Whether w, in the coordinates of the basis on which ``zeta`` is the
    matrix of multiplication by zeta, changes length under the form ``rows``."""
    return gram_value(rows, [sum(a * b for a, b in zip(row, w)) for row in zeta]) != gram_value(rows, w)


def _zeta_on_powerful_basis(F):
    return zeta_on_basis(F.k, cyclo._powerful_basis(F)[0])


def test_rotation_violation_names_its_witness(monkeypatch):
    F = cyclo_field(5)
    gen = [2, -1, 0, 3]
    # a positive definite form that rotation by zeta does not preserve; its
    # first diagonal entry already fails, Q(zeta e_0) = Q(e_1) = 2 != 1, so
    # the witness is e_0 whatever rng is passed
    skewed = GramMatrix(tuple(tuple(i + 1 if i == j else 0 for j in range(4)) for i in range(4)))
    monkeypatch.setattr(cyclo, "gram_principal", lambda F, x, shifts: skewed)
    with pytest.raises(InvariantViolation) as info:
        verify_principal_ideal_wr(F, gen, rng=random.Random(31))
    msg = str(info.value)
    assert "k=5" in msg
    assert f"generator={gen}" in msg
    assert _witness(msg) == [1, 0, 0, 0]
    assert _changes_length(_zeta_on_powerful_basis(F), skewed.rows, _witness(msg))


def test_exact_rotation_check_agrees_with_spot_checks(monkeypatch):
    """The exact Z^T G Z = G check and the former 100 random spot checks both
    accept the benchmark's ideals and the hard ideals of Z[zeta_35] on the
    powerful basis, and both reject every positive definite Gram matrix
    perturbed by one symmetric entry; the exact check's witness changes
    length under zeta.  The spot checks and the witness test move zeta
    through the basis by an exact solve against the power basis (the
    oracle's zeta_on_basis), not by the package's coordinates.  In the rings
    k = 8 and 12, 6 and 4 of the 10 perturbations keep every diagonal entry
    of Z^T G Z and fail off the diagonal only, so both witness rules, e_i and
    e_i + e_j, are exercised."""
    # the check alone: a stubbed enumeration makes every passing check return False
    monkeypatch.setattr(cyclo, "enumerate_shortest", lambda G: ShortVectorReport(0, (), 0))

    def exact(F, coeffs):
        """The exact check's witness, or None when it passes."""
        try:
            assert verify_principal_ideal_wr(F, coeffs) is False
        except InvariantViolation as exc:
            return _witness(str(exc))
        return None

    for F, coeffs in chain(_benchmark_generators(), _zeta_35_seeds()):
        G = gram_principal(F, coeffs, cyclo._powerful_basis(F)[0])
        assert exact(F, coeffs) is None, (F.k, coeffs)
        zeta = _zeta_on_powerful_basis(F)
        assert rotation_spot_check(G.rows, zeta, random.Random(20210), 100) is None, (F.k, coeffs)
    witness_sizes = set()
    for F, coeffs in [(cyclo_field(k), [1]) for k in (5, 8, 12)] + [next(_benchmark_generators())]:
        rows = gram_principal(F, coeffs, cyclo._powerful_basis(F)[0]).rows
        zeta = _zeta_on_powerful_basis(F)
        for i in range(F.phi):
            for j in range(i, F.phi):
                bumped = [list(r) for r in rows]
                bumped[i][j] += 1
                bumped[j][i] += i != j
                try:
                    G = GramMatrix(bumped)
                except ValueError:
                    continue
                monkeypatch.setattr(cyclo, "gram_principal", lambda F, x, shifts: G)
                w = exact(F, coeffs)
                assert w is not None and _changes_length(zeta, G.rows, w), (F.k, i, j)
                assert rotation_spot_check(G.rows, zeta, random.Random(20210), 100), (F.k, i, j)
                witness_sizes.add(sum(w))
    assert witness_sizes == {1, 2}
