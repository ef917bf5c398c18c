"""End-to-end acceptance checks.

Each test prints a single pass/fail line (visible with -s or in captured
output), checks exact values with zero numeric tolerance, and enforces a
wall-clock budget where the workload is large.  Heavy surveys are computed
once and shared.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from wrlat import svp
from wrlat.arith import QuadOrder, is_squarefree, is_valid_radicand
from wrlat.cyclo import (
    cyclo_field,
    gram_principal,
    verify_cyclotomic_theorem,
    verify_principal_ideal_wr,
)
from wrlat.families import family_stream
from wrlat.ideals import IdealTriple, enumerate_ideals
from wrlat.planar import form_from_ideal, gauss_reduce, minimal_vectors
from wrlat.survey import SurveyConfig, reference_tables
from wrlat.svp import GramMatrix, enumerate_shortest, lll_reduce
from oracles import (
    box_form_minimum,
    box_form_minimum_np,
    fraction_gram_schmidt,
    min_bound_holds,
    newton_trace_table,
    phi_by_factorization,
    rational_entries,
    transform_gram,
    walk_fraction,
)
from records import classify_one, survey

THEOREM_K = (3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 20)


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({desc}): FAIL")
        raise
    print(f"criterion {n} ({desc}): PASS")


_CACHE = {}


def survey_records():
    """Squarefree |D| <= 200, ideal norms <= 500; shared by two criteria."""
    if "survey" not in _CACHE:
        cfg = SurveyConfig(d_min=-200, d_max=200, norm_bound=500, require_squarefree=True)
        _CACHE["survey"] = survey(cfg)[0]
    return _CACHE["survey"]


def theorem_reports():
    if "cyclo" not in _CACHE:
        _CACHE["cyclo"] = {k: verify_cyclotomic_theorem(cyclo_field(k)) for k in THEOREM_K}
    return _CACHE["cyclo"]


def test_reference_tables_reproduce():
    with criterion(1, "reference tables reproduce"):
        start = time.perf_counter()
        rows = reference_tables()
        assert len(rows) == 8
        assert all(row.match for row in rows)
        flagged = [row for row in rows if not row.order_maximal]
        assert len(flagged) == 1 and flagged[0].D == -207
        assert flagged[0].match
        assert time.perf_counter() - start < 1.0


def test_full_rings_classified():
    with criterion(2, "full rings well-rounded only for D = -1, -3"):
        start = time.perf_counter()
        wr_set = set()
        for D in range(-10_000, 10_001):
            if not is_valid_radicand(D) or not is_squarefree(abs(D)):
                continue
            rec = classify_one(QuadOrder(D), 1, 0, 1)
            assert rec.minimum == (1 if D < 0 else 2)
            if rec.wr:
                wr_set.add(D)
        assert wr_set == {-3, -1}
        assert time.perf_counter() - start < 10.0


def real_subfield_gram(F) -> GramMatrix:
    """Trace form of Z[zeta + zeta^-1], the ring of integers of the maximal
    real subfield Q(zeta_k)^+, in the basis 1, zeta^j + zeta^-j for
    1 <= j < phi/2: Tr(1) = phi/2, Tr(zeta^j + zeta^-j) = T[j], and the
    product of two basis elements j, i > 0 has trace T[i + j] + T[i - j]."""
    k, h, T = F.k, F.phi // 2, F.trace_table

    def entry(i, j):
        if i == 0 or j == 0:
            return h if i == j else T[i + j]
        return T[(i + j) % k] + T[(i - j) % k]

    return GramMatrix(tuple(tuple(entry(i, j) for j in range(h)) for i in range(h)))


def test_composite_rings_beyond_the_guard(monkeypatch):
    # In the powerful basis, the tensor product of the Z[zeta_q] over the
    # prime powers q || k, the full rings of these composite k check in
    # seconds; the enumeration guard of the command is raised for this test
    # only
    with criterion(12, "composite rings beyond the enumeration guard"):
        monkeypatch.setattr(svp, "MAX_ENUM_DIM", 120)
        start = time.perf_counter()
        for k, phi in ((105, 48), (165, 80), (195, 96), (231, 120), (420, 96)):
            assert phi_by_factorization(k) == phi
            rep = verify_cyclotomic_theorem(cyclo_field(k))
            assert (rep.phi, rep.minimum) == (phi, phi // 2), k
            assert rep.n_minimal == (k if k % 2 == 0 else 2 * k), k
            assert rep.wr and rep.passed, k
        assert time.perf_counter() - start < 10.0


def test_real_subfields_not_wr():
    # The converse of the cyclotomic theorem on fields that are not
    # cyclotomic: for phi(k) > 2, Q(zeta_k)^+ is totally real of degree
    # phi/2 > 1, and its full ring is not well-rounded.  Its minimum phi/2 is
    # attained by +-1 alone.  k = 2 (mod 4) gives the field of k/2 again.
    with criterion(11, "maximal real subfields are not well-rounded"):
        start = time.perf_counter()
        # phi(k) >= sqrt(k/2), so phi(k) <= 48 needs k <= 2 * 48**2
        ks = [k for k in range(3, 2 * 48**2 + 1) if k % 4 != 2 and 2 < phi_by_factorization(k) <= 48]
        assert len(ks) == 65
        for k in ks:
            F = cyclo_field(k)
            h = F.phi // 2
            rep = enumerate_shortest(real_subfield_gram(F))
            one = (1,) + (0,) * (h - 1)
            assert rep.minimum == h, k
            assert set(rep.vectors) == {one, tuple(-c for c in one)}, k
        assert time.perf_counter() - start < 10.0


def test_family_prefixes_exact():
    with criterion(3, "first 50 members of each family"):
        imag = list(family_stream("imaginary", 99))
        real = list(family_stream("real", 103))
        assert len(imag) == 50 and len(real) == 50
        for inst in imag:
            t, trip = inst.t, inst.triple
            a = t + 1
            assert inst.D == -(t + 2) * (3 * t + 2)
            assert (trip.a, trip.b, trip.g) == (a, (t - 1) // 2, 1)
            assert inst.closed_form == (a * a, a * (a - 1), a * a)
            assert form_from_ideal(trip) == inst.closed_form
        for inst in real:
            t, trip = inst.t, inst.triple
            assert inst.D == t * t - 4
            assert (trip.a, trip.b, trip.g) == (t + 2, (t + 1) // 2, 1)
            assert inst.closed_form == (t * (t + 2), 4 * (t + 2), t * (t + 2))
            assert gauss_reduce(*form_from_ideal(trip)) == inst.closed_form
        for inst in imag + real:
            c1, c2, c3 = inst.closed_form
            assert abs(c2) <= c1 == c3
            assert len(minimal_vectors(c1, c2, c3)[1]) == 4
            assert len(minimal_vectors(*form_from_ideal(inst.triple))[1]) == 4
        _CACHE["families"] = (imag, real)


def box_radius(f, bound) -> int:
    """A radius whose box holds every (m, n) with f(m, n) <= bound: completing
    the square gives m^2 <= 4*c3*bound/disc and n^2 <= 4*c1*bound/disc."""
    c1, c2, c3 = f
    disc = 4 * c1 * c3 - c2 * c2
    return math.isqrt(math.floor(4 * max(c1, c3) * bound / disc))


def test_minimum_bound_survey():
    with criterion(4, "minimum bound over |D| <= 200, norms <= 500"):
        start = time.perf_counter()
        # run_survey raises InvariantViolation on a violation; the bound is
        # also read off every record, and 1000 minima are redone by box search
        records = survey_records()
        assert records
        for r in records:
            assert min_bound_holds(r), (r.D, r.a, r.b, r.g)
        for r in random.Random(4242).sample(records, 1000):
            f = form_from_ideal(IdealTriple(r.a, r.b, r.g, QuadOrder(r.D)))
            assert box_form_minimum(*f, box_radius(f, r.minimum))[0] == r.minimum
        assert time.perf_counter() - start < 60.0


def test_six_vector_rigidity():
    with criterion(5, "six minimal vectors only over D = 3 and D = -3"):
        records = survey_records()
        assert all(r.n_minimal <= 4 for r in records if r.D not in (3, -3))
        key = {(r.D, r.a, r.b, r.g): r for r in records}
        assert key[(3, 2, 1, 1)].hexagonal
        minus3 = [r for r in records if r.D == -3]
        assert minus3 and all(r.hexagonal for r in minus3)


def test_cyclotomic_profiles():
    with criterion(6, "cyclotomic minima and minimal-vector counts"):
        start = time.perf_counter()
        for k, rep in theorem_reports().items():
            assert rep.minimum == Fraction(phi_by_factorization(k), 2)
            assert rep.n_minimal == (k if k % 2 == 0 else 2 * k)
            assert rep.wr and rep.passed
        assert time.perf_counter() - start < 30.0


def test_principal_cyclotomic_ideals():
    with criterion(7, "random principal cyclotomic ideals"):
        rng = random.Random(424242)
        for k in (3, 4, 5, 7, 8, 12):
            F = cyclo_field(k)
            for _ in range(5):
                coeffs = [rng.randint(-3, 3) for _ in range(F.phi)]
                while not any(coeffs):
                    coeffs = [rng.randint(-3, 3) for _ in range(F.phi)]
                assert verify_principal_ideal_wr(F, coeffs, rng=rng)


def test_hard_principal_ideals_of_zeta_35():
    # for these generators LLL at delta = 3/4 left the walk's starting bound
    # far above the Minkowski minimum (1134 against 935 for seed 2); at
    # delta = 99/100 a reduced basis vector attains the minimum for all three
    # seeds, and the walk's nodes go to proving it; the trace form that
    # gram_principal gives has twice these minima
    with criterion(10, "hard principal ideals of Z[zeta_35]"):
        F = cyclo_field(35)
        for seed, minimum in ((1, 859), (2, 935), (3, 856)):
            rng = random.Random(seed)
            x = [rng.randint(-3, 3) for _ in range(F.phi)]
            G = gram_principal(F, x, range(F.phi))
            rep = enumerate_shortest(G)
            assert (rep.minimum, len(rep.vectors), rep.span_rank) == (2 * minimum, 70, 24), seed
            assert verify_principal_ideal_wr(F, x, rng=rng), seed
            if seed == 3:
                lam, d, u = lll_reduce(G)
                red = transform_gram(rational_entries(G, 2), u)
                mu, lengths = fraction_gram_schmidt(lam, d, 2)
                omin, ovecs = walk_fraction(mu, lengths, min(red[i][i] for i in range(F.phi)))
                assert 2 * omin == rep.minimum
                mapped = sorted(
                    tuple(sum(u[r][c] * w[c] for c in range(F.phi)) for r in range(F.phi))
                    for w in ovecs
                )
                assert tuple(mapped) == rep.vectors


def test_principal_ideals_beyond_the_guard(monkeypatch):
    # one principal ideal each of Z[zeta_37] and Z[zeta_41] (phi = 36 and
    # 40), generators drawn from random.Random(1) in [-3, 3]; the minima and
    # counts were computed with LLL at delta = 3/4, so they pin that the
    # reduction changes only the work; the enumeration guard of the command
    # is raised for this test only
    with criterion(13, "principal ideals beyond the enumeration guard"):
        monkeypatch.setattr(svp, "MAX_ENUM_DIM", 120)
        start = time.perf_counter()
        for k, minimum, count in ((37, 3201, 74), (41, 4034, 82)):
            F = cyclo_field(k)
            rng = random.Random(1)
            x = [rng.randint(-3, 3) for _ in range(F.phi)]
            rep = enumerate_shortest(gram_principal(F, x, range(F.phi)))
            assert (rep.minimum, len(rep.vectors), rep.span_rank) == (2 * minimum, count, F.phi), k
            assert verify_principal_ideal_wr(F, x), k
        assert time.perf_counter() - start < 10.0


def test_oracle_equivalence():
    with criterion(8, "independent oracles agree"):
        rng = random.Random(8128)
        pool = []
        for D in range(-60, 61):
            if is_valid_radicand(D):
                o = QuadOrder(D)
                pool.extend(IdealTriple(a, b, g, o) for a, b, g in enumerate_ideals(o, 100))
        sample = rng.sample(pool, 1000)
        # svp's minimal vectors against a box search, and against the minimum
        # and vector count that the survey reads off the reduced form
        for trip in sample:
            c1, c2, c3 = form_from_ideal(trip)
            minimum, vectors = minimal_vectors(c1, c2, c3)
            box_min, box_vecs = box_form_minimum_np(c1, c2, c3, radius=25)
            assert minimum == box_min
            assert sorted(vectors) == box_vecs
            row = classify_one(trip.order, trip.a, trip.b, trip.g)
            assert (row.minimum, row.n_minimal) == (minimum, len(vectors))
        for k in range(3, 61):
            assert cyclo_field(k).trace_table == newton_trace_table(k)


def test_scope_of_finite_verification():
    # The two family constructions and the cyclotomic classification are
    # statements about infinitely many fields; a desk run can only confirm
    # finite prefixes (50 members per family, eleven k values) and must say
    # so.  The general converse direction (non-WR outside the classified
    # cases for arbitrary fields) is likewise out of reach here beyond the
    # surveyed windows.  README documents these limits.
    with criterion(9, "finite-prefix scope is explicit"):
        imag, real = _CACHE.get("families") or (
            list(family_stream("imaginary", 99)), list(family_stream("real", 103))
        )
        assert len(imag) == 50 and len(real) == 50
        assert len(theorem_reports()) == 11
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        lowered = readme.lower()
        assert "scope" in lowered and "finite" in lowered
