import json
import os
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wrlat.arith
import wrlat.cli
import wrlat.survey
from wrlat.arith import MAX_RADICAND, QuadOrder, is_squarefree, is_valid_radicand
from wrlat.cli import _RECORDS, RECORD_COLUMNS, main
from wrlat.errors import InvariantViolation
from wrlat.ideals import IdealTriple, enumerate_ideals, primitive_ideals
from wrlat.planar import gauss_reduce, norm_form
from wrlat.survey import (
    SurveyConfig,
    classify_triple,
    element_str,
    ideal_shape,
    reference_tables,
    run_survey,
)
from oracles import (
    classify_items,
    enumerate_ideals_scan,
    hnf_triple,
    min_bound_holds,
    qd_from_xy,
    qd_mul,
    qd_norm,
    qd_trace,
    render_records_reference,
    squarefree_by_factorization,
    survey_rows_by_sort,
    window_minimal_vectors,
)
from records import classify_one, survey

SAMPLE_D = (-15, -55, -5, -3, -1, -20, 2, 3, 5, 21, 165, 60)

_POOL = []
for _D in SAMPLE_D:
    _O = QuadOrder(_D)
    _POOL.extend((_O, a, b, g) for a, b, g in enumerate_ideals(_O, 40))


def classify(a, b, g, D):
    """classify_triple behind the IdealTriple gate, as `wrlat classify` runs it."""
    t = IdealTriple(a, b, g, QuadOrder(D))
    return classify_one(t.order, t.a, t.b, t.g)


# ---------------------------------------------------------------------------
# single-triple classification

def test_classify_square_lattice():
    rec = classify(1, 0, 1, -1)
    assert (rec.D, rec.a, rec.b, rec.g, rec.norm) == (-1, 1, 0, 1, 1)
    assert rec.minimum == 1
    assert rec.n_minimal == 4
    assert rec.wr and not rec.hexagonal
    assert min_bound_holds(rec) and rec.order_maximal


def test_classify_hexagonal_lattice():
    rec = classify(1, 0, 1, -3)
    assert rec.minimum == 1 and rec.n_minimal == 6
    assert rec.wr and rec.hexagonal


def test_classify_family_seed():
    rec = classify(2, 0, 1, -15)
    assert rec.norm == 2 and rec.minimum == 4
    assert rec.n_minimal == 4 and rec.wr and not rec.hexagonal


def test_classify_real_principal_not_wr():
    rec = classify(1, 0, 1, 5)
    assert rec.minimum == 2
    assert rec.n_minimal == 2 and not rec.wr


def test_classify_real_hexagonal():
    # the one real hexagonal case: D = 3, triple (2, 1, 1)
    rec = classify(2, 1, 1, 3)
    assert rec.n_minimal == 6 and rec.hexagonal


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_POOL))
def test_classify_consistency(trip):
    order, a, b, g = trip
    shape = ideal_shape(order, a // g, b // g, g)
    assert type(shape) is tuple and type(shape[0]) is int
    rec = classify_one(order, a, b, g)
    assert (rec.D, rec.a, rec.b, rec.g) == (order.D, a, b, g)
    assert rec.norm == a * g
    assert rec.minimum > 0
    assert rec.n_minimal in (2, 4, 6)
    assert rec.wr == (rec.n_minimal >= 4)
    assert rec.hexagonal == (rec.n_minimal == 6)
    assert min_bound_holds(rec)
    assert rec.order_maximal == order.maximal


# ---------------------------------------------------------------------------
# survey runs

def test_config_validation():
    # an invalid window cannot be built, so run_survey never sees one
    with pytest.raises(ValueError, match="^d_min must not exceed d_max$"):
        SurveyConfig(d_min=5, d_max=4)
    with pytest.raises(ValueError, match="^norm bound must be at least 1$"):
        SurveyConfig(d_min=2, d_max=3, norm_bound=0)
    # a window end beyond the cap is refused before any radicand is factored
    for d_min, d_max in ((-MAX_RADICAND - 1, -3), (2, MAX_RADICAND + 1)):
        with pytest.raises(ValueError, match="exceeds MAX_RADICAND"):
            SurveyConfig(d_min=d_min, d_max=d_max)
    SurveyConfig(d_min=-MAX_RADICAND, d_max=MAX_RADICAND)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="^workers must be at least 1$"):
            SurveyConfig(d_min=2, d_max=3, workers=workers)
    cfg = SurveyConfig(d_min=2, d_max=3)
    with pytest.raises(AttributeError, match="^cannot assign to field 'workers'$"):
        cfg.workers = 0


def test_survey_skips_invalid_radicands():
    records, _ = survey(SurveyConfig(d_min=0, d_max=4, norm_bound=5))
    assert {r.D for r in records} == {2, 3}


def test_survey_squarefree_filter():
    records, _ = survey(
        SurveyConfig(d_min=-20, d_max=-1, norm_bound=5, require_squarefree=True)
    )
    ds = {r.D for r in records}
    assert all(is_squarefree(-d) for d in ds)
    assert -15 in ds and -8 not in ds and -12 not in ds


def test_squarefree_survey_factors_each_radicand_once(monkeypatch):
    # the filter factors every valid |D|; the orders it keeps are maximal, so
    # classifying their ideals factors nothing more
    seen = []
    factorize = wrlat.arith.factorize

    def counting(n):
        seen.append(n)
        return factorize(n)

    monkeypatch.setattr(wrlat.arith, "factorize", counting)
    cfg = SurveyConfig(d_min=-200, d_max=200, norm_bound=12, require_squarefree=True)
    results = list(run_survey(cfg, list))
    assert sorted(seen) == sorted(abs(D) for D in range(-200, 201) if is_valid_radicand(D))
    assert len(seen) == 386 and len(results) == 243
    assert all(row[9] for rows, *_ in results for row in rows)


def test_survey_imaginary_window():
    records, summary = survey(SurveyConfig(d_min=-20, d_max=-1, norm_bound=10))
    key = {(r.D, r.a, r.b, r.g): r for r in records}
    assert key[(-15, 2, 0, 1)].wr
    assert all(r.wr for r in records if r.D == -1)
    assert all(r.hexagonal for r in records if r.D == -3)
    assert summary["records"] == len(records)
    assert summary["bound_ok"] == len(records)
    assert summary["wr"] == sum(r.wr for r in records)
    assert summary["hexagonal"] <= summary["wr"]


def test_survey_sorted_deterministically():
    records, _ = survey(SurveyConfig(d_min=-30, d_max=30, norm_bound=8))
    keys = [(r.D, r.norm, r.a, r.b, r.g) for r in records]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def oracle_norm_form(D, a, b, g):
    """(c1, c2, c3) of the embedded ideal from exact arithmetic in Q(sqrt(D)):
    Q(m, n) is N(z) for D < 0 and Tr(z^2) for D > 0, z = m*a + n*(b + g*delta)."""
    def q(m, n):
        z = qd_from_xy(D, D % 4 == 1, m * a + n * b, n * g)
        return qd_norm(z, D) if D < 0 else qd_trace(qd_mul(z, z, D))

    c1, c3 = q(1, 0), q(0, 1)
    return c1, q(1, 1) - c1 - c3, c3


def assert_records_match_oracles(records, d_min, d_max, norm_bound):
    """Each radicand's triples are the scan's, in order, and each record's
    minimum and minimal vector count are the window search's on the norm form."""
    ds = [D for D in range(d_min, d_max + 1) if is_valid_radicand(D)]
    assert sorted({r.D for r in records}) == ds
    for D in ds:
        recs = [r for r in records if r.D == D]
        assert [(r.a, r.b, r.g) for r in recs] == enumerate_ideals_scan(QuadOrder(D), norm_bound)
        for r in recs:
            minimum, vecs = window_minimal_vectors(*oracle_norm_form(D, r.a, r.b, r.g))
            assert (r.minimum, r.n_minimal) == (minimum, len(vecs)), r
            assert (r.wr, r.hexagonal) == (len(vecs) >= 4, len(vecs) == 6), r
            assert r.norm == r.a * r.g and min_bound_holds(r)
            assert r.order_maximal == squarefree_by_factorization(abs(D))


def test_survey_records_match_oracles():
    # both signs, D = +-3, and non-maximal orders such as D = -12, whose
    # ideal (4, 2, 1) has a hexagonal lattice
    records, _ = survey(SurveyConfig(d_min=-45, d_max=45, norm_bound=30))
    assert_records_match_oracles(records, -45, 45, 30)
    key = {(r.D, r.a, r.b, r.g): r for r in records}
    assert key[(-12, 4, 2, 1)].hexagonal and not key[(-12, 4, 2, 1)].order_maximal
    assert key[(-3, 1, 0, 1)].hexagonal and key[(3, 2, 1, 1)].hexagonal
    assert not any(r.order_maximal for r in records if r.D in (-12, 8, 12, 45))
    # rows scaled from their primitive ideal's reduction are checked too
    assert {r.D > 0 for r in records if r.g >= 3} == {False, True}
    assert key[(-3, 2, 0, 2)].hexagonal
    assert any(r.wr for r in records if r.g > 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(-3000, 3000), st.integers(0, 6), st.integers(1, 60))
def test_survey_records_match_oracles_random(d_min, width, norm_bound):
    records, _ = survey(SurveyConfig(d_min=d_min, d_max=d_min + width, norm_bound=norm_bound))
    assert_records_match_oracles(records, d_min, d_min + width, norm_bound)


# ---------------------------------------------------------------------------
# conjugate ideals: classify_triple reduces one ideal of each pair

def conjugate_classes(order, norm_bound):
    """The classes {(a, b), (a, b')} of the primitive pairs with a <= norm_bound,
    b' = (-Tr(delta) - b) mod a, each named by its least member."""
    tr = order.delta_trace
    return {(a, min(b, (-tr - b) % a)) for a, bs in enumerate(primitive_ideals(order, norm_bound)) for b in bs}


def test_conjugate_ideals_share_their_shape():
    # the conjugate of I = (a, b + delta) is (a, b' + delta), and its lattice is
    # I's under complex conjugation (D < 0) or the swap of the real embeddings
    # (D > 0): the reduced forms agree up to the sign of c2
    rng = random.Random(7)
    seen = set()
    sampled = 0
    for D in range(-300, 301):
        if not is_valid_radicand(D):
            continue
        order = QuadOrder(D)
        tr = order.delta_trace
        roots = primitive_ideals(order, 60)
        for a, b in ((a, b) for a, bs in enumerate(roots) for b in bs):
            conj = (-tr - b) % a
            # conj(b + delta) = (b + Tr(delta)) - delta
            assert hnf_triple(D, (a, 0), (b + tr, -1)) == (a, conj, 1)
            assert conj in roots[a]
            c1, c2, c3 = gauss_reduce(*norm_form(order, a, b, 1))
            k1, k2, k3 = gauss_reduce(*norm_form(order, a, conj, 1))
            assert (c1, abs(c2), c3) == (k1, abs(k2), k3), (D, a, b)
            seen.add((D > 0, tr, order.maximal, conj == b, c2 == k2))
            if rng.random() < 0.03:
                n_minimal = 6 if c1 == c2 == c3 else 4 if c1 == c3 else 2
                for bb in (b, conj):
                    minimum, vecs = window_minimal_vectors(*oracle_norm_form(D, a, bb, 1))
                    assert (minimum, len(vecs)) == (c1, n_minimal), (D, a, bb)
                sampled += 1
    # both signs, both traces, non-maximal orders, self-conjugate ideals and
    # pairs whose reduced c2 differ in sign
    assert {(s, t, m) for s, t, m, _, _ in seen} == {
        (s, t, m) for s in (False, True) for t in (0, 1) for m in (False, True)
    }
    assert {(c, e) for *_, c, e in seen} == {(True, True), (False, True), (False, False)}
    assert sampled > 500


def test_one_pass_matches_classification_by_items_and_sort():
    # every valid D in -300..300, so both signs and non-maximal orders: the
    # rows, in order, of the former items classifier and its sort by norm;
    # then bound 3600 = 60^2 for a few D (-4 and 12 non-maximal): N = 3600
    # has eleven g >= 2 with g^2 | N, and the norm 1024 for D = -15 and the
    # norm 2500 for D = -4 each take multiples g*I from five primitive norms
    # N/g^2
    cases = [(D, bound) for D in range(-300, 301) if is_valid_radicand(D) for bound in (1, 2, 12, 150)]
    cases += [(D, 3600) for D in (-15, -4, -3, -1, 5, 12)]
    for D, bound in cases:
        order = QuadOrder(D)
        roots = primitive_ideals(order, bound)
        pairs = [(a, b) for a, bs in enumerate(roots) for b in bs]
        want = survey_rows_by_sort(order, pairs, bound, order.maximal)
        assert classify_triple(order, roots, order.maximal) == want, (D, bound)


@pytest.mark.parametrize("D", (-207, -15, -12, -5, -3, -1, 3, 5, 12, 21, 60, 99, 165))
def test_conjugate_sharing_never_borrows_a_shape(D):
    # each row is the row of its triple classified alone, so no ideal takes
    # a shape other than its own or its conjugate's; ints, then three bools
    order = QuadOrder(D)
    rows = classify_triple(order, primitive_ideals(order, 150), order.maximal)
    assert [(a, b, g) for _, a, b, g, *_ in rows] == enumerate_ideals(order, 150)
    for row in rows:
        assert type(row) is tuple and [type(v) for v in row] == [int] * 7 + [bool] * 3, row
        _, a, b, g = row[:4]
        assert [row] == list(classify_items(order, [(a // g, b // g, (g,))], order.maximal)), row


def order_discriminant(D):
    """Delta = Tr(delta)^2 - 4*N(delta), the discriminant of Z[delta]: D for
    D = 1 (mod 4), where delta = (1 - sqrt(D))/2, and 4*D otherwise."""
    return D if D % 4 == 1 else 4 * D


def reduced_classes(order, norm_bound):
    """The conjugate classes that classify_triple reduces: those with
    4*a^2 >= |Delta|; the shape of every smaller a is read off a."""
    delta = abs(order_discriminant(order.D))
    return {(a, b) for a, b in conjugate_classes(order, norm_bound) if 4 * a * a >= delta}


@pytest.mark.parametrize("cfg, totals", [
    (SurveyConfig(d_min=-200, d_max=200, norm_bound=500, require_squarefree=True),
     (44_876, 147_437, 3_005, 326)),
    (SurveyConfig(d_min=-60, d_max=60, norm_bound=100), None),
    (SurveyConfig(d_min=-4000, d_max=4000, norm_bound=12), (1_071, 120_117, 254, 27)),
])
def test_survey_reduces_each_conjugate_class_once(monkeypatch, cfg, totals):
    # the acceptance window, and last the survey_wide benchmark window
    calls = []
    reduce = wrlat.survey.gauss_reduce
    monkeypatch.setattr(wrlat.survey, "gauss_reduce", lambda *c: calls.append(c) or reduce(*c))
    ds = [D for D in range(cfg.d_min, cfg.d_max + 1)
          if is_valid_radicand(D) and (not cfg.require_squarefree or is_squarefree(abs(D)))]
    seen = (0, 0, 0, 0)
    # one worker classifies each radicand when its result is read
    for D, (_, n, w, h) in zip(ds, run_survey(cfg, list), strict=True):
        classes = len(reduced_classes(QuadOrder(D), cfg.norm_bound))
        assert len(calls) == classes, D
        calls.clear()
        seen = tuple(map(sum, zip(seen, (classes, n, w, h))))
    if totals is not None:
        assert seen == totals


def test_small_norm_forms_reduce_to_their_first_coefficient():
    # the lemma classify_triple reads small norms by: for 4*a^2 < |Delta| the
    # reduced form of (a, b + delta) has c1 = a^2 (D < 0) or 2*a^2 (D > 0) and
    # c3 > c1, so 2 minimal vectors and no WR; every valid D in -5000..5000,
    # both signs and non-maximal orders, every primitive ideal with a <= 80
    cases = 0
    for D in range(-5000, 5001):
        if not is_valid_radicand(D):
            continue
        order = QuadOrder(D)
        delta = abs(order_discriminant(D))
        for a, bs in enumerate(primitive_ideals(order, 80)):
            if 4 * a * a >= delta:
                break
            for b in bs:
                c1, _, c3 = gauss_reduce(*norm_form(order, a, b, 1))
                assert c1 == (a * a if D < 0 else 2 * a * a) and c3 > c1, (D, a, b)
                cases += 1
    assert cases == 374_563


def test_square_orders_at_the_small_norm_boundary():
    # 4*a^2 = |Delta| only for D = -n^2, Delta = -4n^2, at a = n: there
    # (n, 0 + delta) = nZ + n*i*Z is a square lattice, WR, so the shortcut
    # must stop strictly below a = n
    for n in range(1, 71):
        D = -n * n
        order = QuadOrder(D)
        records, _ = survey(SurveyConfig(d_min=D, d_max=D, norm_bound=80))
        roots = primitive_ideals(order, 80)
        pairs = [(a, b) for a, bs in enumerate(roots) for b in bs]
        assert [tuple(r) for r in records] == survey_rows_by_sort(order, pairs, 80, order.maximal), D
        square = next(r for r in records if (r.a, r.b, r.g) == (n, 0, 1))
        assert (square.minimum, square.n_minimal, square.wr) == (n * n, 4, True), D


def test_wide_window_matches_reduction_of_every_class():
    # the survey_wide benchmark window: each radicand's rows against the
    # oracle that reduces every conjugate class, and a seeded sample of the
    # rows the shortcut made against `wrlat classify`'s own reduction
    cfg = SurveyConfig(d_min=-4000, d_max=4000, norm_bound=12)
    records, summary = survey(cfg)
    assert summary == {"records": 120_117, "wr": 254, "hexagonal": 27, "bound_ok": 120_117}
    by_d = {}
    for r in records:
        by_d.setdefault(r.D, []).append(tuple(r))
    for D in range(-4000, 4001):
        if not is_valid_radicand(D):
            continue
        order = QuadOrder(D)
        roots = primitive_ideals(order, 12)
        pairs = [(a, b) for a, bs in enumerate(roots) for b in bs]
        assert by_d.pop(D, []) == survey_rows_by_sort(order, pairs, 12, order.maximal), D
    assert not by_d
    short = [r for r in records if 4 * (r.a // r.g) ** 2 < abs(order_discriminant(r.D))]
    for r in random.Random(40).sample(short, 300):
        assert classify_one(QuadOrder(r.D), r.a, r.b, r.g) == r, r


def test_survey_worker_count_is_invisible(monkeypatch):
    # a window of many tasks, and two CPUs so that the pool starts on any host;
    # the workers format their own chunks, so each format's chunks are compared
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = SurveyConfig(d_min=-300, d_max=300, norm_bound=6)
    pooled_cfg = SurveyConfig(d_min=-300, d_max=300, norm_bound=6, workers=2)
    for emit in (list, *_RECORDS.values()):
        serial = list(run_survey(cfg, emit))
        pooled = list(run_survey(pooled_cfg, emit))
        assert serial == pooled, emit
        assert len(pooled) == sum(map(is_valid_radicand, range(-300, 301)))  # one per radicand
    results = list(run_survey(pooled_cfg, list))
    assert all(type(r) is tuple for chunk, *_ in results for r in chunk)


def test_survey_classifies_as_it_is_read(monkeypatch):
    # with one worker, each radicand is classified when its result is asked for
    seen = []
    classify = wrlat.survey.classify_triple

    def counting(order, roots, maximal):
        seen.append(order.D)
        return classify(order, roots, maximal)

    monkeypatch.setattr(wrlat.survey, "classify_triple", counting)
    results = run_survey(SurveyConfig(d_min=-30, d_max=30, norm_bound=10), list)
    assert seen == []
    rows, n, _, _ = next(results)
    assert seen == [-30]
    assert n == len(rows) > 0 and {r[0] for r in rows} == {-30}


def recording_fork(sizes: list):
    """Stand-in for survey._run_forked that records its worker count and runs
    the chunks in this process, so no process is started."""

    def run(task, chunks, workers):
        sizes.append(workers)
        # each worker gets about 32 chunks of consecutive radicands
        size = -(-sum(map(len, chunks)) // (32 * workers))
        assert all(len(c) == size for c in chunks[:-1]) and 0 < len(chunks[-1]) <= size
        return (value for chunk in chunks for value in map(task, chunk))

    return run


@pytest.mark.parametrize(
    "d_range, workers, cpus, expected",
    [
        ((-6, -3), 5000, 64, None),      # 4 radicands fit one chunk: serial
        ((-60, -1), 5000, 64, 8),        # 60 radicands make 8 chunks
        ((-60, -1), 5000, 3, 3),         # no more workers than CPUs
        ((-60, -1), 2, 64, 2),           # nor more than asked for
        ((-60, -1), 5000, None, None),   # unknown CPU count: serial
        ((-60, -1), 5000, (8, {0}), None),  # 8 CPUs, but this process may use one: serial
        ((-60, -1), 5000, (3, None), 3),    # no affinity to read: the CPU count caps
    ],
)
def test_survey_pool_size_is_capped(monkeypatch, d_range, workers, cpus, expected):
    # cpus is (os.cpu_count(), the affinity set), or n for (n, range(n));
    # an affinity of None stands for an os module without sched_getaffinity
    count, affinity = cpus if isinstance(cpus, tuple) else (cpus, cpus and range(cpus))
    sizes = []
    monkeypatch.setattr(wrlat.survey, "_run_forked", recording_fork(sizes))
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(affinity), raising=False)
    cfg = SurveyConfig(d_min=d_range[0], d_max=d_range[1], norm_bound=4, workers=workers)
    results = list(run_survey(cfg, list))
    assert sizes == ([] if expected is None else [expected])
    serial_cfg = SurveyConfig(d_min=d_range[0], d_max=d_range[1], norm_bound=4)
    assert results == list(run_survey(serial_cfg, list))
    assert all(type(r) is tuple for chunk, *_ in results for r in chunk)


# two workers: chunk i of 10 radicands runs in child 1 when i is odd
_FORKED = SurveyConfig(d_min=-300, d_max=300, norm_bound=6, workers=2)
_NEEDS_FORK = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that hangs, waiting on a child, after 60 s, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("the survey hung on its workers")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_survey_without_fork_runs_here(monkeypatch):
    # where os.fork does not exist, two workers on two CPUs run the survey in
    # this process, with the same values
    sizes = []
    monkeypatch.setattr(wrlat.survey, "_run_forked", recording_fork(sizes))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    serial = list(run_survey(SurveyConfig(d_min=-300, d_max=300, norm_bound=6), _RECORDS["csv"]))
    assert list(run_survey(_FORKED, _RECORDS["csv"])) == serial
    assert sizes == []


@_NEEDS_FORK
def test_survey_raises_when_a_worker_dies(monkeypatch, deadline):
    # the child exits at the first radicand of chunk 1, before it sends it
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ds = [D for D in range(_FORKED.d_min, _FORKED.d_max + 1) if is_valid_radicand(D)]
    doomed = ds[-(-len(ds) // 64)]
    parent, classify = os.getpid(), wrlat.survey.classify_triple

    def dying(order, roots, maximal):
        if order.D == doomed and os.getpid() != parent:
            os._exit(7)
        return classify(order, roots, maximal)

    monkeypatch.setattr(wrlat.survey, "classify_triple", dying)
    with pytest.raises(RuntimeError, match="survey worker 1 exited"):
        list(run_survey(_FORKED, list))
    assert_no_child_left()


@_NEEDS_FORK
def test_worker_stops_at_its_first_failed_chunk(monkeypatch, deadline, tmp_path):
    # the child fails at the first radicand of chunk 1, its first, and sends
    # the exception, which is raised here; it classifies no later chunk
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    ds = [D for D in range(_FORKED.d_min, _FORKED.d_max + 1) if is_valid_radicand(D)]
    doomed, log = ds[-(-len(ds) // 64)], tmp_path / "classified"
    parent, classify = os.getpid(), wrlat.survey.classify_triple

    def failing(order, roots, maximal):
        if os.getpid() != parent:
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{order.D}\n")
            if order.D == doomed:
                raise InvariantViolation(f"made to fail at D={doomed}")
        return classify(order, roots, maximal)

    monkeypatch.setattr(wrlat.survey, "classify_triple", failing)
    with pytest.raises(InvariantViolation, match=f"^made to fail at D={doomed}$"):
        list(run_survey(_FORKED, list))
    assert log.read_text(encoding="ascii") == f"{doomed}\n"
    assert_no_child_left()


@_NEEDS_FORK
def test_worker_violation_exits_three_and_leaves_no_child(monkeypatch, deadline, capsys):
    # (3, 1, 1) of D = -5, the form (9, 6, 6), is made to break the bound; of
    # the 36 radicands of -20..20, in chunks of one, D = -5 is the 16th, so
    # the child reduces it and this process never does
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    reduce, seen = wrlat.survey.gauss_reduce, []

    def one_bad_reduction(c1, c2, c3):
        red = reduce(c1, c2, c3)
        if (c1, c2, c3) != (9, 6, 6):
            return red
        seen.append(os.getpid())
        return (2, *red[1:])

    monkeypatch.setattr(wrlat.survey, "gauss_reduce", one_bad_reduction)
    argv = ["survey", "--d-min", "-20", "--d-max", "20", "--norm-bound", "10", "--format", "csv"]
    assert main([*argv, "--workers", "1"]) == 3
    serial = capsys.readouterr()
    assert seen.pop() == os.getpid() and serial.out == ""
    assert serial.err.endswith("; replay: wrlat classify -- -5 3 1 1\n")
    assert main([*argv, "--workers", "2"]) == 3
    assert capsys.readouterr() == serial and seen == []
    assert_no_child_left()


@_NEEDS_FORK
def test_worker_sends_a_frame_cut_short_in_pieces(monkeypatch, deadline):
    # a signal (SIGSTOP, say) can end a write to a pipe early, having written
    # part of the frame: the child writes the rest until the frame is whole
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:100]))
    serial = list(run_survey(SurveyConfig(d_min=-300, d_max=300, norm_bound=6), _RECORDS["csv"]))
    assert list(run_survey(_FORKED, _RECORDS["csv"])) == serial
    assert_no_child_left()


@_NEEDS_FORK
def test_closing_a_forked_survey_reaps_its_worker(monkeypatch, deadline):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    results = run_survey(_FORKED, list)
    next(results)
    results.close()
    assert_no_child_left()


# ---------------------------------------------------------------------------
# rendering through the command line

def survey_output(capsys, d_min, d_max, norm_bound, fmt):
    argv = ["survey", "--d-min", str(d_min), "--d-max", str(d_max),
            "--norm-bound", str(norm_bound), "--format", fmt]
    assert main(argv) == 0
    return capsys.readouterr()


def test_csv_schema(capsys):
    records, _ = survey(SurveyConfig(d_min=-5, d_max=-5, norm_bound=4))
    text = survey_output(capsys, -5, -5, 4, "csv").out
    lines = text.splitlines()
    assert lines[0] == ",".join(RECORD_COLUMNS)
    assert len(lines) == len(records) + 1
    first = dict(zip(RECORD_COLUMNS, lines[1].split(",")))
    assert first["D"] == "-5"
    assert first["wr"] in ("true", "false")
    assert text.endswith("\n")


def test_json_round_trip(capsys):
    records, summary = survey(SurveyConfig(d_min=-5, d_max=-3, norm_bound=4))
    text = survey_output(capsys, -5, -3, 4, "json").out
    obj = json.loads(text)
    assert obj["summary"] == summary
    assert obj["records"] == [
        {
            "D": r.D, "a": r.a, "b": r.b, "g": r.g, "norm": r.norm,
            "minimum_num": r.minimum.numerator, "minimum_den": r.minimum.denominator,
            "n_minimal": r.n_minimal, "wr": r.wr, "hexagonal": r.hexagonal,
            "order_maximal": r.order_maximal,
        }
        for r in records
    ]
    assert json.dumps(obj, indent=2) + "\n" == text


def test_json_of_an_empty_window(capsys):
    # 4 is a square, so the window has no radicand
    text = survey_output(capsys, 4, 4, 5, "json").out
    assert text == json.dumps(
        {"records": [], "summary": {"records": 0, "wr": 0, "hexagonal": 0, "bound_ok": 0}},
        indent=2,
    ) + "\n"


def test_text_rendering(capsys):
    records, summary = survey(SurveyConfig(d_min=-3, d_max=-3, norm_bound=2))
    text = survey_output(capsys, -3, -3, 2, "text").out
    lines = text.splitlines()
    assert len(lines) == len(records) + 1
    assert lines[-1] == (
        f"{summary['records']} ideals: {summary['wr']} wr, {summary['hexagonal']} hexagonal, "
        f"bound holds for {summary['bound_ok']}/{summary['records']}"
    )
    assert lines[0] == "D=-3 (a,b,g)=(1,0,1) norm=1 min=1 nmin=6 wr=yes hex=yes maximal=yes"


def test_record_line_format(capsys):
    assert main(["classify", "--", "-15", "2", "0", "1"]) == 0
    assert capsys.readouterr().out == (
        "D=-15 (a,b,g)=(2,0,1) norm=2 min=4 nmin=4 wr=yes hex=no maximal=yes\n"
    )


def assert_survey_matches_reference(capsys, tmp_path, cfg, fmt):
    """`wrlat survey` on the window of `cfg` writes, to stdout and to --out,
    the bytes of the csv module, Fraction and json.dumps renderer in the
    oracles, plus the summary line for CSV and text."""
    records, summary = survey(cfg)
    summary_line = (
        f"{summary['records']} ideals: {summary['wr']} wr, {summary['hexagonal']} hexagonal, "
        f"bound holds for {summary['bound_ok']}/{summary['records']}\n"
    )
    want = render_records_reference(records, fmt, summary)
    want_err = ""
    if fmt == "text":
        want += summary_line
    elif fmt == "csv":
        want_err = summary_line
    argv = ["survey", "--d-min", str(cfg.d_min), "--d-max", str(cfg.d_max),
            "--norm-bound", str(cfg.norm_bound), "--format", fmt, "--workers", str(cfg.workers)]
    assert main(argv) == 0
    assert capsys.readouterr() == (want, want_err)
    target = tmp_path / f"survey.{fmt}"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr() == ("", want_err)
    assert target.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_survey_output_matches_reference_renderer(monkeypatch, capsys, tmp_path, fmt, workers):
    """On real and imaginary fields, the non-maximal orders D = -27, -12, 12,
    45 and the hexagonal ideals of D = -3, -12, -27; two CPUs, so that two
    workers start the pool on any host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = SurveyConfig(d_min=-30, d_max=50, norm_bound=20, workers=workers)
    records, _ = survey(cfg)
    assert {r.D > 0 for r in records} == {True, False}
    assert {-27, -12, 12, 45} <= {r.D for r in records if not r.order_maximal}
    assert {-27, -12, -3} <= {r.D for r in records if r.hexagonal}
    assert_survey_matches_reference(capsys, tmp_path, cfg, fmt)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_empty_survey_matches_reference_renderer(monkeypatch, capsys, tmp_path, fmt, workers):
    # 0 and 1 are no radicands, so the window has no record
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = SurveyConfig(d_min=0, d_max=1, norm_bound=20, workers=workers)
    assert survey(cfg) == ([], {"records": 0, "wr": 0, "hexagonal": 0, "bound_ok": 0})
    assert_survey_matches_reference(capsys, tmp_path, cfg, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("D", [-3, -5, 21])
def test_survey_formatters_match_reference_up_to_the_norm_bound(capsys, tmp_path, fmt, D):
    """a, b, g and the norm up to 500 come from the decimal table, the real
    minima of D = 21 above it from the int: both match the reference bytes."""
    cfg = SurveyConfig(d_min=D, d_max=D, norm_bound=500)
    records, _ = survey(cfg)
    assert max(r.norm for r in records) > 450
    assert D < 0 or max(r.minimum for r in records) > 500
    assert_survey_matches_reference(capsys, tmp_path, cfg, fmt)


@pytest.mark.parametrize("norm_bound", [7, 60])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_survey_decimal_table_stays_within_the_norm_bound(monkeypatch, capsys, fmt, norm_bound):
    monkeypatch.setattr(wrlat.cli, "_DECIMALS", [])
    survey_output(capsys, -40, 40, norm_bound, fmt)
    table = wrlat.cli._DECIMALS
    assert 1 < len(table) <= norm_bound + 1
    assert table == [str(i) for i in range(len(table))]


# 5^40 and a root of b^2 + 1 modulo it, so (5^40, B + delta) is an ideal of Z[i]
# whose norm is far beyond any survey's bound
_BIG_A = 5**40
_BIG_B = 2224618918409236552857702057


@pytest.mark.parametrize("fmt, want", [
    ("text", f"D=-1 (a,b,g)=({_BIG_A},{_BIG_B},1) norm={_BIG_A} min={_BIG_A} "
             "nmin=4 wr=yes hex=no maximal=yes\n"),
    ("csv", f"{','.join(RECORD_COLUMNS)}\n-1,{_BIG_A},{_BIG_B},1,{_BIG_A},{_BIG_A},1,4,true,false,true\n"),
    ("json", json.dumps(dict(zip(RECORD_COLUMNS, (-1, _BIG_A, _BIG_B, 1, _BIG_A, _BIG_A, 1, 4,
                                                  True, False, True))), indent=2) + "\n"),
])
def test_classify_of_a_huge_norm_leaves_the_decimal_table_alone(capsys, fmt, want):
    assert (_BIG_B * _BIG_B + 1) % _BIG_A == 0
    before = len(wrlat.cli._DECIMALS)
    assert main(["classify", "--format", fmt, "--", "-1", str(_BIG_A), str(_BIG_B), "1"]) == 0
    assert capsys.readouterr() == (want, "")
    assert len(wrlat.cli._DECIMALS) == before


# ---------------------------------------------------------------------------
# algebraic element rendering

def test_element_str_half_kind():
    order = QuadOrder(-15)
    assert element_str(order, 0, 1) == "(1-√-15)/2"
    assert element_str(order, 1, 1) == "(3-√-15)/2"
    assert element_str(order, 3, 0) == "3"
    order = QuadOrder(21)
    assert element_str(order, 0, 1) == "(1-√21)/2"
    assert element_str(order, 7, -1) == "(13+√21)/2"


def test_element_str_sqrt_kind():
    order = QuadOrder(3)
    assert element_str(order, 1, 1) == "1-√3"
    assert element_str(order, 0, -1) == "√3"
    assert element_str(order, 0, 2) == "-2√3"
    assert element_str(order, -4, 0) == "-4"


# ---------------------------------------------------------------------------
# reference tables

def test_reference_tables_all_match():
    rows = reference_tables()
    assert len(rows) == 8
    assert all(row.match for row in rows)
    assert [r.family for r in rows].count("imaginary") == 4
    assert [r.family for r in rows].count("real") == 4


def test_reference_tables_non_maximal_row():
    rows = reference_tables()
    flagged = [r for r in rows if not r.order_maximal]
    assert len(flagged) == 1
    assert flagged[0].D == -207 and flagged[0].family == "imaginary"


def test_reference_tables_cells():
    rows = {(r.family, r.t): r for r in reference_tables()}
    row = rows[("imaginary", 1)]
    assert row.ideal == "<2, (1-√-15)/2>"
    assert row.minimal_elements == "±2, ±(1-√-15)/2"
    row = rows[("real", 5)]
    assert row.ideal == "<7, (7-√21)/2>"
    assert row.minimal_elements == "±(7-√21)/2, ±(7+√21)/2"


def tables_output(capsys, fmt):
    code = main(["tables", "--format", fmt])
    return code, capsys.readouterr().out


def test_tables_text_rendering(capsys):
    _, text = tables_output(capsys, "text")
    assert text.splitlines()[-1] == "all rows match"
    assert text.count("[non-maximal order]") == 1
    assert "imaginary family:" in text and "real family:" in text


def test_tables_csv_quotes_commas(capsys):
    _, text = tables_output(capsys, "csv")
    lines = text.splitlines()
    assert lines[0].startswith("family,t,D,")
    # real rows list two minimal elements, so the cell must be quoted
    assert '"±(7-√21)/2, ±(7+√21)/2"' in text
    assert len(lines) == 9


def test_tables_json_round_trip(capsys):
    rows = reference_tables()
    obj = json.loads(tables_output(capsys, "json")[1])
    assert obj["rows"] == [r._asdict() for r in rows]


def test_tables_disagree_when_expectation_is_wrong(monkeypatch, capsys):
    import wrlat.survey as sv

    patched = list(sv._EXPECTED_ROWS)
    family, t, D, ideal, minimal, maximal = patched[0]
    patched[0] = (family, t, D, ideal, "±3, ±(1-√-15)/2", maximal)
    monkeypatch.setattr(sv, "_EXPECTED_ROWS", tuple(patched))
    rows = sv.reference_tables()
    assert not rows[0].match and all(r.match for r in rows[1:])
    code, text = tables_output(capsys, "text")
    assert code == 3
    assert text.splitlines()[-1] == "MISMATCH detected"
