import pytest

import wrlat.arith
import wrlat.families
from wrlat.arith import is_squarefree, norm_xy
from wrlat.families import family_instance, family_stream
from wrlat.ideals import IdealTriple
from wrlat.planar import form_from_ideal, gauss_reduce, minimal_vectors
from oracles import trial_division_prime


def test_imaginary_examples():
    inst = family_instance("imaginary", 1)
    assert inst.D == -15
    assert (inst.triple.a, inst.triple.b, inst.triple.g) == (2, 0, 1)
    assert inst.closed_form == (4, 2, 4)
    inst = family_instance("imaginary", 3)
    assert inst.D == -55
    assert (inst.triple.a, inst.triple.b, inst.triple.g) == (4, 1, 1)
    assert inst.closed_form == (16, 12, 16)
    inst = family_instance("imaginary", 7)
    assert inst.D == -207 and not inst.squarefree


def test_real_examples():
    inst = family_instance("real", 5)
    assert inst.D == 21
    assert (inst.triple.a, inst.triple.b, inst.triple.g) == (7, 3, 1)
    assert inst.closed_form == (35, 28, 35)
    inst = family_instance("real", 13)
    assert inst.D == 165
    assert (inst.triple.a, inst.triple.b, inst.triple.g) == (15, 7, 1)


def test_parameter_guards():
    for bad in (0, 2, -1, -3):
        with pytest.raises(ValueError):
            family_instance("imaginary", bad)
    for bad in (0, 2, 3, 1, -5):
        with pytest.raises(ValueError):
            family_instance("real", bad)
    with pytest.raises(ValueError, match="unknown family kind 'complex'"):
        family_instance("complex", 1)


def test_family_invariants_long_prefix():
    # imaginary: D = -(t+2)(3t+2), N(b + delta) = a^2, closed form is the
    # canonical form itself; real: D = (t-2)(t+2), N(b + delta) = a, closed
    # form is the reduced canonical form.  Checked for every t up to 201.
    for inst in family_stream("imaginary", 201):
        t = inst.t
        trip = inst.triple
        assert inst.D == -(t + 2) * (3 * t + 2)
        IdealTriple(trip.a, trip.b, trip.g, trip.order)  # revalidates: raises if invalid
        assert norm_xy(trip.order, trip.b, trip.g) == trip.a**2
        assert inst.closed_form == form_from_ideal(trip)
        assert inst.p_prime == trial_division_prime(t + 2)
        assert inst.squarefree == is_squarefree(-inst.D)
    for inst in family_stream("real", 201):
        t = inst.t
        trip = inst.triple
        assert inst.D == (t - 2) * (t + 2)
        IdealTriple(trip.a, trip.b, trip.g, trip.order)  # revalidates: raises if invalid
        assert norm_xy(trip.order, trip.b, trip.g) == trip.a
        assert inst.closed_form == gauss_reduce(*form_from_ideal(trip))
        assert inst.p_prime == trial_division_prime(t + 2)
        assert inst.squarefree == is_squarefree(inst.D)


def test_every_instance_is_wr_with_four_minimal_vectors():
    for kind in ("imaginary", "real"):
        for inst in family_stream(kind, 201):
            c1, c2, c3 = inst.closed_form
            assert abs(c2) <= c1 == c3  # reduced and symmetric
            minimum, vectors = minimal_vectors(c1, c2, c3)
            assert minimum == c1
            assert len(vectors) == 4


def test_family_stream_filters():
    ts = [i.t for i in family_stream("imaginary", 7, require_squarefree=True)]
    assert ts == [1, 3, 5]
    ts = [i.t for i in family_stream("real", 31, require_squarefree=True)]
    assert set(ts) >= {5, 13, 17, 31}
    ds = [i.D for i in family_stream("real", 31, require_squarefree=True)]
    assert set(ds) >= {21, 165, 285, 957}
    assert list(family_stream("imaginary", 0)) == []
    assert list(family_stream("real", 0)) == []


def test_family_stream_kind_handling():
    assert [i.t for i in family_stream("imaginary", 9)] == [1, 3, 5, 7, 9]
    with pytest.raises(ValueError):
        family_stream("octonion", 9)
    # the bound on the last t is checked at the call too, before any instance
    with pytest.raises(ValueError, match="exceeds MAX_RADICAND"):
        family_stream("imaginary", 10**9)


def test_family_stream_builds_instances_as_it_is_read(monkeypatch):
    built = []
    build = wrlat.families.family_instance

    def counting(kind, t):
        built.append(t)
        return build(kind, t)

    monkeypatch.setattr(wrlat.families, "family_instance", counting)
    stream = family_stream("imaginary", 99)
    assert built == []
    assert next(stream).t == 1
    assert built == [1]


@pytest.mark.parametrize("kind", ["imaginary", "real"])
def test_family_stream_never_factors_the_radicand(monkeypatch, kind):
    # the flags come from the coprime factors t + 2 and 3t + 2 or t - 2 of
    # |D|, so no factorization or squarefree test sees a number above 3t + 2
    seen = []

    def recording(fn):
        def wrapped(n):
            seen.append(n)
            return fn(n)
        return wrapped

    monkeypatch.setattr(wrlat.arith, "factorize", recording(wrlat.arith.factorize))
    monkeypatch.setattr(wrlat.families, "factorize", recording(wrlat.families.factorize))
    monkeypatch.setattr(wrlat.families, "is_squarefree", recording(wrlat.families.is_squarefree))
    insts = list(family_stream(kind, 2001))
    assert insts[-1].t == 2001
    assert seen and max(seen) <= 3 * 2001 + 2


@pytest.mark.parametrize(
    "kind, last, squares",
    [("imaginary", 577347, (7, 41)), ("real", 999999, (11, 7))],
    ids=["imaginary", "real"],
)
def test_flags_match_factoring_the_radicand_up_to_the_cap(kind, last, squares):
    # about 100 odd t spread up to the last t under MAX_RADICAND, plus t where
    # a square divides only one factor: 9 | t + 2 (t = 7), 125 | 3t + 2
    # (imaginary t = 41), 9 | t - 2 (real t = 11)
    first = 1 if kind == "imaginary" else 5
    ts = {first + 2 * ((last - first) // 2 * i // 99) for i in range(100)} | set(squares)
    assert last in ts
    for t in sorted(ts):
        inst = family_instance(kind, t)
        assert inst.squarefree == is_squarefree(abs(inst.D)) == inst.triple.order.maximal
        assert inst.p_prime == trial_division_prime(t + 2)
    for t in squares:
        assert not family_instance(kind, t).squarefree
