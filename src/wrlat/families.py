"""Two one-parameter families of well-rounded ideal lattices.

Both are indexed by odd t.  The imaginary family lives in the order of
radicand -(3t^2 + 8t + 4) with ideal (t+1, (t-1)/2, 1) and norm form
a^2*m^2 + a(a-1)*m*n + a^2*n^2 for a = t + 1.  The real family lives in
radicand t^2 - 4 with ideal (t+2, (t+1)/2, 1); after reduction its form is
t(t+2)*m^2 + 4(t+2)*m*n + t(t+2)*n^2.  Each instance carries its closed
form as the integer triple (c1, c2, c3), which family_stream checks against
the form computed from the ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import QuadOrder, check_radicand_bound, factorize
from .errors import InvariantViolation
from .ideals import IdealTriple
from .planar import form_from_ideal, gauss_reduce


@dataclass(frozen=True)
class FamilyInstance:
    t: int
    D: int
    triple: IdealTriple
    closed_form: tuple[int, int, int]
    p_prime: bool       # is t + 2 prime
    squarefree: bool    # is |D| squarefree


def _radicand(imaginary: bool, t: int) -> int:
    return -(3 * t * t + 8 * t + 4) if imaginary else t * t - 4


def _flags(t: int, order: QuadOrder) -> tuple[bool, bool]:
    """(t + 2 is prime, |D| is squarefree); t + 2 stays below about 1.2*10**6
    under MAX_RADICAND, so trial division decides primality, and the order
    has already decided squarefreeness as its `maximal` flag."""
    return factorize(t + 2) == {t + 2: 1}, order.maximal


def imaginary_instance(t: int) -> FamilyInstance:
    """Family member for odd t >= 1; the ideal has norm a = t + 1."""
    if t < 1 or t % 2 == 0:
        raise ValueError("t must be odd and >= 1")
    D = _radicand(True, t)
    a = t + 1
    triple = IdealTriple(a, (t - 1) // 2, 1, QuadOrder(D))
    form = (a * a, a * (a - 1), a * a)
    return FamilyInstance(t, D, triple, form, *_flags(t, triple.order))


def real_instance(t: int) -> FamilyInstance:
    """Family member for odd t >= 5; the ideal has norm a = t + 2."""
    if t < 5 or t % 2 == 0:
        raise ValueError("t must be odd and >= 5")
    D = _radicand(False, t)
    a = t + 2
    triple = IdealTriple(a, (t + 1) // 2, 1, QuadOrder(D))
    form = (t * a, 4 * a, t * a)
    return FamilyInstance(t, D, triple, form, *_flags(t, triple.order))


def family_stream(kind: str, t_max: int, require_squarefree: bool = False):
    """Instances for every valid odd t <= t_max, built and cross-checked one
    at a time as the returned iterator is read.

    Each closed form must agree with the form computed from the ideal triple:
    directly in the imaginary case, after reduction in the real case.  Raises
    ValueError at the call, before any work, for a kind other than
    "imaginary" and "real", or if the last t has |D| above MAX_RADICAND.
    """
    if kind not in ("imaginary", "real"):
        raise ValueError(f"unknown family kind {kind!r}")
    imaginary = kind == "imaginary"
    build = imaginary_instance if imaginary else real_instance
    start = 1 if imaginary else 5
    last = t_max if t_max % 2 else t_max - 1  # |D| grows with t
    if last >= start:
        check_radicand_bound(_radicand(imaginary, last))

    def checked(inst):
        canon = form_from_ideal(inst.triple)
        if not imaginary:
            canon = gauss_reduce(*canon)
        if canon != inst.closed_form:
            raise InvariantViolation(f"closed form mismatch at t={inst.t}: {canon} != {inst.closed_form}")
        return inst

    instances = map(build, range(start, t_max + 1, 2))
    return map(checked, (inst for inst in instances if inst.squarefree or not require_squarefree))
