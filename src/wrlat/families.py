"""Two one-parameter families of well-rounded ideal lattices.

Both are indexed by odd t.  The imaginary family lives in the order of
radicand D = -(3t + 2)(t + 2) with ideal (t+1, (t-1)/2, 1) and norm form
a^2*m^2 + a(a-1)*m*n + a^2*n^2 for a = t + 1.  The real family lives in
radicand D = (t - 2)(t + 2) with ideal (t+2, (t+1)/2, 1); after reduction
its form is t(t+2)*m^2 + 4(t+2)*m*n + t(t+2)*n^2.  For odd t the two factors
of D are coprime, so |D| is never factored: its flags are read off them.
Each instance carries its closed form as the integer triple (c1, c2, c3),
which family_stream checks against the form computed from the ideal.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import QuadOrder, check_radicand_bound, factorize, is_squarefree
from .errors import InvariantViolation
from .ideals import IdealTriple
from .planar import form_from_ideal, gauss_reduce


class FamilyInstance(NamedTuple):
    t: int
    D: int
    triple: IdealTriple
    closed_form: tuple[int, int, int]
    p_prime: bool       # is t + 2 prime
    squarefree: bool    # is |D| squarefree


def _piece(imaginary: bool, t: int) -> int:
    """D / (t + 2); coprime to t + 2 for odd t, so |D| is squarefree iff both are."""
    return -(3 * t + 2) if imaginary else t - 2


_FIRST_T = {"imaginary": 1, "real": 5}  # the least odd t of each family


def _first_t(kind: str) -> int:
    if kind not in _FIRST_T:
        raise ValueError(f"unknown family kind {kind!r}")
    return _FIRST_T[kind]


def family_instance(kind: str, t: int) -> FamilyInstance:
    """Member t of the "imaginary" (odd t >= 1, ideal of norm t + 1) or
    "real" (odd t >= 5, ideal of norm t + 2) family."""
    first = _first_t(kind)
    if t < first or t % 2 == 0:
        raise ValueError(f"t must be odd and >= {first}")
    imaginary = kind == "imaginary"
    piece = _piece(imaginary, t)
    a = t + 1 if imaginary else t + 2
    triple = IdealTriple(a, (t - 1) // 2 if imaginary else (t + 1) // 2, 1, QuadOrder(piece * (t + 2)))
    form = (a * a, a * (a - 1), a * a) if imaginary else (t * a, 4 * a, t * a)
    fac = factorize(t + 2)
    squarefree = max(fac.values()) == 1 and is_squarefree(abs(piece))
    return FamilyInstance(t, triple.order.D, triple, form, fac == {t + 2: 1}, squarefree)


def family_stream(kind: str, t_max: int, require_squarefree: bool = False):
    """Instances for every valid odd t <= t_max, built and cross-checked one
    at a time as the returned iterator is read.

    Each closed form must agree with the form computed from the ideal triple:
    directly in the imaginary case, after reduction in the real case.  Raises
    ValueError at the call, before any work, for a kind other than
    "imaginary" and "real", or if the last t has |D| above MAX_RADICAND.
    """
    start = _first_t(kind)
    imaginary = kind == "imaginary"
    last = t_max if t_max % 2 else t_max - 1  # |D| grows with t
    if last >= start:
        check_radicand_bound(_piece(imaginary, last) * (last + 2))

    def checked(inst):
        canon = form_from_ideal(inst.triple)
        if not imaginary:
            canon = gauss_reduce(*canon)
        if canon != inst.closed_form:
            raise InvariantViolation(f"closed form mismatch at t={inst.t}: {canon} != {inst.closed_form}; "
                                     f"replay: wrlat family {kind} --t-max {inst.t}")
        return inst

    instances = (family_instance(kind, t) for t in range(start, t_max + 1, 2))
    return map(checked, (inst for inst in instances if inst.squarefree or not require_squarefree))
