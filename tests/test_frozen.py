"""The Frozen records are checked on construction and cannot change after
it: assignment, deletion, a copy and a pickle round trip all raise, so no
record exists without its constructor's check."""

import copy
import pickle

import pytest

from wrlat._frozen import Frozen
from wrlat.arith import QuadOrder
from wrlat.ideals import IdealTriple
from wrlat.survey import SurveyConfig
from wrlat.svp import GramMatrix


def test_records_change_by_no_route():
    samples = {
        QuadOrder: QuadOrder(-15),
        IdealTriple: IdealTriple(2, 1, 1, QuadOrder(-15)),
        GramMatrix: GramMatrix([[2, 1], [1, 2]]),
        SurveyConfig: SurveyConfig(-20, -1),
    }
    assert set(Frozen.__subclasses__()) == set(samples)
    for cls in Frozen.__subclasses__():
        record = samples[cls]
        before = [getattr(record, slot) for slot in cls.__slots__]
        for slot in cls.__slots__:
            with pytest.raises(AttributeError, match=f"^cannot assign to field {slot!r}$"):
                setattr(record, slot, None)
            with pytest.raises(AttributeError, match=f"^cannot delete field {slot!r}$"):
                delattr(record, slot)
        for rebuild in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
            with pytest.raises(AttributeError, match="^cannot assign to field "):
                rebuild(record)
        assert [getattr(record, slot) for slot in cls.__slots__] == before
