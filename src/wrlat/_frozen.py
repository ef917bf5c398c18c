"""The base of wrlat's records that check their input on construction."""


class Frozen:
    """An immutable record with ``__slots__`` (QuadOrder, IdealTriple,
    GramMatrix, SurveyConfig).

    A subclass's ``__init__`` checks its input, then sets every slot with
    ``object.__setattr__``; any assignment or deletion after that raises
    AttributeError.  So does a copy or an unpickle, which would set the slots
    without the check: no record exists unchecked.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
