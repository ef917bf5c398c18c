"""The base of wrlat's records that check their input on construction."""


class Frozen:
    """An immutable record with ``__slots__`` (QuadOrder, IdealTriple,
    GramMatrix, SurveyConfig).

    ``_fields`` names the constructor's arguments: they alone are shown,
    compared and hashed, and pickling rebuilds the record from them, so its
    check runs again.  A subclass's ``__init__`` checks its input, then sets
    every slot with ``object.__setattr__``; assignment after that raises
    AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
