"""Value semantics for the package's result types.

A result type lists its fields in `__slots__`, in constructor order, and
sets them in an explicit `__init__`.  `Record` gives it equality by value
and a repr of those fields; `Frozen` also refuses assignment, so its
`__init__` sets fields with `object.__setattr__`, and hashes by value.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    # mutable records are not hashable
    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._values())
