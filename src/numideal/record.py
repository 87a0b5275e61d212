"""Value semantics for the package's result types.

A result type lists its fields in `__slots__` and the defaults of trailing
fields in `_defaults`.  `Record` gives it one constructor, which takes the
fields in `__slots__` order by position or by keyword, equality and hashing
by value, a repr of those fields, and no assignment after construction.  A
record with an unhashable field, such as a list, raises TypeError on
`hash`.  The constructor sets fields with `object.__setattr__`.
`dataclasses` would pull `inspect` into every start of the CLI.
"""


class Record:
    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes at most {len(names)} fields")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args) :]:
            if name not in kwargs and name not in cls._defaults:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            object.__setattr__(self, name, kwargs.pop(name, cls._defaults.get(name)))
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected"
            raise TypeError(f"{cls.__name__}() got {problem} field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
