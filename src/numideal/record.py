"""Value semantics for the package's result types.

A result type lists its fields in `__slots__` and the defaults of trailing
fields in `_defaults`.  `Record` gives it one constructor, which takes the
fields in `__slots__` order by position or by keyword, equality and hashing
by value, a repr of those fields, and no assignment after construction.  A
record with an unhashable field, such as a list, raises TypeError on
`hash`.  The constructor sets fields with `object.__setattr__`.
`dataclasses` would pull `inspect` into every start of the CLI.

A field named in `_lazy` may be given a `Lazy(thunk)` in place of its value.
Its first read calls thunk(record) and keeps the result in the field, which
is the one way a record's field changes after construction.  A thunk that
raises keeps nothing, so the next read calls it again.  Equality, `hash` and
the repr read every field, so they compute the lazy ones.  Two threads that
read a field first at once may each call the thunk; the later value stays.
"""


class Lazy:
    """A value of a `_lazy` field that `thunk(record)` computes on first read."""

    __slots__ = ("thunk",)

    def __init__(self, thunk):
        self.thunk = thunk


class _LazyField:
    """The class attribute of a `_lazy` field: reads through the field's slot,
    and replaces a `Lazy` there by its value on the first read."""

    __slots__ = ("slot",)

    def __init__(self, slot):
        self.slot = slot

    def __get__(self, record, cls=None):
        value = self.slot.__get__(record, cls)
        if type(value) is Lazy:
            value = value.thunk(record)
            self.slot.__set__(record, value)
        return value

    def __set__(self, record, value):
        self.slot.__set__(record, value)


class Record:
    __slots__ = ()
    _defaults = {}
    _lazy = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in cls.__dict__.get("_lazy", ()):
            setattr(cls, name, _LazyField(cls.__dict__[name]))

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
