"""Value semantics of the public result types: construction by position and
by keyword with the documented defaults, equality by value, immutability,
hashing by value, and the TypeError of a call that does not fit the
fields; the fields computed on first read, and the one cache path that
computes them."""

from fractions import Fraction

import pytest

from numideal.branch import BranchSolution, PhiClassification
from numideal.closure import MonomialIdealIC
from numideal.engine import CaseTag, IdealDescription, MembershipVerdict, Verdict
from numideal.gaussian import GaussianRational
from numideal.parsing import parse
from numideal.poly import TruncatedSeries
from numideal.puiseux import BranchExponents, ComparablePolynomial, PuiseuxBranch
from numideal.record import Lazy, Record

X = parse("x + 2*y", vars=("x", "y"))
Y = parse("x*y", vars=("x", "y"))
PHI = TruncatedSeries(X, 3)
IC_ARGS = (((1, 0), (0, 1)), ((1, 0), (0, 1)), ((0, 2), (2, 0)), ((1, 1, 2),), 0, 0)

# (class, the fields in constructor order with values, the defaults of the
# trailing fields left out of the short call)
ALL = [
    (BranchSolution, {"phi": PHI, "grad0": (GaussianRational(1),)}, {}),
    (
        PhiClassification,
        {"L": 1, "im_part_2L": Y, "definite": False, "definite_exact": False},
        {"im_part_2L": None, "definite": None, "definite_exact": True},
    ),
    (
        MonomialIdealIC,
        dict(
            zip(
                ("change", "inverse", "newton_points", "halfspaces", "u_min", "v_min"),
                IC_ARGS,
            )
        ),
        {},
    ),
    (
        PuiseuxBranch,
        {"r": 2, "psi": PHI, "multiplicity": 3, "conjugate_partner": 1, "resolved": False},
        {"multiplicity": 1, "conjugate_partner": None, "resolved": True},
    ),
    (
        BranchExponents,
        {"r": 1, "multiplicity": 1, "m_plus": (2,), "m_minus": (3,), "m_max": (3,)},
        {},
    ),
    (
        IdealDescription,
        {
            "case": CaseTag.LINEAR_FORM,
            "generators": [X],
            "H": Y,
            "L_or_K": 2,
            "g": Y,
            "working_order": 3,
            "branch": BranchSolution(PHI, ()),
            "classification": PhiClassification(None),
            "ic": MonomialIdealIC(*IC_ARGS),
            "linear_form": X,
            "reducer": Y,
        },
        {"ic": None, "linear_form": None, "reducer": None},
    ),
    (
        MembershipVerdict,
        {
            "verdict": Verdict.NOT_IN_IDEAL,
            "reduced_numerator": Y,
            "witness": {"curve": "x"},
            "certificate": {"min_degree": 1},
        },
        {"witness": None, "certificate": None},
    ),
    (
        ComparablePolynomial,
        {
            "g": Y,
            "K": 2,
            "K_sharp": Fraction(3, 2),
            "K_bound": 4,
            "branch_data": [],
            "N_used": 6,
            "shortcut": "definite",
        },
        {"shortcut": None},
    ),
]


# the fields each class computes on first read from a `Lazy` value
LAZY = {
    "IdealDescription": ("branch", "reducer"),
    "MembershipVerdict": ("reduced_numerator", "certificate"),
}


def _ids(table):
    return [cls.__name__ for cls, _, _ in table]


@pytest.mark.parametrize("cls, fields, defaults", ALL, ids=_ids(ALL))
def test_construction_by_position_and_keyword(cls, fields, defaults):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value
    assert by_position == by_keyword


@pytest.mark.parametrize("cls, fields, defaults", ALL, ids=_ids(ALL))
def test_defaults(cls, fields, defaults):
    required = {k: v for k, v in fields.items() if k not in defaults}
    short = cls(**required)
    for name, value in {**required, **defaults}.items():
        assert getattr(short, name) == value
    with pytest.raises(TypeError):
        cls(*list(required.values())[:-1])


@pytest.mark.parametrize("cls, fields, defaults", ALL, ids=_ids(ALL))
def test_equality_by_value(cls, fields, defaults):
    record = cls(**fields)
    assert record == cls(**dict(fields))
    assert not record != cls(**dict(fields))
    name, value = next(iter(fields.items()))
    changed = cls(**{**fields, name: object()})
    assert record != changed
    assert record != tuple(fields.values())


@pytest.mark.parametrize("cls, fields, defaults", ALL, ids=_ids(ALL))
def test_records_refuse_assignment_and_hash_by_value(cls, fields, defaults):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is value
    # a list or dict field leaves the record unhashable; with tuples and
    # None in their place it hashes by value
    hashable = {
        name: tuple(v) if isinstance(v, list) else None if isinstance(v, dict) else v
        for name, v in fields.items()
    }
    if hashable != fields:
        with pytest.raises(TypeError):
            hash(record)
        record = cls(**hashable)
    assert hash(record) == hash(cls(**dict(hashable)))
    assert len({record, cls(**dict(hashable))}) == 1


@pytest.mark.parametrize("cls, fields, defaults", ALL, ids=_ids(ALL))
def test_unknown_keyword_raises_type_error(cls, fields, defaults):
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=None)


@pytest.mark.parametrize("cls, fields, defaults", ALL, ids=_ids(ALL))
def test_field_given_twice_raises_type_error(cls, fields, defaults):
    name, value = next(iter(fields.items()))
    with pytest.raises(TypeError):
        cls(*fields.values(), **{name: value})


@pytest.mark.parametrize("cls, fields, defaults", ALL, ids=_ids(ALL))
def test_too_many_positional_arguments_raise_type_error(cls, fields, defaults):
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_records_share_one_constructor():
    # TruncatedSeries keeps its own: it truncates poly to order
    own = {
        cls.__name__
        for cls in _subclasses(Record)
        if cls.__module__.startswith("numideal.") and "__init__" in vars(cls)
    }
    assert own == {"TruncatedSeries"}


@pytest.mark.parametrize("cls, fields, defaults", ALL, ids=_ids(ALL))
def test_lazy_fields(cls, fields, defaults):
    assert cls._lazy == LAZY.get(cls.__name__, ())


class Pair(Record):
    __slots__ = ("eager", "lazy")
    _lazy = ("lazy",)


def _counting(value, calls):
    def thunk(record):
        calls.append(record)
        return value

    return Lazy(thunk)


class TestCachePath:
    def test_a_thunk_runs_once_on_first_read(self):
        calls = []
        record = Pair(1, _counting([2], calls))
        assert calls == []
        first = record.lazy
        assert first == [2] and calls == [record]
        assert record.lazy is first
        assert calls == [record]

    @pytest.mark.parametrize("read", [lambda r: r == Pair(1, 2), hash, repr])
    def test_equality_hash_and_repr_force_the_field(self, read):
        calls = []
        record = Pair(1, _counting(2, calls))
        read(record)
        assert len(calls) == 1
        assert record == Pair(1, 2)
        assert hash(record) == hash(Pair(1, 2))
        assert repr(record) == "Pair(eager=1, lazy=2)"
        assert len(calls) == 1

    @pytest.mark.parametrize("force", [False, True])
    def test_assignment_raises_before_and_after_the_first_read(self, force):
        record = Pair(1, Lazy(lambda r: 2))
        if force:
            record.lazy
        with pytest.raises(AttributeError):
            record.lazy = 3
        with pytest.raises(AttributeError):
            record.eager = 3
        assert (record.eager, record.lazy) == (1, 2)

    def test_a_raising_thunk_keeps_nothing_and_raises_again(self):
        calls = []

        def thunk(record):
            calls.append(record)
            if len(calls) < 3:
                raise ArithmeticError(len(calls))
            return 5

        record = Pair(1, Lazy(thunk))
        for n in (1, 2):
            with pytest.raises(ArithmeticError, match=str(n)):
                record.lazy
        assert record.lazy == 5
        assert record.lazy == 5
        assert len(calls) == 3

    def test_a_thunk_reads_the_other_fields(self):
        record = Pair(3, Lazy(lambda r: r.eager * 2))
        assert record.lazy == 6

    def test_a_field_not_named_lazy_keeps_a_lazy_value(self):
        value = Lazy(lambda r: 2)
        assert Pair(value, 1).eager is value
