"""Value semantics of the public result types: construction by position and
by keyword with the documented defaults, equality by value, immutability
and hashing of the frozen ones, and assignment to the mutable ones."""

from fractions import Fraction

import pytest

from numideal.branch import BranchSolution, PhiClassification, PhiKind
from numideal.closure import MonomialIdealIC
from numideal.engine import CaseTag, IdealDescription, MembershipVerdict, Verdict
from numideal.forms import HomogeneousForm
from numideal.gaussian import GaussianRational
from numideal.parsing import parse
from numideal.poly import TruncatedSeries
from numideal.puiseux import BranchExponents, ComparablePolynomial, PuiseuxBranch

X = parse("x + 2*y", vars=("x", "y"))
Y = parse("x*y", vars=("x", "y"))
PHI = TruncatedSeries(X, 3)
IC_ARGS = (((1, 0), (0, 1)), ((1, 0), (0, 1)), ((0, 2), (2, 0)), ((1, 1, 2),), 0, 0)

# (class, the fields in constructor order with values, the defaults of the
# trailing fields left out of the short call)
FROZEN = [
    (BranchSolution, {"phi": PHI, "grad0": (GaussianRational(1),)}, {}),
    (
        PhiClassification,
        {
            "kind": PhiKind.FIRST_IMAG_TERM,
            "order_checked": 4,
            "L": 1,
            "im_part_2L": Y,
            "definite": False,
            "zero_gradient_components": ("y",),
            "definite_exact": False,
        },
        {
            "L": None,
            "im_part_2L": None,
            "definite": None,
            "zero_gradient_components": (),
            "definite_exact": True,
        },
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
    (HomogeneousForm, {"degree": 1, "coeffs": (Fraction(1), Fraction(2))}, {}),
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
]
MUTABLE = [
    (
        IdealDescription,
        {
            "case": CaseTag.LINEAR_FORM,
            "generators": [X],
            "H": Y,
            "L_or_K": 2,
            "g": Y,
            "branch": BranchSolution(PHI, ()),
            "classification": PhiClassification(PhiKind.ALL_REAL_UP_TO_ORDER, 4),
            "ic": MonomialIdealIC(*IC_ARGS),
            "linear_form": X,
            "reducer": Y,
        },
        {
            "branch": None,
            "classification": None,
            "ic": None,
            "linear_form": None,
            "reducer": None,
        },
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
ALL = FROZEN + MUTABLE


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


@pytest.mark.parametrize("cls, fields, defaults", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_refuse_assignment_and_hash_by_value(cls, fields, defaults):
    record = cls(**fields)
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    assert getattr(record, name) is value
    assert hash(record) == hash(cls(**dict(fields)))
    assert len({record, cls(**dict(fields))}) == 1


@pytest.mark.parametrize("cls, fields, defaults", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_take_assignment_and_do_not_hash(cls, fields, defaults):
    record = cls(**fields)
    name = next(iter(fields))
    setattr(record, name, None)
    assert getattr(record, name) is None
    assert record != cls(**fields)
    with pytest.raises(TypeError):
        hash(record)
