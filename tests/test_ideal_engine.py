"""End-to-end ideal assembly and membership for the worked examples."""

import random
from fractions import Fraction

import pytest

from numideal.construct import normalize_z_coefficient, polydisk_to_halfplane
from numideal.engine import (
    CaseTag,
    Verdict,
    boundedness_oracle,
    membership,
    numerator_ideal,
)
from numideal.errors import PreconditionError
from numideal.gaussian import GaussianRational
from numideal.parsing import format_poly, parse
from numideal.poly import MultiPoly


@pytest.fixture(scope="module")
def linear3_ideal(linear3):
    return numerator_ideal(linear3)


@pytest.fixture(scope="module")
def degenerate_ideal(degenerate):
    return numerator_ideal(degenerate)


@pytest.fixture(scope="module")
def nonisolated_ideal(nonisolated):
    return numerator_ideal(nonisolated)


class TestNumeratorIdeal:
    def test_linear3(self, linear3_ideal):
        assert linear3_ideal.case is CaseTag.DEFINITE
        assert [format_poly(g) for g in linear3_ideal.generators] == [
            "x + y + z",
            "x^2",
            "x*y",
            "y^2",
        ]
        assert linear3_ideal.L_or_K == 1

    def test_nonisolated(self, nonisolated_ideal):
        assert nonisolated_ideal.case is CaseTag.LINEAR_FORM
        assert [format_poly(g) for g in nonisolated_ideal.generators] == [
            "x + y + z - x*y*z",
            "x^2 + 2*x*y + y^2",
        ]
        assert nonisolated_ideal.L_or_K == 2

    def test_degenerate(self, degenerate_ideal):
        assert degenerate_ideal.case is CaseTag.ISOLATED_DEGENERATE
        assert degenerate_ideal.L_or_K == 4
        assert format_poly(degenerate_ideal.H) == format_poly(
            parse("1/2*(x + y) + 1/8*(x^3 + 7*x^2*y + 7*x*y^2 + y^3)", vars=("x", "y"))
        )
        got = [format_poly(g) for g in degenerate_ideal.generators]
        expected = (
            [
                format_poly(
                    parse(
                        "z + 1/2*(x + y) + 1/8*(x^3 + 7*x^2*y + 7*x*y^2 + y^3)",
                        vars=("x", "y", "z"),
                    )
                ),
                format_poly(parse("(x - y)^2", vars=("x", "y", "z"))),
                format_poly(parse("(x - y)*(x + y)^2", vars=("x", "y", "z"))),
            ]
            + ["x^4", "x^3*y", "x^2*y^2", "x*y^3", "y^4"]
        )
        assert got == expected

    def test_p2(self, p2_stable):
        desc = numerator_ideal(p2_stable)
        assert desc.case is CaseTag.DEFINITE
        assert desc.L_or_K == 2
        assert format_poly(desc.H) == format_poly(
            parse("x + y + 2*(x^3 + 2*x^2*y + 2*x*y^2 + y^3)", vars=("x", "y"))
        )

    def test_principal_for_real_branch(self):
        desc = numerator_ideal(parse("z + x", vars=("x", "y", "z")))
        assert desc.case is CaseTag.PRINCIPAL
        assert desc.generators == [parse("z + x", vars=("x", "y", "z"))]

    def test_json_schema(self, linear3_ideal):
        d = linear3_ideal.to_json_dict()
        assert set(d) == {"case", "generators", "H", "L_or_K", "g"}
        assert isinstance(d["generators"], list)
        assert all(isinstance(s, str) for s in d["generators"])
        assert d["g"] is None or isinstance(d["g"], str)


class TestMembership:
    def test_linear3_generator_in(self, linear3, linear3_ideal):
        v = membership(linear3, parse("x^2", vars=linear3.vars), ideal=linear3_ideal)
        assert v.verdict is Verdict.IN_IDEAL

    def test_linear3_x_not_in_with_witness(self, linear3, linear3_ideal):
        v = membership(linear3, parse("x", vars=linear3.vars), ideal=linear3_ideal)
        assert v.verdict is Verdict.NOT_IN_IDEAL
        assert v.witness is not None
        assert v.witness["direction"] is not None

    def test_p_in_its_own_ideal(self, linear3, nonisolated, degenerate):
        for p in (linear3, nonisolated, degenerate):
            v = membership(p, p)
            assert v.verdict is Verdict.IN_IDEAL

    def test_degenerate_v_cubed_not_in(self, degenerate, degenerate_ideal):
        v = membership(
            degenerate, parse("(x + y)^3", vars=degenerate.vars), ideal=degenerate_ideal
        )
        assert v.verdict is Verdict.NOT_IN_IDEAL

    def test_degenerate_uv2_in(self, degenerate, degenerate_ideal):
        v = membership(
            degenerate,
            parse("(x - y)*(x + y)^2", vars=degenerate.vars),
            ideal=degenerate_ideal,
        )
        assert v.verdict is Verdict.IN_IDEAL

    def test_nonisolated_memberships(self, nonisolated, nonisolated_ideal):
        in_cases = ["(x + y)^2", "x + y + z - x*y*z", "(x + y)^2*z"]
        out_cases = ["x + y", "x", "z"]
        for text in in_cases:
            v = membership(nonisolated, parse(text, vars=nonisolated.vars), ideal=nonisolated_ideal)
            assert v.verdict is Verdict.IN_IDEAL, text
        for text in out_cases:
            v = membership(nonisolated, parse(text, vars=nonisolated.vars), ideal=nonisolated_ideal)
            assert v.verdict is Verdict.NOT_IN_IDEAL, text

    def test_every_emitted_generator_is_member(
        self, linear3, nonisolated, degenerate, linear3_ideal, nonisolated_ideal, degenerate_ideal
    ):
        for p, desc in (
            (linear3, linear3_ideal),
            (nonisolated, nonisolated_ideal),
            (degenerate, degenerate_ideal),
        ):
            for gen in desc.generators:
                v = membership(p, gen, ideal=desc)
                assert v.verdict is Verdict.IN_IDEAL, format_poly(gen)

    def test_ideal_closure_under_combinations(self, linear3, linear3_ideal):
        rng = random.Random(31)
        gens = linear3_ideal.generators
        for _ in range(15):
            g1, g2 = rng.sample(gens, 2)
            a = _random_poly(rng, linear3.vars)
            b = _random_poly(rng, linear3.vars)
            combo = a * g1 + b * g2
            v = membership(linear3, combo, ideal=linear3_ideal)
            assert v.verdict is Verdict.IN_IDEAL

    def test_reflection_always_member(self, linear3, nonisolated, degenerate, p2_stable):
        for p in (linear3, nonisolated, degenerate, p2_stable):
            v = membership(p, p.reflect())
            assert v.verdict is Verdict.IN_IDEAL

    def test_linear3_census_degree_two(self, linear3, linear3_ideal):
        # InIdeal iff the degree-1 part is a multiple of x + y + z
        vars = linear3.vars
        monomials = []
        for d in (0, 1, 2):
            from numideal.engine import _monomials_of_degree

            monomials += _monomials_of_degree(vars, d)
        for m in monomials:
            v = membership(linear3, m, ideal=linear3_ideal)
            deg1 = m.homogeneous_part(1)
            const = m.homogeneous_part(0)
            if not const.is_zero():
                expect = Verdict.NOT_IN_IDEAL
            elif deg1.is_zero():
                expect = Verdict.IN_IDEAL
            else:
                target = parse("x + y + z")
                multiple = any(
                    deg1 == target.scale(c)
                    for c in (GaussianRational(1),)
                )
                expect = Verdict.IN_IDEAL if multiple else Verdict.NOT_IN_IDEAL
            assert v.verdict is expect, format_poly(m)
        # and general degree <= 2 polynomials: member iff the degree-1 part
        # is a scalar multiple of x + y + z
        in_cases = ["x + y + z", "2*(x + y + z) - 5*x*y", "(1 + i)*(x + y + z) + x^2"]
        out_cases = ["x + 2*y + 3*z", "x + y + z + x - x^2", "x + y"]
        for text in in_cases:
            v = membership(linear3, parse(text, vars=linear3.vars), ideal=linear3_ideal)
            assert v.verdict is Verdict.IN_IDEAL, text
        for text in out_cases:
            v = membership(linear3, parse(text, vars=linear3.vars), ideal=linear3_ideal)
            assert v.verdict is Verdict.NOT_IN_IDEAL, text


# the six worked checks of the degenerate example: (q, q/p bounded)
DEGENERATE_CHECKS = [
    ("(x - y)^2", True),
    ("(x - y)*(x + y)^2", True),
    ("(x + y)^4", True),
    ("(x + y)^3", False),
    ("(x - y)*(x + y)", False),
    ("(x + y)^2", False),
]


class TestWideAndHigherZDegree:
    def test_direction_witness_in_three_x_variables(self):
        # both numerators vanish at (1, 1, 1), so a witness needs a
        # direction off the diagonal
        p = polydisk_to_halfplane(parse("4 - z1 - z2 - z3 - z4"))
        ideal = numerator_ideal(p)
        for text in ("x1 - x2", "x1 + x2 - 2*x3"):
            v = membership(p, parse(text, vars=p.vars), ideal=ideal)
            assert v.verdict is Verdict.NOT_IN_IDEAL
            assert v.witness is not None, text
            low = v.reduced_numerator.poly.lowest_part()
            point = [GaussianRational(t) for t in v.witness["direction"]]
            assert not low.eval_exact(point).is_zero()

    @pytest.mark.parametrize("order", [12, 16])
    def test_linear_form_with_z_degree_two(self, nonisolated, order):
        # the second factor is a unit at 0, so the numerators are those of
        # nonisolated; with deg_z = 2 there is no exact z-split and the
        # LinearForm membership runs on the truncated phi
        unit = polydisk_to_halfplane(parse("5 - z1 - z2 - z3"))
        p = normalize_z_coefficient(nonisolated * unit)
        assert p.var_degree("z") == 2
        ideal = numerator_ideal(p, order=order)
        assert ideal.case is CaseTag.LINEAR_FORM
        assert ideal.L_or_K == 2
        pairs = [
            ("(x + y)^2", True),
            ("x + y + z - x*y*z", True),
            ("x + y", False),
            ("z", False),
        ]
        for text, bounded in pairs:
            v = membership(p, parse(text, vars=p.vars), order=order, ideal=ideal)
            expected = Verdict.IN_IDEAL if bounded else Verdict.NOT_IN_IDEAL
            assert v.verdict is expected, text


def _rescale(poly, a, b):
    """poly(a*x, b*y, ...)."""
    return MultiPoly(
        poly.vars,
        {e: c * (a ** e[0]) * (b ** e[1]) for e, c in poly.terms.items()},
    )


class TestRescaledDegenerate:
    """x -> a*x, y -> b*y with a, b > 0 keeps stability and maps bounded
    q/p to bounded q/p, so case, K and every verdict carry over."""

    @pytest.mark.parametrize(
        "a, b",
        [(Fraction(3, 2), Fraction(1, 4)), (Fraction(2), Fraction(4)), (Fraction(4), Fraction(1, 2))],
    )
    def test_transported_case_and_verdicts(self, degenerate, a, b):
        p = _rescale(degenerate, a, b)
        desc = numerator_ideal(p)
        assert desc.case is CaseTag.ISOLATED_DEGENERATE
        assert desc.L_or_K == 4
        for text, bounded in DEGENERATE_CHECKS:
            q = _rescale(parse(text, vars=p.vars), a, b)
            v = membership(p, q, ideal=desc)
            expect = Verdict.IN_IDEAL if bounded else Verdict.NOT_IN_IDEAL
            assert v.verdict is expect, text


def _random_poly(rng, vars, max_deg=3):
    terms = {}
    for _ in range(4):
        exps = tuple(rng.randint(0, 1) for _ in vars)
        if sum(exps) > max_deg:
            continue
        terms[exps] = GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2))
    return MultiPoly(vars, terms)


class TestOracle:
    def test_generator_bounded(self, linear3, linear3_ideal):
        res = boundedness_oracle(
            linear3, parse("x + y + z"), ideal=linear3_ideal, seed=5
        )
        assert not res["divergent"]

    def test_constant_divergent(self, linear3, linear3_ideal):
        res = boundedness_oracle(
            linear3, parse("1", vars=linear3.vars), ideal=linear3_ideal, seed=5
        )
        assert res["divergent"]

    def test_oracle_matches_membership_on_worked_pairs(
        self, linear3, nonisolated, degenerate, linear3_ideal, nonisolated_ideal, degenerate_ideal
    ):
        pairs = [
            (linear3, linear3_ideal, "x^2", True),
            (linear3, linear3_ideal, "x*y", True),
            (linear3, linear3_ideal, "x + y + z", True),
            (linear3, linear3_ideal, "x", False),
            (linear3, linear3_ideal, "1", False),
            (nonisolated, nonisolated_ideal, "(x + y)^2", True),
            (nonisolated, nonisolated_ideal, "x + y", False),
            (degenerate, degenerate_ideal, "(x - y)^2", True),
            (degenerate, degenerate_ideal, "(x - y)*(x + y)^2", True),
            (degenerate, degenerate_ideal, "(x + y)^3", False),
            (degenerate, degenerate_ideal, "(x - y)*(x + y)", False),
        ]
        for p, desc, text, expected_member in pairs:
            q = parse(text, vars=p.vars)
            v = membership(p, q, ideal=desc)
            assert (v.verdict is Verdict.IN_IDEAL) == expected_member, text
            res = boundedness_oracle(p, q, ideal=desc, seed=3)
            assert res["divergent"] == (not expected_member), (text, res["level_max"])

    def test_emitted_generators_pass_oracle_bounded(
        self, linear3, nonisolated, degenerate,
        linear3_ideal, nonisolated_ideal, degenerate_ideal,
    ):
        for p, desc in (
            (linear3, linear3_ideal),
            (nonisolated, nonisolated_ideal),
            (degenerate, degenerate_ideal),
        ):
            for gen in desc.generators:
                res = boundedness_oracle(p, gen, ideal=desc, seed=2)
                assert not res["divergent"], format_poly(gen)

    def test_real_slice_sufficiency(self, linear3, linear3_ideal):
        for text, member in (("x^2", True), ("x", False)):
            q = parse(text, vars=linear3.vars)
            full = boundedness_oracle(linear3, q, ideal=linear3_ideal, seed=11)
            real_only = boundedness_oracle(
                linear3, q, ideal=linear3_ideal, seed=11, real_slice_only=True
            )
            assert full["divergent"] == real_only["divergent"] == (not member)


class TestOutOfScope:
    def test_non_smooth_zero_reported(self, linear3, nonisolated):
        # a product vanishes doubly at 0: dp/dz(0) = 0
        with pytest.raises(PreconditionError):
            numerator_ideal(linear3 * nonisolated)

    def test_missing_z_reported(self):
        with pytest.raises(PreconditionError):
            numerator_ideal(parse("x + y", vars=("x", "y")))
