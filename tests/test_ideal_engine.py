"""End-to-end ideal assembly and membership for the worked examples."""

import random
from fractions import Fraction

import pytest

from numideal.closure import monomialize
from numideal.construct import (
    normalize_z_coefficient,
    polydisk_to_halfplane,
    random_stable_polynomial,
    substitute_fractions,
)
from numideal.engine import (
    CaseTag,
    Verdict,
    _zero_line,
    boundedness_oracle,
    membership,
    numerator_ideal,
)
from numideal.errors import NoMonomializationFound, PreconditionError
from numideal.examples import EXAMPLES
from numideal.gaussian import GaussianRational
from numideal.parsing import format_poly, parse
from numideal.poly import MultiPoly, pseudo_remainder


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
            low = v.reduced_numerator.lowest_part()
            point = [GaussianRational(t) for t in v.witness["direction"]]
            assert not low.eval_exact(point).is_zero()

    def test_quadratic_im_phi_never_sampled(self, monkeypatch):
        def sampled(*args, **kwargs):
            raise AssertionError("sphere sampled for a quadratic Im phi")

        monkeypatch.setattr("numideal.branch.sampled_sphere_nonneg", sampled)
        for p, order in (
            (polydisk_to_halfplane(parse("4 - z1 - z2 - z3 - z4")), 12),
            (random_stable_polynomial(random.Random(7), n_vars=5), 8),
        ):
            assert len(p.vars) - 1 >= 3
            ideal = numerator_ideal(p, order=order)
            assert ideal.case is CaseTag.DEFINITE
            assert ideal.classification.definite_exact is True

    def test_z_degree_two_in_three_x_variables(self):
        p = random_stable_polynomial(random.Random(7), n_vars=4)
        assert p.vars == ("x1", "x2", "x3", "z") and p.var_degree("z") == 2
        ideal = numerator_ideal(p, order=8)
        assert ideal.case is CaseTag.DEFINITE
        assert ideal.L_or_K == 1
        for q, expected in (
            (p.reflect(), Verdict.IN_IDEAL),
            (parse("x1", vars=p.vars), Verdict.NOT_IN_IDEAL),
        ):
            assert membership(p, q, order=8, ideal=ideal).verdict is expected

    @pytest.mark.parametrize("order", [12, 16])
    def test_linear_form_with_z_degree_two(self, nonisolated, order):
        # the second factor is a unit at 0, so the numerators are those of
        # nonisolated; with deg_z = 2 the LinearForm membership reduces by
        # the z-linear subresultant of p and the first generator
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


class TestLinearFormReduction:
    @pytest.mark.parametrize(
        "text, ell",
        [
            ("5/2*(2*x - 3*y)^4*(1 + x^2)", "2*x - 3*y"),
            ("y^4*(1 + x)", "y"),
            ("x^2*y^2 + x^6 + y^6", None),
            ("(x + y)^2*(x - y)^2 + x^6 + y^6", None),
        ],
    )
    def test_zero_line(self, text, ell):
        g = parse(text, vars=("x", "y"))
        expected = None if ell is None else parse(ell, vars=("x", "y"))
        assert _zero_line(monomialize(g), g.vars) == expected

    def test_zero_line_needs_an_accepted_frame(self):
        with pytest.raises(NoMonomializationFound):
            monomialize(parse("-(x + y)^2", vars=("x", "y")))

    def test_first_generator_route_matches_exact_re_phi(
        self, nonisolated, nonisolated_ideal
    ):
        # reference: reduction by the exact Re phi of p = c z + b,
        # (b cbar + bbar c) / (2 c cbar), whose root differs from gen0's
        slices = nonisolated.slices("z")
        b, c = slices[0], slices[1]
        re_num = (b * c.conj_coefficients() + b.conj_coefficients() * c).scale(
            Fraction(1, 2)
        )
        re_den = c * c.conj_coefficients()
        gen0 = nonisolated_ideal.generators[0].slices("z")
        assert gen0[0] * re_den != re_num * gen0[1]
        assert nonisolated_ideal.linear_form == parse("x + y", vars=("x", "y"))
        power = nonisolated_ideal.L_or_K
        # the ell-order is the least u-degree of the result at x = u - y
        shift = {"x": parse("x - y", vars=("x", "y"))}

        def reference_in(q):
            q_slices = q.slices("z")
            deg_z = max(q_slices)
            total = MultiPoly.zero(re_num.vars)
            for k, qk in q_slices.items():
                total = total + qk * (-re_num) ** k * re_den ** (deg_z - k)
            j = min((e[0] for e in total.subs(shift).terms), default=None)
            return j is None or j >= power

        def parts(*texts):
            return [parse(t, vars=nonisolated.vars) for t in texts]

        # multiples of the generators, plus a non-member half of the time
        members = parts("x + y + z - x*y*z", "(x + y)^2", "(x + y)*(x + y + z)")
        others = parts("x + y", "z", "x*z + y^2", "x - y")
        rng = random.Random(11)
        verdicts = []
        for _ in range(40):
            q = MultiPoly.zero(nonisolated.vars)
            pieces = rng.sample(members, 2) + rng.sample(others, rng.randint(0, 1))
            for piece in pieces:
                scale = parse(
                    f"{rng.randint(1, 3)} + {rng.randint(-2, 2)}*z"
                    f" + {rng.randint(-2, 2)}*x*y",
                    vars=nonisolated.vars,
                )
                q = q + scale * piece
            v = membership(nonisolated, q, ideal=nonisolated_ideal).verdict
            assert (v is Verdict.IN_IDEAL) == reference_in(q), format_poly(q)
            verdicts.append(v)
        assert 10 <= verdicts.count(Verdict.IN_IDEAL) <= 30


# factors that are units at 0: nonisolated times them keeps its ideal, with
# deg_z >= 2
HIGHER_Z_DEGREE = {
    "times_linear_unit": [parse("x + y + z + i")],
    "times_polydisk_unit": [polydisk_to_halfplane(parse("5 - z1 - z2 - z3"))],
    "times_two_units": [parse("x + y + z + i"), parse("2*x + y + z + 2*i")],
}


class TestExactLinearReduction:
    """LinearForm membership reduces q exactly by the member of the
    subresultant sequence that is linear in z, for every z-degree."""

    @pytest.fixture(scope="class", params=list(HIGHER_Z_DEGREE))
    def product(self, request, nonisolated):
        p = nonisolated
        for factor in HIGHER_Z_DEGREE[request.param]:
            p = p * factor
        p = normalize_z_coefficient(p)
        return p, numerator_ideal(p, order=12)

    def test_reducer_is_the_first_generator_for_z_degree_one(
        self, nonisolated_ideal
    ):
        assert nonisolated_ideal.reducer == nonisolated_ideal.generators[0]

    def test_reducer_is_linear_with_unit_slope(self, product):
        p, desc = product
        assert p.var_degree("z") >= 2
        assert desc.case is CaseTag.LINEAR_FORM and desc.L_or_K == 2
        assert desc.reducer.var_degree("z") == 1
        assert not desc.reducer.coefficient((0, 0, 1)).is_zero()
        v = membership(p, desc.reducer, order=12, ideal=desc)
        assert v.verdict is Verdict.IN_IDEAL

    @pytest.mark.parametrize(
        "text, bounded",
        [
            ("x^13", False),
            ("x^12*y", False),
            ("(x + y)^13", True),
            ("(x + y)^2*z^3", True),
            # criterion 7(d)
            ("(x + y)^2", True),
            ("x + y + z - x*y*z", True),
            ("x + y", False),
            ("z", False),
        ],
    )
    def test_verdicts_past_the_order(self, product, text, bounded):
        # the truncated Re phi reduced x^13 to 0 through order 12
        p, desc = product
        v = membership(p, parse(text, vars=p.vars), order=12, ideal=desc)
        assert v.verdict is (Verdict.IN_IDEAL if bounded else Verdict.NOT_IN_IDEAL)

    def test_witness_exponent_is_the_exact_ell_order(self, product, nonisolated):
        # reference: the exact reduction by the z-linear first generator of
        # nonisolated, whose root agrees with the reducer's modulo (x + y)^2;
        # the ell-order is the least u-degree of the result at x = u - y
        p, desc = product
        gen0 = numerator_ideal(nonisolated).generators[0].slices("z")
        den, num = gen0[1], gen0[0]
        shift = {"x": parse("x - y", vars=("x", "y"))}

        def reference_order(q):
            slices = q.slices("z")
            deg_z = max(slices)
            total = MultiPoly.zero(den.vars)
            for k, qk in slices.items():
                total = total + qk * (-num) ** k * den ** (deg_z - k)
            return min(e[0] for e in total.subs(shift).terms)

        rng = random.Random(5)
        pieces = [parse(t, vars=p.vars) for t in ("x + y", "z", "x*z + y^2", "1")]
        checked = 0
        for _ in range(12):
            q = MultiPoly.zero(p.vars)
            for piece in rng.sample(pieces, 2):
                q = q + parse(
                    f"{rng.randint(1, 3)} + {rng.randint(-2, 2)}*z"
                    f" + {rng.randint(-2, 2)}*x^2",
                    vars=p.vars,
                ) * piece
            v = membership(p, q, order=12, ideal=desc)
            if v.verdict is Verdict.NOT_IN_IDEAL:
                assert v.witness["ell_exponent"] == reference_order(q), format_poly(q)
                checked += 1
        assert checked >= 6


def reduce_linear(q, reducer):
    """den^deg_z * q(x, -num/den) for reducer = den*z + num, slice by slice:
    sum_k q_k * (-num)^k * den^(deg_z - k), in the x-variables."""
    linear = reducer.slices("z")
    den = linear[1]
    num = linear.get(0, MultiPoly.zero(den.vars))
    slices = q.slices("z")
    deg_z = max(slices, default=0)
    total = MultiPoly.zero(den.vars)
    for k, qk in slices.items():
        total = total + qk * ((-num) ** k) * (den ** (deg_z - k))
    return total


@pytest.mark.parametrize(
    "factors", [(), ("x + y + z + i",), ("x + y + z + i", "2*x + y + z + 2*i")]
)
def test_pseudo_remainder_is_the_linear_reduction(nonisolated, factors):
    p = nonisolated
    for factor in factors:
        p = p * parse(factor, vars=p.vars)
    p = normalize_z_coefficient(p)
    desc = numerator_ideal(p, order=12)
    assert desc.case is CaseTag.LINEAR_FORM
    texts = [
        "0", "1", "x + y", "z", "(x + y)^2", "x + y + z - x*y*z", "x^13",
        "x^12*y", "(x + y)^13", "(x + y)^2*z^3", "(2*x - i*y)*z^4 + x*y*z^2 - 3",
    ]
    for text in texts:
        q = parse(text, vars=p.vars)
        expected = reduce_linear(q, desc.reducer).embed(p.vars)
        assert pseudo_remainder(q, desc.reducer) == expected, text
    verdict = membership(p, MultiPoly.zero(p.vars), order=12, ideal=desc).verdict
    assert verdict is Verdict.IN_IDEAL


# maps that fix 0 and keep stability, as the pairs `substitute_fractions`
# takes: a real Moebius map v -> v/(1 - c*v) of x or of z, or a linear map
# of (x, y) with nonnegative entries and nonzero determinant
X_MAPS = [{"x": ("x", "1 - x")}, {"x": ("x", "1 + 1/2*x")}, {"x": ("x", "1 - 3*x")}]
Z_MAPS = [{"z": ("z", "1 - z")}, {"z": ("z", "1 + 2*z")}, {"z": ("z", "1 - 1/3*z")}]
LINEAR_MAPS = [
    {"x": ("x + 2*y", "1")},
    {"x": ("x + 1/2*y", "1"), "y": ("3*x + y", "1")},
    {"y": ("1/4*x + y", "1")},
    {"x": ("3/2*x", "1"), "y": ("1/4*y", "1")},
    {"x": ("2*x", "1"), "y": ("4*y", "1")},
    {"x": ("4*x", "1"), "y": ("1/2*y", "1")},
]
TRANSPORT_CHECKS = [text for text, _ in DEGENERATE_CHECKS] + [
    "1", "x", "z", "x + y", "x - y", "x^2", "x*y", "x + y + z", "x^2*z^3",
]


def _transport(poly, spec):
    """poly under the map spec with its denominators cleared: q~ / p~ is a
    unit at 0 times (q/p) composed with the map, so boundedness carries over."""

    fractions = {
        v: tuple(parse(text, vars=poly.vars) for text in r) for v, r in spec.items()
    }
    return substitute_fractions(poly, fractions)


def _transport_cases():
    for name in ("linear3", "degenerate", "p2", "nonisolated"):
        # a Moebius map of x bends nonisolated's zero line of Im phi into a
        # curve, which no linear frame monomializes yet
        x_maps = [] if name == "nonisolated" else X_MAPS
        for spec in x_maps + Z_MAPS + LINEAR_MAPS:
            label = ", ".join(f"{v} -> ({a})/({b})" for v, (a, b) in spec.items())
            yield pytest.param(name, spec, id=f"{name}: {label}")


class TestTransport:
    """A map that fixes 0 and keeps stability carries the case, L_or_K and
    every verdict over to the transported p and numerators; on degenerate
    the verdicts are the bounded flags of DEGENERATE_CHECKS."""

    @pytest.mark.parametrize("name, spec", _transport_cases())
    def test_case_and_verdicts_carry_over(self, name, spec):
        p = EXAMPLES[name]()
        desc = numerator_ideal(p)
        moved = _transport(p, spec)
        moved_desc = numerator_ideal(moved)
        assert (moved_desc.case, moved_desc.L_or_K) == (desc.case, desc.L_or_K)
        bounded = dict(DEGENERATE_CHECKS) if name == "degenerate" else {}
        verdicts = set()
        for text in TRANSPORT_CHECKS:
            q = parse(text, vars=p.vars)
            v = membership(p, q, ideal=desc).verdict
            w = membership(moved, _transport(q, spec), ideal=moved_desc).verdict
            assert w is v, text
            if text in bounded:
                expect = Verdict.IN_IDEAL if bounded[text] else Verdict.NOT_IN_IDEAL
                assert v is expect, text
            verdicts.add(v)
        assert verdicts == {Verdict.IN_IDEAL, Verdict.NOT_IN_IDEAL}

    @pytest.mark.parametrize(
        "a, b",
        [
            (1, 1),
            (Fraction(3, 2), Fraction(1, 4)),
            (Fraction(1, 4), 2),
            (2, 4),
            (Fraction(2, 3), Fraction(3, 2)),
            (4, Fraction(1, 2)),
            (Fraction(1, 2), Fraction(2, 3)),
        ],
    )
    def test_membership_does_not_depend_on_the_order(self, degenerate, a, b):
        # the ideal solves phi through K = 4 at least, and every monomial of
        # degree > K lies in the polyhedron, so the truncation of q(x, -H)
        # never decides a verdict
        scaling = {"x": (f"{a}*x", "1"), "y": (f"{b}*y", "1")}
        p = _transport(degenerate, scaling)
        descs = {order: numerator_ideal(p, order=order) for order in (1, 2, 4, 12)}
        assert {d.branch.phi.order for d in descs.values()} == {4, 12}
        texts = [text for text, _ in DEGENERATE_CHECKS] + ["z", "x^2*z^3"]
        for text in texts:
            q = _transport(parse(text, vars=p.vars), scaling)
            verdicts = [
                membership(p, q, order=order, ideal=desc)
                for order, desc in descs.items()
            ]
            assert all(v.verdict is not Verdict.INDETERMINATE for v in verdicts)
            first = verdicts[0]
            for v in verdicts[1:]:
                assert v.verdict is first.verdict, text
                # x^2*z^3 reduces past degree 4, where the orders differ
                assert v.reduced_numerator.truncate(4) == first.reduced_numerator
                if text != "x^2*z^3":
                    assert v.reduced_numerator == first.reduced_numerator, text
                    assert v.certificate == first.certificate, text
                    assert v.witness == first.witness, text


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


class TestOutOfScope:
    def test_non_smooth_zero_reported(self, linear3, nonisolated):
        # a product vanishes doubly at 0: dp/dz(0) = 0
        with pytest.raises(PreconditionError):
            numerator_ideal(linear3 * nonisolated)

    def test_missing_z_reported(self):
        with pytest.raises(PreconditionError):
            numerator_ideal(parse("x + y", vars=("x", "y")))
