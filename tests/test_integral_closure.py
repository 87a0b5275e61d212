"""Membership in IC(g) via the Newton polyhedron, with generator lists."""

import math
import random
from fractions import Fraction

import pytest

from numideal.closure import (
    MonomialIdealIC,
    ic_generators,
    ic_membership,
    monomialize,
    rational_circle_points,
)
from numideal.errors import NoMonomializationFound
from numideal.parsing import parse
from numideal.poly import MultiPoly


@pytest.fixture(scope="module")
def table_ic(request):
    g = parse("(x - y)^2 + (x^2 + y^2)*(x + y)^2", vars=("x", "y"))
    return monomialize(g)


class TestMonomialize:
    def test_degenerate_change_and_halfspace(self, table_ic):
        assert table_ic.change == ((1, -1), (1, 1))
        assert set(table_ic.newton_points) == {(2, 0), (0, 4)}
        assert table_ic.halfspaces == ((2, 1, 4),)

    def test_identity_change_for_circle(self):
        ic = monomialize(parse("x^2 + y^2", vars=("x", "y")))
        assert ic.change == ((1, 0), (0, 1))
        assert set(ic.newton_points) == {(2, 0), (0, 2)}

    def test_single_monomial_for_line_square(self):
        ic = monomialize(parse("(x + y)^2", vars=("x", "y")))
        assert len(ic.newton_points) == 1

    def test_vanishing_face_direction_rejected(self):
        # (u - v^2)^2 + u^2 v^2 vanishes along u = v^2: no monomialization
        g = parse("(x - y^2)^2 + x^2*y^2", vars=("x", "y"))
        with pytest.raises(NoMonomializationFound):
            monomialize(g)

    def test_indefinite_rejected(self):
        with pytest.raises(NoMonomializationFound):
            monomialize(parse("x^2 - y^2", vars=("x", "y")))

    # the comparable polynomial g that puiseux.comparable_polynomial builds
    # for the degenerate example; its high-degree terms are large, so g is
    # comparable to u^2 + v^4 only close to 0
    PIPELINE_G = (
        "x^2 - 2*x*y + y^2 - 16*x^4 + 32*x^3*y + 672*x^6 - 1136*x^5*y"
        " - 35680*x^8 + 56960*x^7*y - 1188352*x^10 + 86551141/4*x^12"
        " - 3484657907/4*x^14"
    )

    @pytest.mark.parametrize(
        "a, b",
        [(Fraction(3, 2), Fraction(1, 4)), (Fraction(2), Fraction(4)), (Fraction(4), Fraction(1, 2))],
    )
    def test_polyhedron_invariant_under_axis_scaling(self, a, b):
        g = parse(self.PIPELINE_G, vars=("x", "y"))
        scaled = MultiPoly(
            g.vars, {e: c * (a ** e[0]) * (b ** e[1]) for e, c in g.terms.items()}
        )
        ic, ic_scaled = monomialize(g), monomialize(scaled)
        assert set(ic_scaled.newton_points) == set(ic.newton_points) == {(2, 0), (0, 4)}
        assert ic_scaled.halfspaces == ic.halfspaces == ((2, 1, 4),)

    def test_single_vertex_with_large_higher_terms(self):
        # G = u^2 v^2 (1 + 1000 u - 1000 v): the unit is far from 1 except
        # very close to 0, and still G ~ u^2 v^2 there
        g = parse("x^2*y^2 + 1000*x^3*y^2 - 1000*x^2*y^3", vars=("x", "y"))
        ic = monomialize(g)
        assert ic.change == ((1, 0), (0, 1))
        assert ic.newton_points == ((2, 2),)
        assert ic.halfspaces == ()
        gens, _ = ic_generators(ic)
        assert gens == [parse("x^2*y^2", vars=("x", "y"))]


class TestVerdictTable:
    """The worked integral-closure computation: G = u^2 + u^2 v^2 + v^4."""

    MEMBERS = ["(x-y)^2", "(x-y)*(x+y)^2", "(x-y)*(x+y)^3", "(x+y)^4"]
    NON_MEMBERS = ["(x-y)*(x+y)", "(x+y)^2", "(x+y)^3"]

    @pytest.mark.parametrize("text", MEMBERS)
    def test_members(self, table_ic, text):
        ok, cert = ic_membership(parse(text, vars=("x", "y")), table_ic)
        assert ok
        assert all(
            slack >= 0 for term in cert["terms"] for _, slack in term["slack"]
        )

    @pytest.mark.parametrize("text", NON_MEMBERS)
    def test_non_members(self, table_ic, text):
        ok, cert = ic_membership(parse(text, vars=("x", "y")), table_ic)
        assert not ok
        assert cert["curve"]["q_order"] < cert["curve"]["g_order"]

    def test_uv_witness_is_the_parabola(self, table_ic):
        ok, cert = ic_membership(parse("(x-y)*(x+y)", vars=("x", "y")), table_ic)
        assert not ok
        curve = cert["curve"]
        # u = s^2, v = s is exactly the u = v^2 substitution: q ~ s^3, g ~ s^4
        assert (curve["u_weight"], curve["v_weight"]) == (2, 1)
        assert (curve["q_order"], curve["g_order"]) == (3, 4)

    def test_fourth_degree_monomials_all_members(self, table_ic):
        for a in range(5):
            q = MultiPoly(("x", "y"), {(a, 4 - a): 1})
            ok, _ = ic_membership(q, table_ic)
            assert ok

    def test_witness_curve_blows_up_numerically(self, table_ic):
        q = parse("(x-y)*(x+y)", vars=("x", "y"))
        g = parse("(x - y)^2 + (x^2 + y^2)*(x + y)^2", vars=("x", "y"))
        ratios = []
        for k in range(2, 12):
            s = 2.0**-k
            u, v = s * s, s  # the witness curve in (u, v)
            x, y = (u + v) / 2, (v - u) / 2
            ratios.append(
                abs(q.eval_complex((x, y))) / abs(g.eval_complex((x, y)))
            )
        assert ratios[-1] > 4 * ratios[0]


class TestGenerators:
    def test_degenerate_generators(self, table_ic):
        gens, gens_uv = ic_generators(table_ic)
        assert gens_uv == [(0, 4), (1, 2), (2, 0)]
        expected = [
            parse("(x + y)^4", vars=("x", "y")),
            parse("(x - y)*(x + y)^2", vars=("x", "y")),
            parse("(x - y)^2", vars=("x", "y")),
        ]
        assert gens == expected

    def test_circle_generators(self):
        ic = monomialize(parse("x^2 + y^2", vars=("x", "y")))
        gens, gens_uv = ic_generators(ic)
        assert gens_uv == [(0, 2), (1, 1), (2, 0)]
        assert set(gens) == {
            parse("x^2", vars=("x", "y")),
            parse("x*y", vars=("x", "y")),
            parse("y^2", vars=("x", "y")),
        }

    def test_line_square_generator(self):
        ic = monomialize(parse("(x + y)^2", vars=("x", "y")))
        gens, gens_uv = ic_generators(ic)
        assert gens == [parse("(x + y)^2", vars=("x", "y"))]

    def test_generator_soundness(self, table_ic):
        gens, _ = ic_generators(table_ic)
        for gen in gens:
            ok, _ = ic_membership(gen, table_ic)
            assert ok

    def test_generator_completeness_desk_scale(self, table_ic):
        # every monomial of degree <= 6 passing membership is divisible by
        # a generator in the (u, v) frame
        _, gens_uv = ic_generators(table_ic)
        for a in range(7):
            for b in range(7 - a):
                q = MultiPoly(("u", "v"), {(a, b): 1})
                member = table_ic.contains_exponent(a, b)
                generated = any(a >= ga and b >= gb for ga, gb in gens_uv)
                assert member == generated


class TestHalfspaceVsHull:
    def _hull_contains(self, points, alpha):
        """Independent oracle: alpha in conv(points) + R^2_{>=0}, exactly.

        For 2D it is enough to check single points and hull edges: alpha
        dominates some convex combination of at most two points.
        """
        pts = sorted(points)
        au, av = alpha
        for (a, b) in pts:
            if au >= a and av >= b:
                return True
        for (a1, b1) in pts:
            for (a2, b2) in pts:
                if (a1, b1) >= (a2, b2):
                    continue
                # need lam in [0,1] with lam*a1 + (1-lam)*a2 <= au and same for v
                lo, hi = Fraction(0), Fraction(1)
                if a1 != a2:
                    bound = (Fraction(au) - a2) / (a1 - a2)
                    if a1 > a2:
                        hi = min(hi, bound)
                    else:
                        lo = max(lo, bound)
                elif a1 > au:
                    continue
                if b1 != b2:
                    bound = (Fraction(av) - b2) / (b1 - b2)
                    if b1 > b2:
                        hi = min(hi, bound)
                    else:
                        lo = max(lo, bound)
                elif b1 > av:
                    continue
                if lo <= hi:
                    return True
        return False

    def test_random_points_agree(self, table_ic):
        rng = random.Random(424242)
        for _ in range(300):
            alpha = (rng.randint(0, 6), rng.randint(0, 6))
            assert table_ic.contains_exponent(*alpha) == self._hull_contains(
                table_ic.newton_points, alpha
            )

    def test_circle_case_agrees(self):
        ic = monomialize(parse("x^2 + y^2", vars=("x", "y")))
        for a in range(5):
            for b in range(5):
                assert ic.contains_exponent(a, b) == self._hull_contains(
                    ic.newton_points, (a, b)
                )

    def test_nonconvex_pareto_frontier(self):
        # x^4 y^6 is Pareto-minimal among the exponents but lies above the
        # hull chord from (0,8) to (6,0); it must not shrink the polyhedron
        ic = monomialize(parse("x^6 + x^4*y^6 + y^8", vars=("x", "y")))
        assert ic.contains_exponent(1, 7)  # 4a + 3b = 25 >= 24
        assert not ic.contains_exponent(1, 6)
        for a in range(10):
            for b in range(10):
                assert ic.contains_exponent(a, b) == self._hull_contains(
                    ic.newton_points, (a, b)
                ), (a, b)


class TestOracleAgreement:
    def test_verdicts_match_sampled_boundedness(self, table_ic):
        g = parse("(x - y)^2 + (x^2 + y^2)*(x + y)^2", vars=("x", "y"))
        pairs = (
            [(t, True) for t in TestVerdictTable.MEMBERS]
            + [(t, False) for t in TestVerdictTable.NON_MEMBERS]
        )
        for text, expected in pairs:
            q = parse(text, vars=("x", "y"))
            ok, _ = ic_membership(q, table_ic)
            assert ok == expected
            # sampled |q|/g across annuli: bounded iff member
            maxima = []
            for k in (4, 6, 8, 10):
                r = 2.0**-k
                worst = 0.0
                for j in range(256):
                    a = 2 * math.pi * j / 256
                    x, y = r * math.cos(a), r * math.sin(a)
                    gv = g.eval_complex((x, y)).real
                    worst = max(worst, abs(q.eval_complex((x, y))) / gv)
                maxima.append(worst)
            grows = maxima[-1] > 3.9 * maxima[0]
            assert grows == (not expected), (text, maxima)


class TestRationalCirclePoints:
    def test_points_have_exact_radius(self):
        for x, y in rational_circle_points(Fraction(1, 16), 8):
            assert x * x + y * y == Fraction(1, 256)
