"""Exact arithmetic core: parser, evaluation, reflection, series operators."""

import random
from fractions import Fraction

import pytest

from numideal.errors import ArityError, ParseError
from numideal.gaussian import GaussianRational
from numideal.parsing import format_poly, parse
from numideal.poly import (
    MultiPoly,
    TruncatedSeries,
    linear_change,
    newton_polygon,
    series_invert,
    substitute,
)


def rand_gaussian(rng, span=6):
    return GaussianRational(
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
    )


def rand_poly(rng, vars=("x", "y", "z"), max_deg=3, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_deg) for _ in vars)
        terms[exps] = rand_gaussian(rng)
    return MultiPoly(vars, terms)


class TestParse:
    def test_linear3_has_seven_terms(self, linear3):
        assert len(linear3.terms) == 7
        assert linear3.coefficient((1, 1, 0)) == GaussianRational(0, -2)
        assert linear3.coefficient((1, 1, 1)) == GaussianRational(-3)

    def test_zero_polynomial(self):
        assert parse("0").terms == {}
        assert format_poly(parse("0", vars=("x",))) == "0"

    def test_round_trip_1000_random(self):
        rng = random.Random(20240811)
        for _ in range(1000):
            p = rand_poly(rng)
            assert parse(format_poly(p), vars=p.vars) == p

    def test_rational_literals_and_powers(self):
        p = parse("3/4*x^2 - 1/2*i*y + 7")
        assert p.coefficient((2, 0)) == GaussianRational(Fraction(3, 4))
        assert p.coefficient((0, 1)) == GaussianRational(0, Fraction(-1, 2))
        assert p.coefficient((0, 0)) == GaussianRational(7)

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse("x + * y")
        assert err.value.position is not None

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse("x + w")


class TestEval:
    def test_linear3_vanishes_at_origin(self, linear3):
        assert linear3.eval_exact((0, 0, 0)).is_zero()

    def test_linear3_at_iii_is_12i(self, linear3):
        i = GaussianRational(0, 1)
        assert linear3.eval_exact((i, i, i)) == GaussianRational(0, 12)
        assert abs(linear3.eval_complex((1j, 1j, 1j)) - 12j) < 1e-12

    def test_coordinate_projection(self):
        p = parse("z", vars=("x", "y", "z"))
        assert p.eval_exact((5, 7, 11)) == GaussianRational(11)

    def test_arity_mismatch(self, linear3):
        with pytest.raises(ArityError):
            linear3.eval_exact((1, 2))


class TestReflect:
    def test_linear3_reflection_matches_display(self, linear3):
        expected = parse("x + y + z + 2*i*(x*y + x*z + y*z) - 3*x*y*z")
        assert linear3.reflect() == expected

    def test_real_coefficients_fixed(self):
        p = parse("x^2 - 3*y + 1/2", vars=("x", "y"))
        assert p.reflect() == p

    def test_involution_random(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rand_poly(rng)
            assert p.reflect().reflect() == p

    def test_ring_homomorphism_over_conjugation(self):
        rng = random.Random(11)
        for _ in range(30):
            p, q = rand_poly(rng), rand_poly(rng)
            assert (p * q).reflect() == p.reflect() * q.reflect()
            assert (p + q).reflect() == p.reflect() + q.reflect()


class TestSeriesOperators:
    def test_im_series_of_linear3_phi(self, linear3):
        from numideal.branch import solve_branch

        phi = solve_branch(linear3, 2).phi
        im2 = phi.imag_part().homogeneous_part(2)
        assert im2 == parse("2*x^2 + 2*x*y + 2*y^2", vars=("x", "y"))

    def test_real_series_has_zero_imag(self):
        p = parse("x + 2*x*y - y^2", vars=("x", "y"))
        assert TruncatedSeries(p, 4).imag_part().is_zero()

    def test_real_imag_recover_series(self):
        rng = random.Random(13)
        for _ in range(30):
            p = rand_poly(rng, vars=("x", "y"))
            re, im = p.real_part(), p.imag_part()
            assert re + im.scale(GaussianRational(0, 1)) == p

    def test_im_series_agrees_pointwise_on_reals(self):
        rng = random.Random(17)
        for _ in range(20):
            p = rand_poly(rng, vars=("x", "y"))
            pt = (Fraction(rng.randint(-3, 3), 7), Fraction(rng.randint(-3, 3), 9))
            whole = p.eval_exact(pt)
            assert p.imag_part().eval_exact(pt) == GaussianRational(whole.im)
            assert p.real_part().eval_exact(pt) == GaussianRational(whole.re)

    def test_homogeneous_parts_partition(self):
        rng = random.Random(19)
        for _ in range(20):
            p = rand_poly(rng)
            parts = p.homogeneous_parts()
            total = MultiPoly.zero(p.vars)
            for d, part in parts.items():
                assert part.degree() == part.min_degree() == d
                total = total + part
            assert total == p

    def test_homogeneous_input_single_part(self):
        p = parse("x*y + y^2", vars=("x", "y"))
        assert list(p.homogeneous_parts()) == [2]


class TestSeriesInvert:
    def test_weierstrass_unit_of_linear3(self):
        # geometric-series oracle: 1/(1-w) = 1 + w + w^2 + ... with
        # w = 2i(x+y) + 3xy, truncated at total degree 2
        u = TruncatedSeries(parse("1 - 2*i*(x + y) - 3*x*y", vars=("x", "y")), 2)
        w = parse("2*i*(x + y) + 3*x*y", vars=("x", "y"))
        oracle = (
            MultiPoly.constant(("x", "y"), 1) + w + w.mul_truncated(w, 2)
        ).truncate(2)
        assert series_invert(u).poly == oracle
        assert oracle == parse(
            "1 + 2*i*(x + y) + 3*x*y - 4*(x + y)^2", vars=("x", "y")
        ).truncate(2)

    def test_constant_inverts(self):
        c = TruncatedSeries(parse("2/3", vars=("x",)), 5)
        assert series_invert(c).poly == parse("3/2", vars=("x",))

    def test_defining_property_random(self):
        rng = random.Random(23)
        for _ in range(20):
            p = rand_poly(rng, vars=("x", "y"), max_deg=2, n_terms=4)
            p = p + MultiPoly.constant(("x", "y"), rng.randint(1, 5))
            u = TruncatedSeries(p, 6)
            prod = u * series_invert(u)
            assert prod.poly == MultiPoly.constant(("x", "y"), 1)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series_invert(TruncatedSeries(parse("x", vars=("x",)), 3))


class TestSubstitute:
    def test_cancellation_leaves_imaginary_part(self, linear3):
        from numideal.branch import solve_branch

        phi = solve_branch(linear3, 6).phi
        z_plus_phi = MultiPoly.variable(("x", "y", "z"), "z") + phi.poly.embed(
            ("x", "y", "z")
        )
        res = substitute(z_plus_phi, "z", TruncatedSeries(-phi.poly.real_part(), 6))
        assert res.poly == phi.imag_part().poly.scale(GaussianRational(0, 1)).truncate(6)

    def test_nonisolated_reduction_divisible_by_square(self, nonisolated):
        # z = -(x+y)/(1-xy) makes p a unit multiple of (x+y)^2:
        # exact value 2i(x+y)^2/(1-xy)
        inv = series_invert(TruncatedSeries(parse("1 - x*y", vars=("x", "y")), 8))
        s = inv * parse("-(x + y)", vars=("x", "y"))
        reduced = substitute(nonisolated, "z", s)
        expected = (
            parse("(x + y)^2", vars=("x", "y")).scale(GaussianRational(0, 2))
            * inv.poly
        )
        assert reduced.poly == expected.truncate(reduced.order)

    def test_identity_substitution(self, linear3):
        z = MultiPoly.variable(linear3.vars, "z")
        assert substitute(linear3, "z", z) == linear3


class TestRingAxioms:
    def test_associativity_distributivity(self):
        rng = random.Random(29)
        for _ in range(25):
            a, b, c = (rand_poly(rng, n_terms=4) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)


class TestSlicesAndLinearChange:
    def test_slices_reassemble(self, linear3):
        rng = random.Random(31)
        for p in [linear3] + [rand_poly(rng) for _ in range(20)]:
            z = MultiPoly.variable(p.vars, "z")
            total = MultiPoly.zero(p.vars)
            for k, ck in p.slices("z").items():
                assert ck.vars == ("x", "y")
                total = total + ck.embed(p.vars) * z**k
            assert total == p

    def test_change_substitutes_rows(self):
        # x -> u + 2v, y -> 3u + 4v
        q = parse("x*y - 5*x", vars=("x", "y"))
        u, v = (MultiPoly.variable(("u", "v"), name) for name in ("u", "v"))
        x, y = u + v.scale(2), u.scale(3) + v.scale(4)
        expected = x * y - x.scale(5)
        assert linear_change(q, ((1, 2), (3, 4)), ("u", "v")) == expected

    def test_inverse_change_is_identity(self):
        rng = random.Random(37)
        for _ in range(20):
            while True:
                a, b, c, d = (
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)
                )
                det = a * d - b * c
                if det != 0:
                    break
            rows = ((a, b), (c, d))
            inverse = ((d / det, -b / det), (-c / det, a / det))
            q = rand_poly(rng, vars=("x", "y"))
            quv = linear_change(q, rows, ("u", "v"))
            assert quv.vars == ("u", "v")
            assert linear_change(quv, inverse, ("x", "y")) == q


class TestNewtonPolygon:
    def test_drops_dominated_and_collinear_points(self):
        # x^4 y^6 lies above the chord from (0, 8) to (6, 0), x^3 y^4 on it,
        # and x^7 y is dominated by x^6
        g = parse("x^6 + x^4*y^6 + y^8", vars=("x", "y"))
        assert newton_polygon(g.terms) == [(0, 8), (6, 0)]
        g = g + parse("x^3*y^4 + x^7*y + y^9", vars=("x", "y"))
        assert newton_polygon(g.terms) == [(0, 8), (6, 0)]

    def test_vertices_of_a_convex_staircase(self):
        points = [(0, 6), (1, 3), (3, 1), (6, 0), (2, 2), (4, 4)]
        assert newton_polygon(points) == [(0, 6), (1, 3), (3, 1), (6, 0)]
        assert newton_polygon([(2, 2)]) == [(2, 2)]
