"""Exact arithmetic core: parser, evaluation, reflection, series operators."""

import gc
import math
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

    def test_leaves_no_reference_cycle(self, linear3):
        # the cached powers must be freed on return, not by the cycle collector
        phi = parse("x + i*y^2", vars=("x", "y"))
        gc.collect()
        gc.disable()
        try:
            linear3.subs({"z": phi.embed(linear3.vars)}, order=4)
            assert gc.collect() == 0
        finally:
            gc.enable()


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


def naive_product(p, q, order=None):
    """Schoolbook product with GaussianRational arithmetic term by term."""
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if order is None or sum(e) <= order:
                terms[e] = terms.get(e, GaussianRational(0)) + c1 * c2
    return MultiPoly(p.vars, terms)


def naive_subs(p, repls, order=None):
    """p with its i-th variable replaced by repls[i], by naive products."""
    vars = repls[0].vars
    total = MultiPoly.zero(vars)
    for e, c in p.terms.items():
        term = MultiPoly.constant(vars, c)
        for r, k in zip(repls, e):
            for _ in range(k):
                term = naive_product(term, r)
        total = total + term
    return total if order is None else total.truncate(order)


def rand_imaginary_poly(rng, vars=("x", "y")):
    return MultiPoly(
        vars,
        {
            tuple(rng.randint(0, 3) for _ in vars): GaussianRational(
                0, Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            )
            for _ in range(5)
        },
    )


def assert_canonical(p):
    for c in p.terms.values():
        assert not c.is_zero()
        for part in (c.re, c.im):
            assert type(part) is Fraction
            assert part.denominator > 0
            assert math.gcd(part.numerator, part.denominator) == 1


class TestProductKernel:
    def pairs(self, seed, count=40):
        rng = random.Random(seed)
        for k in range(count):
            if k % 3 == 2:
                yield rand_imaginary_poly(rng), rand_poly(rng, vars=("x", "y"))
            else:
                yield (
                    rand_poly(rng, vars=("x", "y"), n_terms=rng.randint(1, 8)),
                    rand_poly(rng, vars=("x", "y"), n_terms=rng.randint(1, 8)),
                )

    def test_product_matches_naive_reference(self):
        for p, q in self.pairs(41):
            got, ref = p * q, naive_product(p, q)
            assert got == ref
            # same term order, so float evaluation sums in the same order
            assert list(got.terms) == list(ref.terms)
            assert_canonical(got)

    def test_truncated_product_matches_naive_reference(self):
        for p, q in self.pairs(43):
            top = p.degree() + q.degree()
            for order in range(top + 1):
                got, ref = p.mul_truncated(q, order), naive_product(p, q, order)
                assert got == ref
                assert list(got.terms) == list(ref.terms)
                assert_canonical(got)

    def test_truncation_keeps_degree_equal_to_order(self):
        x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
        p = x.scale(Fraction(1, 3)) + y.scale(GaussianRational(0, Fraction(1, 2)))
        q = x * y + x * x
        assert p.mul_truncated(q, 3) == p * q
        assert p.mul_truncated(q, 2).is_zero()
        assert p.mul_truncated(q, 2) == MultiPoly.zero(("x", "y"))

    def test_cancellation(self):
        xy = ("x", "y")
        p = parse("x + i", vars=xy) * parse("x - i", vars=xy)
        assert p == parse("x^2 + 1", vars=xy)
        assert (0, 1) not in p.terms and (1, 0) not in p.terms
        assert parse("1 + x", vars=xy).mul_truncated(
            parse("1 - x", vars=xy), 1
        ) == MultiPoly.constant(xy, 1)
        for q in (parse("x - i*y", vars=xy), MultiPoly.zero(xy)):
            zero = MultiPoly.zero(xy)
            assert q * zero == zero and zero * q == zero
            assert zero.mul_truncated(q, 4) == zero and (q * zero).terms == {}

    def test_subs_matches_naive_reference(self):
        rng = random.Random(47)
        for _ in range(15):
            p = rand_poly(rng, vars=("x", "y"), max_deg=2, n_terms=4)
            repls = [
                rand_poly(rng, vars=("u", "v"), max_deg=2, n_terms=3),
                rand_imaginary_poly(rng, vars=("u", "v")),
            ]
            assignments = dict(zip(p.vars, repls))
            assert p.subs(assignments) == naive_subs(p, repls)
            for order in (0, 2, 5):
                got = p.subs(assignments, order=order)
                assert got == naive_subs(p, repls, order)
                assert_canonical(got)

    def test_variable_mismatch_raises(self):
        p = parse("x + y", vars=("x", "y"))
        q = parse("x + y", vars=("y", "x"))
        with pytest.raises(ValueError):
            p * q
        with pytest.raises(ValueError):
            p.mul_truncated(q, 3)


class TestComplexEvaluationCache:
    def test_repeated_evaluation_matches_fresh_copy(self):
        rng = random.Random(53)
        for _ in range(20):
            p = rand_poly(rng)
            pt = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in "xyz")
            # the second point runs on the coefficients kept from the first
            for point in (pt, tuple(z / 2 for z in pt)):
                first, second = p.eval_complex(point), p.eval_complex(point)
                assert first == second == MultiPoly(p.vars, p.terms).eval_complex(point)

    def test_arity_error_before_and_after_evaluation(self, linear3):
        with pytest.raises(ArityError):
            linear3.eval_complex((1j, 1j))
        linear3.eval_complex((1j, 1j, 1j))
        with pytest.raises(ArityError):
            linear3.eval_complex((1j, 1j, 1j, 1j))

    def test_value_semantics_unchanged_by_evaluation(self, linear3):
        copy = MultiPoly(linear3.vars, dict(linear3.terms))
        before = (hash(linear3), repr(linear3))
        linear3.eval_complex((0.5, 0.25j, 1))
        assert linear3 == copy and copy == linear3
        assert (hash(linear3), repr(linear3)) == before == (hash(copy), repr(copy))
        for name in ("terms", "vars", "_complex"):
            with pytest.raises(AttributeError):
                setattr(linear3, name, None)
