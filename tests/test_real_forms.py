"""Sturm-based definiteness and the numeric comparability estimator."""

import math
import random
from fractions import Fraction

import pytest

from numideal.errors import PreconditionError
from numideal.forms import (
    HomogeneousForm,
    _gaussian_prime_factors,
    comparability_ratio,
    count_real_roots,
    is_nonnegative,
    is_positive_definite,
    p_divmod,
    p_eval,
    p_gcd,
    poly_nonneg_on_reals,
    sampled_circle_min,
)
from numideal.gaussian import GaussianRational as G
from numideal.parsing import parse


def form_of(text):
    return HomogeneousForm.from_poly(parse(text, vars=("x", "y")))


class TestSturm:
    def test_count_real_roots_quadratics(self):
        assert count_real_roots([Fraction(1), Fraction(0), Fraction(1)]) == 0
        assert count_real_roots([Fraction(-1), Fraction(0), Fraction(1)]) == 2
        assert count_real_roots([Fraction(1), Fraction(-2), Fraction(1)]) == 1

    def test_nonneg_on_reals(self):
        assert poly_nonneg_on_reals([Fraction(1), Fraction(-2), Fraction(1)])
        assert not poly_nonneg_on_reals([Fraction(-1), Fraction(0), Fraction(1)])
        assert poly_nonneg_on_reals([])


class TestGaussianCoefficientLists:
    # (T^2 + i)(T - 1) = T^3 - T^2 + i T - i and (T + i)(T - 1)
    A = [G(0, -1), G(0, 1), G(-1), G(1)]
    B = [G(0, -1), G(-1, 1), G(1)]

    def test_divmod_quotient_with_interior_zero(self):
        q, r = p_divmod(self.A, [G(-1), G(1)])
        assert q == [G(0, 1), G(0), G(1)] and r == []
        assert all(isinstance(c, G) for c in q)

    def test_gcd_and_eval(self):
        g = p_gcd(self.A, self.B)
        assert g == [G(-1), G(1)]
        assert all(isinstance(c, G) for c in g)
        x = G(2, -3)
        value = p_eval(self.A, x)
        assert isinstance(value, G)
        assert value == (x * x + G(0, 1)) * (x - 1)
        assert p_eval(self.A, G(1)) == 0 and p_eval(self.B, G(0, -1)) == 0


class TestGaussianPrimeFactors:
    @staticmethod
    def product(factors):
        re, im = 1, 0
        for (a, b), power in factors:
            for _ in range(power):
                re, im = re * a - im * b, re * b + im * a
        return re, im

    @pytest.mark.parametrize(
        "g",
        [
            (100000007, 0),
            (3 * 10000019, 5 * 10000019),
            (0, -7 * 13 * 13),
            (12, -18),
        ],
    )
    def test_product_equals_input_up_to_unit(self, g):
        re, im = self.product(_gaussian_prime_factors(g))
        units = [(re, im), (-im, re), (-re, -im), (im, -re)]
        assert g in units

    def test_large_rational_prime_content_is_one_factor(self):
        # 100000007 is 3 mod 4, so it stays prime in Z[i]
        assert _gaussian_prime_factors((100000007, 0)) == [((100000007, 0), 1)]


class TestDefiniteness:
    def test_worked_examples(self):
        assert is_positive_definite(form_of("2*(x^2 + x*y + y^2)"))
        assert not is_positive_definite(form_of("1/4*(x - y)^2"))
        assert is_positive_definite(form_of("(x^2 + y^2)^2"))

    def test_nonnegativity(self):
        assert is_nonnegative(form_of("(x - y)^2"))
        assert not is_nonnegative(form_of("x^2 - y^2"))
        assert is_nonnegative(form_of("1/4*(x - y)^2"))
        assert is_nonnegative(form_of("2*(x^2 + x*y + y^2)"))
        assert is_nonnegative(form_of("1/16*(9*x^2 - 2*x*y + 9*y^2)*(x + y)^2"))

    def test_odd_degree_never_definite(self):
        assert not is_positive_definite(form_of("x^3 + y^3"))
        assert not is_nonnegative(form_of("x^3"))

    def test_zero_form_rejected(self):
        with pytest.raises(PreconditionError):
            HomogeneousForm.from_poly(parse("0", vars=("x", "y")))

    def test_definite_implies_nonnegative_random(self):
        rng = random.Random(101)
        for _ in range(60):
            # squares plus epsilon are positive definite by construction
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            eps = Fraction(rng.randint(1, 5), 7)
            p = parse(
                f"({a}*x + {b}*y)^2 + {eps.numerator}/{eps.denominator}*(x^2 + y^2)",
                vars=("x", "y"),
            )
            f = HomogeneousForm.from_poly(p)
            assert is_positive_definite(f)
            assert is_nonnegative(f)

    def test_definite_form_circle_bound(self):
        f = form_of("2*(x^2 + x*y + y^2)")
        c = sampled_circle_min(f, 2000)
        assert c > 0
        for k in range(50):
            a = 2 * math.pi * k / 50
            r = 0.1
            x, y = r * math.cos(a), r * math.sin(a)
            assert f.eval_float(x, y) >= (c - 1e-9) * r**2


def _rand_form(rng, degree):
    coeffs = {}
    for k in range(degree + 1):
        coeffs[(k, degree - k)] = Fraction(rng.randint(-9, 9))
    from numideal.poly import MultiPoly

    return MultiPoly(("x", "y"), coeffs)


class TestGridOracleAgreement:
    def test_sturm_agrees_with_grid_on_100_random_forms(self):
        rng = random.Random(20240813)
        checked = 0
        while checked < 100:
            degree = rng.choice([2, 4, 6])
            p = _rand_form(rng, degree)
            if p.is_zero():
                continue
            f = HomogeneousForm.from_poly(p)
            verdict = is_positive_definite(f)
            grid_min = sampled_circle_min(f, 10_000)
            assert verdict == (grid_min > 0), (
                f"disagreement for {p}: sturm={verdict} grid_min={grid_min}"
            )
            checked += 1


class TestComparability:
    def test_equal_evaluators_give_unit_interval(self):
        f = lambda x, y: x * x + y * y
        res = comparability_ratio(f, f, [2.0**-k for k in range(4, 11)])
        lo, hi = res.overall
        assert lo == hi == 1.0
        assert not res.fail

    def test_degenerate_im_phi_vs_closed_form_g(self, degenerate, degenerate_g):
        from numideal.branch import solve_branch

        im_phi = solve_branch(degenerate, 8).phi.imag_part()
        f = lambda x, y: im_phi.poly.eval_complex((x, y)).real
        g = lambda x, y: degenerate_g.eval_complex((x, y)).real
        res = comparability_ratio(f, g, [2.0**-k for k in range(4, 11)])
        assert not res.fail
        lo, hi = res.overall
        assert 0 < lo <= hi < 10

    def test_degenerate_direction_fails(self):
        f = lambda x, y: x * x + y * y
        g = lambda x, y: x * x
        res = comparability_ratio(f, g, [2.0**-k for k in range(4, 11)])
        assert res.fail

    def test_vanishing_f_with_nonzero_g_raises(self):
        f = lambda x, y: 0.0
        g = lambda x, y: x * x + y * y
        with pytest.raises(PreconditionError):
            comparability_ratio(f, g, [0.25])
