"""Newton-Puiseux branches and the comparable polynomial g."""

import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from numideal.branch import solve_branch
from numideal.errors import PreconditionError
from numideal.gaussian import GaussianRational
from numideal.parsing import parse
from numideal.poly import MultiPoly, TruncatedSeries
from numideal.puiseux import (
    _gaussian_divisors,
    _gaussian_prime_factors,
    branch_exponents,
    branch_factor_poly,
    comparable_polynomial,
    newton_puiseux,
    qi_roots,
    twisted_is_real,
    weierstrass_prepare,
)

from comparability import comparability_ratio


def _p_mul(a, b):
    """Product of two ascending coefficient lists over Q(i)."""
    out = [GaussianRational(0)] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = out[j + k] + x * y
    return out


def _im_phi(p, order):
    """Im phi of the branch of p, as a series through the order."""
    phi = solve_branch(p, order).phi
    return TruncatedSeries(phi.poly.imag_part(), phi.order)


def _substitute_branch(f, branch):
    """f(t^r, psi(t)) as an exact polynomial in t."""
    tvars = ("t",)
    t_r = MultiPoly(tvars, {(branch.r,): GaussianRational(1)})
    return f.subs({f.vars[0]: t_r, f.vars[1]: branch.psi.poly})


class TestQiRoots:
    def test_gaussian_rational_roots(self):
        # (T - 1)(T + 2i)(T - 1/2) expanded by repeated multiplication
        one = GaussianRational(1)
        coeffs = [one]
        for root in (GaussianRational(1), GaussianRational(0, -2), GaussianRational(Fraction(1, 2))):
            new = [GaussianRational(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                new[k + 1] = new[k + 1] + c
                new[k] = new[k] + c * (-root)
            coeffs = new
        roots, leftover = qi_roots(coeffs)
        assert len(leftover) <= 1
        found = {(r.re, r.im) for r, _ in roots}
        assert found == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(-2)), (Fraction(1, 2), Fraction(0))}

    def test_multiplicity(self):
        # (T - i)^2
        coeffs = [GaussianRational(-1), GaussianRational(0, -2), GaussianRational(1)]
        roots, leftover = qi_roots(coeffs)
        assert roots == [(GaussianRational(0, 1), 2)]
        # (T - (1 + 2i))^2 (T + 3): the double root is found among Z[i]
        # divisor candidates and counted by repeated exact division
        coeffs = [
            GaussianRational(-9, 12),
            GaussianRational(-9, -8),
            GaussianRational(1, -4),
            GaussianRational(1),
        ]
        roots, leftover = qi_roots(coeffs)
        assert roots == [(GaussianRational(-3), 1), (GaussianRational(1, 2), 2)]
        assert leftover == [GaussianRational(1)]

    def test_known_roots_times_irreducible_cubic(self):
        # the search runs for degree >= 3: every known root comes back, with
        # its multiplicity, and T^3 - 2, which has no root in Q(i), is left
        rng = random.Random(17)
        cubic = [GaussianRational(c) for c in (-2, 0, 0, 1)]
        for _ in range(12):
            known = {}
            for _ in range(rng.randint(1, 3)):
                root = GaussianRational(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                )
                known[root] = known.get(root, 0) + rng.randint(1, 2)
            coeffs = [GaussianRational(rng.choice([1, 2, -3]), rng.randint(-1, 1))]
            for root, mult in known.items():
                for _ in range(mult):
                    coeffs = _p_mul(coeffs, [-root, GaussianRational(1)])
            roots, leftover = qi_roots(_p_mul(coeffs, cubic))
            assert roots == sorted(known.items(), key=lambda rm: (rm[0].re, rm[0].im))
            scale = leftover[0] / cubic[0]
            assert leftover == [c * scale for c in cubic]


    def test_seeded_products_of_linear_factors(self):
        # a constant times 1-4 factors T - r, r in Q(i) with 0 and repeats
        # among them, and half the time times T^2 - 2: every r comes back
        # with its multiplicity, and the constant times T^2 - 2, or the
        # constant alone, is left
        rng = random.Random(29)
        quadratic = [GaussianRational(v) for v in (-2, 0, 1)]
        seen = Counter()
        for _ in range(60):
            known = Counter()
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.2:
                    root = GaussianRational(0)
                elif known and rng.random() < 0.3:
                    root = rng.choice(sorted(known, key=str))
                else:
                    root = GaussianRational(
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                        Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                    )
                known[root] += 1
            constant = GaussianRational(
                Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3)),
                rng.randint(-2, 2),
            )
            coeffs = [constant]
            for root, mult in known.items():
                for _ in range(mult):
                    coeffs = _p_mul(coeffs, [-root, GaussianRational(1)])
            rest = [constant]
            if rng.random() < 0.5:
                coeffs, rest = _p_mul(coeffs, quadratic), _p_mul(rest, quadratic)
            roots, leftover = qi_roots(coeffs)
            assert roots == sorted(known.items(), key=lambda rm: (rm[0].re, rm[0].im))
            assert leftover == rest
            seen["zero root"] += GaussianRational(0) in known
            seen["repeated root"] += max(known.values()) > 1
            seen["quadratic left"] += len(rest) == 3
        assert min(seen.values()) >= 10, seen


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

    def test_divisors_one_per_associate_class(self):
        # 10 = -i (1 + i)^2 (2 + i) (2 - i): 3 * 2 * 2 classes of divisors
        divisors = _gaussian_divisors((10, 0))
        assert len(divisors) == 12
        classes = set()
        for a, b in divisors:
            norm = a * a + b * b
            # d | 10 exactly when 10 * conj(d) / norm(d) is in Z[i]
            assert (10 * a) % norm == 0 and (10 * b) % norm == 0
            classes.add(frozenset({(a, b), (-b, a), (-a, -b), (b, -a)}))
        assert len(classes) == 12


class TestTwistedRealness:
    def test_quarter_turns(self):
        z = GaussianRational(2, 3)
        assert twisted_is_real(z, Fraction(0)) is False
        assert twisted_is_real(GaussianRational(2), Fraction(0))
        assert twisted_is_real(GaussianRational(0, 5), Fraction(1, 4))
        assert twisted_is_real(GaussianRational(1, -1), Fraction(1, 8))
        assert twisted_is_real(GaussianRational(1, 1), Fraction(3, 8))

    def test_generic_angle_only_zero(self):
        assert not twisted_is_real(GaussianRational(1), Fraction(1, 3))
        assert twisted_is_real(GaussianRational(0), Fraction(1, 3))


class TestNewtonPuiseux:
    def test_classical_cusp(self):
        branches = newton_puiseux(parse("y^2 - x^3", vars=("x", "y")), order=6)
        assert len(branches) == 1
        b = branches[0]
        assert b.r == 2
        assert b.psi.poly == parse("x^3", vars=("x",)).rename_vars({"x": "t"})
        assert b.conjugate_partner == 0

    def test_geometric_series_branch(self):
        # y(1 - 2ix) = x: psi = x + 2i x^2 - 4x^3 - 8i x^4 + ...
        f = parse("y - 2*i*x*y - x", vars=("x", "y"))
        b = newton_puiseux(f, order=5)[0]
        assert b.r == 1
        coeffs = dict(b.coeff_items())
        geometric = GaussianRational(1)
        two_i = GaussianRational(0, 2)
        for m in range(1, 6):
            assert coeffs.get(m, GaussianRational(0)) == geometric
            geometric = geometric * two_i

    def test_branch_residual_exact(self, degenerate):
        im_phi = _im_phi(degenerate, 9)
        for b in newton_puiseux(im_phi, order=8):
            residual = _substitute_branch(im_phi.poly, b)
            md = residual.min_degree()
            assert md is None or md > b.r * 8 - b.r

    def test_conjugation_closure_for_real_input(self, degenerate):
        im_phi = _im_phi(degenerate, 8)
        branches = newton_puiseux(im_phi, order=7)
        assert all(b.conjugate_partner is not None for b in branches)
        pairs = {b.conjugate_partner for b in branches}
        assert pairs == set(range(len(branches)))

    def test_degenerate_product_comparable_to_closed_form_g(self, degenerate, degenerate_g):
        im_phi = _im_phi(degenerate, 9)
        branches = newton_puiseux(im_phi, order=8)
        g = MultiPoly.constant(("x", "y"), 1)
        for b in branches:
            g = g * branch_factor_poly(b, n_trunc=8, x_order=8)
        assert g.is_real()
        gf = lambda x, y: g.eval_complex((x, y)).real
        pf = lambda x, y: degenerate_g.eval_complex((x, y)).real
        res = comparability_ratio(gf, pf, [2.0**-k for k in range(4, 11)])
        assert not res.fail

    @pytest.mark.parametrize(
        "text, order, r, psi, t_order",  # psi in t, written in x
        [
            # x -> t^3: the edge polynomial c^3 - 1 is linear in c^r
            ("y^3 - x^7", 4, 3, "x^7", 12),
            ("y^3 - x^7", 6, 3, "x^7", 18),
            # the double root c = 1 of the first edge is expanded again
            ("(y - x^2)^2 - x^5", 4, 2, "x^4 + x^5", 8),
            ("(y - x^2)^2 - x^5", 6, 2, "x^4 + x^5", 12),
        ],
    )
    def test_ramified_and_nested_branches(self, text, order, r, psi, t_order):
        (b,) = newton_puiseux(parse(text, vars=("x", "y")), order=order)
        assert (b.r, b.psi.order, b.multiplicity, b.conjugate_partner) == (r, t_order, 1, 0)
        assert b.resolved
        assert b.psi.poly == parse(psi, vars=("x",)).rename_vars({"x": "t"})

    def test_repeated_factor_multiplicity(self):
        branches = newton_puiseux(parse("(y - x)^2", vars=("x", "y")), order=5)
        assert len(branches) == 1
        assert branches[0].multiplicity == 2
        assert branches[0].psi.poly == parse("x", vars=("x",)).rename_vars({"x": "t"})

    def test_rejects_non_bivariate(self):
        with pytest.raises(PreconditionError):
            newton_puiseux(parse("x + y + z"), order=4)

    def test_rejects_y_free(self):
        with pytest.raises(PreconditionError):
            newton_puiseux(parse("x^2", vars=("x", "y")), order=4)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("y^2 - 2*x^2", "characteristic root lies in a degree-2 extension"),
            ("y^3 - 2*x^3", "characteristic polynomial does not split over Q(i)"),
            ("y^2 - 2*x^3", "no exact square root of 2 in Q(i)"),
        ],
    )
    def test_field_extension_is_out_of_scope(self, text, message):
        # no working order helps, so this is not a TruncationError
        with pytest.raises(PreconditionError, match=re.escape(message)):
            newton_puiseux(parse(text, vars=("x", "y")))


class TestWeierstrass:
    def test_preparation_reconstructs(self, degenerate):
        im_phi = solve_branch(degenerate, 8).phi.poly.imag_part()
        W, U = weierstrass_prepare(im_phi, x_order=5, y_order=10)
        # u * W agrees with f for x-order <= 5 and y-order <= Weierstrass data
        prod = U * W
        diff = im_phi - prod
        for (a, b), c in diff.terms.items():
            assert a > 5 or b > 8

    def test_monic_of_weierstrass_degree(self, degenerate):
        im_phi = solve_branch(degenerate, 8).phi.poly.imag_part()
        W, _ = weierstrass_prepare(im_phi, x_order=4, y_order=10)
        assert W.coefficient((0, 2)) == GaussianRational(1)
        assert all(b <= 2 for (_, b) in W.terms)


class TestComparablePolynomial:
    def test_degenerate_K_and_comparability(self, degenerate, degenerate_g):
        im_phi = _im_phi(degenerate, 10)
        res = comparable_polynomial(im_phi)
        assert res.K == 4
        assert res.K_sharp == Fraction(4)
        assert res.g.is_real()
        # K additivity of the proof-style bound
        assert res.K_bound == sum(e.multiplicity * e.k_j for e in res.branch_data)
        gf = lambda x, y: res.g.eval_complex((x, y)).real
        pf = lambda x, y: degenerate_g.eval_complex((x, y)).real
        comp = comparability_ratio(gf, pf, [2.0**-k for k in range(4, 11)])
        assert not comp.fail

    def test_lower_bound_at_samples(self, degenerate):
        im_phi = _im_phi(degenerate, 10)
        res = comparable_polynomial(im_phi)
        ratios = []
        for k in range(4, 11):
            r = 2.0**-k
            for j in range(64):
                a = 2 * math.pi * j / 64
                x, y = r * math.cos(a), r * math.sin(a)
                val = res.g.eval_complex((x, y)).real
                ratios.append(val / r**res.K)
        assert min(ratios) > 0

    def test_trivial_definite(self):
        f = TruncatedSeries(parse("x^2 + y^2", vars=("x", "y")), 8)
        res = comparable_polynomial(f)
        assert res.K == 2
        assert res.g == parse("x^2 + y^2", vars=("x", "y"))
        assert res.shortcut is not None

    def test_p2_im_phi_definite_shortcut(self, p2_stable):
        im_phi = _im_phi(p2_stable, 8)
        res = comparable_polynomial(im_phi)
        assert res.K == 4
        # g = 4(x^2+xy+y^2)^2, comparable to (x^2+y^2)^2
        target = parse("(x^2 + y^2)^2", vars=("x", "y"))
        gf = lambda x, y: res.g.eval_complex((x, y)).real
        tf = lambda x, y: target.eval_complex((x, y)).real
        comp = comparability_ratio(gf, tf, [2.0**-k for k in range(4, 11)])
        assert not comp.fail

    def test_non_isolated_zero_rejected(self):
        # (x+y)^2 vanishes on a line through 0
        f = TruncatedSeries(parse("(x + y)^2", vars=("x", "y")), 8)
        with pytest.raises(PreconditionError):
            comparable_polynomial(f)

    def test_K_stable_under_order_increase(self, degenerate):
        ks = []
        for order in (8, 10, 12):
            im_phi = _im_phi(degenerate, order)
            ks.append(comparable_polynomial(im_phi).K)
        assert ks == [4, 4, 4]

    def test_branch_exponents_degenerate(self, degenerate):
        im_phi = _im_phi(degenerate, 9)
        for b in newton_puiseux(im_phi, order=8):
            e = branch_exponents(b)
            assert e.m_plus == (2,)
            assert e.m_minus == (2,)
            assert e.k_j == 3
