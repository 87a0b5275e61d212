"""Branch solver: phi with p(x, -phi(x)) = 0, and its classification."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from numideal.branch import PhiClassification, branch_series, classify, solve_branch
from numideal.construct import (
    contact_order_lift,
    iterated_composition,
    random_stable_polynomial,
)
from numideal.engine import numerator_ideal
from numideal.errors import PreconditionError, SanityViolation
from numideal.examples import EXAMPLES
from numideal.gaussian import GaussianRational
from numideal.parsing import parse
from numideal.poly import MultiPoly, implicit_root, implicit_series

GOLDEN = Path(__file__).parent / "golden"


def residual_order(p, sol):
    """Vanishing order of the exact residual p(x, -phi(x)); None when it is
    identically zero (phi exact)."""
    return p.subs({"z": -sol.phi.poly}).min_degree()


class TestSolveBranch:
    def test_linear3_phi_to_order_three(self, linear3):
        sol = solve_branch(linear3, 3)
        part = sol.phi.poly.homogeneous_part
        assert part(1) == parse("x + y", vars=("x", "y"))
        assert part(2) == parse("2*i*(x^2 + x*y + y^2)", vars=("x", "y"))
        assert sol.grad0 == (GaussianRational(1), GaussianRational(1))

    def test_degenerate_phi_leading_parts(self, degenerate):
        sol = solve_branch(degenerate, 4)
        part = sol.phi.poly.homogeneous_part
        assert part(1) == parse("1/2*(x + y)", vars=("x", "y"))
        assert part(2) == parse("1/4*i*(x - y)^2", vars=("x", "y"))
        assert part(3) == parse(
            "1/8*(x^3 + 7*x^2*y + 7*x*y^2 + y^3)", vars=("x", "y")
        )
        assert part(4) == parse(
            "1/16*i*(9*x^2 - 2*x*y + 9*y^2)*(x + y)^2", vars=("x", "y")
        )

    def test_already_solved_form(self):
        p = parse("z + x")
        sol = solve_branch(p, 8)
        assert sol.phi.poly == parse("x", vars=("x",))
        assert residual_order(p, sol) is None  # exact factorization

    def test_residual_order_exceeds_truncation(self, linear3, degenerate):
        for p, order in ((linear3, 6), (degenerate, 5)):
            sol = solve_branch(p, order)
            res = residual_order(p, sol)
            assert res is None or res > order

    def test_quadratic_in_z_gives_catalan_numbers(self):
        # phi - phi^2 = x: phi = (1 - sqrt(1 - 4x)) / 2
        p = parse("z^2 + z + x")
        sol = solve_branch(p, 8)
        assert sol.phi.poly == parse(
            "x + x^2 + 2*x^3 + 5*x^4 + 14*x^5 + 42*x^6 + 132*x^7 + 429*x^8",
            vars=("x",),
        )
        assert residual_order(p, sol) == 9

    def test_cubic_in_z(self):
        # phi + phi^3 = x
        p = parse("z^3 + z + x")
        sol = solve_branch(p, 9)
        assert sol.phi.poly == parse(
            "x - x^3 + 3*x^5 - 12*x^7 + 55*x^9", vars=("x",)
        )
        assert residual_order(p, sol) == 11

    def test_quadratic_in_z_two_variables(self):
        s = parse("x + y", vars=("x", "y"))
        catalan = [1, 1, 2, 5, 14, 42]
        expected = sum(
            (s**n).scale(c) for n, c in enumerate(catalan, start=1)
        )
        p = parse("z^2 + z + x + y")
        sol = solve_branch(p, len(catalan))
        assert sol.phi.poly == expected
        assert residual_order(p, sol) == len(catalan) + 1

    def test_precondition_nonzero_at_origin(self):
        with pytest.raises(PreconditionError):
            solve_branch(parse("1 + z + x"), 4)

    def test_precondition_smooth_in_z(self):
        with pytest.raises(PreconditionError):
            solve_branch(parse("x + z^2"), 4)

    @pytest.mark.parametrize("order", [0, -3])
    def test_precondition_positive_order(self, order):
        with pytest.raises(PreconditionError, match="order must be at least 1"):
            solve_branch(parse("z + x"), order)


def horner(slices, y, order):
    """sum_k slices[k] * y^k by Horner's scheme, each product truncated at
    total degree order: the residual the solver was first checked with."""
    top = max(slices)
    acc = slices[top]
    for k in range(top - 1, -1, -1):
        acc = acc.mul_truncated(y, order)
        if k in slices:
            acc = acc + slices[k]
    return acc


def rerun_implicit_root(slices, order):
    """Undetermined coefficients by rerunning the whole truncated Horner sum
    at every degree m and keeping its degree-m part."""
    vars = slices[1].vars
    step = GaussianRational(-1) / slices[1].coefficient((0,) * len(vars))
    y = MultiPoly.zero(vars)
    for m in range(1, order + 1):
        part = horner(slices, y, m).homogeneous_part(m)
        if not part.is_zero():
            y = y + part.scale(step)
    return y


def seeded_slices(rng, deg_z, n_vars):
    """z-slices s_0..s_deg_z over Q(i) in n_vars variables, s_0(0) = 0 and a
    pivot s_1(0) that is neither 0 nor 1."""
    vars = tuple(f"x{k}" for k in range(1, n_vars + 1))

    def coeff():
        return GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        )

    slices = {}
    for k in range(deg_z + 1):
        terms = {}
        for _ in range(3):
            e = [0] * n_vars
            e[rng.randrange(n_vars)] = rng.randint(1, 2)
            terms[tuple(e)] = coeff()
        slices[k] = MultiPoly(vars, terms)
    pivot = coeff()
    while pivot.is_zero() or pivot == GaussianRational(1):
        pivot = coeff()
    slices[1] = slices[1] + pivot
    return slices


class TestImplicitRoot:
    @pytest.mark.parametrize("deg_z", [1, 2, 3])
    @pytest.mark.parametrize("n_vars", [1, 2, 3, 4])
    def test_matches_rerun_reference(self, deg_z, n_vars):
        rng = random.Random(f"implicit_root:{deg_z}:{n_vars}")
        for _ in range(2):
            slices = seeded_slices(rng, deg_z, n_vars)
            ref = rerun_implicit_root(slices, 12)
            for order in range(1, 13):
                y = implicit_root(slices, order)
                assert y == ref.truncate(order)
                assert horner(slices, y, order).truncate(order).is_zero()

    @pytest.mark.parametrize("deg_z", [1, 2, 3])
    @pytest.mark.parametrize("n_vars", [1, 2, 3])
    def test_stop_at_imaginary_is_the_truncation(self, deg_z, n_vars):
        # the solve ends after the first non-real degree m with the full
        # series truncated at m; a real series runs through the order
        rng = random.Random(f"stop_at_imaginary:{deg_z}:{n_vars}")
        zero = (0,) * n_vars
        for _ in range(2):
            slices = seeded_slices(rng, deg_z, n_vars)
            real = {k: s.real_part() for k, s in slices.items()}
            if real[1].coefficient(zero).is_zero():
                real[1] = real[1] + GaussianRational(1)
            for s in (slices, real):
                full = implicit_root(s, 8)
                m = min((sum(e) for e, c in full.terms.items() if c.im), default=8)
                y = next(implicit_series(s, 8, stop_at_imaginary=True))
                assert y == full.truncate(m)
            assert y.is_real()


class TestResumedSolve:
    @pytest.mark.parametrize("deg_z", [1, 2, 3])
    def test_a_resumed_solve_is_the_solve_through_its_degree(self, deg_z):
        # a solve that stopped at its first non-real degree m, continued
        # through each n > m, is the full solve through n
        rng = random.Random(f"implicit_series:{deg_z}")
        for _ in range(3):
            slices = seeded_slices(rng, deg_z, 2)
            series = implicit_series(slices, 8, stop_at_imaginary=True)
            y = next(series)
            assert y == next(implicit_series(slices, 8, stop_at_imaginary=True))
            for n in range(y.degree() + 1, 9):
                assert series.send(n) == implicit_root(slices, n)
            # one jump from the stop to the order
            series = implicit_series(slices, 8, stop_at_imaginary=True)
            next(series)
            assert series.send(8) == implicit_root(slices, 8)

    SLICES = {0: parse("x", vars=("x",)), 1: parse("1 + i*x", vars=("x",))}

    @pytest.mark.parametrize("n", [1, 2])
    def test_a_solve_resumes_only_past_its_stop(self, n):
        # degrees through the stop are solved already
        series = implicit_series(self.SLICES, 8, stop_at_imaginary=True)
        assert next(series).degree() == 2
        with pytest.raises(ValueError, match="cannot resume"):
            series.send(n)

    def test_a_solve_resumes_past_its_order(self):
        # the state packed for the order is packed again for the degree
        series = implicit_series(self.SLICES, 8, stop_at_imaginary=True)
        next(series)
        assert series.send(9) == implicit_root(self.SLICES, 9)

    @pytest.mark.parametrize(
        "p, order, n",
        [
            *(
                (contact_order_lift(iterated_composition(L, n_vars=2)), 4, 2 * L + 1)
                for L in (2, 3, 4)
            ),
            (iterated_composition(7), 12, 14),
        ],
        ids=["lift2", "lift3", "lift4", "iterated7"],
    )
    def test_rows_past_the_packed_order_come_in_the_fresh_order(self, p, order, n):
        # the oracle sums phi's float terms in row order, so a solve resumed
        # past the order it was packed for keeps the fresh solve's order
        series = branch_series(p, order, stop_at_imaginary=True)
        first = next(series)
        resumed = series.send(n).phi.poly
        fresh = solve_branch(p, n).phi.poly
        assert first.phi.order <= order < n
        assert list(resumed.rows) == list(fresh.rows)
        assert resumed == fresh

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_a_continued_branch_is_the_branch_through_its_order(self, L):
        # the lift stops at 2, and `numerator_ideal` continues it through K = 2L
        p = contact_order_lift(iterated_composition(L, n_vars=2))
        series = branch_series(p, 12, stop_at_imaginary=True)
        first = next(series)
        assert first == next(branch_series(p, 12, stop_at_imaginary=True))
        assert first.phi.order == 2
        assert series.send(2 * L) == solve_branch(p, 2 * L)
        assert series.send(12) == solve_branch(p, 12)
        assert series.send(15) == solve_branch(p, 15)


class TestTermOrder:
    # the boundedness oracle sums phi's float terms in insertion order, so
    # its printed digits depend on the order the exact solver builds them in
    @pytest.mark.parametrize(
        "name", ["linear3", "nonisolated", "degenerate", "p2", "random0"]
    )
    def test_phi_term_order_is_pinned(self, name):
        if name == "random0":  # the first input of criterion 7, deg_z = 2
            p, order = random_stable_polynomial(random.Random(20240815)), 8
            assert p.var_degree("z") == 2
        else:
            p, order = EXAMPLES[name](), 12
        expected = json.loads((GOLDEN / "phi_terms.json").read_text())[name]
        phi = solve_branch(p, order).phi.poly
        assert [list(e) for e in phi.terms] == expected


class TestClassify:
    def test_linear3_definite(self, linear3):
        cls = classify(solve_branch(linear3, 6))
        assert cls.L == 1
        assert cls.im_part_2L == parse("2*(x^2 + x*y + y^2)", vars=("x", "y"))
        assert cls.definite is True

    def test_degenerate_not_definite(self, degenerate):
        cls = classify(solve_branch(degenerate, 6))
        assert cls.L == 1
        assert cls.im_part_2L == parse("1/4*(x - y)^2", vars=("x", "y"))
        assert cls.definite is False

    def test_real_branch(self):
        sol = solve_branch(parse("z + x"), 8)
        assert classify(sol) == PhiClassification(None)
        assert sol.phi.order == 8

    def test_zero_gradient_axis_must_vanish(self):
        # z + x in (x, y, z): phi = x vanishes on the y-axis where the
        # gradient component is zero
        sol = solve_branch(parse("z + x", vars=("x", "y", "z")), 6)
        assert sol.grad0 == (GaussianRational(1), GaussianRational(0))
        # z + x^2 (or z + xy) has a z-free term in the zero-gradient
        # variables alone, so phi = x^2 (or xy) does not vanish there; the
        # witness is that term of p
        with pytest.raises(SanityViolation, match="zero-gradient") as exc:
            solve_branch(parse("z + x^2"), 6)
        assert exc.value.witness == (("x",), (2, 0), GaussianRational(1))
        with pytest.raises(SanityViolation, match="zero-gradient") as exc:
            solve_branch(parse("z + x*y"), 6)
        assert exc.value.witness == (("x", "y"), (1, 1, 0), GaussianRational(1))

    def test_all_zero_gradient_means_zero_phi(self):
        sol = solve_branch(parse("z + x^2*z", vars=("x", "z")), 6)
        assert sol.grad0 == (GaussianRational(0),)
        assert sol.phi.poly.is_zero()
        assert classify(sol) == PhiClassification(None)

    def test_negative_gradient_rejected(self):
        with pytest.raises(SanityViolation, match="negative") as exc:
            solve_branch(parse("z - x"), 4)
        assert exc.value.witness == ("x", GaussianRational(-1))
        # grad phi(0) = p_x(0) / p_z(0): the sign of p_z counts
        with pytest.raises(SanityViolation, match="negative"):
            solve_branch(parse("-2*z + x"), 4)

    def test_nonreal_gradient_rejected(self):
        with pytest.raises(SanityViolation, match="not real"):
            solve_branch(parse("z + i*x"), 4)

    def test_odd_first_imag_index_rejected(self):
        with pytest.raises(SanityViolation):
            classify(solve_branch(parse("z + x + i*x^3"), 6))

    def test_negative_imag_part_rejected(self):
        with pytest.raises(SanityViolation):
            classify(solve_branch(parse("z + x - i*x^2"), 6))

    def test_semidefinite_quadratic_in_three_variables(self):
        # Im phi_2 vanishes on the line x1 = x2, x3 = 0
        p = parse("z + x1 + x2 + x3 + i*((x1 - x2)^2 + x3^2)")
        cls = classify(solve_branch(p, 6))
        assert cls.L == 1
        assert cls.definite is False
        assert cls.definite_exact is True
        with pytest.raises(PreconditionError):
            numerator_ideal(p)

    def test_indefinite_quadratic_in_three_variables(self):
        p = parse("z + x1 + x2 + x3 + i*(x1^2 + x2^2 - x3^2)")
        with pytest.raises(SanityViolation, match="negative on a real direction") as exc:
            classify(solve_branch(p, 6))
        assert "sampled" not in str(exc.value)
        witness = exc.value.witness
        assert all(isinstance(t, Fraction) for t in witness)
        value = parse("x1^2 + x2^2 - x3^2", vars=p.vars[:-1]).eval_exact(witness)
        assert value.re < 0

    def test_quartic_in_three_variables_is_sampled(self):
        from numideal.construct import iterated_composition

        cls = classify(solve_branch(iterated_composition(2, n_vars=4), 4))
        assert cls.L == 2
        assert cls.definite is True
        assert cls.definite_exact is False

    def test_exact_everywhere_else(self, linear3, degenerate):
        for p in (linear3, degenerate, parse("z + x + i*x^2")):
            assert classify(solve_branch(p, 6)).definite_exact is True


class TestConstructionBattery:
    """Structural sanity battery over random construction-derived inputs."""

    def test_residual_and_classification(self):
        from numideal.construct import random_stable_polynomial

        rng = random.Random(20240812)
        order = 8
        for _ in range(12):
            p = random_stable_polynomial(rng)
            sol = solve_branch(p, order)
            res = residual_order(p, sol)
            assert res is None or res > order
            cls = classify(sol)  # must not raise SanityViolation
            for g in sol.grad0:
                assert g.is_real() and g.re >= 0
            if cls.L is not None:
                assert (2 * cls.L) % 2 == 0
