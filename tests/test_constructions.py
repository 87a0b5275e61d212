"""Conformal transfer, the contact order and its lift, and the iterated
family."""

import random
from fractions import Fraction

import pytest

from numideal.branch import classify, solve_branch
from numideal.construct import (
    contact_order,
    contact_order_lift,
    polydisk_to_halfplane,
    random_stable_polynomial,
    iterated_composition,
    substitute_fractions,
)
from numideal.engine import CaseTag, numerator_ideal
from numideal.errors import PreconditionError, SanityViolation
from numideal.gaussian import GaussianRational
from numideal.parsing import parse
from numideal.poly import MultiPoly


def _rational(rng):
    return GaussianRational(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
    )


class TestSubstituteFractions:
    # x -> A/B, y -> C/D cleared by B^deg_x * D^deg_y, z -> a polynomial
    MAPS = [
        {"x": ("x + i*y", "1 - x*z"), "y": ("2*y", "i + y"), "z": ("x - z^2", "1")},
        {"x": ("y", "1 + x + y + z")},
        {"y": ("x*y - z", "3"), "z": ("1/2*y", "1")},
    ]

    @pytest.mark.parametrize("spec", MAPS)
    def test_equals_cleared_value_at_rational_points(self, spec):
        rng = random.Random(31)
        vars = ("x", "y", "z")
        fractions = {
            v: tuple(parse(t, vars=vars) for t in r) for v, r in spec.items()
        }
        for _ in range(8):
            p = MultiPoly(
                vars,
                {
                    tuple(rng.randint(0, 3) for _ in vars): _rational(rng)
                    for _ in range(5)
                },
            )
            out = substitute_fractions(p, fractions)
            for _ in range(3):
                pt = [_rational(rng) for _ in vars]
                value = dict(zip(vars, pt))
                scale = GaussianRational(1)
                for v, r in fractions.items():
                    a, b = (f.eval_exact(pt) for f in r)
                    if b.is_zero():
                        break
                    value[v] = a / b
                    scale = scale * b ** p.var_degree(v)
                else:
                    expected = scale * p.eval_exact([value[v] for v in vars])
                    assert out.eval_exact(pt) == expected

    def test_zero_and_constant(self):
        vars = ("x", "y", "z")
        pair = {"x": (parse("x", vars=vars), parse("1 - x", vars=vars))}
        assert substitute_fractions(MultiPoly.zero(vars), pair).is_zero()
        three = MultiPoly.constant(vars, 3)
        assert substitute_fractions(three, pair) == three


class TestPolydiskTransfer:
    def test_linear3(self, linear3):
        assert polydisk_to_halfplane(parse("3 - z1 - z2 - z3")) == linear3

    def test_nonisolated(self, nonisolated):
        assert polydisk_to_halfplane(parse("2 - z1*z2 - z3")) == nonisolated

    def test_two_variable_case(self):
        out = polydisk_to_halfplane(parse("2 - z1 - z2"))
        assert out == parse("x + y - 2*i*x*y", vars=("x", "y"))

    def test_degenerate_chain(self, degenerate):
        # p1 = p0((x+y)/2, z) for p0 = x^2 - xy - 3x - y + 4, then transfer
        disk = parse(
            "1/4*(z1 + z2)^2 - 1/2*(z1 + z2)*z3 - 3/2*(z1 + z2) - z3 + 4"
        )
        assert polydisk_to_halfplane(disk) == degenerate

    def test_zero_iff_disk_vanishes_at_ones(self):
        p = polydisk_to_halfplane(parse("3 - z1 - z2 - z3"))
        assert p.eval_exact((0, 0, 0)).is_zero()
        q = polydisk_to_halfplane(parse("4 - z1 - z2 - z3"))
        assert not q.eval_exact((0, 0, 0)).is_zero()

    def test_value_correspondence_exact(self, linear3):
        # p_disk(B(w)) * prod (i + w_j) = scalar * p_H(w) at rational points
        disk = parse("3 - z1 - z2 - z3")
        i = GaussianRational(0, 1)
        rng = random.Random(3)
        for _ in range(10):
            w = [
                GaussianRational(Fraction(rng.randint(-2, 2), 5), Fraction(rng.randint(1, 3), 7))
                for _ in range(3)
            ]
            disk_pt = [(i - wj) / (i + wj) for wj in w]
            lhs = disk.eval_exact(disk_pt)
            for wj in w:
                lhs = lhs * (i + wj)
            rhs = linear3.eval_exact(w)
            assert lhs == rhs * GaussianRational(-2)

    def test_stability_spot_check(self):
        rng = random.Random(17)
        for name in ("3 - z1 - z2 - z3", "2 - z1*z2 - z3"):
            p = polydisk_to_halfplane(parse(name))
            for _ in range(100):
                pt = [
                    complex(rng.uniform(-0.5, 0.5), rng.uniform(1e-3, 0.5))
                    for _ in range(3)
                ]
                assert p.eval_complex(pt) != 0


def _diagonal_restriction(p):
    """p(t, t, y) in the variables (x, y)."""
    t = MultiPoly.variable(("t", "y"), "t")
    yv = MultiPoly.variable(("t", "y"), "y")
    return p.subs({"x": t, "y": t, "z": yv}).rename_vars({"t": "x"})


@pytest.fixture()
def q2(p2_stable):
    return _diagonal_restriction(p2_stable)


class TestContactOrder:
    def test_transfer_of_two_var_disk_poly(self):
        assert contact_order(parse("x + y - 2*i*x*y", vars=("x", "y"))) == 2

    def test_real_input_has_no_finite_contact_order(self):
        with pytest.raises(PreconditionError, match="infinite"):
            contact_order(parse("x + y", vars=("x", "y")))

    def test_iterated2_restriction_has_contact_four(self, q2):
        assert contact_order(q2) == 4

    # past the default working order 12 for L = 7 and 8
    @pytest.mark.parametrize("L", range(1, 9))
    def test_iterated_restriction_has_contact_2L(self, L):
        assert contact_order(_diagonal_restriction(iterated_composition(L))) == 2 * L

    def test_unstable_input_flagged(self):
        with pytest.raises(SanityViolation):
            contact_order(parse("x + y + i*x^3*y", vars=("x", "y")))


class TestContactOrderLift:

    def test_branch_restriction_recovers_q2_branch(self, q2):
        out = contact_order_lift(q2)
        psi = solve_branch(q2, 6).phi.poly
        phi = solve_branch(out, 6).phi.poly
        t = MultiPoly.variable(("x",), "x")
        restricted = phi.subs({"x": t, "y": t}).truncate(6)
        assert restricted == psi.truncate(6)

    def test_im_phi2_contains_half_a1_x_squared(self, q2):
        out = contact_order_lift(q2)
        sol = solve_branch(out, 4)
        a1 = solve_branch(q2, 2).phi.poly.coefficient((1,)).re
        im2 = sol.phi.poly.imag_part().homogeneous_part(2)
        assert im2.coefficient((2, 0)) == GaussianRational(a1 / 4)
        assert not im2.is_zero()

    def test_im_phi_vanishes_on_diagonal_below_K(self, q2):
        out = contact_order_lift(q2)
        sol = solve_branch(out, 4)
        im = sol.phi.poly.imag_part()
        t = MultiPoly.variable(("x",), "x")
        diag = im.subs({"x": t, "y": t})
        for m in range(4):
            assert diag.homogeneous_part(m).is_zero()

    def test_zero_slice_proportional_to_q2(self, q2):
        out = contact_order_lift(q2)
        # at x = y = 0 the output is a scalar multiple of q2(0, z)
        zero = GaussianRational(0)
        samples = []
        for zv in (GaussianRational(1), GaussianRational(2), GaussianRational(1, 2)):
            lhs = out.eval_exact((zero, zero, zv))
            rhs = q2.eval_exact((zero, zv))
            samples.append((lhs, rhs))
        ratios = {
            (l / r).re for l, r in samples if not r.is_zero()
        } | {(l / r).im for l, r in samples if not r.is_zero()}
        first = samples[0][0] / samples[0][1]
        assert all(l / r == first for l, r in samples if not r.is_zero())

    def test_contact_order_precondition(self):
        q2 = parse("x + y - 2*i*x*y", vars=("x", "y"))  # contact order 2
        with pytest.raises(PreconditionError):
            contact_order_lift(q2)

    def test_lift_past_the_default_order(self):
        # contact order 14: the branch restricted to x = y is still q2's
        q2 = _diagonal_restriction(iterated_composition(7))
        out = contact_order_lift(q2)
        psi = solve_branch(q2, 6).phi.poly
        phi = solve_branch(out, 6).phi.poly
        t = MultiPoly.variable(("x",), "x")
        assert phi.subs({"x": t, "y": t}).truncate(6) == psi.truncate(6)


class TestIteratedComposition:
    def test_L1_is_linear3(self, linear3):
        assert iterated_composition(1) == linear3

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_first_nonreal_index_2L_and_definite(self, L):
        pL = iterated_composition(L)
        cls = classify(solve_branch(pL, 2 * L + 2))
        assert cls.L == L
        assert cls.definite is True

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_stability_samples(self, L):
        pL = iterated_composition(L)
        rng = random.Random(100 + L)
        for _ in range(100):
            pt = [
                complex(rng.uniform(-0.5, 0.5), rng.uniform(1e-3, 0.5))
                for _ in range(3)
            ]
            assert pL.eval_complex(pt) != 0

    def test_im_phi_2L_comparable_to_circle_power(self):
        from comparability import comparability_ratio

        for L in (2, 3):
            pL = iterated_composition(L)
            im = solve_branch(pL, 2 * L).phi.poly.imag_part().homogeneous_part(2 * L)
            f = lambda x, y: im.eval_complex((x, y)).real
            g = lambda x, y: (x * x + y * y) ** L
            res = comparability_ratio(f, g, [2.0**-k for k in range(4, 11)])
            assert not res.fail

    def test_rejects_nonpositive_L(self):
        with pytest.raises(PreconditionError):
            iterated_composition(0)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
    def test_two_variables_definite_with_contact_order_2L(self, L):
        pL = iterated_composition(L, n_vars=2)
        assert pL.vars == ("x", "z")
        desc = numerator_ideal(pL)
        assert (desc.case, desc.L_or_K) == (CaseTag.DEFINITE, L)
        assert contact_order(pL) == 2 * L


class TestPickQuotient:
    def test_reduction_preserves_values(self, linear3):
        from numideal.construct import pick_quotient

        num, den = pick_quotient(linear3)
        assert den.content() == 1
        pbar = linear3.reflect()
        i = GaussianRational(0, 1)
        rng = random.Random(9)
        for _ in range(10):
            pt = [
                GaussianRational(
                    Fraction(rng.randint(-3, 3), 7), Fraction(rng.randint(1, 3), 5)
                )
                for _ in range(3)
            ]
            denom = linear3.eval_exact(pt) - pbar.eval_exact(pt)
            if denom.is_zero():
                continue
            direct = i * (linear3.eval_exact(pt) + pbar.eval_exact(pt)) / denom
            assert num.eval_exact(pt) / den.eval_exact(pt) == direct

    def test_maps_into_upper_half_plane(self, linear3):
        from numideal.construct import pick_quotient

        num, den = pick_quotient(linear3)
        rng = random.Random(15)
        for _ in range(50):
            pt = [
                complex(rng.uniform(-0.4, 0.4), rng.uniform(1e-3, 0.4))
                for _ in range(3)
            ]
            val = num.eval_complex(pt) / den.eval_complex(pt)
            assert val.imag > -1e-12

    def test_real_on_real_points(self, linear3):
        from numideal.construct import pick_quotient

        num, den = pick_quotient(linear3)
        pt = (
            GaussianRational(Fraction(1, 3)), GaussianRational(Fraction(1, 5)),
            GaussianRational(Fraction(2, 7)),
        )
        assert (num.eval_exact(pt) / den.eval_exact(pt)).is_real()


class TestRandomStable:
    def test_batch_is_stable_and_smooth(self):
        rng = random.Random(20240814)
        for _ in range(10):
            p = random_stable_polynomial(rng)
            assert p.eval_exact((0, 0, 0)).is_zero()
            assert not p.coefficient((0, 0, 1)).is_zero()
            for _ in range(25):
                pt = [
                    complex(rng.uniform(-0.5, 0.5), rng.uniform(1e-3, 0.5))
                    for _ in range(3)
                ]
                assert p.eval_complex(pt) != 0
