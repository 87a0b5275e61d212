"""The exact resultant R = Res_z(p, p̄) and the case decisions built on it."""

import random
from fractions import Fraction

import pytest

from numideal.closure import monomialize
from numideal.construct import iterated_composition
from numideal.engine import (
    CaseTag,
    Verdict,
    _isolated_exponent,
    membership,
    numerator_ideal,
)
from numideal.errors import PreconditionError
from numideal.examples import EXAMPLES
from numideal.gaussian import GaussianRational
from numideal.parsing import format_poly, parse
from numideal.poly import MultiPoly
from numideal.resultant import (
    conjugate_resultant,
    divide_exact,
    poly_gcd,
    primitive_gcd,
    pseudo_remainder,
    subresultants,
)

# criterion 7(d) of test_acceptance.py, plus criterion 5 and a non-member
# for p2: (q, q/p bounded)
WORKED_PAIRS = {
    "linear3": [
        ("x^2", True),
        ("x*y", True),
        ("y^2", True),
        ("x + y + z", True),
        ("x", False),
        ("1", False),
    ],
    "nonisolated": [
        ("(x + y)^2", True),
        ("x + y + z - x*y*z", True),
        ("x + y", False),
        ("z", False),
    ],
    "degenerate": [
        ("(x - y)^2", True),
        ("(x - y)*(x + y)^2", True),
        ("(x + y)^4", True),
        ("(x + y)^3", False),
        ("(x - y)*(x + y)", False),
        ("(x + y)^2", False),
    ],
    "p2": [("(x^2 + y^2)^2", True), ("x^3", False)],
}


@pytest.fixture(scope="module")
def iterated7():
    return iterated_composition(7)


def _random_qi_poly(rng, m):
    """A polynomial in (x, y, z) over Q(i) of z-degree exactly m."""
    terms = {}
    for _ in range(6):
        exps = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, m))
        terms[exps] = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)), rng.randint(-3, 3)
        )
    terms[(0, 0, m)] = GaussianRational(1, rng.randint(1, 2))
    return MultiPoly(("x", "y", "z"), terms)


class TestConjugateResultant:
    def test_degree_one_is_the_cross_product(self):
        rng = random.Random(3)
        for _ in range(10):
            p = _random_qi_poly(rng, 1)
            slices = p.slices("z")
            b, c = slices.get(0, MultiPoly.zero(("x", "y"))), slices[1]
            # the Sylvester sign: c b̄ - b c̄ = -(b c̄ - b̄ c)
            cross = b * c.reflect() - b.reflect() * c
            assert conjugate_resultant(p) == -cross

    def test_matches_sympy_resultant(self):
        sympy = pytest.importorskip("sympy")
        x, y, z = sympy.symbols("x y z")

        def to_sympy(poly):
            return sum(
                (sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im))
                * x ** e[0]
                * y ** e[1]
                * (z ** e[2] if len(e) == 3 else 1)
                for e, c in poly.terms.items()
            )

        rng = random.Random(20261018)
        for m in (1, 2, 3):
            for _ in range(3):
                p = _random_qi_poly(rng, m)
                expected = sympy.resultant(to_sympy(p), to_sympy(p.reflect()), z)
                got = conjugate_resultant(p)
                assert not got.is_zero()
                assert sympy.expand(to_sympy(got) - expected) == 0, (m, format_poly(p))

    def test_real_or_imaginary_by_parity_of_degree(self):
        rng = random.Random(11)
        for m in (1, 2, 3):
            R = conjugate_resultant(_random_qi_poly(rng, m))
            # conj(R) = (-1)^(m^2) R
            assert R.reflect() == (R if m % 2 == 0 else -R)


def laplace_resultant(p):
    """Res_z(p, p̄) from the Bézout matrix with MultiPoly entries, by
    cofactor expansion along the first row."""
    x_vars = p.vars[:-1]
    zero = MultiPoly.zero(x_vars)
    slices = p.slices(p.vars[-1])
    m = max(slices)
    f = [slices.get(k, zero) for k in range(m + 1)]

    def entry(i, j):
        i, j = min(i, j), max(i, j)
        total = zero
        for k in range(min(j, m - 1 - i) + 1):
            t = f[i + 1 + k] * f[j - k].reflect()
            total = total + t - t.reflect()
        return total

    bezout = [[entry(i, j) for j in range(m)] for i in range(m)]

    def det(row, cols):
        if not cols:
            return MultiPoly.constant(x_vars, 1)
        total = zero
        for pos, j in enumerate(cols):
            term = bezout[row][j] * det(row + 1, cols[:pos] + cols[pos + 1 :])
            total = total + (-term if pos % 2 else term)
        return total

    d = det(0, tuple(range(m)))
    return -d if m * (m - 1) // 2 % 2 else d


def unit_factor_products(degenerate, seed):
    """degenerate times 2 and 3 seeded stable linear factors
    a x + b y + c z + d i with a, b, c, d > 0, units at 0: z-degrees 3, 4."""
    rng = random.Random(seed)
    p = degenerate
    out = []
    for _ in range(3):
        a, b, c, d = (Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(4))
        factor = MultiPoly(
            p.vars,
            {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c, (0, 0, 0): GaussianRational(0, d)},
        )
        p = p * factor
        out.append(p)
    return out[1:]


class TestResultantOfProducts:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_laplace_reference(self, degenerate, seed):
        for p in unit_factor_products(degenerate, seed):
            assert conjugate_resultant(p) == laplace_resultant(p)

    def test_matches_sympy_at_rational_points(self, degenerate):
        # Res_z commutes with fixing x and y where the leading z-coefficient
        # does not vanish, and sympy's univariate resultant is fast
        sympy = pytest.importorskip("sympy")
        z = sympy.symbols("z")
        rng = random.Random(5)

        def at(poly, point):
            value = 0
            for e, c in poly.terms.items():
                coeff = sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
                value += coeff * sympy.Rational(point[0]) ** e[0] * sympy.Rational(
                    point[1]
                ) ** e[1] * (z ** e[2] if len(e) == 3 else 1)
            return sympy.expand(value)

        for p in unit_factor_products(degenerate, 3):
            R = conjugate_resultant(p)
            for _ in range(4):
                point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in "xy")
                a, b = at(p, point), at(p.reflect(), point)
                assert sympy.degree(a, z) == max(p.slices("z"))
                expected = sympy.resultant(a, b, z)
                assert sympy.expand(at(R, point) - expected) == 0


class TestGcd:
    def test_common_factor_of_seeded_products(self):
        rng = random.Random(7)
        for m in (1, 2):
            for _ in range(2):
                g, u, v = (_random_qi_poly(rng, k) for k in (m, 1, 2))
                got = poly_gcd(g * u, g * v)
                # got is g up to a nonzero constant
                assert divide_exact(got, g).degree() == 0
                assert divide_exact(g * u, got) == u.scale(
                    g.coefficient(max(g.terms)) / got.coefficient(max(got.terms))
                )

    def test_primitive_gcd_drops_factors_free_of_z(self):
        vars = ("x", "y", "z")
        a = parse("(1 + x)*(z + y)*(z - i)", vars=vars)
        b = parse("(1 + x)*(z + y)*(x*z + 2)", vars=vars)
        assert poly_gcd(a, b).degree() == 2
        got = primitive_gcd(a, b)
        assert divide_exact(got, parse("z + y", vars=vars)).degree() == 0
        assert primitive_gcd(a, parse("(1 + x)*(z + 3)", vars=vars)).degree() == 0

    def test_subresultant_z_degrees_strictly_decrease(self):
        rng = random.Random(3)
        for m in (1, 2):
            for _ in range(2):
                g, u, v = (_random_qi_poly(rng, k) for k in (1, m, m))
                members = list(subresultants(g * u, g * v))
                degrees = [s.var_degree("z") for s in members]
                assert degrees == sorted(set(degrees), reverse=True)
                # the last member has the degree of the common factor g
                assert degrees[0] == m + 1 and degrees[-1] == 1

    def test_coprime_sequence_ends_in_one(self, nonisolated):
        p = nonisolated * parse("x + y + z + i", vars=nonisolated.vars)
        *members, last = subresultants(p, p.reflect())
        assert [s.var_degree("z") for s in members] == [2, 1]
        assert last == MultiPoly.constant(p.vars, 1)

    def test_conjugates_share_the_real_factor(self, degenerate):
        p = degenerate * parse("1 - x*z", vars=degenerate.vars)
        shared = primitive_gcd(p, p.reflect())
        assert divide_exact(shared, parse("1 - x*z", vars=p.vars)).degree() == 0

    def test_pseudo_remainder_of_zero_and_z_free_dividends(self):
        vars = ("x", "y", "z")
        for divisor in ("(1 - x*y)*z + x + y", "(1 + x)*z^2 + y*z + x"):
            b = parse(divisor, vars=vars)
            assert pseudo_remainder(MultiPoly.zero(vars), b).is_zero()
            # deg a < deg b: a is its own pseudo-remainder
            a = parse("x^3 - 2*i*x*y + 5", vars=vars)
            assert pseudo_remainder(a, b) == a
        # deg a = deg b - 1 for the quadratic divisor
        a = parse("x*z + y", vars=vars)
        assert pseudo_remainder(a, parse("(1 + x)*z^2 + y*z + x", vars=vars)) == a

    def test_inexact_division_raises(self):
        vars = ("x", "y", "z")
        with pytest.raises(ArithmeticError):
            divide_exact(parse("x^2 + y", vars=vars), parse("x + y", vars=vars))


class TestSecondZDegree:
    """p * (x + y + z + i) is stable and the extra factor is a unit at 0, so
    the numerator ideal and every verdict carry over from p."""

    @pytest.mark.parametrize("name", list(EXAMPLES))
    def test_same_ideal_and_verdicts_as_p(self, name):
        p = EXAMPLES[name]()
        pw = p * parse("x + y + z + i", vars=p.vars)
        assert pw.var_degree("z") == 2
        desc, desc_w = numerator_ideal(p), numerator_ideal(pw)
        assert desc_w.case is desc.case
        assert desc_w.L_or_K == desc.L_or_K
        assert (
            conjugate_resultant(pw).min_degree() == conjugate_resultant(p).min_degree()
        )
        if desc.case is CaseTag.LINEAR_FORM:
            # the first generator is Re(conj(c0) p), a different polynomial
            # for p * (x + y + z + i); the two ideals hold each other's
            # generators
            assert desc_w.generators[1:] == desc.generators[1:]
            for q, on, ideal in [(g, pw, desc_w) for g in desc.generators] + [
                (g, p, desc) for g in desc_w.generators
            ]:
                assert membership(on, q, ideal=ideal).verdict is Verdict.IN_IDEAL
        else:
            assert desc_w.generators == desc.generators
        for text, bounded in WORKED_PAIRS[name]:
            expected = Verdict.IN_IDEAL if bounded else Verdict.NOT_IN_IDEAL
            q = parse(text, vars=p.vars)
            assert membership(p, q, ideal=desc).verdict is expected, text
            assert membership(pw, q, ideal=desc_w).verdict is expected, text


class TestWorkingOrder:
    def test_l7_is_definite_at_order_12(self, iterated7):
        # Im phi vanishes through order 12; ord R = 14 raises the order
        desc = numerator_ideal(iterated7, order=12)
        assert desc.case is CaseTag.DEFINITE
        assert desc.L_or_K == 7
        assert desc.branch.phi.order == 14
        for text, expected in (
            ("x^13", Verdict.NOT_IN_IDEAL),
            ("x^14", Verdict.IN_IDEAL),
        ):
            q = parse(text, vars=iterated7.vars)
            v = membership(iterated7, q, order=12, ideal=desc)
            assert v.verdict is expected, text

    def test_isolated_degenerate_below_k_solves_at_k(self, degenerate):
        low, high = numerator_ideal(degenerate, order=3), numerator_ideal(degenerate)
        assert low.branch.phi.order == 4
        for field in ("case", "L_or_K", "H", "g", "generators"):
            assert getattr(low, field) == getattr(high, field), field
        for text, bounded in WORKED_PAIRS["degenerate"]:
            q = parse(text, vars=degenerate.vars)
            v = membership(degenerate, q, order=3, ideal=low)
            assert (v.verdict is Verdict.IN_IDEAL) == bounded, text

    def test_degenerate_g_is_the_resultant(self, degenerate):
        # Im phi = Im(b cbar) / |c|^2 and g = 16 Im(b cbar) for this p
        desc = numerator_ideal(degenerate)
        assert format_poly(desc.g) == (
            "4*x^2 - 8*x*y + 4*y^2 + 15*x^4 + 34*x^2*y^2 + 15*y^4"
            " + 56*x^4*y^2 + 16*x^3*y^3 + 56*x^2*y^4 + 64*x^4*y^4"
        )
        assert desc.ic.newton_points == ((0, 4), (2, 0))


# det(x A + y B + z I + D) with A, B positive semidefinite and Im D >= 0 is
# stable; at x = y = 0 these share real roots with their conjugates
SHARED_ROOT_FACTOR = "(x + z + 1)*(x + y + z + i) - x^2"
SHARED_ROOTS_FACTOR = (
    "(x + z + 1)*(x + z + 2)*(2*x + y + z + i) - x^2*(x + z + 2) - x^2*(x + z + 1)"
)


def _same_ideal(desc, base):
    for field in ("case", "L_or_K", "H", "g", "generators"):
        assert getattr(desc, field) == getattr(base, field), field


class TestFallbacks:
    def test_shared_root_out_of_scope(self, degenerate):
        p = degenerate * parse(SHARED_ROOT_FACTOR, vars=degenerate.vars)
        with pytest.raises(PreconditionError, match=r"root z = -1\b.*out of scope"):
            numerator_ideal(p)

    def test_shared_roots_named_by_their_factor(self, degenerate):
        p = degenerate * parse(SHARED_ROOTS_FACTOR, vars=degenerate.vars)
        with pytest.raises(PreconditionError, match=r"roots of 2 \+ 3\*z \+ z\^2"):
            numerator_ideal(p)

    @pytest.mark.parametrize(
        "factor, named",
        [
            ("(x + 2*z + 1)*(x + y + z + i) - x^2", r"the root z = -1/2\b"),
            (
                "(x + 2*z + 1)*(x + 3*z + 1)*(2*x + y + z + i)"
                " - x^2*(x + 3*z + 1) - x^2*(x + 2*z + 1)",
                r"the roots of 1/6 \+ 5/6\*z \+ z\^2",
            ),
        ],
        ids=["root", "factor"],
    )
    def test_shared_factor_is_named_monic(self, degenerate, factor, named):
        # 2z + 1 and 6z^2 + 5z + 1 are shared: the message names z + 1/2
        # by its root and z^2 + 5z/6 + 1/6 as it is
        p = degenerate * parse(factor, vars=degenerate.vars)
        with pytest.raises(PreconditionError, match=named):
            numerator_ideal(p)

    def test_root_at_infinity_out_of_scope(self, degenerate):
        # 1 - x*z - i*x = x * (stable x + z + i at -1/x): its z-root leaves
        # through infinity at x = 0
        p = degenerate * parse("1 - x*z - i*x", vars=degenerate.vars)
        with pytest.raises(PreconditionError, match=r"root z = oo.*out of scope"):
            numerator_ideal(p)

    @pytest.mark.parametrize("name", ["degenerate", "nonisolated"])
    @pytest.mark.parametrize("unit", ["1 - x*z", "z + 1", "(z + 1)*(z + 2)"])
    def test_factor_shared_with_pbar_is_split_off(self, name, unit):
        # a real factor that is a unit near 0 makes Res_z(p, pbar) = 0 but
        # leaves the ideal unchanged
        p = EXAMPLES[name]()
        pu = p * parse(unit, vars=p.vars)
        assert conjugate_resultant(pu).is_zero()
        desc = numerator_ideal(pu)
        _same_ideal(desc, numerator_ideal(p))
        for text, bounded in WORKED_PAIRS[name]:
            q = parse(text, vars=p.vars)
            v = membership(pu, q, ideal=desc)
            assert (v.verdict is Verdict.IN_IDEAL) == bounded, text

    def test_shared_factor_with_real_phi_through_order(self, iterated7):
        p = iterated7 * parse("z + 1", vars=iterated7.vars)
        desc = numerator_ideal(p, order=12)
        _same_ideal(desc, numerator_ideal(iterated7, order=12))
        assert desc.branch.phi.order == 14
        for text, expected in (
            ("x^13", Verdict.NOT_IN_IDEAL),
            ("x^14", Verdict.IN_IDEAL),
        ):
            q = parse(text, vars=p.vars)
            assert membership(p, q, order=12, ideal=desc).verdict is expected, text

    @pytest.mark.parametrize("text", ["(z + x)*(z + 1)", "(z + x + x*z)*(z + 2)"])
    def test_branch_on_shared_factor_is_principal(self, text):
        # p is real, so Im phi = 0 whether or not the computed phi is exact
        p = parse(text, vars=("x", "y", "z"))
        desc = numerator_ideal(p)
        assert desc.case is CaseTag.PRINCIPAL
        assert desc.generators == [p]

    @pytest.mark.parametrize(
        "text, factor",
        [("(z + x)*(z + 1)", "z + x"), ("(z + x + x*z)*(z + 2)", "z + x + x*z")],
    )
    def test_principal_membership_is_exact(self, text, factor):
        # x^13 vanishes on the branch through order 12 but is no multiple of
        # the factor through 0, so x^13/p is unbounded along the branch
        p = parse(text, vars=("x", "y", "z"))
        desc = numerator_ideal(p, order=12)
        for q, expected in (
            ("x^13", Verdict.NOT_IN_IDEAL),
            ("x^13*(z + 1)", Verdict.NOT_IN_IDEAL),
            (factor, Verdict.IN_IDEAL),
            (f"({factor})*(x + z)", Verdict.IN_IDEAL),
            ("0", Verdict.IN_IDEAL),
        ):
            v = membership(p, parse(q, vars=p.vars), order=12, ideal=desc)
            assert v.verdict is expected, q

    def test_polygon_missing_an_axis_is_not_isolated(self):
        with pytest.raises(PreconditionError, match="not isolated"):
            _isolated_exponent(monomialize(parse("(x + y)^2", vars=("x", "y"))))
        with pytest.raises(PreconditionError, match="not isolated"):
            _isolated_exponent(monomialize(parse("x^2*y^2 + x^4*y^2", vars=("x", "y"))))

    def test_axis_intercepts_give_k(self, degenerate_g):
        assert _isolated_exponent(monomialize(degenerate_g)) == 4
        assert _isolated_exponent(monomialize(parse("x^2 + y^6", vars=("x", "y")))) == 6
