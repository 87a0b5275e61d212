"""Membership in IC(g) via the Newton polyhedron, with generator lists."""

import math
import random
import time
from fractions import Fraction

import pytest

from numideal import closure
from numideal.closure import (
    ic_generators,
    ic_membership,
    line_frame,
    linear_change,
    monomialize,
    rational_circle_points,
)
from numideal.engine import CaseTag, Verdict, membership, numerator_ideal
from numideal.errors import NoMonomializationFound
from numideal.forms import binary_form
from numideal.gaussian import GaussianRational
from numideal.parsing import format_poly, parse
from numideal.poly import MultiPoly
from test_poly_core import subs_change


def assert_negative_along(g, witness):
    """g, evaluated exactly on the witness curve (u, v) = (u0 t^wu, v0 t^wv)
    in the frame (u, v) = change * (x, y), is negative at small t > 0 and
    equals leading * t^order to first order."""
    (a, b), (c, d) = witness["change"]
    det = a * d - b * c
    assert witness["u"] != 0 and witness["v"] != 0 and witness["leading"] < 0
    for k in (3, 4):
        t = Fraction(1, 10**k)
        u = witness["u"] * t ** witness["u_weight"]
        v = witness["v"] * t ** witness["v_weight"]
        point = [GaussianRational((d * u - b * v) / det), GaussianRational((a * v - c * u) / det)]
        value = g.eval_exact(point)
        assert value.im == 0 and value.re < 0
        ratio = value.re / t ** witness["order"]
        assert abs(ratio / witness["leading"] - 1) < Fraction(1, 100)


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

    @pytest.mark.parametrize(
        "text, curve",
        [
            ("x^2 - y^2", "x = t, y = -3*t"),
            ("-(x + y)^2", "x = t, y = -3*t"),
            ("(x - y)^2 - x^5", "x - y = t^5, x + y = 34*t^2"),
            ("(x - y)^2 + x^3", "x - y = t^3, x + y = -10*t^2"),
        ],
    )
    def test_negative_face_gives_a_witness_curve(self, text, curve):
        g = parse(text, vars=("x", "y"))
        with pytest.raises(NoMonomializationFound, match="g < 0 along") as exc:
            monomialize(g)
        assert exc.value.witness["curve"] == curve
        assert_negative_along(g, exc.value.witness)

    def test_negative_face_leading_is_exact_for_rational_coefficients(self):
        # G's rows are over den 15: the witness's leading is F(u0, v0) itself,
        # an exact Fraction, not den times it
        g = parse("1/3*x^2 - 1/5*y^2 + x^3", vars=("x", "y"))
        with pytest.raises(NoMonomializationFound, match="g < 0 along") as exc:
            monomialize(g)
        witness = exc.value.witness
        G = linear_change(g, _inverse(witness["change"]), ("u", "v"))
        assert G.den > 1
        wu, wv, m = witness["u_weight"], witness["v_weight"], witness["order"]
        u0, v0 = witness["u"], witness["v"]
        face = sum(
            c.re * u0**a * v0**b for (a, b), c in G.terms.items() if wu * a + wv * b == m
        )
        assert isinstance(witness["leading"], Fraction)
        assert witness["leading"] == face < 0
        assert_negative_along(g, witness)

    def test_nonnegative_rejection_has_no_witness(self):
        # (u - v^2)^2 + u^2 v^2 >= 0 vanishes along u = v^2: no face is
        # negative, so the rejection names no curve
        g = parse("(x - y^2)^2 + x^2*y^2", vars=("x", "y"))
        with pytest.raises(NoMonomializationFound, match="no tried") as exc:
            monomialize(g)
        assert exc.value.witness is None

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


def _seeded_g(rng):
    """A sum of positive even monomials in the frame of a small line, plus
    terms of either sign, sometimes times a unit: many are accepted in one
    frame or another, many in none."""
    a, b = rng.choice([(1, 0), (0, 1), (1, -1), (1, 1), (1, 2), (2, -1), (2, 1), (1, -2)])
    u, v = f"({a}*x + {b}*y)", f"({-b}*x + {a}*y)"
    if rng.random() < 0.3:
        u, v = v, u
    parts = [
        f"{rng.randint(1, 3)}*{u}^{2 * rng.randint(0, 2)}*{v}^{2 * rng.randint(0, 2)}"
        for _ in range(rng.randint(1, 3))
    ]
    for _ in range(rng.randint(0, 2)):
        k = rng.randint(0, 4)
        parts.append(f"({rng.randint(-2, 2)})*{u}^{k}*{v}^{rng.randint(max(0, 2 - k), 5 - k)}")
    g = parse(" + ".join(parts), vars=("x", "y"))
    if rng.random() < 0.3:
        unit = f"1 + {rng.randint(-2, 2)}*x + {rng.randint(-2, 2)}*y"
        g = g * parse(unit, vars=("x", "y"))
    return g


def _repeated_rational_roots(g):
    """The rational roots t of multiplicity >= 2 of the lowest form c(t) =
    g_d(t, 1) of g, ascending, from sympy's factorisation over QQ: a
    test-only reference."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    c = sympy.Poly(binary_form(g.lowest_part())[::-1], t)
    roots = []
    for factor, mult in c.factor_list()[1]:
        if factor.degree() == 1 and mult >= 2:
            a, b = factor.all_coeffs()
            roots.append(Fraction(-int(b), int(a)))
    return sorted(roots)


def _rational_sqrt(q: Fraction):
    """The square root of q >= 0 in Q, or None."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _earlier_frames(g):
    """The frames monomialize used to try, in its order: identity, swap,
    x -+ y, x +- y, the frames of the repeated rational roots of the lowest
    form, then the rational eigenframes of the quadratic part."""
    frames = [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, -1), (1, 1)), ((1, 1), (1, -1))]
    for root in _repeated_rational_roots(g):
        num, den = root.numerator, root.denominator
        frames.append(((den, -num), (num, den)))
    quad = g.homogeneous_part(2)
    if not quad.is_zero():
        a, b, c = (quad.coefficient(e).re for e in ((2, 0), (1, 1), (0, 2)))
        s = _rational_sqrt((a - c) ** 2 + b * b)
        if b != 0 and s is not None:
            for lam in ((a + c + s) / 2, (a + c - s) / 2):
                vx, vy = b / 2, lam - a
                k = vx.denominator * vy.denominator
                frames.append(((int(vx * k), int(vy * k)), (-int(vy * k), int(vx * k))))
    unique = []
    for frame in frames:
        if frame not in unique:
            unique.append(frame)
    return unique


def _root_lines(g):
    """The lines of `_candidate_lines` built from `_repeated_rational_roots`:
    a test-only reference."""
    lines = [(1, 0), (1, -1)]
    for root in _repeated_rational_roots(g):
        num, den = root.numerator, root.denominator
        perpendicular = (num, den) if num > 0 else (-num, -den)
        if (den, -num) not in lines and perpendicular not in lines:
            lines.append((den, -num))
    return lines


QUADRATICS = ("x^2 + y^2", "x^2 + x*y + y^2", "x^2 - 2*y^2", "3*x^2 + 5*y^2")
IRREDUCIBLE = QUADRATICS + ("x^3 - 2*y^3",)
# a factor x is a root at t = 0, a factor y one at infinity
AXIS_FACTORS = ("", "x", "x^2", "y", "y^2")

# the probe of many divisors: finding the root of its lowest form
# (360 x - 77 y)^2 (360^2 x^2 + 77^2 y^2) by a search over Gaussian divisors
# took 25-30 s on a 2-vCPU machine
MANY_DIVISORS = "z + 360*x + 77*y + i*((360*x - 77*y)^2*(360^2*x^2 + 77^2*y^2) + x^6)"


def _seeded_binary_form(
    rng, scale, n_linear, multiplicities, cofactors, powers, axis_factors
):
    """scale times n_linear rational linear factors, an irreducible
    cofactor and an axis factor."""
    parts = [
        f"({rng.randint(1, 3)}*x - {rng.randint(-3, 3)}*y)^{rng.choice(multiplicities)}"
        for _ in range(n_linear)
    ]
    parts.append(f"({rng.choice(cofactors)})^{rng.choice(powers)}")
    parts.append(rng.choice(axis_factors) or "1")
    return parse(f"{scale}*" + "*".join(parts), vars=("x", "y"))


def _inverse(change):
    (a, b), (c, d) = change
    det = Fraction(a * d - b * c)
    return ((d / det, -b / det), (-c / det, a / det))


class TestCandidateFrames:
    def test_line_frame(self):
        change, inverse = line_frame(2, -3)
        assert change == ((2, -3), (3, 2))
        assert inverse == _inverse(change)

    def test_first_accepted_frame_of_the_earlier_order(self):
        # the swapped, x + y and eigenframes never come first, so dropping
        # them keeps the accepted frame
        rng = random.Random(23)
        accepted = set()
        for _ in range(200):
            g = _seeded_g(rng)
            if g.is_zero():
                continue
            expected = next(
                (
                    frame
                    for frame in _earlier_frames(g)
                    if closure._try_change(g, frame, _inverse(frame)) is not None
                ),
                None,
            )
            if expected is None:
                with pytest.raises(NoMonomializationFound):
                    monomialize(g)
            else:
                assert monomialize(g).change == expected, format_poly(g)
                accepted.add(expected)
        # identity, x - y and root frames all occur
        assert len(accepted) >= 5

    @pytest.mark.parametrize(
        "a, b, change",
        [
            (1, 1, ((1, -1), (1, 1))),
            (Fraction(3, 2), Fraction(1, 4), ((6, -1), (1, 6))),
            (Fraction(1, 4), 2, ((1, -8), (8, 1))),
            (2, 4, ((1, -2), (2, 1))),
            (Fraction(2, 3), Fraction(3, 2), ((4, -9), (9, 4))),
            (4, Fraction(1, 2), ((8, -1), (1, 8))),
            (Fraction(1, 2), Fraction(2, 3), ((3, -4), (4, 3))),
        ],
    )
    def test_degenerate_rescalings_change_only_the_accepted_frame(
        self, degenerate, monkeypatch, a, b, change
    ):
        # the lowest form rules out the frames before the accepted one, so g
        # changes frame once
        p = MultiPoly(
            degenerate.vars,
            {e: c * Fraction(a) ** e[0] * Fraction(b) ** e[1] for e, c in degenerate.terms.items()},
        )
        tried = []
        try_change = closure._try_change

        def counting(g, frame, inverse):
            tried.append(frame)
            return try_change(g, frame, inverse)

        monkeypatch.setattr(closure, "_try_change", counting)
        ic = numerator_ideal(p).ic
        assert ic.change == change
        assert tried == [change]

    @pytest.mark.parametrize(
        "text, lines, changed",
        [
            # the root line x + y has the axes of the x - y frame
            ("(x + y)^2*(x - y)^2 - x^6", [(1, 0), (1, -1)], [(1, -1)]),
            # roots t = 2 and -1/2 give perpendicular lines
            ("(x - 2*y)^2*(2*x + y)^2 - x^6", [(1, 0), (1, -1), (2, 1)], [(2, 1)]),
        ],
    )
    def test_perpendicular_line_is_not_tried_again(self, monkeypatch, text, lines, changed):
        # every line is tried on the lowest form; g changes frame only in
        # the frames that its lowest form accepts
        g = parse(text, vars=("x", "y"))
        assert closure._candidate_lines(g) == lines
        tried = []
        try_change = closure._try_change

        def counting(g, frame, inverse):
            tried.append(frame[0])
            return try_change(g, frame, inverse)

        monkeypatch.setattr(closure, "_try_change", counting)
        with pytest.raises(NoMonomializationFound):
            monomialize(g)
        assert tried == changed

    def test_a_frame_that_accepts_g_accepts_its_lowest_form(self):
        # the admission of `monomialize`: checking the lowest form first
        # rejects no frame that g itself would pass
        rng = random.Random(29)
        accepted = 0
        for _ in range(300):
            g = _seeded_g(rng)
            lowest = g.lowest_part()
            frames = [line_frame(a, b) for a, b in closure._candidate_lines(g)]
            frames += [(frame, _inverse(frame)) for frame in _earlier_frames(g)]
            for change, inverse in frames:
                if closure._try_change(g, change, inverse) is not None:
                    accepted += 1
                    assert closure._try_change(lowest, change, inverse) is not None, (
                        format_poly(g),
                        change,
                    )
        assert accepted >= 500

    @pytest.mark.parametrize(
        "scale, n_linear, multiplicities, cofactors, powers, axis_factors, count",
        [
            (1, 1, (1, 2, 3), IRREDUCIBLE, (1, 2), AXIS_FACTORS, 30),
            (1, 2, (1, 2, 3), IRREDUCIBLE, (1,), AXIS_FACTORS, 30),
            (1, 3, (1, 2), QUADRATICS, (1,), ("",), 20),
            (360, 1, (2,), QUADRATICS, (1,), ("", "x", "y"), 6),
        ],
        ids=["one-linear", "two-linear", "three-linear", "scale-360"],
    )
    def test_lines_match_the_factorisation_reference(
        self, scale, n_linear, multiplicities, cofactors, powers, axis_factors, count
    ):
        rng = random.Random(41)
        with_root_lines = 0
        for _ in range(count):
            g = _seeded_binary_form(
                rng, scale, n_linear, multiplicities, cofactors, powers, axis_factors
            )
            lines = closure._candidate_lines(g)
            assert lines == _root_lines(g), format_poly(g)
            with_root_lines += len(lines) > 2
        assert with_root_lines > 0

    @pytest.mark.parametrize(
        "text",
        [
            # repeated squarefree factors of degree 3 with no rational root and with
            # one, of degree 4 with four, and of degree 5 with three, one at 0
            "(x^3 - 2*y^3)^2*(x - y)^3",
            "(x^2 - 2*y^2)^2*(3*x + y)^2",
            "((x - y)*(x - 2*y)*(2*x + y)*(x + 3*y))^2",
            "6*((x^2 + y^2)*(x - 5*y)*(4*x - 3*y)*x)^2",
            # the root -3 of multiplicity 3 comes before the root 2 of 2
            "(x - 2*y)^2*(x + 3*y)^3*(x^2 + y^2)",
        ],
    )
    def test_higher_degree_factors_match_the_factorisation_reference(self, text):
        g = parse(text, vars=("x", "y"))
        assert closure._candidate_lines(g) == _root_lines(g)

    @pytest.mark.parametrize(
        "p, lines",
        [
            # a semiprime with two prime factors near 10^7: no rational root
            ((10**7 + 19) * (10**7 + 79), [(1, 0), (1, -1)]),
            # a cube: its root is the one rational line
            ((10**4 + 7) ** 3, [(1, 0), (1, -1), (1, -(10**4 + 7))]),
        ],
    )
    def test_large_lowest_form_coefficients(self, p, lines):
        # the rational roots of x^3 - p are found without factoring p
        g = parse(f"(x^3 - {p}*y^3)^2 + x^8 + y^8", vars=("x", "y"))
        start = time.perf_counter()
        assert closure._candidate_lines(g) == lines
        assert time.perf_counter() - start < 0.1

    def test_many_divisors_probe(self):
        p = parse(MANY_DIVISORS)
        desc = numerator_ideal(p)
        assert desc.case is CaseTag.ISOLATED_DEGENERATE and desc.L_or_K == 6
        for text, verdict in (
            ("x^6", Verdict.IN_IDEAL),
            ("(360*x - 77*y)*x^2", Verdict.NOT_IN_IDEAL),
        ):
            q = parse(text, vars=p.vars)
            assert membership(p, q, ideal=desc).verdict is verdict


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


class TestAxisOnlyWitness:
    """g = (x + y)^2 is v^2 in the frame u = x - y, v = x + y: u_min = 0,
    v_min = 2 and no halfspace.  A numerator that breaks only that axis
    bound gets a steep synthesized weight (W, 1) or (1, W)."""

    @pytest.mark.parametrize(
        "text, weights, q_order, g_order",
        [("x - y", (1, 3), 1, 6), ("y", (3, 1), 1, 2)],
    )
    def test_steep_weight_witness(self, text, weights, q_order, g_order):
        g = parse("(x + y)^2", vars=("x", "y"))
        ic = monomialize(g)
        assert (ic.u_min, ic.v_min, ic.halfspaces) == (0, 2, ())
        q = parse(text, vars=("x", "y"))
        member, witness = ic_membership(q, ic)
        assert member is False
        curve = witness["curve"]
        assert (curve["u_weight"], curve["v_weight"]) == weights
        assert (curve["q_order"], curve["g_order"]) == (q_order, g_order)
        # exactly along u = lu s^wu, v = lv s^wv: q has order q_order with
        # a nonzero leading coefficient, and g has order g_order
        lu, lv = curve["lambda"]
        s = MultiPoly.variable(("s",), "s")
        along = {"u": s**weights[0] * lu, "v": s**weights[1] * lv}
        q_along, g_along = (ic.to_uv(f).subs(along) for f in (q, g))
        assert not q_along.coefficient((q_order,)).is_zero()
        assert q_along.min_degree() == q_order
        assert g_along.min_degree() == g_order


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


class TestDirectChangeMatchesSubs:
    """The ideal and verdicts of the degenerate example and its rescalings
    are the same when every change of frame is one `subs`."""

    @pytest.mark.parametrize(
        "a, b",
        [
            (1, 1),
            (Fraction(1, 4), 2),
            (4, Fraction(1, 2)),
            (Fraction(2, 3), Fraction(3, 2)),
        ],
    )
    def test_ideal_and_verdicts_agree(self, degenerate, monkeypatch, a, b):
        p = MultiPoly(
            degenerate.vars,
            {e: c * Fraction(a) ** e[0] * Fraction(b) ** e[1] for e, c in degenerate.terms.items()},
        )
        checks = [
            MultiPoly(p.vars, {(i, j, k): 1})
            for i in range(5)
            for j in range(5 - i)
            for k in range(2)
        ] + [parse(t, vars=p.vars) for t in TestVerdictTable.MEMBERS + TestVerdictTable.NON_MEMBERS]

        def answers():
            desc = numerator_ideal(p)
            return desc, ic_generators(desc.ic), [membership(p, q, ideal=desc) for q in checks]

        direct = answers()
        monkeypatch.setattr(closure, "linear_change", subs_change)
        reference = answers()
        assert direct == reference
        desc, _, verdicts = direct
        assert desc.case is CaseTag.ISOLATED_DEGENERATE
        assert {v.verdict for v in verdicts} == {Verdict.IN_IDEAL, Verdict.NOT_IN_IDEAL}


class TestRationalCirclePoints:
    def test_points_have_exact_radius(self):
        for x, y in rational_circle_points(Fraction(1, 16), 8):
            assert x * x + y * y == Fraction(1, 256)
