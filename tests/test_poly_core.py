"""Exact arithmetic core: parser, evaluation, reflection, series operators."""

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from numideal import poly as poly_module
from numideal.closure import linear_change
from numideal.errors import ArityError, ParseError
from numideal.gaussian import GaussianRational
from numideal.parsing import format_poly, parse
from numideal.poly import (
    MultiPoly,
    TruncatedSeries,
    implicit_root,
    implicit_series,
    newton_polygon,
    series_invert,
)
from numideal.resultant import conjugate_resultant, divide_exact, pseudo_remainder


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

    @pytest.mark.parametrize(
        "text, message, position",
        [
            ("z + x^²", "unexpected character '²'", 6),
            ("z + ١*x", "unexpected character '١'", 4),
            ("z + x١", "unexpected character '١'", 5),
            ("z + 1/٢", "expected digits after '/'", 6),
        ],
    )
    def test_only_ascii_digits(self, text, message, position):
        # str.isdigit() holds for '²' and '١': int() rejects the one and
        # reads the other as 1
        with pytest.raises(ParseError, match=message) as err:
            parse(text)
        assert err.value.position == position

    def test_variable_outside_given_vars_rejected(self):
        with pytest.raises(ParseError, match=r"'x' is not one of \('y', 'z'\)") as err:
            parse("z + 2*x", vars=("y", "z"))
        assert err.value.position == 6


class TestCoefficientPrinter:
    @pytest.mark.parametrize(
        "re, im, text",
        [
            (0, 0, "0"),
            (1, 0, "1"),
            (-1, 0, "-1"),
            (0, 1, "i"),
            (0, -1, "-i"),
            (0, 2, "2*i"),
            (0, -2, "-2*i"),
            (0, Fraction(-1, 2), "-1/2*i"),
            (Fraction(3, 2), 0, "3/2"),
            (Fraction(3, 2), -1, "(3/2 - i)"),
            (-3, 2, "-(3 - 2*i)"),
        ],
    )
    def test_str(self, re, im, text):
        assert str(GaussianRational(re, im)) == text


def _reference_frac(q):
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _reference_signed_magnitude(c):
    if (c.re != 0 and c.re < 0) or (c.re == 0 and c.im < 0):
        return -1, -c
    return 1, c


def _reference_magnitude(c):
    if c.is_real():
        return _reference_frac(c.re)
    if c.re == 0:
        return "i" if c.im == 1 else f"{_reference_frac(c.im)}*i"
    im = c.im
    if im > 0:
        im_body = "i" if im == 1 else f"{_reference_frac(im)}*i"
        return f"({_reference_frac(c.re)} + {im_body})"
    im_body = "i" if im == -1 else f"{_reference_frac(-im)}*i"
    return f"({_reference_frac(c.re)} - {im_body})"


def reference_format_coefficient(c):
    """The coefficient printer that read the GaussianRational's Fractions:
    the reference for the integer-row renderer of `parsing`."""
    sign, mag = _reference_signed_magnitude(c)
    body = _reference_magnitude(mag)
    return f"-{body}" if sign < 0 else body


def reference_format_poly(p):
    """The polynomial printer that built a GaussianRational per term."""
    if p.is_zero():
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=lambda e: (sum(e), tuple(-k for k in e))):
        sign, mag = _reference_signed_magnitude(p.coefficient(exps))
        mono = "*".join(
            name if k == 1 else f"{name}^{k}" for name, k in zip(p.vars, exps) if k
        )
        if not mono:
            body = _reference_magnitude(mag)
        elif mag == GaussianRational(1):
            body = mono
        else:
            body = f"{_reference_magnitude(mag)}*{mono}"
        if not pieces:
            pieces.append(body if sign > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if sign > 0 else f"- {body}")
    return " ".join(pieces)


class TestPrinterMatchesReference:
    def test_seeded_polynomials(self):
        # real, purely imaginary and mixed coefficients, units and
        # non-units, with and without a constant term
        rng = random.Random(67)
        for k in range(400):
            if k % 4 == 3:
                p = rand_imaginary_poly(rng)
            else:
                p = rand_poly(rng, n_terms=rng.randint(1, 8))
            if k % 5 == 0:
                p = p + MultiPoly.constant(p.vars, rand_gaussian(rng, span=2))
            if k % 7 == 0:
                p = p.scale(Fraction(1, rng.randint(1, 30)))
            assert format_poly(p) == reference_format_poly(p)
            for c in p.terms.values():
                assert str(c) == reference_format_coefficient(c)

    def test_every_small_coefficient(self):
        x = MultiPoly.variable(("x",), "x")
        for re, im in itertools.product(range(-3, 4), repeat=2):
            for d in (1, 2, 6):
                c = GaussianRational(Fraction(re, d), Fraction(im, d))
                assert str(c) == reference_format_coefficient(c)
                p = x.scale(c) + c
                assert format_poly(p) == reference_format_poly(p)


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


class TestEmbed:
    def test_into_a_larger_tuple_keeps_the_values(self):
        p = parse("x^2*y - 3*i*y + 1")
        wide = p.embed(("z", "y", "w", "x"))
        assert wide.vars == ("z", "y", "w", "x")
        x, y = GaussianRational(1, 1), GaussianRational(0, 2)
        assert wide.eval_exact((5, y, 7, x)) == p.eval_exact((x, y)) == GaussianRational(3)

    @pytest.mark.parametrize(
        "text, new_vars, missing",
        [("x + y", ("y", "z"), "x"), ("x", (), "x"), ("x + y + z", ("x", "z"), "y")],
    )
    def test_missing_variable_is_named(self, text, new_vars, missing):
        p = parse(text)
        with pytest.raises(ValueError) as exc:
            p.embed(new_vars)
        message = str(exc.value)
        assert repr(missing) in message
        assert str(p.vars) in message and str(new_vars) in message


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
        im2 = phi.poly.imag_part().homogeneous_part(2)
        assert im2 == parse("2*x^2 + 2*x*y + 2*y^2", vars=("x", "y"))

    def test_real_series_has_zero_imag(self):
        p = parse("x + 2*x*y - y^2", vars=("x", "y"))
        assert p.imag_part().is_zero()

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

    def test_homogeneous_part_partition(self):
        rng = random.Random(19)
        for _ in range(20):
            p = rand_poly(rng)
            total = MultiPoly.zero(p.vars)
            for d in range(p.degree() + 1):
                part = p.homogeneous_part(d)
                assert part.is_zero() or part.degree() == part.min_degree() == d
                total = total + part
            assert total == p

    def test_homogeneous_input_single_part(self):
        p = parse("x*y + y^2", vars=("x", "y"))
        assert p.homogeneous_part(2) == p
        assert p.homogeneous_part(1).is_zero() and p.homogeneous_part(3).is_zero()

    def test_series_is_a_truncated_record(self):
        # the constructor truncates; equality and hash go by (poly, order)
        p = parse("1 + x - 2*i*x*y + y^3", vars=("x", "y"))
        s = TruncatedSeries(p, 2)
        assert s.poly == p.truncate(2) and s.order == 2
        assert s == TruncatedSeries(p.truncate(2), 2)
        assert s != TruncatedSeries(p.truncate(2), 3)
        assert hash(s) == hash(TruncatedSeries(p.truncate(2), 2))
        with pytest.raises(AttributeError):
            s.order = 3
        assert str(s) == "1 + x - 2*i*x*y + O(deg 3)"
        assert repr(s) == f"TruncatedSeries({p.truncate(2)!r}, order=2)"


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
            prod = p.mul_truncated(series_invert(TruncatedSeries(p, 6)).poly, 6)
            assert prod == MultiPoly.constant(("x", "y"), 1)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series_invert(TruncatedSeries(parse("x", vars=("x",)), 3))


def scaled_root(slices, order, stop_at_imaginary=False):
    """The reference implicit root: `implicit_root`'s solve, with each slice
    scaled by -1/pivot term by term through `MultiPoly.scale` before its
    integer form is taken."""
    vars = slices[1].vars
    step = GaussianRational(-1) / slices[1].coefficient((0,) * len(vars))
    w = poly_module.field_width(order)
    limit = poly_module.packed_limit(order, len(vars), w)
    powers = [{0: poly_module.ONE_FORM}] + [{} for _ in range(max(slices))]
    y = powers[1]
    terms = []
    for k in sorted(slices, reverse=True):
        D, rows = poly_module.integer_form(slices[k].scale(step), w, order)
        terms += [(k, row[0] >> len(vars) * w, (D, [row])) for row in rows]
    for m in range(1, order + 1):
        for k in range(2, min(m, max(slices)) + 1):
            lower = powers[k - 1]
            pairs = [(y[j], lower[m - j]) for j in range(1, m) if j in y and m - j in lower]
            poly_module._keep(powers[k], m, pairs, limit)
        pairs = [(t, powers[k][m - d]) for k, d, t in terms if m - d in powers[k]]
        poly_module._keep(y, m, pairs, limit)
        if stop_at_imaginary and m in y and any(b for _, _, b in y[m][1]):
            break
    return poly_module.form_polynomial(vars, w, *y.values())


class TestImplicitRootIntegerScaling:
    PIVOTS = [
        GaussianRational(Fraction(5, 3)),
        GaussianRational(Fraction(-4, 7)),
        GaussianRational(0, Fraction(-7, 2)),
        GaussianRational(0, Fraction(3, 4)),
        GaussianRational(Fraction(2, 3), Fraction(7, 5)),
        GaussianRational(Fraction(-9, 4), Fraction(6, 5)),
    ]

    @staticmethod
    def _slices(rng, pivot):
        vars = ("x", "y")
        origin = (0, 0)
        slices = {}
        for k in range(rng.randint(1, 3) + 1):
            p = rand_poly(rng, vars=vars, max_deg=3, n_terms=rng.randint(1, 7))
            # y(0) = 0 needs s_0(0) = 0; s_1(0) is the pivot
            terms = {e: c for e, c in p.terms.items() if e != origin}
            if k == 1:
                terms[origin] = pivot
            slices[k] = MultiPoly(vars, terms)
        return slices

    def test_matches_term_scaling_seeded(self):
        rng = random.Random(20241019)
        for case in range(120):
            pivot = self.PIVOTS[case % len(self.PIVOTS)]
            slices = self._slices(rng, pivot)
            order = rng.randint(1, 7)
            stop = case % 2 == 1
            got = next(implicit_series(slices, order, stop_at_imaginary=stop))
            ref = scaled_root(slices, order, stop_at_imaginary=stop)
            assert got == ref and list(got.terms) == list(ref.terms), slices
            if not stop:
                # sum_k s_k y^k vanishes through the order
                residual = MultiPoly.zero(("x", "y"))
                for k, s in slices.items():
                    residual = residual + s.mul_truncated(got.pow_truncated(k, order), order)
                assert residual.is_zero()

    def test_zero_pivot_rejected(self):
        x = MultiPoly.variable(("x",), "x")
        with pytest.raises(ZeroDivisionError):
            implicit_root({0: x, 1: x}, 3)


class TestPrimitive:
    def test_matches_term_scaling_seeded(self):
        rng = random.Random(20241020)
        for _ in range(80):
            p = rand_poly(rng, vars=("x", "y"), n_terms=rng.randint(1, 8))
            got = p.primitive()
            ref = p.scale(Fraction(1) / p.content())
            assert got == ref and list(got.terms) == list(ref.terms)
            assert got.content() == 1 and got.den == 1

    def test_zero_is_its_own_primitive(self):
        zero = MultiPoly.zero(("x",))
        assert zero.primitive() == zero


class TestSubstitute:
    def test_cancellation_leaves_imaginary_part(self, linear3):
        from numideal.branch import solve_branch

        phi = solve_branch(linear3, 6).phi
        z_plus_phi = MultiPoly.variable(("x", "y", "z"), "z") + phi.poly.embed(
            ("x", "y", "z")
        )
        res = z_plus_phi.subs({"z": -phi.poly.real_part()}, 6)
        assert res == phi.poly.imag_part().scale(GaussianRational(0, 1))

    def test_nonisolated_reduction_divisible_by_square(self, nonisolated):
        # z = -(x+y)/(1-xy) makes p a unit multiple of (x+y)^2:
        # exact value 2i(x+y)^2/(1-xy)
        inv = series_invert(TruncatedSeries(parse("1 - x*y", vars=("x", "y")), 8))
        s = inv.poly.mul_truncated(parse("-(x + y)", vars=("x", "y")), 8)
        reduced = nonisolated.subs({"z": s}, 8)
        expected = (
            parse("(x + y)^2", vars=("x", "y")).scale(GaussianRational(0, 2))
            * inv.poly
        )
        assert reduced == expected.truncate(8)

    def test_identity_substitution(self, linear3):
        z = MultiPoly.variable(linear3.vars, "z")
        assert linear3.subs({"z": z}) == linear3

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

    def test_power_rows_are_those_of_repeated_squaring_from_one(self):
        rng = random.Random(30)
        for _ in range(25):
            a = rand_poly(rng, n_terms=rng.randint(0, 4))
            for k in range(6):
                # the same squarings, from the constant 1 as the first factor
                ref, base, e = MultiPoly.constant(a.vars, 1), a, k
                while e:
                    if e & 1:
                        ref = ref * base
                    base = base * base if e > 1 else base
                    e >>= 1
                got = a**k
                assert (got.den, list(got.rows.items())) == (ref.den, list(ref.rows.items()))

    def test_pseudo_remainder_of_lower_degree_is_the_dividend(self):
        rng = random.Random(31)
        for _ in range(25):
            a = rand_poly(rng, max_deg=2)
            b = rand_poly(rng, max_deg=2) * MultiPoly.variable(a.vars, "z") ** 3
            assert pseudo_remainder(a, b) is a


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

    def test_extra_row_entries_are_rejected(self):
        q = parse("x*y + z", vars=("x", "y", "z"))
        identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(ArityError, match="2 variables, 2 rows of 2 entries"):
            linear_change(q, identity, ("u", "v"))
        q = parse("x*y", vars=("x", "y"))
        with pytest.raises(ArityError, match="2 rows of 2 entries"):
            linear_change(q, ((1, 0, 0), (0, 1, 0)), ("u", "v"))

    def test_two_rows_for_three_variables_are_rejected(self):
        q = parse("x*y + z", vars=("x", "y", "z"))
        with pytest.raises(ArityError, match="2 variables, 2 rows of 2 entries"):
            linear_change(q, ((1, 2), (3, 4)), ("u", "v"))
        q = parse("x*y", vars=("x", "y"))
        with pytest.raises(ArityError, match="2 new variables"):
            linear_change(q, ((1, 2), (3, 4)), ("u", "v", "w"))
        with pytest.raises(ArityError, match="2 rows of 2 entries"):
            linear_change(q, ((1, 2),), ("u", "v"))


def subs_change(q, rows, new_vars):
    """The reference linear change: one `subs` of the two row forms."""
    u, v = (MultiPoly.variable(new_vars, name) for name in new_vars)
    x, y = (u.scale(r0) + v.scale(r1) for r0, r1 in rows)
    return q.subs({q.vars[0]: x, q.vars[1]: y})


class TestLinearChangeMatchesSubs:
    @staticmethod
    def _entry(rng):
        # zero a fifth of the time; the denominators include coprime pairs
        if rng.random() < 0.2:
            return 0
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 6, 7, 11, 35)))

    def _rows(self, rng, kind):
        a, b, c, d = (self._entry(rng) for _ in range(4))
        return [
            ((1, 0), (0, 1)),  # identity
            ((0, 1), (1, 0)),  # swap
            ((a, b), (c * a, c * b)),  # singular
            ((a, b), (c, d)),
        ][kind]

    @staticmethod
    def _poly(rng, shape):
        if shape == 0:
            return MultiPoly.zero(("x", "y"))
        if shape == 1:
            return MultiPoly.constant(("x", "y"), rand_gaussian(rng))
        deg = rng.randint(1, 12)
        terms = {}
        for _ in range(rng.randint(1, 14)):
            i = rng.randint(0, deg)
            c = rand_gaussian(rng, span=9)
            terms[(i, rng.randint(0, deg - i))] = c if shape == 2 else c.re
        return MultiPoly(("x", "y"), terms)

    def test_seeded_cases_agree(self):
        # every (polynomial shape, row kind) pair 20 times: zero, constant,
        # Gaussian and real polynomials under the identity, the swap,
        # singular and general rows
        rng = random.Random(20241019)
        degrees, real = set(), set()
        for case in range(320):
            q = self._poly(rng, case % 4)
            rows = self._rows(rng, case // 4 % 4)
            got = linear_change(q, rows, ("u", "v"))
            assert got == subs_change(q, rows, ("u", "v")), (q, rows)
            assert got.vars == ("u", "v")
            assert all(not c.is_zero() for c in got.terms.values())
            degrees.add(q.degree())
            real.add(got.is_real())
        assert max(degrees) == 12
        assert real == {True, False}


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


# Res_z(p, pbar) for p = nonisolated * (x + y + z + i) * (2x + y + z + 2i)
NONISOLATED_PRODUCT_R = (
    "-1152*i*x^2 - 2304*i*x*y - 1152*i*y^2 - 16544*i*x^4 - 60736*i*x^3*y - "
    "87968*i*x^2*y^2 - 59904*i*x*y^3 - 16128*i*y^4 - 68640*i*x^6 - "
    "364416*i*x^5*y - 843232*i*x^4*y^2 - 1082048*i*x^3*y^3 - "
    "809920*i*x^2*y^4 - 336384*i*x*y^5 - 61056*i*y^6 - 73088*i*x^8 - "
    "498240*i*x^7*y - 1545568*i*x^6*y^2 - 2804224*i*x^5*y^3 - "
    "3223808*i*x^4*y^4 - 2392640*i*x^3*y^5 - 1117600*i*x^2*y^6 - "
    "301824*i*x*y^7 - 36864*i*y^8 - 25728*i*x^10 - 212224*i*x^9*y - "
    "825280*i*x^8*y^2 - 1934144*i*x^7*y^3 - 2971328*i*x^6*y^4 - "
    "3089280*i*x^5*y^5 - 2182912*i*x^4*y^6 - 1030592*i*x^3*y^7 - "
    "311680*i*x^2*y^8 - 55296*i*x*y^9 - 4608*i*y^10 - 2048*i*x^12 - "
    "17920*i*x^11*y - 82976*i*x^10*y^2 - 245120*i*x^9*y^3 - "
    "484416*i*x^8*y^4 - 649408*i*x^7*y^5 - 588544*i*x^6*y^6 - "
    "353280*i*x^5*y^7 - 134112*i*x^4*y^8 - 29184*i*x^3*y^9 - "
    "2816*i*x^2*y^10 - 1024*i*x^12*y^2 - 7040*i*x^11*y^3 - 22592*i*x^10*y^4 "
    "- 43008*i*x^9*y^5 - 51776*i*x^8*y^6 - 39616*i*x^7*y^7 - "
    "18592*i*x^6*y^8 - 4864*i*x^5*y^9 - 544*i*x^4*y^10 - 128*i*x^12*y^4 - "
    "640*i*x^11*y^5 - 1312*i*x^10*y^6 - 1408*i*x^9*y^7 - 832*i*x^8*y^8 - "
    "256*i*x^7*y^9 - 32*i*x^6*y^10"
)


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


def kernel_horner(groups, D, repls, limit):
    """Horner's scheme with every step on the kernel, the leading slice
    included, which it multiplies by the constant 1: the reference for the
    leading-slice accumulator of `poly._horner`."""
    if not repls:
        return [((D, groups.get((), [])), poly_module.ONE_FORM)]
    slices = {}
    for key, rows in groups.items():
        slices.setdefault(key[0], {})[key[1:]] = rows
    pairs = []
    for k in range(max(slices, default=0), -1, -1):
        if pairs:
            acc = poly_module.reduced_form(*poly_module.sum_of_products(pairs, limit))
            pairs = [(acc, repls[0])]
        if k in slices:
            pairs += kernel_horner(slices[k], D, repls[1:], limit)
    return pairs


def kernel_subs(p, assignments, order=None):
    """`MultiPoly.subs` with every composition on the kernel, also for a p
    in which no replaced variable occurs: the reference for its early
    return.  Replacements are MultiPolys in one variable tuple."""
    target_vars = next(iter(assignments.values())).vars
    replaced = [i for i, name in enumerate(p.vars) if name in assignments]
    repls = [assignments[p.vars[i]] for i in replaced]
    kept = [(i, target_vars.index(name)) for i, name in enumerate(p.vars) if i not in replaced]
    bound = order
    if bound is None:
        degrees = [(i, max(r.degree(), 0)) for i, r in zip(replaced, repls)]
        bound = max(
            (
                sum(e[i] for i, _ in kept) + sum(e[i] * d for i, d in degrees)
                for e in p.rows
            ),
            default=0,
        )
    w = poly_module.field_width(bound)
    repls = [poly_module.integer_form(r, w, bound) for r in repls]
    groups = {}
    for e, (a, b) in p.rows.items():
        t = [0] * len(target_vars)
        for i, j in kept:
            t[j] = e[i]
        if sum(t) <= bound:
            key = tuple(e[i] for i in replaced)
            groups.setdefault(key, []).append((poly_module._pack(t, w), a, b))
    limit = poly_module.packed_limit(bound, len(target_vars), w)
    pairs = kernel_horner(groups, p.den, repls, limit)
    return poly_module.sum_polynomial(
        target_vars, w, *poly_module.sum_of_products(pairs, limit)
    )


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
        # every variable replaced, and the shapes the package composes with:
        # z -> a polynomial in (x, y), and one of (x, y) replaced while the
        # other stays
        rng = random.Random(47)
        xy = ("x", "y")
        same = {v: MultiPoly.variable(xy, v) for v in xy}
        for _ in range(15):
            p = rand_poly(rng, vars=xy, max_deg=2, n_terms=4)
            repls = [
                rand_poly(rng, vars=("u", "v"), max_deg=2, n_terms=3),
                rand_imaginary_poly(rng, vars=("u", "v")),
            ]
            shapes = [
                (p, dict(zip(p.vars, repls))),
                (rand_poly(rng), {"z": rand_poly(rng, vars=xy, max_deg=2, n_terms=4)}),
                (rand_poly(rng, vars=xy), {"x": rand_imaginary_poly(rng)}),
                (rand_poly(rng, vars=xy), {"y": rand_poly(rng, vars=xy, n_terms=3)}),
            ]
            for p, assignments in shapes:
                repls = [assignments.get(v, same.get(v)) for v in p.vars]
                assert p.subs(assignments) == naive_subs(p, repls)
                for order in (0, 2, 5):
                    got = p.subs(assignments, order=order)
                    assert got == naive_subs(p, repls, order)
                    assert_canonical(got)

    def test_subs_matches_the_kernel_route_row_for_row(self):
        # polynomials with and without the replaced variables: the early
        # return and the leading-slice accumulator give the kernel route's
        # rows, in its order, over its denominator
        rng = random.Random(61)
        xyz = ("x", "y", "z")
        for _ in range(40):
            shapes = [
                (rand_poly(rng), {"z": rand_poly(rng, vars=xyz[:2], max_deg=2, n_terms=4)}),
                (
                    rand_poly(rng, vars=xyz[:2]),
                    {"z": rand_poly(rng, vars=xyz[:2], n_terms=3)},
                ),
                (rand_poly(rng, vars=xyz[:2]), {"x": rand_imaginary_poly(rng)}),
                (
                    rand_poly(rng, vars=xyz[:2], max_deg=2),
                    {"x": rand_poly(rng, vars=("u", "v"), max_deg=2, n_terms=3),
                     "y": rand_imaginary_poly(rng, vars=("u", "v"))},
                ),
                (rand_poly(rng, vars=xyz[:1], max_deg=4), {"y": rand_poly(rng, vars=xyz[:2])}),
            ]
            for p, assignments in shapes:
                for order in (None, 0, 2, 5):
                    got = p.subs(assignments, order)
                    ref = kernel_subs(p, assignments, order)
                    assert got == ref
                    assert list(got.rows.items()) == list(ref.rows.items())
        # a polynomial free of the replaced variables comes back relabelled
        p = parse("1/2*x^3 - i*x + 3", vars=("x", "y"))
        got = p.subs({"y": parse("x^2 + z", vars=("x", "z"))}, 1)
        assert got == parse("3 - i*x", vars=("x", "z"))

    def test_exponents_beyond_sixteen_and_thirty_two_bits(self):
        xy = ("x", "y")
        for e in (2**16 - 1, 2**16, 70000, 2**32 - 1, 2**32, 2**32 + 5):
            p = parse(f"x^{e} + 1/2*y - i*x*y^3", vars=xy)
            q = parse(f"3*x^{e}*y + y^2 + x", vars=xy)
            got, ref = p * q, naive_product(p, q)
            assert got == ref and list(got.terms) == list(ref.terms)
            assert got.coefficient((2 * e, 1)) == GaussianRational(3)
            top = p.degree() + q.degree()
            for order in (2, e - 1, e, e + 1, e + 2, top - 1, top, top + 1):
                got, ref = p.mul_truncated(q, order), naive_product(p, q, order)
                assert got == ref and list(got.terms) == list(ref.terms)
                assert_canonical(got)
        big = parse("x^70000", vars=xy)
        assert big * big == parse("x^140000", vars=xy)
        assert big.mul_truncated(big, 139999).is_zero()
        assert big.mul_truncated(big, 140000) == big * big

    def test_subs_with_a_replacement_of_degree_70000(self):
        xy = ("x", "y")
        r = parse("x^70000 - i*y + 2", vars=xy)
        p = parse("x^2 + 3*x*y + y^4 - 1/2", vars=xy)
        for assignments, repls in (
            ({"x": r}, [r, MultiPoly.variable(xy, "y")]),
            ({"x": r, "y": r}, [r, r]),
        ):
            assert p.subs(assignments) == naive_subs(p, repls)
            for order in (3, 69999, 70000, 70001, 140000, 140002):
                got = p.subs(assignments, order=order)
                assert got == naive_subs(p, repls, order)
                assert_canonical(got)
        assert parse("y", vars=xy).subs({"x": r}) == parse("y", vars=xy)

    def test_constants_without_variables(self):
        a = MultiPoly.constant((), GaussianRational(Fraction(3, 4), Fraction(-1, 2)))
        b = MultiPoly.constant((), GaussianRational(0, Fraction(2, 3)))
        zero = MultiPoly.zero(())
        for p, q in ((a, b), (a, a), (a, zero), (zero, b)):
            assert p * q == naive_product(p, q)
            for order in (-1, 0, 1):
                assert p.mul_truncated(q, order) == naive_product(p, q, order)
        assert a.mul_truncated(b, -1).is_zero()
        x = parse("x^2 - i*x + 3", vars=("x",))
        assert x.subs({"x": a}) == naive_subs(x, [a])
        assert x.subs({"x": a}).vars == ()

    def test_nine_variables(self):
        rng = random.Random(59)
        vars = tuple(f"z{k}" for k in range(1, 10))
        for _ in range(6):
            p = rand_poly(rng, vars=vars, max_deg=2, n_terms=6)
            q = rand_poly(rng, vars=vars, max_deg=2, n_terms=5)
            got, ref = p * q, naive_product(p, q)
            assert got == ref and list(got.terms) == list(ref.terms)
            for order in range(p.degree() + q.degree() + 1):
                assert p.mul_truncated(q, order) == naive_product(p, q, order)
            r = rand_poly(rng, vars=vars, max_deg=1, n_terms=3)
            repls = [MultiPoly.variable(vars, v) for v in vars[:-1]] + [r]
            assert p.subs({"z9": r}) == naive_subs(p, repls)
            assert p.subs({"z9": r}, order=4) == naive_subs(p, repls, 4)

    def test_truncation_at_the_order_boundary(self):
        # orders at and next to powers of two, with single exponents equal
        # to the order, so that a field would carry if it were too narrow
        xy = ("x", "y")
        for order in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64):
            for a in {0, 1, order // 2, order - 1, order}:
                p = parse(f"x^{a} + y^{order - a} + 2*x^{order}", vars=xy)
                q = parse(f"x^{order - a} - i*y^{a} + x*y", vars=xy)
                got, ref = p.mul_truncated(q, order), naive_product(p, q, order)
                assert got == ref and list(got.terms) == list(ref.terms)
                assert max(sum(e) for e in got.terms) == order
                assert p.mul_truncated(q, order - 1) == naive_product(p, q, order - 1)

    def test_conjugate_resultant_of_a_degree_three_product(self, nonisolated):
        p = (
            nonisolated
            * parse("x + y + z + i", vars=nonisolated.vars)
            * parse("2*x + y + z + 2*i", vars=nonisolated.vars)
        )
        assert p.var_degree("z") == 3
        assert conjugate_resultant(p) == parse(NONISOLATED_PRODUCT_R, vars=("x", "y"))

    def test_variable_mismatch_raises(self):
        p = parse("x + y", vars=("x", "y"))
        q = parse("x + y", vars=("y", "x"))
        with pytest.raises(ValueError):
            p * q
        with pytest.raises(ValueError):
            p.mul_truncated(q, 3)
        u, v = MultiPoly.variable(("u",), "u"), MultiPoly.variable(("v",), "v")
        with pytest.raises(ValueError):
            p.subs({"x": u, "y": v})


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

    def test_eval_with_scale(self):
        # the value of eval_complex bit for bit, and the sum of the term
        # magnitudes
        rng = random.Random(71)
        for _ in range(20):
            p = rand_poly(rng)
            point = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in "xyz")
            value, scale = p.eval_with_scale(point)
            assert float_bits(value) == float_bits(p.eval_complex(point))
            ref = sum(
                abs(complex(c.re) + 1j * complex(c.im)) * math.prod(abs(z) ** k for z, k in zip(point, e))
                for e, c in p.terms.items()
            )
            assert scale == pytest.approx(ref, rel=1e-12)
        with pytest.raises(ArityError):
            p.eval_with_scale((1, 2))

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


def term_loop_eval(p, point):
    """The term-by-term evaluation `eval_complex` must reproduce bit for bit:
    each coordinate raised to each exponent per term, products in variable
    order, terms summed in insertion order."""
    total = 0j
    for e, c in p.terms.items():
        v = complex(c.re) + 1j * complex(c.im)
        for z, k in zip(point, e):
            if k:
                v *= z**k
        total += v
    return total


class _TermLoopPoly:
    def __init__(self, p):
        self.vars = p.vars
        self.eval_complex = lambda point: term_loop_eval(p, tuple(point))


def float_bits(value: complex):
    # repr tells -0.0 from 0.0, and nan from any number
    return repr(value.real), repr(value.imag)


class TestComplexEvaluationMatchesTermLoop:
    COORDINATES = (0, 1, -2, 0.0, -0.0, 0.75, -1.25, 1j, -0.0j, complex(-0.0, 0.5))

    def random_point(self, rng, n):
        point = []
        for _ in range(n):
            kind = rng.randrange(4)
            if kind == 0:
                point.append(rng.choice(self.COORDINATES))
            elif kind == 1:
                point.append(rng.randint(-3, 3))
            elif kind == 2:
                point.append(rng.uniform(-1.5, 1.5))
            else:
                point.append(complex(rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1)))
        return tuple(point)

    def test_random_polynomials_bit_for_bit(self):
        rng = random.Random(151)
        for _ in range(300):
            n = rng.randint(1, 4)
            vars = ("x", "y", "z", "w")[:n]
            # the last variable never occurs, and a zero exponent vector
            # is a constant term
            used = max(n - 1, 1)
            terms = {(0,) * n: rand_gaussian(rng)} if rng.random() < 0.5 else {}
            for _ in range(rng.randint(0, 10)):
                exps = [rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(used)]
                terms[tuple(exps) + (0,) * (n - used)] = rand_gaussian(rng)
            p = MultiPoly(vars, terms)
            for _ in range(4):
                point = self.random_point(rng, n)
                assert float_bits(p.eval_complex(point)) == float_bits(
                    term_loop_eval(p, point)
                ), (p, point)

    def test_zero_polynomial(self):
        for vars in (("x",), ("x", "y", "z")):
            p = MultiPoly.zero(vars)
            point = (-0.0,) * len(vars)
            assert float_bits(p.eval_complex(point)) == float_bits(0j)

    def test_signed_zero_coordinates(self):
        p = parse("x*y - 2*x^3 + i*y^2 + 1/3*x*y^4", vars=("x", "y"))
        for point in itertools.product((0, 0.0, -0.0, -0.0j, complex(-0.0, -0.0)), repeat=2):
            assert float_bits(p.eval_complex(point)) == float_bits(
                term_loop_eval(p, point)
            ), point

    def test_exponents_above_100(self):
        # CPython's complex ** switches from repeated squaring to exp/log
        # for integer exponents above 100
        p = parse("x^101*y + 3*x^150 - i*y^250 + x^7*y^101 + 2", vars=("x", "y"))
        rng = random.Random(7)
        for _ in range(50):
            point = (
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                rng.choice((rng.uniform(-1, 1), complex(rng.uniform(-1, 1), 0.3))),
            )
            assert float_bits(p.eval_complex(point)) == float_bits(
                term_loop_eval(p, point)
            ), point

    def test_sampled_sphere_matches_term_loop(self):
        from numideal.construct import iterated_composition
        from numideal.engine import numerator_ideal
        from numideal.forms import sampled_sphere_nonneg

        ideal = numerator_ideal(iterated_composition(2, n_vars=4), order=12)
        im_phi = ideal.classification.im_part_2L
        assert ideal.classification.definite_exact is False
        # the call classify makes
        assert sampled_sphere_nonneg(im_phi) == (
            sampled_sphere_nonneg(_TermLoopPoly(im_phi))
        )


# -- the integer storage against term-by-term GaussianRational references --

DENOMINATORS = (2, 3, 4, 5, 6, 9, 12)


def rand_q_i_poly(rng, n):
    """A seeded polynomial in n variables whose coefficients have non-unit
    denominators, some of them real or purely imaginary."""
    vars = ("x", "y", "z", "x1")[:n]
    terms = {}
    for _ in range(rng.randint(1, 7)):
        exps = tuple(rng.randint(0, 3) for _ in vars)
        re = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
        im = Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
        kind = rng.randrange(3)
        terms[exps] = GaussianRational(re if kind != 2 else 0, im if kind != 1 else 0)
    return MultiPoly(vars, terms)


def ref_map(p, f=lambda c: c, keep=lambda e: True):
    """p's coefficients through f, on the terms whose exponents keep takes."""
    return MultiPoly(p.vars, {e: f(c) for e, c in p.terms.items() if keep(e)})


def ref_add(p, q):
    terms = dict(p.terms)
    for e, c in q.terms.items():
        terms[e] = terms.get(e, GaussianRational(0)) + c
    return MultiPoly(p.vars, terms)


def ref_slices(p, name):
    idx = p.vars.index(name)
    buckets = {}
    for e, c in p.terms.items():
        buckets.setdefault(e[idx], {})[e[:idx] + e[idx + 1 :]] = c
    rest = p.vars[:idx] + p.vars[idx + 1 :]
    return {k: MultiPoly(rest, t) for k, t in buckets.items()}


def ref_embed(p, new_vars):
    pos = [new_vars.index(v) for v in p.vars]
    terms = {}
    for e, c in p.terms.items():
        exps = [0] * len(new_vars)
        for i, k in zip(pos, e):
            exps[i] = k
        terms[tuple(exps)] = c
    return MultiPoly(new_vars, terms)


def ref_content(p):
    num, den = 0, 1
    for c in p.terms.values():
        for part in (c.re, c.im):
            if part:
                num = math.gcd(num, part.numerator)
                den = math.lcm(den, part.denominator)
    return Fraction(num, den) if num else Fraction(1)


def ref_eval_exact(p, point):
    total = GaussianRational(0)
    for e, c in p.terms.items():
        for z, k in zip(point, e):
            c = c * z**k
        total = total + c
    return total


def ref_divide_exact(a, b):
    """Long division by lex-leading terms, term by term."""
    lead = max(b.terms)
    inv = GaussianRational(1) / b.terms[lead]
    rest, quotient = dict(a.terms), {}
    while rest:
        top = max(rest)
        shift = tuple(i - j for i, j in zip(top, lead))
        c = rest[top] * inv
        quotient[shift] = c
        for e, v in b.terms.items():
            key = tuple(i + j for i, j in zip(shift, e))
            value = rest.get(key, GaussianRational(0)) - c * v
            if value.is_zero():
                rest.pop(key, None)
            else:
                rest[key] = value
    return MultiPoly(a.vars, quotient)


def assert_rows_canonical(p):
    assert p.den > 0
    assert math.gcd(p.den, *(v for row in p.rows.values() for v in row)) == 1
    for e, (a, b) in p.rows.items():
        assert a or b
        assert p.terms[e] == GaussianRational(Fraction(a, p.den), Fraction(b, p.den))
    assert list(p.terms) == list(p.rows)


def assert_same(got, ref):
    """Equal value, equal term order and canonical rows."""
    assert got == ref and hash(got) == hash(ref)
    assert list(got.terms.items()) == list(ref.terms.items())
    assert_rows_canonical(got)


class TestIntegerRows:
    CASES = 150

    def polys(self, seed):
        rng = random.Random(seed)
        for case in range(self.CASES):
            n = case % 4 + 1
            yield rng, rand_q_i_poly(rng, n), rand_q_i_poly(rng, n)

    def test_ring_operations_match_term_references(self):
        for rng, p, q in self.polys(20261019):
            assert_same(p + q, ref_add(p, q))
            assert_same(p - q, ref_add(p, ref_map(q, lambda c: -c)))
            assert_same(p + (-p), MultiPoly.zero(p.vars))
            assert_same(-p, ref_map(p, lambda c: -c))
            value = rng.choice([0, Fraction(3, 4), rand_gaussian(rng), GaussianRational(0, 2)])
            assert_same(p.scale(value), ref_map(p, lambda c: c * value))

    def test_structure_matches_term_references(self):
        for rng, p, _ in self.polys(20261020):
            k = rng.randint(0, 6)
            assert_same(p.truncate(k), ref_map(p, keep=lambda e: sum(e) <= k))
            assert_same(p.homogeneous_part(k), ref_map(p, keep=lambda e: sum(e) == k))
            assert_same(p.real_part(), ref_map(p, lambda c: GaussianRational(c.re)))
            assert_same(p.imag_part(), ref_map(p, lambda c: GaussianRational(c.im)))
            assert_same(p.reflect(), ref_map(p, lambda c: c.conj()))
            assert p.is_real() == all(c.im == 0 for c in p.terms.values())
            name = rng.choice(p.vars)
            got, ref = p.slices(name), ref_slices(p, name)
            assert list(got) == list(ref)
            for j in ref:
                assert_same(got[j], ref[j])
            wider = tuple(rng.sample(("x", "y", "z", "x1", "x2"), 5))
            wider = tuple(v for v in wider if v not in p.vars) + p.vars[::-1]
            assert_same(p.embed(wider), ref_embed(p, wider))
            for e in list(p.terms) + [(9,) * len(p.vars)]:
                assert p.coefficient(e) == p.terms.get(e, GaussianRational(0))

    def test_content_and_primitive_match_term_references(self):
        for rng, p, _ in self.polys(20261021):
            assert p.content() == ref_content(p)
            ref = MultiPoly(p.vars, {e: c / ref_content(p) for e, c in p.terms.items()})
            got = p.primitive()
            assert_same(got, ref)
            assert got.den == 1

    def test_eval_exact_matches_term_reference(self):
        for rng, p, _ in self.polys(20261022):
            point = [
                GaussianRational.coerce(
                    rng.choice([0, rand_gaussian(rng), Fraction(rng.randint(-5, 5), 7)])
                )
                for _ in p.vars
            ]
            assert p.eval_exact(point) == ref_eval_exact(p, point)

    def test_divide_exact_matches_term_reference(self):
        for _, p, q in self.polys(20261023):
            a = p * q
            got, ref = divide_exact(a, q), ref_divide_exact(a, q)
            assert_same(got, ref)
            assert got == p
        x, y = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
        with pytest.raises(ArithmeticError):
            divide_exact(x * x + y, x)

    def test_equal_polynomials_hash_and_store_alike(self):
        rng = random.Random(20261024)
        for case in range(60):
            p, q = rand_q_i_poly(rng, case % 4 + 1), rand_q_i_poly(rng, case % 4 + 1)
            product = p * q
            # by the public constructor, with the terms in reverse order
            by_terms = MultiPoly(product.vars, dict(reversed(list(product.terms.items()))))
            by_parse = parse(format_poly(product), vars=product.vars)
            for other in (by_terms, by_parse, naive_product(p, q)):
                assert other == product and hash(other) == hash(product)
                assert (other.den, dict(other.rows)) == (product.den, dict(product.rows))
                assert_rows_canonical(other)
        assert len({parse("1/2*x + 1/3*y"), parse("3*x + 2*y").scale(Fraction(1, 6))}) == 1

    def test_terms_is_a_read_only_view(self):
        p = parse("1/2*x + 1/3*i*y")
        with pytest.raises(TypeError):
            p.terms[(0, 0)] = GaussianRational(1)
        assert p.terms is p.terms
        assert (p.den, p.rows) == (6, {(1, 0): (3, 0), (0, 1): (0, 2)})
