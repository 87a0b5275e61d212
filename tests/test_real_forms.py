"""Sturm-based definiteness and the numeric comparability estimator."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from numideal.branch import classify, solve_branch
from numideal.closure import _candidate_lines
from numideal.construct import iterated_composition
from numideal.errors import PreconditionError
from numideal.forms import (
    _bareiss_ldlt,
    binary_form,
    count_real_roots,
    is_nonnegative,
    is_positive_definite,
    negative_point,
    p_strip,
    quadratic_form_sign,
    rational_roots,
    sturm_chain,
)
from numideal.gaussian import GaussianRational as G
from numideal.parsing import parse
from numideal.poly import MultiPoly
from numideal.puiseux import rational_prime_factors

from comparability import comparability_ratio, sampled_circle_min


def form_of(text):
    return binary_form(parse(text, vars=("x", "y")))


# -- test-only field arithmetic on ascending coefficient lists over Q: the
# references below need true remainders and exact values, not the
# pseudo-remainders of the integer chain


def _eval(c, x):
    """c(x) by Horner's scheme, as a Fraction."""
    acc = Fraction(0)
    for a in reversed(c):
        acc = acc * x + a
    return acc


def _divmod(a, b):
    """(q, r) with a = q b + r and deg r < deg b over Q, for a nonzero
    stripped b."""
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = p_strip([Fraction(v) for v in a])
    while len(r) >= len(b):
        k, f = len(r) - len(b), r[-1] / b[-1]
        q[k] = f
        for i, v in enumerate(b):
            r[k + i] -= f * v
        p_strip(r)
    return p_strip(q), r


def _derivative(c):
    return p_strip([k * v for k, v in enumerate(c)][1:])


def _gcd(a, b):
    """The monic gcd over Q; [] when both are zero."""
    while b:
        a, b = b, _divmod(a, b)[1]
    return [Fraction(v) / a[-1] for v in a] if a else []


class TestSturm:
    def test_count_real_roots_quadratics(self):
        assert count_real_roots([Fraction(1), Fraction(0), Fraction(1)]) == 0
        assert count_real_roots([Fraction(-1), Fraction(0), Fraction(1)]) == 2
        assert count_real_roots([Fraction(1), Fraction(-2), Fraction(1)]) == 1

    def test_nonneg_on_reals(self):
        assert is_nonnegative([Fraction(1), Fraction(-2), Fraction(1)])
        assert not is_nonnegative([Fraction(-1), Fraction(0), Fraction(1)])
        assert is_nonnegative([])


class TestRationalRoots:
    @staticmethod
    def product(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    def test_seeded_products(self):
        # rational roots, 0 among them, repeated or not, times a cofactor with
        # none: degree 1 by formula, higher by the rational-root theorem
        rng = random.Random(7)
        for _ in range(60):
            roots = {
                Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            }
            c = [Fraction(rng.choice([1, 3, -10]))]
            for root in roots:
                for _ in range(rng.randint(1, 2)):
                    c = self.product(c, [-root, Fraction(1)])
            cofactor = rng.choice([[1], [1, 0, 1], [-2, 0, 1], [-2, 0, 0, 1]])
            c = self.product(c, [Fraction(v) for v in cofactor])
            assert rational_roots(c) == sorted(roots), c

    def test_top_zeros_are_stripped(self):
        # x*y is t at y = 1; the top zero is the root of the form at (1, 0)
        assert rational_roots(binary_form(parse("x*y", vars=("x", "y")))) == [0]
        assert rational_roots([Fraction(-2), Fraction(1), 0, 0]) == [2]
        assert rational_roots([Fraction(1), Fraction(0), Fraction(-1), 0]) == [-1, 1]

    @pytest.mark.parametrize("c", [[], [Fraction(0)], [0, 0, 0]])
    def test_zero_list_rejected(self, c):
        with pytest.raises(PreconditionError):
            rational_roots(c)


def divisor_rational_roots(c):
    """The rational roots of c by the rational-root theorem: every p/q with
    p dividing the constant and q the leading coefficient, denominators
    cleared."""

    def divisors(n):
        out = {1}
        for prime in rational_prime_factors(n):
            out |= {d * prime for d in out}
        return out

    k0 = next(k for k, v in enumerate(c) if v != 0)
    roots = {Fraction(0)} if k0 else set()
    c = c[k0:]
    den = math.lcm(*(v.denominator for v in c))
    qs = divisors(abs(int(c[-1] * den)))
    for p in divisors(abs(int(c[0] * den))):
        for r in (Fraction(p, q) * sign for q in qs for sign in (1, -1)):
            if _eval(c, r) == 0:
                roots.add(r)
    return sorted(roots)


class TestRationalRootsAgainstDivisors:
    def test_seeded_polynomials(self):
        # products of rational linear factors, repeated or not, and of an
        # integer cofactor, with rational scales
        rng = random.Random(20261025)
        found = 0
        for _ in range(100):
            c = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))]
            for _ in range(rng.randint(0, 3)):
                factor = [Fraction(-rng.randint(-12, 12), rng.randint(1, 6)), Fraction(1)]
                for _ in range(rng.randint(1, 2)):
                    c = TestRationalRoots.product(c, factor)
            cofactor = [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))]
            cofactor.append(Fraction(rng.randint(1, 5)))
            c = TestRationalRoots.product(c, cofactor)
            if len(c) < 2:
                continue
            roots = rational_roots(c)
            assert roots == divisor_rational_roots(c), c
            found += len(roots)
        assert found > 80


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

    def test_form_vanishing_on_an_axis_not_definite(self):
        # zero at (1, 0) and at (0, 1): an end of the coefficient list is 0
        assert not is_positive_definite(form_of("x^2*y^2 + y^4"))
        assert not is_positive_definite(form_of("x^4 + x^2*y^2"))
        assert not is_positive_definite(
            [Fraction(1), Fraction(0), Fraction(1), Fraction(0)]
        )

    def test_odd_degree_never_definite(self):
        assert not is_positive_definite(form_of("x^3 + y^3"))
        assert not is_nonnegative(form_of("x^3"))

    def test_zero_form_rejected(self):
        with pytest.raises(PreconditionError):
            binary_form(parse("0", vars=("x", "y")))

    @pytest.mark.parametrize(
        "text, vars, message",
        [
            ("x^2 + y^2", ("x", "y", "z"), "bivariate"),
            ("x^2 + i*y^2", ("x", "y"), "real coefficients"),
            ("x^2 + y", ("x", "y"), "not homogeneous"),
        ],
        ids=["not-bivariate", "not-real", "not-homogeneous"],
    )
    def test_binary_form_preconditions(self, text, vars, message):
        with pytest.raises(PreconditionError, match=message):
            binary_form(parse(text, vars=vars))

    def test_binary_form_coefficient_order(self):
        # c[k] multiplies x^k * y^(n-k), with zeros kept at both ends
        assert binary_form(parse("3*x^3*y - 2*x*y^3", vars=("x", "y"))) == [
            0, -2, 0, 3, 0,
        ]
        assert binary_form(parse("5*y^2", vars=("x", "y"))) == [5, 0, 0]

    def test_binary_form_is_the_integer_numerators(self):
        # the rows over den = 15: a positive multiple with the same signs
        c = binary_form(parse("1/3*x^2 - 2/5*x*y", vars=("x", "y")))
        assert c == [0, -6, 5] and all(isinstance(v, int) for v in c)

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
            c = binary_form(p)
            assert is_positive_definite(c)
            assert is_nonnegative(c)

    def test_definite_form_circle_bound(self):
        f = parse("2*(x^2 + x*y + y^2)", vars=("x", "y"))
        c = sampled_circle_min(f, 2000)
        assert c > 0
        for k in range(50):
            a = 2 * math.pi * k / 50
            r = 0.1
            x, y = r * math.cos(a), r * math.sin(a)
            assert f.eval_complex((x, y)).real >= (c - 1e-9) * r**2


class TestNegativePoint:
    def test_worked_cases(self):
        F = Fraction
        # 1 - v^5/32 is negative past v = 2
        t = negative_point([F(1), 0, 0, 0, 0, F(-1, 32)])
        assert t > 2
        assert negative_point([F(-3)]) is not None
        assert negative_point([F(0), F(1)]) is not None
        # nonnegative: a constant, v^2, (v^2 - 1)^2, the zero polynomial
        for c in ([F(2)], [F(0), F(0), F(1)], [F(1), F(0), F(-2), F(0), F(1)], []):
            assert negative_point(c) is None

    def test_narrow_dip_is_found(self):
        # (v - 1)(v - 1001/1000) is negative only between its roots
        c = [Fraction(1001, 1000), Fraction(-2001, 1000), Fraction(1)]
        t = negative_point(c)
        assert 1 < t < Fraction(1001, 1000)

    def test_never_returns_zero(self):
        # -v^2 is negative everywhere but at 0
        t = negative_point([Fraction(0), Fraction(0), Fraction(-1)])
        assert t != 0 and _eval([0, 0, Fraction(-1)], t) < 0

    def test_agrees_with_nonnegativity_on_seeded_products(self):
        # products of (v - r)^k and of a quadratic, half of them negated:
        # c >= 0 on R exactly when its binary form is nonnegative
        rng = random.Random(20241019)
        found = set()
        for _ in range(200):
            c = [Fraction(rng.choice((1, -1)) * rng.randint(1, 5), rng.randint(1, 3))]
            factors = [
                [Fraction(-rng.randint(-6, 6), rng.randint(1, 4)), Fraction(1)]
                for _ in range(rng.randint(0, 3))
            ] * rng.choice((1, 2))
            factors.append([Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)), 1])
            for f in factors:
                out = [Fraction(0)] * (len(c) + len(f) - 1)
                for i, a in enumerate(c):
                    for j, b in enumerate(f):
                        out[i + j] += a * b
                c = out
            t = negative_point(c)
            assert (t is None) == is_nonnegative(c), c
            if t is not None:
                assert t != 0 and _eval(c, t) < 0
            found.add(t is None)
        assert found == {True, False}


# -- test-only references for the integer Sturm chain: the classical chain
# over Q and Yun's squarefree decomposition


def fraction_sturm_chain(p):
    """The classical Sturm chain over Q of a stripped nonconstant list p."""
    p = [Fraction(v) for v in p]
    chain = [p, _derivative(p)]
    while chain[-1]:
        _, r = _divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-v for v in r])
    return [c for c in chain if c]


def _sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def reference_count_real_roots(c):
    p = p_strip(list(c))
    if len(p) < 2:
        return 0
    chain = fraction_sturm_chain(p)
    low = _sign_changes([q[-1] * (-1) ** (len(q) - 1) for q in chain])
    return low - _sign_changes([q[-1] for q in chain])


def _div_exact(a, b):
    q, r = _divmod(a, b)
    assert not r
    return q


def _sub(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return p_strip([u - v for u, v in zip(a, b)])


def yun_squarefree(p):
    """Yun decomposition over Q of a list: (squarefree factor, multiplicity)
    pairs."""
    p = p_strip([Fraction(v) for v in p])
    if len(p) < 2:
        return []
    dp = _derivative(p)
    a = _gcd(p, dp)
    b, c = _div_exact(p, a), _div_exact(dp, a)
    d = _sub(c, _derivative(b))
    out, k = [], 1
    while len(b) > 1:
        f = _gcd(b, d)
        if len(f) > 1:
            out.append((f, k))
        b = _div_exact(b, f)
        d = _sub(_div_exact(d, f), _derivative(b))
        k += 1
    return out


def reference_is_nonnegative(c):
    """Even degree, positive leading coefficient, and no Yun factor of odd
    multiplicity with a real root."""
    p = p_strip(list(c))
    if not p:
        return True
    if (len(c) - 1) % 2 == 1 or p[-1] < 0:
        return False
    return all(
        mult % 2 == 0 or reference_count_real_roots(f) == 0
        for f, mult in yun_squarefree(p)
    )


def reference_negative_point(c):
    """Bisection of (-B, B), B past the Cauchy bound of the squarefree part
    s, by the Fraction Sturm chain of s, with signs in Fraction arithmetic;
    the first cut where c < 0."""
    c = p_strip([Fraction(v) for v in c])
    if not c:
        return None
    s = _div_exact(c, _gcd(c, _derivative(c)))
    chain = fraction_sturm_chain(s) if len(s) > 1 else [s]

    def count(t):
        return _sign_changes([_eval(q, t) for q in chain])

    B = 2 + max((abs(v / s[-1]) for v in s[:-1]), default=0)
    cuts, pieces = [-B, B], [(-B, B)]
    while pieces:
        lo, hi = pieces.pop()
        if count(lo) - count(hi) <= 1:
            continue
        mid = (lo + hi) / 2
        while mid == 0 or _eval(s, mid) == 0:
            mid = (lo + mid) / 2
        cuts.append(mid)
        pieces += [(lo, mid), (mid, hi)]
    return next((t for t in sorted(cuts) if _eval(c, t) < 0), None)


def reference_candidate_lines(c, rational):
    """The frames' lines of `_candidate_lines` for the lowest form c, whose
    rational roots are known: those roots that a Yun factor of
    multiplicity >= 2 vanishes at."""
    repeated = sorted(
        r
        for r in rational
        if any(mult >= 2 and _eval(f, r) == 0 for f, mult in yun_squarefree(c))
    )
    lines = [(1, 0), (1, -1)]
    for r in repeated:
        num, den = r.numerator, r.denominator
        perpendicular = (num, den) if num > 0 else (-num, -den)
        if (den, -num) not in lines and perpendicular not in lines:
            lines.append((den, -num))
    return lines


def _rational_square(f):
    return f >= 0 and all(math.isqrt(n) ** 2 == n for n in (f.numerator, f.denominator))


def _seeded_form(rng):
    """(c, its rational roots): a fractional signed scale times t^k, linear
    and irreducible quadratic factors to powers 1..3, and top zeros, of
    degree at most 14."""
    c = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))]
    roots = Counter()
    bottom, top = rng.choice((0, 0, 1, 2, 3)), rng.choice((0, 0, 1, 2, 3))
    c = [Fraction(0)] * bottom + c
    if bottom:
        roots[Fraction(0)] += bottom
    for _ in range(rng.randint(0, 4)):
        mult = rng.choice((1, 1, 2, 2, 3))
        if rng.random() < 0.6:
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            factor = [-r, Fraction(1)]
        else:
            # t^2 + b t + e with b^2 - 4e not a rational square: two
            # irrational or two complex roots
            while True:
                b = rng.randint(-4, 4)
                e = Fraction(rng.randint(-6, 9), rng.randint(1, 2))
                if not _rational_square(b * b - 4 * e):
                    break
            factor = [e, Fraction(b), Fraction(1)]
        if len(c) - 1 + top + mult * (len(factor) - 1) > 14:
            break
        for _ in range(mult):
            c = TestRationalRoots.product(c, factor)
        if len(factor) == 2:
            roots[r] += mult
    return c + [Fraction(0)] * top, roots


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
            verdict = is_positive_definite(binary_form(p))
            grid_min = sampled_circle_min(p, 10_000)
            assert verdict == (grid_min > 0), (
                f"disagreement for {p}: sturm={verdict} grid_min={grid_min}"
            )
            checked += 1


class TestBinaryFormSignAgainstSympy:
    def test_products_of_linear_and_quadratic_factors(self):
        # c(t) = lead * product of factors, each to a power 1..3: t (a root
        # at 0), t - r, t^2 + b t + e (real or complex roots), or trailing
        # zeros of c (a root of the form at infinity, the direction (1, 0))
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        rng = random.Random(20261019)
        for _ in range(300):
            lead = rng.choice([-2, -1, 1, 3])
            expr = sympy.Integer(lead)
            at_infinity = 0
            for _ in range(rng.randint(1, 3)):
                mult = rng.randint(1, 3)
                kind = rng.choice(["zero", "infinity", "linear", "quadratic"])
                if kind == "zero":
                    expr *= t**mult
                elif kind == "infinity":
                    at_infinity += mult
                elif kind == "linear":
                    r = sympy.Rational(rng.randint(-5, 5), rng.randint(1, 3))
                    expr *= (t - r) ** mult
                else:
                    expr *= (t**2 + rng.randint(-4, 4) * t + rng.randint(-4, 8)) ** mult
            poly = sympy.Poly(expr, t)
            c = [Fraction(int(a.p), int(a.q)) for a in reversed(poly.all_coeffs())]
            c += [Fraction(0)] * at_infinity
            mults = list(Counter(sympy.real_roots(poly)).values())
            if at_infinity:
                mults.append(at_infinity)
            even = all(m % 2 == 0 for m in mults)
            assert is_nonnegative(c) == (lead > 0 and even), c
            assert is_positive_definite(c) == (lead > 0 and not mults), c


class TestIntegerSturmChain:
    """The one integer chain against the Fraction chain and Yun."""

    @staticmethod
    def forms():
        rng = random.Random(20261028)
        out = [_seeded_form(rng) for _ in range(240)]
        # Im phi_2L of the iterated family, up to degree 14
        for L in range(1, 8):
            im = classify(solve_branch(iterated_composition(L), 2 * L)).im_part_2L
            out.append((binary_form(im), None))
        return out

    def test_forms_cover_the_cases(self):
        seen = Counter()
        for c, roots in self.forms():
            seen["degree 14"] += len(c) == 15
            seen["bottom zeros"] += c[0] == 0
            seen["top zeros"] += c[-1] == 0
            seen["nonnegative"] += is_nonnegative(c)
            seen["not nonnegative"] += not is_nonnegative(c)
            if roots is not None:
                # gcd(c, c') holds each root of multiplicity m to m - 1
                repeated = len(sturm_chain(c)[-1]) - 1
                rational = sum(m - 1 for m in roots.values())
                seen["repeated rational root"] += rational > 0
                seen["repeated quadratic factor"] += repeated > rational
        assert min(seen.values()) >= 10, seen

    def test_members_are_positive_multiples_of_the_fraction_chain(self):
        for c, _ in self.forms():
            p = p_strip(list(c))
            expected = fraction_sturm_chain(p) if len(p) > 1 else [p]
            chain = sturm_chain(c)
            assert len(chain) == len(expected), c
            for q, f in zip(chain, expected):
                assert all(isinstance(v, int) for v in q) and math.gcd(*q) == 1
                ratio = q[-1] / f[-1]
                assert ratio > 0 and [ratio * v for v in f] == q, c
            assert len(chain[-1]) == len(_gcd(p, _derivative(p))), c

    def test_answers_match_the_references(self):
        for c, roots in self.forms():
            assert count_real_roots(c) == reference_count_real_roots(c), c
            assert is_nonnegative(c) == reference_is_nonnegative(c), c
            assert negative_point(c) == reference_negative_point(c), c
            if roots is None:
                continue
            assert rational_roots(c) == sorted(roots), c
            g = MultiPoly(("x", "y"), {(k, len(c) - 1 - k): v for k, v in enumerate(c)})
            assert _candidate_lines(g) == reference_candidate_lines(c, roots), c


def _sum_of_signed_squares(d, rows, signs):
    """sum s_k * (rows[k] . x)^2 in x1..xd."""
    vars = tuple(f"x{k}" for k in range(1, d + 1))
    total = MultiPoly.zero(vars)
    for row, s in zip(rows, signs):
        ell = MultiPoly(
            vars,
            {tuple(1 if j == k else 0 for j in range(d)): G(c) for k, c in enumerate(row)},
        )
        total = total + (ell * ell).scale(s)
    return total


def _assert_negative_witness(q, witness):
    assert all(isinstance(t, Fraction) for t in witness)
    value = q.eval_exact(witness)
    assert value.is_real() and value.re < 0, (q, witness, value)


def _fraction_ldlt_sign(q, schur=None):
    """quadratic_form_sign by LDL^T over Q, the reference for the integer
    elimination: the same symmetric pivoting on the Gram matrix of 2 den q
    in Fractions.  With a list schur, appends (pivot index, row, pivot) of
    each step, row and pivot those of the Schur complement over Q."""
    d = len(q.vars)
    gram = [[Fraction(0)] * d for _ in range(d)]
    for exps, (a, _) in q.rows.items():
        i, j = [j for j, k in enumerate(exps) for _ in range(k)]
        if i == j:
            gram[i][i] = Fraction(2 * a)
        else:
            gram[i][j] = gram[j][i] = Fraction(a)
    rest = list(range(d))
    steps = [] if schur is None else schur
    negative = None
    while rest:
        k = min(rest, key=lambda j: gram[j][j])
        if gram[k][k] < 0:
            negative = {k: Fraction(1)}
            break
        k = max(rest, key=lambda j: gram[j][j])
        pivot = gram[k][k]
        if pivot == 0:
            pairs = [(i, j) for i in rest for j in rest if gram[i][j] != 0]
            if pairs:
                i, j = pairs[0]
                negative = {i: Fraction(1), j: Fraction(-1 if gram[i][j] > 0 else 1)}
            break
        rest.remove(k)
        row = {j: gram[k][j] for j in rest if gram[k][j] != 0}
        steps.append((k, row, pivot))
        for i, a in row.items():
            for j, b in row.items():
                gram[i][j] -= a * b / pivot
    if negative is None:
        return None, len(steps) == d
    for k, row, pivot in reversed(steps):
        negative[k] = -sum(a * negative.get(j, 0) for j, a in row.items()) / pivot
    return tuple(negative.get(j, Fraction(0)) for j in range(d)), False


def _seeded_forms(seed, count):
    """(kind, q) for count seeded quadratic forms in 1 to 9 variables with
    rational coefficients: sums of signed squares of rows, independent or
    dependent, and forms with zero diagonal entries."""
    rng = random.Random(seed)
    fracs = [1, 2, Fraction(1, 3), Fraction(5, 7), Fraction(3, 2)]
    for _ in range(count):
        d = rng.randint(1, 9)
        kind = rng.choice(["definite", "semidefinite", "indefinite", "dependent", "zero_diagonal"])
        if kind == "definite":
            # unit triangular rows, columns permuted: independent
            perm = rng.sample(range(d), d)
            rows = []
            for k in range(d):
                row = [0] * d
                row[perm[k]] = rng.choice(fracs)
                for j in range(k + 1, d):
                    row[perm[j]] = rng.randint(-3, 3)
                rows.append(row)
            signs = [rng.choice(fracs) for _ in rows]
        else:
            count_rows = {"semidefinite": rng.randint(1, d), "dependent": d + rng.randint(1, 3)}
            rows = [
                [rng.choice([0, 0, 1, -1, 2, Fraction(-1, 2), 3]) for _ in range(d)]
                for _ in range(count_rows.get(kind, rng.randint(1, d + 1)))
            ]
            if kind == "dependent":
                rows.append([2 * c for c in rows[0]])
            signs = [rng.choice(fracs) for _ in rows]
            if kind == "indefinite":
                signs[rng.randrange(len(signs))] = -rng.choice(fracs)
        q = _sum_of_signed_squares(d, rows, signs)
        if kind == "zero_diagonal" and d > 1:
            # the squares live on the first variables; the rest meet only
            # off the diagonal, among themselves or with the first ones
            free = rng.randint(1, d - 1)
            q = _sum_of_signed_squares(d, [r[:free] + [0] * (d - free) for r in rows], signs)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(free, d)
                j = rng.choice([k for k in range(d) if k != i])
                e = tuple((k == i) + (k == j) for k in range(d))
                terms[e] = G(Fraction(rng.randint(-4, 4), rng.randint(1, 5)))
            q = q + MultiPoly(q.vars, terms)
        if not q.is_zero():
            yield kind, q


class _ExactInt(int):
    """An int whose floor divisions must be exact, closed under the
    arithmetic of an elimination step; counts its divisions."""

    divisions = 0

    def __mul__(self, other):
        return _ExactInt(int(self) * int(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return _ExactInt(int(self) - int(other))

    def __rsub__(self, other):
        return _ExactInt(int(other) - int(self))

    def __floordiv__(self, other):
        quotient, remainder = divmod(int(self), int(other))
        assert remainder == 0, (int(self), int(other))
        _ExactInt.divisions += 1
        return _ExactInt(quotient)


class TestQuadraticFormSign:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_ldlt_over_q(self, seed):
        kinds = Counter()
        for kind, q in _seeded_forms(seed, 250):
            expected = _fraction_ldlt_sign(q)
            got = quadratic_form_sign(q)
            assert got == expected, (kind, q)
            if got[0] is not None:
                assert all(type(t) is Fraction for t in got[0])
                _assert_negative_witness(q, got[0])
            kinds[kind, got[0] is None, got[1]] += 1
        # every shape of form and every verdict occurs
        assert {kind for kind, _, _ in kinds} == {
            "definite", "semidefinite", "indefinite", "dependent", "zero_diagonal"
        }
        assert {(ok, definite) for _, ok, definite in kinds} == {
            (True, True), (True, False), (False, False)
        }

    @pytest.mark.parametrize("seed", range(4))
    def test_every_update_divides_exactly(self, seed):
        # each integer step is the step over Q times the pivot before it,
        # the product of the pivots over Q so far
        _ExactInt.divisions = 0
        ends = Counter()
        for _, q in _seeded_forms(seed, 250):
            d = len(q.vars)
            gram = [[_ExactInt(0)] * d for _ in range(d)]
            for exps, (a, _) in q.rows.items():
                i, j = [j for j, k in enumerate(exps) for _ in range(k)]
                gram[i][j] = gram[j][i] = _ExactInt(2 * a if i == j else a)
            steps, negative = _bareiss_ldlt(gram)
            ends[0 if negative is None else len(negative)] += 1
            schur = []
            _fraction_ldlt_sign(q, schur)
            assert len(steps) == len(schur)
            prev = Fraction(1)
            for (k, row, pivot), (k0, row0, pivot0) in zip(steps, schur):
                assert k == k0 and row.keys() == row0.keys()
                assert pivot == prev * pivot0
                assert all(a == prev * row0[j] for j, a in row.items())
                prev = prev * pivot0
        assert _ExactInt.divisions > 1000
        # no negative direction, a negative diagonal entry, a zero diagonal
        assert set(ends) == {0, 1, 2}

    @pytest.mark.parametrize("seed", range(6))
    def test_signature_known_from_construction(self, seed):
        # rows of a unit triangular matrix, with the columns permuted, are
        # independent: the form has exactly the signs it was built with
        rng = random.Random(seed)
        for _ in range(40):
            d = rng.randint(3, 5)
            perm = rng.sample(range(d), d)
            rows = []
            for k in range(d):
                row = [0] * d
                row[perm[k]] = 1
                for j in range(k + 1, d):
                    row[perm[j]] = rng.randint(-3, 3)
                rows.append(row)
            signs = [rng.choice([0, 0, 1, 1, 2, Fraction(1, 3), -1]) for _ in rows]
            if not any(signs):
                continue
            q = _sum_of_signed_squares(d, rows, signs)
            n_pos = sum(1 for s in signs if s > 0)
            n_neg = sum(1 for s in signs if s < 0)
            witness, definite = quadratic_form_sign(q)
            assert (witness is None) == (n_neg == 0), (q, signs)
            assert definite == (n_pos == d), (q, signs)
            if witness is not None:
                _assert_negative_witness(q, witness)

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        for _ in range(150):
            d = rng.randint(3, 5)
            # as many squares as d + 1, so dependent rows and cancellation occur
            count = rng.randint(1, d + 1)
            rows = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(count)]
            signs = [rng.choice([1, 1, 2, -1]) for _ in range(count)]
            q = _sum_of_signed_squares(d, rows, signs)
            if q.is_zero():
                continue
            gram = [[0] * d for _ in range(d)]
            for exps, c in q.terms.items():
                i, j = [k for k, e in enumerate(exps) for _ in range(e)]
                gram[i][j] = gram[j][i] = c.re if i == j else c.re / 2
            m = sympy.Matrix(d, d, lambda i, j: sympy.Rational(gram[i][j]))
            witness, definite = quadratic_form_sign(q)
            assert (witness is None) == m.is_positive_semidefinite, q
            assert definite == m.is_positive_definite, q
            if witness is not None:
                _assert_negative_witness(q, witness)

    def test_hand_made(self):
        vars = ("x1", "x2", "x3")
        # zero set is the line x1 = x2, x3 = 0
        assert quadratic_form_sign(parse("(x1 - x2)^2 + x3^2", vars=vars)) == (None, False)
        assert quadratic_form_sign(parse("x1^2 + x2^2 + x3^2 + x1*x2", vars=vars)) == (
            None,
            True,
        )
        # zero diagonal: only the off-diagonal entry shows the negative direction
        q = parse("x1*x2 + x3^2", vars=vars)
        witness, definite = quadratic_form_sign(q)
        assert not definite
        _assert_negative_witness(q, witness)
        q = parse("x1^2 + x2^2 - x3^2", vars=vars)
        witness, _ = quadratic_form_sign(q)
        _assert_negative_witness(q, witness)

    def test_non_quadratic_rejected(self):
        vars = ("x1", "x2", "x3")
        for text in ("x1^2 + x2", "x1^4 + x2^2*x3^2", "i*x1^2"):
            with pytest.raises(PreconditionError):
                quadratic_form_sign(parse(text, vars=vars))


class TestComparability:
    def test_equal_evaluators_give_unit_interval(self):
        f = lambda x, y: x * x + y * y
        res = comparability_ratio(f, f, [2.0**-k for k in range(4, 11)])
        lo, hi = res.overall
        assert lo == hi == 1.0
        assert not res.fail

    def test_degenerate_im_phi_vs_closed_form_g(self, degenerate, degenerate_g):
        from numideal.branch import solve_branch

        im_phi = solve_branch(degenerate, 8).phi.poly.imag_part()
        f = lambda x, y: im_phi.eval_complex((x, y)).real
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
