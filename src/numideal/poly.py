"""Multivariate polynomials and truncated power series over the Gaussian rationals.

Values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.

Every product runs on one kernel, `_sum_of_products`: it puts the pairs of
operands over one common denominator, multiplies and sums their
Gaussian-integer numerators as Python ints, and each output term is
normalised once.  A plain product is its one-pair case.  `implicit_root`
solves for a power series degree by degree on it, forming each product of
two homogeneous parts once, and the Bézout entries and minors of
`conjugate_resultant` are sums of products on it too.  `MultiPoly.subs` is
the one composition: Horner's scheme in each replaced variable, one kernel
call per step acc * r + slice, so the reduction of a numerator, the branch
residual and the Puiseux substitution all run on the kernel.
`linear_change`, the bivariate change of frame of `closure`, is no
composition: it expands the integer powers of its two row forms directly
into one integer sum.  `TruncatedSeries` is only the record of a
polynomial and its truncation order; it has no arithmetic of its own.
`eval_complex` builds a plan once per polynomial and keeps it: the
coefficients as `complex`, the distinct (variable, exponent) pairs, and
the pairs each term uses.  Each call raises every coordinate to each pair's exponent once and
multiplies the powers into the terms in the order a term-by-term loop does,
so the floats it returns do not depend on the plan.

The kernel's integer forms carry each exponent vector as one int (Kronecker
packing, `_pack`): exponent i in a field of w bits, the total degree above
all fields.  Adding two ints adds the vectors, and one comparison with a
limit truncates by total degree.  Each computation takes w from its own
degree bound: the truncation order, or the degree of the untruncated
product, composition or determinant.  Every kept exponent fits its field,
and a sum that overflows one has a total degree beyond the bound, so it is
dropped; there is no exponent limit.  Tuples come back only where a
`MultiPoly` is built and where `subs` groups terms by the replaced variables.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import ArityError
from .gaussian import GaussianRational, I, ZERO, ONE
from .record import Frozen


class MultiPoly:
    """A polynomial as a map from exponent vectors to Gaussian-rational coefficients.

    Canonical form: no zero coefficients are stored, so two polynomials are
    equal iff their term maps are equal.  Variables are named and ordered;
    the distinguished variable z, when present, is last.
    """

    __slots__ = ("vars", "terms", "_complex")

    def __init__(self, vars, terms):
        vars = tuple(vars)
        clean = {}
        for exps, coeff in terms.items():
            coeff = GaussianRational.coerce(coeff)
            if coeff.is_zero():
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(vars):
                raise ValueError("exponent vector length does not match variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            clean[exps] = coeff
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_complex", None)

    @classmethod
    def _from_terms(cls, vars: tuple, terms: dict) -> "MultiPoly":
        """Trusted constructor: terms must map valid exponent tuples of the
        right length to nonzero GaussianRationals."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "vars", vars)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "_complex", None)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, vars, value):
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        idx = vars.index(name)
        exps = tuple(1 if k == idx else 0 for k in range(len(vars)))
        return cls(vars, {exps: ONE})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_degree(self):
        """Min total degree of a nonzero term; None for the zero polynomial."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def var_degree(self, name: str) -> int:
        idx = self.vars.index(name)
        if not self.terms:
            return -1
        return max(e[idx] for e in self.terms)

    def coefficient(self, exps) -> GaussianRational:
        return self.terms.get(tuple(exps), ZERO)

    # -- ring operations -------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other)
        self._check_same_vars(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = coeff
            else:
                total = acc + coeff
                if total.is_zero():
                    del terms[exps]
                else:
                    terms[exps] = total
        return MultiPoly._from_terms(self.vars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly._from_terms(
            self.vars, {e: -c for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_same_vars(other)
        return _product(self, other, None)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "MultiPoly":
        value = GaussianRational.coerce(value)
        if value.is_zero():
            return MultiPoly.zero(self.vars)
        return MultiPoly._from_terms(
            self.vars, {e: c * value for e, c in self.terms.items()}
        )

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        result = MultiPoly.constant(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def mul_truncated(self, other: "MultiPoly", order: int) -> "MultiPoly":
        """Product keeping only terms of total degree <= order."""
        self._check_same_vars(other)
        return _product(self, other, order)

    def pow_truncated(self, k: int, order: int) -> "MultiPoly":
        result = MultiPoly.constant(self.vars, 1)
        for _ in range(k):
            result = result.mul_truncated(self, order)
            if result.is_zero():
                break
        return result

    # -- structure -------------------------------------------------------

    def truncate(self, order: int) -> "MultiPoly":
        return MultiPoly._from_terms(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) <= order}
        )

    def homogeneous_part(self, k: int) -> "MultiPoly":
        return MultiPoly._from_terms(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) == k}
        )

    def lowest_part(self) -> "MultiPoly":
        d = self.min_degree()
        if d is None:
            return self
        return self.homogeneous_part(d)

    def conj_coefficients(self) -> "MultiPoly":
        """Coefficientwise conjugation: the reflection polynomial."""
        return MultiPoly._from_terms(
            self.vars, {e: c.conj() for e, c in self.terms.items()}
        )

    reflect = conj_coefficients

    def real_part(self) -> "MultiPoly":
        """Coefficientwise real part (exact, real output)."""
        return MultiPoly(
            self.vars, {e: GaussianRational(c.re) for e, c in self.terms.items()}
        )

    def imag_part(self) -> "MultiPoly":
        """Coefficientwise imaginary part (exact, real output)."""
        return MultiPoly(
            self.vars, {e: GaussianRational(c.im) for e, c in self.terms.items()}
        )

    # -- evaluation --------------------------------------------------------

    def eval_complex(self, point) -> complex:
        """The value at a point of numbers: each term's `complex` coefficient
        times its powers `z**k` in variable order, summed in term order."""
        point = tuple(point)
        if len(point) != len(self.vars):
            raise ArityError(
                f"expected {len(self.vars)} coordinates, got {len(point)}"
            )
        # the object is immutable, so the plan stays valid; a concurrent
        # first call at worst builds it twice
        plan = self._complex
        if plan is None:
            plan = self._power_plan()
            object.__setattr__(self, "_complex", plan)
        pairs, rows = plan
        table = [point[i] ** k for i, k in pairs]
        total = 0j
        for v, slots in rows:
            for j in slots:
                v *= table[j]
            total += v
        return total

    def _power_plan(self):
        """The sorted distinct (variable index, exponent) pairs, and per term
        its `complex` coefficient and the table slots of its nonzero
        exponents in variable order."""
        pairs = sorted({(i, k) for e in self.terms for i, k in enumerate(e) if k})
        slot = {pair: j for j, pair in enumerate(pairs)}
        rows = tuple(
            (c.to_complex(), tuple(slot[i, k] for i, k in enumerate(e) if k))
            for e, c in self.terms.items()
        )
        return pairs, rows

    def eval_exact(self, point) -> GaussianRational:
        point = tuple(GaussianRational.coerce(p) for p in point)
        if len(point) != len(self.vars):
            raise ArityError(
                f"expected {len(self.vars)} coordinates, got {len(point)}"
            )
        total = GaussianRational(0)
        for e, c in self.terms.items():
            v = c
            for z, k in zip(point, e):
                if k:
                    v = v * z**k
            total = total + v
        return total

    # -- substitution ------------------------------------------------------

    def subs(self, assignments: dict, order=None) -> "MultiPoly":
        """Substitute polynomials for variables; optionally truncate by total degree.

        Unassigned variables map to themselves.  All replacement polynomials
        must share one variable tuple, which becomes the result's.  This is
        the package's one composition: Horner's scheme in each replaced
        variable on `_sum_of_products` (`_horner`), with the unassigned
        variables left inside the slices.
        """
        target_vars = next(
            (r.vars for r in assignments.values() if isinstance(r, MultiPoly)),
            self.vars,
        )
        replaced, repls, kept = [], [], []
        for i, name in enumerate(self.vars):
            if name in assignments:
                r = assignments[name]
                if not isinstance(r, MultiPoly):
                    r = MultiPoly.constant(target_vars, r)
                elif r.vars != target_vars:
                    raise ValueError(f"variable mismatch: {r.vars} vs {target_vars}")
                replaced.append(i)
                repls.append(r)
            else:
                kept.append((i, target_vars.index(name)))
        bound = order
        if bound is None:  # the degree of the composition bounds every step
            degrees = [(i, max(r.degree(), 0)) for i, r in zip(replaced, repls)]
            bound = max(
                (
                    sum(e[i] for i, _ in kept) + sum(e[i] * d for i, d in degrees)
                    for e in self.terms
                ),
                default=0,
            )
        w = _width(bound)
        repls = [_integral(r, w, bound) for r in repls]
        # the terms grouped by their exponents in the replaced variables, each
        # as a row in the target variables carrying the unassigned exponents
        D, rows = _numerators(self)
        groups = {}
        for e, a, b in rows:
            t = [0] * len(target_vars)
            for i, j in kept:
                t[j] = e[i]
            if sum(t) <= bound:
                key = tuple(e[i] for i in replaced)
                groups.setdefault(key, []).append((_pack(t, w), a, b))
        limit = _limit(bound, len(target_vars), w)
        pairs = _horner(groups, D, repls, limit)
        return _normalised(target_vars, w, *_sum_of_products(pairs, limit))

    def rename_vars(self, mapping: dict) -> "MultiPoly":
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        return MultiPoly(new_vars, dict(self.terms))

    def slices(self, name: str) -> dict:
        """Map k -> coefficient of name^k, a polynomial in the other variables."""
        idx = self.vars.index(name)
        rest = self.vars[:idx] + self.vars[idx + 1 :]
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[idx], {})[e[:idx] + e[idx + 1 :]] = c
        return {k: MultiPoly._from_terms(rest, t) for k, t in buckets.items()}

    def embed(self, new_vars) -> "MultiPoly":
        """View in a larger variable tuple containing the current one."""
        new_vars = tuple(new_vars)
        pos = [new_vars.index(v) for v in self.vars]
        terms = {}
        for e, c in self.terms.items():
            exps = [0] * len(new_vars)
            for p, k in zip(pos, e):
                exps[p] = k
            terms[tuple(exps)] = c
        return MultiPoly(new_vars, terms)

    # -- normalization -----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self / c has coprime integer parts."""
        num = 0
        den = 1
        for c in self.terms.values():
            for part in (c.re, c.im):
                if part == 0:
                    continue
                num = gcd(num, part.numerator)
                den = den * part.denominator // gcd(den, part.denominator)
        if num == 0:
            return Fraction(1)
        return Fraction(num, den)

    def primitive(self, unit=ONE) -> "MultiPoly":
        """self times unit, one of 1, -1, i, -i, over the positive content
        (`content`), which the unit does not change: coprime Gaussian-integer
        parts, built from the integer numerators with no per-term
        normalisation."""
        unit = GaussianRational.coerce(unit)
        if unit not in (1, -1, I, -I):
            raise ValueError(f"{unit} is not a unit of Z[i]")
        if not self.terms:
            return self
        ur, ui = int(unit.re), int(unit.im)
        _, rows = _numerators(self)
        g = 0
        for _, a, b in rows:
            g = gcd(g, a, b)
        make = GaussianRational._from_fractions
        return MultiPoly._from_terms(
            self.vars,
            {
                e: make(
                    Fraction((a * ur - b * ui) // g), Fraction((a * ui + b * ur) // g)
                )
                for e, a, b in rows
            },
        )

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __str__(self):
        from .parsing import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({self.vars!r}, {str(self)!r})"


def _width(bound: int) -> int:
    """Bits per field of a packed exponent vector (`_pack`) in a computation
    that keeps total degree <= bound: every kept exponent fits.  A sum of two
    exponents that overflows its field exceeds the bound, and so does the
    total degree in the top field, which no carry lowers: such a product has
    a key at or above the `_limit` and is dropped, so no carry reaches a
    kept term."""
    return max(bound, 1).bit_length()


def _pack(e, w: int) -> int:
    """The exponent vector e as one int: e[i] in bits i*w .. i*w + w - 1 and
    the total degree above all of them, so that adding the ints adds the
    vectors and a key at or above `_limit(order, ...)` has degree > order."""
    key = sum(e)
    for k in reversed(e):
        key = key << w | k
    return key


def _unpack(key: int, n: int, w: int) -> tuple:
    """The n exponents that `_pack` put into key."""
    mask = (1 << w) - 1
    e = []
    for _ in range(n):
        e.append(key & mask)
        key >>= w
    return tuple(e)


def _limit(order: int, n: int, w: int) -> int:
    """The least packed key, for n variables, of total degree above order."""
    return (order + 1) << (n * w)


# the integer form of the constant 1, whatever the variables and the width
_ONE = (1, ((0, 1, 0),))


def _polynomial(vars: tuple, w: int, *forms) -> MultiPoly:
    """The sum of integer forms (D, rows) with disjoint exponents, each term
    normalised once."""
    make = GaussianRational._from_fractions
    n = len(vars)
    return MultiPoly._from_terms(
        vars,
        {
            _unpack(k, n, w): make(Fraction(a, D), Fraction(b, D))
            for D, rows in forms
            for k, a, b in rows
        },
    )


def _numerators(p: MultiPoly):
    """(D, [(exps, a, b)]) with D the positive lcm of the coefficient
    denominators and a + b*i = D * coefficient."""
    # pairwise, not lcm(*all denominators): that builds a tuple of a new
    # length per call, and short tuples linger on the interpreter's free
    # lists, which raised peak memory of a benchmark run by about 4 %
    D = 1
    for c in p.terms.values():
        D = lcm(D, c.re.denominator, c.im.denominator)
    rows = [
        (
            e,
            c.re.numerator * (D // c.re.denominator),
            c.im.numerator * (D // c.im.denominator),
        )
        for e, c in p.terms.items()
    ]
    return D, rows


def _integral(p: MultiPoly, w: int, bound: int):
    """The integer form (D, [(key, a, b)]) of p, each exponent vector packed
    into key with w-bit fields, without the terms above total degree bound:
    they never reach a result within it, and may not fit the fields."""
    D, rows = _numerators(p)
    return D, [(_pack(e, w), a, b) for e, a, b in rows if sum(e) <= bound]


def _product(p: MultiPoly, q: MultiPoly, order) -> MultiPoly:
    """p * q, keeping total degree <= order unless order is None: the
    one-pair case of `_sum_of_products`."""
    bound = p.degree() + q.degree() if order is None else order
    w = _width(bound)
    pairs = [(_integral(p, w, bound), _integral(q, w, bound))]
    limit = _limit(bound, len(p.vars), w)
    return _normalised(p.vars, w, *_sum_of_products(pairs, limit))


def _normalised(vars: tuple, w: int, D: int, acc: dict) -> MultiPoly:
    """The polynomial of a `_sum_of_products` result, each term normalised
    once."""
    make = GaussianRational._from_fractions
    n = len(vars)
    return MultiPoly._from_terms(
        vars,
        {
            _unpack(k, n, w): make(Fraction(re, D), Fraction(im, D))
            for k, (re, im) in acc.items()
            if re or im
        },
    )


def _sum_of_products(pairs, limit: int):
    """sum_i p_i * q_i over Z[i] for pairs of integer forms (D, rows) as
    `_integral` gives them, all packed with one field width, keeping the
    terms whose packed exponents stay below limit (`_limit`).

    Returns (D, acc): acc maps packed exponents to [re, im], the value
    (re + im*i)/D, with D the lcm of the D1 * D2.  Terms appear in the order
    the schoolbook double loop over the pairs first reaches them; sums that
    cancel stay.
    """
    D = 1
    for (D1, _), (D2, _) in pairs:
        D = lcm(D, D1 * D2)
    acc = {}
    for (D1, rows1), (D2, rows2) in pairs:
        f = D // (D1 * D2)
        for k1, a1, b1 in rows1:
            a1, b1 = a1 * f, b1 * f
            for k2, a2, b2 in rows2:
                k = k1 + k2
                if k >= limit:
                    continue
                re = a1 * a2 - b1 * b2
                im = a1 * b2 + b1 * a2
                s = acc.get(k)
                if s is None:
                    acc[k] = [re, im]
                else:
                    s[0] += re
                    s[1] += im
    return D, acc


def _reduced(D: int, acc: dict):
    """The integer form (D, rows) of a `_sum_of_products` result, with the
    common factor of D and every numerator divided out: the form `_integral`
    gives the normalised polynomial, without building it."""
    g = D
    for re, im in acc.values():
        g = gcd(g, re, im)
    rows = [(k, re // g, im // g) for k, (re, im) in acc.items() if re or im]
    return D // g, rows


def _horner(groups: dict, D: int, repls: list, limit: int) -> list:
    """Pairs of integer forms whose sum of products is the sum over keys k
    of groups of (D, groups[k]) * prod_i repls[i]^k[i], exact below the
    packed limit: Horner's scheme in the first variable, one
    `_sum_of_products` call per step acc * r + slice, each slice the same
    sum over the other variables.  Module level, not a closure, so that its
    rows are freed on return, not left in a cycle.
    """
    if not repls:
        return [((D, groups.get((), [])), _ONE)]
    slices = {}
    for key, rows in groups.items():
        slices.setdefault(key[0], {})[key[1:]] = rows
    pairs = []
    for k in range(max(slices, default=0), -1, -1):
        if pairs:
            pairs = [(_reduced(*_sum_of_products(pairs, limit)), repls[0])]
        if k in slices:
            pairs += _horner(slices[k], D, repls[1:], limit)
    return pairs


class TruncatedSeries(Frozen):
    """A multivariate power series truncated at total degree `order`: the
    record of a MultiPoly whose terms all have total degree <= order and of
    that order.  It defines no arithmetic; compose and multiply its poly
    with `MultiPoly.subs` and `mul_truncated` at the order.
    """

    __slots__ = ("poly", "order")

    def __init__(self, poly: MultiPoly, order: int):
        object.__setattr__(self, "poly", poly.truncate(order))
        object.__setattr__(self, "order", int(order))

    @classmethod
    def _within(cls, poly: MultiPoly, order: int) -> "TruncatedSeries":
        """Trusted constructor: every term of poly has total degree <= order."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "poly", poly)
        object.__setattr__(obj, "order", int(order))
        return obj

    def __str__(self):
        return f"{self.poly} + O(deg {self.order + 1})"

    def __repr__(self):
        return f"TruncatedSeries({self.poly!r}, order={self.order})"


def series_invert(u: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse mod total degree order+1; u(0) must be nonzero.

    u * series_invert(u) == 1 through the truncation order, exactly: the
    inverse is 1/c0 + y with y the `implicit_root` of u/c0 - 1 + u*y = 0,
    c0 = u(0).
    """
    vars = u.poly.vars
    c0 = u.poly.coefficient((0,) * len(vars))
    if c0.is_zero():
        raise ZeroDivisionError("series has zero constant term")
    inv0 = ONE / c0
    y = implicit_root({0: u.poly.scale(inv0) - ONE, 1: u.poly}, u.order)
    return TruncatedSeries(y + inv0, u.order)


def implicit_root(
    slices: dict, order: int, stop_at_imaginary: bool = False
) -> MultiPoly:
    """The series y(x), y(0) = 0, with sum_k slices[k](x) * y^k = 0 through
    total degree `order`; the pivot slices[1](0) must be nonzero.  With
    stop_at_imaginary, the solve ends after the first degree m whose part
    y_m is not real, so y holds the series through m only, and m is its
    degree; a real y runs through the order.

    Undetermined coefficients, degree by degree (Knuth, TAOCP vol. 2, 4.7).
    With [.]_m the degree-m part and s_k = slices[k], the degree-m part of
    the sum is pivot * y_m + res_m, where
    res_m = [s_0]_m + sum_k sum_i [s_k]_i * [y^k]_(m-i) leaves y_m out and
    [y^k]_m = sum_j y_j * [y^(k-1)]_(m-j) needs y below degree m only.  So
    each product of two homogeneous parts is formed once, by
    `_sum_of_products`; the slices are scaled by -1/pivot first, so that
    the sum is y_m itself.  With pivot = (P + Q i)/Dc, -1/pivot is
    -Dc (P - Q i)/(P^2 + Q^2), so a slice (D, rows) scales to
    (D (P^2 + Q^2), rows times -Dc (P - Q i)) in integers, unreduced:
    `_keep` reduces each result once.
    """
    vars = slices[1].vars
    pivot = slices[1].coefficient((0,) * len(vars))
    Dc = lcm(pivot.re.denominator, pivot.im.denominator)
    P = pivot.re.numerator * (Dc // pivot.re.denominator)
    Q = pivot.im.numerator * (Dc // pivot.im.denominator)
    norm = P * P + Q * Q
    if not norm:
        raise ZeroDivisionError("implicit_root needs a nonzero pivot")
    # (a + b i) times -Dc (P - Q i) is (a sP + b sQ) + (b sP - a sQ) i
    sP, sQ = -Dc * P, -Dc * Q
    top = max(slices)
    w = _width(order)
    limit = _limit(order, len(vars), w)
    # powers[k][j] = [y^k]_j as an integer form, kept only when nonzero
    powers = [{0: _ONE}]
    powers += [{} for _ in range(top)]
    y = powers[1]
    # each term of -s_k / pivot as its own integer form, in the slice's
    # order: for z-degree 1 the terms of y then come in the order of the
    # schoolbook product s_1 * y, which float evaluations of the branch sum
    # them in.  The pivot pairs with y_m, which is not there yet.
    terms = []
    for k in sorted(slices, reverse=True):
        D, rows = _integral(slices[k], w, order)
        D *= norm
        terms += [
            (k, key >> len(vars) * w, (D, [(key, a * sP + b * sQ, b * sP - a * sQ)]))
            for key, a, b in rows
        ]
    for m in range(1, order + 1):
        for k in range(2, min(m, top) + 1):
            lower = powers[k - 1]
            pairs = [
                (y[j], lower[m - j]) for j in range(1, m) if j in y and m - j in lower
            ]
            _keep(powers[k], m, pairs, limit)
        pairs = [(t, powers[k][m - d]) for k, d, t in terms if m - d in powers[k]]
        _keep(y, m, pairs, limit)
        if stop_at_imaginary and m in y and any(b for _, _, b in y[m][1]):
            break
    return _polynomial(vars, w, *y.values())


def _keep(parts: dict, m: int, pairs, limit: int) -> None:
    """parts[m] = the sum of products of pairs, as an integer form, unless
    it is zero."""
    D, rows = _reduced(*_sum_of_products(pairs, limit))
    if rows:
        parts[m] = (D, rows)


def conjugate_resultant(p: MultiPoly) -> MultiPoly:
    """Res_z(p, p̄) over Q(i)[x], with z the last variable of p and p̄ the
    coefficientwise conjugate.

    Computed without division as (-1)^(m(m-1)/2) times the determinant of
    the m x m Bézout matrix of p and p̄, m = deg_z p (Cox, Little & O'Shea,
    Using Algebraic Geometry, ch. 3).  With f_k the z-slices of p, entry
    (i, j) is the sum over k of t - t̄, t = f_(i+1+k) * f̄_(j-k): one product
    per term, since p̄ has the slices f̄_k.  For m = 1, p = c z + b, it is
    c b̄ - b c̄.
    """
    x_vars = p.vars[:-1]
    zero = MultiPoly.zero(x_vars)
    slices = p.slices(p.vars[-1])
    m = max(slices, default=0)
    # an entry has degree at most 2 deg p, so a minor of size s at most s times that
    bound = 2 * m * max(p.degree(), 0)
    w = _width(bound)
    limit = _limit(bound, len(x_vars), w)
    f = [_integral(slices.get(k, zero), w, bound) for k in range(m + 1)]
    f_bar = [(D, [(k, a, -b) for k, a, b in rows]) for D, rows in f]
    bezout = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):  # the Bézout matrix is symmetric
            D, acc = _sum_of_products(
                [(f[i + 1 + k], f_bar[j - k]) for k in range(min(j, m - 1 - i) + 1)],
                limit,
            )
            for s in acc.values():  # t - t̄ = 2i Im t
                s[0], s[1] = 0, 2 * s[1]
            bezout[i][j] = bezout[j][i] = _reduced(D, acc)
    det = _polynomial(x_vars, w, _determinant(bezout, limit))
    return -det if m * (m - 1) // 2 % 2 else det


def divide_exact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """a / b, for a b that divides a: long division by lex-leading terms,
    which leaves no remainder exactly when b | a."""
    a._check_same_vars(b)
    lead = max(b.terms)
    inv = ONE / b.terms[lead]
    rest = dict(a.terms)
    quotient = {}
    while rest:
        top = max(rest)
        shift = tuple(i - j for i, j in zip(top, lead))
        if any(k < 0 for k in shift):
            raise ArithmeticError("division was not exact")
        c = rest[top] * inv
        quotient[shift] = c
        for e, v in b.terms.items():
            key = tuple(i + j for i, j in zip(shift, e))
            value = rest.get(key, ZERO) - c * v
            if value.is_zero():
                rest.pop(key, None)
            else:
                rest[key] = value
    return MultiPoly._from_terms(a.vars, quotient)


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """A gcd of a and b in Q(i)[vars], up to a nonzero constant: the gcd of
    their contents in the last variable times `primitive_gcd`."""
    a._check_same_vars(b)
    if a.is_zero() or b.is_zero():
        return b if a.is_zero() else a
    if not a.vars:
        return MultiPoly.constant((), 1)
    ca, cb = _content(a), _content(b)
    common = poly_gcd(ca, cb).embed(a.vars)
    return common * primitive_gcd(_primitive(a, ca), _primitive(b, cb))


def subresultants(a: MultiPoly, b: MultiPoly):
    """The subresultant sequence of nonzero a and b in the last variable t,
    lazily, from the member of lower t-degree down to the last nonzero one,
    so the t-degrees strictly decrease.  Each pseudo-remainder is divided
    exactly by g * h^delta, which keeps the coefficients small (Cohen, A
    Course in Computational Algebraic Number Theory, Algorithm 3.3.1); one
    free of t ends the sequence as the constant 1, undivided.
    """
    t = a.vars[-1]
    if a.var_degree(t) < b.var_degree(t):
        a, b = b, a
    g = h = MultiPoly.constant(a.vars, 1)
    while True:
        yield b
        delta = a.var_degree(t) - b.var_degree(t)
        r = pseudo_remainder(a, b)
        if r.is_zero():
            return
        if r.var_degree(t) == 0:
            yield MultiPoly.constant(a.vars, 1)
            return
        a, b = b, divide_exact(r, g * h**delta)
        g = _leading(a)
        h = divide_exact(g**delta, h ** (delta - 1)) if delta else h


def primitive_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The primitive part of gcd(a, b) in the last variable, for nonzero a
    and b: that of the last member of `subresultants(a, b)`."""
    *_, last = subresultants(a, b)
    return _primitive(last, _content(last))


def _leading(a: MultiPoly) -> MultiPoly:
    """The leading coefficient of a in its last variable, in all variables."""
    t = a.vars[-1]
    return a.slices(t)[a.var_degree(t)].embed(a.vars)


def _content(a: MultiPoly) -> MultiPoly:
    """gcd of the coefficients of a in its last variable."""
    slices = sorted(
        a.slices(a.vars[-1]).values(), key=lambda s: (s.degree(), len(s.terms))
    )
    c = slices[0]
    for s in slices[1:]:
        if c.degree() == 0:
            break
        c = poly_gcd(c, s)
    return c


def _primitive(a: MultiPoly, content: MultiPoly) -> MultiPoly:
    """a divided by its content in the last variable."""
    terms = {}
    for k, s in a.slices(a.vars[-1]).items():
        for e, c in divide_exact(s, content).terms.items():
            terms[e + (k,)] = c
    return MultiPoly._from_terms(a.vars, terms)


def pseudo_remainder(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The remainder of lc(b)^max(deg a - deg b + 1, 0) * a on division by
    b, in the last variable t, with lc(b) the leading t-coefficient of b;
    0 for a = 0 and a itself when deg a < deg b.  For b = c z + d it is
    c^(deg a) * a(z = -d/c)."""
    t = a.vars[-1]
    db = b.var_degree(t)
    lead_b = _leading(b)
    r = a
    steps = max(a.var_degree(t) - db + 1, 0)
    while not r.is_zero() and r.var_degree(t) >= db:
        shift = (0,) * (len(a.vars) - 1) + (r.var_degree(t) - db,)
        r = r * lead_b - _leading(r) * MultiPoly._from_terms(a.vars, {shift: ONE}) * b
        steps -= 1
    return r * lead_b**steps


def _determinant(matrix, limit: int):
    """Determinant of a square matrix of integer forms (D, rows) by Laplace
    expansion, bottom row first, each minor kept by its column set as an
    integer form and summed as sum_j +-entry * minor by `_sum_of_products`:
    division-free, with 2^n minors.  The packed limit lies above the degree
    of every minor."""
    n = len(matrix)
    minors = {(): _ONE}
    for size in range(1, n + 1):
        row = matrix[n - size]
        negated = [(D, [(k, -a, -b) for k, a, b in rows]) for D, rows in row]
        for cols in itertools.combinations(range(n), size):
            pairs = [
                ((negated if pos % 2 else row)[j], minors[cols[:pos] + cols[pos + 1 :]])
                for pos, j in enumerate(cols)
            ]
            minors[cols] = _reduced(*_sum_of_products(pairs, limit))
    return minors[tuple(range(n))]


def linear_change(poly: MultiPoly, rows, new_vars) -> MultiPoly:
    """poly(x, y) with x -> r00 u + r01 v and y -> r10 u + r11 v, where
    rows = ((r00, r01), (r10, r11)) are rationals and (u, v) = new_vars.

    A direct expansion, not a `subs`: over one denominator Dr of the rows,
    X = Dr x and Y = Dr y are integer linear forms, and the coefficient
    lists of their powers come from the binomial recurrence.  Each term
    c x^i y^j, c = (a + b i) / Dp, adds (a + b i) Dr^(n - i - j) X^i Y^j into
    one integer sum over D = Dp Dr^n, n = deg poly, and each output
    coefficient is normalised once.
    """
    new_vars = tuple(new_vars)
    shape = [len(row) for row in rows]
    if len(poly.vars) != 2 or shape != [2, 2] or len(new_vars) != 2:
        raise ArityError(
            "linear_change expects 2 variables, 2 rows of 2 entries and 2 new"
            f" variables; got {len(poly.vars)} variables, rows of {shape}"
            f" entries and {len(new_vars)} new variables"
        )
    if not poly.terms:
        return MultiPoly._from_terms(new_vars, {})
    entries = [r for row in rows for r in row]
    Dr = lcm(*(r.denominator for r in entries))
    p00, p01, p10, p11 = (r.numerator * (Dr // r.denominator) for r in entries)
    Dp, terms = _numerators(poly)
    n = poly.degree()
    X = _powers(p00, p01, max(e[0] for e in poly.terms))
    Y = _powers(p10, p11, max(e[1] for e in poly.terms))
    # acc is keyed by `_pack((d - k, k), w)` = (d << 2w) + d + k * step
    w = _width(n)
    step = (1 << w) - 1
    acc = {}
    for (i, j), a, b in terms:
        d = i + j
        f = Dr ** (n - d)
        a, b = a * f, b * f
        product = [0] * (d + 1)
        for s, xs in enumerate(X[i]):
            if xs:
                for t, yt in enumerate(Y[j], s):
                    product[t] += xs * yt
        base = (d << 2 * w) + d
        for k, c in enumerate(product):
            if c:
                key = base + k * step
                sk = acc.get(key)
                if sk is None:
                    acc[key] = [a * c, b * c]
                else:
                    sk[0] += a * c
                    sk[1] += b * c
    return _normalised(new_vars, w, Dp * Dr**n, acc)


def _powers(a: int, b: int, m: int) -> list:
    """The coefficient lists of (a u + b v)^i for i = 0..m, entry k of
    each that of u^(i - k) v^k."""
    out = [[1]]
    for _ in range(m):
        prev = out[-1]
        out.append([a * h + b * l for h, l in zip(prev + [0], [0] + prev)])
    return out


def newton_polygon(points):
    """Vertices of the compact faces of conv(points) + R^2_{>=0}, ordered by
    the first coordinate; dominated points and points interior to an edge
    are dropped.  The second coordinate strictly decreases along the list.
    """
    hull = []
    for a, b in sorted(set(points)):
        if hull and b >= hull[-1][1]:
            continue  # dominated by hull[-1], which has a <= this a
        # pop the last vertex while it lies on or above the new chord
        while len(hull) >= 2:
            (a1, b1), (a2, b2) = hull[-2], hull[-1]
            if (b2 - b1) * (a - a1) >= (b - b1) * (a2 - a1):
                hull.pop()
            else:
                break
        hull.append((a, b))
    return hull
