"""Multivariate polynomials and truncated power series over the Gaussian rationals.

Values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.

Products run over Z[i]: each operand is put over one common denominator,
the Gaussian-integer numerators are multiplied and summed as Python ints, and
each output coefficient is normalised once.  `eval_complex` converts a
polynomial's coefficients to `complex` once and keeps them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import ArityError
from .gaussian import GaussianRational, ZERO, ONE


def _coerce_coeff(value) -> GaussianRational:
    return GaussianRational.coerce(value)


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
            coeff = _coerce_coeff(coeff)
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
        value = _coerce_coeff(value)
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

    def homogeneous_parts(self) -> dict:
        """Map degree -> homogeneous component (only nonzero ones)."""
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            buckets.setdefault(sum(e), {})[e] = c
        return {
            d: MultiPoly._from_terms(self.vars, t) for d, t in sorted(buckets.items())
        }

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
        point = tuple(point)
        if len(point) != len(self.vars):
            raise ArityError(
                f"expected {len(self.vars)} coordinates, got {len(point)}"
            )
        # the object is immutable, so the converted coefficients stay valid;
        # a concurrent first call at worst converts them twice
        coeffs = self._complex
        if coeffs is None:
            coeffs = tuple(c.to_complex() for c in self.terms.values())
            object.__setattr__(self, "_complex", coeffs)
        total = 0j
        for e, v in zip(self.terms, coeffs):
            for z, k in zip(point, e):
                if k:
                    v *= z**k
            total += v
        return total

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
        must share one variable tuple, which becomes the result's.
        """
        target_vars = None
        for repl in assignments.values():
            if isinstance(repl, MultiPoly):
                target_vars = repl.vars
                break
        if target_vars is None:
            target_vars = self.vars
        repls = []
        for name in self.vars:
            if name in assignments:
                r = assignments[name]
                if not isinstance(r, MultiPoly):
                    r = MultiPoly.constant(target_vars, r)
                repls.append(r)
            else:
                repls.append(MultiPoly.variable(target_vars, name))

        # powers[i][k] = repls[i] ** k, extended on demand; a plain list, not
        # a recursive closure, so the cache is freed on return and not left
        # in a reference cycle for the garbage collector
        powers = [[MultiPoly.constant(target_vars, 1)] for _ in repls]
        total = MultiPoly.zero(target_vars)
        for e, c in self.terms.items():
            term = MultiPoly.constant(target_vars, c)
            for i, k in enumerate(e):
                if not k:
                    continue
                cache = powers[i]
                while len(cache) <= k:
                    cache.append(
                        cache[-1].mul_truncated(repls[i], order)
                        if order is not None
                        else cache[-1] * repls[i]
                    )
                term = (
                    term.mul_truncated(cache[k], order)
                    if order is not None
                    else term * cache[k]
                )
            total = total + term
        return total

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


def _integral(p: MultiPoly):
    """(D, [(exps, total degree, a, b)]) with D the positive lcm of the
    coefficient denominators and a + b*i = D * coefficient."""
    # pairwise, not lcm(*all denominators): that builds a tuple of a new
    # length per call, and short tuples linger on the interpreter's free
    # lists, which raised peak memory of a benchmark run by about 4 %
    D = 1
    for c in p.terms.values():
        D = lcm(D, c.re.denominator, c.im.denominator)
    rows = [
        (
            e,
            sum(e),
            c.re.numerator * (D // c.re.denominator),
            c.im.numerator * (D // c.im.denominator),
        )
        for e, c in p.terms.items()
    ]
    return D, rows


def _product(p: MultiPoly, q: MultiPoly, order) -> MultiPoly:
    """p * q over Z[i], keeping total degree <= order unless order is None.

    Terms appear in the order the schoolbook double loop first reaches them.
    """
    D1, rows1 = _integral(p)
    D2, rows2 = _integral(q)
    if order is None:
        order = float("inf")
    acc = {}
    for e1, d1, a1, b1 in rows1:
        room = order - d1
        if room < 0:
            continue
        for e2, d2, a2, b2 in rows2:
            if d2 > room:
                continue
            e = tuple(map(int.__add__, e1, e2))
            re = a1 * a2 - b1 * b2
            im = a1 * b2 + b1 * a2
            s = acc.get(e)
            if s is None:
                acc[e] = [re, im]
            else:
                s[0] += re
                s[1] += im
    # normalise in place, so each int pair is freed as its term is built
    D = D1 * D2
    make = GaussianRational._from_fractions
    zeros = []
    for e, (re, im) in acc.items():
        if re or im:
            acc[e] = make(Fraction(re, D), Fraction(im, D))
        else:
            zeros.append(e)
    for e in zeros:
        del acc[e]
    return MultiPoly._from_terms(p.vars, acc)


class TruncatedSeries:
    """A multivariate power series truncated at total degree `order`.

    Wraps a MultiPoly whose terms all have total degree <= order; arithmetic
    results carry order = min of the operand orders.
    """

    __slots__ = ("poly", "order")

    def __init__(self, poly: MultiPoly, order: int):
        object.__setattr__(self, "poly", poly.truncate(order))
        object.__setattr__(self, "order", int(order))

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def vars(self):
        return self.poly.vars

    @classmethod
    def zero(cls, vars, order):
        return cls(MultiPoly.zero(vars), order)

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def is_real(self) -> bool:
        return self.poly.is_real()

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(
                self.poly + other.poly, min(self.order, other.order)
            )
        return TruncatedSeries(self.poly + other, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, TruncatedSeries):
            return TruncatedSeries(
                self.poly - other.poly, min(self.order, other.order)
            )
        return TruncatedSeries(self.poly - other, self.order)

    def __neg__(self):
        return TruncatedSeries(-self.poly, self.order)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            return TruncatedSeries(
                self.poly.mul_truncated(other.poly, order), order
            )
        if isinstance(other, MultiPoly):
            return TruncatedSeries(
                self.poly.mul_truncated(other, self.order), self.order
            )
        return TruncatedSeries(self.poly.scale(other), self.order)

    __rmul__ = __mul__

    def truncate(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries(self.poly, min(self.order, order))

    def homogeneous_part(self, k: int) -> MultiPoly:
        return self.poly.homogeneous_part(k)

    def homogeneous_parts(self) -> dict:
        return self.poly.homogeneous_parts()

    def imag_part(self) -> "TruncatedSeries":
        return TruncatedSeries(self.poly.imag_part(), self.order)

    def real_part(self) -> "TruncatedSeries":
        return TruncatedSeries(self.poly.real_part(), self.order)

    def eval_complex(self, point) -> complex:
        return self.poly.eval_complex(point)

    def eval_exact(self, point) -> GaussianRational:
        return self.poly.eval_exact(point)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.poly == other.poly

    def __hash__(self):
        return hash((self.poly, self.order))

    def __str__(self):
        return f"{self.poly} + O(deg {self.order + 1})"

    def __repr__(self):
        return f"TruncatedSeries({self.poly!r}, order={self.order})"


def series_invert(u: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse mod total degree order+1; u(0) must be nonzero.

    u * series_invert(u) == 1 through the truncation order, exactly.
    """
    vars = u.vars
    n = len(vars)
    c0 = u.poly.coefficient((0,) * n)
    if c0.is_zero():
        raise ZeroDivisionError("series has zero constant term")
    order = u.order
    parts = u.poly.homogeneous_parts()
    inv_parts = {0: MultiPoly.constant(vars, GaussianRational(1) / c0)}
    for m in range(1, order + 1):
        acc = MultiPoly.zero(vars)
        for j in range(1, m + 1):
            uj = parts.get(j)
            if uj is None:
                continue
            vk = inv_parts.get(m - j)
            if vk is None or vk.is_zero():
                continue
            acc = acc + uj * vk
        inv_parts[m] = acc.scale(GaussianRational(-1) / c0)
    total = MultiPoly.zero(vars)
    for part in inv_parts.values():
        total = total + part
    return TruncatedSeries(total, order)


def substitute(p, var: str, replacement, order=None):
    """Compose: replace `var` in p by a polynomial or truncated series.

    Returns a TruncatedSeries when either input carries a truncation order
    (or one is given), a MultiPoly otherwise.
    """
    orders = []
    if order is not None:
        orders.append(order)
    if isinstance(p, TruncatedSeries):
        orders.append(p.order)
        p = p.poly
    if isinstance(replacement, TruncatedSeries):
        orders.append(replacement.order)
        replacement = replacement.poly
    eff = min(orders) if orders else None
    result = p.subs({var: replacement}, order=eff)
    if eff is None:
        return result
    return TruncatedSeries(result, eff)


def horner(slices: dict, y: MultiPoly, order) -> MultiPoly:
    """sum_k slices[k] * y^k by Horner's scheme.

    With an integer order the products are truncated at that total degree,
    so the result is exact through it; with order None it is exact.
    """
    top = max(slices)
    acc = slices[top]
    for k in range(top - 1, -1, -1):
        acc = acc * y if order is None else acc.mul_truncated(y, order)
        if k in slices:
            acc = acc + slices[k]
    return acc


def implicit_root(slices: dict, order: int) -> MultiPoly:
    """The series y(x), y(0) = 0, with sum_k slices[k](x) * y^k = 0 through
    total degree `order`; the pivot slices[1](0) must be nonzero.

    Undetermined coefficients: with y known below degree m, the degree-m part
    of the sum is (its value at the partial y) + pivot * y_m, which fixes y_m.
    """
    vars = slices[1].vars
    step = GaussianRational(-1) / slices[1].coefficient((0,) * len(vars))
    y = MultiPoly.zero(vars)
    for m in range(1, order + 1):
        part = horner(slices, y, m).homogeneous_part(m)
        if not part.is_zero():
            y = y + part.scale(step)
    return y


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
    f = [slices.get(k, zero) for k in range(m + 1)]
    f_bar = [s.conj_coefficients() for s in f]
    bezout = [[zero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):  # the Bézout matrix is symmetric
            for k in range(min(j, m - 1 - i) + 1):
                t = f[i + 1 + k] * f_bar[j - k]
                bezout[i][j] = bezout[i][j] + (t - t.conj_coefficients())
            bezout[j][i] = bezout[i][j]
    det = _determinant(bezout, x_vars)
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


def primitive_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The primitive part of gcd(a, b) in the last variable t, for nonzero
    a and b: a gcd up to a factor free of t.

    It is the primitive part of the last nonzero remainder of the
    subresultant sequence in t, whose divisions are exact and keep the
    coefficients small (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 3.3.1); only that remainder's content is computed.
    """
    t = a.vars[-1]
    if a.var_degree(t) < b.var_degree(t):
        a, b = b, a
    g = h = MultiPoly.constant(a.vars, 1)
    while True:
        delta = a.var_degree(t) - b.var_degree(t)
        r = _pseudo_remainder(a, b)
        if r.is_zero():
            return _primitive(b, _content(b))
        if r.var_degree(t) == 0:
            return MultiPoly.constant(a.vars, 1)
        a, b = b, divide_exact(r, g * h**delta)
        g = _leading(a)
        h = divide_exact(g**delta, h ** (delta - 1)) if delta else h


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


def _pseudo_remainder(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The remainder of lc(b)^(deg a - deg b + 1) * a on division by b, in
    the last variable t, with lc(b) the leading t-coefficient of b."""
    t = a.vars[-1]
    db = b.var_degree(t)
    lead_b = _leading(b)
    r = a
    steps = a.var_degree(t) - db + 1
    while not r.is_zero() and r.var_degree(t) >= db:
        shift = (0,) * (len(a.vars) - 1) + (r.var_degree(t) - db,)
        r = r * lead_b - _leading(r) * MultiPoly._from_terms(a.vars, {shift: ONE}) * b
        steps -= 1
    return r * lead_b**steps


def _determinant(rows, vars) -> MultiPoly:
    """Determinant of a square matrix of polynomials by Laplace expansion,
    bottom row first, each minor kept by its column set: division-free,
    with 2^n minors."""
    n = len(rows)
    minors = {(): MultiPoly.constant(vars, 1)}
    for size in range(1, n + 1):
        row = rows[n - size]
        for cols in itertools.combinations(range(n), size):
            total = None
            for pos, j in enumerate(cols):
                entry = row[j]
                if entry.is_zero():
                    continue
                rest = minors[cols[:pos] + cols[pos + 1 :]]
                if rest.is_zero():
                    continue
                term = entry * rest
                if pos % 2:
                    term = -term
                total = term if total is None else total + term
            minors[cols] = total if total is not None else MultiPoly.zero(vars)
    return minors[tuple(range(n))]


def linear_change(poly: MultiPoly, rows, new_vars) -> MultiPoly:
    """poly with its i-th variable replaced by sum_j rows[i][j] * new_vars[j]."""
    new_vars = tuple(new_vars)
    n = len(new_vars)
    units = [tuple(int(j == k) for k in range(n)) for j in range(n)]
    forms = {
        name: MultiPoly(new_vars, dict(zip(units, row)))
        for name, row in zip(poly.vars, rows)
    }
    return poly.subs(forms)


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
