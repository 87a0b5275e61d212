"""Multivariate polynomials and truncated power series over the Gaussian rationals.

Values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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

    __slots__ = ("vars", "terms")

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
            terms[exps] = coeff if acc is None else acc + coeff
        return MultiPoly(self.vars, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_same_vars(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = terms.get(e)
                terms[e] = prod if acc is None else acc + prod
        return MultiPoly(self.vars, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "MultiPoly":
        value = _coerce_coeff(value)
        if value.is_zero():
            return MultiPoly.zero(self.vars)
        return MultiPoly(self.vars, {e: c * value for e, c in self.terms.items()})

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
        terms = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            if d1 > order:
                continue
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > order:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                acc = terms.get(e)
                terms[e] = prod if acc is None else acc + prod
        return MultiPoly(self.vars, terms)

    def pow_truncated(self, k: int, order: int) -> "MultiPoly":
        result = MultiPoly.constant(self.vars, 1)
        for _ in range(k):
            result = result.mul_truncated(self, order)
            if result.is_zero():
                break
        return result

    # -- structure -------------------------------------------------------

    def truncate(self, order: int) -> "MultiPoly":
        return MultiPoly(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) <= order}
        )

    def homogeneous_part(self, k: int) -> "MultiPoly":
        return MultiPoly(
            self.vars, {e: c for e, c in self.terms.items() if sum(e) == k}
        )

    def homogeneous_parts(self) -> dict:
        """Map degree -> homogeneous component (only nonzero ones)."""
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            buckets.setdefault(sum(e), {})[e] = c
        return {d: MultiPoly(self.vars, t) for d, t in sorted(buckets.items())}

    def lowest_part(self) -> "MultiPoly":
        d = self.min_degree()
        if d is None:
            return self
        return self.homogeneous_part(d)

    def conj_coefficients(self) -> "MultiPoly":
        """Coefficientwise conjugation: the reflection polynomial."""
        return MultiPoly(self.vars, {e: c.conj() for e, c in self.terms.items()})

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
        total = 0j
        for e, c in self.terms.items():
            v = c.to_complex()
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

        # cache powers of each replacement
        power_cache = [dict() for _ in repls]

        def power(i, k):
            cache = power_cache[i]
            if k in cache:
                return cache[k]
            if k == 0:
                p = MultiPoly.constant(target_vars, 1)
            else:
                p = power(i, k - 1)
                p = (
                    p.mul_truncated(repls[i], order)
                    if order is not None
                    else p * repls[i]
                )
            cache[k] = p
            return p

        total = MultiPoly.zero(target_vars)
        for e, c in self.terms.items():
            term = MultiPoly.constant(target_vars, c)
            for i, k in enumerate(e):
                if k:
                    term = (
                        term.mul_truncated(power(i, k), order)
                        if order is not None
                        else term * power(i, k)
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
        return {k: MultiPoly(rest, t) for k, t in buckets.items()}

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
