"""Multivariate polynomials and truncated power series over the Gaussian rationals.

A `MultiPoly` stores Gaussian integers over one denominator: `rows` maps
each exponent vector, in insertion order, to a nonzero (a, b), the
coefficient (a + b i) / den.  The form is canonical, den > 0 and
gcd(den, every a, every b) = 1, so equality and hashing compare vars, den
and rows.  Every operation works on these integers and divides out one gcd
at the end; none builds a `Fraction` per term.  `terms`, the read-only map
to `GaussianRational` that `puiseux` and callers outside the package read,
is derived from the rows on first use and kept; printing reads the rows.
The public constructor `MultiPoly(vars, terms)` takes such a map.  Values are
immutable and all operations pure, so everything here is thread-safe.

Every product runs on one kernel, `sum_of_products`: it puts the pairs of
operands over one common denominator and multiplies and sums their rows as
Python ints.  A plain product is its one-pair case.  `implicit_root` solves
for a power series degree by degree on it, forming each product of two
homogeneous parts once.  `MultiPoly.subs` is the one composition: Horner's
scheme in each replaced variable, one kernel call per step acc * r + slice,
starting from the leading slice.  The kernel and its integer forms are
public, with `integer_form`, `reduced_form`, `form_polynomial` and
`sum_polynomial` between them and `MultiPoly`, because `resultant` (the
elimination algebra) and `closure` (the linear change of frame) run on
them; both load only for the cases that need them.
`TruncatedSeries` is only the record of a polynomial and its truncation
order.  `eval_complex` builds a plan once per polynomial and keeps it: the
coefficients as `complex`, the distinct (variable, exponent) pairs, and the
pairs each term uses; each call multiplies the powers into the terms in the
order a term-by-term loop does, so the floats it returns do not depend on
the plan.

The kernel's integer forms carry each exponent vector as one int (Kronecker
packing, `_pack`): exponent i in a field of w bits, the total degree above
all fields.  Adding two ints adds the vectors, and one comparison with a
limit truncates by total degree.  Each computation takes w from its own
degree bound: the truncation order, or the degree of the untruncated
product, composition or determinant.  Every kept exponent fits its field,
and a sum that overflows one has a total degree beyond the bound, so it is
dropped; there is no exponent limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import ArityError
from .gaussian import GaussianRational, ONE
from .record import Record


class MultiPoly:
    """A polynomial over Q(i) as canonical rows over den (module docstring).
    Variables are named and ordered; z, when present, is last."""

    __slots__ = ("vars", "den", "rows", "_terms", "_complex")

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
        # over the lcm of the reduced denominators the numerators share no
        # factor with it: a part whose denominator has the most factors of a
        # prime keeps a numerator prime to it
        den = 1
        for c in clean.values():
            den = lcm(den, c.re.denominator, c.im.denominator)
        _set(self, vars, den, {e: _gaussian_integer(c, den)[1:] for e, c in clean.items()})

    @classmethod
    def _from_rows(cls, vars: tuple, den: int, rows: dict) -> "MultiPoly":
        """Trusted constructor: rows must map valid exponent tuples of the
        right length to nonzero (a, b), in canonical form over den."""
        obj = object.__new__(cls)
        _set(obj, vars, den, rows)
        return obj

    @classmethod
    def _lowest_terms(cls, vars: tuple, den: int, rows: dict) -> "MultiPoly":
        """The MultiPoly of nonzero rows over den > 0, with the common factor
        of den and every numerator divided out: one gcd, and no division
        when it is 1."""
        g = den
        for a, b in rows.values():
            g = gcd(g, a, b)
            if g == 1:
                return cls._from_rows(vars, den, rows)
        rows = {e: (a // g, b // g) for e, (a, b) in rows.items()}
        return cls._from_rows(vars, den // g, rows)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self):
        """The read-only map exps -> GaussianRational, in row order, built on
        first use; like `eval_complex`'s plan it stays valid, and a
        concurrent first call at worst builds it twice."""
        if self._terms is None:
            den, make = self.den, GaussianRational._from_fractions
            view = {
                e: make(Fraction(a, den), Fraction(b, den)) for e, (a, b) in self.rows.items()
            }
            object.__setattr__(self, "_terms", MappingProxyType(view))
        return self._terms

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls._from_rows(tuple(vars), 1, {})

    @classmethod
    def constant(cls, vars, value):
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, vars, name):
        vars = tuple(vars)
        idx = vars.index(name)
        exps = tuple(1 if k == idx else 0 for k in range(len(vars)))
        return cls._from_rows(vars, 1, {exps: (1, 0)})

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    def is_real(self) -> bool:
        return not any(b for _, b in self.rows.values())

    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        return max(map(sum, self.rows), default=-1)

    def min_degree(self):
        """Min total degree of a nonzero term; None for the zero polynomial."""
        return min(map(sum, self.rows), default=None)

    def var_degree(self, name: str) -> int:
        idx = self.vars.index(name)
        return max((e[idx] for e in self.rows), default=-1)

    def coefficient(self, exps) -> GaussianRational:
        a, b = self.rows.get(tuple(exps), (0, 0))
        den = self.den
        return GaussianRational._from_fractions(Fraction(a, den), Fraction(b, den))

    # -- ring operations -------------------------------------------------

    def _check_same_vars(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other)
        self._check_same_vars(other)
        D = lcm(self.den, other.den)
        f, g = D // self.den, D // other.den
        rows = {e: (a * f, b * f) for e, (a, b) in self.rows.items()}
        for e, (a, b) in other.rows.items():
            a, b = a * g, b * g
            acc = rows.get(e)
            if acc is not None:
                a, b = acc[0] + a, acc[1] + b
                if not (a or b):
                    del rows[e]
                    continue
            rows[e] = (a, b)
        return MultiPoly._lowest_terms(self.vars, D, rows)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        rows = {e: (-a, -b) for e, (a, b) in self.rows.items()}
        return MultiPoly._from_rows(self.vars, self.den, rows)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        self._check_same_vars(other)
        return _product(self, other, None)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "MultiPoly":
        value = GaussianRational.coerce(value)
        d, P, Q = _gaussian_integer(value)
        if not (P or Q):
            return MultiPoly.zero(self.vars)
        rows = {e: (a * P - b * Q, a * Q + b * P) for e, (a, b) in self.rows.items()}
        return MultiPoly._lowest_terms(self.vars, self.den * d, rows)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        if k == 0:
            return MultiPoly.constant(self.vars, 1)
        result = None  # the first factor taken is the result: no product by 1
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
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
        rows = {e: r for e, r in self.rows.items() if sum(e) <= order}
        return MultiPoly._lowest_terms(self.vars, self.den, rows)

    def homogeneous_part(self, k: int) -> "MultiPoly":
        rows = {e: r for e, r in self.rows.items() if sum(e) == k}
        return MultiPoly._lowest_terms(self.vars, self.den, rows)

    def lowest_part(self) -> "MultiPoly":
        d = self.min_degree()
        if d is None:
            return self
        return self.homogeneous_part(d)

    def reflect(self) -> "MultiPoly":
        """Coefficientwise conjugation: the reflection polynomial."""
        rows = {e: (a, -b) for e, (a, b) in self.rows.items()}
        return MultiPoly._from_rows(self.vars, self.den, rows)

    def real_part(self) -> "MultiPoly":
        """Coefficientwise real part (exact, real output)."""
        rows = {e: (a, 0) for e, (a, _) in self.rows.items() if a}
        return MultiPoly._lowest_terms(self.vars, self.den, rows)

    def imag_part(self) -> "MultiPoly":
        """Coefficientwise imaginary part (exact, real output)."""
        rows = {e: (b, 0) for e, (_, b) in self.rows.items() if b}
        return MultiPoly._lowest_terms(self.vars, self.den, rows)

    # -- evaluation --------------------------------------------------------

    def eval_complex(self, point) -> complex:
        """The value at a point of numbers: each term's `complex` coefficient
        times its powers `z**k` in variable order, summed in term order."""
        return self.eval_with_scale(point)[0]

    def eval_with_scale(self, point):
        """(value, scale): `eval_complex` at the point and the sum of the
        magnitudes of the terms it adds, the scale of its rounding error."""
        point = self._point(point)
        pairs, rows = self._plan()
        table = [point[i] ** k for i, k in pairs]
        total, scale = 0j, 0.0
        for v, slots in rows:
            for j in slots:
                v *= table[j]
            total += v
            scale += abs(v)
        return total, scale

    def _plan(self):
        """`_power_plan`, built on first use and kept: the object is
        immutable, so the plan stays valid; a concurrent first call at
        worst builds it twice."""
        plan = self._complex
        if plan is None:
            plan = self._power_plan()
            object.__setattr__(self, "_complex", plan)
        return plan

    def _point(self, point) -> tuple:
        point = tuple(point)
        if len(point) != len(self.vars):
            raise ArityError(f"expected {len(self.vars)} coordinates, got {len(point)}")
        return point

    def _power_plan(self):
        """The sorted distinct (variable index, exponent) pairs, and per term
        its `complex` coefficient, complex(re) + 1j * complex(im) of its
        Fraction parts (int division rounds as `Fraction` does), and the
        table slots of its nonzero exponents in variable order."""
        pairs = sorted({(i, k) for e in self.rows for i, k in enumerate(e) if k})
        slot = {pair: j for j, pair in enumerate(pairs)}
        den = self.den
        rows = tuple(
            (
                complex(a / den) + 1j * complex(b / den),
                tuple(slot[i, k] for i, k in enumerate(e) if k),
            )
            for e, (a, b) in self.rows.items()
        )
        return pairs, rows

    def eval_exact(self, point) -> GaussianRational:
        """The exact value at a point of Q(i)^n, in integers: coordinate i is
        (P + Q i) / d, and with M its top exponent a power k of it is
        (P + Q i)^k d^(M - k) over d^M; the sum is over den * prod d^M."""
        D, tables = self.den, []
        for i, z in enumerate(self._point(map(GaussianRational.coerce, point))):
            d, P, Q = _gaussian_integer(z)
            top = max((e[i] for e in self.rows), default=0)
            D *= d**top
            table = [(d**top, 0)]  # (P + Q i)^k d^(top - k), k = 0..top
            for _ in range(top):
                x, y = table[-1]
                table.append(((x * P - y * Q) // d, (x * Q + y * P) // d))
            tables.append(table)
        re = im = 0
        for e, (a, b) in self.rows.items():
            for table, k in zip(tables, e):
                x, y = table[k]
                a, b = a * x - b * y, a * y + b * x
            re += a
            im += b
        return GaussianRational._from_fractions(Fraction(re, D), Fraction(im, D))

    # -- substitution ------------------------------------------------------

    def subs(self, assignments: dict, order=None) -> "MultiPoly":
        """Substitute polynomials for variables; optionally truncate by total degree.

        Unassigned variables map to themselves.  All replacement polynomials
        must share one variable tuple, which becomes the result's.  This is
        the package's one composition: Horner's scheme in each replaced
        variable on `sum_of_products` (`_horner`), with the unassigned
        variables left inside the slices.  A polynomial in which none of
        the replaced variables occurs is its own composition: its rows,
        relabelled into the target variables and truncated, in lowest
        terms, with no kernel call.
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
        if not any(e[i] for e in self.rows for i in replaced):
            rows = {}
            for e, r in self.rows.items():
                t = [0] * len(target_vars)
                for i, j in kept:
                    t[j] = e[i]
                if order is None or sum(t) <= order:
                    rows[tuple(t)] = r
            return MultiPoly._lowest_terms(target_vars, self.den, rows)
        bound = order
        if bound is None:  # the degree of the composition bounds every step
            degrees = [(i, max(r.degree(), 0)) for i, r in zip(replaced, repls)]
            bound = max(
                (
                    sum(e[i] for i, _ in kept) + sum(e[i] * d for i, d in degrees)
                    for e in self.rows
                ),
                default=0,
            )
        w = field_width(bound)
        repls = [integer_form(r, w, bound) for r in repls]
        # the terms grouped by their exponents in the replaced variables, each
        # as a row in the target variables carrying the unassigned exponents
        groups = {}
        for e, (a, b) in self.rows.items():
            t = [0] * len(target_vars)
            for i, j in kept:
                t[j] = e[i]
            if sum(t) <= bound:
                key = tuple(e[i] for i in replaced)
                groups.setdefault(key, []).append((_pack(t, w), a, b))
        limit = packed_limit(bound, len(target_vars), w)
        pairs = _horner(groups, self.den, repls, limit)
        return sum_polynomial(target_vars, w, *sum_of_products(pairs, limit))

    def rename_vars(self, mapping: dict) -> "MultiPoly":
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        return MultiPoly._from_rows(new_vars, self.den, dict(self.rows))

    def slices(self, name: str) -> dict:
        """Map k -> coefficient of name^k, a polynomial in the other variables."""
        idx = self.vars.index(name)
        rest = self.vars[:idx] + self.vars[idx + 1 :]
        buckets: dict[int, dict] = {}
        for e, r in self.rows.items():
            buckets.setdefault(e[idx], {})[e[:idx] + e[idx + 1 :]] = r
        return {k: MultiPoly._lowest_terms(rest, self.den, t) for k, t in buckets.items()}

    def embed(self, new_vars) -> "MultiPoly":
        """View in a larger variable tuple containing the current one."""
        new_vars = tuple(new_vars)
        missing = [v for v in self.vars if v not in new_vars]
        if missing:
            raise ValueError(f"variable {missing[0]!r} of {self.vars} is not in {new_vars}")
        pos = [new_vars.index(v) for v in self.vars]
        rows = {}
        for e, r in self.rows.items():
            exps = [0] * len(new_vars)
            for p, k in zip(pos, e):
                exps[p] = k
            rows[tuple(exps)] = r
        return MultiPoly._from_rows(new_vars, self.den, rows)

    # -- normalization -----------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c such that self / c has coprime integer parts."""
        g = 0
        for a, b in self.rows.values():
            g = gcd(g, a, b)
        return Fraction(g, self.den) if g else Fraction(1)

    def primitive(self) -> "MultiPoly":
        """self over its positive content (`content`): coprime
        Gaussian-integer parts over den 1."""
        if not self.rows:
            return self
        g = self.content().numerator  # den is prime to every row
        rows = {e: (a // g, b // g) for e, (a, b) in self.rows.items()}
        return MultiPoly._from_rows(self.vars, 1, rows)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.vars, self.den, self.rows) == (other.vars, other.den, other.rows)

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.rows.items())))

    def __str__(self):
        from .parsing import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"MultiPoly({self.vars!r}, {str(self)!r})"


# the setters of MultiPoly's slots, bound once: they bypass its __setattr__
_SETTERS = tuple(getattr(MultiPoly, name).__set__ for name in MultiPoly.__slots__)


def _set(p: MultiPoly, vars: tuple, den: int, rows: dict) -> None:
    """Fill the slots vars, den and rows of a new MultiPoly; no view or plan yet."""
    set_vars, set_den, set_rows, set_terms, set_complex = _SETTERS
    set_vars(p, vars)
    set_den(p, den)
    set_rows(p, rows)
    set_terms(p, None)
    set_complex(p, None)


def _gaussian_integer(c: GaussianRational, d: int = 0):
    """(d, P, Q) with c = (P + Q i) / d, d by default the least such."""
    re, im = c.re, c.im
    d = d or lcm(re.denominator, im.denominator)
    return d, re.numerator * (d // re.denominator), im.numerator * (d // im.denominator)


def field_width(bound: int) -> int:
    """Bits per field of a packed exponent vector (`_pack`) in a computation
    that keeps total degree <= bound: every kept exponent fits.  A sum of two
    exponents that overflows its field exceeds the bound, and so does the
    total degree in the top field, which no carry lowers: such a product has
    a key at or above the `packed_limit` and is dropped, so no carry reaches
    a kept term."""
    return max(bound, 1).bit_length()


def _pack(e, w: int) -> int:
    """The exponent vector e as one int: e[i] in bits i*w .. i*w + w - 1 and
    the total degree above all of them, so that adding the ints adds the
    vectors and a key at or above `packed_limit(order, ...)` has degree
    > order."""
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


def packed_limit(order: int, n: int, w: int) -> int:
    """The least packed key, for n variables, of total degree above order."""
    return (order + 1) << (n * w)


# the integer form of the constant 1, whatever the variables and the width
ONE_FORM = (1, ((0, 1, 0),))


def form_polynomial(vars: tuple, w: int, *forms) -> MultiPoly:
    """The sum of reduced integer forms (D, rows), as `reduced_form` gives
    them, with disjoint exponents, over the lcm of the D: in lowest terms,
    as in `MultiPoly`'s constructor."""
    D = 1
    for d, _ in forms:
        D = lcm(D, d)
    n = len(vars)
    rows = {_unpack(k, n, w): (a * (D // d), b * (D // d)) for d, r in forms for k, a, b in r}
    return MultiPoly._from_rows(vars, D, rows)


def integer_form(p: MultiPoly, w: int, bound: int):
    """The integer form (D, [(key, a, b)]) of p, each exponent vector packed
    into key with w-bit fields, without the terms above total degree bound:
    they never reach a result within it, and may not fit the fields."""
    return p.den, [(_pack(e, w), a, b) for e, (a, b) in p.rows.items() if sum(e) <= bound]


def _product(p: MultiPoly, q: MultiPoly, order) -> MultiPoly:
    """p * q, keeping total degree <= order unless order is None: the
    one-pair case of `sum_of_products`."""
    bound = p.degree() + q.degree() if order is None else order
    w = field_width(bound)
    pairs = [(integer_form(p, w, bound), integer_form(q, w, bound))]
    limit = packed_limit(bound, len(p.vars), w)
    return sum_polynomial(p.vars, w, *sum_of_products(pairs, limit))


def sum_polynomial(vars: tuple, w: int, D: int, acc: dict) -> MultiPoly:
    """The polynomial of a `sum_of_products` result, in lowest terms."""
    D, rows = reduced_form(D, acc)
    n = len(vars)
    return MultiPoly._from_rows(vars, D, {_unpack(k, n, w): (a, b) for k, a, b in rows})


def sum_of_products(pairs, limit: int):
    """sum_i p_i * q_i over Z[i] for pairs of integer forms (D, rows) as
    `integer_form` gives them, all packed with one field width, keeping the
    terms whose packed exponents stay below limit (`packed_limit`).

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


def reduced_form(D: int, acc: dict):
    """The integer form (D, rows) of a `sum_of_products` result, with the
    common factor of D and every numerator divided out: the form
    `integer_form` gives the normalised polynomial, without building it."""
    g = D
    for re, im in acc.values():
        g = gcd(g, re, im)
    rows = [(k, re // g, im // g) for k, (re, im) in acc.items() if re or im]
    return D // g, rows


def _horner(groups: dict, D: int, repls: list, limit: int) -> list:
    """Pairs of integer forms whose sum of products is the sum over keys k
    of groups of (D, groups[k]) * prod_i repls[i]^k[i], exact below the
    packed limit: Horner's scheme in the first variable, one
    `sum_of_products` call per step acc * r + slice, each slice the same
    sum over the other variables.  The accumulator starts as the leading
    slice: when that is one form times the constant 1, as in the last
    variable, the form itself is the accumulator, with no kernel call; its
    rows are distinct, nonzero and below the limit, and the caller's last
    `reduced_form` divides out what this one would.  Module level, not a
    closure, so that its rows are freed on return, not left in a cycle.
    """
    if not repls:
        return [((D, groups.get((), [])), ONE_FORM)]
    slices = {}
    for key, rows in groups.items():
        slices.setdefault(key[0], {})[key[1:]] = rows
    pairs = []
    for k in range(max(slices, default=0), -1, -1):
        if pairs:
            if len(pairs) == 1 and pairs[0][1] is ONE_FORM:
                acc = pairs[0][0]
            else:
                acc = reduced_form(*sum_of_products(pairs, limit))
            pairs = [(acc, repls[0])]
        if k in slices:
            pairs += _horner(slices[k], D, repls[1:], limit)
    return pairs


class TruncatedSeries(Record):
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
    degree; a real y runs through the order.  The first solution of
    `implicit_series`.
    """
    return next(implicit_series(slices, order, stop_at_imaginary))


def implicit_series(slices: dict, order: int, stop_at_imaginary: bool = False):
    """The solutions of one resumable `implicit_root` solve, a generator.

    It first yields implicit_root(slices, order, stop_at_imaginary).  Sent a
    degree n with m < n <= order, m the degree it stopped at, it continues
    the same solve from degree m + 1, with no stop, and yields y through n.
    It keeps the powers [y^k]_j, the scaled slice terms, the field width
    and the packed limit, and no degree <= m changes.  That state is packed
    for `order`, so a solve past it starts afresh.

    Undetermined coefficients, degree by degree (Knuth, TAOCP vol. 2, 4.7).
    With [.]_m the degree-m part and s_k = slices[k], the degree-m part of
    the sum is pivot * y_m + res_m, where
    res_m = [s_0]_m + sum_k sum_i [s_k]_i * [y^k]_(m-i) leaves y_m out and
    [y^k]_m = sum_j y_j * [y^(k-1)]_(m-j) needs y below degree m only.  So
    each product of two homogeneous parts is formed once, by
    `sum_of_products`; the slices are scaled by -1/pivot first, so that
    the sum is y_m itself.  With pivot = (P + Q i)/Dc, -1/pivot is
    -Dc (P - Q i)/(P^2 + Q^2), so a slice (D, rows) scales to
    (D (P^2 + Q^2), rows times -Dc (P - Q i)) in integers, unreduced:
    `_keep` reduces each result once.
    """
    vars, Dc = slices[1].vars, slices[1].den
    P, Q = slices[1].rows.get((0,) * len(vars), (0, 0))
    norm = P * P + Q * Q
    if not norm:
        raise ZeroDivisionError("implicit_root needs a nonzero pivot")
    # (a + b i) times -Dc (P - Q i) is (a sP + b sQ) + (b sP - a sQ) i
    sP, sQ = -Dc * P, -Dc * Q
    top = max(slices)
    w = field_width(order)
    limit = packed_limit(order, len(vars), w)
    # powers[k][j] = [y^k]_j as an integer form, kept only when nonzero
    powers = [{0: ONE_FORM}] + [{} for _ in range(top)]
    y = powers[1]
    # each term of -s_k / pivot as its own integer form, in the slice's
    # order: for z-degree 1 the terms of y then come in the order of the
    # schoolbook product s_1 * y, which float evaluations of the branch sum
    # them in.  The pivot pairs with y_m, which is not there yet.
    terms = []
    for k in sorted(slices, reverse=True):
        D, rows = integer_form(slices[k], w, order)
        D *= norm
        terms += [
            (k, key >> len(vars) * w, (D, [(key, a * sP + b * sQ, b * sP - a * sQ)]))
            for key, a, b in rows
        ]
    m, through = 0, order
    while True:
        for m in range(m + 1, through + 1):
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
        stop_at_imaginary = False
        through = yield form_polynomial(vars, w, *y.values())
        if not m < through <= order:
            raise ValueError(
                f"cannot resume at degree {through} a solve through {m} of order {order}"
            )


def _keep(parts: dict, m: int, pairs, limit: int) -> None:
    """parts[m] = the sum of products of pairs, as an integer form, unless
    it is zero."""
    D, rows = reduced_form(*sum_of_products(pairs, limit))
    if rows:
        parts[m] = (D, rows)


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
