"""Elimination over Q(i): the resultant Res_z(p, p̄), subresultants, gcds and
exact division, and the engine's use of them off the definite case.

`conjugate_resultant` takes Res_z(p, p̄) as the determinant of the Bézout
matrix, whose entries and minors are sums of products on `poly`'s integer
kernel (`poly.sum_of_products`).  `subresultants` is the lazy subresultant
sequence in the last variable; `poly_gcd` and `primitive_gcd` are built on
it, and `divide_exact` is long division that leaves no remainder exactly
when the divisor divides.  `pseudo_remainder` divides by a polynomial in
the last variable after scaling by a power of its leading coefficient.

Where phi is real through the order or its leading imaginary part is not
definite, the engine's decisions rest on R = Res_z(f, f̄), with f the
factor of p through the branch: `branch_factor` finds f and R,
`comparable_resultant` turns R into the real g comparable to Im phi, and
`shared_root` names the reason when R vanishes to a higher order than
Im phi.  A `Definite` ideal whose phi turns non-real within the order
reads phi alone.  So `engine` loads this module only where phi is real
through the order, past its `Definite` return, and for the verdicts that
use it: Principal (`primitive_gcd`) and LinearForm (`pseudo_remainder`).
`puiseux` loads it for `divide_exact`.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import PreconditionError
from .parsing import format_poly
from .poly import (
    ONE_FORM,
    MultiPoly,
    field_width,
    form_polynomial,
    integer_form,
    packed_limit,
    reduced_form,
    sum_of_products,
)


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
    w = field_width(bound)
    limit = packed_limit(bound, len(x_vars), w)
    f = [integer_form(slices.get(k, zero), w, bound) for k in range(m + 1)]
    f_bar = [(D, [(k, a, -b) for k, a, b in rows]) for D, rows in f]
    bezout = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):  # the Bézout matrix is symmetric
            D, acc = sum_of_products(
                [(f[i + 1 + k], f_bar[j - k]) for k in range(min(j, m - 1 - i) + 1)],
                limit,
            )
            for s in acc.values():  # t - t̄ = 2i Im t
                s[0], s[1] = 0, 2 * s[1]
            bezout[i][j] = bezout[j][i] = reduced_form(D, acc)
    det = form_polynomial(x_vars, w, _determinant(bezout, limit))
    return -det if m * (m - 1) // 2 % 2 else det


def _determinant(matrix, limit: int):
    """Determinant of a square matrix of integer forms (D, rows) by Laplace
    expansion, bottom row first, each minor kept by its column set as an
    integer form and summed as sum_j +-entry * minor by `sum_of_products`:
    division-free, with 2^n minors.  The packed limit lies above the degree
    of every minor."""
    n = len(matrix)
    minors = {(): ONE_FORM}
    for size in range(1, n + 1):
        row = matrix[n - size]
        negated = [(D, [(k, -a, -b) for k, a, b in rows]) for D, rows in row]
        for cols in itertools.combinations(range(n), size):
            pairs = [
                ((negated if pos % 2 else row)[j], minors[cols[:pos] + cols[pos + 1 :]])
                for pos, j in enumerate(cols)
            ]
            minors[cols] = reduced_form(*sum_of_products(pairs, limit))
    return minors[tuple(range(n))]


def divide_exact(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """a / b, for a b that divides a: long division by lex-leading terms,
    which leaves no remainder exactly when b | a.  On the rows, A / B: with
    L = P + Q i the leading row of B, a quotient term is t (P - Q i) / |L|^2
    for the leading row t of the rest.  Rest and quotient share a
    denominator E, raised by the least factor that makes that term a
    Gaussian integer, so E ends as the lcm of the denominators of A / B."""
    a._check_same_vars(b)
    lead = max(b.rows)
    P, Q = b.rows[lead]
    N = P * P + Q * Q
    rest, quotient, E = dict(a.rows), {}, 1
    while rest:
        top = max(rest)
        shift = tuple(i - j for i, j in zip(top, lead))
        if any(k < 0 for k in shift):
            raise ArithmeticError("division was not exact")
        x, y = rest[top]
        x, y = x * P + y * Q, y * P - x * Q
        m = N // gcd(N, x, y)
        if m > 1:
            E *= m
            rest = {e: (u * m, v * m) for e, (u, v) in rest.items()}
            quotient = {e: (u * m, v * m) for e, (u, v) in quotient.items()}
        x, y = x * m // N, y * m // N
        quotient[shift] = (x, y)
        for e, (u, v) in b.rows.items():
            key = tuple(i + j for i, j in zip(shift, e))
            r, s = rest.pop(key, (0, 0))
            r, s = r - (x * u - y * v), s - (x * v + y * u)
            if r or s:
                rest[key] = (r, s)
    # a / b = (A / B) b.den / a.den
    rows = {e: (u * b.den, v * b.den) for e, (u, v) in quotient.items()}
    return MultiPoly._lowest_terms(a.vars, a.den * E, rows)


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
        a.slices(a.vars[-1]).values(), key=lambda s: (s.degree(), len(s.rows))
    )
    c = slices[0]
    for s in slices[1:]:
        if c.degree() == 0:
            break
        c = poly_gcd(c, s)
    return c


def _primitive(a: MultiPoly, content: MultiPoly) -> MultiPoly:
    """a divided by its content in the last variable."""
    return divide_exact(a, content.embed(a.vars))


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
        r = r * lead_b - _leading(r) * MultiPoly._from_rows(a.vars, 1, {shift: (1, 0)}) * b
        steps -= 1
    return r * lead_b**steps if steps else r


def branch_factor(p: MultiPoly):
    """(f, R): the factor f of p through the branch z = -phi(x) and
    R = Res_z(f, f̄), which is nonzero; None when Im phi is identically zero.

    f = p unless p and p̄ share a factor G, which happens exactly when
    Res_z(p, p̄) = 0.  G is real up to a constant and p(0, z) has a simple
    root at 0, so G(0, 0) = 0 exactly when the branch is a root of G, and
    then phi is real.  Otherwise G is a unit near 0 and f = p / G is prime
    to f̄.
    """
    R = conjugate_resultant(p)
    if not R.is_zero():
        return p, R
    shared = primitive_gcd(p, p.reflect())
    if shared.coefficient((0,) * len(p.vars)).is_zero():
        return None
    f = divide_exact(p, shared)
    return f, conjugate_resultant(f)


def shared_root(f: MultiPoly) -> str | None:
    """Name the root that f(0, z)/z and f̄(0, z) share on the projective
    line, the reason Res_z(f, f̄) vanishes to a higher order than Im phi."""
    zero = (0,) * (len(f.vars) - 1)
    m = f.var_degree("z")
    at0 = MultiPoly(("z",), {(k,): f.coefficient(zero + (k,)) for k in range(m + 1)})
    if at0.degree() < m:
        return (
            "p(0, z)/z and its conjugate share the root z = oo, since p(0, z) "
            "has lower degree in z than p"
        )
    # f(0, 0) = 0, as p(0) = 0 and f divides p by a unit near 0
    z = MultiPoly.variable(("z",), "z")
    shared = primitive_gcd(divide_exact(at0, z), at0.reflect())
    n = shared.degree()
    if n < 1:
        return None
    shared = shared.scale(1 / shared.coefficient((n,)))
    if n == 1:
        what = f"the root z = {-shared.coefficient((0,))}"
    else:
        what = f"the roots of {format_poly(shared)}"
    return f"p(0, z)/z and its conjugate share {what}"


def comparable_resultant(
    f: MultiPoly, R: MultiPoly, im_part_2L: MultiPoly
) -> MultiPoly:
    """A real polynomial g comparable to Im phi near 0, built exactly.

    With (f, R) from `branch_factor`, R is Im phi times a unit near 0 unless
    f(0, z)/z and f̄(0, z) share a root on the projective line; then
    ord R > 2L and the input is out of scope.  Otherwise the lowest form of
    R is ratio * Im phi_2L, and g is R / ratio over its positive content
    (`MultiPoly.primitive`): its lowest form is a positive multiple of
    Im phi_2L.  With m = deg_z f, conj(R) = (-1)^(m^2) R, so conj(ratio) =
    (-1)^(m^2) ratio and R / ratio is real.
    """
    lowest = R.lowest_part()
    e = next(iter(im_part_2L.rows))
    ratio = lowest.coefficient(e) / im_part_2L.coefficient(e)
    if ratio.is_zero() or lowest != im_part_2L.scale(ratio):
        cause = shared_root(f)
        raise PreconditionError(
            (f"{cause}, so " if cause else "")
            + f"Res_z(p, pbar) vanishes to order {R.min_degree()} at 0, not "
            f"2L = {im_part_2L.degree()}, and is not comparable to Im phi; "
            "such inputs are out of scope"
        )
    g = R.scale(1 / ratio).primitive()
    if not g.is_real():
        raise AssertionError("Res_z(p, pbar) over its ratio to Im phi_2L is not real")
    return g
