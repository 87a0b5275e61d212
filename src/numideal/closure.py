"""Membership in IC(g) = {q : |q| <~ g near 0} for bivariate g.

After a linear change of coordinates makes g comparable to a sum of even
monomials, IC(g) is the monomial ideal of the Newton polyhedron (convex hull
of the exponents plus the positive orthant): a series belongs iff every one
of its terms does.  Non-members get an explicit witness curve along which
|q|/g blows up; `ic_membership` takes only a polygon with a vertex on each
axis.  The engine reads the polygon and its frame only through
`MonomialIdealIC`'s methods.

`linear_change`, the one linear change of coordinates, lives here with its
only callers, the frames of `monomialize` and `MonomialIdealIC`: it expands
the integer powers of its two row forms directly into one sum on `poly`'s
integer kernel.  The engine loads this module only for `LinearForm` and
`IsolatedDegenerate`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ArityError, NoMonomializationFound, PreconditionError
from .forms import (
    binary_form,
    is_positive_definite,
    negative_point,
    rational_roots,
    sturm_chain,
)
from .parsing import format_poly
from .poly import MultiPoly, field_width, newton_polygon, sum_polynomial
from .record import Record


class MonomialIdealIC(Record):
    """Integral closure of g presented as a Newton-polyhedron monomial ideal.

    (u, v) = change * (x, y), with change = ((c00, c01), (c10, c11)) rows:
    u = c00 x + c01 y, ...; newton_points are the vertices of the Newton
    polygon of the positive even terms of g in the new coordinates, ordered
    by the u-exponent; halfspaces (wu, wv, m) mean wu*a + wv*b >= m, one per
    compact edge, and together with a >= u_min, b >= v_min they cut out the
    polyhedron exactly.
    One vertex on an axis is LinearForm (`zero_line`, `line_order`), a
    vertex on each axis an isolated zero (`isolated_exponent`), the only
    polygon `ic_membership` takes.
    """

    __slots__ = ("change", "inverse", "newton_points", "halfspaces", "u_min", "v_min")

    def contains_exponent(self, a: int, b: int) -> bool:
        if a < self.u_min or b < self.v_min:
            return False
        return all(wu * a + wv * b >= m for (wu, wv, m) in self.halfspaces)

    def slack(self, a: int, b: int):
        """Per-halfspace slack values (negative = violated)."""
        out = [("u_min", a - self.u_min), ("v_min", b - self.v_min)]
        for wu, wv, m in self.halfspaces:
            out.append((f"{wu}*a+{wv}*b>={m}", wu * a + wv * b - m))
        return out

    def to_uv(self, q: MultiPoly) -> MultiPoly:
        """Rewrite a polynomial in (x, y) in the (u, v) coordinates."""
        return linear_change(q, self.inverse, ("u", "v"))

    def from_uv_monomial(self, a: int, b: int, xy_vars) -> MultiPoly:
        return linear_change(MultiPoly(("u", "v"), {(a, b): 1}), self.change, xy_vars)

    def zero_line(self, xy_vars) -> MultiPoly | None:
        """ell with g ~ ell^k near 0, or None: when the Newton polygon is one
        vertex on an axis, (k, 0) or (0, k), the frame line u or v of that
        axis, a linear form in xy_vars.

        This is the linear-form pattern Im phi_2L = c * ell^(2L), ell^(2L) | g.
        Such a g vanishes on ell = 0, but is comparable to its vertex monomials
        in an accepted frame, and they are positive off the axes; so ell is an
        axis, and condition (a) of `monomialize` puts u^(2L) in every term.
        Conversely, one vertex (2L, 0) makes g in the frame u^(2L) times a unit.
        """
        (a, b), *rest = self.newton_points
        if rest or (a and b):
            return None
        c0, c1 = self.change[0] if b == 0 else self.change[1]
        return MultiPoly(xy_vars, {(1, 0): c0, (0, 1): c1})

    def line_order(self, q: MultiPoly) -> int | None:
        """For a polygon of one vertex on an axis, the largest j with
        ell^j | q, ell = `zero_line`: the least exponent in `to_uv(q)` of
        the frame coordinate of that axis, or None for q = 0."""
        axis = 0 if self.newton_points[0][1] == 0 else 1
        return min((e[axis] for e in self.to_uv(q).rows), default=None)

    def isolated_exponent(self) -> int:
        """K with g >= c*|(x, y)|^K near 0: the larger axis intercept of the
        Newton polygon.  The zero of g at 0 is isolated exactly when the polygon
        has a vertex on each axis, since g is comparable to the sum of its
        vertex monomials in the accepted frame."""
        (a0, b0), (a1, b1) = self.newton_points[0], self.newton_points[-1]
        if a0 != 0 or b1 != 0:
            raise PreconditionError(
                "zero at the origin is not isolated: the Newton polygon of g, "
                f"vertices {list(self.newton_points)}, misses an axis; such "
                "inputs are out of scope"
            )
        return max(b0, a1)


def linear_change(poly: MultiPoly, rows, new_vars) -> MultiPoly:
    """poly(x, y) with x -> r00 u + r01 v and y -> r10 u + r11 v, where
    rows = ((r00, r01), (r10, r11)) are rationals and (u, v) = new_vars.

    A direct expansion, not a `subs`: over one denominator Dr of the rows,
    X = Dr x and Y = Dr y are integer linear forms, and the coefficient
    lists of their powers come from the binomial recurrence.  Each row
    (a, b) of x^i y^j adds (a + b i) Dr^(n - i - j) X^i Y^j into one
    integer sum over poly.den Dr^n, n = deg poly.
    """
    new_vars = tuple(new_vars)
    shape = [len(row) for row in rows]
    if len(poly.vars) != 2 or shape != [2, 2] or len(new_vars) != 2:
        raise ArityError(
            "linear_change expects 2 variables, 2 rows of 2 entries and 2 new"
            f" variables; got {len(poly.vars)} variables, rows of {shape}"
            f" entries and {len(new_vars)} new variables"
        )
    if not poly.rows:
        return MultiPoly.zero(new_vars)
    entries = [r for row in rows for r in row]
    Dr = math.lcm(*(r.denominator for r in entries))
    p00, p01, p10, p11 = (r.numerator * (Dr // r.denominator) for r in entries)
    n = poly.degree()
    X = _powers(p00, p01, max(e[0] for e in poly.rows))
    Y = _powers(p10, p11, max(e[1] for e in poly.rows))
    # acc is keyed by poly's `_pack((d - k, k), w)` = (d << 2w) + d + k * step
    w = field_width(n)
    step = (1 << w) - 1
    acc = {}
    for (i, j), (a, b) in poly.rows.items():
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
    return sum_polynomial(new_vars, w, poly.den * Dr**n, acc)


def _powers(a: int, b: int, m: int) -> list:
    """The coefficient lists of (a u + b v)^i for i = 0..m, entry k of
    each that of u^(i - k) v^k."""
    out = [[1]]
    for _ in range(m):
        prev = out[-1]
        out.append([a * h + b * l for h, l in zip(prev + [0], [0] + prev)])
    return out


def _halfspaces(vertices):
    """One inequality wu*a + wv*b >= m per compact edge, primitive (wu, wv)."""
    out = []
    for (a1, b1), (a2, b2) in zip(vertices, vertices[1:]):
        wu, wv = b1 - b2, a2 - a1
        g = math.gcd(wu, wv)
        wu, wv = wu // g, wv // g
        out.append((wu, wv, wu * a1 + wv * b1))
    return tuple(out)


def _face(G: MultiPoly, edge, u0: int) -> list:
    """The face polynomial F of the real G on the compact edge
    wu*a + wv*b = m, at u = u0, as the integer list of G.den * F(u0, v) in
    powers of v: a positive multiple, with the signs and roots of F."""
    wu, wv, m = edge
    face = [(a, b, c) for (a, b), (c, _) in G.rows.items() if wu * a + wv * b == m]
    poly = [0] * (max(b for _, b, _ in face) + 1)
    for a, b, c in face:
        poly[b] += c * u0**a
    return poly


def _face_positive(G: MultiPoly, edge) -> bool:
    """Whether the face polynomial of G on a compact edge is positive off the
    axes, exactly: on each side u = +-1 it is a polynomial in v; strip the
    v-power, then demand positivity on R."""
    for u0 in (1, -1):
        poly = _face(G, edge, u0)
        low = next(k for k, c in enumerate(poly) if c)
        # a real root is a vanishing face direction
        if not is_positive_definite(poly[low:]):
            return False
    return True


def line_frame(a, b):
    """The frame of the rational line ell = a x + b y: (change, inverse).

    change has rows u = a x + b y and v = -b x + a y, so ell is the u-axis
    line; inverse maps (u, v) back to (x, y), with det = a^2 + b^2 > 0.
    """
    det = Fraction(a * a + b * b)
    return ((a, b), (-b, a)), ((a / det, -b / det), (b / det, a / det))


def _candidate_lines(g: MultiPoly):
    """Lines whose frames `monomialize` tries, in order: x, x - y, then
    ell = den x - num y for each repeated rational root num/den of the
    lowest form, ascending.

    Those roots are the rational roots of gcd(c, c'), the last member of
    the Sturm chain of the lowest form c, a real form: its roots of
    multiplicity >= 2.  ell is left out when it or its perpendicular
    num x + den y is listed already, since both frames have the same axes;
    listed lines have a positive first entry.
    """
    lines = [(1, 0), (1, -1)]
    lowest = g.lowest_part()
    repeated = [1] if lowest.is_zero() else sturm_chain(binary_form(lowest))[-1]
    for root in rational_roots(repeated):
        # direction (t, 1) kills the form: align u with x - t*y
        num, den = root.numerator, root.denominator
        perpendicular = (num, den) if num > 0 else (-num, -den)
        if (den, -num) not in lines and perpendicular not in lines:
            lines.append((den, -num))
    return lines


def monomialize(g: MultiPoly) -> MonomialIdealIC:
    """Find a linear change making g comparable to a sum of even monomials.

    Tries the frame `line_frame` of each line of `_candidate_lines`.  A
    frame is accepted on two exact checks of G = g in (u, v), with no
    sampling: (a) every term of G lies in the Newton polyhedron P of its
    positive even terms, and (b) every compact face polynomial of P is
    positive off the axes.  Under (a) and (b), for every weight w > 0 the
    w-initial form of G is either a positive even vertex monomial or a face
    polynomial positive off the axes, and all other terms have higher
    w-order; hence G ~ sum of u^a v^b over the vertices (a, b) of P near 0,
    and IC(g) is the monomial ideal of P (Swanson & Huneke, Integral
    Closure of Ideals, Rings, and Modules, 2006, ch. 1).

    A frame changes all of g only after it accepts the lowest form g_d of
    g, which has at most d + 1 terms; the change keeps degrees, so G_d is
    the lowest form of G.  Every frame that accepts G accepts G_d.  Every
    term of G has degree >= d, so the points of P of degree d are the hull
    S of the positive even terms of G_d; (a) puts the other terms of G_d
    in S; and S is the face of P of weight (1, 1), a vertex or a compact
    edge whose face polynomial, G_d, is positive off the axes by (b).  So
    admission by G_d rejects no frame that G would accept, and the first
    accepted frame is the same.

    The frames of the repeated-root lines are tried first, then those of x
    and x - y, and the first accepted frame is still that of the listed
    order.  Such a line's root direction is a real zero of the lowest form,
    and it lies off both axes of the x and x - y frames, since
    `_candidate_lines` drops a line equal or perpendicular to a listed one.
    A frame accepts the lowest form only if the form is positive off its
    axes, so neither fixed frame accepts while such a line exists.  The
    search for a negative face keeps the listed order, and so its witness.

    No other frame is ever accepted first.  Acceptance depends only on the
    lines u = 0 and v = 0: swapping u and v, scaling an axis or flipping
    its sign keeps the even positive terms, the polyhedron and face
    positivity.  Nor is an eigenframe of a nonzero quadratic part needed:
    a definite one is accepted in the frame of x, a rank-one c * ell^2
    with c > 0 has the lines of the frame of ell (of x when ell = y), and
    with any other g takes negative values near 0.
    """
    if not g.is_real():
        raise PreconditionError("monomialize expects a real polynomial")
    if len(g.vars) != 2:
        raise PreconditionError("monomialize expects a bivariate polynomial")
    frames = [line_frame(a, b) for a, b in _candidate_lines(g)]
    lowest = g.lowest_part()
    for change, inverse in frames[2:] + frames[:2]:
        if _accepted(linear_change(lowest, inverse, ("u", "v")), change, inverse) is None:
            continue
        ic = _try_change(g, change, inverse)
        if ic is not None:
            return ic
    for change, inverse in frames:
        G = linear_change(g, inverse, ("u", "v"))
        witness = _negative_face(G, change, g.vars)
        if witness is not None:
            raise NoMonomializationFound(
                f"g < 0 along {witness['curve']} as t -> 0+, so no linear "
                "change makes it comparable to even monomials",
                witness=witness,
            )
    raise NoMonomializationFound(
        "no tried linear change makes g comparable to even monomials"
    )


def _negative_face(G: MultiPoly, change, xy_vars):
    """A curve along which G, g in the frame (u, v) = change * (x, y), is
    negative near 0, or None.

    Looks for a compact edge wu*a + wv*b = m of the Newton polygon of all
    terms of G whose face polynomial F is negative at a rational point
    (u0, v0) off the axes, u0 = +-1.  Every other term has weighted degree
    above m, so G(u0 t^wu, v0 t^wv) = F(u0, v0) t^m + O(t^(m+1)) < 0 for
    small t > 0.  The witness holds change, u0, v0, the weights, m as
    "order", F(u0, v0) as "leading" and the curve as text.
    """
    for wu, wv, m in _halfspaces(newton_polygon(G.rows)):
        for u0 in (1, -1):
            poly = _face(G, (wu, wv, m), u0)
            v0 = negative_point(poly)
            if v0 is None:
                continue
            leading = Fraction(sum(c * v0**b for b, c in enumerate(poly)), G.den)
            u_form, v_form = (
                format_poly(MultiPoly(xy_vars, {(1, 0): r0, (0, 1): r1}))
                for r0, r1 in change
            )
            u_t, v_t = (
                format_poly(MultiPoly(("t",), {(w,): c}))
                for w, c in ((wu, u0), (wv, v0))
            )
            return {
                "change": change,
                "u": Fraction(u0),
                "v": v0,
                "u_weight": wu,
                "v_weight": wv,
                "order": m,
                "leading": leading,
                "curve": f"{u_form} = {u_t}, {v_form} = {v_t}",
            }
    return None


def _try_change(g, change, inverse):
    """The MonomialIdealIC of g in the frame, or None when it fails (a) or
    (b) of `monomialize`."""
    return _accepted(linear_change(g, inverse, ("u", "v")), change, inverse)


def _accepted(G, change, inverse):
    """The MonomialIdealIC of G, a polynomial in the frame (u, v), or None
    when it fails (a) or (b)."""
    # G's rows are its coefficients times den > 0: the same signs, and the
    # same positive faces
    candidates = [
        (a, b) for (a, b), (c, _) in G.rows.items() if a % 2 == 0 and b % 2 == 0 and c > 0
    ]
    if not candidates:
        return None
    vertices = newton_polygon(candidates)
    halfspaces = _halfspaces(vertices)
    ic = MonomialIdealIC(
        change=change,
        inverse=inverse,
        newton_points=tuple(vertices),
        halfspaces=halfspaces,
        u_min=vertices[0][0],
        v_min=vertices[-1][1],
    )
    if not all(ic.contains_exponent(a, b) for a, b in G.rows):
        return None
    # exact positivity of each compact face off the axes
    if not all(_face_positive(G, edge) for edge in halfspaces):
        return None
    return ic


def rational_circle_points(radius: Fraction, n: int = 32):
    """Exact rational points on the circle of rational radius, both halves."""
    pts = []
    for k in range(-n, n + 1):
        t = Fraction(k, n)
        den = 1 + t * t
        x = radius * (1 - t * t) / den
        y = radius * 2 * t / den
        pts.append((x, y))
        pts.append((-x, -y))
    return pts


def ic_membership(q: MultiPoly, ic: MonomialIdealIC):
    """Decide |q| <~ g near 0 via the Newton polyhedron; exact for the
    polynomial q(x, y).  The polygon of ic must have a vertex on each axis
    (`MonomialIdealIC.isolated_exponent`), else PreconditionError.

    Returns (verdict, certificate): verdict True with per-term halfspace
    slacks, or False with a witness curve u = lu * s^wu, v = lv * s^wv along
    which |q| / g grows like s^(h0 - m) with h0 < m.
    """
    ic.isolated_exponent()
    quv = ic.to_uv(q)
    if quv.is_zero():
        return True, {"terms": []}
    violated = [(a, b) for (a, b) in quv.rows if not ic.contains_exponent(a, b)]
    if not violated:
        return True, {
            "terms": [
                {"exponent": (a, b), "slack": ic.slack(a, b)}
                for (a, b) in sorted(quv.rows)
            ]
        }
    # u_min = v_min = 0, so a violated exponent breaks a face: the witness
    # takes the first face weight, positive, of the widest gap m - h0
    faces = [
        (wu, wv, m, min(wu * a + wv * b for (a, b) in violated))
        for wu, wv, m in ic.halfspaces
    ]
    wu, wv, m, h0 = max(faces, key=lambda face: face[2] - face[3])
    if h0 >= m:
        raise AssertionError("violated exponent without separating weight")
    # leading coefficient along u = lu s^wu, v = lv s^wv must be nonzero
    level = MultiPoly._lowest_terms(
        quv.vars,
        quv.den,
        {(a, b): r for (a, b), r in quv.rows.items() if wu * a + wv * b == h0},
    )
    witness_lambda = next(
        (lam for lam in _lambda_candidates() if not level.eval_exact(lam).is_zero()),
        None,
    )
    witness = {
        "curve": {
            "u_weight": wu,
            "v_weight": wv,
            "lambda": witness_lambda,
            "q_order": h0,
            "g_order": m,
        },
        "violating_exponents": sorted(violated),
    }
    return False, witness


def _lambda_candidates():
    base = [1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2)]
    for lu in base:
        for lv in base:
            yield lu, lv


def ic_generators(ic: MonomialIdealIC, xy_vars=("x", "y")):
    """Minimal monomial generators of the polyhedron ideal, mapped back
    through the inverse linear change: (the (x,y)-polynomials, the (u, v)
    exponents of `ic_staircase`)."""
    gens_uv = ic_staircase(ic)
    return [ic.from_uv_monomial(a, b, xy_vars) for a, b in gens_uv], gens_uv


def ic_staircase(ic: MonomialIdealIC) -> list:
    """The (u, v) exponents (a, b) of the minimal monomial generators of the
    polyhedron ideal, a ascending and b descending."""

    def b_floor(a: int) -> int:
        b = ic.v_min
        for wu, wv, m in ic.halfspaces:
            need = m - wu * a
            if need > wv * b:
                b = -(-need // wv)  # ceil division
        return b

    # the staircase closes at the last vertex (a_last, v_min)
    gens_uv = []
    for a in range(ic.u_min, ic.newton_points[-1][0] + 1):
        b = b_floor(a)
        if not gens_uv or b < gens_uv[-1][1]:
            gens_uv.append((a, b))
    return gens_uv
