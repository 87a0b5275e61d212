"""Constructions of stable polynomials: polydisk/half-plane transfer, the
Moebius substitution raising contact order, and the iterated-composition
family with prescribed vanishing order 2L.

The contact order that the lift needs is taken exactly from
`engine.numerator_ideal`, at no fixed truncation order; this module does
not use `puiseux`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError
from .gaussian import GaussianRational, I, ONE
from .poly import MultiPoly
from .record import Frozen


class RationalFunction(Frozen):
    """Quotient of polynomials, reduced by coefficient content only."""

    __slots__ = ("num", "den", "normalized")

    def __init__(self, num: MultiPoly, den: MultiPoly, normalized: bool = False):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "normalized", normalized)

    @classmethod
    def reduced(cls, num: MultiPoly, den: MultiPoly) -> "RationalFunction":
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        scale = Fraction(1) / den.content()
        return cls(num.scale(scale), den.scale(scale), normalized=True)

    def eval_exact(self, point) -> GaussianRational:
        return self.num.eval_exact(point) / self.den.eval_exact(point)


def _halfplane_vars(n: int):
    if n == 2:
        return ("x", "y")
    if n == 3:
        return ("x", "y", "z")
    return tuple(f"x{k}" for k in range(1, n)) + ("z",)


def polydisk_to_halfplane(p_disk: MultiPoly) -> MultiPoly:
    """Transfer a polydisk-stable polynomial to the poly-upper half-plane.

    Each disk variable is replaced by (i - w)/(i + w) (sending 0 in the
    half-plane to the boundary point 1) and denominators are cleared by the
    per-variable degrees; the scalar is normalized so the coefficient of the
    pure distinguished-variable monomial is 1.  The result vanishes at 0 iff
    p_disk vanishes at (1, ..., 1).
    """
    out_vars = _halfplane_vars(len(p_disk.vars))
    degs = [p_disk.var_degree(v) for v in p_disk.vars]
    # precompute (i - w)^k and (i + w)^k per variable
    minus = []
    plus = []
    for j, name in enumerate(out_vars):
        w = MultiPoly.variable(out_vars, name)
        iw = MultiPoly.constant(out_vars, I)
        minus.append([MultiPoly.constant(out_vars, ONE)])
        plus.append([MultiPoly.constant(out_vars, ONE)])
        for _ in range(degs[j]):
            minus[j].append(minus[j][-1] * (iw - w))
            plus[j].append(plus[j][-1] * (iw + w))
    total = MultiPoly.zero(out_vars)
    for exps, coeff in p_disk.terms.items():
        term = MultiPoly.constant(out_vars, coeff)
        for j, e in enumerate(exps):
            term = term * minus[j][e] * plus[j][degs[j] - e]
        total = total + term
    if total.is_zero():
        raise PreconditionError("transfer degenerated to the zero polynomial")
    return normalize_z_coefficient(total)


def normalize_z_coefficient(p: MultiPoly) -> MultiPoly:
    """Scale so the pure distinguished-variable monomial has coefficient 1."""
    n = len(p.vars)
    z_unit = (0,) * (n - 1) + (1,)
    c0 = p.coefficient(z_unit)
    if c0.is_zero():
        content = p.content()
        if content != 0:
            p = p.scale(Fraction(1) / content)
        return p
    return p.scale(GaussianRational(1) / c0)


def _linear_transfer(c0, weights) -> MultiPoly:
    """The half-plane transfer of c0 - sum_j w_j z_j; a zero w_j drops out."""
    n = len(weights)
    disk_vars = tuple(f"z{k}" for k in range(1, n + 1))
    terms = {(0,) * n: GaussianRational(c0)}
    for j, w in enumerate(weights):
        terms[tuple(1 if k == j else 0 for k in range(n))] = GaussianRational(-w)
    return polydisk_to_halfplane(MultiPoly(disk_vars, terms))


def contact_order(p2: MultiPoly) -> int:
    """Contact order K = 2L of a bivariate stable polynomial at (0, 0).

    The zero set y = -psi(x) approaches the real plane at rate |x|^K, K the
    first index with a non-real psi coefficient.  `numerator_ideal` finds L
    exactly, raising its working order to ord Res_z(p2, p̄2) where psi is
    real through the default order; Im psi identically zero has no finite K.
    """
    if len(p2.vars) != 2:
        raise PreconditionError("contact order needs a bivariate polynomial")
    # engine is loaded here only, so that importing construct stays cheap
    from .engine import CaseTag, numerator_ideal

    desc = numerator_ideal(MultiPoly(("x", "z"), p2.terms))
    if desc.case is CaseTag.PRINCIPAL:
        raise PreconditionError(
            "Im psi vanishes identically: the contact order is infinite"
        )
    return 2 * desc.L_or_K


def contact_order_lift(q2: MultiPoly, m: int | None = None) -> MultiPoly:
    """Lift a bivariate stable q2 with contact order K > 2 to three variables.

    p(x, y, z) = (2i + x + y)^m  q2((i(x+y) + 2xy) / (2i + x + y), z); the
    branch of p restricted to x = y recovers the branch of q2 exactly.
    """
    if len(q2.vars) != 2:
        raise PreconditionError("contact_order_lift needs a bivariate polynomial")
    if not q2.coefficient((0, 0)).is_zero():
        raise PreconditionError("q2(0,0) != 0")
    if q2.coefficient((0, 1)).is_zero():
        raise PreconditionError("dq2/dy(0) = 0: zero not smooth")
    K = contact_order(q2)
    if K <= 2:
        raise PreconditionError(f"contact order {K} is not > 2")
    if m is None:
        m = q2.var_degree(q2.vars[0])
    out = ("x", "y", "z")
    x = MultiPoly.variable(out, "x")
    y = MultiPoly.variable(out, "y")
    z = MultiPoly.variable(out, "z")
    A = (x + y).scale(I) + (x * y).scale(2)  # i(x+y) + 2xy
    B = MultiPoly.constant(out, GaussianRational(0, 2)) + x + y  # 2i + x + y
    a_pow = [MultiPoly.constant(out, ONE)]
    b_pow = [MultiPoly.constant(out, ONE)]
    for _ in range(m):
        a_pow.append(a_pow[-1] * A)
        b_pow.append(b_pow[-1] * B)
    total = MultiPoly.zero(out)
    for (s_exp, y_exp), coeff in q2.terms.items():
        if s_exp > m:
            raise PreconditionError("m smaller than the first-variable degree")
        term = a_pow[s_exp] * b_pow[m - s_exp] * (z**y_exp)
        total = total + term.scale(coeff)
    return normalize_z_coefficient(total)


def pick_quotient(p: MultiPoly) -> RationalFunction:
    """The real rational Pick function i(p + pbar)/(p - pbar).

    Written with real numerator and denominator: i(p+pbar)/(p-pbar) =
    (p + pbar) / ((p - pbar)/i).  Maps the poly-upper half-plane into the
    closed upper half-plane and is real on real points.
    """
    pbar = p.reflect()
    num = p + pbar
    den = (p - pbar).scale(GaussianRational(0, -1))  # (p - pbar)/i
    if not (num.is_real() and den.is_real()):
        raise AssertionError("Pick function numerator/denominator not real")
    return RationalFunction.reduced(num, den)


def iterated_composition(L: int, n_vars: int = 3) -> MultiPoly:
    """Stable polynomial whose branch has Im phi vanishing to order exactly 2L.

    Builds the real rational Pick function i(p + pbar)/(p - pbar) from the
    half-plane transfer of n - z1 - ... - zn, n = n_vars (n_vars - 1
    x-variables), and composes it L times in the
    z-slot; composition of Moebius maps in z is a 2x2 polynomial matrix
    power, kept exact with content reduction at each stage.
    """
    if L < 1:
        raise PreconditionError("L must be >= 1")
    g = pick_quotient(_linear_transfer(n_vars, [1] * n_vars))
    # the last variable is the one composed in: y for n_vars = 2, else z
    last = g.num.vars[-1]
    zero = MultiPoly.zero(g.num.vars[:-1])
    rows = []
    for poly in (g.num, g.den):
        if poly.var_degree(last) > 1:
            raise AssertionError("composition input must have z-degree 1")
        z_slices = poly.slices(last)
        rows.append((z_slices.get(1, zero), z_slices.get(0, zero)))
    base = tuple(rows)
    mat = base
    for _ in range(L - 1):
        mat = _mat_mul(mat, base)
    (a, b), (c, d) = mat
    x_vars = a.vars
    full = x_vars + ("z",)
    z = MultiPoly.variable(full, "z")
    N_L = z * a.embed(full) + b.embed(full)
    D_L = z * c.embed(full) + d.embed(full)
    p_L = D_L - N_L.scale(GaussianRational(0, 1))
    return normalize_z_coefficient(p_L)


def _mat_mul(m1, m2):
    (a1, b1), (c1, d1) = m1
    (a2, b2), (c2, d2) = m2
    entries = [a1 * a2 + b1 * c2, a1 * b2 + b1 * d2, c1 * a2 + d1 * c2, c1 * b2 + d1 * d2]
    # content reduction keeps the coefficients small without changing the map
    contents = [e.content() for e in entries if not e.is_zero()]
    if contents:
        g = contents[0]
        for c in contents[1:]:
            num = math.gcd(g.numerator, c.numerator)
            den = (g.denominator * c.denominator) // math.gcd(
                g.denominator, c.denominator
            )
            g = Fraction(num, den)
        if g not in (0, 1):
            entries = [e.scale(Fraction(1) / g) for e in entries]
    return (entries[0], entries[1]), (entries[2], entries[3])


def random_stable_polynomial(rng, n_vars: int = 3) -> MultiPoly:
    """A random half-plane-stable polynomial with a smooth zero at 0.

    Transfers c0 - sum(c_j zeta_j) with random positive rationals c_j summing
    to c0 (polydisk-stable, boundary zero at (1,...,1)); optionally
    multiplied by the transfer of a nonvanishing disk polynomial, which
    keeps stability and the smooth zero.
    """
    weights = [Fraction(rng.randint(1, 6)) for _ in range(n_vars)]
    p = _linear_transfer(sum(weights), weights)
    if rng.random() < 0.5:
        # nonvanishing factor: c0' strictly dominating
        w2 = [Fraction(rng.randint(0, 3)) for _ in range(n_vars)]
        factor = _linear_transfer(sum(w2) + rng.randint(1, 4), w2)
        p = normalize_z_coefficient(p * factor)
    return p
