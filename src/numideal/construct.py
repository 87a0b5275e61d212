"""Constructions of stable polynomials: polydisk/half-plane transfer, the
Moebius substitution raising contact order, and the iterated-composition
family with prescribed vanishing order 2L.

Each construction substitutes a rational map and clears its denominators,
and every one does both through `substitute_fractions`, a single
`MultiPoly.subs`.  The contact order that the lift needs is taken exactly
from `engine.numerator_ideal`, at no fixed truncation order; this module
does not use `puiseux`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .gaussian import GaussianRational, I
from .poly import MultiPoly


def substitute_fractions(p: MultiPoly, fractions: dict) -> MultiPoly:
    """prod_j B_j^(deg_j p) * p(..., A_j/B_j, ...), a polynomial.

    Each variable mapped to a pair (A, B) is homogenized with p's degree in
    it, A taking the variable's place and B its complement; an unmapped
    variable stays, and a polynomial P is the pair (P, 1).  All replacements
    share one variable tuple, and the whole is one `subs`.
    """
    cols = [(p.vars.index(v), p.var_degree(v)) for v in fractions]
    terms = {e + tuple(d - e[i] for i, d in cols): c for e, c in p.terms.items()}
    assignments = {}
    for v, (a, b) in fractions.items():
        assignments[v], assignments[f"1/{v}"] = a, b
    homs = tuple(f"1/{v}" for v in fractions)
    return MultiPoly._from_terms(p.vars + homs, terms).subs(assignments)


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
    i = MultiPoly.constant(out_vars, I)
    fractions = {}
    for v, name in zip(p_disk.vars, out_vars):
        w = MultiPoly.variable(out_vars, name)
        fractions[v] = (i - w, i + w)
    total = substitute_fractions(p_disk, fractions)
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


def contact_order_lift(q2: MultiPoly) -> MultiPoly:
    """Lift a bivariate stable q2 with contact order K > 2 to three variables.

    p(x, y, z) = (2i + x + y)^m  q2((i(x+y) + 2xy) / (2i + x + y), z), with
    m the degree of q2 in its first variable; the branch of p restricted to
    x = y recovers the branch of q2 exactly.
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
    out = ("x", "y", "z")
    x = MultiPoly.variable(out, "x")
    y = MultiPoly.variable(out, "y")
    A = (x + y).scale(I) + (x * y).scale(2)  # i(x+y) + 2xy
    B = MultiPoly.constant(out, GaussianRational(0, 2)) + x + y  # 2i + x + y
    s, t = q2.vars
    z = MultiPoly.variable(out, "z")
    lifted = substitute_fractions(q2, {s: (A, B), t: (z, 1)})
    return normalize_z_coefficient(lifted)


def pick_quotient(p: MultiPoly) -> tuple:
    """The real rational Pick function i(p + pbar)/(p - pbar), as (num, den).

    Written with real numerator and denominator: i(p+pbar)/(p-pbar) =
    (p + pbar) / ((p - pbar)/i), both divided by the content of den.  Maps
    the poly-upper half-plane into the closed upper half-plane and is real
    on real points.
    """
    pbar = p.reflect()
    num = p + pbar
    den = (p - pbar).scale(GaussianRational(0, -1))  # (p - pbar)/i
    if not (num.is_real() and den.is_real()):
        raise AssertionError("Pick function numerator/denominator not real")
    if den.is_zero():
        raise ZeroDivisionError("Pick function with zero denominator")
    scale = Fraction(1) / den.content()
    return num.scale(scale), den.scale(scale)


def iterated_composition(L: int, n_vars: int = 3) -> MultiPoly:
    """Stable polynomial whose branch has Im phi vanishing to order exactly 2L.

    Builds the real rational Pick function i(p + pbar)/(p - pbar) from the
    half-plane transfer of n - z1 - ... - zn, n = n_vars (n_vars - 1
    x-variables), composes it L times in the last variable, num/den of
    degree 1 there, and returns den - i*num.
    """
    if L < 1:
        raise PreconditionError("L must be >= 1")
    num, den = pick_quotient(_linear_transfer(n_vars, [1] * n_vars))
    # the last variable is the one composed in: y for n_vars = 2, else z
    last = num.vars[-1]
    if num.var_degree(last) != 1 or den.var_degree(last) != 1:
        raise AssertionError("composition input must have z-degree 1")
    N, D = num, den
    for _ in range(L - 1):
        N, D = (substitute_fractions(f, {last: (N, D)}) for f in (num, den))
    p_L = D - N.scale(GaussianRational(0, 1))
    return normalize_z_coefficient(p_L.rename_vars({last: "z"}))


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
