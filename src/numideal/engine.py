"""Assemble the admissible-numerator ideal of a stable polynomial and decide
membership of candidate numerators.

Pipeline: solve the branch z + phi(x) = 0, classify the first non-real term
of phi, then emit one of four ideal shapes: Principal (Im phi identically
zero), Definite (positive-definite leading imaginary part), LinearForm
(imaginary part comparable to a power of a real linear form), or
IsolatedDegenerate (isolated real zero, ideal via an integral closure).
A numeric boundedness oracle cross-checks every verdict.

Where phi is real through the order or its leading imaginary part is not
definite, the decisions rest on the exact resultant R = Res_z(f, f̄)
(`poly.conjugate_resultant`), with f the factor of p through the branch:
p itself, or p over its gcd with p̄ when Res_z(p, p̄) = 0.  R is Im phi
times a unit near 0 unless f(0, z)/z and f̄(0, z) share a root, z = oo
included.  R fixes the working order, tests the linear-form pattern by
exact division, and is the g whose integral closure gives the
IsolatedDegenerate ideal.  The engine therefore does not use `puiseux`:
no branch expansion, Weierstrass preparation or sampled positivity check
decides a case.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .branch import BranchSolution, PhiClassification, PhiKind, classify, solve_branch
from .closure import MonomialIdealIC, ic_generators, ic_membership, monomialize
from .errors import PreconditionError, SanityViolation, TruncationError
from .forms import HomogeneousForm, p_gcd
from .gaussian import GaussianRational
from .parsing import _term_sort_key, format_poly
from .poly import (
    MultiPoly,
    TruncatedSeries,
    conjugate_resultant,
    divide_exact,
    linear_change,
    primitive_gcd,
    substitute,
)


class CaseTag(Enum):
    PRINCIPAL = "Principal"
    DEFINITE = "Definite"
    LINEAR_FORM = "LinearForm"
    ISOLATED_DEGENERATE = "IsolatedDegenerate"


class Verdict(Enum):
    IN_IDEAL = "InIdeal"
    NOT_IN_IDEAL = "NotInIdeal"
    INDETERMINATE = "Indeterminate"


@dataclass
class IdealDescription:
    case: CaseTag
    generators: list  # MultiPoly in the full (x.., z) variables
    H: MultiPoly  # real polynomial in the x-variables
    L_or_K: int
    g: MultiPoly | None
    # diagnostics, not part of the wire schema
    branch: BranchSolution | None = None
    classification: PhiClassification | None = None
    ic: MonomialIdealIC | None = None
    linear_form: MultiPoly | None = None
    # exact Re phi = re_num / re_den for z-degree-1 denominators; the
    # LinearForm membership reduction must use the full Re phi, since
    # IC(ell^(2m)) contains no power of the maximal ideal
    re_phi_rational: tuple | None = None

    def to_json_dict(self) -> dict:
        return {
            "case": self.case.value,
            "generators": [format_poly(g) for g in self.generators],
            "H": format_poly(self.H),
            "L_or_K": self.L_or_K,
            "g": format_poly(self.g) if self.g is not None else None,
        }


@dataclass
class MembershipVerdict:
    verdict: Verdict
    reduced_numerator: TruncatedSeries | None
    witness: dict | None = None
    certificate: dict | None = None


def _monomials_of_degree(vars, degree):
    """All exponent vectors of one total degree, canonical (graded-lex) order."""

    def rec(nvars, total):
        if nvars == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in rec(nvars - 1, total - first):
                yield (first,) + rest

    exps = sorted(rec(len(vars), degree), key=_term_sort_key)
    return [MultiPoly(vars, {e: GaussianRational(1)}) for e in exps]


def _stability_spot_check(p: MultiPoly, seed: int = 0, samples: int = 40):
    """p must be nonzero at sampled points of the poly-upper half-plane."""
    rng = random.Random(seed)
    n = len(p.vars)
    for _ in range(samples):
        point = [
            complex(rng.uniform(-0.5, 0.5), rng.uniform(1e-3, 0.5)) for _ in range(n)
        ]
        value = p.eval_complex(point)
        if value == 0:
            raise SanityViolation(
                "p vanishes at a sampled point of the poly-upper half-plane",
                witness=tuple(point),
            )


def _z_split(p: MultiPoly):
    """For deg_z(p) = 1 return (b, c) with p = c(x) z + b(x), else None."""
    if p.var_degree(p.vars[-1]) != 1:
        return None
    slices = p.slices(p.vars[-1])
    return slices.get(0, MultiPoly.zero(p.vars[:-1])), slices[1]


def _linear_power_of(form: MultiPoly):
    """Write a real homogeneous bivariate form as c * ell^deg, or None.

    ell comes back with primitive integer coefficients and positive leading
    sign; c is the positive rational multiplier (c > 0 required here since
    these forms are nonnegative leading imaginary parts).
    """
    if len(form.vars) != 2 or not form.is_real():
        return None
    d = form.degree()
    if d <= 0:
        return None
    coeffs = HomogeneousForm.from_poly(form).coeffs
    # form = c * (alpha x + beta y)^d: read the ratio off the two leading
    # coefficients, then verify the whole binomial pattern exactly
    if coeffs[d] != 0:
        alpha_v, beta_v = Fraction(1), coeffs[d - 1] / (d * coeffs[d])
    elif coeffs[0] != 0:
        alpha_v, beta_v = coeffs[1] / (d * coeffs[0]), Fraction(1)
    else:
        return None
    # verify exactly
    x_vars = form.vars
    ell = MultiPoly(
        x_vars, {(1, 0): GaussianRational(alpha_v), (0, 1): GaussianRational(beta_v)}
    )
    candidate = ell**d
    scale = None
    for e, c in form.terms.items():
        cc = candidate.coefficient(e)
        if cc.is_zero():
            return None
        ratio = c / cc
        if scale is None:
            scale = ratio
        elif ratio != scale:
            return None
    if candidate.scale(scale) != form:
        return None
    # primitive integer coefficients, positive leading sign
    den = alpha_v.denominator * beta_v.denominator // math.gcd(
        alpha_v.denominator, beta_v.denominator
    )
    ai, bi = int(alpha_v * den), int(beta_v * den)
    g = math.gcd(ai, bi)
    ai, bi = ai // g, bi // g
    if ai < 0 or (ai == 0 and bi < 0):
        ai, bi = -ai, -bi
    ell = MultiPoly(x_vars, {(1, 0): GaussianRational(ai), (0, 1): GaussianRational(bi)})
    if not scale.is_real() or scale.re <= 0:
        return None
    return ell, scale


def _ell_frame(q: MultiPoly, ell: MultiPoly) -> MultiPoly:
    """q in the coordinates u = ell = a x + b y, v = -b x + a y."""
    a = ell.coefficient((1, 0)).re
    b = ell.coefficient((0, 1)).re
    det = a * a + b * b
    return linear_change(q, ((a / det, -b / det), (b / det, a / det)), ("u", "v"))


def _poly_divides_power(numerator: MultiPoly, ell: MultiPoly, power: int):
    """Exact test ell^power | numerator for a linear ell = a x + b y."""
    return all(e[0] >= power for e in _ell_frame(numerator, ell).terms)


def _branch_factor(p: MultiPoly):
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
    shared = primitive_gcd(p, p.conj_coefficients())
    if shared.coefficient((0,) * len(p.vars)).is_zero():
        return None
    f = divide_exact(p, shared)
    return f, conjugate_resultant(f)


def _shared_root(f: MultiPoly) -> str | None:
    """Name the root that f(0, z)/z and f̄(0, z) share on the projective
    line, the reason Res_z(f, f̄) vanishes to a higher order than Im phi."""
    zero = (0,) * (len(f.vars) - 1)
    at0 = [f.coefficient(zero + (k,)) for k in range(f.var_degree("z") + 1)]
    if at0[-1].is_zero():
        return (
            "p(0, z)/z and its conjugate share the root z = oo, since p(0, z) "
            "has lower degree in z than p"
        )
    shared = p_gcd(at0[1:], [c.conj() for c in at0])
    if len(shared) < 2:
        return None
    if len(shared) == 2:
        what = f"the root z = {-shared[0]}"
    else:
        factor = MultiPoly(("z",), {(k,): c for k, c in enumerate(shared)})
        what = f"the roots of {format_poly(factor)}"
    return f"p(0, z)/z and its conjugate share {what}"


def _comparable_resultant(
    f: MultiPoly, R: MultiPoly, im_part_2L: MultiPoly
) -> MultiPoly:
    """A real polynomial g comparable to Im phi near 0, built exactly.

    With (f, R) from `_branch_factor`, R is Im phi times a unit near 0 unless
    f(0, z)/z and f̄(0, z) share a root on the projective line; then
    ord R > 2L and the input is out of scope.  g is R times the s in
    {1, -1, i, -i} that makes its lowest form a positive multiple of
    Im phi_2L, divided by its content.
    """
    lowest = R.lowest_part()
    e = next(iter(im_part_2L.terms))
    ratio = lowest.coefficient(e) / im_part_2L.coefficient(e)
    if ratio.is_zero() or lowest != im_part_2L.scale(ratio):
        cause = _shared_root(f)
        raise PreconditionError(
            (f"{cause}, so " if cause else "")
            + f"Res_z(p, pbar) vanishes to order {R.min_degree()} at 0, not "
            f"2L = {im_part_2L.degree()}, and is not comparable to Im phi; "
            "such inputs are out of scope"
        )
    # conj(R) = (-1)^(m^2) R, so the ratio is real or purely imaginary and
    # s = conj(ratio) / |ratio| is one of 1, -1, i, -i
    s = GaussianRational(
        (ratio.re > 0) - (ratio.re < 0), (ratio.im < 0) - (ratio.im > 0)
    )
    g = R.scale(s)
    if not g.is_real():
        raise AssertionError("Res_z(p, pbar) times a unit of Z[i] is not real")
    return g.scale(Fraction(1) / g.content())


def _isolated_exponent(ic: MonomialIdealIC) -> int:
    """K with g >= c*|(x, y)|^K near 0: the larger axis intercept of the
    Newton polygon.  The zero of g at 0 is isolated exactly when the polygon
    has a vertex on each axis, since g is comparable to the sum of its
    vertex monomials in the accepted frame."""
    (a0, b0), (a1, b1) = ic.newton_points[0], ic.newton_points[-1]
    if a0 != 0 or b1 != 0:
        raise PreconditionError(
            "zero at the origin is not isolated: the Newton polygon of g, "
            f"vertices {list(ic.newton_points)}, misses an axis"
        )
    return max(b0, a1)


def numerator_ideal(p: MultiPoly, order: int = 12, seed: int = 0) -> IdealDescription:
    """The ideal of numerators q with q/p locally bounded near the origin.

    Requires p(0) = 0, dp/dz(0) != 0, and p stable on the poly-upper
    half-plane (caller-asserted; spot-checked by sampling).  The working
    order rises above `order` on its own where the case needs it: to
    ord Res_z(p, p̄) when phi is real through `order`, and to the exponent
    K of an isolated degenerate zero.
    """
    if len(p.vars) < 2 or p.vars[-1] != "z":
        raise PreconditionError("p must involve z as its distinguished variable")
    _stability_spot_check(p, seed=seed)
    sol = solve_branch(p, order)
    cls = classify(sol, seed=seed)
    x_vars = p.vars[:-1]
    d = len(x_vars)

    # (f, R) from _branch_factor, computed once and only where phi is real
    # through the order or its leading imaginary part is not definite
    factor = None
    if cls.kind is PhiKind.ALL_REAL_UP_TO_ORDER:
        factor = _branch_factor(p)
        if factor is None:
            return IdealDescription(
                case=CaseTag.PRINCIPAL,
                generators=[p],
                H=sol.phi.poly.real_part(),
                L_or_K=0,
                g=None,
                branch=sol,
                classification=cls,
            )
        # ord R >= 2L, so solving through ord R exposes L
        sol = solve_branch(p, max(order, factor[1].min_degree()))
        cls = classify(sol, seed=seed)
        if cls.kind is PhiKind.ALL_REAL_UP_TO_ORDER:
            raise AssertionError("phi is real through ord Res_z(p, pbar)")

    L = cls.L
    phi_parts = sol.phi.homogeneous_parts()

    if cls.definite:
        H = MultiPoly.zero(x_vars)
        for j in range(1, 2 * L):
            part = phi_parts.get(j)
            if part is not None:
                H = H + part.real_part()
        z_plus_H = MultiPoly.variable(p.vars, "z") + H.embed(p.vars)
        gens = [z_plus_H] + [
            m.embed(p.vars) for m in _monomials_of_degree(x_vars, 2 * L)
        ]
        return IdealDescription(
            case=CaseTag.DEFINITE,
            generators=gens,
            H=H,
            L_or_K=L,
            g=None,
            branch=sol,
            classification=cls,
        )

    if d != 2:
        raise PreconditionError(
            "degenerate leading imaginary part is only handled in two "
            "x-variables (three variables total)"
        )

    # not None here: Im phi is not identically zero
    f, R = factor or _branch_factor(p)
    g = _comparable_resultant(f, R, cls.im_part_2L)

    # linear-form pattern: Im phi = ell^(2L) * (positive unit)
    lin = _linear_power_of(cls.im_part_2L)
    if lin is not None and _poly_divides_power(g, lin[0], 2 * L):
        ell = lin[0]
        # f and f̄ lie in the ideal, so Re(conj(c0) f) does, and its z-slope
        # at 0 is |c0|^2 > 0: with ell^(2L) it generates the ideal
        c0 = f.coefficient((0,) * d + (1,))
        gen0 = f.scale(c0.conj()).real_part()
        gen0 = gen0.scale(Fraction(1) / gen0.content())
        re_rational = None
        split = _z_split(f)
        if split is not None:
            b, c = split
            # Re phi = (b cbar + bbar c) / (2 c cbar), an exact rational
            re_num = (
                b * c.conj_coefficients() + b.conj_coefficients() * c
            ).scale(Fraction(1, 2))
            re_den = c * c.conj_coefficients()
            re_rational = (re_num, re_den)
        ell_power = (ell ** (2 * L)).embed(p.vars)
        return IdealDescription(
            case=CaseTag.LINEAR_FORM,
            generators=[gen0, ell_power],
            H=sol.phi.poly.real_part().truncate(2 * L - 1),
            L_or_K=2 * L,
            g=ell ** (2 * L),
            branch=sol,
            classification=cls,
            linear_form=ell,
            re_phi_rational=re_rational,
        )

    # isolated degenerate zero: integral closure of g
    ic = monomialize(g)
    K = _isolated_exponent(ic)
    if sol.phi.order < K:
        sol = solve_branch(p, K)
    H = sol.phi.poly.real_part().truncate(K - 1)
    gens_xy, gens_uv = ic_generators(ic, xy_vars=x_vars)
    gens_uv_sorted = sorted(zip(gens_uv, gens_xy), key=lambda t: -t[0][0])
    generators = [MultiPoly.variable(p.vars, "z") + H.embed(p.vars)]
    for (a, b), gen in gens_uv_sorted:
        if a == ic.u_min and b > 0 and a + b == K:
            # pure-v staircase corner of total degree K: present it as the
            # full degree-K monomial block when the block lies in the ideal
            block = _monomials_of_degree(x_vars, K)
            if all(
                ic.contains_exponent(aa, bb)
                for m in block
                for (aa, bb) in ic.to_uv(m).terms
            ) and a == 0:
                generators.extend(m.embed(p.vars) for m in block)
                continue
        generators.append(gen.embed(p.vars))
    return IdealDescription(
        case=CaseTag.ISOLATED_DEGENERATE,
        generators=generators,
        H=H,
        L_or_K=K,
        g=g,
        branch=sol,
        classification=cls,
        ic=ic,
    )


def membership(
    p: MultiPoly,
    q: MultiPoly,
    order: int = 12,
    seed: int = 0,
    ideal: IdealDescription | None = None,
) -> MembershipVerdict:
    """Decide whether q/p is locally bounded near the origin.

    Reduces q to q0(x) = q(x, -H(x)) and tests q0 against the ideal's
    x-part: a vanishing-order test (Definite), an exact divisibility test
    (LinearForm), or Newton-polyhedron membership (IsolatedDegenerate).
    """
    desc = ideal if ideal is not None else numerator_ideal(p, order=order, seed=seed)
    if q.vars != p.vars:
        q = q.embed(p.vars)
    phi = desc.branch.phi if desc.branch is not None else None

    if desc.case is CaseTag.PRINCIPAL:
        reduced = substitute(q, "z", -phi)
        if reduced.is_zero():
            return MembershipVerdict(Verdict.IN_IDEAL, reduced)
        return MembershipVerdict(
            Verdict.NOT_IN_IDEAL,
            reduced,
            witness=_direction_witness(reduced.poly, desc),
        )

    if desc.case is CaseTag.LINEAR_FORM:
        power = desc.L_or_K
        # reduce with the full Re phi: IC(ell^power) contains no (x)^K, so a
        # Taylor cutoff would corrupt the divisibility test
        reduced = substitute(q, "z", -phi.real_part())
        if desc.re_phi_rational is not None:
            ok = _rational_reduction_divides(q, desc, power)
        else:
            ok = _poly_divides_power(reduced.poly, desc.linear_form, power)
        if ok:
            return MembershipVerdict(
                Verdict.IN_IDEAL,
                reduced,
                certificate={
                    "divisible_by": f"({format_poly(desc.linear_form)})^{power}"
                },
            )
        return MembershipVerdict(
            Verdict.NOT_IN_IDEAL,
            reduced,
            witness=_linear_form_witness(reduced.poly, desc),
        )

    # the ideal's working order may exceed the requested one
    work = max(order, phi.order) if phi is not None else order
    reduced = substitute(q, "z", TruncatedSeries(-desc.H, work))

    if desc.case is CaseTag.DEFINITE:
        L = desc.L_or_K
        md = reduced.poly.min_degree()
        if md is None or md >= 2 * L:
            return MembershipVerdict(
                Verdict.IN_IDEAL, reduced, certificate={"min_degree": md, "needs": 2 * L}
            )
        return MembershipVerdict(
            Verdict.NOT_IN_IDEAL,
            reduced,
            witness=_direction_witness(reduced.poly, desc),
        )

    # isolated degenerate: integral-closure membership
    try:
        ok, cert = ic_membership(reduced, desc.ic)
    except TruncationError as exc:
        return MembershipVerdict(
            Verdict.INDETERMINATE, reduced, witness={"reason": str(exc)}
        )
    if ok:
        return MembershipVerdict(Verdict.IN_IDEAL, reduced, certificate=cert)
    return MembershipVerdict(Verdict.NOT_IN_IDEAL, reduced, witness=cert)


def _rational_reduction_divides(q: MultiPoly, desc: IdealDescription, power: int):
    """Exact LinearForm membership: clear the Re phi denominator and test
    divisibility by ell^power; the denominator is a unit so it cannot carry
    any factor of ell."""
    re_num, re_den = desc.re_phi_rational
    slices = q.slices("z")
    deg_z = max(slices, default=0)
    total = MultiPoly.zero(re_num.vars)
    for k, qk in slices.items():
        total = total + qk * ((-re_num) ** k) * (re_den ** (deg_z - k))
    return _poly_divides_power(total, desc.linear_form, power)


def _linear_form_witness(q0: MultiPoly, desc: IdealDescription):
    """Report how far q0 falls short of the required ell-divisibility."""
    ell = desc.linear_form
    j = min((e[0] for e in _ell_frame(q0, ell).terms), default=None)
    return {
        "zero_line": f"{format_poly(ell)} = 0",
        "ell_exponent": j,
        "required": desc.L_or_K,
        "path": "approach the zero line of Im phi inside the real slice",
    }


def _direction_witness(q0: MultiPoly, desc: IdealDescription):
    """A real direction along which the reduced numerator's lowest part is
    nonzero: the path x = t*e, z = -H(t*e) then shows |q/p| unbounded."""
    low = q0.lowest_part()
    if low.is_zero():
        return None
    d = len(q0.vars)
    for trial in _direction_grid(d):
        val = low.eval_exact([GaussianRational(t) for t in trial])
        if not val.is_zero():
            return {
                "direction": trial,
                "q0_order": low.degree(),
                "path": "x = t*direction, z = -H(x)",
            }
    return None


def _direction_grid(d: int):
    vals = [1, -1, 2, -2, 3, Fraction(1, 2)]
    for a in vals:
        for rest in itertools.product(vals + [0], repeat=d - 1):
            yield (a,) + rest


def boundedness_oracle(
    p: MultiPoly,
    q: MultiPoly,
    eps: float = 0.125,
    grid: int = 3,
    seed: int = 0,
    ideal: IdealDescription | None = None,
    real_slice_only: bool = False,
):
    """Sample |q/p| near the origin: sup estimate plus a divergence flag.

    Samples (a) real slices z = -Re H(x) +- delta and (b) interior points
    x + iv with a positive imaginary z-offset, plus deterministic probes on
    the extremal curves of the ideal; the flag trips when per-level maxima
    grow monotonically across the refinements (each level halves the box
    radius, and the slice offsets shrink like radius^2).
    """
    desc = ideal if ideal is not None else numerator_ideal(p, seed=seed)
    if q.vars != p.vars:
        q = q.embed(p.vars)
    H = desc.H
    x_vars = p.vars[:-1]
    d = len(x_vars)
    rng = random.Random(seed)
    cap = 100_000
    # one base sample set of 400 points in the unit box, rescaled per
    # refinement level, so level maxima are directly comparable point by point
    n = min(400, cap // max(grid, 1))
    base = []
    for k in range(n):
        x_unit = [rng.uniform(-1.0, 1.0) for _ in range(d)]
        # slice offsets scale like radius^2, the size of Im phi, so the
        # samples actually approach the zero set as the grid refines
        delta_unit = rng.choice([0.0, 0.25, -0.25, 0.0625, -0.0625])
        v_unit = [rng.uniform(0.05, 1.0) for _ in range(d)]
        interior = (not real_slice_only) and k % 2 == 1
        base.append((x_unit, delta_unit, v_unit, interior))
    level_max = []
    curve_max = []
    witness = None
    for level in range(grid):
        radius = eps / (2**level)
        best = 0.0
        curve_best = 0.0
        slice_points = []
        for x_unit, delta_unit, v_unit, interior in base:
            slice_points.append(
                ([radius * t for t in x_unit], delta_unit, v_unit, interior, False)
            )
        for x_real in _extremal_curve_points(desc, radius):
            slice_points.append((list(x_real), 0.0, None, False, True))
        for x_real, delta_unit, v_unit, interior, on_curve in slice_points:
            h_val = H.eval_complex(x_real).real
            delta = radius * radius * delta_unit
            if interior:
                point = [
                    complex(t, radius * s) for t, s in zip(x_real, v_unit)
                ] + [complex(-h_val, abs(delta) + 0.01 * radius**2)]
            else:
                point = [complex(t, 0.0) for t in x_real] + [
                    complex(-h_val + delta, 0.0)
                ]
            pv = p.eval_complex(point)
            if pv == 0:
                continue
            ratio = abs(q.eval_complex(point)) / abs(pv)
            if on_curve and ratio > curve_best:
                curve_best = ratio
            if ratio > best:
                best = ratio
                if witness is None or ratio > witness[0]:
                    witness = (ratio, tuple(point))
        level_max.append(best)
        curve_max.append(curve_best)

    def _monotone_growth(seq, factor=1.5):
        return all(
            seq[k + 1] >= factor * seq[k] and seq[k] > 0
            for k in range(len(seq) - 1)
        )

    # a 1/radius blow-up rate doubles per halving asymptotically; subleading
    # terms drag it toward ~1.8 at these radii while bounded ratios stay
    # near 1.0, so the monotone factor is calibrated at 1.5.  The extremal
    # curve family is tracked separately: its maxima are deterministic, so a
    # lucky random outlier at the coarsest level cannot mask the trend.
    divergent = _monotone_growth(level_max) or _monotone_growth(curve_max)
    return {
        "sup_estimate": max(level_max),
        "level_max": level_max,
        "divergent": divergent,
        "witness": witness,
    }


def _extremal_curve_points(desc: IdealDescription, radius: float):
    """Deterministic probes where |q|/|p| peaks: the Newton-polyhedron edge
    curves u = lam * s^wu, v = mu * s^wv (IsolatedDegenerate) and the zero
    line of the linear form (LinearForm)."""
    points = []
    if desc.case is CaseTag.ISOLATED_DEGENERATE and desc.ic is not None:
        (c00, c01), (c10, c11) = desc.ic.inverse
        weights = list(desc.ic.halfspaces) + [(1, 1, 0)]
        for wu, wv, _m in weights:
            wmin = min(wu, wv)
            if wmin == 0:
                continue
            # parametrize so the probe sits at distance ~radius from 0
            s = radius ** (1.0 / wmin)
            for lam in (1.0, -1.0, 0.5, -0.5):
                for mu in (1.0, -1.0):
                    u = lam * s**wu
                    v = mu * s**wv
                    points.append(
                        (
                            float(c00) * u + float(c01) * v,
                            float(c10) * u + float(c11) * v,
                        )
                    )
    elif desc.case is CaseTag.DEFINITE and len(desc.H.vars) == 2:
        for ex, ey in ((1.0, 0.0), (0.0, 1.0), (0.7071, 0.7071), (0.7071, -0.7071)):
            for t in (1.0, -1.0):
                points.append((radius * t * ex, radius * t * ey))
    elif desc.case is CaseTag.LINEAR_FORM and desc.linear_form is not None:
        a = float(desc.linear_form.coefficient((1, 0)).re)
        b = float(desc.linear_form.coefficient((0, 1)).re)
        norm = (a * a + b * b) ** 0.5
        ex, ey = -b / norm, a / norm  # along the zero line of ell
        nx, ny = a / norm, b / norm
        for t in (1.0, -1.0, 0.5):
            for off in (0.0, radius * radius, -radius * radius):
                points.append(
                    (radius * t * ex + off * nx, radius * t * ey + off * ny)
                )
    return points
