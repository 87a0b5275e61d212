"""Assemble the admissible-numerator ideal of a stable polynomial and decide
membership of candidate numerators.

Pipeline: solve the branch z + phi(x) = 0, classify the first non-real term
of phi, then emit one of four ideal shapes: Principal (Im phi identically
zero), Definite (positive-definite leading imaginary part), LinearForm
(imaginary part comparable to a power of a real linear form), or
IsolatedDegenerate (isolated real zero, ideal via an integral closure).
A numeric boundedness oracle, `boundedness_oracle`, cross-checks a verdict
on request (`member --oracle`) at one fixed setting: radius 1/8, 3
levels, seed 0.  Its sampler lives in `oracle`, which the function loads
on its first call, so no verdict compiles it.

A Definite ideal reads phi alone.  Where phi is real through the order or
its leading imaginary part is not definite, the decisions rest on the
exact resultant R = Res_z(f, f̄) (`resultant.conjugate_resultant`), with f
the factor of p through the branch: p itself, or p over its gcd with p̄
when Res_z(p, p̄) = 0 (`resultant.branch_factor`).  R is Im phi times a
unit near 0 unless f(0, z)/z and f̄(0, z) share a root, z = oo included;
the error names that root from `primitive_gcd` of the two as one-variable
polynomials.  R fixes the working order and is the g that `monomialize`
brings to a Newton polygon once: one vertex on an axis is LinearForm, with
ell the frame line of that axis, and a vertex on each axis is
IsolatedDegenerate, the ideal being the integral closure of g.  LinearForm
membership reduces by the member of `resultant.subresultants` of f and the
first generator that is linear in z, which the ideal computes on its
first read, so `analyze` never runs the sequence.  The engine imports
`resultant` only on these paths and `closure` only for LinearForm and
IsolatedDegenerate, so a Definite call whose phi turns non-real within the
order compiles neither.
The engine therefore does not use `puiseux`:
no branch expansion or Weierstrass preparation decides a case.  One
decision is sampled: `classify`'s sign of Im phi_2L for 2L >= 4 in three
or more x-variables, by the sphere sampler `forms.sampled_sphere_nonneg`
with a fixed seed.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction

from .branch import branch_series, classify, solve_branch
from .errors import NoMonomializationFound, PreconditionError, SanityViolation
from .parsing import format_poly
from .poly import MultiPoly
from .record import Lazy, Record


class CaseTag(Enum):
    PRINCIPAL = "Principal"
    DEFINITE = "Definite"
    LINEAR_FORM = "LinearForm"
    ISOLATED_DEGENERATE = "IsolatedDegenerate"


class Verdict(Enum):
    IN_IDEAL = "InIdeal"
    NOT_IN_IDEAL = "NotInIdeal"
    # reserved for a decision that cannot be made exactly (`member` exit
    # code 4); every verdict is exact today, so nothing returns it
    INDETERMINATE = "Indeterminate"


class IdealDescription(Record):
    """The ideal of admissible numerators of p.

    generators are MultiPolys in the full (x.., z) variables; H is a real
    polynomial in the x-variables; g is None for Principal and Definite.
    The other fields are diagnostics, not part of the wire schema, and
    `numerator_ideal` sets them by case: branch and classification in every
    case; ic, the closure.MonomialIdealIC that `monomialize` accepts for g,
    in LinearForm and IsolatedDegenerate; linear_form (ell) and reducer
    (den z + num, den(0) != 0) in LinearForm only.  A field that a case
    does not set is None.  reducer is computed on its first read, which
    `membership` makes: it runs the subresultant sequence of f and the first
    generator, which no other reader needs.  branch holds phi only as far
    as the ideal reads it: through 2L for Definite and through K for
    IsolatedDegenerate, unless a real phi made `numerator_ideal` solve
    further; through the working order for Principal and LinearForm.  A
    LinearForm branch that the ideal's own solve stopped short of the order
    is solved afresh on its first read, which the reduced numerator and
    `analyze` make and no verdict does.
    """

    __slots__ = (
        "case",
        "generators",
        "H",
        "L_or_K",
        "g",
        "branch",
        "classification",
        "ic",
        "linear_form",
        "reducer",
    )
    # ic, linear_form and reducer default to None
    _defaults = dict.fromkeys(__slots__[7:])
    _lazy = ("branch", "reducer")

    def to_json_dict(self) -> dict:
        return {
            "case": self.case.value,
            "generators": [format_poly(g) for g in self.generators],
            "H": format_poly(self.H),
            "L_or_K": self.L_or_K,
            "g": format_poly(self.g) if self.g is not None else None,
        }


class MembershipVerdict(Record):
    """witness (NotInIdeal) and certificate (InIdeal) are dicts, or None.

    reduced_numerator and certificate are computed on their first read:
    they need q reduced through the working order, which the verdict and
    the witness do not read (see `membership`).
    """

    __slots__ = ("verdict", "reduced_numerator", "witness", "certificate")
    _defaults = {"witness": None, "certificate": None}
    _lazy = ("reduced_numerator", "certificate")


def _monomials_of_degree(vars, degree, n=None):
    """All monomials of one total degree in the first n variables of the
    tuple vars, all of them by default, as polynomials in vars, in the
    printer's graded-lex order: descending lex within the degree, which is
    the order the recursion yields the exponent vectors in."""

    def rec(nvars, total):
        if nvars == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in rec(nvars - 1, total - first):
                yield (first,) + rest

    n = len(vars) if n is None else n
    rest = (0,) * (len(vars) - n)
    return [MultiPoly._from_rows(vars, 1, {e + rest: (1, 0)}) for e in rec(n, degree)]


def _zero_line(ic, x_vars) -> MultiPoly | None:
    """ell with g ~ ell^k near 0, or None: when the Newton polygon is one
    vertex on an axis, (k, 0) or (0, k), the frame line u or v of that axis.

    This is the linear-form pattern Im phi_2L = c * ell^(2L), ell^(2L) | g.
    Such a g vanishes on ell = 0, but is comparable to its vertex monomials
    in an accepted frame, and they are positive off the axes; so ell is an
    axis, and condition (a) of `monomialize` puts u^(2L) in every term.
    Conversely, one vertex (2L, 0) makes g in the frame u^(2L) times a unit.
    """
    (a, b), *rest = ic.newton_points
    if rest or (a and b):
        return None
    c0, c1 = ic.change[0] if b == 0 else ic.change[1]
    return MultiPoly(x_vars, {(1, 0): c0, (0, 1): c1})


def _isolated_exponent(ic) -> int:
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


def numerator_ideal(p: MultiPoly, order: int = 12) -> IdealDescription:
    """The ideal of numerators q with q/p locally bounded near the origin.

    Requires p(0) = 0, dp/dz(0) != 0, and p stable on the poly-upper
    half-plane.  Stability is the caller's hypothesis, as in the paper; p is
    never sampled.  What the engine checks, it checks exactly: the degree-1
    conditions in `solve_branch`, Im phi_2L >= 0 in `classify`, and a
    negative face of g in `monomialize`, each raising SanityViolation with
    a witness.  Only `classify`'s sign of Im phi_2L for 2L >= 4 in three
    or more x-variables is sampled, with a fixed seed.  phi is solved only
    through its first non-real degree 2L.  For an isolated degenerate zero
    the same solve continues through its exponent K (`branch_series`),
    within `order`, and a K past `order` is solved afresh.  The LinearForm
    `branch`, phi through `order` for the reduced numerators
    q(x, -Re phi(x)), is solved on its first read.  The working order rises
    above `order` on its own where the case needs it: to ord Res_z(p, p̄)
    when phi is real through `order`, and to K.  A degenerate Im phi_2L is
    decided by the Newton polygon that `monomialize` gives the comparable
    g, once: `_zero_line` reads LinearForm off it, `_isolated_exponent` the
    rest.  So `order` sets only how far phi, the Principal H and the
    reduced numerators reach; no case tag or verdict depends on it.  The
    LinearForm `reducer` is left to its first read, which `membership`
    makes, together with its unit-slope check.
    """
    if p.vars[-1:] != ("z",):
        raise PreconditionError("p must involve z as its distinguished variable")
    if len(p.vars) < 2:
        raise PreconditionError("p must involve at least one x-variable besides z")
    series = branch_series(p, order, stop_at_imaginary=True)
    sol = next(series)
    cls = classify(sol)
    x_vars = p.vars[:-1]
    d = len(x_vars)

    # (f, R) from `resultant.branch_factor`, computed once and only where phi
    # is real through the order or its leading imaginary part is not definite
    factor = None
    if cls.L is None:
        from .resultant import branch_factor

        factor = branch_factor(p)
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
        cls = classify(sol)
        if cls.L is None:
            raise AssertionError("phi is real through ord Res_z(p, pbar)")

    L = cls.L

    if cls.definite:
        H = sol.phi.poly.truncate(2 * L - 1).real_part()
        z_plus_H = MultiPoly.variable(p.vars, "z") + H.embed(p.vars)
        gens = [z_plus_H] + _monomials_of_degree(p.vars, 2 * L, d)
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

    # resultant and closure are loaded only past the Definite return, so a
    # Definite ideal compiles neither, and Principal never compiles closure
    from .closure import ic_staircase, monomialize
    from .resultant import branch_factor, comparable_resultant, subresultants

    # not None here: Im phi is not identically zero
    f, R = factor or branch_factor(p)
    g = comparable_resultant(f, R, cls.im_part_2L)

    try:
        ic = monomialize(g)
    except NoMonomializationFound as exc:
        # g is Im phi times a unit positive at 0
        if exc.witness is None:
            raise
        raise SanityViolation(
            f"p is not stable near 0: Im phi < 0 along {exc.witness['curve']} "
            "as t -> 0+",
            witness=exc.witness,
        ) from None
    ell = _zero_line(ic, x_vars)
    if ell is not None:
        # f and f̄ lie in the ideal, so Re(conj(c0) f) does, and its z-slope
        # at 0 is |c0|^2 > 0: with ell^(2L) it generates the ideal
        slope = (0,) * d + (1,)
        c0 = f.coefficient(slope)
        gen0 = f.scale(c0.conj()).real_part()
        gen0 = gen0.primitive()

        def reducer(_):
            # the member of z-degree 1 lies in the ideal: gen0 if deg_z f = 1;
            # else its slope at 0 is a unit, as f(0, z)/z and f̄(0, z) are
            # coprime
            linear = (s for s in subresultants(f, gen0) if s.var_degree("z") == 1)
            member = next(linear, None)
            if member is None or member.coefficient(slope).is_zero():
                raise AssertionError("the z-linear subresultant has no unit slope at 0")
            return member

        # `membership` reports q(x, -Re phi(x)) through the order of phi,
        # which no verdict reads: phi through the order is solved afresh on
        # the first read of branch, so no solver state outlives this call
        branch = sol
        if sol.phi.order < order:
            branch = Lazy(lambda _: solve_branch(p, order))
        ell_power = (ell ** (2 * L)).embed(p.vars)
        return IdealDescription(
            case=CaseTag.LINEAR_FORM,
            generators=[gen0, ell_power],
            H=sol.phi.poly.truncate(2 * L - 1).real_part(),
            L_or_K=2 * L,
            g=ell ** (2 * L),
            branch=branch,
            classification=cls,
            ic=ic,
            linear_form=ell,
            reducer=Lazy(reducer),
        )

    # isolated degenerate zero: integral closure of g
    K = _isolated_exponent(ic)
    if sol.phi.order < K:
        # continue the solve that stopped at 2L; its state is packed for the
        # order, so a K past the order is solved afresh.  After the solve
        # through ord R, phi reaches the order, so K is past it here
        sol = series.send(K) if K <= order else solve_branch(p, K)
    H = sol.phi.poly.truncate(K - 1).real_part()
    generators = [MultiPoly.variable(p.vars, "z") + H.embed(p.vars)]
    for a, b in reversed(ic_staircase(ic)):
        if a == 0 and b == K:
            # the generator v^K: present it as the degree-K monomial block,
            # which lies in the ideal since the polygon has a vertex on each
            # axis, so it holds every (a, b) with a + b >= K, and a linear
            # change of frame keeps degrees
            generators.extend(_monomials_of_degree(p.vars, K, d))
        else:
            generators.append(ic.from_uv_monomial(a, b, x_vars).embed(p.vars))
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
    *,
    ideal: IdealDescription,
) -> MembershipVerdict:
    """Decide whether q/p is locally bounded near the origin, against
    `ideal`, which is `numerator_ideal(p, ...)`.

    Each case reads q only as far as its verdict and witness need.
    Principal asks whether gcd(q, p) vanishes at 0.  LinearForm asks how
    often ell divides q reduced exactly modulo the z-linear `reducer`.
    Definite asks whether q0 = q(x, -H(x)) vanishes through degree 2L - 1,
    IsolatedDegenerate whether q0 through degree K - 1 lies in the Newton
    polyhedron; the witness reads the same part of q0.  Every verdict is
    exact, so none is Indeterminate.  Only Principal reads the ideal's
    branch for its verdict.

    reduced_numerator is the MultiPoly q(x, -r(x)) by `MultiPoly.subs`:
    r = phi (Principal) or Re phi (LinearForm) through the order of phi,
    r = H through the working order otherwise.  Except for Principal it is
    computed on its first read, as is the certificate of a Definite or
    IsolatedDegenerate InIdeal, which reads it: the least degree of q0, or
    the slacks of every term of q0 in the frame.
    """
    if q.vars != p.vars:
        q = q.embed(p.vars)

    if ideal.case is CaseTag.PRINCIPAL:
        # p is smooth at 0, so its only factor through 0 is the one carrying
        # the branch: q is a multiple of it exactly when gcd(q, p) vanishes
        # at 0, whatever the truncation of phi hides
        from .resultant import primitive_gcd

        phi = ideal.branch.phi
        reduced = q.subs({"z": -phi.poly}, phi.order)
        origin = (0,) * len(p.vars)
        if q.is_zero() or primitive_gcd(q, p).coefficient(origin).is_zero():
            return MembershipVerdict(Verdict.IN_IDEAL, reduced)
        return MembershipVerdict(
            Verdict.NOT_IN_IDEAL,
            reduced,
            witness=_direction_witness(reduced, ideal),
        )

    if ideal.case is CaseTag.LINEAR_FORM:
        from .resultant import pseudo_remainder

        power = ideal.L_or_K
        # the reducer den z + num lies in the ideal and den(0) != 0, so q is
        # reduced exactly to den^deg_z q(x, -num/den), free of z, and den
        # carries no factor of ell; ell is the frame coordinate of the axis
        # that holds the polygon's one vertex, so ell^j | exact for j up to
        # the least exponent of that coordinate in the frame
        slices = pseudo_remainder(q, ideal.reducer).slices("z")
        exact = slices.get(0, MultiPoly.zero(p.vars[:-1]))
        axis = 0 if ideal.ic.newton_points[0][1] == 0 else 1
        j = min((e[axis] for e in ideal.ic.to_uv(exact).rows), default=None)

        def reduce(_):
            # q(x, -Re phi(x)) through the order of phi: no verdict reads
            # it, so none forces the ideal's lazy branch
            phi = ideal.branch.phi
            return q.subs({"z": -phi.poly.real_part()}, phi.order)

        reduced = Lazy(reduce)
        if j is None or j >= power:
            return MembershipVerdict(
                Verdict.IN_IDEAL,
                reduced,
                certificate={
                    "divisible_by": f"({format_poly(ideal.linear_form)})^{power}"
                },
            )
        return MembershipVerdict(
            Verdict.NOT_IN_IDEAL,
            reduced,
            witness=_linear_form_witness(j, ideal),
        )

    # q(x, -H(x)) through the working order, which may exceed the requested
    # one; the verdicts below read it only through the degree that decides
    reduced = Lazy(
        lambda _: q.subs({"z": -ideal.H}, max(order, ideal.branch.phi.order))
    )

    if ideal.case is CaseTag.DEFINITE:
        # q lies in the ideal exactly when q(x, -H(x)) vanishes through
        # 2L - 1; if not, its lowest part, which the witness reads, lies there
        needs = 2 * ideal.L_or_K
        low = q.subs({"z": -ideal.H}, needs - 1)
        if low.is_zero():
            return MembershipVerdict(
                Verdict.IN_IDEAL,
                reduced,
                certificate=Lazy(
                    lambda v: {
                        "min_degree": v.reduced_numerator.min_degree(),
                        "needs": needs,
                    }
                ),
            )
        return MembershipVerdict(
            Verdict.NOT_IN_IDEAL, reduced, witness=_direction_witness(low, ideal)
        )

    # isolated degenerate: integral-closure membership.  The polygon has a
    # vertex on each axis with both intercepts <= K, so every monomial of
    # degree >= K, in any linear frame, lies in the polyhedron.  There it
    # has at least the weight m of each face and of the synthesized steep
    # weight, above the weight h0 < m of a violated exponent: the terms of
    # degree >= K move neither the verdict nor the violating exponents nor
    # the witness's weight line, only the slack list
    from .closure import ic_membership

    ok, witness = ic_membership(q.subs({"z": -ideal.H}, ideal.L_or_K - 1), ideal.ic)
    if ok:
        return MembershipVerdict(
            Verdict.IN_IDEAL,
            reduced,
            certificate=Lazy(lambda v: ic_membership(v.reduced_numerator, ideal.ic)[1]),
        )
    return MembershipVerdict(Verdict.NOT_IN_IDEAL, reduced, witness=witness)


def _linear_form_witness(j: int, desc: IdealDescription):
    """Report how far q falls short: ell^j is the largest power of ell
    dividing its exact reduction."""
    return {
        "zero_line": f"{format_poly(desc.linear_form)} = 0",
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
        val = low.eval_exact(trial)
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


def boundedness_oracle(p: MultiPoly, q: MultiPoly, *, ideal: IdealDescription):
    """Sample |q/p| near the origin against `ideal`, which is
    `numerator_ideal(p, ...)`: sup estimate plus a divergence flag.

    Samples (a) real slices z = -Re H(x) +- delta and (b) interior points
    x + iv with a positive imaginary z-offset, both drawn with a fixed seed,
    plus deterministic probes on the extremal curves of the ideal; the flag
    trips when per-level maxima grow monotonically across the 3 levels
    (each halves the box radius, from 1/8, and the slice offsets shrink
    like radius^2).

    The probes and |p| at them do not depend on q
    (`oracle._probe_levels`), so the last call's table is reused by a call
    with the same p and ideal objects (`is`); only q is evaluated per call.
    A build that raises keeps no table.  The result is the same, float for
    float, whether the table is reused or built afresh.  A non-finite or
    overflowing sample of H, p or q raises PreconditionError, the input
    being out of the oracle's scope; since p is sampled ahead of q, one at
    a later probe of p can surface before one in q.  The sampler lives in
    `oracle`, which this function loads on its first call.
    """
    from .oracle import sample

    return sample(p, q, ideal)
