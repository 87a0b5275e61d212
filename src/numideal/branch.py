"""Solve p(x, -phi(x)) = 0 for the branch phi and classify its imaginary part.

The zero set of a stable polynomial with a smooth zero at the origin is
parametrized by z + phi(x) = 0; phi is computed degree by degree with
undetermined coefficients, using the nonzero z-derivative at 0 as the pivot.
`branch_series` keeps that solve's state, so that a solve which stopped at
one degree can continue to a higher one.  solve_branch checks the degree-1
conditions of stability, which every solve holds exactly, and classify
reads only Im phi_2L, so no check here depends on the truncation order.
"""

from __future__ import annotations

from .errors import PreconditionError, SanityViolation
from .forms import (
    binary_form,
    is_nonnegative,
    is_positive_definite,
    quadratic_form_sign,
    sampled_sphere_nonneg,
)
from .poly import MultiPoly, TruncatedSeries, implicit_series
from .record import Record


class BranchSolution(Record):
    """phi with p(x, -phi(x)) = 0 through phi.order; grad0 holds the
    degree-1 coefficients of phi, one per x-variable."""

    __slots__ = ("phi", "grad0")


class PhiClassification(Record):
    """The first non-real homogeneous term Im phi_2L of phi, if any, and its
    sign; definite_exact is False only where that sign was sampled
    (2L >= 4, d >= 3).  L, the MultiPoly im_part_2L and definite are None
    where phi is real through its order."""

    __slots__ = ("L", "im_part_2L", "definite", "definite_exact")
    _defaults = {"im_part_2L": None, "definite": None, "definite_exact": True}


def solve_branch(p: MultiPoly, order: int) -> BranchSolution:
    """Compute phi with p(x, -phi(x)) vanishing through total degree `order`:
    the first solution of `branch_series`.

    Requires p(0) = 0 and dp/dz(0) != 0 (z is the last variable of p).
    Checks what stability forces on the degree-1 part of phi, which every
    solve holds exactly: grad phi(0) = p_x(0) / p_z(0) is real and
    componentwise nonnegative, and phi vanishes on the coordinate subspace
    of the zero gradient components.  By the implicit function theorem the
    latter holds exactly when p has no z-free term in those variables
    alone, so neither check depends on the order.  A failure raises
    SanityViolation with a witness.
    """
    return next(branch_series(p, order))


def branch_series(p: MultiPoly, order: int, stop_at_imaginary: bool = False):
    """The solutions of one resumable solve of phi, a generator.

    It first yields phi through `order`, with the checks of `solve_branch`.
    With stop_at_imaginary, phi is solved and its residual checked only
    through its first non-real degree m <= order, and phi.order is m; a phi
    real through the order is solved in full.  Sent a degree n past the
    one it stopped at, at any height, it continues phi through n
    (`implicit_series`) and yields it, its residual checked through n.  The
    degree-1 checks do not run again: a continuation keeps every degree
    already solved.  `numerator_ideal` solves so, and continues the one
    solve through ord Res_z(p, p̄) and through K where it reads further.
    """
    if len(p.vars) < 2:
        raise PreconditionError("need at least one x-variable plus z")
    if order < 1:
        raise PreconditionError("order must be at least 1")
    n = len(p.vars)
    zero = (0,) * n
    if not p.coefficient(zero).is_zero():
        raise PreconditionError("p(0) != 0: no zero at the origin")
    if p.coefficient((0,) * (n - 1) + (1,)).is_zero():
        raise PreconditionError("dp/dz(0) = 0: zero is not smooth in z")

    # q(x, z) = p(x, -z), so that q(x, phi(x)) = 0 gives phi itself
    rows = {e: (-a, -b) if e[-1] % 2 else (a, b) for e, (a, b) in p.rows.items()}
    q = MultiPoly._from_rows(p.vars, p.den, rows)
    roots = implicit_series(q.slices(q.vars[-1]), order, stop_at_imaginary)
    phi = next(roots)
    if stop_at_imaginary and not phi.is_real():
        order = phi.degree()  # the solve stopped at its first non-real degree

    x_vars = p.vars[:-1]
    grad0 = tuple(
        phi.coefficient(tuple(1 if j == i else 0 for j in range(n - 1)))
        for i in range(n - 1)
    )
    for name, g in zip(x_vars, grad0):
        if not g.is_real():
            raise SanityViolation(
                f"gradient component {name} is not real", witness=(name, g)
            )
        if g.re < 0:
            raise SanityViolation(
                f"gradient component {name} is negative", witness=(name, g)
            )
    # z = 0 solves p on the zero-gradient subspace unless p has a z-free
    # term in those variables alone
    flat = {i for i, g in enumerate(grad0) if g.is_zero()}
    if flat:
        for exps in p.rows:
            if exps[-1] == 0 and all(i in flat for i, k in enumerate(exps[:-1]) if k):
                raise SanityViolation(
                    "phi does not vanish on the zero-gradient subspace",
                    witness=(
                        tuple(x_vars[i] for i in sorted(flat)),
                        exps,
                        p.coefficient(exps),
                    ),
                )

    while True:
        low = q.subs({q.vars[-1]: phi}, order).min_degree()  # the residual
        if low is not None:
            raise AssertionError(f"solver fixed point failed: residual has degree {low}")
        # implicit_series keeps no term above the order
        order = yield BranchSolution(TruncatedSeries._within(phi, order), grad0)
        phi = roots.send(order)


def classify(sol: BranchSolution):
    """Identify the first non-real homogeneous term of phi, with sanity checks.

    Checks required of any branch coming from a stable polynomial beyond
    those of `solve_branch`: the first non-real homogeneous index is even
    and its imaginary part is nonnegative on real directions.  Any failure
    raises SanityViolation with a witness.

    Nonnegativity and definiteness of Im phi_2L are exact in one variable
    (sign test), in two (the Sturm chain of the binary form: its real
    roots, and only for a form that is not definite its sign between them)
    and for 2L = 2 in any number (fraction-free LDL^T over Z (Bareiss) of
    the Gram matrix, with a rational negative direction as witness).  Only
    2L >= 4 in three or more x-variables samples unit directions, with a
    fixed seed (`sampled_sphere_nonneg`); the result then has
    definite_exact False.
    """
    phi = sol.phi
    d = len(phi.poly.vars)

    # one pass over the non-real rows: the least degree of one, and the
    # imaginary parts of that degree
    first_imag, im_rows = None, {}
    for e, (_, b) in phi.poly.rows.items():
        if b:
            k = sum(e)
            if first_imag is None or k < first_imag:
                first_imag, im_rows = k, {}
            if k == first_imag:
                im_rows[e] = (b, 0)
    if first_imag is None:
        return PhiClassification(None)
    if first_imag % 2 == 1:
        raise SanityViolation(
            f"first non-real homogeneous index {first_imag} is odd",
            witness=phi.poly.homogeneous_part(first_imag),
        )

    im_part = MultiPoly._lowest_terms(phi.poly.vars, phi.poly.den, im_rows)
    definite_exact = True
    if d == 1:
        [(c, _)] = im_part.rows.values()
        if c < 0:
            raise SanityViolation(
                "imaginary part is negative on the real line", witness=im_part
            )
        nonneg, definite = True, c > 0
    elif d == 2:
        c = binary_form(im_part)
        definite = is_positive_definite(c)
        nonneg = definite or is_nonnegative(c)
    elif first_imag == 2:
        witness, definite = quadratic_form_sign(im_part)
        if witness is not None:
            raise SanityViolation(
                "imaginary part is negative on a real direction", witness=witness
            )
        nonneg = True
    else:
        nonneg, witness, sampled_min = sampled_sphere_nonneg(im_part)
        if not nonneg:
            raise SanityViolation(
                "imaginary part sampled negative on a real direction",
                witness=witness,
            )
        # sampled min > 0 is the best available definiteness verdict here
        definite, definite_exact = sampled_min > 0.0, False
    if not nonneg:
        raise SanityViolation(
            "imaginary part is not nonnegative on real directions",
            witness=im_part,
        )

    return PhiClassification(first_imag // 2, im_part, definite, definite_exact)

