"""Exact signs and real roots of real univariate polynomials and forms.

numideal has two representations of a univariate polynomial.  Over Q(i)
it is a one-variable `MultiPoly`: `puiseux` finds roots with `eval_exact`
and `resultant.divide_exact`, and the engine takes a gcd with
`resultant.primitive_gcd`.  A real-root question here takes an ascending
coefficient list with rational entries and makes it a primitive integer
list at once.  The list stays apart from `MultiPoly` on purpose: the Sturm
chain runs on every two-variable `classify`, where dict rows would be
slower.  Nothing here factors integers: `rational_prime_factors` lives in
`puiseux`, its one caller, since every command line start loads this
module.
Every real-root question reads one integer chain, `sturm_chain`: the
signed remainder sequence of c and c' computed over Z by pseudo-division
(Basu, Pollack & Roy, Algorithms in Real Algebraic Geometry, ch. 2).  It
counts the distinct real roots, isolates them by bisection, and its last
member gcd(c, c') carries exactly the repeated roots.
A real binary form is such a list c, c[k] multiplying x^k y^(n-k), which is
also f(t, 1) in powers of t; `binary_form` reads it from the integer
numerators of the rows.  is_positive_definite counts its real roots,
is_nonnegative looks for a point where c(t) < 0 between them.
The sign of a quadratic form in any number of variables is decided by
fraction-free LDL^T over Z (Bareiss) of its integer Gram matrix.  The
numeric sampler of signs on the sphere lives here too; it serves forms of
degree >= 4 in three or more variables only.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError
from .poly import MultiPoly

# -- the integer Sturm chain -------------------------------------------------


def p_strip(c):
    """c with its top zeros removed, in place."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive(c):
    """The nonzero list c with rational entries as a primitive integer list,
    top zeros stripped: c times a positive rational."""
    c = p_strip(list(c))
    den = math.lcm(*(v.denominator for v in c))
    c = [v.numerator * (den // v.denominator) for v in c]
    g = math.gcd(*c)
    return [v // g for v in c]


def _pseudo_divmod(a, b):
    """(q, r) with |lc(b)|^k a = q b + r and deg r < deg b, for integer
    lists: each step of the long division first multiplies by |lc(b)|, so
    q and r are positive multiples of the quotient and the remainder."""
    lb, sb = abs(b[-1]), (b[-1] > 0) - (b[-1] < 0)
    q, r = [0] * max(0, len(a) - len(b) + 1), list(a)
    while len(r) >= len(b):
        f, k = sb * r[-1], len(r) - len(b)
        q, r = [lb * v for v in q], [lb * v for v in r]
        q[k] = f
        for i, v in enumerate(b):
            r[k + i] -= f * v
        p_strip(r)
    return q, r


def sturm_chain(c):
    """The Sturm chain of c, a nonzero list with rational entries, as
    primitive integer lists.

    Each member is a positive multiple of the classical one: c, c', then
    minus the remainder of the two before it until that is zero.  The last
    member is gcd(c, c'), and c itself when c is constant.
    """
    chain = [_primitive(c)]
    # the top entry of c' is n c[n], nonzero
    nxt = [k * v for k, v in enumerate(chain[0])][1:]
    while nxt:
        chain.append(_primitive(nxt))
        nxt = [-v for v in _pseudo_divmod(chain[-2], chain[-1])[1]]
    return chain


def _sign_at(q, t):
    """The sign of q(t) for an integer list q and a rational t = n/d: that of
    d^m q(n/d), taken in integers by Horner's scheme."""
    n, d = t.numerator, t.denominator
    acc, power = q[-1], 1
    for c in q[-2::-1]:
        power *= d
        acc = acc * n + c * power
    return (acc > 0) - (acc < 0)


def _variations(values) -> int:
    """Sign changes along values, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def count_real_roots(c) -> int:
    """Number of distinct real roots of c (rational entries)."""
    if not any(c):
        return 0
    chain = sturm_chain(c)
    low = _variations([q[-1] if len(q) % 2 else -q[-1] for q in chain])
    return low - _variations([q[-1] for q in chain])


# -- rational roots --------------------------------------------------------


def rational_roots(c) -> list:
    """The distinct rational roots of c, a nonzero list with rational
    entries, ascending.

    Degree 1 by formula.  Otherwise, with A the leading coefficient of the
    squarefree part s = c / gcd(c, c') made primitive, every rational root
    r has A r in Z (the rational-root theorem), so `_isolating_cuts` splits
    the real roots into pieces narrower than 1/|A|, and the one candidate
    m/A in each piece that holds a root is tested exactly; nothing is
    factored.
    """
    c = p_strip(list(c))
    if not c:
        raise PreconditionError("the zero polynomial has every number as a root")
    k0 = next(k for k, v in enumerate(c) if v != 0)
    roots = {Fraction(0)} if k0 else set()
    c = c[k0:]
    if len(c) == 2:
        roots.add(-Fraction(c[0]) / c[1])
    elif len(c) > 2:
        chain = sturm_chain(c)
        A = abs(chain[0][-1] // chain[-1][-1])
        for lo, hi in _isolating_cuts(chain, Fraction(1, A))[1]:
            r = Fraction(math.floor(hi * A), A)
            if lo < r and _sign_at(chain[0], r) == 0:
                roots.add(r)
    return sorted(roots)


def _isolating_cuts(chain, width=None):
    """(cuts, held) for the Sturm chain of c: the sorted cuts that split
    (-B, B), B past the Cauchy bound of the squarefree part s, a multiple of
    c / gcd(c, c'), in halves until each piece holds at most one real root
    and, with width, each piece that holds one is narrower than width; held
    is the set of pieces (lo, hi) that hold one.  No cut is a root or 0, so
    the gcd does not vanish there and the chain of c counts the roots of s.
    Each cut is evaluated once."""
    variations = {}

    def count(t):
        if t not in variations:
            variations[t] = _variations([_sign_at(q, t) for q in chain])
        return variations[t]

    s = _pseudo_divmod(chain[0], chain[-1])[0]
    B = 2 + max((Fraction(abs(v), abs(s[-1])) for v in s[:-1]), default=0)
    cuts, held = [-B, B], set()
    pieces = [(-B, B)]
    while pieces:
        lo, hi = pieces.pop()
        n = count(lo) - count(hi)
        if n == 0 or n == 1 and (width is None or hi - lo < width):
            if n:
                held.add((lo, hi))
            continue
        mid = (lo + hi) / 2
        while mid == 0 or _sign_at(chain[0], mid) == 0:
            mid = (lo + mid) / 2
        cuts.append(mid)
        pieces += [(lo, mid), (mid, hi)]
    return sorted(cuts), held


# -- binary forms ------------------------------------------------------------


def binary_form(p: MultiPoly) -> list:
    """The integer coefficient list c of a nonzero real binary form p(x, y),
    read from its rows: c[k], the numerator over p.den > 0, multiplies
    x^k * y^(n-k), so c is also p.den * p(t, 1) in powers of t, a positive
    multiple of p with its signs and roots."""
    if len(p.vars) != 2:
        raise PreconditionError("homogeneous form must be bivariate")
    if not p.is_real():
        raise PreconditionError("homogeneous form must have real coefficients")
    deg = p.degree()
    if deg < 0:
        raise PreconditionError("zero form")
    coeffs = [0] * (deg + 1)
    for (a, b), (c, _) in p.rows.items():
        if a + b != deg:
            raise PreconditionError("polynomial is not homogeneous")
        coeffs[a] = c
    return coeffs


def is_positive_definite(c) -> bool:
    """Whether the real binary form with coefficient list c is positive off
    the origin; exact.

    Both end coefficients are positive, so the form does not vanish at
    (1, 0) or (0, 1), and c(t) has no real root.  The list is read
    unstripped: a form vanishing at (1, 0) is not positive.
    """
    return c[0] > 0 and c[-1] > 0 and count_real_roots(c) == 0


def is_nonnegative(c) -> bool:
    """Whether the real binary form with coefficient list c is >= 0 on R^2;
    exact.  The zero form is; otherwise its degree is even and c(t) has no
    negative point, so the form is >= 0 off y = 0 and, by continuity, on
    it."""
    return not any(c) or (len(c) - 1) % 2 == 0 and negative_point(c) is None


def negative_point(c):
    """A nonzero rational t with c(t) < 0, or None when c >= 0 on R; c has
    rational entries.  Exact.

    c keeps its sign between consecutive real roots, so one point in each
    gap decides: the cuts of `_isolating_cuts`, between which lies at most
    one root.
    """
    if not any(c):
        return None
    chain = sturm_chain(c)
    cuts, _ = _isolating_cuts(chain)
    return next((t for t in cuts if _sign_at(chain[0], t) < 0), None)


# -- quadratic forms in any number of variables -----------------------------


def quadratic_form_sign(q: MultiPoly):
    """Exact sign of a real quadratic form on R^d: (witness, definite).

    witness is a rational direction v with q(v) < 0, or None when q >= 0;
    definite is True iff q > 0 off the origin.  Fraction-free LDL^T over Z
    (Bareiss, Math. Comp. 22, 1968) of the Gram matrix with symmetric
    pivoting (Golub & Van Loan, Matrix Computations, 4.2): a negative
    diagonal entry of the current Schur complement, or a nonzero
    off-diagonal entry once its diagonal is zero, is a negative direction
    there, lifted back through the eliminations.  Otherwise q is
    semidefinite, and definite iff all d pivots are positive (Sylvester's
    law of inertia).  After s steps each integer entry is the Schur
    complement's over Q times the last pivot, the product of the s pivots
    over Q, which is positive: the pivot choices, the verdict and the
    witness are those of LDL^T over Q.
    """
    if not q.is_real():
        raise PreconditionError("quadratic form must have real coefficients")
    d = len(q.vars)
    # the Gram matrix of 2 den q: a positive multiple, with the same pivot
    # choices, verdict and lifted witness
    gram = [[0] * d for _ in range(d)]
    for exps, (a, _) in q.rows.items():
        idx = [j for j, k in enumerate(exps) for _ in range(k)]
        if len(idx) != 2:
            raise PreconditionError("polynomial is not a quadratic form")
        i, j = idx
        if i == j:
            gram[i][i] = 2 * a
        else:
            gram[i][j] = gram[j][i] = a
    steps, negative = _bareiss_ldlt(gram)
    if negative is None:
        return None, len(steps) == d
    # v_k = -(row . v) / pivot minimizes over v_k, so q(v) = Schur value < 0;
    # v is kept as integers over one denominator
    den = 1
    for k, row, pivot in reversed(steps):
        dot = sum(a * negative.get(j, 0) for j, a in row.items())
        negative = {j: pivot * v for j, v in negative.items()}
        negative[k] = -dot
        den *= pivot
    return tuple(Fraction(negative.get(j, 0), den) for j in range(d)), False


def _bareiss_ldlt(gram):
    """(steps, negative) of the symmetric integer matrix gram, eliminated in
    place: steps lists (pivot index, its row of nonzero entries, pivot) in
    order, and negative, a direction {index: 1 or -1} on which the last
    matrix is negative, or None when there is none.  Each update
    (pivot g_ij - g_ik g_kj) // prev, prev the pivot before, divides
    exactly (Sylvester's identity)."""
    rest = list(range(len(gram)))
    steps = []
    prev = 1
    while rest:
        k = min(rest, key=lambda j: gram[j][j])
        if gram[k][k] < 0:
            return steps, {k: 1}
        k = max(rest, key=lambda j: gram[j][j])
        pivot = gram[k][k]
        if pivot == 0:
            # zero diagonal: e_i - sign(a_ij) e_j has value -2|a_ij|
            pair = next(((i, j) for i in rest for j in rest if gram[i][j] != 0), None)
            if pair is None:
                return steps, None
            i, j = pair
            return steps, {i: 1, j: -1 if gram[i][j] > 0 else 1}
        rest.remove(k)
        gk = gram[k]
        steps.append((k, {j: gk[j] for j in rest if gk[j] != 0}, pivot))
        for i in rest:
            gi, a = gram[i], gram[i][k]
            for j in rest:
                gi[j] = (pivot * gi[j] - a * gk[j]) // prev
        prev = pivot
    return steps, None


_SPHERE_SAMPLES = 10_000
_SPHERE_SEED = 0


def sampled_sphere_nonneg(p: MultiPoly):
    """Sampled nonnegativity of a real polynomial on _SPHERE_SAMPLES unit
    directions in d vars, drawn with the fixed seed _SPHERE_SEED.

    Returns (ok, witness_direction, sampled_min): the first direction where
    p is negative (None when there is none) and the minimum over all
    samples.  Used only for forms of degree >= 4 in d > 2 variables, where
    no exact test is implemented; quadratic forms go to quadratic_form_sign.
    """
    import random

    rng = random.Random(_SPHERE_SEED)
    d = len(p.vars)
    witness = None
    best = math.inf
    for _ in range(_SPHERE_SAMPLES):
        v = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(sum(t * t for t in v))
        if norm == 0.0:
            continue
        v = [t / norm for t in v]
        val = p.eval_complex(v).real
        if val < 0.0 and witness is None:
            witness = tuple(v)
        best = min(best, val)
    return witness is None, witness, best
