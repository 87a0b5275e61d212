"""Exact positivity tests for real homogeneous bivariate forms.

Definiteness is decided by real-root counting (Sturm sequences) on the two
dehomogenizations, nonnegativity by parity of real-root multiplicities
(Yun squarefree decomposition).  A numeric comparability estimator for
nonnegative evaluators near the origin lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .poly import MultiPoly

# -- univariate polynomials as ascending Fraction coefficient lists --------


def _strip(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def p_degree(c) -> int:
    return len(c) - 1


def p_add(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    return _strip(out)


def p_scale(a, s: Fraction):
    if s == 0:
        return []
    return [v * s for v in a]


def p_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lb = b[-1]
    while len(a) >= len(b) and a:
        k = len(a) - len(b)
        f = a[-1] / lb
        q[k] = f
        for i, v in enumerate(b):
            a[k + i] -= f * v
        _strip(a)
    return _strip(q), a


def p_derivative(a):
    return _strip([k * v for k, v in enumerate(a)][1:])


def p_monic(a):
    if not a:
        return a
    lc = a[-1]
    return [v / lc for v in a]


def p_gcd(a, b):
    a, b = list(a), list(b)
    while b:
        _, r = p_divmod(a, b)
        a, b = b, r
    return p_monic(a)


def p_div_exact(a, b):
    q, r = p_divmod(a, b)
    if r:
        raise ArithmeticError("division was not exact")
    return q


def sturm_chain(p):
    chain = [list(p), p_derivative(p)]
    while chain[-1]:
        _, r = p_divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-v for v in r])
    return [c for c in chain if c]


def _variations(signs):
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev != 0 and s != prev:
            v += 1
        prev = s
    return v


def count_real_roots(p) -> int:
    """Number of distinct real roots of p (Fraction coefficients)."""
    p = _strip(list(p))
    if not p or len(p) == 1:
        return 0
    chain = sturm_chain(p)

    def sign_at_inf(c, positive: bool) -> int:
        lc = c[-1]
        s = 1 if lc > 0 else -1
        if not positive and (len(c) - 1) % 2 == 1:
            s = -s
        return s

    high = _variations([sign_at_inf(c, True) for c in chain])
    low = _variations([sign_at_inf(c, False) for c in chain])
    return low - high


def yun_squarefree(p):
    """Yun decomposition: list of (squarefree factor, multiplicity)."""
    p = _strip(list(p))
    if not p or len(p) == 1:
        return []
    dp = p_derivative(p)
    a = p_gcd(p, dp)
    b = p_div_exact(p, a)
    c = p_div_exact(dp, a)
    d = p_add(c, p_scale(p_derivative(b), Fraction(-1)))
    out = []
    k = 1
    while p_degree(b) > 0:
        f = p_gcd(b, d)
        if p_degree(f) > 0:
            out.append((f, k))
        b = p_div_exact(b, f)
        c = p_div_exact(d, f)
        d = p_add(c, p_scale(p_derivative(b), Fraction(-1)))
        k += 1
    return out


def poly_nonneg_on_reals(p) -> bool:
    """Exact decision of p(t) >= 0 for all real t."""
    p = _strip(list(p))
    if not p:
        return True
    if p[-1] < 0:
        return False
    if (len(p) - 1) % 2 == 1:
        return False
    for factor, mult in yun_squarefree(p):
        if mult % 2 == 1 and count_real_roots(factor) > 0:
            return False
    return True


# -- homogeneous bivariate forms -------------------------------------------


@dataclass(frozen=True)
class HomogeneousForm:
    """Real form of one degree; coeffs[k] multiplies x^k * y^(degree-k)."""

    degree: int
    coeffs: tuple

    @classmethod
    def from_poly(cls, p: MultiPoly) -> "HomogeneousForm":
        if len(p.vars) != 2:
            raise PreconditionError("homogeneous form must be bivariate")
        if not p.is_real():
            raise PreconditionError("homogeneous form must have real coefficients")
        deg = p.degree()
        if deg < 0:
            raise PreconditionError("zero form")
        coeffs = [Fraction(0)] * (deg + 1)
        for (a, b), c in p.terms.items():
            if a + b != deg:
                raise PreconditionError("polynomial is not homogeneous")
            coeffs[a] = c.re
        return cls(deg, tuple(coeffs))

    def dehomogenized(self):
        """f(1, t) as an ascending coefficient list in t."""
        n = self.degree
        out = [Fraction(0)] * (n + 1)
        for k, c in enumerate(self.coeffs):
            out[n - k] += c
        return _strip(out)

    def eval_float(self, x: float, y: float) -> float:
        total = 0.0
        n = self.degree
        for k, c in enumerate(self.coeffs):
            if c:
                total += float(c) * x**k * y ** (n - k)
        return total

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def is_positive_definite(f: HomogeneousForm) -> bool:
    """True iff f > 0 on the unit circle; exact."""
    if f.is_zero():
        raise PreconditionError("zero form has no definiteness")
    if f.degree % 2 == 1:
        return False
    if f.degree == 0:
        return f.coeffs[0] > 0
    if f.coeffs[0] <= 0 or f.coeffs[-1] <= 0:
        # f(0,1) and f(1,0) must both be positive
        return False
    return count_real_roots(f.dehomogenized()) == 0


def is_nonnegative(f: HomogeneousForm) -> bool:
    """True iff f >= 0 on R^2; exact via root-multiplicity parity."""
    if f.is_zero():
        return True
    if f.degree % 2 == 1:
        return False
    if f.coeffs[0] < 0 or f.coeffs[-1] < 0:
        return False
    return poly_nonneg_on_reals(f.dehomogenized())


# -- numeric comparability --------------------------------------------------

#: relative spread beyond which two evaluators are declared incomparable
SPREAD_LIMIT = 1e12


@dataclass
class ComparabilityResult:
    radii: list
    intervals: list  # per-radius (min, max) of g/f
    fail: bool
    reason: str | None

    @property
    def overall(self):
        lo = min(i[0] for i in self.intervals)
        hi = max(i[1] for i in self.intervals)
        return (lo, hi)

    @property
    def width(self) -> float:
        lo, hi = self.overall
        return hi - lo


def comparability_ratio(f, g, radii, n_angles: int = 256) -> ComparabilityResult:
    """Interval estimate of g/f over sampled annuli |x| = radius.

    f and g are real-valued evaluators on R^2, nonnegative near 0.  A sample
    with f = 0 but g != 0 raises (evidence the zero of f is not isolated);
    samples with both zero are skipped.  FAIL is flagged when the per-radius
    ratio interval drifts monotonically by a factor >= 2 across three
    consecutive dyadic radii, or the spread exceeds SPREAD_LIMIT.
    """
    radii = list(radii)
    angles = [2 * math.pi * k / n_angles for k in range(n_angles)]
    cos = [math.cos(a) for a in angles]
    sin = [math.sin(a) for a in angles]
    intervals = []
    for r in radii:
        lo = math.inf
        hi = -math.inf
        for c, s in zip(cos, sin):
            x, y = r * c, r * s
            fv = f(x, y)
            gv = g(x, y)
            if fv == 0.0:
                if gv == 0.0:
                    continue
                raise PreconditionError(
                    f"f vanishes at ({x}, {y}) where g does not: zero not isolated"
                )
            ratio = gv / fv
            lo = min(lo, ratio)
            hi = max(hi, ratio)
        if lo is math.inf:
            raise PreconditionError(f"f and g vanish on the whole annulus r={r}")
        intervals.append((lo, hi))

    fail = False
    reason = None

    def _spread(iv):
        lo, hi = iv
        if lo <= 0:
            return math.inf
        return hi / lo

    if any(_spread(iv) > SPREAD_LIMIT for iv in intervals):
        fail, reason = True, "ratio spread exceeds limit"
    else:
        # monotone drift over three consecutive dyadic radius levels
        for k in range(len(intervals) - 2):
            s0, s1, s2 = (_spread(intervals[k + j]) for j in range(3))
            if s1 >= 2 * s0 and s2 >= 2 * s1:
                fail, reason = True, "ratio spread doubles across three radii"
                break
            m0, m1, m2 = (intervals[k + j][1] for j in range(3))
            if m1 >= 2 * m0 and m2 >= 2 * m1:
                fail, reason = True, "ratio maximum doubles across three radii"
                break
            l0, l1, l2 = (intervals[k + j][0] for j in range(3))
            if 0 < l1 <= l0 / 2 and 0 < l2 <= l1 / 2:
                fail, reason = True, "ratio minimum halves across three radii"
                break
            if l0 > 0 and (l1 <= 0 or l2 <= 0):
                fail, reason = True, "ratio changes sign as radius shrinks"
                break
    return ComparabilityResult(radii, intervals, fail, reason)


def sampled_circle_min(f: HomogeneousForm, n_points: int = 10_000) -> float:
    """Brute-force minimum of a form over a dense circle grid (float oracle)."""
    best = math.inf
    for k in range(n_points):
        a = 2 * math.pi * k / n_points
        best = min(best, f.eval_float(math.cos(a), math.sin(a)))
    return best


def sampled_sphere_nonneg(p: MultiPoly, n_points: int, seed: int = 0):
    """Sampled nonnegativity of a real polynomial on unit directions in d vars.

    Returns (ok, witness_direction, sampled_min): the first direction where
    p is negative (None when there is none) and the minimum over all
    samples.  Used for d > 2 where no exact test is implemented.
    """
    import random

    rng = random.Random(seed)
    d = len(p.vars)
    witness = None
    best = math.inf
    for _ in range(n_points):
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
