"""Univariate algebra over Q and Q(i), and exact positivity of binary forms.

A univariate polynomial is an ascending coefficient list whose entries are
all Fraction or all GaussianRational.  The p_* helpers and Yun squarefree
decomposition work on either; Sturm real-root counting needs Fraction
entries.  qi_roots finds the roots in Q(i) of a polynomial over Q(i).
Definiteness of a real homogeneous bivariate form is decided by real-root
counting on its dehomogenization, nonnegativity by the parity of real-root
multiplicities.  Numeric samplers for comparability near the origin and for
signs on the sphere in d > 2 variables live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError
from .gaussian import ONE, GaussianRational, gaussian_sqrt
from .poly import MultiPoly

# -- univariate polynomials: ascending coefficient lists over Q or Q(i) ----
# A zero the helpers create takes the type of the divisor's leading
# coefficient.


def _strip(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def p_sub(a, b):
    """a - b."""
    out = list(a) + [-v for v in b[len(a):]]
    for i, v in enumerate(b[: len(a)]):
        out[i] -= v
    return _strip(out)


def p_eval(c, x):
    """c(x) by Horner's scheme; c must be nonzero."""
    acc = c[-1]
    for a in c[-2::-1]:
        acc = acc * x + a
    return acc


def p_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    lb = b[-1]
    q = [lb * 0] * max(0, len(a) - len(b) + 1)
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


def p_gcd(a, b):
    """Monic gcd; [] when both are zero."""
    while b:
        a, b = b, p_divmod(a, b)[1]
    return [v / a[-1] for v in a] if a else []


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
    d = p_sub(c, p_derivative(b))
    out = []
    k = 1
    while len(b) > 1:
        f = p_gcd(b, d)
        if len(f) > 1:
            out.append((f, k))
        b = p_div_exact(b, f)
        c = p_div_exact(d, f)
        d = p_sub(c, p_derivative(b))
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


# -- exact root finding over Q(i) -------------------------------------------


def _gauss_int_divmod(a, b):
    """Rounded division in Z[i]: a = q*b + r with small remainder."""
    # a, b are (int, int) pairs
    ar, ai = a
    br, bi = b
    n = br * br + bi * bi
    qr_num = ar * br + ai * bi
    qi_num = ai * br - ar * bi
    qr = (2 * qr_num + n) // (2 * n)
    qi = (2 * qi_num + n) // (2 * n)
    rr = ar - (qr * br - qi * bi)
    ri = ai - (qr * bi + qi * br)
    return (qr, qi), (rr, ri)


def _gauss_int_gcd(a, b):
    while b != (0, 0):
        _, r = _gauss_int_divmod(a, b)
        a, b = b, r
    return a


def _sqrt_minus_one_mod(p: int) -> int:
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) == p - 1:
            return pow(n, (p - 1) // 4, p)
    raise ArithmeticError(f"no sqrt(-1) mod {p}")


def _rational_prime_factors(n: int) -> list:
    """Prime factors of n >= 1 with repetition, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            primes.append(p)
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def _gaussian_prime_factors(g):
    """Gaussian prime factorization of g in Z[i], as a list (prime, power)."""
    gr, gi = g
    if gr == 0 and gi == 0:
        raise ValueError("cannot factor zero")
    # norm(g) = content^2 * norm(g / content): trial division runs up to the
    # square roots of the two factors, not of the whole norm
    content = math.gcd(gr, gi)
    content_primes = _rational_prime_factors(content)
    rational = content_primes + content_primes + _rational_prime_factors(
        (gr // content) ** 2 + (gi // content) ** 2
    )
    factors = []
    current = g
    for p in sorted(set(rational)):
        count = rational.count(p)
        if p == 2:
            pi = (1, 1)
        elif p % 4 == 3:
            pi = (p, 0)
            count //= 2  # norm p^2 per prime factor
        else:
            t = _sqrt_minus_one_mod(p)
            pi = _gauss_int_gcd((p, 0), (t, 1))
        for _ in range(count):
            q, r = _gauss_int_divmod(current, pi)
            if r == (0, 0):
                factors.append(pi)
                current = q
            else:
                # conjugate prime divides instead
                pic = (pi[0], -pi[1])
                q, r = _gauss_int_divmod(current, pic)
                if r != (0, 0):
                    break
                factors.append(pic)
                current = q
    merged = []
    for pi in factors:
        for k, (prime, c) in enumerate(merged):
            if prime == pi:
                merged[k] = (pi, c + 1)
                break
        else:
            merged.append((pi, 1))
    return merged


def _gaussian_divisors(g):
    """All divisors of g in Z[i] up to units, times the four units."""
    factors = _gaussian_prime_factors(g)
    divisors = [(1, 0)]
    for pi, power in factors:
        new = []
        for d in divisors:
            cur = d
            for _ in range(power + 1):
                new.append(cur)
                cur = (cur[0] * pi[0] - cur[1] * pi[1], cur[0] * pi[1] + cur[1] * pi[0])
        divisors = new
    seen = set()
    out = []
    for d in divisors:
        for u in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            v = (d[0] * u[0] - d[1] * u[1], d[0] * u[1] + d[1] * u[0])
            if v not in seen:
                seen.add(v)
                out.append(v)
    return out


def _qi_root(c):
    """One root in Q(i) of c (degree >= 1, nonzero constant term), or None.

    Degree 1 and 2 by formula: a quadratic has a root in Q(i) exactly when
    its discriminant is a square there.  Higher degrees try the candidates
    p/q with p | constant and q | leading in Z[i], after clearing
    denominators; their number grows with the divisors of those two.
    """
    if len(c) == 2:
        return -c[0] / c[1]
    if len(c) == 3:
        a, b, cc = c[2], c[1], c[0]
        s = gaussian_sqrt(b * b - a * cc * 4)
        return None if s is None else (-b + s) / (a * 2)
    den = 1
    for a in c:
        den = math.lcm(den, a.re.denominator, a.im.denominator)
    ints = [(int(a.re * den), int(a.im * den)) for a in c]
    for pnum in _gaussian_divisors(ints[0]):
        for pden in _gaussian_divisors(ints[-1]):
            cand = GaussianRational(*pnum) / GaussianRational(*pden)
            if p_eval(c, cand).is_zero():
                return cand
    return None


def qi_roots(coeffs):
    """Roots in Q(i) of a Q(i)[T] polynomial, with multiplicities.

    Returns (roots, leftover) where roots is a list of (root, multiplicity)
    sorted by (Re, Im) and leftover is the non-split factor (possibly
    constant).
    """
    coeffs = _strip([GaussianRational.coerce(c) for c in coeffs])
    if len(coeffs) <= 1:
        return [], coeffs
    roots = []
    k0 = next(k for k, c in enumerate(coeffs) if not c.is_zero())
    if k0:
        roots.append((GaussianRational(0), k0))
        coeffs = coeffs[k0:]
    while len(coeffs) > 1:
        root = _qi_root(coeffs)
        if root is None:
            break
        factor = [-root, ONE]
        mult = 0
        while True:
            q, r = p_divmod(coeffs, factor)
            if r:
                break
            coeffs, mult = q, mult + 1
        roots.append((root, mult))
    roots.sort(key=lambda rm: (rm[0].re, rm[0].im))
    return roots, coeffs


def qi_nth_root(c: GaussianRational, r: int):
    """Exact r-th root of c in Q(i), or None; picks the principal root."""
    if r == 1:
        return c
    poly = [-c] + [GaussianRational(0)] * (r - 1) + [GaussianRational(1)]
    roots, _ = qi_roots(poly)
    if not roots:
        return None
    return min((rm[0] for rm in roots), key=lambda z: (-z.re, -z.im))


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
