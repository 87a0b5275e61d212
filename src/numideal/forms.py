"""Univariate algebra over Q and Q(i), and exact signs of real forms.

A univariate polynomial is an ascending coefficient list whose entries are
all Fraction or all GaussianRational.  The p_* helpers and Yun squarefree
decomposition work on either; Sturm real-root counting needs Fraction
entries.  qi_roots finds the roots in Q(i) of a polynomial over Q(i).
A real binary form is such a list c, c[k] multiplying x^k y^(n-k), which is
also f(t, 1) in powers of t: is_positive_definite counts its real roots
(Sturm), is_nonnegative checks the parity of their multiplicities (Yun).
The sign of a quadratic form in any number of variables is decided by
LDL^T of its Gram matrix over Q.  The numeric sampler of signs on the
sphere lives here too; it serves forms of degree >= 4 in three or more
variables only.
"""

from __future__ import annotations

import math
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
    """All divisors of g in Z[i], one per class of associates."""
    divisors = [(1, 0)]
    for pi, power in _gaussian_prime_factors(g):
        new = []
        for d in divisors:
            cur = d
            for _ in range(power + 1):
                new.append(cur)
                cur = (cur[0] * pi[0] - cur[1] * pi[1], cur[0] * pi[1] + cur[1] * pi[0])
        divisors = new
    return divisors


def _qi_root(c):
    """One root in Q(i) of c (degree >= 1, nonzero constant term), or None.

    Degree 1 and 2 by formula: a quadratic has a root in Q(i) exactly when
    its discriminant is a square there.  Higher degrees try the candidates
    p/q with p | constant and q | leading in Z[i], after clearing
    denominators, q up to units; their number grows with the divisors of
    those two.
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
    qs = [GaussianRational(*q) for q in _gaussian_divisors(ints[-1])]
    for re, im in _gaussian_divisors(ints[0]):
        # the four associates of p cover every unit of p/q
        for p in ((re, im), (-im, re), (-re, -im), (im, -re)):
            for q in qs:
                cand = GaussianRational(*p) / q
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


# -- binary forms ------------------------------------------------------------


def binary_form(p: MultiPoly) -> list:
    """The coefficient list c of a nonzero real binary form p(x, y):
    c[k] multiplies x^k * y^(n-k), so c is also p(t, 1) in powers of t."""
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
    exact.  The zero form is; otherwise its degree is even, c(t) has a
    positive leading coefficient and no Yun factor of odd multiplicity has
    a real root.  The root at (1, 0), trailing zeros of c, is then even."""
    p = _strip(list(c))
    if not p:
        return True
    if (len(c) - 1) % 2 == 1 or p[-1] < 0:
        return False
    return all(
        mult % 2 == 0 or count_real_roots(factor) == 0
        for factor, mult in yun_squarefree(p)
    )


# -- quadratic forms in any number of variables -----------------------------


def quadratic_form_sign(q: MultiPoly):
    """Exact sign of a real quadratic form on R^d: (witness, definite).

    witness is a rational direction v with q(v) < 0, or None when q >= 0;
    definite is True iff q > 0 off the origin.  LDL^T of the Gram matrix
    over Q with symmetric pivoting (Golub & Van Loan, Matrix Computations,
    4.2): a negative diagonal entry of the current Schur complement, or a
    nonzero off-diagonal entry once its diagonal is zero, is a negative
    direction there, lifted back through the eliminations.  Otherwise q is
    semidefinite, and definite iff all d pivots are positive (Sylvester's
    law of inertia).
    """
    if not q.is_real():
        raise PreconditionError("quadratic form must have real coefficients")
    d = len(q.vars)
    gram = [[Fraction(0)] * d for _ in range(d)]
    for exps, c in q.terms.items():
        idx = [j for j, k in enumerate(exps) for _ in range(k)]
        if len(idx) != 2:
            raise PreconditionError("polynomial is not a quadratic form")
        i, j = idx
        if i == j:
            gram[i][i] = c.re
        else:
            gram[i][j] = gram[j][i] = c.re / 2

    rest = list(range(d))
    steps = []  # (pivot index, its Schur-complement row, pivot)
    negative = None  # negative direction on the current Schur complement
    while rest:
        k = min(rest, key=lambda j: gram[j][j])
        if gram[k][k] < 0:
            negative = {k: Fraction(1)}
            break
        k = max(rest, key=lambda j: gram[j][j])
        pivot = gram[k][k]
        if pivot == 0:
            # zero diagonal: e_i - sign(a_ij) e_j has value -2|a_ij|
            pairs = [(i, j) for i in rest for j in rest if gram[i][j] != 0]
            if pairs:
                i, j = pairs[0]
                negative = {i: Fraction(1), j: Fraction(-1 if gram[i][j] > 0 else 1)}
            break
        rest.remove(k)
        row = {j: gram[k][j] for j in rest if gram[k][j] != 0}
        steps.append((k, row, pivot))
        for i, a in row.items():
            for j, b in row.items():
                gram[i][j] -= a * b / pivot

    if negative is None:
        return None, len(steps) == d
    # v_k = -(row . v) / pivot minimizes over v_k, so q(v) = Schur value < 0
    for k, row, pivot in reversed(steps):
        negative[k] = -sum(a * negative.get(j, 0) for j, a in row.items()) / pivot
    return tuple(negative.get(j, Fraction(0)) for j in range(d)), False


def sampled_sphere_nonneg(p: MultiPoly, n_points: int, seed: int = 0):
    """Sampled nonnegativity of a real polynomial on unit directions in d vars.

    Returns (ok, witness_direction, sampled_min): the first direction where
    p is negative (None when there is none) and the minimum over all
    samples.  Used only for forms of degree >= 4 in d > 2 variables, where
    no exact test is implemented; quadratic forms go to quadratic_form_sign.
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
