"""Newton-Puiseux factorization of bivariate series-polynomials.

Produces truncated fractional-power branches y = psi(mu^n x^(1/r)), and a
real polynomial g comparable to a positive series f near 0 together with
the exponent K of its lower bound f >= c|(x,y)|^K.  The contact order of a
two-variable stable polynomial is `construct.contact_order`, taken exactly
from the engine.

The engine no longer calls `comparable_polynomial`: it takes g exactly from
the resultant Res_z(p, p̄) (`resultant.conjugate_resultant`), with K read off the
Newton polygon, at no sampled positivity check.  `comparable_polynomial`,
`weierstrass_prepare`, `branch_factor_poly` and the helpers only they use
stay, with their tests, because `bench/tracer.py` wraps those three names;
they go with the next change to the benchmark.  `newton_puiseux` serves the
`puiseux` command.  Its characteristic roots, and their r-th roots, must
lie in Q(i): `qi_roots` finds them in a one-variable `MultiPoly`, trying
the Gaussian-integer divisors of its end rows with `eval_exact` and
dividing each root out with `divide_exact`, a search no other module runs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PreconditionError, TruncationError
from .forms import binary_form, is_positive_definite
from .gaussian import GaussianRational, I
from .poly import (
    MultiPoly,
    TruncatedSeries,
    implicit_root,
    newton_polygon,
    series_invert,
)
from .record import Record
from .resultant import divide_exact

# -- exact root finding over Q(i) -------------------------------------------


def rational_prime_factors(n: int) -> list:
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


def _rational_sqrt(q: Fraction):
    """Exact nonnegative square root of a rational, or None."""
    if q < 0:
        return None
    pn, pd = q.numerator, q.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def gaussian_sqrt(c: GaussianRational):
    """Exact square root in Q(i), or None when c is not a square there.

    (s + t*i)**2 = c with s >= 0 needs the norm n of c to be a rational
    square, s**2 = (re + n) / 2, and then t = im / (2 s); when s = 0, c is
    -n and t**2 = n.
    """
    n = _rational_sqrt(c.re * c.re + c.im * c.im)
    s = None if n is None else _rational_sqrt((c.re + n) / 2)
    if s is None:
        return None
    if s == 0:
        t = _rational_sqrt(n)
        return None if t is None else GaussianRational(0, t)
    return GaussianRational(s, c.im / (2 * s))


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


def _gaussian_prime_factors(g):
    """Gaussian prime factorization of g in Z[i], as a list (prime, power)."""
    gr, gi = g
    if gr == 0 and gi == 0:
        raise ValueError("cannot factor zero")
    # norm(g) = content^2 * norm(g / content): trial division runs up to the
    # square roots of the two factors, not of the whole norm
    content = math.gcd(gr, gi)
    content_primes = rational_prime_factors(content)
    rational = content_primes + content_primes + rational_prime_factors(
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


def _qi_root(c: MultiPoly):
    """One root in Q(i) of the one-variable c (degree >= 1, nonzero constant
    term), or None.

    Degree 1 and 2 by formula: a quadratic has a root in Q(i) exactly when
    its discriminant is a square there.  Higher degrees try the candidates
    p/q with p | constant and q | leading in Z[i], read from the rows over
    den, q up to units; their number grows with the divisors of those two.
    """
    n = c.degree()
    if n <= 2:
        c0, c1, c2 = (c.coefficient((k,)) for k in range(3))
        if n == 1:
            return -c0 / c1
        s = gaussian_sqrt(c1 * c1 - c2 * c0 * 4)
        return None if s is None else (-c1 + s) / (c2 * 2)
    qs = [GaussianRational(*q) for q in _gaussian_divisors(c.rows[(n,)])]
    for re, im in _gaussian_divisors(c.rows[(0,)]):
        # the four associates of p cover every unit of p/q
        for p in ((re, im), (-im, re), (-re, -im), (im, -re)):
            for q in qs:
                cand = GaussianRational(*p) / q
                if c.eval_exact((cand,)).is_zero():
                    return cand
    return None


def qi_roots(coeffs):
    """Roots in Q(i) of a Q(i)[T] polynomial, with multiplicities.

    coeffs is the ascending coefficient list.  Returns (roots, leftover)
    where roots is a list of (root, multiplicity) sorted by (Re, Im) and
    leftover is the non-split factor (possibly constant) as a list, top
    zeros stripped.  Each root is divided out of the one-variable
    `MultiPoly` by `divide_exact` while `eval_exact` vanishes there.
    """
    c = MultiPoly(("T",), {(k,): v for k, v in enumerate(coeffs)})
    roots = []
    k0 = min((e[0] for e in c.rows), default=0)
    if k0:
        roots.append((GaussianRational(0), k0))
        c = divide_exact(c, MultiPoly(("T",), {(k0,): 1}))
    while c.degree() > 0:
        root = _qi_root(c)
        if root is None:
            break
        factor = MultiPoly(("T",), {(0,): -root, (1,): 1})
        c, mult = divide_exact(c, factor), 1
        while c.eval_exact((root,)).is_zero():
            c, mult = divide_exact(c, factor), mult + 1
        roots.append((root, mult))
    roots.sort(key=lambda rm: (rm[0].re, rm[0].im))
    return roots, [c.coefficient((k,)) for k in range(c.degree() + 1)]


def qi_nth_root(c: GaussianRational, r: int):
    """Exact r-th root of c in Q(i), or None; picks the principal root."""
    if r == 1:
        return c
    poly = [-c] + [GaussianRational(0)] * (r - 1) + [GaussianRational(1)]
    roots, _ = qi_roots(poly)
    if not roots:
        return None
    return min((rm[0] for rm in roots), key=lambda z: (-z.re, -z.im))


# -- twisted realness: z * exp(2*pi*i*s) in R, decided exactly ---------------


def twisted_is_real(z: GaussianRational, s: Fraction) -> bool:
    """Whether z * exp(2*pi*i*s) is real (z in Q(i), s rational).

    By Niven's theorem a nonzero Gaussian rational times exp(i*alpha) with
    alpha a rational multiple of pi can only be real when alpha is a
    multiple of pi/4 away from the line through z; the four cases reduce to
    rational linear conditions on Re z, Im z.
    """
    if z.is_zero():
        return True
    s = s % Fraction(1, 2)  # modulo pi
    if s == 0:
        return z.im == 0
    if s == Fraction(1, 4):
        return z.re == 0
    if s == Fraction(1, 8):
        return z.re + z.im == 0
    if s == Fraction(3, 8):
        return z.re == z.im
    return False


def twisted_real_value(z: GaussianRational, s: Fraction):
    """Re(z * exp(2*pi*i*s)) when s is a multiple of 1/4 (else None).

    Fractional cases would need surd arithmetic; callers fall back when this
    returns None.
    """
    s = s % 1
    if s == 0:
        return z.re
    if s == Fraction(1, 4):
        return -z.im
    if s == Fraction(1, 2):
        return -z.re
    if s == Fraction(3, 4):
        return z.im
    return None


# -- branches ----------------------------------------------------------------


class PuiseuxBranch(Record):
    """One factor class y - psi(mu^n x^(1/r)), n = 1..r, mu = exp(2*pi*i/r).

    psi is a truncated series in t = x^(1/r); branch conventions fix
    x^(1/r) > 0 for x > 0 and x^(1/r) = |x|^(1/r) exp(i*pi/r) for x < 0.
    conjugate_partner is the list index of the conjugate class, or None.
    """

    __slots__ = ("r", "psi", "multiplicity", "conjugate_partner", "resolved")
    _defaults = {"multiplicity": 1, "conjugate_partner": None, "resolved": True}

    def coeff(self, m: int) -> GaussianRational:
        return self.psi.poly.coefficient((m,))

    def coeff_items(self):
        return sorted((e[0], c) for e, c in self.psi.poly.terms.items())


def _solve_regular(F: MultiPoly, x_budget: int):
    """Unique analytic solution y(x), y(0)=0, of F(x,y)=0 with dF/dy(0,0) != 0."""
    slices = F.slices("y")
    if 1 not in slices or slices[1].coefficient((0,)).is_zero():
        raise AssertionError("regular solve needs a simple root")
    g = implicit_root(slices, x_budget)
    return {e[0]: c for e, c in g.terms.items()}


def _newton_edges(F: MultiPoly):
    """Edges of the Newton polygon carrying solutions y ~ c x^(q/r), q/r > 0.

    Returns a list of (q, r, b_min, edge_terms): the slope q/r, the least
    y-exponent on the edge, and the terms {(alpha, beta): coeff} of F on it.
    """
    hull = newton_polygon((b, a) for (a, b) in F.terms)
    edges = []
    for (b1, a1), (b2, a2) in zip(hull, hull[1:]):
        gamma = Fraction(a1 - a2, b2 - b1)
        q, r = gamma.numerator, gamma.denominator
        level = a1 * r + b1 * q
        terms = {
            (a, b): c
            for (a, b), c in F.terms.items()
            if a * r + b * q == level and b1 <= b <= b2
        }
        edges.append((q, r, b1, terms))
    return edges


def _expand(F: MultiPoly, budget: Fraction):
    """All Puiseux solutions y(x) -> 0 of F to x-valuation `budget`.

    Returns list of (r, {t_exponent: coeff}, multiplicity, resolved).
    """
    results = []
    if F.is_zero():
        return results
    # pure y^k factor: y = 0 branches
    k0 = min(b for (_, b) in F.terms)
    if k0 > 0:
        F = MultiPoly(F.vars, {(a, b - k0): c for (a, b), c in F.terms.items()})
        results.append((1, {}, k0, True))
    # pure x^a factor does not affect y-solutions
    a0 = min(a for (a, _) in F.terms)
    if a0 > 0:
        F = MultiPoly(F.vars, {(a - a0, b): c for (a, b), c in F.terms.items()})
    if not F.coefficient((0, 0)).is_zero():
        return results
    if budget <= 0:
        raise TruncationError("order too small to separate branches; raise it")

    for q, r, b_min, edge_terms in _newton_edges(F):
        # characteristic polynomial in c, exponents (beta - b_min) / r
        deg = max((b - b_min) // r for (_, b) in edge_terms)
        chi = [GaussianRational(0)] * (deg + 1)
        for (a, b), c in edge_terms.items():
            chi[(b - b_min) // r] = chi[(b - b_min) // r] + c
        roots, leftover = qi_roots(chi)
        roots = [(c, m) for c, m in roots if not c.is_zero()]
        if len(leftover) > 1:
            if len(leftover) == 3:
                raise PreconditionError(
                    "characteristic root lies in a degree-2 extension of Q(i); "
                    "not carried further (minimal polynomial "
                    f"{[str(v) for v in leftover]})"
                )
            raise PreconditionError(
                "characteristic polynomial does not split over Q(i); "
                f"degree {len(leftover) - 1} factor remains"
            )
        level = min(a * r + b * q for (a, b) in edge_terms)
        for c_root, mult in roots:
            c_tilde = qi_nth_root(c_root, r)
            if c_tilde is None:
                root = {2: "square root", 3: "cube root"}.get(r, f"{r}-th root")
                raise PreconditionError(
                    f"no exact {root} of {c_root} in Q(i); "
                    "branch needs a field extension"
                )
            # F(t^r, t^q (c + y1)) / t^level, with t and y1 named x and y
            sub_budget = budget * r - q
            t, y1 = (MultiPoly.variable(("x", "y"), v) for v in ("x", "y"))
            composed = F.subs(dict(zip(F.vars, (t**r, t**q * (y1 + c_tilde)))))
            F1 = MultiPoly(
                ("x", "y"), {(a - level, b): v for (a, b), v in composed.terms.items()}
            )
            # keep only data meaningful within the sub-budget
            if mult == 1 and not F1.coefficient((0, 1)).is_zero():
                if sub_budget <= 0:
                    results.append((r, {q: c_tilde}, 1, True))
                    continue
                sol = _solve_regular(F1, int(sub_budget))
                psi = {q: c_tilde}
                for mexp, coeff in sol.items():
                    psi[q + mexp] = coeff
                results.append((r, psi, 1, True))
                continue
            if sub_budget <= 0:
                results.append((r, {q: c_tilde}, mult, mult == 1))
                continue
            subs = _expand(F1, sub_budget)
            got = 0
            for r2, psi2, mult2, resolved2 in subs:
                got += r2 * mult2
                psi = {q * r2: c_tilde}
                for mexp, coeff in psi2.items():
                    psi[q * r2 + mexp] = (
                        psi.get(q * r2 + mexp, GaussianRational(0)) + coeff
                    )
                results.append((r * r2, psi, mult2, resolved2))
            if got < mult:
                # sub-expansion found fewer solutions than the multiplicity:
                # branches agree beyond the budget
                results.append((r, {q: c_tilde}, mult - got, False))
    return results


def newton_puiseux(f, order: int | None = None):
    """Puiseux branches of a bivariate polynomial/series in (x, y).

    The product of the branch factors times a unit matches f through the
    working order; for real f the branch multiset is closed under
    coefficientwise conjugation.
    """
    if isinstance(f, TruncatedSeries):
        data_order = f.order
        F = f.poly
    else:
        F = f
        data_order = None
    if len(F.vars) != 2:
        raise PreconditionError("newton_puiseux expects a bivariate input")
    if F.is_zero():
        raise PreconditionError("zero input has no Puiseux factorization")
    if not F.coefficient((0, 0)).is_zero():
        raise PreconditionError("f(0,0) != 0: nothing to factor at the origin")
    if all(b == 0 for (_, b) in F.terms):
        raise PreconditionError("f is independent of y: not monic-izable")
    if order is None:
        order = data_order if data_order is not None else F.degree()
    if order < 1:
        raise PreconditionError("order must be at least 1")
    budget = Fraction(order)

    raw = _expand(F, budget)
    branches = []
    for r, psi, mult, resolved in raw:
        t_order = int(budget * r)
        poly = MultiPoly(("t",), {(m,): c for m, c in psi.items() if m <= t_order})
        branches.append(
            PuiseuxBranch(
                r=r,
                psi=TruncatedSeries(poly, t_order),
                multiplicity=mult,
                resolved=resolved,
            )
        )
    branches = _pair_conjugates(branches)
    return branches


def _pair_conjugates(branches):
    """Mark conjugate partners: branch whose psi-set is the coefficientwise
    conjugate, up to the mu-shift psi(t) -> psi(mu^j t)."""
    out = list(branches)
    paired = {}
    for i, b in enumerate(out):
        if i in paired:
            continue
        target = {m: c.conj() for m, c in b.coeff_items()}
        for j in range(i, len(out)):
            if j in paired and j != i:
                continue
            other = out[j]
            if other.r != b.r or other.multiplicity != b.multiplicity:
                continue
            if _same_branch_class(target, other, b.r):
                paired[i] = j
                paired[j] = i
                break
    result = []
    for i, b in enumerate(out):
        result.append(
            PuiseuxBranch(
                r=b.r,
                psi=b.psi,
                multiplicity=b.multiplicity,
                conjugate_partner=paired.get(i),
                resolved=b.resolved,
            )
        )
    return result


def _same_branch_class(coeff_map: dict, other: PuiseuxBranch, r: int) -> bool:
    """Whether psi'(mu^j t) has the coefficients coeff_map for some shift j:
    conj(c_m) = c'_m mu^k with k = j*m mod r, coefficient by coefficient.
    mu^k lies in Q(i) exactly when r divides 4k, as i^(4k/r); otherwise no
    nonzero pair of Q(i) coefficients can match, so both must vanish."""
    other_map = dict(other.coeff_items())
    zero = GaussianRational(0)
    keys = set(coeff_map) | set(other_map)
    for j in range(r):
        for m in keys:
            lhs, rhs = coeff_map.get(m, zero), other_map.get(m, zero)
            k = j * m % r
            if (4 * k) % r:
                if not (lhs.is_zero() and rhs.is_zero()):
                    break
            elif lhs != rhs * I ** (4 * k // r):
                break
        else:
            return True
    return False


# -- branch factor polynomials (exact, via power sums) -----------------------


def branch_factor_poly(branch: PuiseuxBranch, n_trunc: int, x_order: int) -> MultiPoly:
    """The polynomial prod_{n=1}^r (y - psi^[N](mu^n x^(1/r))) in (x, y).

    Computed without cyclotomic arithmetic: power sums over the mu-orbit keep
    only t-exponents divisible by r, which are exact Q(i) series in x.
    """
    r = branch.r
    coeffs = {m: c for m, c in branch.coeff_items() if m <= n_trunc}
    t_cap = r * x_order
    # psi^s as t-polynomials
    psi_poly = MultiPoly(("t",), {(m,): c for m, c in coeffs.items()})
    power = MultiPoly.constant(("t",), 1)
    p_sums = []
    for s in range(1, r + 1):
        power = power.mul_truncated(psi_poly, t_cap)
        ps_terms = {}
        for (m,), c in power.terms.items():
            if m % r == 0:
                ps_terms[(m // r,)] = c * r
        p_sums.append(MultiPoly(("x",), ps_terms))
    # Newton's identities: e_s
    e = [MultiPoly.constant(("x",), 1)]
    for s in range(1, r + 1):
        acc = MultiPoly.zero(("x",))
        sign = 1
        for k in range(1, s + 1):
            term = e[s - k].mul_truncated(p_sums[k - 1], x_order)
            acc = acc + (term if sign > 0 else -term)
            sign = -sign
        e.append(acc.scale(Fraction(1, s)))
    out = {}
    for s in range(0, r + 1):
        sign = -1 if s % 2 else 1
        for (a,), c in e[s].terms.items():
            val = c if sign > 0 else -c
            out[(a, r - s)] = out.get((a, r - s), GaussianRational(0)) + val
    return MultiPoly(("x", "y"), out)


# -- Weierstrass preparation --------------------------------------------------


def weierstrass_prepare(f: MultiPoly, x_order: int, y_order: int):
    """f = u * W with W monic of degree d0 in y, to the given x-order.

    Returns (W, u) as MultiPoly in (x, y), valid coefficientwise through
    x^x_order (W exactly, u through y^y_order).
    """
    slices = MultiPoly(("x", "y"), f.terms).slices("x")
    f0 = slices.get(0)
    if f0 is None or f0.is_zero():
        raise PreconditionError("f(0, y) = 0: Weierstrass degree undefined")
    d0 = f0.min_degree()
    u0 = MultiPoly(("y",), {(b - d0,): c for (b,), c in f0.terms.items()})
    u0_inv = series_invert(TruncatedSeries(u0, y_order)).poly

    def mod_yd(p: MultiPoly) -> MultiPoly:
        return MultiPoly(("y",), {e: c for e, c in p.terms.items() if e[0] < d0})

    def div_yd(p: MultiPoly) -> MultiPoly:
        for (b,) in p.terms:
            if b < d0:
                raise AssertionError("not divisible by y^d0")
        return MultiPoly(("y",), {(b - d0,): c for (b,), c in p.terms.items()})

    u = {0: u0}
    w = {0: MultiPoly(("y",), {(d0,): GaussianRational(1)})}
    for i in range(1, x_order + 1):
        Ri = slices.get(i, MultiPoly.zero(("y",)))
        for a in range(1, i):
            wb = w.get(i - a)
            if wb is None or a not in u:
                continue
            Ri = Ri - u[a].mul_truncated(wb, y_order + d0)
        wi = mod_yd(Ri.mul_truncated(u0_inv, y_order + d0))
        ui = div_yd((Ri - u0.mul_truncated(wi, y_order + d0)).truncate(y_order + d0))
        w[i] = wi
        u[i] = ui
    W_terms = {}
    for i, wi in w.items():
        if i == 0:
            W_terms[(0, d0)] = GaussianRational(1)
            continue
        for (b,), c in wi.terms.items():
            W_terms[(i, b)] = c
    U_terms = {}
    for i, ui in u.items():
        for (b,), c in ui.terms.items():
            U_terms[(i, b)] = c
    return MultiPoly(("x", "y"), W_terms), MultiPoly(("x", "y"), U_terms)


# -- branch exponent data and the comparable polynomial ----------------------


class BranchExponents(Record):
    """Per-conjugate first non-real indices for one branch class.

    m_plus[n-1] / m_minus[n-1] are the first t-indices whose coefficient is
    non-real on the x > 0 / x < 0 side for the n-th conjugate; k_j is the
    branch's contribution sum(M_n + 1) to the proof-style exponent bound.
    """

    __slots__ = ("r", "multiplicity", "m_plus", "m_minus", "m_max")

    @property
    def k_j(self) -> int:
        return sum(m + 1 for m in self.m_max)


def branch_exponents(branch: PuiseuxBranch) -> BranchExponents | None:
    """M_n data for each conjugate of a branch, or None if some conjugate is
    real through the truncation (evidence of a real zero curve)."""
    r = branch.r
    items = branch.coeff_items()
    m_plus = []
    m_minus = []
    for n in range(1, r + 1):
        mp = None
        mm = None
        for m, c in items:
            if mp is None and not twisted_is_real(c, Fraction(n * m, r)):
                mp = m
            if mm is None and not twisted_is_real(
                c, Fraction(m * (2 * n + 1), 2 * r)
            ):
                mm = m
            if mp is not None and mm is not None:
                break
        if mp is None or mm is None:
            return None
        m_plus.append(mp)
        m_minus.append(mm)
    return BranchExponents(
        r=r,
        multiplicity=branch.multiplicity,
        m_plus=tuple(m_plus),
        m_minus=tuple(m_minus),
        m_max=tuple(max(a, b) for a, b in zip(m_plus, m_minus)),
    )


class _SharpUnsupported(Exception):
    pass


def _real_profile(branch: PuiseuxBranch, n: int, negative_side: bool):
    """Map x-valuation -> exact Re coefficient of psi(mu^n x^(1/r)) on the
    chosen side of the x-axis; needs angles that stay multiples of pi/2."""
    out = {}
    r = branch.r
    for m, c in branch.coeff_items():
        s = Fraction(n * m, r)
        if negative_side:
            s += Fraction(m, 2 * r)
        val = twisted_real_value(c, s)
        if val is None:
            raise _SharpUnsupported
        if val != 0:
            key = Fraction(m, r)
            out[key] = out.get(key, Fraction(0)) + val
    return {k: v for k, v in out.items() if v != 0}


def sharp_vanishing_exponent(branches, exponents):
    """Largest vanishing order of prod |y - psi_jn(x)| along real curves.

    Tracks the real part of each conjugate branch on both sides of the
    x-axis; along such a curve each factor vanishes to order
    min(contact order of the real parts, M/r).  Returns a Fraction, or None
    when an exact real part is unavailable (twist angles leave the pi/2
    grid; happens only for ramification r >= 3, or r = 4 on the x < 0 side).
    """
    try:
        total_best = None
        for negative_side in (False, True):
            profiles = []
            for b, e in zip(branches, exponents):
                side_m = e.m_minus if negative_side else e.m_plus
                for n in range(1, b.r + 1):
                    profiles.append(
                        (
                            _real_profile(b, n, negative_side),
                            Fraction(side_m[n - 1], b.r),
                            b.multiplicity,
                        )
                    )
            for track, _, _ in profiles:
                total = Fraction(0)
                for other, im_ord, mult in profiles:
                    keys = set(track) | set(other)
                    contact = None
                    for k in sorted(keys):
                        if track.get(k, Fraction(0)) != other.get(k, Fraction(0)):
                            contact = k
                            break
                    factor_ord = im_ord if contact is None else min(contact, im_ord)
                    total += mult * factor_ord
                if total_best is None or total > total_best:
                    total_best = total
        return total_best
    except _SharpUnsupported:
        return None


class ComparablePolynomial(Record):
    """A real polynomial g comparable to f near 0, with f >= c|(x,y)|^K.

    K is the sharp integer exponent used downstream to truncate Taylor
    polynomials; K_bound = sum of the per-branch k_j is the coarser additive
    bound from the factorwise estimate, kept for cross-checking.  K_sharp
    is the Fraction that K rounds up, or None.
    """

    __slots__ = ("g", "K", "K_sharp", "K_bound", "branch_data", "N_used", "shortcut")
    _defaults = {"shortcut": None}


# circles (radii, points per circle) on which comparable_polynomial checks
# its input > 0
_SAMPLE_RADII = [2.0**-k for k in range(4, 11)]
_SAMPLE_ANGLES = 128


def _check_positive_samples(f_eval, radii):
    for r in radii:
        for k in range(_SAMPLE_ANGLES):
            a = 2 * math.pi * k / _SAMPLE_ANGLES
            x, y = r * math.cos(a), r * math.sin(a)
            v = f_eval(x, y)
            if v <= 0.0:
                raise PreconditionError(
                    f"input is not positive at ({x}, {y}): value {v}; "
                    "zero at the origin is not isolated"
                )


def comparable_polynomial(f: TruncatedSeries) -> ComparablePolynomial:
    """Polynomial g with g comparable to f near (0,0) and the exponent K.

    f must be a real bivariate series, positive on a punctured neighborhood
    of 0 (checked by sampling).  When the lowest homogeneous part is already
    positive definite it serves as g directly; otherwise g is the product of
    truncated Puiseux branch factors, truncation chosen so the product agrees
    with the Weierstrass polynomial of f beyond x-order K.
    """
    if not f.poly.is_real():
        raise PreconditionError("comparable_polynomial needs real coefficients")
    if len(f.poly.vars) != 2:
        raise PreconditionError("comparable_polynomial needs a bivariate input")
    poly = f.poly
    if poly.is_zero() or not poly.coefficient((0, 0)).is_zero():
        raise PreconditionError("input must vanish at the origin (and only there)")
    _check_positive_samples(lambda x, y: poly.eval_complex((x, y)).real, _SAMPLE_RADII)

    lowest = poly.lowest_part()
    if is_positive_definite(binary_form(lowest)):
        return ComparablePolynomial(
            g=lowest,
            K=lowest.degree(),
            K_sharp=Fraction(lowest.degree()),
            K_bound=None,
            branch_data=[],
            N_used=0,
            shortcut="definite lowest homogeneous part",
        )

    branches = newton_puiseux(f, order=f.order)
    if any(not b.resolved for b in branches):
        raise TruncationError(
            "branches not separated at this order; raise the working order"
        )
    exps = []
    for b in branches:
        e = branch_exponents(b)
        if e is None:
            raise PreconditionError(
                "a Puiseux branch is real through the working order: "
                "the zero of f at 0 is not isolated "
                f"(branch psi = {b.psi.poly})"
            )
        exps.append(e)
    k_bound = sum(e.multiplicity * e.k_j for e in exps)
    k_sharp = sharp_vanishing_exponent(branches, exps)
    K = int(math.ceil(k_sharp)) if k_sharp is not None else k_bound

    x_order = f.order
    if x_order < K + 1:
        raise TruncationError(
            f"working order {x_order} cannot certify agreement beyond x^{K}"
        )
    n_trunc = max(K + 1, 8)
    max_trunc = max(b.r for b in branches) * f.order
    W, _unit = weierstrass_prepare(poly, x_order=min(K + 1, x_order), y_order=f.order + 4)
    while True:
        g = MultiPoly.constant(("x", "y"), 1)
        for b in branches:
            factor = branch_factor_poly(b, n_trunc=n_trunc, x_order=x_order)
            for _ in range(b.multiplicity):
                g = g.mul_truncated(factor, x_order + sum(bb.r for bb in branches))
        if not g.is_real():
            raise AssertionError("branch product is not real")
        if _agrees_past(g, W, K):
            break
        n_trunc *= 2
        if n_trunc > max_trunc:
            raise TruncationError(
                "could not match the Weierstrass polynomial beyond x-order K; "
                "raise the working order"
            )
    return ComparablePolynomial(
        g=g,
        K=K,
        K_sharp=k_sharp,
        K_bound=k_bound,
        branch_data=exps,
        N_used=n_trunc,
    )


def _agrees_past(g: MultiPoly, W: MultiPoly, K: int) -> bool:
    """Coefficients of g and W agree for every x-exponent <= K."""
    diff = g - W
    return all(a > K for (a, _b) in diff.terms)
