"""The sampling oracle behind `engine.boundedness_oracle`: |q/p| near the
origin at one fixed setting, radius 1/8 at the first of 3 levels, each
halving the radius, and random probes drawn with seed 0.

Its probes and |p| at them do not depend on q, so the last call's probe
table is kept and reused by the next call on the same p and ideal objects;
either way the results are the same, float for float.  The table keeps each
level's probes as one flat list of their complex coordinates, which the
garbage collector does not track, so a kept table is a few lists for it,
not one tuple per probe for the young collections inside later verdicts to
scan; `_points` regroups the coordinates into the probe tuples, one at a
time.

`engine.boundedness_oracle` imports this module on its first call, so only
callers of the oracle, such as `member --oracle`, compile it.
"""

from __future__ import annotations

import cmath
import math
import random

from .engine import CaseTag, IdealDescription
from .errors import PreconditionError
from .poly import MultiPoly


def _finite(value: complex) -> complex:
    """value itself; OverflowError when it is infinite or nan."""
    if not cmath.isfinite(value):
        raise OverflowError("non-finite sample value")
    return value


# the oracle's one setting: the box radius at the coarsest level, the number
# of levels, each halving the radius, and the seed of its random probes
_ORACLE_RADIUS = 0.125
_ORACLE_LEVELS = 3
_ORACLE_SEED = 0

# the probe table of the last oracle call, (p, desc, levels), or None
_last_probes = None


def sample(p: MultiPoly, q: MultiPoly, ideal: IdealDescription) -> dict:
    """`engine.boundedness_oracle`, which documents the samples and the
    result."""
    global _last_probes
    if q.vars != p.vars:
        q = q.embed(p.vars)
    n = len(p.vars)
    level_max = []
    curve_max = []
    witness = None
    try:
        # a concurrent call at worst builds the table twice
        last = _last_probes
        if last is not None and last[0] is p and last[1] is ideal:
            levels = last[2]
        else:
            _last_probes = None
            levels = _probe_levels(p, ideal)
            _last_probes = (p, ideal, levels)
        for coords, p_abs, curve_start in levels:
            ratios = [
                abs(_finite(q.eval_complex(point))) / value
                for point, value in zip(_points(coords, n), p_abs)
            ]
            best = max(ratios, default=0.0)
            # the first probe of the largest ratio so far
            if best > 0 and (witness is None or best > witness[0]):
                k = n * ratios.index(best)
                witness = (best, tuple(coords[k : k + n]))
            level_max.append(best)
            curve_max.append(max(ratios[curve_start:], default=0.0))
    except OverflowError:
        raise PreconditionError(
            "oracle samples of H, p or q overflow floating point; the input "
            "is out of the oracle's scope"
        ) from None

    def _monotone_growth(seq):
        return all(
            seq[k + 1] >= 1.5 * seq[k] and seq[k] > 0
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


def _points(coords: list, n: int):
    """The probes whose n coordinates each coords lists in turn, as tuples,
    lazily."""
    return zip(*[iter(coords)] * n)


def _probe_levels(p: MultiPoly, desc: IdealDescription) -> list:
    """The oracle's probes, which do not depend on q, one refinement level
    each: the coordinates of the points where p is nonzero, as `_points`
    reads them, the random samples first; the list of |p| at them; and the
    index of the first extremal-curve probe."""
    H = desc.H
    d = len(p.vars) - 1
    rng = random.Random(_ORACLE_SEED)
    # one base sample set of 400 points in the unit box, rescaled per
    # refinement level, so level maxima are directly comparable point by point
    base = []
    for k in range(400):
        x_unit = [rng.uniform(-1.0, 1.0) for _ in range(d)]
        # slice offsets scale like radius^2, the size of Im phi, so the
        # samples actually approach the zero set as the levels refine
        delta_unit = rng.choice([0.0, 0.25, -0.25, 0.0625, -0.0625])
        v_unit = [rng.uniform(0.05, 1.0) for _ in range(d)]
        base.append((x_unit, delta_unit, v_unit, k % 2 == 1))
    levels = []
    for level in range(_ORACLE_LEVELS):
        radius = math.ldexp(_ORACLE_RADIUS, -level)
        coords, p_abs = [], []
        samples = (
            ([radius * t for t in x_unit], delta_unit, v_unit, interior)
            for x_unit, delta_unit, v_unit, interior in base
        )
        _append_probes(coords, p_abs, p, H, radius, samples)
        curve_start = len(p_abs)
        curves = (
            (x_real, 0.0, None, False)
            for x_real in _extremal_curve_points(desc, radius)
        )
        _append_probes(coords, p_abs, p, H, radius, curves)
        levels.append((coords, p_abs, curve_start))
    return levels


def _append_probes(coords, p_abs, p, H, radius, slice_points):
    """Append the coordinates of each slice point at which p is provably
    nonzero to coords, and |p| there to p_abs: on the slice
    z = -H(x) + delta, or inside at x + iv.

    A point on the zero set of p, as the delta = 0 slice is when the branch
    is a polynomial, gives a float |p| of rounding noise.  So a probe is
    kept only when |p| exceeds 4 (n + 3d) u S, with n terms of degree <= d,
    u = 2^-53 and S the sum of the magnitudes of the terms
    (`eval_with_scale`).  That is 4 times an a priori bound on the error of
    its term-by-term loop: each term takes at most 3d complex
    products (its powers by squaring, then their product) and the sum n
    additions, each off by less than 3u relative to S (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 3-4).
    """
    slack = 4 * (len(p.rows) + 3 * p.degree()) * 2.0**-53
    for x_real, delta_unit, v_unit, interior in slice_points:
        h_val = _finite(H.eval_complex(x_real)).real
        delta = radius * radius * delta_unit
        if interior:
            point = tuple(
                complex(t, radius * s) for t, s in zip(x_real, v_unit)
            ) + (complex(-h_val, abs(delta) + 0.01 * radius**2),)
        else:
            point = tuple(complex(t, 0.0) for t in x_real) + (
                complex(-h_val + delta, 0.0),
            )
        pv, scale = p.eval_with_scale(point)
        pv = _finite(pv)
        if abs(pv) > slack * scale:
            coords.extend(point)
            p_abs.append(abs(pv))


def _extremal_curve_points(desc: IdealDescription, radius: float):
    """Deterministic probes where |q|/|p| peaks: the Newton-polyhedron edge
    curves u = lam * s^wu, v = mu * s^wv (IsolatedDegenerate) and the zero
    line of the linear form (LinearForm)."""
    points = []
    if desc.case is CaseTag.ISOLATED_DEGENERATE:
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
    elif desc.case is CaseTag.LINEAR_FORM:
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
