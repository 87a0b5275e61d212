"""Numeric samplers that only tests use: an interval estimate of g/f over
dyadic annuli (comparability near the origin) and the minimum of a binary
form over a dense circle grid.  Float oracles for the exact decisions of
numideal.forms and numideal.puiseux."""

from __future__ import annotations

import math

from numideal.errors import PreconditionError
from numideal.poly import MultiPoly
from numideal.record import Record

#: relative spread beyond which two evaluators are declared incomparable
SPREAD_LIMIT = 1e12


class ComparabilityResult(Record):
    """intervals holds the per-radius (min, max) of g/f; fail is a bool and
    reason a str or None."""

    __slots__ = ("radii", "intervals", "fail", "reason")

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


def sampled_circle_min(f: MultiPoly, n_points: int = 10_000) -> float:
    """Brute-force minimum of a real binary form over a dense circle grid
    (float oracle)."""
    best = math.inf
    for k in range(n_points):
        a = 2 * math.pi * k / n_points
        best = min(best, f.eval_complex((math.cos(a), math.sin(a))).real)
    return best
