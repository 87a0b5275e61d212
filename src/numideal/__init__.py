"""numideal: admissible-numerator ideals for stable polynomials.

Given a polynomial p with no zeros in the poly-upper half-plane and a smooth
boundary zero at the origin, compute the ideal of numerators q for which q/p
stays locally bounded, and decide membership of arbitrary numerators.
"""

from .gaussian import GaussianRational
from .poly import MultiPoly, TruncatedSeries, series_invert
from .parsing import parse, format_poly

__all__ = [
    "GaussianRational",
    "MultiPoly",
    "TruncatedSeries",
    "series_invert",
    "parse",
    "format_poly",
]
