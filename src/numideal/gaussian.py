"""Exact Gaussian-rational arithmetic: a + b*i with arbitrary-precision rationals.

This is the coefficient field for the whole algebra core.  Floats are never
used here; sampling oracles convert via :meth:`GaussianRational.to_complex`.
"""

from __future__ import annotations

from fractions import Fraction


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {value!r}")


class GaussianRational:
    """An exact complex number re + im*i with rational re, im."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {value!r} to GaussianRational")

    @classmethod
    def _from_fractions(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        """Trusted constructor: re and im must already be Fractions."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "re", re)
        object.__setattr__(obj, "im", im)
        return obj

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def is_imaginary(self) -> bool:
        return self.re == 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return _make(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return _make(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return _make(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _make(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def __neg__(self):
        return _make(-self.re, -self.im)

    def __pow__(self, k: int):
        if k < 0:
            return (GaussianRational(1) / self) ** (-k)
        result = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "GaussianRational":
        return _make(self.re, -self.im)

    def norm2(self) -> Fraction:
        """re**2 + im**2, the field norm."""
        return self.re * self.re + self.im * self.im

    # -- comparisons / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    # -- conversions --------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        from .parsing import format_coefficient

        return format_coefficient(self)


_make = GaussianRational._from_fractions

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gaussian_sqrt(c: GaussianRational):
    """Exact square root in Q(i), or None when c is not a square there.

    Solves (s + t*i)**2 = c: requires norm(c) to be the square of a rational
    and (re + sqrt(norm)) / 2 to be a rational square.
    """
    if c.is_zero():
        return GaussianRational(0)
    n = _rational_sqrt(c.norm2())
    if n is None:
        return None
    s2 = (c.re + n) / 2
    s = _rational_sqrt(s2)
    if s is None or s == 0:
        # purely imaginary root: s = 0 needs c.re = -n, then t**2 = n
        t2 = (n - c.re) / 2
        t = _rational_sqrt(t2)
        if t is None:
            return None
        if c.im != 0:
            return None
        root = GaussianRational(0, t)
    else:
        t = c.im / (2 * s)
        root = GaussianRational(s, t)
    if (root * root) == c:
        return root
    return None


def _rational_sqrt(q: Fraction):
    """Exact nonnegative square root of a rational, or None."""
    if q < 0:
        return None
    from math import isqrt

    pn, pd = q.numerator, q.denominator
    rn, rd = isqrt(pn), isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None
