"""The worked example polynomials, constructed rather than hard-coded where
a construction exists.

p2 note: of the two coefficientwise-conjugate forms of the L = 2 polynomial,
only one is half-plane stable (the other has Im phi_4 negative definite);
`p2` returns the stable representative, whose branch expansion starts
x + y + 2(x^3 + 2x^2 y + 2x y^2 + y^3) + 4i(...).
"""

from __future__ import annotations

from .parsing import parse
from .poly import MultiPoly


def _from_polydisk(text: str) -> MultiPoly:
    # construct is loaded on the first call, not when the CLI imports EXAMPLES
    from .construct import polydisk_to_halfplane

    return polydisk_to_halfplane(parse(text))


def linear3() -> MultiPoly:
    return _from_polydisk("3 - z1 - z2 - z3")


def nonisolated() -> MultiPoly:
    return _from_polydisk("2 - z1*z2 - z3")


def degenerate() -> MultiPoly:
    return _from_polydisk(
        "(z1 + z2)^2 * 1/4 - (z1 + z2) * 1/2 * z3 - 3/2 * (z1 + z2) - z3 + 4"
    )


def p2() -> MultiPoly:
    conjugate_form = parse(
        "x + y + 2*i*((x + y)^2 - 2*x^2*y^2) - 2*(x^2*y + x*y^2)"
        " + (1 + 2*i*(x + y - 2*x^2*y - 2*x*y^2) - 2*(x + y)^2)*z"
    )
    return conjugate_form.reflect()


EXAMPLES = {
    "linear3": linear3,
    "nonisolated": nonisolated,
    "degenerate": degenerate,
    "p2": p2,
}
