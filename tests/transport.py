"""Words of maps that fix 0 and keep stability, applied to p and to q.

A map T that fixes the origin and sends the poly-upper half-plane into
itself turns a stable p into a stable p~ = p o T with its denominators
cleared (`construct.substitute_fractions`), and q~/p~ is a unit at 0 times
(q/p) o T.  Multiplying p and q by a stable polynomial that does not vanish
at 0 leaves q/p as it is.  So along a word, a sequence of such maps, the
case, L_or_K and every membership verdict carry over: a reference answer
that needs no part of the engine.

A map is one of:
  * a substitution {variable: (A, B)} of polynomial texts, each variable
    going to A/B, all at once;
  * a unit factor, the text of a polynomial to multiply by.
"""

from numideal.construct import substitute_fractions
from numideal.parsing import parse

# real Moebius maps v -> v/(1 - c*v) of x and of z
X_MAPS = [{"x": ("x", "1 - x")}, {"x": ("x", "1 + 1/2*x")}, {"x": ("x", "1 - 3*x")}]
Z_MAPS = [{"z": ("z", "1 - z")}, {"z": ("z", "1 + 2*z")}, {"z": ("z", "1 - 1/3*z")}]
# linear maps of (x, y) with nonnegative entries and nonzero determinant
LINEAR_MAPS = [
    {"x": ("x + 2*y", "1")},
    {"x": ("x + 1/2*y", "1"), "y": ("3*x + y", "1")},
    {"y": ("1/4*x + y", "1")},
    {"x": ("3/2*x", "1"), "y": ("1/4*y", "1")},
    {"x": ("2*x", "1"), "y": ("4*y", "1")},
    {"x": ("4*x", "1"), "y": ("1/2*y", "1")},
]
# stable linear factors that do not vanish at 0, those of the product inputs
UNIT_FACTORS = [
    "x + 2*y + z + i",
    "2*x + y + 3*z + 2*i",
    "x + y + 2*z + 3*i",
    "3*x + y + z + i",
    "x + 3*y + 2*z + 2*i",
]


def transport(poly, word):
    """poly carried along word, one map after another."""
    for step in word:
        if isinstance(step, str):
            poly = poly * parse(step, vars=poly.vars)
        else:
            fractions = {
                v: tuple(parse(text, vars=poly.vars) for text in r)
                for v, r in step.items()
            }
            poly = substitute_fractions(poly, fractions)
    return poly


def label(step) -> str:
    """One map of a word as text, for test ids."""
    if isinstance(step, str):
        return f"* ({step})"
    return ", ".join(f"{v} -> ({a})/({b})" for v, (a, b) in step.items())
