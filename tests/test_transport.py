"""Seeded words of maps that keep stability, over the worked examples, the
iterated family and the criterion-7 batch: the case, L_or_K and every
verdict of p carry over to the transported p and numerators."""

import random
from fractions import Fraction

import pytest

from numideal.construct import (
    contact_order_lift,
    iterated_composition,
    random_stable_polynomial,
)
from numideal.engine import Verdict, membership, numerator_ideal
from numideal.errors import NoMonomializationFound
from numideal.examples import EXAMPLES
from numideal.parsing import parse
from test_ideal_engine import WORKED
from transport import UNIT_FACTORS, label, transport

WORDS_PER_INPUT = 8

# criterion 7(d) of test_acceptance.py and criterion 5: (q, q/p bounded)
WORKED_CHECKS = {
    "linear3": [("x^2", True), ("x*y", True), ("x + y + z", True), ("x", False)],
    **{name: checks for name, (_, _, checks) in WORKED.items()},
}
# numerators checked on every input, against the verdict on p itself
COMMON_CHECKS = ["1", "y", "z", "x - y", "x^2", "x*y", "x + y + z", "x^2*z^3"]


def _corpus():
    """(name, p, known checks): the four worked examples, iterated_composition
    for L = 1..4, whose x^(2L) is in the ideal and x^(2L - 1) is not, the
    first 10 polynomials of the criterion-7 batch, whose reflect(p) is in the
    ideal and x is not, and the lifts of iterated_composition(L, n_vars=2)
    for L = 2..4, IsolatedDegenerate with K = 2L, whose checks are the
    engine's verdicts on the lift itself."""
    out = [(name, EXAMPLES[name](), checks) for name, checks in WORKED_CHECKS.items()]
    for L in range(1, 5):
        checks = [(f"x^{2 * L}", True), (f"x^{2 * L - 1}", False)]
        out.append((f"iterated{L}", iterated_composition(L), checks))
    rng = random.Random(20240815)
    for k in range(10):
        p = random_stable_polynomial(rng)
        out.append((f"random{k}", p, [(p.reflect(), True), ("x", False)]))
    for L in range(2, 5):
        checks = [(f"x^{2 * L}", True), (f"x^{2 * L - 1}", False), ("(x - y)^2", True)]
        out.append((f"lift{L}", contact_order_lift(iterated_composition(L, n_vars=2)), checks))
    return out


CORPUS = {name: (p, checks) for name, p, checks in _corpus()}


def _coef(c: Fraction, v: str) -> str:
    """c*v as a term of a sum: ' + 1/2*x', ' - 3*x', ' + x', or '' for 0."""
    if c == 0:
        return ""
    sign = "-" if c < 0 else "+"
    size = "" if abs(c) == 1 else f"{abs(c)}*"
    return f" {sign} {size}{v}"


MOEBIUS_C = [Fraction(1), Fraction(-1, 2), Fraction(3), Fraction(1, 3)]
NONNEG = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
POSITIVE = NONNEG[1:]

# words that bend the valley of a lift with K >= 6 away from every linear
# frame, so that no frame monomializes g (ROADMAP item 3)
CURVED_VALLEY = {
    "lift3: x -> (x)/(1 - x)",
    "lift3: y -> (y)/(1 - 1/3*y)",
    "lift4: x -> (x)/(1 + 1/2*x)",
    "lift4: x -> (x + z)/(1); z -> (z)/(1 - 3*z)",
    "lift4: * (x + y + 2*z + 3*i); y -> (y + 1/2*z)/(1)",
}


def _moebius(rng, v):
    """v -> v/(1 - c*v); no two values of c cancel, so neither does a word."""
    return {v: (v, f"1{_coef(-rng.choice(MOEBIUS_C), v)}")}


def _random_map(rng):
    """(kind, map) of one of the seven kinds of generator."""
    kind = rng.choice(
        ["moebius_x", "moebius_z", "linear", "z_shear", "x_shear", "swap", "unit"]
    )
    if kind == "moebius_x":
        return kind, _moebius(rng, rng.choice("xy"))
    if kind == "moebius_z":
        return kind, _moebius(rng, "z")
    if kind == "linear":
        # (x, y) -> (x + a*y, b*x + y) with a, b >= 0 and ab != 1
        a, b = rng.choice(NONNEG), rng.choice(NONNEG)
        while a * b == 1:
            b = rng.choice(NONNEG)
        return kind, {"x": (f"x{_coef(a, 'y')}", "1"), "y": (f"y{_coef(b, 'x')}", "1")}
    if kind == "z_shear":
        # z -> z + a*x + b*y with a, b >= 0
        a, b = rng.choice(POSITIVE), rng.choice(NONNEG)
        return kind, {"z": (f"z{_coef(a, 'x')}{_coef(b, 'y')}", "1")}
    if kind == "x_shear":
        # x_j -> x_j + b*z with b > 0
        v = rng.choice("xy")
        return kind, {v: (f"{v}{_coef(rng.choice(POSITIVE), 'z')}", "1")}
    if kind == "swap":
        return kind, {"x": ("y", "1"), "y": ("x", "1")}
    return kind, rng.choice(UNIT_FACTORS)


def _words():
    rng = random.Random(20261020)
    for name in CORPUS:
        for _ in range(WORDS_PER_INPUT):
            kinds, word, length = [], [], rng.choice([1, 2])
            while len(word) < length:
                kind, step = _random_map(rng)
                if kind == "unit" and "unit" in kinds:
                    continue
                kinds.append(kind)
                word.append(step)
            marks = []
            word_id = f"{name}: " + "; ".join(label(step) for step in word)
            if name == "nonisolated" and "moebius_x" in kinds:
                marks = pytest.mark.xfail(
                    strict=True,
                    raises=NoMonomializationFound,
                    reason="ROADMAP item 2: a smooth curved zero set of Im phi "
                    "is not LinearForm",
                )
            elif word_id in CURVED_VALLEY:
                marks = pytest.mark.xfail(
                    strict=True,
                    raises=NoMonomializationFound,
                    reason="ROADMAP item 3: an isolated zero with a curved "
                    "valley needs a curvilinear frame",
                )
            yield pytest.param(name, word, id=word_id, marks=marks)


@pytest.mark.parametrize("name, word", list(_words()))
def test_case_and_verdicts_carry_over(name, word):
    p, known = CORPUS[name]
    desc = numerator_ideal(p)
    moved = transport(p, word)
    moved_desc = numerator_ideal(moved)
    assert (moved_desc.case, moved_desc.L_or_K) == (desc.case, desc.L_or_K)
    verdicts = set()
    for q, bounded in known + [(q, None) for q in COMMON_CHECKS]:
        if isinstance(q, str):
            q = parse(q, vars=p.vars)
        v = membership(p, q, ideal=desc).verdict
        if bounded is not None:
            assert v is (Verdict.IN_IDEAL if bounded else Verdict.NOT_IN_IDEAL), q
        w = membership(moved, transport(q, word), ideal=moved_desc).verdict
        assert w is v, q
        verdicts.add(v)
    assert verdicts == {Verdict.IN_IDEAL, Verdict.NOT_IN_IDEAL}
