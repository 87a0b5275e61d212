"""Seeded inputs and their reference answers for the four benchmark workloads.

References never come from the program under test.  They are taken from
  * the literal expectations of tests/test_acceptance.py (criteria 1, 2, 3,
    5 and the 16 pairs of criterion 7(d));
  * the construction of the iterated family: iterated_composition(L) is
    Definite with L_or_K = L, x^(2L) is InIdeal and x^(2L-1) is NotInIdeal;
  * the boundedness of reflect(p)/p for stable p (reflect(p) is InIdeal),
    while the first x-variable is never in the ideal;
  * transport under x -> a*x, y -> b*y with a, b > 0, which keeps half-plane
    stability and maps q/p bounded to q/p bounded.

Importing this module imports the package, so the time to import it is part
of the benchmark's set-up time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

# construct and examples are called through their modules so that a traced
# set-up sees the calls into them
from numideal import MultiPoly, construct, examples, parse
from numideal.parsing import format_poly

# criterion 7(d) of tests/test_acceptance.py: (q, q/p bounded)
WORKED_PAIRS = {
    "linear3": [
        ("x^2", True),
        ("x*y", True),
        ("y^2", True),
        ("x + y + z", True),
        ("x", False),
        ("1", False),
    ],
    "nonisolated": [
        ("(x + y)^2", True),
        ("x + y + z - x*y*z", True),
        ("x + y", False),
        ("z", False),
    ],
    "degenerate": [
        ("(x - y)^2", True),
        ("(x - y)*(x + y)^2", True),
        ("(x + y)^4", True),
        ("(x + y)^3", False),
        ("(x - y)*(x + y)", False),
        ("(x + y)^2", False),
    ],
    # criterion 5: (x^2 + y^2)^2 lies in the ideal of the worked L = 2 example
    "p2": [("(x^2 + y^2)^2", True)],
}

# literal ideals of criteria 1, 2, 3 and 5: (case, L_or_K, H, generators);
# None where the criterion states nothing
WORKED_IDEALS = {
    "linear3": (None, None, None, ["x + y + z", "x^2", "x*y", "y^2"]),
    "nonisolated": (None, None, None, ["x + y + z - x*y*z", "(x + y)^2"]),
    "degenerate": (
        "IsolatedDegenerate",
        4,
        "1/2*(x + y) + 1/8*(x^3 + 7*x^2*y + 7*x*y^2 + y^3)",
        [
            "z + 1/2*(x + y) + 1/8*(x^3 + 7*x^2*y + 7*x*y^2 + y^3)",
            "(x - y)^2",
            "(x - y)*(x + y)^2",
            "x^4",
            "x^3*y",
            "x^2*y^2",
            "x*y^3",
            "y^4",
        ],
    ),
    # criterion 5 compares the monomial generators as a set
    "p2": (
        "Definite",
        2,
        "x + y + 2*(x^3 + 2*x^2*y + 2*x*y^2 + y^3)",
        [
            "z + x + y + 2*(x^3 + 2*x^2*y + 2*x*y^2 + y^3)",
            {"x^4", "x^3*y", "x^2*y^2", "x*y^3", "y^4"},
        ],
    ),
}

ITERATED_LS = range(1, 8)

# Answers the code gives at the commit that introduced this benchmark and
# that contradict the reference: counted in wrong_verdicts like any other
# wrong answer, but tolerated by the run's `correct` flag so that only new
# wrong answers fail it.  iterated_composition(7) has its first non-real
# term in degree 14, beyond the default order 12 (ROADMAP item 2).
KNOWN_WRONG = {
    "iterated7": {"case": "Principal", "L_or_K": 0, "x^13": "InIdeal"},
}

# x- and y-scales of the degenerate workload: log-symmetric around 1
SCALES = (
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 2),
    Fraction(2),
    Fraction(4),
)

RANDOM_BATCH_SEED = 20240815  # criterion 7 of tests/test_acceptance.py
RANDOM_BATCH_SIZE = 50
RANDOM_ORDER = 8
WIDE_CORPUS_SEED = 20240816
WIDE_SHAPE = ((4, 2), (5, 2))  # (variables incl. z, inputs)


@dataclass
class Check:
    label: str
    q: MultiPoly
    in_ideal: bool
    text: str = ""

    def __post_init__(self):
        self.text = format_poly(self.q)


@dataclass
class Input:
    name: str
    p: MultiPoly
    order: int
    checks: list
    case: str | None = None
    L_or_K: int | None = None
    H: MultiPoly | None = None
    # generators in output order; a set entry matches the remaining
    # generators in any order
    generators: list | None = None
    oracle: bool = False
    # run `analyze`, and `member` with the last check, through the CLI
    cli: bool = False
    known_wrong: dict = field(default_factory=dict)
    # printed forms, made here so that a traced pass records no printing
    # beyond the program's own
    text: str = ""
    H_text: str | None = None
    generator_texts: list | None = None

    def __post_init__(self):
        self.text = format_poly(self.p)
        if self.H is not None:
            self.H_text = format_poly(self.H)
        if self.generators is not None:
            self.generator_texts = [
                {format_poly(g) for g in gen} if isinstance(gen, set) else format_poly(gen)
                for gen in self.generators
            ]


def _checks(p: MultiPoly, pairs) -> list:
    return [Check(text, parse(text, vars=p.vars), ok) for text, ok in pairs]


def _generators(vars, texts) -> list:
    out = []
    for t in texts:
        if isinstance(t, set):
            out.append({parse(s, vars=vars) for s in t})
        else:
            out.append(parse(t, vars=vars))
    return out


def _worked_example(name: str) -> Input:
    p = examples.EXAMPLES[name]()
    case, l_or_k, H, gens = WORKED_IDEALS[name]
    return Input(
        name=name,
        p=p,
        order=12,
        checks=_checks(p, WORKED_PAIRS[name]),
        case=case,
        L_or_K=l_or_k,
        H=parse(H, vars=p.vars[:-1]) if H is not None else None,
        generators=_generators(p.vars, gens),
        oracle=name != "p2",
        cli=True,
    )


def _iterated(L: int) -> Input:
    p = construct.iterated_composition(L)
    return Input(
        name=f"iterated{L}",
        p=p,
        order=12,
        checks=_checks(p, [(f"x^{2 * L}", True), (f"x^{2 * L - 1}", False)]),
        case="Definite",
        L_or_K=L,
        known_wrong=KNOWN_WRONG.get(f"iterated{L}", {}),
    )


def _stable_checks(p: MultiPoly) -> list:
    x1 = p.vars[0]
    return [
        Check("reflect(p)", p.reflect(), True),
        Check(x1, MultiPoly.variable(p.vars, x1), False),
    ]


def rescale(poly: MultiPoly, a: Fraction, b: Fraction) -> MultiPoly:
    """poly(a*x, b*y, ...): scale the first two variables by a and b."""
    return MultiPoly(
        poly.vars,
        {e: c * (a ** e[0]) * (b ** e[1]) for e, c in poly.terms.items()},
    )


def worked(rng: random.Random) -> list:
    inputs = [_worked_example(n) for n in WORKED_PAIRS]
    inputs += [_iterated(L) for L in ITERATED_LS]
    rng.shuffle(inputs)
    return inputs


def random_batch(rng: random.Random) -> list:
    batch_rng = random.Random(RANDOM_BATCH_SEED)
    batch = [construct.random_stable_polynomial(batch_rng) for _ in range(RANDOM_BATCH_SIZE)]
    inputs = [
        Input(f"random{k}", p, RANDOM_ORDER, _stable_checks(p))
        for k, p in enumerate(batch)
    ]
    inputs[0].cli = True
    rng.shuffle(inputs)
    return inputs


def degenerate(rng: random.Random) -> list:
    """The degenerate example and six rescalings of it.

    Each seed uses every scale of SCALES once as an x-scale and once as a
    y-scale and pairs them at random, so the mix of scales, and with it the
    share of inputs the code at the seed commit cannot monomialize, is the
    same for every seed.
    """
    base = _worked_example("degenerate")
    base.oracle = False
    inputs = [base]
    x_scales, y_scales = list(SCALES), list(SCALES)
    rng.shuffle(x_scales)
    rng.shuffle(y_scales)
    for a, b in zip(x_scales, y_scales):
        p = rescale(base.p, a, b)
        checks = [Check(c.label, rescale(c.q, a, b), c.in_ideal) for c in base.checks]
        inputs.append(
            Input(
                f"degenerate(a={a},b={b})",
                p,
                12,
                checks,
                case="IsolatedDegenerate",
                L_or_K=4,
            )
        )
    return inputs


def _draw_deg_z_1(rng: random.Random, n_vars: int) -> MultiPoly:
    # a degree-2 z-part in four x-variables costs tens of seconds per input,
    # more than a run can hold; see README.md
    while True:
        p = construct.random_stable_polynomial(rng, n_vars=n_vars)
        if p.var_degree(p.vars[-1]) == 1:
            return p


def permute_x(poly: MultiPoly, perm) -> MultiPoly:
    """Relabel the x-variables: x_k of the result is x_perm[k] of poly."""
    d = len(perm)
    return MultiPoly(
        poly.vars,
        {tuple(e[j] for j in perm) + e[d:]: c for e, c in poly.terms.items()},
    )


def wide(rng: random.Random) -> list:
    """A fixed seeded corpus with 3 and 4 x-variables; the seed relabels the
    x-variables of each input and orders the inputs.

    Fresh draws per seed would make the cost of a pass vary twofold from
    seed to seed (the weights set the coefficient sizes), so only the
    presentation varies.
    """
    corpus_rng = random.Random(WIDE_CORPUS_SEED)
    inputs = []
    for n_vars, count in WIDE_SHAPE:
        for k in range(count):
            p = _draw_deg_z_1(corpus_rng, n_vars)
            perm = list(range(n_vars - 1))
            rng.shuffle(perm)
            p = permute_x(p, perm)
            inputs.append(Input(f"wide{n_vars - 1}x#{k}", p, 12, _stable_checks(p)))
    inputs[0].cli = True
    rng.shuffle(inputs)
    return inputs


BUILDERS = {
    "worked": worked,
    "random": random_batch,
    "degenerate": degenerate,
    "wide": wide,
}


def build(workload: str, seed: int) -> list:
    """The inputs of one workload; the same seed gives the same inputs."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
