"""`monomialize` tries the frames of the repeated-root lines before those of
x and x - y, and admits a frame by the lowest form of g first.  A test-only
reference tries the lines of `_candidate_lines` in the listed order on the
full g; both must return an equal MonomialIdealIC, or raise the same error
with the same witness."""

import math
import random
from fractions import Fraction

from numideal import closure
from numideal.branch import classify, solve_branch
from numideal.closure import line_frame, linear_change, monomialize
from numideal.errors import NoMonomializationFound
from numideal.examples import EXAMPLES
from numideal.parsing import format_poly, parse
from numideal.poly import MultiPoly
from numideal.resultant import branch_factor, comparable_resultant
from test_transport import CORPUS, WORDS_PER_INPUT, _words
from transport import transport


def reference_monomialize(g):
    """The frame of each line of `_candidate_lines`, in the listed order,
    checked on the full g, then the negative-face search in the same
    order."""
    frames = [line_frame(a, b) for a, b in closure._candidate_lines(g)]
    for change, inverse in frames:
        ic = closure._try_change(g, change, inverse)
        if ic is not None:
            return ic
    for change, inverse in frames:
        G = linear_change(g, inverse, ("u", "v"))
        witness = closure._negative_face(G, change, g.vars)
        if witness is not None:
            raise NoMonomializationFound(
                f"g < 0 along {witness['curve']} as t -> 0+, so no linear "
                "change makes it comparable to even monomials",
                witness=witness,
            )
    raise NoMonomializationFound(
        "no tried linear change makes g comparable to even monomials"
    )


def outcome(monomialize_g, g):
    """The MonomialIdealIC, or the message and witness of the error."""
    try:
        return monomialize_g(g)
    except NoMonomializationFound as exc:
        return str(exc), exc.witness


def comparable_g(p):
    """The g that `numerator_ideal` brings to a Newton polygon; p is neither
    Definite nor real through the order."""
    cls = classify(solve_branch(p, 12, stop_at_imaginary=True))
    assert cls.L is not None and not cls.definite
    f, R = branch_factor(p)
    return comparable_resultant(f, R, cls.im_part_2L)


def bench_degenerate():
    """The degenerate inputs of the benchmark at seed 0: the example and six
    rescalings x -> a*x, y -> b*y, the scales paired as its builder pairs
    them."""
    scales = [Fraction(k) for k in ("1/4", "1/2", "2/3", "3/2", "2", "4")]
    rng = random.Random("degenerate:0")
    xs, ys = list(scales), list(scales)
    rng.shuffle(xs)
    rng.shuffle(ys)
    p = EXAMPLES["degenerate"]()
    x, y = (MultiPoly.variable(p.vars, v) for v in ("x", "y"))
    return [p] + [p.subs({"x": x.scale(a), "y": y.scale(b)}) for a, b in zip(xs, ys)]


def seeded_squares(rng):
    """c * ell1^2 * ell2^2 plus even monomials of degree 6 or 8, with c of
    either sign and rational lines ell1, ell2 that are not x, y or x +- y."""
    lines = [
        (a, b)
        for a in range(1, 5)
        for b in range(-4, 5)
        if b and a != abs(b) and math.gcd(a, b) == 1
    ]
    (a1, b1), (a2, b2) = rng.choice(lines), rng.choice(lines)
    c = Fraction(rng.choice([-2, -1, 1, 2, 3, 5]), rng.randint(1, 3))
    parts = [f"{c}*({a1}*x + {b1}*y)^2*({a2}*x + {b2}*y)^2"]
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, 4)
        j = rng.choice([k for k in range(5) if 3 <= i + k <= 4])
        parts.append(f"({rng.choice([-3, -1, 1, 2, 4])})*x^{2 * i}*y^{2 * j}")
    return parse(" + ".join(parts), vars=("x", "y"))


def test_bench_degenerate_inputs():
    for p in bench_degenerate():
        g = comparable_g(p)
        assert outcome(monomialize, g) == outcome(reference_monomialize, g), format_poly(p)


def test_transport_corpus():
    # the corpus inputs whose g is brought to a Newton polygon, and their words
    names = ["nonisolated", "degenerate", "lift2", "lift3", "lift4"]
    compared = 0
    for name, word in (param.values for param in _words()):
        if name in names:
            p = CORPUS[name][0]
            for q in (p, transport(p, word)):
                g = comparable_g(q)
                assert outcome(monomialize, g) == outcome(reference_monomialize, g), name
                compared += 1
    assert compared == 2 * len(names) * WORDS_PER_INPUT


def test_seeded_squares_of_two_lines():
    rng = random.Random(38)
    root_frame_accepts = x_frame_witnesses = 0
    for _ in range(50):
        g = seeded_squares(rng)
        got = outcome(monomialize, g)
        assert got == outcome(reference_monomialize, g), format_poly(g)
        if isinstance(got, closure.MonomialIdealIC):
            root_frame_accepts += got.change[0] not in ((1, 0), (1, -1))
        elif got[1] is not None:
            # a root frame has a negative face as well, so this witness
            # holds only while the search keeps the listed order
            x_frame_witnesses += got[1]["change"] == ((1, 0), (0, 1))
    assert root_frame_accepts > 0 and x_frame_witnesses > 0
