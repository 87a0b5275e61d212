"""Acceptance criteria, one test per criterion, each printing a PASS line.

Every tolerance and time limit is pinned here: exact string matches are
after canonicalization by the package's own printer, the comparability
interval width bound is 10 over dyadic radii 2^-4..2^-10, and the runtime
limits are 1 s (criteria 1-2), 10 s (criterion 3), and 30 s (criterion 5).
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from numideal.branch import classify, solve_branch
from numideal.closure import ic_generators, ic_membership, monomialize
from numideal.construct import random_stable_polynomial, iterated_composition
from numideal.engine import (
    CaseTag,
    Verdict,
    boundedness_oracle,
    membership,
    numerator_ideal,
)
from numideal.examples import p2 as iterated2
from numideal.forms import binary_form, is_positive_definite
from numideal.parsing import format_poly, parse
from numideal.poly import MultiPoly

from comparability import comparability_ratio, sampled_circle_min


def canonical(text, vars=None):
    return format_poly(parse(text, vars=vars))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "numideal.cli", *args],
        capture_output=True,
        text=True,
    )


def report(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_linear3_exact(linear3):
    start = time.monotonic()
    res = run_cli(
        "analyze", "x + y + z - 2*i*(x*y + x*z + y*z) - 3*x*y*z", "--format", "json"
    )
    elapsed = time.monotonic() - start
    data = json.loads(res.stdout)
    assert data["generators"] == [
        canonical("x + y + z"),
        canonical("x^2", vars=("x", "y", "z")),
        canonical("x*y", vars=("x", "y", "z")),
        canonical("y^2", vars=("x", "y", "z")),
    ]
    assert data["im_part"] == canonical("2*(x^2 + x*y + y^2)", vars=("x", "y"))
    # the subprocess includes interpreter startup; the library call itself
    # must be well under the 1 s budget
    t0 = time.monotonic()
    numerator_ideal(linear3)
    assert time.monotonic() - t0 < 1.0
    assert elapsed < 5.0
    report(1, "linear3 ideal (x+y+z, x^2, x*y, y^2) and Im phi_2 exact")


def test_criterion_2_nonisolated_exact(nonisolated):
    t0 = time.monotonic()
    desc = numerator_ideal(nonisolated)
    elapsed = time.monotonic() - t0
    assert [format_poly(g) for g in desc.generators] == [
        canonical("x + y + z - x*y*z"),
        canonical("(x + y)^2", vars=("x", "y", "z")),
    ]
    assert elapsed < 1.0
    report(2, "nonisolated ideal (x+y+z-xyz, (x+y)^2) exact in %.3fs" % elapsed)


def test_criterion_3_degenerate_pipeline(degenerate, degenerate_g):
    t0 = time.monotonic()
    desc = numerator_ideal(degenerate)
    # branch solve + comparability of Im phi with the closed-form g; the
    # ideal reads phi only through K, so compare the order-12 series
    im_phi = solve_branch(degenerate, 12).phi.poly.imag_part()
    f = lambda x, y: im_phi.eval_complex((x, y)).real
    g = lambda x, y: degenerate_g.eval_complex((x, y)).real
    comp = comparability_ratio(f, g, [2.0**-k for k in range(4, 11)])
    elapsed = time.monotonic() - t0
    assert not comp.fail
    assert comp.width < 10.0
    assert desc.case is CaseTag.ISOLATED_DEGENERATE
    assert desc.L_or_K == 4
    assert format_poly(desc.H) == canonical(
        "1/2*(x + y) + 1/8*(x^3 + 7*x^2*y + 7*x*y^2 + y^3)", vars=("x", "y")
    )
    expected = [
        canonical(
            "z + 1/2*(x + y) + 1/8*(x^3 + 7*x^2*y + 7*x*y^2 + y^3)",
            vars=("x", "y", "z"),
        ),
        canonical("(x - y)^2", vars=("x", "y", "z")),
        canonical("(x - y)*(x + y)^2", vars=("x", "y", "z")),
        canonical("x^4", vars=("x", "y", "z")),
        canonical("x^3*y", vars=("x", "y", "z")),
        canonical("x^2*y^2", vars=("x", "y", "z")),
        canonical("x*y^3", vars=("x", "y", "z")),
        canonical("y^4", vars=("x", "y", "z")),
    ]
    assert [format_poly(g_) for g_ in desc.generators] == expected
    assert elapsed < 10.0
    report(
        3,
        "degenerate pipeline: K=4, H and generators exact, "
        f"ratio width {comp.width:.2f} < 10, {elapsed:.2f}s < 10s",
    )


def test_criterion_4_integral_closure_table():
    g = parse("(x - y)^2 + (x^2 + y^2)*(x + y)^2", vars=("x", "y"))
    ic = monomialize(g)
    # (u, v) = (x - y, x + y); the worked verdict table
    table = {
        "(x - y)^2": True,  # u^2
        "(x - y)*(x + y)^2": True,  # u v^2
        "(x - y)*(x + y)^3": True,  # u v^3
        "(x + y)^4": True,  # v^4
        "(x - y)*(x + y)": False,  # uv
        "(x + y)^2": False,  # v^2
        "(x + y)^3": False,  # v^3
    }
    for text, expected in table.items():
        verdict, _cert = ic_membership(parse(text, vars=("x", "y")), ic)
        assert verdict == expected, text
    report(4, "IC table for G = u^2 + u^2 v^2 + v^4: all 7 verdicts exact")


def test_criterion_5_iterated_family():
    t0 = time.monotonic()
    for L in (1, 2, 3):
        pL = iterated_composition(L)
        cls = classify(solve_branch(pL, 2 * L + 2))
        assert cls.L == L, f"first non-real index {2 * cls.L} != {2 * L}"
        assert cls.definite is True
    # the worked L = 2 example: ideal equals (z + H, (x^2+y^2)^2) with
    # H = x + y + 2(x^3 + 2x^2 y + 2x y^2 + y^3)
    p2 = iterated2()
    desc = numerator_ideal(p2)
    assert desc.case is CaseTag.DEFINITE
    assert format_poly(desc.H) == canonical(
        "x + y + 2*(x^3 + 2*x^2*y + 2*x*y^2 + y^3)", vars=("x", "y")
    )
    # ideal equality: same z + H generator, and the monomial part equals
    # IC((x^2+y^2)^2) exactly (minimal generators = all degree-4 monomials)
    assert format_poly(desc.generators[0]) == canonical(
        "z + x + y + 2*(x^3 + 2*x^2*y + 2*x*y^2 + y^3)", vars=("x", "y", "z")
    )
    emitted_monomials = {format_poly(g) for g in desc.generators[1:]}
    circle_ic = monomialize(parse("(x^2 + y^2)^2", vars=("x", "y")))
    gens, _ = ic_generators(circle_ic)
    assert {format_poly(g) for g in gens} == {
        "x^4", "x^3*y", "x^2*y^2", "x*y^3", "y^4",
    } == emitted_monomials
    # and (x^2+y^2)^2 itself is a member of the emitted ideal
    v = membership(p2, parse("(x^2 + y^2)^2", vars=p2.vars), ideal=desc)
    assert v.verdict is Verdict.IN_IDEAL
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(5, f"iterated family L=1,2,3 classified; L=2 ideal matches, {elapsed:.2f}s < 30s")


def test_criterion_6_contact_lift_structural(p2_stable):
    # generated input with contact order 4: the diagonal restriction of the
    # L = 2 polynomial
    from numideal.construct import contact_order, contact_order_lift

    t = MultiPoly.variable(("t", "y"), "t")
    yv = MultiPoly.variable(("t", "y"), "y")
    q2 = p2_stable.subs({"x": t, "y": t, "z": yv}).rename_vars({"t": "x"})
    assert contact_order(q2) == 4
    out = contact_order_lift(q2)
    sol = solve_branch(out, 4)
    im = sol.phi.poly.imag_part()
    assert not im.homogeneous_part(2).is_zero()
    xdiag = MultiPoly.variable(("x",), "x")
    diag = im.subs({"x": xdiag, "y": xdiag})
    for k in range(4):
        assert diag.homogeneous_part(k).is_zero(), f"Im phi_{k}(x,x) != 0"
    report(6, "contact-order lift: Im phi_2 != 0, Im phi_k(x,x) = 0 for k < 4, exact")


def test_criterion_7_property_suites(linear3, nonisolated, degenerate):
    order = 8
    rng = random.Random(20240815)
    batch = [random_stable_polynomial(rng) for _ in range(50)]

    # (a) branch residual on 50 construction-derived stable polynomials
    for p in batch:
        sol = solve_branch(p, order)
        res = p.subs({"z": -sol.phi.poly}).min_degree()
        assert res is None or res > order

    # (b) reflect involution and membership(p, reflect(p)) = InIdeal
    for p in batch:
        assert p.reflect().reflect() == p
        desc = numerator_ideal(p, order=order)
        v = membership(p, p.reflect(), order=order, ideal=desc)
        assert v.verdict is Verdict.IN_IDEAL

    # (c) Sturm definiteness vs 10^4-point grid oracle on 100 random forms
    rng2 = random.Random(20240813)
    checked = 0
    while checked < 100:
        degree = rng2.choice([2, 4, 6])
        terms = {
            (k, degree - k): Fraction(rng2.randint(-9, 9)) for k in range(degree + 1)
        }
        p = MultiPoly(("x", "y"), terms)
        if p.is_zero():
            continue
        verdict = is_positive_definite(binary_form(p))
        assert verdict == (sampled_circle_min(p, 10_000) > 0)
        checked += 1

    # (d) oracle/symbolic agreement on all worked (p, q) pairs
    pairs = [
        (linear3, "x^2", True),
        (linear3, "x*y", True),
        (linear3, "y^2", True),
        (linear3, "x + y + z", True),
        (linear3, "x", False),
        (linear3, "1", False),
        (nonisolated, "(x + y)^2", True),
        (nonisolated, "x + y + z - x*y*z", True),
        (nonisolated, "x + y", False),
        (nonisolated, "z", False),
        (degenerate, "(x - y)^2", True),
        (degenerate, "(x - y)*(x + y)^2", True),
        (degenerate, "(x + y)^4", True),
        (degenerate, "(x + y)^3", False),
        (degenerate, "(x - y)*(x + y)", False),
        (degenerate, "(x + y)^2", False),
    ]
    disagreements = 0
    for p, text, expected in pairs:
        desc = numerator_ideal(p)
        q = parse(text, vars=p.vars)
        v = membership(p, q, ideal=desc)
        assert (v.verdict is Verdict.IN_IDEAL) == expected, text
        oracle = boundedness_oracle(p, q, ideal=desc)
        if oracle["divergent"] != (not expected):
            disagreements += 1
    assert disagreements == 0
    report(
        7,
        "50 residuals, 50 reflect-memberships, 100 Sturm/grid agreements, "
        f"{len(pairs)} oracle agreements: zero failures",
    )


def test_criterion_8_branch_sanity_battery():
    rng = random.Random(77)
    order = 8
    violations = 0
    batch = [random_stable_polynomial(rng) for _ in range(20)]
    batch += [iterated_composition(L) for L in (1, 2, 3)]
    batch.append(iterated2())
    for p in batch:
        sol = solve_branch(p, order)
        for g in sol.grad0:
            assert g.is_real() and g.re >= 0
        cls = classify(sol)  # raises SanityViolation on any parity failure
        if cls.L is not None:
            assert (2 * cls.L) % 2 == 0
            # nonnegativity on 10^3 sampled directions
            im = cls.im_part_2L
            for k in range(1000):
                a = 2 * math.pi * k / 1000
                val = im.eval_complex((math.cos(a), math.sin(a))).real
                assert val >= -1e-12
    assert violations == 0
    report(8, f"branch sanity battery on {len(batch)} construction inputs: zero violations")
