"""Parts that are computed on their first read give what the eager
computation gives.

`membership` decides Definite on q(x, -H(x)) through degree 2L - 1 and
IsolatedDegenerate through degree K - 1, runs no substitution for LinearForm,
and leaves the reduced numerator and the certificate to their first read.
The reference here is eager: it reduces q through the working order, then
decides, as `membership` did before it read only the degrees that decide.
Verdict, witness, reduced numerator and certificate must agree on seeded
numerators of z-degree 0-3, over the worked examples, the iterated family,
criterion-7 polynomials and their images under the maps of `transport`, with
each ideal built at another order than the `membership` call.

`IdealDescription.reducer` runs the subresultant sequence on its first read
only, so `analyze` never runs it and one ideal runs it once.  The branch
solver's degree loop runs each degree once per ideal: through 2L, through
ord R where phi is real through the order, and through K for
IsolatedDegenerate; an ideal whose own solve stopped below its working
order solves phi through that order only when its branch is read.
"""

import random
from fractions import Fraction

import pytest

from numideal import resultant
from numideal.branch import solve_branch
from numideal.cli import main
from numideal.closure import ic_membership
from numideal.construct import contact_order_lift, iterated_composition
from numideal.engine import (
    CaseTag,
    MembershipVerdict,
    Verdict,
    _direction_witness,
    _linear_form_witness,
    membership,
    numerator_ideal,
)
from numideal.examples import EXAMPLES
from numideal.gaussian import GaussianRational
from numideal.parsing import format_poly, parse
from numideal.poly import MultiPoly
from numideal.resultant import primitive_gcd, pseudo_remainder
from test_transport import CORPUS
from transport import LINEAR_MAPS, UNIT_FACTORS, X_MAPS, Z_MAPS, label, transport

# (order of the ideal, order of the membership call): each order once on
# each side, never the same on both
ORDERS = [(4, 12), (8, 4), (12, 8)]
NUMERATORS_PER_ORDER = 5


def eager_membership(p, q, order, ideal):
    """The verdict with q reduced through the working order first."""
    if q.vars != p.vars:
        q = q.embed(p.vars)
    phi = ideal.branch.phi
    if ideal.case is CaseTag.PRINCIPAL:
        reduced = q.subs({"z": -phi.poly}, phi.order)
        if q.is_zero() or primitive_gcd(q, p).coefficient((0,) * len(p.vars)).is_zero():
            return MembershipVerdict(Verdict.IN_IDEAL, reduced)
        return MembershipVerdict(
            Verdict.NOT_IN_IDEAL, reduced, witness=_direction_witness(reduced, ideal)
        )
    if ideal.case is CaseTag.LINEAR_FORM:
        reduced = q.subs({"z": -phi.poly.real_part()}, phi.order)
        exact = pseudo_remainder(q, ideal.reducer).slices("z").get(0)
        exact = exact if exact is not None else MultiPoly.zero(p.vars[:-1])
        axis = 0 if ideal.ic.newton_points[0][1] == 0 else 1
        j = min((e[axis] for e in ideal.ic.to_uv(exact).rows), default=None)
        if j is None or j >= ideal.L_or_K:
            power = f"({format_poly(ideal.linear_form)})^{ideal.L_or_K}"
            return MembershipVerdict(
                Verdict.IN_IDEAL, reduced, certificate={"divisible_by": power}
            )
        return MembershipVerdict(
            Verdict.NOT_IN_IDEAL, reduced, witness=_linear_form_witness(j, ideal)
        )
    reduced = q.subs({"z": -ideal.H}, max(order, phi.order))
    if ideal.case is CaseTag.DEFINITE:
        needs = 2 * ideal.L_or_K
        md = reduced.min_degree()
        if md is None or md >= needs:
            return MembershipVerdict(
                Verdict.IN_IDEAL, reduced, certificate={"min_degree": md, "needs": needs}
            )
        return MembershipVerdict(
            Verdict.NOT_IN_IDEAL, reduced, witness=_direction_witness(reduced, ideal)
        )
    ok, cert = ic_membership(reduced, ideal.ic)
    if ok:
        return MembershipVerdict(Verdict.IN_IDEAL, reduced, certificate=cert)
    return MembershipVerdict(Verdict.NOT_IN_IDEAL, reduced, witness=cert)


def _inputs():
    """(name, p): test_transport's corpus, then each worked example under
    one seeded map of each family of `transport`, a Moebius map of x
    left out for nonisolated, whose zero line it bends (ROADMAP item 2)."""
    out = [(name, p) for name, (p, _) in CORPUS.items()]
    rng = random.Random(37)
    for name in ("linear3", "nonisolated", "degenerate", "p2"):
        families = [Z_MAPS, LINEAR_MAPS, UNIT_FACTORS]
        if name != "nonisolated":
            families.insert(0, X_MAPS)
        for family in families:
            step = rng.choice(family)
            out.append((f"{name}: {label(step)}", transport(EXAMPLES[name](), [step])))
    return out


INPUTS = dict(_inputs())


def _numerators(rng, ideal, count):
    """Seeded numerators of z-degree 0-3 with small Gaussian-rational
    coefficients: random sums, combinations of the generators, and such a
    combination plus a term just below the degree that decides (2L for
    Definite and LinearForm, K for IsolatedDegenerate) or terms at and above
    it."""
    vars = ideal.generators[0].vars
    d = len(vars) - 1
    top = ideal.L_or_K * (2 if ideal.case is CaseTag.DEFINITE else 1) or 2

    def coefficient():
        return GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
        )

    def monomial(degree, z_degree):
        xs = [0] * d
        for _ in range(degree - z_degree):
            xs[rng.randrange(d)] += 1
        return tuple(xs) + (z_degree,)

    def poly(low, high, terms=3):
        out = {}
        for _ in range(terms):
            degree = rng.randint(low, high)
            out[monomial(degree, rng.randint(0, min(3, degree)))] = coefficient()
        return MultiPoly(vars, out)

    def combination():
        q = MultiPoly.zero(vars)
        for gen in rng.sample(ideal.generators, min(3, len(ideal.generators))):
            q = q + gen * poly(0, 2)
        return q

    kinds = [
        lambda: poly(1, top + 1),
        combination,
        # a term with z of degree 2L - 1 or K - 1, where a cut below that
        # degree would read nothing
        lambda: combination() + MultiPoly(
            vars, {monomial(top - 1, rng.randint(1, min(3, top - 1))): coefficient()}
        ),
        lambda: combination() + poly(top, top + 2),
        lambda: MultiPoly.variable(vars, "z") ** rng.randint(1, 3) + poly(top, top + 1, 1),
    ]
    return [kinds[k % len(kinds)]() for k in range(count)]


@pytest.mark.parametrize("name", list(INPUTS))
def test_lazy_membership_matches_the_eager_reduction(name):
    p = INPUTS[name]
    rng = random.Random(f"first read {name}")
    verdicts = set()
    for ideal_order, order in ORDERS:
        ideal = numerator_ideal(p, order=ideal_order)
        for q in _numerators(rng, ideal, NUMERATORS_PER_ORDER):
            got = membership(p, q, order=order, ideal=ideal)
            want = eager_membership(p, q, order, ideal)
            what = f"{format_poly(q)} at orders {ideal_order}, {order}"
            # the verdict and witness before any lazy field is read
            assert (got.verdict, got.witness) == (want.verdict, want.witness), what
            assert got.reduced_numerator == want.reduced_numerator, what
            assert got.certificate == want.certificate, what
            assert got == want, what
            verdicts.add(got.verdict)
    assert verdicts == {Verdict.IN_IDEAL, Verdict.NOT_IN_IDEAL}


def test_the_inputs_hold_every_case_but_principal():
    cases = {numerator_ideal(p, order=4).case for p in INPUTS.values()}
    assert cases == set(CaseTag) - {CaseTag.PRINCIPAL}


# nonisolated times the first unit factor: LinearForm with deg_z 2, whose
# reducer is not the first generator
LINEAR_FORM_DEG_Z_2 = transport(EXAMPLES["nonisolated"](), UNIT_FACTORS[:1])


@pytest.fixture
def subresultant_calls(monkeypatch):
    calls = []
    original = resultant.subresultants

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(resultant, "subresultants", counted)
    return calls


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_never_runs_the_subresultant_sequence(subresultant_calls, fmt, capsys):
    p = LINEAR_FORM_DEG_Z_2
    assert p.var_degree("z") == 2
    assert main(["analyze", format_poly(p), "--format", fmt]) == 0
    assert "LinearForm" in capsys.readouterr().out
    assert subresultant_calls == []


def test_one_ideal_runs_the_subresultant_sequence_once(subresultant_calls):
    p = LINEAR_FORM_DEG_Z_2
    ideal = numerator_ideal(p)
    assert ideal.case is CaseTag.LINEAR_FORM
    assert subresultant_calls == []
    verdicts = [
        membership(p, parse(text, vars=p.vars), ideal=ideal).verdict
        for text in ("(x + y)^2", "x + y", "z", "z^2")
    ]
    assert verdicts == [
        Verdict.IN_IDEAL,
        Verdict.NOT_IN_IDEAL,
        Verdict.NOT_IN_IDEAL,
        Verdict.IN_IDEAL,
    ]
    assert len(subresultant_calls) == 1
    assert ideal.reducer != ideal.generators[0]


def test_isolated_degenerate_solves_through_k_once(solved_degrees):
    # the solve that stopped at 2L = 2 continues through K = 4
    ideal = numerator_ideal(EXAMPLES["degenerate"](), order=12)
    assert (ideal.case, ideal.L_or_K) == (CaseTag.ISOLATED_DEGENERATE, 4)
    assert solved_degrees == [1, 2, 3, 4]
    # branch, phi through the working order, is solved afresh on first read
    assert ideal.working_order == 12
    assert ideal.branch.phi.order == 12
    assert solved_degrees == [1, 2, 3, 4] + list(range(1, 13))


@pytest.mark.parametrize(
    "p, order, top",
    [
        # phi is real through 12, and the solve continues through ord R = 14
        (iterated_composition(7), 12, 14),
        # the solve stops at 2L = 2 and continues through K = 8, past the order
        (contact_order_lift(iterated_composition(4, n_vars=2)), 4, 8),
    ],
    ids=["iterated7", "lift4"],
)
def test_one_solve_runs_past_the_order(solved_degrees, p, order, top):
    ideal = numerator_ideal(p, order=order)
    assert solved_degrees == list(range(1, top + 1))
    assert ideal.working_order == top
    # the ideal's own solve is its branch, as the fresh solve would give it
    assert ideal.branch == solve_branch(p, top)
    assert solved_degrees == list(range(1, top + 1)) + list(range(1, top + 1))


def test_definite_verdicts_solve_nothing_past_2l(solved_degrees):
    p = EXAMPLES["linear3"]()
    ideal = numerator_ideal(p, order=12)
    assert (ideal.case, ideal.L_or_K) == (CaseTag.DEFINITE, 1)
    assert solved_degrees == [1, 2]
    verdicts = [
        membership(p, parse(text, vars=p.vars), ideal=ideal)
        for text in ("x^2", "x", "x^2 + x^12 + x^13")
    ]
    assert [v.verdict for v in verdicts] == [
        Verdict.IN_IDEAL,
        Verdict.NOT_IN_IDEAL,
        Verdict.IN_IDEAL,
    ]
    for v in verdicts:
        v.reduced_numerator, v.certificate
    assert solved_degrees == [1, 2]
    # the reduced numerator reaches the working order, not the branch's 2L
    assert verdicts[2].reduced_numerator == parse("x^2 + x^12", vars=p.vars[:-1])


def test_linear_form_solves_past_2l_on_the_first_read_of_branch(solved_degrees):
    p = EXAMPLES["nonisolated"]()
    ideal = numerator_ideal(p, order=12)
    assert (ideal.case, ideal.L_or_K) == (CaseTag.LINEAR_FORM, 2)
    assert solved_degrees == [1, 2]
    verdicts = [
        membership(p, parse(text, vars=p.vars), ideal=ideal)
        for text in ("(x + y)^2", "x + y", "z")
    ]
    assert [v.verdict for v in verdicts] == [
        Verdict.IN_IDEAL,
        Verdict.NOT_IN_IDEAL,
        Verdict.NOT_IN_IDEAL,
    ]
    assert solved_degrees == [1, 2]
    # the reduced numerator reads phi through the order, solved afresh once
    verdicts[0].reduced_numerator
    assert solved_degrees == [1, 2] + list(range(1, 13))
    assert ideal.branch.phi.order == 12
    verdicts[1].reduced_numerator
    assert solved_degrees == [1, 2] + list(range(1, 13))
