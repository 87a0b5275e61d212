"""No case tag or verdict depends on the truncation order.

--order sets only how far phi, the Principal H and q0 reach.  Every input
of the benchmark's four workloads at seed 0 gets the same case, L_or_K,
generators, H (outside Principal) and membership verdicts at every order
from 1 to 14, and an input that breaks a degree-1 condition of the branch
is rejected at every order, however far past it the offending term of phi
lies.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from numideal.engine import CaseTag, membership, numerator_ideal
from numideal.errors import SanityViolation
from numideal.parsing import format_poly, parse

ROOT = Path(__file__).resolve().parent.parent
ORDERS = range(1, 15)


@pytest.fixture(scope="module")
def workloads():
    # load bench/workloads.py by path; its dataclasses look their module up
    # in sys.modules
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _answers(inp, order):
    """What `analyze` and `member` decide for one input at one order."""
    desc = numerator_ideal(inp.p, order=order)
    return (
        desc.case,
        desc.L_or_K,
        tuple(format_poly(g) for g in desc.generators),
        None if desc.case is CaseTag.PRINCIPAL else format_poly(desc.H),
        tuple(
            membership(inp.p, check.q, order=order, ideal=desc).verdict
            for check in inp.checks
        ),
    )


@pytest.mark.parametrize("workload", ["worked", "degenerate", "wide", "random"])
def test_answers_do_not_depend_on_the_order(workloads, workload):
    for inp in workloads.build(workload, 0):
        first = _answers(inp, ORDERS[0])
        for order in ORDERS[1:]:
            assert _answers(inp, order) == first, (inp.name, order)


@pytest.mark.parametrize("order", ORDERS)
def test_zero_gradient_term_past_the_order_is_rejected(order):
    # phi = x + i*x^2 + y^13 does not vanish on the y-axis, where the
    # gradient is zero; its y^13 lies past every order below 13
    with pytest.raises(SanityViolation, match="zero-gradient subspace"):
        numerator_ideal(parse("z + x + i*x^2 + y^13"), order=order)
