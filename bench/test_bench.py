"""Tests of the benchmark's own input generators; not part of tier-1.

    python3 -m pytest bench -q
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


def _eval(poly, point):
    """poly at a rational point, summed from its terms (re, im)."""
    re = im = Fraction(0)
    for exps, c in poly.terms.items():
        m = Fraction(1)
        for x, k in zip(point, exps):
            m *= x**k
        re += c.re * m
        im += c.im * m
    return re, im


def _digest(workload, seed):
    return [
        [
            inp.name,
            inp.text,
            inp.order,
            [[c.label, c.text, c.in_ideal] for c in inp.checks],
            inp.case,
            inp.L_or_K,
            inp.oracle,
            inp.cli,
        ]
        for inp in workloads.build(workload, seed)
    ]


def test_rescale_is_the_linear_change():
    p = workloads.examples.degenerate()
    rng = random.Random(1)
    for a, b in [(Fraction(2), Fraction(1, 3)), (Fraction(3, 2), Fraction(4))]:
        pab = workloads.rescale(p, a, b)
        for _ in range(5):
            x, y, z = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            assert _eval(pab, (x, y, z)) == _eval(p, (a * x, b * y, z))
        assert workloads.rescale(pab, 1 / a, 1 / b) == p


@pytest.mark.parametrize("seed", [0, 7])
def test_degenerate_transports_p_and_q_with_the_same_scales(seed):
    base, *rescaled = workloads.build("degenerate", seed)
    x_scales = []
    for inp in rescaled:
        # the linear terms 1/2*x + 1/2*y of p recover the scales
        a = inp.p.coefficient((1, 0, 0)).re / base.p.coefficient((1, 0, 0)).re
        b = inp.p.coefficient((0, 1, 0)).re / base.p.coefficient((0, 1, 0)).re
        x_scales.append(a)
        assert inp.p == workloads.rescale(base.p, a, b)
        assert [c.label for c in inp.checks] == [c.label for c in base.checks]
        for check, ref in zip(inp.checks, base.checks):
            assert check.q == workloads.rescale(ref.q, a, b)
            assert check.in_ideal == ref.in_ideal
        assert (inp.case, inp.L_or_K) == ("IsolatedDegenerate", 4)
    assert sorted(x_scales) == sorted(workloads.SCALES)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_the_same_inputs(workload):
    first = _digest(workload, 3)
    assert _digest(workload, 3) == first
    # and in a fresh interpreter with another string-hash seed
    code = f"import json, test_bench; print(json.dumps(test_bench._digest({workload!r}, 3)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=BENCH,
        env={**os.environ, "PYTHONHASHSEED": "123"},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out) == first


def test_seeds_draw_or_order_the_inputs():
    for workload in ("degenerate", "wide"):
        assert _digest(workload, 0) != _digest(workload, 1)
    for workload in ("worked", "random"):
        assert sorted(_digest(workload, 0)) == sorted(_digest(workload, 1))


def test_wide_inputs_have_three_and_four_x_variables_and_deg_z_1():
    inputs = workloads.build("wide", 5)
    assert sorted(len(inp.p.vars) - 1 for inp in inputs) == [3, 3, 4, 4]
    assert all(inp.p.var_degree("z") == 1 for inp in inputs)


def test_random_is_the_criterion_7_batch():
    rng = random.Random(workloads.RANDOM_BATCH_SEED)
    batch = {
        workloads.format_poly(workloads.construct.random_stable_polynomial(rng))
        for _ in range(workloads.RANDOM_BATCH_SIZE)
    }
    assert {inp.text for inp in workloads.build("random", 0)} == batch


def test_known_wrong_answers_name_real_fields():
    for inp in workloads.build("worked", 0):
        labels = {c.label for c in inp.checks} | {"case", "L_or_K"}
        assert set(inp.known_wrong) <= labels


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
