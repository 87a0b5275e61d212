"""CLI commands, exit codes, JSON schema, determinism, golden files."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from numideal.cli import main
from numideal.parsing import format_poly
from numideal.poly import MultiPoly

GOLDEN = Path(__file__).parent / "golden"
LINEAR3 = "x + y + z - 2*i*(x*y + x*z + y*z) - 3*x*y*z"
# Res_z(p, pbar) of the degenerate example, made real and primitive
DEGENERATE_EXACT_G = (
    "4*x^2 - 8*x*y + 4*y^2 + 15*x^4 + 34*x^2*y^2 + 15*y^4"
    " + 56*x^4*y^2 + 16*x^3*y^3 + 56*x^2*y^4 + 64*x^4*y^4"
)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "numideal.cli", *args],
        capture_output=True,
        text=True,
    )


class TestAnalyze:
    def test_linear3_text(self):
        res = run_cli("analyze", LINEAR3)
        assert res.returncode == 0
        assert "case: Definite" in res.stdout
        for gen in ("x + y + z", "x^2", "x*y", "y^2"):
            assert f"  {gen}\n" in res.stdout

    def test_trivial_principal(self):
        res = run_cli("analyze", "z + x")
        assert res.returncode == 0
        assert "case: Principal" in res.stdout
        assert "x + z" in res.stdout

    def test_degenerate_has_four_generator_kinds(self):
        from tests.conftest import DEGENERATE_TEXT

        res = run_cli("analyze", DEGENERATE_TEXT)
        assert res.returncode == 0
        assert "case: IsolatedDegenerate" in res.stdout
        assert "x^2 - 2*x*y + y^2" in res.stdout

    def test_degenerate_g_is_exact(self):
        from tests.conftest import DEGENERATE_TEXT

        res = run_cli("analyze", DEGENERATE_TEXT)
        assert f"g = {DEGENERATE_EXACT_G}\n" in res.stdout
        res = run_cli("analyze", DEGENERATE_TEXT, "--format", "json")
        assert json.loads(res.stdout)["g"] == DEGENERATE_EXACT_G

    def test_shared_root_exit_2(self):
        from tests.conftest import DEGENERATE_TEXT

        shared = "(x + z + 1)*(x + y + z + i) - x^2"
        res = run_cli("analyze", f"({DEGENERATE_TEXT})*({shared})")
        assert res.returncode == 2
        assert "share the root z = -1" in res.stderr
        assert "out of scope" in res.stderr

    def test_factor_shared_with_pbar_keeps_the_ideal(self):
        from tests.conftest import DEGENERATE_TEXT

        res = run_cli("analyze", f"({DEGENERATE_TEXT})*(1 - x*z)")
        assert res.returncode == 0
        # every line after the echo of p is the same as for p alone
        base = run_cli("analyze", DEGENERATE_TEXT).stdout
        assert res.stdout.split("\n")[1:] == base.split("\n")[1:]

    def test_golden_json(self):
        res = run_cli("analyze", LINEAR3, "--format", "json")
        assert res.stdout == (GOLDEN / "linear3_analyze.json").read_text()

    def test_unread_flag_rejected(self):
        # analyze runs no oracle, so it takes no --eps
        res = run_cli("analyze", LINEAR3, "--eps", "1")
        assert res.returncode == 2
        assert "unrecognized arguments: --eps 1" in res.stderr

    def test_parse_error_exit_1(self):
        res = run_cli("analyze", "x + (")
        assert res.returncode == 1
        assert "parse error" in res.stderr

    def test_sampled_definiteness_is_labelled(self):
        from numideal.construct import iterated_composition
        from numideal.parsing import format_poly

        # Im phi_4 in three x-variables: the one decision still sampled
        text = format_poly(iterated_composition(2, n_vars=4))
        res = run_cli("analyze", text, "--order", "4")
        assert res.returncode == 0
        assert "(positive definite, sampled)\n" in res.stdout
        res = run_cli("analyze", LINEAR3)
        assert "(positive definite)\n" in res.stdout

    def test_precondition_exit_2(self):
        res = run_cli("analyze", "1 + z")
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_unreadable_file_is_a_parse_error(self, tmp_path):
        missing = tmp_path / "missing.txt"
        res = run_cli("analyze", f"@{missing}")
        assert res.returncode == 1
        assert res.stderr.startswith(f"parse error: cannot read {missing}: ")
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_non_positive_order_exit_2(self, order):
        res = run_cli("analyze", "z + x", "--order", order)
        assert res.returncode == 2
        assert res.stderr == "error: order must be at least 1\n"
        assert res.stdout == ""

    def test_json_schema(self):
        res = run_cli("analyze", LINEAR3, "--format", "json")
        data = json.loads(res.stdout)
        assert isinstance(data["case"], str)
        assert isinstance(data["generators"], list)
        assert all(isinstance(s, str) for s in data["generators"])
        assert isinstance(data["H"], str)
        assert isinstance(data["L_or_K"], int)
        assert data["g"] is None or isinstance(data["g"], str)


class TestMember:
    def test_in_ideal_exit_0(self):
        res = run_cli("member", LINEAR3, "x^2")
        assert res.returncode == 0
        assert "InIdeal" in res.stdout

    def test_not_in_ideal_exit_3(self):
        res = run_cli("member", LINEAR3, "x")
        assert res.returncode == 3
        assert "NotInIdeal" in res.stdout
        assert "witness" in res.stdout

    def test_p_over_p_trivial(self):
        res = run_cli("member", LINEAR3, LINEAR3)
        assert res.returncode == 0

    def test_l7_verdicts_at_order_12(self):
        from numideal.construct import iterated_composition
        from numideal.parsing import format_poly

        text = format_poly(iterated_composition(7))
        res = run_cli("member", text, "x^13", "--order", "12")
        assert res.returncode == 3
        assert "NotInIdeal" in res.stdout
        res = run_cli("member", text, "x^14", "--order", "12")
        assert res.returncode == 0
        assert "InIdeal" in res.stdout

    def test_principal_x13_not_in_ideal(self):
        # x^13 vanishes on the branch z = -x only through the order
        res = run_cli("member", "(z + x)*(z + 1)", "x^13")
        assert res.returncode == 3
        assert "NotInIdeal" in res.stdout
        assert "q0 = q(x, -H(x)) = 0" in res.stdout

    def test_linear_form_q0_is_reduced_by_re_phi(self):
        # LinearForm reduces q by Re phi through phi's order, not by the
        # reported H = x + y, and the label says so
        from numideal.engine import membership
        from numideal.examples import nonisolated
        from numideal.parsing import parse

        p = nonisolated()
        res = run_cli("member", format_poly(p), "z")
        assert res.returncode == 3
        reduced = membership(p, parse("z", vars=p.vars)).reduced_numerator
        assert f"q0 = q(x, -Re phi(x)) = {format_poly(reduced)}\n" in res.stdout
        assert "-H(x)" not in res.stdout
        assert reduced != parse("-x - y", vars=reduced.vars)

    def test_numerator_variable_not_in_p(self):
        res = run_cli("member", "z + y", "x")
        assert res.returncode == 1
        assert res.stderr.startswith("parse error:")
        assert "'x'" in res.stderr and "('y', 'z')" in res.stderr
        assert "Traceback" not in res.stderr

    def test_oracle_flags(self):
        res = run_cli("member", LINEAR3, "x", "--oracle", "--eps", "0.1", "--grid", "2")
        assert res.returncode == 3
        assert "oracle sup ~" in res.stdout

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--grid", "0"], "refinement levels"),
            (["--grid", "-2"], "refinement levels"),
            (["--grid", "1"], "refinement levels"),
            (["--eps", "0"], "finite and positive"),
            (["--eps", "nan"], "finite and positive"),
            # eps / 2^1099 is below the least subnormal float
            (["--grid", "1100"], "use --grid 535 or less"),
            # (1e-100 / 2^249)^2 is about 1e-350
            (["--eps", "1e-100", "--grid", "250"], "use --grid 206 or less"),
            (["--eps", "1e-200", "--grid", "2"], "use a larger --eps"),
            # the sampled coordinates near eps overflow their powers
            (["--eps", "1e200"], "use a smaller --eps"),
        ],
    )
    def test_oracle_setting_that_cannot_be_judged_exit_2(self, flags, reason):
        res = run_cli("member", LINEAR3, "x^2", "--oracle", *flags)
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and reason in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

    def test_oracle_flag_json(self):
        res = run_cli("member", LINEAR3, "x^2", "--oracle", "--format", "json")
        data = json.loads(res.stdout)
        assert data["verdict"] == "InIdeal"
        assert data["oracle"]["divergent"] is False


# the numerators of acceptance criterion 7(d) and, for p2, criterion 5
ORACLE_NUMERATORS = {
    "linear3": ["x^2", "x*y", "y^2", "x + y + z", "x", "1"],
    "nonisolated": ["(x + y)^2", "x + y + z - x*y*z", "x + y", "z"],
    "degenerate": [
        "(x - y)^2",
        "(x - y)*(x + y)^2",
        "(x + y)^4",
        "(x + y)^3",
        "(x - y)*(x + y)",
        "(x + y)^2",
    ],
    "p2": ["(x^2 + y^2)^2"],
    # the degenerate numerators under x -> 2/3*x, y -> 3/2*y
    "degenerate_rescaled": [
        "4/9*x^2 - 2*x*y + 9/4*y^2",
        "8/27*x^3 + 2/3*x^2*y - 3/2*x*y^2 - 27/8*y^3",
        "16/81*x^4 + 16/9*x^3*y + 6*x^2*y^2 + 9*x*y^3 + 81/16*y^4",
        "8/27*x^3 + 2*x^2*y + 9/2*x*y^2 + 27/8*y^3",
        "4/9*x^2 - 9/4*y^2",
        "4/9*x^2 + 2*x*y + 9/4*y^2",
    ],
}


def _oracle_denominator(name):
    from numideal.examples import EXAMPLES

    if name != "degenerate_rescaled":
        return EXAMPLES[name]()
    p = EXAMPLES["degenerate"]()
    x, y = (MultiPoly.variable(p.vars, v) for v in ("x", "y"))
    return p.subs({"x": x.scale(Fraction(2, 3)), "y": y.scale(Fraction(3, 2))})


def _member_oracle_stdout(name, capsys, *settings):
    p = format_poly(_oracle_denominator(name))
    out = []
    for q in ORACLE_NUMERATORS[name]:
        code = main(["member", p, q, "--oracle", *settings, "--format", "json"])
        text = capsys.readouterr().out
        assert code == (0 if json.loads(text)["verdict"] == "InIdeal" else 3)
        out.append(text)
    return "".join(out)


class TestMemberOracleGolden:
    # The oracle sums float terms in the insertion order of H's terms, so its
    # last digits pin the term order the exact solver produces
    @pytest.mark.parametrize("name", list(ORACLE_NUMERATORS))
    def test_json_stdout(self, name, capsys):
        out = _member_oracle_stdout(name, capsys)
        assert out == (GOLDEN / f"member_oracle_{name}.txt").read_text()

    # a finer grid at another radius and seed, through both sampling paths:
    # LinearForm's and IsolatedDegenerate's extremal curve probes
    @pytest.mark.parametrize("name", ["nonisolated", "degenerate"])
    def test_json_stdout_other_settings(self, name, capsys):
        settings = ("--eps", "0.3", "--grid", "4", "--seed", "7")
        out = _member_oracle_stdout(name, capsys, *settings)
        golden = GOLDEN / f"member_oracle_eps0.3_grid4_seed7_{name}.txt"
        assert out == golden.read_text()


class TestPuiseux:
    def test_cusp(self):
        res = run_cli("puiseux", "y^2 - x^3", "--order", "6")
        assert res.returncode == 0
        assert "r = 2" in res.stdout
        assert "psi = t^3" in res.stdout

    def test_json(self):
        res = run_cli("puiseux", "y^2 - x^3", "--format", "json")
        data = json.loads(res.stdout)
        assert data["branches"][0]["r"] == 2

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_non_positive_order_exit_2(self, order):
        res = run_cli("puiseux", "y - x", "--order", order)
        assert res.returncode == 2
        assert res.stderr == "error: order must be at least 1\n"
        assert res.stdout == ""

    def test_degree_two_extension_exit_2(self):
        # the characteristic root sqrt(2) lies outside Q(i)
        res = run_cli("puiseux", "y^2 - 2*x^2")
        assert res.returncode == 2
        assert res.stderr.startswith(
            "error: characteristic root lies in a degree-2 extension"
        )


class TestExamples:
    def test_golden_text(self):
        res = run_cli("examples")
        assert res.stdout == (GOLDEN / "examples.txt").read_text()

    def test_golden_json(self):
        res = run_cli("examples", "--format", "json")
        assert res.stdout == (GOLDEN / "examples.json").read_text()

    def test_single_name(self):
        res = run_cli("examples", "--name", "p2")
        assert res.returncode == 0
        assert res.stdout.startswith("p2: ")

    def test_unknown_name(self):
        res = run_cli("examples", "--name", "nope")
        assert res.returncode == 1


class TestTransform:
    def test_linear3_conversion(self):
        res = run_cli("transform", "3 - z1 - z2 - z3")
        assert res.stdout.strip() == (
            "x + y + z - 2*i*x*y - 2*i*x*z - 2*i*y*z - 3*x*y*z"
        )

    def test_file_input(self, tmp_path):
        f = tmp_path / "disk.txt"
        f.write_text("2 - z1*z2 - z3")
        res = run_cli("transform", f"@{f}")
        assert res.stdout.strip() == "x + y + z - 2*i*x*z - 2*i*y*z - x*y*z"


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("analyze", LINEAR3, "--format", "json", "--seed", "7"),
            ("member", LINEAR3, "x*y", "--oracle", "--format", "json", "--seed", "7"),
            ("examples", "--format", "json"),
        ],
    )
    def test_repeat_runs_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
