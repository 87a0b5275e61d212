"""CLI commands, exit codes, JSON schema, determinism, golden files."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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

    def test_parse_error_exit_1(self):
        res = run_cli("analyze", "x + (")
        assert res.returncode == 1
        assert "parse error" in res.stderr

    def test_precondition_exit_2(self):
        res = run_cli("analyze", "1 + z")
        assert res.returncode == 2
        assert "error" in res.stderr

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

    def test_oracle_flag_json(self):
        res = run_cli("member", LINEAR3, "x^2", "--oracle", "--format", "json")
        data = json.loads(res.stdout)
        assert data["verdict"] == "InIdeal"
        assert data["oracle"]["divergent"] is False


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
