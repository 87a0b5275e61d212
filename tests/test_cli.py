"""CLI commands, exit codes, JSON schema, determinism, golden files."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from numideal.cli import main
from numideal.construct import contact_order_lift, iterated_composition
from numideal.examples import EXAMPLES
from numideal.parsing import format_poly
from numideal.poly import MultiPoly

GOLDEN = Path(__file__).parent / "golden"
LINEAR3 = "x + y + z - 2*i*(x*y + x*z + y*z) - 3*x*y*z"
# Res_z(p, pbar) of the degenerate example, made real and primitive
DEGENERATE_EXACT_G = (
    "4*x^2 - 8*x*y + 4*y^2 + 15*x^4 + 34*x^2*y^2 + 15*y^4"
    " + 56*x^4*y^2 + 16*x^3*y^3 + 56*x^2*y^4 + 64*x^4*y^4"
)

# the first input of the benchmark's wide corpus with four x-variables
WIDE4X = (
    "3/2*x1 + 2*x2 + 2*x3 + x4 + z - 7/2*i*x1*x2 - 7/2*i*x1*x3 - 5/2*i*x1*x4"
    " - 5/2*i*x1*z - 4*i*x2*x3 - 3*i*x2*x4 - 3*i*x2*z - 3*i*x3*x4 - 3*i*x3*z"
    " - 2*i*x4*z - 11/2*x1*x2*x3 - 9/2*x1*x2*x4 - 9/2*x1*x2*z - 9/2*x1*x3*x4"
    " - 9/2*x1*x3*z - 7/2*x1*x4*z - 5*x2*x3*x4 - 5*x2*x3*z - 4*x2*x4*z"
    " - 4*x3*x4*z + 13/2*i*x1*x2*x3*x4 + 13/2*i*x1*x2*x3*z + 11/2*i*x1*x2*x4*z"
    " + 11/2*i*x1*x3*x4*z + 6*i*x2*x3*x4*z + 15/2*x1*x2*x3*x4*z"
)

# Im phi_4 in three x-variables, whose definiteness is sampled on the sphere
SAMPLED_QUARTIC = "z + x1 + x2 + x3 + i*(x1^2 + x2^2 + x3^2)^2"

# inputs of the analyze goldens, tests/golden/<name>_analyze.{txt,json}
ANALYZE_GOLDEN = {
    "nonisolated": lambda: format_poly(EXAMPLES["nonisolated"]()),
    "degenerate": lambda: format_poly(EXAMPLES["degenerate"]()),
    "p2": lambda: format_poly(EXAMPLES["p2"]()),
    "iterated7": lambda: format_poly(iterated_composition(7)),
    "wide4x": lambda: WIDE4X,
    # frame (4x - 9y, 9x + 4y), of the lowest form's repeated root
    "degenerate_rescaled": lambda: format_poly(
        _oracle_denominator("degenerate_rescaled")
    ),
}


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

    @pytest.mark.parametrize("order", ["1", "2", "12", "13"])
    def test_zero_gradient_exit_2_at_every_order(self, order, capsys):
        # the y^13 of phi lies past every order below 13; p shows it at once
        code = main(["analyze", "z + x + i*x^2 + y^13", "--order", order])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: phi does not vanish on the zero-gradient subspace\n"

    # phi is printed through the working order, and phi_order with it, on
    # every path of the ideal's branch: solved afresh on its read where the
    # ideal's solve stopped at 2L or K, for LinearForm (nonisolated), K
    # (degenerate and degenerate_rescaled, whose frame is a repeated-root
    # line's) and Definite (p2, wide4x), and the ideal's own solve through
    # the raised ord R (iterated7)
    @pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("name", list(ANALYZE_GOLDEN))
    def test_golden_stdout(self, name, fmt, ext, capsys):
        assert main(["analyze", ANALYZE_GOLDEN[name](), "--format", fmt]) == 0
        golden = GOLDEN / f"{name}_analyze.{ext}"
        assert capsys.readouterr().out == golden.read_text()

    @pytest.mark.parametrize("flag", ["--eps", "--seed"])
    def test_unread_flag_rejected(self, flag):
        # analyze runs no oracle, so it takes neither the oracle's radius
        # nor its seed; the ideal depends on p alone
        res = run_cli("analyze", LINEAR3, flag, "1")
        assert res.returncode == 2
        assert f"unrecognized arguments: {flag} 1" in res.stderr
        assert res.stdout == ""

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
        res = run_cli("analyze", SAMPLED_QUARTIC)
        assert "(positive definite, sampled)\n" in res.stdout
        res = run_cli("analyze", LINEAR3)
        assert "(positive definite)\n" in res.stdout

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 4: definiteness of Im phi_2L is sampled for 2L >= 4 "
        "in three or more x-variables",
    )
    def test_form_with_a_real_zero_is_not_definite(self, capsys):
        # Im phi_4 vanishes at (1, 0, 0), so p is not Definite, and a
        # degenerate Im phi_2L in three x-variables is out of scope
        text = "z + x1 + x2 + x3 + i*(x1^2*x2^2 + x2^2*x3^2 + x3^2*x1^2)"
        assert main(["analyze", text]) == 2

    def test_precondition_exit_2(self):
        res = run_cli("analyze", "1 + z")
        assert res.returncode == 2
        assert "error" in res.stderr

    @pytest.mark.parametrize(
        "args, message",
        [
            (["analyze", "z"], "p must involve at least one x-variable besides z"),
            (["member", "z", "1"], "p must involve at least one x-variable besides z"),
            (["analyze", "x + y"], "p must involve z as its distinguished variable"),
            (["member", "x + y", "1"], "p must involve z as its distinguished variable"),
        ],
    )
    def test_variables_of_p_exit_2(self, capsys, args, message):
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x +", "unexpected token end of input (at position 3)"),
            ("(x", "expected ')', found end of input (at position 2)"),
            ("", "unexpected token end of input (at position 0)"),
            ("x 2", "expected end of input, found '2' (at position 2)"),
            (
                "x^y",
                "expected a non-negative integer exponent, found 'y' (at position 2)",
            ),
            (
                "x^",
                "expected a non-negative integer exponent,"
                " found end of input (at position 2)",
            ),
        ],
    )
    def test_parse_error_at_end_of_input_exit_1(self, capsys, text, message):
        assert main(["analyze", text]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"parse error: {message}\n" and captured.out == ""

    @pytest.mark.parametrize("text", ["z + x^²", "z + ١*x"])
    def test_non_ascii_digit_is_a_parse_error(self, text):
        res = run_cli("analyze", text)
        assert res.returncode == 1
        assert res.stderr.startswith("parse error: unexpected character ")
        assert "Traceback" not in res.stderr and res.stdout == ""

    def test_zero_that_is_not_isolated_exit_2(self):
        # g = x^2*y^2, whose Newton polygon is one vertex, on neither axis
        res = run_cli("analyze", "z + x + y + i*x^2*y^2")
        assert res.returncode == 2
        assert res.stderr == (
            "error: zero at the origin is not isolated: the Newton polygon of"
            " g, vertices [(2, 2)], misses an axis; such inputs are out of scope\n"
        )
        assert res.stdout == ""

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
        from numideal.engine import membership, numerator_ideal
        from numideal.examples import nonisolated
        from numideal.parsing import parse

        p = nonisolated()
        res = run_cli("member", format_poly(p), "z")
        assert res.returncode == 3
        q = parse("z", vars=p.vars)
        reduced = membership(p, q, ideal=numerator_ideal(p)).reduced_numerator
        assert f"q0 = q(x, -Re phi(x)) = {format_poly(reduced)}\n" in res.stdout
        assert "-H(x)" not in res.stdout
        assert reduced != parse("-x - y", vars=reduced.vars)

    def test_numerator_variable_not_in_p(self):
        res = run_cli("member", "z + y", "x")
        assert res.returncode == 1
        assert res.stderr.startswith("parse error:")
        assert "'x'" in res.stderr and "('y', 'z')" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("flag, value", [("--eps", "0.1"), ("--grid", "4"), ("--seed", "7")])
    def test_oracle_setting_flag_rejected(self, flag, value):
        # the oracle has one fixed radius, level count and seed
        res = run_cli("member", LINEAR3, "x", "--oracle", flag, value)
        assert res.returncode == 2
        assert f"unrecognized arguments: {flag} {value}" in res.stderr
        assert res.stdout == ""

    def test_oracle_text(self):
        res = run_cli("member", LINEAR3, "x", "--oracle")
        assert res.returncode == 3
        assert "oracle sup ~" in res.stdout and "divergent=True" in res.stdout

    # 10^400 is beyond float range, as a factor of p or of q
    @pytest.mark.parametrize(
        "p, q", [(f"10^400*({LINEAR3})", "x^2"), (LINEAR3, "10^400*x^2")], ids=["p", "q"]
    )
    def test_oracle_input_out_of_scope_exit_2(self, p, q):
        res = run_cli("member", p, q, "--oracle")
        assert res.returncode == 2
        assert res.stderr.startswith("error:")
        assert "out of the oracle's scope" in res.stderr
        assert "Traceback" not in res.stderr and res.stdout == ""

    def test_oracle_reaches_neither_the_ideal_nor_the_verdict(self, capsys, monkeypatch):
        # the sphere sampler has a fixed seed of its own; --oracle only adds
        # the oracle's record to the output
        import numideal.cli as cli
        from numideal.engine import numerator_ideal

        ideals = []

        def recording(*args, **kwargs):
            ideals.append(numerator_ideal(*args, **kwargs))
            return ideals[-1]

        monkeypatch.setattr(cli, "numerator_ideal", recording)
        for q, code in (("x1^4", 0), ("x1^3", 3)):
            outs = []
            for oracle in ((), ("--oracle",)):
                args = ["member", SAMPLED_QUARTIC, q, "--format", "json", *oracle]
                assert main(args) == code
                outs.append(json.loads(capsys.readouterr().out))
            assert set(outs[1].pop("oracle")) == {"sup_estimate", "level_max", "divergent"}
            assert outs[0] == outs[1]
        assert ideals[0].classification.definite_exact is False
        assert all(ideal == ideals[0] for ideal in ideals)

    def test_oracle_flag_json(self):
        res = run_cli("member", LINEAR3, "x^2", "--oracle", "--format", "json")
        data = json.loads(res.stdout)
        assert data["verdict"] == "InIdeal"
        assert data["oracle"]["divergent"] is False

    def test_oracle_skips_probes_on_the_zero_set(self, capsys):
        # a Principal p whose branch z = -x is a polynomial: the delta = 0
        # slice lies on p = 0, where a float |p| is rounding noise that
        # made the sup about 1e16 and the growth flag False
        code = main(["member", "(z + x)*(z + 1)", "x", "--oracle", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 3 and data["verdict"] == "NotInIdeal"
        assert data["oracle"]["divergent"] is True
        assert data["oracle"]["sup_estimate"] < 1e4


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


def _member_oracle_stdout(name, capsys):
    p = format_poly(_oracle_denominator(name))
    out = []
    for q in ORACLE_NUMERATORS[name]:
        code = main(["member", p, q, "--oracle", "--format", "json"])
        text = capsys.readouterr().out
        assert code == (0 if json.loads(text)["verdict"] == "InIdeal" else 3)
        out.append(text)
    return "".join(out)


class TestLeadingMinus:
    """A polynomial argument that starts with "-" and holds no space, which
    argparse would read as an unknown option."""

    @pytest.mark.parametrize("args", [["analyze", "-z-x"], ["member", "z + x", "-x^2"]])
    def test_bare_form_exits_2_naming_the_fix(self, args):
        res = run_cli(*args)
        assert res.returncode == 2
        assert f'argument "{args[-1]}" starts with "-"' in res.stderr
        assert 'put "--" after the options and before the polynomials' in res.stderr
        assert 'numideal analyze -- "-z-x"' in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "args, spaced, code",
        [
            (["analyze", "--format", "json", "--", "-z-x"], "-z - x", 0),
            (["member", "--format", "json", "--", "z + x", "-x^2"], "- x^2", 3),
        ],
    )
    def test_after_double_dash_it_is_a_polynomial(self, args, spaced, code):
        res = run_cli(*args)
        assert res.returncode == code
        # the same output as for the spaced form, which argparse passes
        reference = run_cli(*args[:3], *args[4:-1], spaced)
        assert reference.returncode == code
        assert res.stdout == reference.stdout

    def test_negative_number_passes(self):
        res = run_cli("member", "z + x", "-1")
        assert res.returncode == 3
        assert "q0 = q(x, -H(x)) = -1\n" in res.stdout


# numerators that contain z, with member's JSON (no --oracle) pinned in
# tests/golden/member_<name>.txt: verdict, witness, the reduction through the
# working order and the certificate, a Definite min_degree above needs and a
# slack list with a term above K among them; iterated7's working order is
# ord R = 14, past the default order
MEMBER_NUMERATORS = {
    "linear3": ["z^3"],
    "p2": ["z^3"],
    "nonisolated": ["z", "z^3"],
    "degenerate": ["z", "z*(x - y)^2"],
    "iterated7": ["x^14", "z^2"],
}


def member_p(name):
    """p of tests/golden/member_<name>.txt: a worked example, or the input
    of an analyze golden."""
    return format_poly(EXAMPLES[name]()) if name in EXAMPLES else ANALYZE_GOLDEN[name]()


class TestMemberGolden:
    @pytest.mark.parametrize("name", list(MEMBER_NUMERATORS))
    def test_json_stdout(self, name, capsys):
        p = member_p(name)
        out = []
        for q in MEMBER_NUMERATORS[name]:
            code = main(["member", p, q, "--format", "json"])
            text = capsys.readouterr().out
            assert code == (0 if json.loads(text)["verdict"] == "InIdeal" else 3)
            out.append(text)
        assert "".join(out) == (GOLDEN / f"member_{name}.txt").read_text()


# the L = 4 lift, IsolatedDegenerate with K = 8, at --order 4: K lies past
# the order, so phi, H and q0 reach K.  tests/golden/lift4_analyze.{txt,json}
# hold analyze's output and tests/golden/member_lift4.txt member's JSON on
# LIFT4_NUMERATORS
LIFT4_NUMERATORS = ["z*(x - y)^2", "x - y", "z^2"]


def lift4():
    return format_poly(contact_order_lift(iterated_composition(4, n_vars=2)))


class TestGoldenPastTheOrder:
    @pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
    def test_analyze_stdout(self, fmt, ext, capsys):
        assert main(["analyze", lift4(), "--order", "4", "--format", fmt]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"lift4_analyze.{ext}").read_text()

    def test_member_json_stdout(self, capsys):
        out = []
        for q in LIFT4_NUMERATORS:
            code = main(["member", lift4(), q, "--order", "4", "--format", "json"])
            text = capsys.readouterr().out
            assert code == (0 if json.loads(text)["verdict"] == "InIdeal" else 3)
            out.append(text)
        assert "".join(out) == (GOLDEN / "member_lift4.txt").read_text()


class TestMemberOracleGolden:
    # The oracle sums float terms in the insertion order of H's terms, so its
    # last digits pin the term order the exact solver produces
    @pytest.mark.parametrize("name", list(ORACLE_NUMERATORS))
    def test_json_stdout(self, name, capsys):
        out = _member_oracle_stdout(name, capsys)
        assert out == (GOLDEN / f"member_oracle_{name}.txt").read_text()


class TestPuiseux:
    def test_golden_stdout(self, capsys):
        # tests/golden/puiseux.txt: a "curve: f" line, then the branches of f
        golden = (GOLDEN / "puiseux.txt").read_text()
        out = []
        for line in golden.splitlines():
            if line.startswith("curve: "):
                curve = line[len("curve: ") :]
                assert main(["puiseux", curve]) == 0
                out.append(f"{line}\n{capsys.readouterr().out}")
        assert "".join(out) == golden

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

    @pytest.mark.parametrize(
        "curve, root",
        [
            ("(y - x)^2*(y + 2*x) - x^4", "square root of 1/3"),
            ("y^3 - 2*x^2", "cube root of 2"),
            ("y^4 - 2*x", "4-th root of 2"),
        ],
    )
    def test_missing_root_is_named_exit_2(self, curve, root):
        res = run_cli("puiseux", curve)
        assert res.returncode == 2
        assert res.stderr == (
            f"error: no exact {root} in Q(i); branch needs a field extension\n"
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

    def test_closed_stdout_exits_quietly(self):
        # stdout is a pipe whose reader is gone, as under `| head`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "numideal.cli", "examples"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert res.returncode == 141
        assert "Traceback" not in res.stderr
        assert "Exception ignored" not in res.stderr


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
            ("analyze", LINEAR3, "--format", "json"),
            ("member", LINEAR3, "x*y", "--oracle", "--format", "json"),
            ("examples", "--format", "json"),
        ],
    )
    def test_repeat_runs_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
