"""Import structure: relative imports sit at module level, so the module
graph is visible at import time, except where a command or a case loads a
heavy module only when it needs it; closure and construct do not depend on
puiseux, the only module that defines root finding over Q(i); the engine
imports nothing from gaussian; the CLI starts without puiseux, construct,
closure, resultant, oracle and dataclasses, a Definite call loads none of
the last three, and every name the benchmark's tracer wraps exists.  No module uses an `assert` statement, which `python -O` strips:
internal checks raise `AssertionError` themselves.  No module of the
package or the tests imports a name it does not use."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from numideal.examples import EXAMPLES
from numideal.parsing import format_poly
from test_cli import WIDE4X

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "numideal"

# parsing imports gaussian and poly, so their printers import it lazily;
# the CLI loads puiseux and construct only for the commands that use them,
# construct loads the engine only to find a contact order, the engine loads
# resultant only off the Definite case, closure only for IsolatedDegenerate
# and LinearForm, and oracle on the first oracle call
ALLOWED_FUNCTION_IMPORTS = {
    ("gaussian.py", "GaussianRational.__str__"),
    ("poly.py", "MultiPoly.__str__"),
    ("cli.py", "cmd_puiseux"),
    ("cli.py", "cmd_transform"),
    ("construct.py", "contact_order"),
    ("examples.py", "_from_polydisk"),
    ("engine.py", "numerator_ideal"),
    ("engine.py", "membership"),
    ("engine.py", "boundedness_oracle"),
}


def _function_level_relative_imports(path: Path):
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child])
                continue
            in_function = any(not isinstance(s, ast.ClassDef) for s in scope)
            if isinstance(child, ast.ImportFrom) and child.level > 0 and in_function:
                found.append((path.name, ".".join(s.name for s in scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_relative_imports_only_at_module_level():
    found = [
        hit
        for path in sorted(PACKAGE.glob("*.py"))
        for hit in _function_level_relative_imports(path)
    ]
    assert [hit for hit in found if hit not in ALLOWED_FUNCTION_IMPORTS] == []
    assert set(found) == ALLOWED_FUNCTION_IMPORTS


def _loaded_after(code: str, names) -> str:
    """The sorted list, as printed, of the names among `names` in
    sys.modules after running `code` in a fresh interpreter."""
    code += f"\nimport sys\nprint(sorted(set({sorted(names)!r}) & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return result.stdout.strip().splitlines()[-1]


def test_closure_does_not_load_puiseux():
    assert _loaded_after("import numideal.closure", ["numideal.puiseux"]) == "[]"


def test_engine_does_not_load_puiseux():
    assert _loaded_after("import numideal.engine", ["numideal.puiseux"]) == "[]"


def test_engine_imports_nothing_from_gaussian():
    # the engine leaves Gaussian-rational coefficients to poly's constructor
    # and eval_exact, which take plain ints and Fractions
    tree = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    modules = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
    ]
    assert "poly" in modules and "gaussian" not in modules


def test_contact_order_lift_does_not_load_puiseux():
    code = (
        "from numideal.construct import contact_order_lift, iterated_composition\n"
        "from numideal.poly import MultiPoly\n"
        "t = MultiPoly.variable(('t', 'y'), 't')\n"
        "y = MultiPoly.variable(('t', 'y'), 'y')\n"
        "p = iterated_composition(2)\n"
        "q2 = p.subs({'x': t, 'y': t, 'z': y}).rename_vars({'t': 'x'})\n"
        "contact_order_lift(q2)"
    )
    assert _loaded_after(code, ["numideal.puiseux"]) == "[]"


# the modules a case or a flag loads on first use
LAZY = ["numideal.closure", "numideal.oracle", "numideal.resultant"]


def _cli(args, check: str) -> str:
    """Code that runs `numideal ARGS` with its stdout captured as `out` and
    its exit code as `code`, then asserts `check`."""
    return (
        "import contextlib, io, json, numideal.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = cli.main({list(args)!r})\n"
        f"assert {check}, (code, out.getvalue())"
    )


def test_cli_start_skips_heavy_modules():
    # a cold analyze or member pays neither for puiseux and construct, nor
    # for generating dataclass methods, nor for compiling closure, the
    # resultant algebra or the oracle
    names = [
        "numideal.puiseux",
        "numideal.construct",
        "dataclasses",
        "inspect",
        *LAZY,
    ]
    assert _loaded_after("import numideal.cli", names) == "[]"


def test_package_import_loads_no_lazy_module():
    # the benchmark's set-up imports the package and builds its inputs
    assert _loaded_after("import numideal", LAZY) == "[]"


# Definite inputs whose phi turns non-real within the default order: the
# linear example, the worked L = 2 example and a four-x-variable input
DEFINITE = {
    "linear3": lambda: format_poly(EXAMPLES["linear3"]()),
    "p2": lambda: format_poly(EXAMPLES["p2"]()),
    "wide4x": lambda: WIDE4X,
}


@pytest.mark.parametrize("name", list(DEFINITE))
def test_definite_analyze_loads_no_lazy_module(name):
    args = ["analyze", DEFINITE[name](), "--format", "json"]
    check = "code == 0 and json.loads(out.getvalue())['case'] == 'Definite'"
    assert _loaded_after(_cli(args, check), LAZY) == "[]"


@pytest.mark.parametrize("name", list(DEFINITE))
def test_definite_member_loads_no_lazy_module(name):
    args = ["member", DEFINITE[name](), "z", "--format", "json"]
    assert _loaded_after(_cli(args, "code in (0, 3)"), LAZY) == "[]"


def test_principal_analyze_loads_resultant_not_closure():
    # the input of the oracle check through the entry point
    args = ["analyze", "(z + x)*(z + 1)", "--format", "json"]
    check = "code == 0 and json.loads(out.getvalue())['case'] == 'Principal'"
    assert _loaded_after(_cli(args, check), LAZY) == "['numideal.resultant']"


@pytest.mark.parametrize("flags, loaded", [([], "[]"), (["--oracle"], "['numideal.oracle']")])
def test_member_loads_oracle_only_with_the_flag(flags, loaded):
    args = ["member", DEFINITE["linear3"](), "x", *flags]
    names = ["numideal.oracle"]
    assert _loaded_after(_cli(args, "code in (0, 3)"), names) == loaded


# root finding over Q(i) by Gaussian-integer factoring serves only the
# Newton-Puiseux branches; monomialize finds its frames from rational roots
QI_ROOT_NAMES = [
    "_gauss_int_divmod",
    "_gauss_int_gcd",
    "_sqrt_minus_one_mod",
    "_gaussian_prime_factors",
    "_gaussian_divisors",
    "_qi_root",
    "qi_roots",
    "qi_nth_root",
    "gaussian_sqrt",
]


def test_qi_root_finding_defined_only_in_puiseux():
    defined, imported = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name in QI_ROOT_NAMES or node.name == "norm2":
                    defined.append((path.stem, node.name))
            elif isinstance(node, ast.ImportFrom):
                imported += [
                    (path.stem, alias.name)
                    for alias in node.names
                    if alias.name in QI_ROOT_NAMES
                ]
    assert sorted(defined) == sorted(("puiseux", name) for name in QI_ROOT_NAMES)
    assert imported == []


def test_private_names_stay_in_their_module():
    crossing = {
        (path.stem, alias.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert crossing == set()


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                found.append(path.name)
    assert found == []


def test_no_module_uses_assert_statements():
    found = [
        (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_benchmark_tracer_targets_resolve():
    # load bench/tracer.py by path, without install(): nothing is patched
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for target in [*tracer.SPANNED, *tracer.COUNTED]:
        module_name, *path = target.split(".")
        obj = importlib.import_module(f"numideal.{module_name}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(target)
    assert missing == []


def _unused_imports(path: Path) -> list:
    """The names that path imports at any level but neither references nor
    lists in its `__all__`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_every_imported_name_is_used():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    found = [
        (path.relative_to(ROOT).as_posix(), name)
        for path in paths
        for name in _unused_imports(path)
    ]
    assert found == []
