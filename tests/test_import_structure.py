"""Import structure: relative imports sit at module level, so the module
graph is visible at import time, except where a command loads a heavy module
only when it needs it; closure does not depend on puiseux, the CLI starts
without puiseux and construct, and every name the benchmark's tracer wraps
exists."""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "numideal"

# parsing imports gaussian and poly, so their printers import it lazily;
# the CLI loads puiseux and construct only for the commands that use them
ALLOWED_FUNCTION_IMPORTS = {
    ("gaussian.py", "GaussianRational.__str__"),
    ("poly.py", "MultiPoly.__str__"),
    ("cli.py", "cmd_puiseux"),
    ("cli.py", "cmd_transform"),
    ("construct.py", "contact_order_lift"),
    ("examples.py", "_from_polydisk"),
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


def test_closure_does_not_load_puiseux():
    code = "import sys, numideal.closure; print('numideal.puiseux' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_engine_does_not_load_puiseux():
    code = "import sys, numideal.engine; print('numideal.puiseux' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_cli_does_not_load_puiseux_or_construct():
    # analyze and member pay for neither at start-up
    code = (
        "import sys, numideal.cli; "
        "print(sorted({'numideal.puiseux', 'numideal.construct'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


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
