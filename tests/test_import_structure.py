"""Import structure: relative imports sit at module level, so the module
graph is visible at import time, and closure does not depend on puiseux."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "numideal"

# parsing imports gaussian and poly, so their printers import it lazily
ALLOWED_FUNCTION_IMPORTS = {
    ("gaussian.py", "GaussianRational.__str__"),
    ("poly.py", "MultiPoly.__str__"),
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
