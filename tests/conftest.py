import os
from pathlib import Path

import pytest

from numideal.parsing import parse

# the CLI tests start `python -m numideal.cli`; let it import this checkout
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p
)

LINEAR3_TEXT = "x + y + z - 2*i*(x*y + x*z + y*z) - 3*x*y*z"
NONISOLATED_TEXT = "x + y + z - 2*i*(x*z + y*z) - x*y*z"
DEGENERATE_TEXT = (
    "2*x^2*y^2*z + 2*i*x^2*y^2 + 3*i*x^2*y*z + 3*i*x*y^2*z"
    " - 5/2*x^2*y - 5/2*x*y^2 - 5/4*x^2*z - 9/2*x*y*z - 5/4*y^2*z"
    " - 3/4*i*x^2 - 5/2*i*x*y - 3/4*i*y^2 - 2*i*x*z - 2*i*y*z"
    " + 1/2*x + 1/2*y + z"
)
# only the reflection of this L=2 form is half-plane stable; see
# numideal.examples
P2_DISPLAY_TEXT = (
    "x + y + 2*i*((x + y)^2 - 2*x^2*y^2) - 2*(x^2*y + x*y^2)"
    " + (1 + 2*i*(x + y - 2*x^2*y - 2*x*y^2) - 2*(x + y)^2)*z"
)
DEGENERATE_G_TEXT = "(x - y)^2 + (x^2 + y^2)*(x + y)^2"


@pytest.fixture(scope="session")
def linear3():
    return parse(LINEAR3_TEXT)


@pytest.fixture(scope="session")
def nonisolated():
    return parse(NONISOLATED_TEXT)


@pytest.fixture(scope="session")
def degenerate():
    return parse(DEGENERATE_TEXT)


@pytest.fixture(scope="session")
def p2_stable():
    return parse(P2_DISPLAY_TEXT).reflect()


@pytest.fixture(scope="session")
def degenerate_g():
    return parse(DEGENERATE_G_TEXT, vars=("x", "y"))
