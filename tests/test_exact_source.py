"""Floating point stays out of the package.

Every module of src/wrlat is parsed and searched for float or complex
literals, the names ``float`` and ``complex``, imports of cmath, numpy or
decimal, and ``math`` functions and constants other than the integer-valued
floor, ceil, gcd, lcm and isqrt.  Division of two ints, which also gives a
float, cannot be told from Fraction division without types and is not
searched for.

Rationals are kept out too: forms, Gram matrices and lattice minima are
integers, and no module imports fractions.  cyclo.py reports the Minkowski
minimum phi(k)/2 as half the integer trace-form minimum, an exact division.

Randomness is kept out as well: no module imports random, so every verdict
is a function of its input alone.

No module imports dataclasses either: it loads inspect, ast and dis, which
made up a third of the time to import the command line interface.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wrlat"

FLOAT_MODULES = {"cmath", "numpy", "decimal"}
FLOAT_NAMES = {"float", "complex"}
INTEGER_MATH = {"floor", "ceil", "gcd", "lcm", "isqrt"}
FRACTION_MODULES = set()


def float_uses(source: str) -> list[str]:
    """'line: what' for each floating-point use in the source."""
    tree = ast.parse(source)
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            what = [a.name for a in node.names if a.name.split(".")[0] in FLOAT_MODULES]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] in FLOAT_MODULES:
                what = [module]
            elif module == "math":
                what = [f"math.{a.name}" for a in node.names if a.name not in INTEGER_MATH]
            else:
                what = []
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = [repr(node.value)]
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            what = [node.id]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in math_names
            and node.attr not in INTEGER_MATH
        ):
            what = [f"math.{node.attr}"]
        else:
            what = []
        found.extend(f"{node.lineno}: {w}" for w in what)
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point_in_package(path):
    assert float_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 1e3",
        "x = 2j",
        "x = float(y)",
        "def f(y: complex): pass",
        "import cmath",
        "import numpy as np",
        "from decimal import Decimal",
        "from numpy.linalg import det",
        "import math\nx = math.sqrt(2)",
        "import math\nx = math.log2(8)",
        "import math\nx = math.exp(1)",
        "import math\nx = math.cos(1)",
        "import math\nx = math.pi",
        "import math\nx = math.e",
        "import math\nx = math.inf",
        "import math\nx = math.nan",
        "import math as m\nx = m.sqrt(2)",
        "from math import sqrt",
    ],
)
def test_guard_finds_floating_point(source):
    assert float_uses(source)


def test_guard_allows_integer_math():
    source = (
        "import math\nfrom math import gcd\nfrom fractions import Fraction\n"
        "x = [math.floor(Fraction(1, 2)), math.ceil(y), math.gcd(4, 6), math.lcm(4, 6),"
        " math.isqrt(10), gcd(1, 2), 7 // 2]"
    )
    assert float_uses(source) == []


def imports_of(source: str, module: str) -> list[int]:
    """Line numbers of the imports of the module in the source."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(a.name == module for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == module
    ]


def test_fractions_only_where_the_minimum_is_built():
    importers = {p.name for p in SRC.glob("*.py") if imports_of(p.read_text(), "fractions")}
    assert importers <= FRACTION_MODULES


@pytest.mark.parametrize(
    "source",
    ["import fractions", "import fractions as fr", "from fractions import Fraction",
     "import math, fractions", "def f():\n    from fractions import Fraction"],
)
def test_guard_finds_fraction_imports(source):
    assert imports_of(source, "fractions")


def test_guard_ignores_other_imports():
    assert imports_of("import math\nfrom .svp import Fraction\nx = Fraction", "fractions") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_random_in_package(path):
    assert imports_of(path.read_text(), "random") == []


@pytest.mark.parametrize(
    "source",
    ["import random", "import random as rnd", "from random import Random",
     "import math, random", "def f(rng=None):\n    import random"],
)
def test_guard_finds_random_imports(source):
    assert imports_of(source, "random")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses_in_package(path):
    assert imports_of(path.read_text(), "dataclasses") == []


@pytest.mark.parametrize(
    "source",
    ["import dataclasses", "import dataclasses as dc", "from dataclasses import dataclass, field",
     "import os, dataclasses", "def f():\n    from dataclasses import replace"],
)
def test_guard_finds_dataclasses_imports(source):
    assert imports_of(source, "dataclasses")
