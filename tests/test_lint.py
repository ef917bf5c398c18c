"""Lint: every top-level function, class and constant of wrlat, and every
method and property of its classes, is named somewhere besides its own
definition, in its own module, another wrlat module or a benchmark script
(wrbench/*.py).  A name that nothing reads is dead code, kept working by its
own tests alone.  NamedTuple fields are left out: render writes TableRow
through _fields, naming no field.  The same rule holds the test oracles
(tests/oracles.py) to a reader: an oracle that no test and no other oracle
calls checks nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources(directory: Path) -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(directory.glob("*.py"))}


def _defined(tree: ast.Module) -> list[str]:
    """Names bound at a module's top level by def, class or assignment, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _members(tree: ast.Module) -> list[str]:
    """`Class.name` of each method and property defined in a module's
    classes, dunders aside."""
    return [
        f"{cls.name}.{node.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _named(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes, and string constants,
    which is how the benchmark's tracer names the functions it wraps."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreferenced(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """`module.name` of each top-level name, and `module.Class.name` of each
    method and property, of the `package` modules that no module of
    `package` or `readers` names; both map module names to source."""
    trees = {name: ast.parse(src) for name, src in package.items()}
    named = set().union(*map(_named, trees.values()), *(_named(ast.parse(s)) for s in readers.values()))
    return [
        f"{mod}.{name}"
        for mod, tree in trees.items()
        for name in _defined(tree) + _members(tree)
        if name.rpartition(".")[2] not in named
    ]


def test_every_top_level_name_is_used():
    assert unreferenced(_sources(ROOT / "src" / "wrlat"), _sources(ROOT / "wrbench")) == []


def test_guard_flags_an_unused_function():
    # euler_phi as arith defined it while the cyclo command's guard called it
    package = _sources(ROOT / "src" / "wrlat")
    package["arith"] += (
        "\n\ndef euler_phi(n):\n    phi = 1\n    for p, e in factorize(n).items():\n"
        "        phi *= (p - 1) * p ** (e - 1)\n    return phi\n"
    )
    assert unreferenced(package, _sources(ROOT / "wrbench")) == ["arith.euler_phi"]


def test_guard_flags_an_unused_method():
    # a method of CycloField that nothing calls: the trace of zeta^j, which
    # the field's callers read off trace_table directly
    package = _sources(ROOT / "src" / "wrlat")
    old = "    prime_powers: tuple[tuple[int, int], ...]\n"
    assert old in package["cyclo"]
    package["cyclo"] = package["cyclo"].replace(old, old + (
        "\n    def trace_of_power(self, j):\n        return self.trace_table[j % self.k]\n"
    ))
    assert unreferenced(package, _sources(ROOT / "wrbench")) == ["cyclo.CycloField.trace_of_power"]


def _oracles_and_readers() -> tuple[dict[str, str], dict[str, str]]:
    """tests/oracles.py, and the other test modules as its readers."""
    readers = _sources(ROOT / "tests")
    return {"oracles": readers.pop("oracles")}, readers


def test_every_oracle_is_used():
    assert unreferenced(*_oracles_and_readers()) == []


def test_guard_flags_an_unused_oracle():
    # a gcd count of phi beside phi_by_count, which no test calls
    oracles, readers = _oracles_and_readers()
    oracles["oracles"] += (
        "\n\ndef totient_by_gcd(n):\n    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)\n"
    )
    assert unreferenced(oracles, readers) == ["oracles.totient_by_gcd"]
