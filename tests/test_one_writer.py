"""One writer in the package.

`cli.main` runs every command into a spool and copies it out only when the
command returns, so that a failed command writes nothing.  That holds only
while nothing else writes the output: every module of src/wrlat is parsed,
and only ``cli._spool`` may name ``sys.stdout`` or call ``open`` with a
write mode.  A mode that is not a string literal counts as a write mode.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wrlat"

WRITE_MODE_CHARS = set("wax+")


def _mode(call: ast.Call):
    """The mode argument of an open() call, or None when it has none."""
    if len(call.args) > 1:
        return call.args[1]
    return next((kw.value for kw in call.keywords if kw.arg == "mode"), None)


def writer_uses(source: str) -> list[tuple[str, str]]:
    """(enclosing function or "<module>", what) for each use of sys.stdout
    and each open() call with a write mode in the source."""
    tree = ast.parse(source)
    sys_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "sys"
    }
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.ImportFrom) and node.module == "sys":
            found.extend((where, f"from sys import {a.name}") for a in node.names if a.name == "stdout")
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "stdout"
            and isinstance(node.value, ast.Name)
            and node.value.id in sys_names
        ):
            found.append((where, "sys.stdout"))
        elif isinstance(node, ast.Call) and (
            isinstance(node.func, ast.Name) and node.func.id == "open"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "open"
        ):
            mode = _mode(node)
            if mode is not None and not (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and not WRITE_MODE_CHARS & set(mode.value)
            ):
                found.append((where, f"open(..., {ast.unparse(mode)})"))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_only_the_spool_writes():
    uses = {
        (path.name, where)
        for path in SRC.glob("*.py")
        for where, _ in writer_uses(path.read_text(encoding="utf-8"))
    }
    assert uses == {("cli.py", "_spool")}


@pytest.mark.parametrize(
    "source",
    [
        "import sys\nprint(1, file=sys.stdout)",
        "import sys as s\ns.stdout.write('x')",
        "from sys import stdout",
        "open(p, 'w')",
        "open(p, 'a', encoding='utf-8')",
        "open(p, 'r+')",
        "open(p, 'xb')",
        "open(p, mode='w')",
        "open(p, m)",
        "import io\nio.open(p, 'w')",
        "def f():\n    open(p, 'w')",
    ],
)
def test_guard_finds_writers(source):
    assert writer_uses(source)


def test_guard_names_the_enclosing_function():
    source = "import sys\ndef f():\n    def g():\n        return sys.stdout\n    open(p, 'w')\n"
    assert writer_uses(source) == [("g", "sys.stdout"), ("f", "open(..., 'w')")]


def test_guard_allows_reading_and_stderr():
    source = (
        "import sys\nopen(p)\nopen(p, encoding='utf-8')\nopen(p, 'rb')\n"
        "open(p, mode='r')\nprint(1, file=sys.stderr)\nx.stdout"
    )
    assert writer_uses(source) == []
