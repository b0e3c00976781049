"""No module imports a name it never reads, and the package imports a
pinned set of standard-library modules.

A name counts as read if it appears as a Name node, or as a word inside a
string constant (which covers __all__ and quoted annotations).  Only the
standard library is used, so the check runs wherever the tests do.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/nilcone", "tests")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(re.findall(r"\w+", node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_sources_found():
    assert ROOT / "tests" / "test_imports.py" in SOURCES
    assert ROOT / "src" / "nilcone" / "laurent.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unread_and_read_names():
    source = (
        "import os\nimport a.b\nfrom x import y as z, w\n"
        "__all__ = ['w']\nprint(a.b)\ndef f(v: 'Q') -> None: ...\n"
    )
    assert unused_imports(source) == ["os (line 1)", "z (line 3)"]


# Every standard-library module that src/nilcone imports when it loads.  The
# set decides what `import nilcone` puts in sys.modules, and with it the
# speed of a fresh process and the pace reference of perfbench/pace.py, so a
# change to it has to be made here on purpose.
STDLIB_IMPORTS = {
    "__future__", "argparse", "collections", "dataclasses", "fractions", "functools",
    "itertools", "json", "math", "operator", "sys", "time", "typing", "warnings",
}


def import_time_modules(source: str) -> set[str]:
    """The absolute modules a source imports when it runs: every import
    statement outside a function body, read from the AST, so the answer does
    not depend on the interpreter's own imports."""
    found = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_package_imports_the_pinned_stdlib_set():
    imported = set()
    for path in sorted((ROOT / "src" / "nilcone").glob("*.py")):
        imported |= import_time_modules(path.read_text())
    assert imported == STDLIB_IMPORTS
    assert {name.split(".")[0] for name in imported} <= sys.stdlib_module_names


def test_import_reader_skips_function_bodies():
    source = (
        "import os.path\nfrom . import x\nfrom json import dumps\n"
        "if x:\n    import csv\nclass C:\n    import re\n"
        "def f():\n    import gzip\n"
    )
    assert import_time_modules(source) == {"os.path", "json", "csv", "re"}
