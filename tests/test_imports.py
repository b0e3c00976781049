"""No module imports a name it never reads.

A name counts as read if it appears as a Name node, or as a word inside a
string constant (which covers __all__ and quoted annotations).  Only the
standard library is used, so the check runs wherever the tests do.
"""

import ast
import re
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
