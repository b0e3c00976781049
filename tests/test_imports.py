"""No module imports a name it never reads, the package imports a pinned
set of standard-library modules, and a fresh process loads only the modules
its query runs.

A name counts as read if it appears as a Name node, or as a word inside a
string constant (which covers __all__ and quoted annotations).  Only the
standard library is used, so the check runs wherever the tests do.
"""

import ast
import os
import re
import subprocess
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


def bare_asserts(source: str) -> list[int]:
    """Lines of the assert statements in a source: python -O strips them, so
    a tripwire must raise instead."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.parent.name == "nilcone"], ids=lambda p: p.name
)
def test_no_bare_assert_in_the_package(path):
    assert bare_asserts(path.read_text()) == []


def test_assert_finder_sees_statements_not_raises():
    source = "assert x\nraise AssertionError('y')\ndef f():\n    assert y, 'z'\n"
    assert bare_asserts(source) == [1, 4]


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


# Every standard-library module that a module of src/nilcone imports when it
# loads.  The set decides what the package's modules put in sys.modules, and
# with it the speed of a fresh process and the pace reference of
# perfbench/pace.py, so a change to it has to be made here on purpose.
# No module imports `fractions`: every value is an int.  The command line
# parses argv itself from its COMMANDS table and imports `json` only to write
# JSON output, so a text query loads neither `argparse` (with `gettext` and
# `locale`) nor `json`; the probes at the end check both in fresh processes.
# `dataclasses` stays, in weyl and verify: library workers load it through
# weyl_type, and the pace reference takes about 12.8 ms with it loaded against
# 8.8 ms without, so dropping it would move paced kostka-table times by about
# 30% for no work of their own.  `array` is imported by laurent._packed when
# it first packs, so that only the processes that pack load it; the probes
# at the end check that too.
STDLIB_IMPORTS = {
    "__future__", "collections", "dataclasses", "functools", "itertools",
    "math", "operator", "sys", "time", "types", "typing", "warnings",
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


# Every lru_cache of the package; a new memo is added here on purpose, so
# that the unbounded ones stay counted.
MEMO_NAMES = {
    "nilcone.kostka._column_entry", "nilcone.kostka._kostka_column",
    "nilcone.kostka._kostka_foulkes_charge_parts",
    "nilcone.kostka._remove_horizontal", "nilcone.kostka._standard_count",
    "nilcone.kostka._straighten", "nilcone.laurent._digit_offset",
    "nilcone.partitions._add_horizontal", "nilcone.springer._degree_series",
    "nilcone.springer._fake_degree", "nilcone.springer._fake_degree_packed",
    "nilcone.weyl._class_characters", "nilcone.weyl._cycle_types",
    "nilcone.weyl._flag_series", "nilcone.weyl._mn_beads", "nilcone.weyl._root_system",
    "nilcone.weyl._weyl_type",
}


def test_package_memoises_the_pinned_set():
    from conftest import MEMOS

    assert {f"{f.__module__}.{f.__qualname__}" for f in MEMOS} == MEMO_NAMES
    assert len({id(f) for f in MEMOS}) == len(MEMO_NAMES)


def test_import_reader_skips_function_bodies():
    source = (
        "import os.path\nfrom . import x\nfrom json import dumps\n"
        "if x:\n    import csv\nclass C:\n    import re\n"
        "def f():\n    import gzip\n"
    )
    assert import_time_modules(source) == {"os.path", "json", "csv", "re"}


def loaded_modules(statements: str) -> set[str]:
    """sys.modules after running the statements in a fresh interpreter
    started with -S, so that no .pth file of the host's site-packages adds
    imports of its own."""
    probe = f"import sys\n{statements}\nprint(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return set(done.stdout.splitlines()[-1].split())


HEAVY = {"nilcone.weyl", "nilcone.springer", "nilcone.verify", "dataclasses", "fractions"}


def test_import_nilcone_loads_no_submodule():
    loaded = loaded_modules("import nilcone")
    assert "nilcone" in loaded
    assert {name for name in loaded if name.startswith("nilcone.")} == set()


def test_import_cli_loads_no_heavy_module():
    loaded = loaded_modules("import nilcone.cli")
    assert "nilcone.cli" in loaded
    assert loaded & HEAVY == set()


def test_kostka_query_loads_no_heavy_module():
    loaded = loaded_modules(
        "from nilcone.cli import run\n"
        "assert run(['kostka', '--lambda', '3,1', '--mu', '2,1,1', '--format', 'json']) == 0"
    )
    assert "nilcone.kostka" in loaded
    assert loaded & (HEAVY | {"array"}) == set()


def test_hp0_query_loads_neither_weyl_nor_verify():
    loaded = loaded_modules(
        "from nilcone.cli import run\nassert run(['hp0', '--phi', '3,2,1']) == 0"
    )
    assert "nilcone.springer" in loaded
    assert loaded & {"nilcone.weyl", "nilcone.verify", "dataclasses", "array"} == set()


def test_walg_query_loads_array_to_pack():
    loaded = loaded_modules(
        "from nilcone.cli import run\nassert run(['walg', '--phi', '3,2,1', '--truncate', '8']) == 0"
    )
    assert "array" in loaded
    assert loaded & {"nilcone.weyl", "nilcone.verify"} == set()


PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_text_query_loads_neither_argparse_nor_json():
    loaded = loaded_modules(
        "from nilcone.cli import run\n"
        "assert run(['kostka', '--lambda', '3,1', '--mu', '2,1,1']) == 0"
    )
    assert "nilcone.kostka" in loaded
    assert loaded & (PARSER_MODULES | {"json"}) == set()


def test_json_query_loads_json_but_not_argparse():
    loaded = loaded_modules(
        "from nilcone.cli import run\n"
        "assert run(['kostka', '--lambda', '3,1', '--mu', '2,1,1', '--format', 'json']) == 0"
    )
    assert "json" in loaded
    assert loaded & PARSER_MODULES == set()
