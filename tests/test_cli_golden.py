"""Golden outputs of the command line.

Every subcommand runs in the text, json and latex formats, next to the
usage errors, and its stdout and exit code must match cli_golden.json byte
for byte.  The one field that may differ is meta.ms, the wall time, which
is read as 0 on both sides.  The one-line stderr diagnostic of each error
is pinned as well, byte for byte: the parser's own wording does not depend
on the Python version.

After a deliberate change of output, rewrite the expected values with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of cli_golden.json.
"""

import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from nilcone.cli import run

GOLDEN = Path(__file__).with_name("cli_golden.json")
FORMATS = ("text", "json", "latex")
QUERIES = (
    ("kostka", "--lambda", "3,1", "--mu", "2,1,1"),
    ("kostka", "--lambda", "3,2,1", "--mu", "2,2,1,1"),
    ("kostka", "--lambda", "2,1", "--mu", "1,1"),
    ("kostka", "--lambda", "1,2", "--mu", "1,1,1"),
    ("kostka", "--lambda", "2,x", "--mu", "1,1,1"),
    ("kostka", "--lambda", "2,1", "--mu", "1,1,1", "--cache-dir", "DIR"),
    ("fake-degree", "--lambda", "3,1"),
    ("fake-degree", "--lambda", "2,2,1", "--algorithm", "molien"),
    ("pn", "--n", "3"),
    ("pn", "--type", "B", "--rank", "2"),
    ("pn", "--type", "G2"),
    ("pn", "--n", "2", "--type", "A", "--rank", "1"),
    ("pn", "--type", "B"),
    ("pn", "--type", "B", "--rank", "1"),
    ("pn", "--type", "E6"),
    ("pn", "--n", "0"),
    ("pn",),
    ("hp0", "--phi", "3,1,1"),
    ("walg", "--phi", "2,1", "--truncate", "8"),
    ("walg", "--phi", "1", "--truncate", "0"),
    ("walg", "--phi", "2", "--truncate", "-1"),
    ("ih", "--lambda", "3,1"),
    ("s3", "--nu", "3,1", "--phi", "2,1,1"),
    ("s3", "--nu", "2,2", "--phi", "3,1"),
    ("springer-fiber", "--phi", "2,1,1"),
    ("proudfoot", "--lambda", "3,1"),
    ("verify", "--suite", "proudfoot", "--max-n", "4"),
    ("verify", "--suite", "counts", "--max-n", "3"),
    ("verify", "--max-n", "-1"),
    ("verify", "--suite", "bogus"),
    ("frobnicate",),
    (),
    ("kostka", "--lambda", "3"),
    ("pn", "--n", "x"),
    ("walg", "--phi=2", "--truncate=4"),
    ("kostka", "--lam", "2,1", "--mu", "1,1,1"),
)
CASES = [query + ("--format", fmt) for query in QUERIES for fmt in FORMATS]


def invoke(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(list(argv))
    stdout = re.sub(r'"ms": \d+', '"ms": 0', out.getvalue())
    return {"argv": list(argv), "code": code, "stdout": stdout, "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_golden(argv, golden):
    expected, actual = golden[argv], invoke(argv)
    assert actual["code"] == expected["code"]
    assert actual["stdout"] == expected["stdout"]
    if expected["code"] != 0:
        assert actual["stderr"].startswith("error: ")
        assert actual["stderr"].count("\n") == 1
    assert actual["stderr"] == expected["stderr"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([invoke(argv) for argv in CASES], indent=1) + "\n")
