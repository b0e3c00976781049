"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import nilcone  # noqa: E402
import nilcone.cli  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from check import Checker  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
OPERATION_COUNTS = {"kostka-table": 3582, "cone-series": 127, "molien": 121, "cli-cache": 100}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_operations_are_a_function_of_the_seed(workload):
    assert operations(workload, 7) == operations(workload, 7)
    assert operations(workload, 7) != operations(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_operation_counts(workload):
    ops = operations(workload, 3)
    assert len(ops) == OPERATION_COUNTS[workload] >= 100
    assert all(len(operations(workload, s)) == len(ops) for s in range(5))


@pytest.mark.parametrize("seed", range(6))
def test_cli_cache_covers_every_subcommand_and_format(seed):
    ops = operations("cli-cache", seed)
    subcommands = {name.rsplit(".", 1)[1] for name in run.LAYER_UNITS if name.startswith("cli.wall_ms.")}
    assert {argv[0] for _, argv, _ in ops} == subcommands
    for cmd in subcommands - {"verify"}:  # verify runs twice, not in all formats
        assert {argv[-1] for _, argv, _ in ops if argv[0] == cmd} == {"text", "json", "latex"}
    assert sum(1 for _, _, n in ops if n) == 30
    assert any(argv[:5] == ("verify", "--suite", "all", "--max-n", "5") for _, argv, _ in ops)
    assert any(argv[0] == "verify" and argv[-1] == "json" for _, argv, _ in ops)


def test_metric_names():
    for name in [*run.END_TO_END, *run.LAYER_UNITS, *WORKLOADS]:
        assert NAME.match(name), name
    assert "setup_s" in run.END_TO_END
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)


def test_cli_outside_skips_failed_operations():
    ops = [("cli", ("hp0", "--phi", "2,1", "--format", "json"), 0)] * 2
    good = json.dumps({"meta": {"ms": 3}})
    external = {"latencies": [0.1, 0.2], "outputs": [[0, good], [0, "not json"]]}
    out = run._cli_outside(ops, external, [True, False])
    assert out["cli.wall_ms.hp0"] == 100
    assert out["cli.handler_ms.hp0"] == 3


def test_pacer_scales_each_chunk_by_the_reference_around_it(monkeypatch):
    r = pace.REFERENCE_S
    # A discarded warm-up, three settled runs, then one after each chunk.
    monkeypatch.setattr(pace, "reference", iter([1.0, 2 * r, 2 * r, 2 * r, 2 * r, r]).__next__)
    pacer = pace.Pacer()
    pacer.add(pace.CHUNK_S)  # fills the first chunk
    pacer.add(0.03)
    pacer.flush()
    assert pacer.paced == pytest.approx([pace.CHUNK_S / 2, 0.03 / 1.5])


def _library_outputs(ops):
    result = worker._library_pass([worker._bind(nilcone, op) for op in ops], None)
    assert result["errors"] == [None] * len(ops)
    return result["outputs"]


@pytest.mark.parametrize("workload, keep", [
    ("kostka-table", lambda op: sum(op[1]) <= 4),
    ("cone-series", lambda op: op[0] in ("hp0", "proudfoot") and sum(op[1]) == 10),
    ("molien", lambda op: op[0] == "molien_fd" and sum(op[1]) <= 5),
])
def test_checker_counts_a_wrong_answer_as_a_failure(workload, keep):
    ops = [op for op in operations(workload, 1) if keep(op)]
    outputs = _library_outputs(ops)
    checker = Checker(nilcone, nilcone.cli)
    errors = [None] * len(ops)
    assert all(checker.check_pass(workload, ops, outputs, errors))

    wrong = json.loads(json.dumps(outputs))
    i = next(i for i, out in enumerate(wrong) if out and out != [True, [[0, 1]], [[0, 1]]])
    target = wrong[i][1] if ops[i][0] == "proudfoot" else wrong[i]
    target[-1][-1] += 1
    ok = checker.check_pass(workload, ops, wrong, errors)
    assert not ok[i]
    assert sum(ok) < len(ops)


def test_kostka_column_sum_fails_the_whole_column():
    ops = [("kostka", lam, (1, 1, 1)) for lam in ((3,), (2, 1), (1, 1, 1))]
    outputs = _library_outputs(ops)
    checker = Checker(nilcone, nilcone.cli)
    checker._check = lambda op, out: True  # leave only the column identity
    outputs[1] = [[1, 1], [2, 2]]
    assert checker.check_pass("kostka-table", ops, outputs, [None] * 3) == [False] * 3


def test_checker_counts_cli_failures():
    op = ("cli", ("hp0", "--phi", "2,1", "--format", "text"), 0)
    checker = Checker(nilcone, nilcone.cli)
    good = [0, "1 + y^2\n"]
    assert checker.check_pass("cli-cache", [op], [good], [None]) == [True]
    assert checker.check_pass("cli-cache", [op], [[0, "1 + y^4\n"]], [None]) == [False]
    assert checker.check_pass("cli-cache", [op], [[1, ""]], ["usage"]) == [False]
    json_op = ("cli", ("hp0", "--phi", "2,1", "--format", "json"), 0)
    assert checker.check_pass("cli-cache", [json_op], [[0, "not json"]], [None]) == [False]
