"""nilcone benchmark: one closed-loop client, one worker process at a time.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]

Run from the root of a source checkout (the package is imported from
./src).  Each pass launches a fresh worker (worker.py) that sets up, runs
the workload's whole operation list once and reports per-operation
latencies and outputs; passes repeat until the run length fixed by
BENCHMARK.json run_seconds is used up (--seconds, if given, must equal
it).  Set-up-only launches between the passes give setup_s.  Outputs are
then checked by independent routes (check.py).  The end-to-end times are
corrected for the host's drifting speed (pace.py); wall-clock figures are
printed beside them.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass (spans.py) with the tracing overhead.  Each metric is printed
on its own line with its unit; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  A missing ./src/nilcone, a
crashed worker or a worker over its time limit exits with status 1 and no
result line.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

from pace import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS, operations  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
RUN_SECONDS = SPEC["run_seconds"]
# setup_s is the median over this many set-up-only worker launches (about
# 0.1 s each) per run.
SETUP_LAUNCHES = 30
PROBES = 10
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The run cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("NILCONE_CACHE_DIR", None)
    return env


class Client:
    """Launches workers one at a time and collects their pass results."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.ops = operations(workload, seed)
        self.launches = 0

    def launch(self, mode: str) -> dict:
        self.launches += 1
        out_file = self.run_dir / f"{mode}-{self.launches}.json"
        err_file = self.run_dir / f"{mode}-{self.launches}.err"
        argv = [sys.executable, str(HERE / "worker.py"), self.workload, str(self.seed), mode, str(out_file)]
        with open(err_file, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=_env(), cwd=ROOT)
            try:
                code = proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{self.workload} {mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
            wall = time.perf_counter() - start
        if code != 0:
            tail = err_file.read_text(errors="replace")[-2000:]
            raise BenchError(f"{self.workload} {mode} worker exited with {code}:\n{tail}")
        result = json.loads(out_file.read_text())
        result["setup_s"] = result["first"] - start
        result["wall_s"] = wall
        return result

    def passes(self, modes: tuple[str, ...], seconds: float) -> dict[str, list[dict]]:
        """Cycle through `modes`, one pass each and in reverse order every
        other cycle, until the next cycle would end more than half a cycle
        past `seconds`; at least one cycle."""
        done: dict[str, list[dict]] = {m: [] for m in modes}
        start = time.perf_counter()
        cycles = []
        while True:
            cycle_start = time.perf_counter()
            for mode in modes[:: -1 if len(cycles) % 2 else 1]:
                done[mode].append(self.launch(mode))
            cycles.append(time.perf_counter() - cycle_start)
            if time.perf_counter() - start + statistics.median(cycles) / 2 > seconds:
                return done


def _ops_per_s(passes: list[dict], key: str = "paced") -> float:
    return sum(len(p[key]) for p in passes) / sum(sum(p[key]) for p in passes)


def _timings(runs: list[dict], setups: list[float], key: str) -> dict:
    # Percentiles are taken per pass (each pass has at least ten
    # operations beyond its p90) and averaged over the passes, so that a
    # slow stretch of the host weighs on one pass only.
    deciles = [statistics.quantiles(p[key], n=10) for p in runs]
    return {
        "ops_per_s": _ops_per_s(runs, key),
        "op_p50_ms": statistics.fmean(d[4] for d in deciles) * 1000,
        "op_p90_ms": statistics.fmean(d[8] for d in deciles) * 1000,
        "setup_s": statistics.median(setups),
    }


def _probe(code: str) -> float:
    """Median wall time of a fresh `python -c code` process."""
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self, client: Client, checker) -> None:
        self.client, self.checker = client, checker
        self.attempted = self.failed = 0
        self.examples: list[str] = []

    def add(self, passes: list[dict]) -> list[list[bool]]:
        """Check each pass's outputs; return which operations passed."""
        ops = self.client.ops
        verdicts = []
        for p in passes:
            ok = self.checker.check_pass(self.client.workload, ops, p["outputs"], p["errors"])
            verdicts.append(ok)
            self.attempted += len(ok)
            for op, good, err in zip(ops, ok, p["errors"]):
                if not good:
                    self.failed += 1
                    if len(self.examples) < 3:
                        self.examples.append(f"{op}: {err or 'wrong answer'}")
        return verdicts


def end_to_end(client: Client, tally: Tally) -> dict:
    # Set-up has launches of its own (a cli-cache run pass imports nothing
    # of nilcone), many of them and spread over the run between passes:
    # the host's speed drifts, and a burst of launches would sample one
    # level of it.  Pass time alone counts towards the run length.
    runs, setups = [], []
    while True:
        runs.append(client.launch("run"))
        busy = [p["wall_s"] for p in runs]
        share = min(sum(busy) / RUN_SECONDS, 1)
        while len(setups) < share * SETUP_LAUNCHES:
            setups.append(client.launch("setup"))
        if sum(busy) + statistics.median(busy) / 2 > RUN_SECONDS:
            break
    while len(setups) < SETUP_LAUNCHES:
        setups.append(client.launch("setup"))
    tally.add(runs)
    # Times at reference pace (pace.py) are the metrics; wall-clock times
    # are printed beside them.
    paced_setups = [s["setup_s"] * REFERENCE_S / s["reference"] for s in setups]
    metrics = _timings(runs, paced_setups, "paced")
    metrics["peak_rss_mb"] = max(p["rss_mb"] for p in runs)
    metrics["wall"] = _timings(runs, [s["setup_s"] for s in setups], "latencies")
    return metrics


def per_layer(client: Client, tally: Tally) -> dict:
    metrics = {name: 0 for name in LAYER_UNITS}
    if client.workload == "cli-cache":
        # One pass of real processes for the outside view of the CLI, then
        # the same argv list in-process, untraced and traced.
        external = client.launch("run")
        [ok] = tally.add([external])
        metrics.update(_cli_outside(client.ops, external, ok))
        done = client.passes(("replay", "trace"), max(RUN_SECONDS - external["wall_s"], 0))
        base, traced = done["replay"], done["trace"]
        suites = client.launch("suites")
        for name, seconds in suites["suite_s"].items():
            metrics[f"verify.suite_s.{name}"] = seconds
        tally.attempted += len(suites["suite_s"])
        tally.failed += len(suites["failed"])
        tally.examples += [f"verify suite {name} failed" for name in suites["failed"]]
        metrics["cli.cache_bytes_written"] = traced[0]["cache_bytes"]
    else:
        done = client.passes(("run", "trace"), RUN_SECONDS)
        base, traced = done["run"], done["trace"]
    tally.add(base + traced)
    layers = [p["layers"] for p in traced]
    for name, value in layers[0].items():
        metrics[name] = statistics.median(l[name] for l in layers) if name.endswith("_s") else value
    interpreter = _probe("pass")
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = _probe("import nilcone.cli") - interpreter
    metrics["trace.overhead_ratio"] = _ops_per_s(traced) / _ops_per_s(base)
    _keep_spans(client)
    return metrics


def _cli_outside(ops: list, external: dict, ok: list[bool]) -> dict:
    """Wall time of each CLI process and the handler time it reports in
    JSON meta.ms; overhead is the difference (interpreter, imports,
    argument parsing, output).  Failed operations, already counted, are
    left out."""
    walls: dict[str, list[float]] = {}
    handlers: dict[str, list[float]] = {}
    overheads = []
    for (_, argv, _), wall, (_, stdout), good in zip(
        ops, external["latencies"], external["outputs"], ok
    ):
        if not good:
            continue
        walls.setdefault(argv[0], []).append(wall * 1000)
        if argv[-1] == "json":
            ms = json.loads(stdout)["meta"]["ms"]
            handlers.setdefault(argv[0], []).append(ms)
            overheads.append(wall * 1000 - ms)
    out = {}
    for cmd, values in walls.items():
        out[f"cli.wall_ms.{cmd}"] = statistics.median(values)
    for cmd, values in handlers.items():
        out[f"cli.handler_ms.{cmd}"] = statistics.median(values)
    if overheads:
        out["cli.handler_ms"] = statistics.median(ms for values in handlers.values() for ms in values)
        out["cli.overhead_ms"] = statistics.median(overheads)
    return out


def _keep_spans(client: Client) -> None:
    """Keep the spans of the last traced pass as
    .perfbench-out/spans-<workload>.jsonl."""
    files = sorted(client.run_dir.glob("trace-*.spans.jsonl"), key=lambda f: f.stat().st_mtime)
    if files:
        os.replace(files[-1], OUT / f"spans-{client.workload}.jsonl")


def run_workload(workload: str, seed: int, trace: bool, checker) -> dict:
    run_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(workload, seed, run_dir)
        tally = Tally(client, checker)
        metrics = (per_layer if trace else end_to_end)(client, tally)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = LAYER_UNITS if trace else END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "wall": metrics.get("wall", {}),
        "examples": tally.examples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS, choices=(RUN_SECONDS,),
                        help="the run length; fixed by BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nilcone" / "__init__.py").is_file():
        print(f"error: no nilcone sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 1
    # Byte-compile once, so no timed pass pays for it.
    compileall.compile_dir(ROOT / "src", quiet=2)
    compileall.compile_dir(HERE, quiet=2)
    sys.path.insert(0, str(ROOT / "src"))
    import nilcone
    import nilcone.cli
    from check import Checker

    checker = Checker(nilcone, nilcone.cli)
    OUT.mkdir(exist_ok=True)
    # One CPU for this client, its workers and their CLI processes: only
    # one of them runs at a time, and the speed of the host's CPUs drifts
    # independently, so the pace reference must run where the operations do.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, bool(args.trace), checker)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:13} {metric:32} {entry['value']:>14.6g} {entry['unit']}")
        for metric, value in result.pop("wall").items():
            print(f"{name:13} {metric + ' (wall clock)':32} {value:>14.6g} {END_TO_END[metric]}")
        print(f"{name:13} {'fail_ratio':32} {result['failed'] / result['attempted']:>14.6g} "
              f"({result['failed']} of {result['attempted']})")
        for example in result.pop("examples"):
            print(f"{name:13} failed: {example}")
    if len(results) == 1:
        summary = next(iter(results.values()))
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": e for w, r in results.items() for m, e in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
