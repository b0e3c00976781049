"""One benchmark worker process: set up, run one pass of a workload's
operations, and write timings and encoded outputs to a JSON file.

    python3 perfbench/worker.py WORKLOAD SEED MODE OUT_FILE

MODE is one of
  run     time each operation (the end-to-end pass); for cli-cache each
          operation is a `python -m nilcone.cli` process;
  replay  cli-cache only: the same argv list in-process through
          nilcone.cli.run, untraced (the base of trace.overhead_ratio);
  trace   the run pass (for cli-cache, the replay) with spans around
          nilcone's public names (spans.py);
  setup   stop after set-up, to sample setup_s, then time the pace
          reference (pace.py) that setup_s is scaled by;
  suites  time verify.run_suite(name) for each suite in SUITES order.

Set-up is everything from process launch to the first operation: the
interpreter, ``import nilcone`` (``import nilcone.cli`` for cli-cache, the
start-up each CLI process pays) and input generation.  No nilcone cache is
warmed.  The client measures setup_s against this process's
first-operation timestamp, both from the system monotonic clock.  Passes
report each operation's latency as measured and at reference pace.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads
from pace import Pacer, settled_reference

# Library operation kinds and the nilcone function each calls.
LIBRARY_CALLS = {
    "kostka": "kostka_foulkes",
    "pn": "pn_series",
    "springer": "springer_fiber_series",
    "hp0": "hp0_slice_series",
    "proudfoot": "proudfoot_check",
    "walg": "hp0_walg_full_series",
    "molien_pn": "pn_series_molien",
    "molien_fd": "fake_degree_molien",
}


def _bind(nilcone, op: tuple):
    """Turn a generated operation into a call without arguments, converting
    its partition tuples to nilcone Partition objects."""
    kind, *args = op
    fn = getattr(nilcone, LIBRARY_CALLS[kind])
    weyl_type, characters = nilcone.weyl_type, nilcone.sn_character_values
    if kind == "molien_pn":
        return lambda: fn(weyl_type(*args))
    args = [nilcone.Partition(a) if isinstance(a, tuple) else a for a in args]
    if kind == "molien_fd":
        lam = args[0]
        return lambda: fn(weyl_type("A", lam.size - 1), characters(lam))
    return lambda: fn(*args)


def encode(value):
    """A JSON form of a nilcone result, with sorted terms."""
    if hasattr(value, "poly"):  # BigradedSeries
        value = value.poly
    if hasattr(value, "jordan_type"):  # ProudfootReport
        return [value.equal, encode(value.hp0_series), encode(value.ih_dual_series)]
    if hasattr(value, "coefficients"):  # TruncatedSeries
        return list(value.coefficients)
    terms = value.terms
    if terms and isinstance(next(iter(terms)), tuple):
        return sorted([x, y, c] for (x, y), c in terms.items())
    return sorted([e, c] for e, c in terms.items())


def _peak_rss_mb() -> float:
    """High-water RSS of this process's own address space, in MB.  Not
    ru_maxrss: Linux carries the spawning parent's high-water mark into it
    across exec, so it would include the benchmark client."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _library_pass(calls, tracer) -> dict:
    results, errors, latencies = [], [], []
    clock = time.perf_counter
    first = clock()
    pacer = Pacer()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.op_id = i
        start = clock()
        try:
            value, error = call(), None
        except Exception as exc:  # counted as a failed operation
            value, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        pacer.add(latencies[-1])
        results.append(value)
        errors.append(error)
    pacer.flush()
    rss_mb = _peak_rss_mb()
    outputs = [None if e else encode(v) for v, e in zip(results, errors)]
    return {"first": first, "latencies": latencies, "paced": pacer.paced, "outputs": outputs,
            "errors": errors, "rss_mb": rss_mb}


def _cli_env(root: Path, cache_dir: Path | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("NILCONE_CACHE_DIR", None)
    if cache_dir is not None:
        env["NILCONE_CACHE_DIR"] = str(cache_dir)
    return env


def _cli_process_pass(ops, root: Path, pass_dir: Path) -> dict:
    """Each operation is one `python -m nilcone.cli` process, waited for
    with os.wait4 so its peak RSS is known."""
    cache_dir = pass_dir / "cache"
    envs = {False: _cli_env(root, None), True: _cli_env(root, cache_dir)}
    out_path, err_path = pass_dir / "stdout", pass_dir / "stderr"
    outputs, errors, latencies, rss = [], [], [], []
    clock = time.perf_counter
    first = clock()
    pacer = Pacer()
    for _, argv, cache_n in ops:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = clock()
            proc = subprocess.Popen(
                [sys.executable, "-m", "nilcone.cli", *argv],
                stdout=out, stderr=err, env=envs[bool(cache_n)], cwd=root,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            latencies.append(clock() - start)
        pacer.add(latencies[-1])
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss.append(usage.ru_maxrss / 1024)
        outputs.append([proc.returncode, out_path.read_text()])
        errors.append(None if proc.returncode == 0 else err_path.read_text()[-500:])
    pacer.flush()
    return {"first": first, "latencies": latencies, "paced": pacer.paced, "outputs": outputs,
            "errors": errors, "rss_mb": max(rss), "cache_bytes": _dir_bytes(cache_dir)}


def _cli_replay_pass(cli, ops, pass_dir: Path, tracer) -> dict:
    """The same argv list through nilcone.cli.run in this process."""
    cache_dir = str(pass_dir / "cache")
    outputs, errors, latencies = [], [], []
    clock = time.perf_counter
    first = clock()
    pacer = Pacer()
    for i, (_, argv, cache_n) in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        if cache_n:
            os.environ["NILCONE_CACHE_DIR"] = cache_dir
        else:
            os.environ.pop("NILCONE_CACHE_DIR", None)
        out, err = io.StringIO(), io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(list(argv))
            except Exception as exc:  # counted as a failed operation
                code, err = 3, io.StringIO(f"{type(exc).__name__}: {exc}")
        latencies.append(clock() - start)
        pacer.add(latencies[-1])
        outputs.append([code, out.getvalue()])
        errors.append(None if code == 0 else err.getvalue()[-500:])
    pacer.flush()
    rss_mb = _peak_rss_mb()
    return {"first": first, "latencies": latencies, "paced": pacer.paced, "outputs": outputs,
            "errors": errors, "rss_mb": rss_mb, "cache_bytes": _dir_bytes(Path(cache_dir))}


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.glob("*.json")) if path.is_dir() else 0


def _suites_pass(verify) -> dict:
    clock = time.perf_counter
    first = clock()
    seconds, failed = {}, []
    for name in verify.SUITES:
        start = clock()
        report = verify.run_suite(name)
        seconds[name] = clock() - start
        if not report.passed:
            failed.append(name)
    return {"first": first, "end": clock(), "suite_s": seconds, "failed": failed}


def main(argv: list[str]) -> int:
    workload, seed, mode, out_file = argv[0], int(argv[1]), argv[2], Path(argv[3])
    root = Path(__file__).resolve().parent.parent
    pass_dir = out_file.with_suffix(".d")
    ops = workloads.operations(workload, seed)
    tracer = None
    # A cli-cache pass of real processes imports nothing of nilcone: every
    # operation is a process that does.  Staying lean also keeps this
    # process's high-water RSS, which each child's ru_maxrss inherits
    # through exec, below the child's own.
    if workload != "cli-cache":
        import nilcone
    elif mode != "run":
        import nilcone.cli
    if mode == "trace":
        import nilcone.cli
        from spans import LAYERS, Tracer

        tracer = Tracer()
        tracer.install([nilcone] + [getattr(nilcone, layer) for layer in LAYERS])
    if workload != "cli-cache":
        calls = [_bind(nilcone, op) for op in ops]
    pass_dir.mkdir(parents=True, exist_ok=True)
    try:
        if mode == "setup":
            result = {"first": time.perf_counter(), "reference": settled_reference()}
        elif mode == "suites":
            result = _suites_pass(nilcone.verify)
        elif workload != "cli-cache":
            result = _library_pass(calls, tracer)
        elif mode == "run":
            result = _cli_process_pass(ops, root, pass_dir)
        else:
            result = _cli_replay_pass(nilcone.cli, ops, pass_dir, tracer)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    if tracer is not None:
        from spans import layer_metrics

        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        tracer.dump(out_file.with_suffix(".spans.jsonl"))
    out_file.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
