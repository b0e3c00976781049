"""Command-line front end: query any of the polynomial invariants, keep a
persistent cache of Kostka tables, and run the verification suites.

Exit codes: 0 on success, 1 on a usage error (malformed partition,
unsupported Weyl type, negative truncation, ...), 2 on a failed
verification, 3 when an internal invariant breaks (an exact division
leaves a remainder, an assertion fails); 1 and 3 print a one-line
diagnostic on stderr.  A warning prints as one `warning: ...` line there.

Output formats: text (ascending exponents, explicit signs), json (the
schema below), latex.  JSON coefficients are decimal strings so arbitrary
precision survives any consumer:

    {"query": {...},
     "result": {"variables": ["x", "y"],
                "terms": [{"x": 0, "y": 0, "coeff": "1"}, ...]},
     "meta": {"version": ..., "convention": ..., "ms": ..., "cache_hit": ...}}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .kostka import (
    CONVENTION_TAG,
    KostkaTable,
    compute_kostka_table,
    fake_degree_qhook,
    kostka_foulkes,
)
from .laurent import LaurentPoly, TruncatedSeries, render
from .partitions import Partition
from .springer import (
    hp0_slice_series,
    hp0_walg_full_series,
    ih_orbit_closure,
    ih_s3_variety,
    pn_series,
    proudfoot_check,
    springer_fiber_series,
)
from .verify import SUITES, run_suite
from .weyl import fake_degree_molien, pn_series_molien, sn_character_values, weyl_type

ENV_CACHE_DIR = "NILCONE_CACHE_DIR"


class UsageError(Exception):
    """Bad command line; reported with a one-line diagnostic and exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract is exit 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Parsing and rendering helpers.
# ---------------------------------------------------------------------------


def parse_partition(text: str) -> Partition:
    """Comma-separated, weakly decreasing, positive.  Out-of-order input is
    rejected rather than sorted: silent normalization hides user errors."""
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise UsageError(
            f"malformed partition {text!r}: expected comma-separated integers"
        ) from None
    if any(p <= 0 for p in parts):
        raise UsageError(f"malformed partition {text!r}: parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise UsageError(
            f"malformed partition {text!r}: parts must be weakly decreasing"
        )
    return Partition(parts)


def encode_poly(obj) -> dict:
    variables, terms = obj.monomials()
    out = {
        "variables": list(variables),
        "terms": [{**dict(zip(variables, exps)), "coeff": str(c)} for exps, c in terms],
    }
    if isinstance(obj, TruncatedSeries):
        out["truncation_order"] = obj.order
    return out


def latex_poly(obj) -> str:
    return render(obj, latex=True)


@dataclass
class QueryResult:
    """One successful query, in the exact shape it is serialized."""

    query: dict
    result: dict
    meta: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QueryResult":
        return cls(**json.loads(text))


# ---------------------------------------------------------------------------
# Kostka table cache.
# ---------------------------------------------------------------------------


def cache_load_store(
    n: int, cache_dir: str | os.PathLike | None = None
) -> tuple[KostkaTable, bool]:
    """Load the full Kostka table for n from the cache directory (argument,
    else the NILCONE_CACHE_DIR environment variable), computing and storing
    on a miss.  Files with a wrong version or convention, or corrupted ones,
    are recomputed and overwritten, never trusted.  An unwritable directory
    degrades to in-memory computation with a warning.  Writes are atomic
    (temp file plus rename)."""
    directory = cache_dir if cache_dir is not None else os.environ.get(ENV_CACHE_DIR)
    if directory is None:
        return compute_kostka_table(n), False
    path = Path(directory) / f"kostka-n{n}.json"
    if path.is_file():
        try:
            table = KostkaTable.from_payload(json.loads(path.read_text()))
            if table.n == n:
                return table, True
            warnings.warn(f"cache file {path} holds n={table.n}, not {n}; recomputing")
        except (ValueError, KeyError, TypeError, AttributeError, json.JSONDecodeError) as exc:
            warnings.warn(f"ignoring unusable cache file {path}: {exc}")
    table = compute_kostka_table(n)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(json.dumps(table.to_payload(), sort_keys=True))
        os.replace(tmp, path)
    except OSError as exc:
        warnings.warn(
            f"cache directory {directory} is not writable ({exc}); staying in memory"
        )
    return table, False


# ---------------------------------------------------------------------------
# Subcommands.  A compute function takes the parsed options as a dict and
# returns (value, cache_hit, exit_code); the value is a polynomial, a
# payload already in the requested format, or None for no stdout.  The JSON
# query echoes the options, less those that steer it without changing it.
# ---------------------------------------------------------------------------

_RENDERERS = {"text": str, "latex": latex_poly, "json": encode_poly}
_UNQUERIED = ("format", "cache_dir", "budget")
_EXCEPTIONAL_RANK = {"G2": 2, "F4": 4, "E6": 6}
_WEYL_FAMILIES = ("A", "B", "C", "D", *_EXCEPTIONAL_RANK)
_FAKE_DEGREE_ROUTES = ("charge", "qhook", "molien")


def _kostka(o: dict):
    lam, mu = o["lambda"], o["mu"]
    if lam.size != mu.size:
        raise UsageError(f"|lambda| = {lam.size} and |mu| = {mu.size} differ")
    directory = o["cache_dir"] or os.environ.get(ENV_CACHE_DIR)
    if directory is None:
        return kostka_foulkes(lam, mu), False, 0
    table, hit = cache_load_store(lam.size, directory)
    return table.lookup(lam, mu), hit, 0


def _fake_degree(o: dict):
    lam = o["lambda"]
    n = lam.size
    top, ones = n * (n - 1) // 2, Partition((1,) * n)
    routes = {
        "charge": lambda: kostka_foulkes(lam, ones).substitute_power(-1).shift(top).with_var("q"),
        "qhook": lambda: fake_degree_qhook(lam),
        "molien": lambda: LaurentPoly.one("q") if n < 2 else fake_degree_molien(
            weyl_type("A", n - 1), sn_character_values(lam)
        ),
    }
    wanted = _FAKE_DEGREE_ROUTES if o["algorithm"] == "all" else (o["algorithm"],)
    values = {name: routes[name]() for name in wanted}
    first = values[wanted[0]]
    if any(v != first for v in values.values()):
        detail = "; ".join(f"{k}: {v}" for k, v in values.items())
        print(f"error: fake-degree cross-check failed for {lam}: {detail}", file=sys.stderr)
        return None, False, 2
    return first, False, 0


def _pn(o: dict):
    """Drops the other route's options from the query, and fills in the
    rank of an exceptional type."""
    if o["n"] is not None and o["type"] is not None:
        raise UsageError("give either --n (type A, per-partition) or --type/--rank")
    if o["n"] is not None:
        if o["n"] < 1:
            raise UsageError("--n must be at least 1")
        del o["type"], o["rank"]
        return pn_series(o["n"]).poly, False, 0
    if o["type"] is None:
        raise UsageError("give --n or --type")
    del o["n"]
    if o["rank"] is None:
        o["rank"] = _EXCEPTIONAL_RANK.get(o["type"])
    if o["rank"] is None:
        raise UsageError(f"--rank is required for type {o['type']}")
    return pn_series_molien(weyl_type(o["type"], o["rank"]), budget=o["budget"]), False, 0


def _walg(o: dict):
    if o["truncate"] < 0:
        raise UsageError("--truncate must be nonnegative")
    return hp0_walg_full_series(o["phi"], o["truncate"]), False, 0


def _proudfoot(o: dict):
    lam, show = o["lambda"], _RENDERERS[o["format"]]
    report = proudfoot_check(lam)
    hp0, ih = show(report.hp0_series), show(report.ih_dual_series)
    if o["format"] == "json":
        return {"equal": report.equal, "hp0_slice": hp0, "ih_dual_orbit": ih}, False, 0
    verdict = "equal" if report.equal else "NOT EQUAL"
    text = f"hp0(slice {lam}): {hp0}\nih(closure {lam.conjugate()}): {ih}\nverdict: {verdict}"
    return text, False, 0


def _verify(o: dict):
    if o["max_n"] is not None and o["max_n"] < 0:
        raise UsageError("--max-n must be nonnegative")
    report = run_suite(o["suite"], o["max_n"])
    code = 0 if report.passed else 2
    if o["format"] != "json":
        return "\n".join(report.lines()), False, code
    overall = "pass" if report.passed else "fail"
    return {"overall": overall, "checks": [asdict(c) for c in report.checks]}, False, code


_PARTS = {"type": parse_partition, "required": True, "metavar": "PARTS"}
_LAMBDA, _PHI, _INT = ("--lambda", _PARTS), ("--phi", _PARTS), {"type": int}

# name: (help, option specs, compute)
COMMANDS = {
    "kostka": (
        "Kostka-Foulkes polynomial",
        [_LAMBDA, ("--mu", _PARTS),
         ("--cache-dir", {"help": f"table cache (or ${ENV_CACHE_DIR})"})],
        _kostka,
    ),
    "fake-degree": (
        "graded coinvariant multiplicity",
        [_LAMBDA, ("--algorithm", {"choices": (*_FAKE_DEGREE_ROUTES, "all"), "default": "all"})],
        _fake_degree,
    ),
    "pn": (
        "bigraded nilpotent-cone series",
        [
            ("--n", {**_INT, "help": "type A, per-partition sum"}),
            ("--type", {"choices": _WEYL_FAMILIES, "help": "class-average route"}),
            ("--rank", _INT),
            ("--budget", {**_INT, "help": "enumeration budget override"}),
        ],
        _pn,
    ),
    "hp0": (
        "slice Poisson-homology series", [_PHI], lambda o: (hp0_slice_series(o["phi"]), False, 0)
    ),
    "walg": (
        "full W-algebra series, truncated",
        [_PHI, ("--truncate", {**_INT, "required": True})],
        _walg,
    ),
    "ih": (
        "orbit-closure IH series", [_LAMBDA], lambda o: (ih_orbit_closure(o["lambda"]), False, 0)
    ),
    "s3": (
        "orbit-closure slice IH series",
        [("--nu", _PARTS), _PHI],
        lambda o: (ih_s3_variety(o["nu"], o["phi"]), False, 0),
    ),
    "springer-fiber": (
        "bigraded Springer-fiber series",
        [_PHI],
        lambda o: (springer_fiber_series(o["phi"]).poly, False, 0),
    ),
    "proudfoot": ("slice/orbit duality check", [_LAMBDA], _proudfoot),
    "verify": (
        "identity verification suites",
        [("--suite", {"choices": (*SUITES, "all"), "default": "all"}), ("--max-n", _INT)],
        _verify,
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(
        prog="nilcone",
        description="Exact Kostka polynomials and bigraded nilpotent-cone series",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json", "latex"), default="text")
        for flag, spec in options:
            p.add_argument(flag, **spec)
    return parser


def run(argv=None) -> int:
    """Parse, compute and emit; returns the process exit code.  A warning
    raised on the way, such as a cache diagnostic, is printed as one
    `warning: <message>` line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _query(argv)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _query(argv) -> int:
    try:
        o = vars(build_parser().parse_args(argv))
        started = time.perf_counter()
        value, hit, code = COMMANDS[o["command"]][2](o)
        if value is None:
            return code
        if not isinstance(value, (str, dict)):
            value = _RENDERERS[o["format"]](value)
        if o["format"] != "json":
            print(value)
            return code
        echo = {k: v for k, v in o.items() if k not in _UNQUERIED}
        query = {k: list(v) if isinstance(v, Partition) else v for k, v in echo.items()}
        ms = int((time.perf_counter() - started) * 1000)
        meta = {"version": __version__, "convention": CONVENTION_TAG, "ms": ms, "cache_hit": hit}
        print(QueryResult(query=query, result=value, meta=meta).to_json())
        return code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, AssertionError) as exc:
        kind = type(exc).__name__
        print(f"error: internal invariant failed: {kind}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
