"""Command-line front end: query any of the polynomial invariants and run
the verification suites.

Exit codes: 0 on success, 1 on a usage error (malformed partition,
unsupported Weyl type, negative truncation, ...), 2 on a failed
verification, 3 when an internal invariant breaks (an exact division
leaves a remainder, an assertion fails), 4 when the reader of stdout
closes it early (a broken pipe, as under `| head`), 5 when the process runs
out of memory or recursion depth (a MemoryError or RecursionError); 1, 3,
4 and 5 print a one-line diagnostic on stderr.  A warning prints as one
`warning: ...` line there; where the warning filters make it an error
(`python -W error`, PYTHONWARNINGS=error), such as the empty s3 slice, it
exits 1 with one `error: <Class>: <message>` line instead.

Output formats: text (ascending exponents, explicit signs), json (the
schema below), latex.  JSON coefficients are decimal strings so arbitrary
precision survives any consumer:

    {"query": {...},
     "result": {"variables": ["x", "y"],
                "terms": [{"x": 0, "y": 0, "coeff": "1"}, ...]},
     "meta": {"version": ..., "convention": ..., "ms": ...}}

Command line: `nilcone COMMAND` and its flags, each `--flag value` or
`--flag=value`: a unique prefix names a flag, the last repeat wins, a value
may be negative (`--truncate -1`), and `-h` prints help on stdout.
"""

from __future__ import annotations

import sys
import time
import warnings

from . import __version__
from .kostka import CONVENTION_TAG, _FAKE_DEGREE_ROUTES, kostka_foulkes
from .laurent import TruncatedSeries, render
from .partitions import Partition

# Each command imports the modules it runs when it runs.  So that the parser
# needs neither weyl nor verify, its choices copy their tables (tested equal).
_FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6")
_SUITES = ("counts", "fake-degrees", "cone-series", "proudfoot", "fibers", "walg")


def __getattr__(name: str):
    """nilcone.cli.run_suite is verify.run_suite, imported on first access."""
    if name == "run_suite":
        from .verify import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """Bad command line; reported with a one-line diagnostic and exit 1."""


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


# ---------------------------------------------------------------------------
# Subcommands.  A compute function takes the parsed options as a dict and
# returns (value, exit_code); the value is a polynomial, a payload already
# in the requested format, or None for no stdout.  The JSON query echoes
# the options, less --format.
# ---------------------------------------------------------------------------

_RENDERERS = {"text": str, "latex": latex_poly, "json": encode_poly}


def _kostka(o: dict):
    lam, mu = o["lambda"], o["mu"]
    if lam.size != mu.size:
        raise UsageError(f"|lambda| = {lam.size} and |mu| = {mu.size} differ")
    return kostka_foulkes(lam, mu), 0


def _fake_degree(o: dict):
    lam = o["lambda"]
    wanted = tuple(_FAKE_DEGREE_ROUTES) if o["algorithm"] == "all" else (o["algorithm"],)
    try:
        values = {name: _FAKE_DEGREE_ROUTES[name](lam) for name in wanted}
    except ValueError as exc:  # only Molien raises it; chi is the package's own character
        raise AssertionError(f"Molien average of chi^{lam}: {exc}") from exc
    if len(set(values.values())) > 1:
        detail = "; ".join(f"{k}: {v}" for k, v in values.items())
        print(f"error: fake-degree cross-check failed for {lam}: {detail}", file=sys.stderr)
        return None, 2
    return values[wanted[0]], 0


def _pn(o: dict):
    """Drops the other route's options from the query, and fills in the
    rank of an exceptional type."""
    if o["n"] is not None and o["type"] is not None:
        raise UsageError("give either --n (type A, per-partition) or --type/--rank")
    if o["n"] is not None:
        if o["n"] < 1:
            raise UsageError("--n must be at least 1")
        from .springer import pn_series

        del o["type"], o["rank"]
        return pn_series(o["n"]).poly, 0
    if o["type"] is None:
        raise UsageError("give --n or --type")
    from .weyl import EXCEPTIONAL_DEGREES, pn_series_molien, weyl_type

    del o["n"]
    if o["rank"] is None and o["type"] in EXCEPTIONAL_DEGREES:
        o["rank"] = len(EXCEPTIONAL_DEGREES[o["type"]])
    if o["rank"] is None:
        raise UsageError(f"--rank is required for type {o['type']}")
    return pn_series_molien(weyl_type(o["type"], o["rank"])), 0


def _walg(o: dict):
    from .springer import hp0_walg_full_series

    if o["truncate"] < 0:
        raise UsageError("--truncate must be nonnegative")
    return hp0_walg_full_series(o["phi"], o["truncate"]), 0


def _hp0(o: dict):
    from .springer import hp0_slice_series

    return hp0_slice_series(o["phi"]), 0


def _ih(o: dict):
    from .springer import ih_orbit_closure

    return ih_orbit_closure(o["lambda"]), 0


def _s3(o: dict):
    from .springer import ih_s3_variety

    return ih_s3_variety(o["nu"], o["phi"]), 0


def _springer_fiber(o: dict):
    from .springer import springer_fiber_series

    return springer_fiber_series(o["phi"]).poly, 0


def _proudfoot(o: dict):
    from .springer import proudfoot_check

    lam, show = o["lambda"], _RENDERERS[o["format"]]
    report = proudfoot_check(lam)
    hp0, ih = show(report.hp0_series), show(report.ih_dual_series)
    if o["format"] == "json":
        return {"equal": report.equal, "hp0_slice": hp0, "ih_dual_orbit": ih}, 0
    verdict = "equal" if report.equal else "NOT EQUAL"
    text = f"hp0(slice {lam}): {hp0}\nih(closure {lam.conjugate()}): {ih}\nverdict: {verdict}"
    return text, 0


def _verify(o: dict):
    from dataclasses import asdict

    from .verify import run_suite

    if o["max_n"] is not None and o["max_n"] < 0:
        raise UsageError("--max-n must be nonnegative")
    report = run_suite(o["suite"], o["max_n"])
    code = 0 if report.passed else 2
    if o["format"] != "json":
        return "\n".join(report.lines()), code
    overall = "pass" if report.passed else "fail"
    return {"overall": overall, "checks": [asdict(c) for c in report.checks]}, code


_PARTS = {"type": parse_partition, "required": True, "metavar": "PARTS"}
_LAMBDA, _PHI, _INT = ("--lambda", _PARTS), ("--phi", _PARTS), {"type": int}
_FORMAT = ("--format", {"choices": ("text", "json", "latex"), "default": "text"})

# name: (help, option specs, compute)
COMMANDS = {
    "kostka": (
        "Kostka-Foulkes polynomial",
        [_LAMBDA, ("--mu", _PARTS)],
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
            ("--type", {"choices": _FAMILIES, "help": "class-average route"}),
            ("--rank", _INT),
        ],
        _pn,
    ),
    "hp0": ("slice Poisson-homology series", [_PHI], _hp0),
    "walg": (
        "full W-algebra series, truncated",
        [_PHI, ("--truncate", {**_INT, "required": True})],
        _walg,
    ),
    "ih": ("orbit-closure IH series", [_LAMBDA], _ih),
    "s3": ("orbit-closure slice IH series", [("--nu", _PARTS), _PHI], _s3),
    "springer-fiber": ("bigraded Springer-fiber series", [_PHI], _springer_fiber),
    "proudfoot": ("slice/orbit duality check", [_LAMBDA], _proudfoot),
    "verify": (
        "identity verification suites",
        [("--suite", {"choices": (*_SUITES, "all"), "default": "all"}), ("--max-n", _INT)],
        _verify,
    ),
}


def _help(name) -> str:
    """The -h text: the commands, or one command's flags and their marks."""
    rows = [(cmd, spec[0]) for cmd, spec in COMMANDS.items()]
    if name is not None:
        rows = []
        for flag, spec in (_FORMAT, *COMMANDS[name][1]):
            choices = spec.get("choices")
            meta = "{%s}" % ",".join(choices) if choices else spec.get("metavar", "N")
            marks = [spec.get("help"), spec.get("required") and "required"]
            marks.append("default" in spec and f"default {spec['default']}")
            rows.append((f"{flag} {meta}", "; ".join(filter(None, marks))))
    width = max(len(left) for left, _ in rows) + 2
    body = "\n".join(f"  {left:<{width}}{right}".rstrip() for left, right in rows)
    title = COMMANDS[name][0] if name else "Exact Kostka polynomials and bigraded nilpotent-cone series"
    return f"usage: nilcone {name or 'COMMAND'} [-h] [--flag value ...]\n\n{title}\n\n{body}"


def parse_args(argv) -> dict | str:
    """The command and each of its flags under its dest name (`max_n` for
    --max-n), None or the default when not given; after -h, the help text."""
    args = list(sys.argv[1:] if argv is None else argv)
    if args[:1] in (["-h"], ["--help"]):
        return _help(None)
    if not args or args[0].startswith("-"):
        raise UsageError("the following arguments are required: command")
    name = args.pop(0)
    if name not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        raise UsageError(f"argument command: invalid choice: {name!r} (choose from {choices})")
    specs, given, extras = dict([_FORMAT, *COMMANDS[name][1]]), {}, []
    while args:
        token = args.pop(0)
        if token in ("-h", "--help"):
            return _help(name)
        flag, eq, text = token.partition("=")
        found = [f for f in specs if f.startswith(flag) and len(flag) > 2]
        found = [flag] if flag in specs else found
        if len(found) > 1:
            raise UsageError(f"ambiguous option: {flag} could match {', '.join(found)}")
        if not found:
            extras.append(token)
            continue
        flag, spec = found[0], specs[found[0]]
        # without `=`, the value is the next token unless that is a flag (-1 is a value)
        number = args and args[0][1:].replace(".", "", 1).isdecimal()
        if not eq and (not args or args[0].startswith("-") and not number):
            raise UsageError(f"argument {flag}: expected one argument")
        text = text if eq else args.pop(0)
        kind = spec.get("type", str)
        try:
            given[flag] = kind(text)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None
        if "choices" in spec and given[flag] not in spec["choices"]:
            choices = ", ".join(map(repr, spec["choices"]))
            raise UsageError(f"argument {flag}: invalid choice: {text!r} (choose from {choices})")
    missing = [f for f, spec in specs.items() if spec.get("required") and f not in given]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    options = {f[2:].replace("-", "_"): given.get(f, s.get("default")) for f, s in specs.items()}
    return {"command": name, **options}


def run(argv=None) -> int:
    """Parse, compute and emit; returns the process exit code.  A warning
    raised on the way, such as an empty s3 slice, is printed as one
    `warning: <message>` line on stderr, unless the warning filters make
    it an error, which _query reports with exit 1."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _query(argv)
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


def _query(argv) -> int:
    try:
        o = parse_args(argv)
        if isinstance(o, str):
            print(o, flush=True)
            return 0
        started = time.perf_counter()
        value, code = COMMANDS[o["command"]][2](o)
        if value is None:
            return code
        if not isinstance(value, (str, dict)):
            value = _RENDERERS[o["format"]](value)
        if o["format"] == "json":
            echo = {k: v for k, v in o.items() if k != "format"}
            query = {k: list(v) if isinstance(v, Partition) else v for k, v in echo.items()}
            ms = int((time.perf_counter() - started) * 1000)
            meta = {"version": __version__, "convention": CONVENTION_TAG, "ms": ms}
            import json

            value = json.dumps({"query": query, "result": value, "meta": meta}, sort_keys=True)
        print(value, flush=True)  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        import os

        # point stdout at devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed (broken pipe)", file=sys.stderr)
        return 4
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Warning as exc:  # raised as an error by the warning filters
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, AssertionError) as exc:
        kind = type(exc).__name__
        print(f"error: internal invariant failed: {kind}: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as exc:
        detail = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        print(f"error: out of memory or recursion depth: {detail}", file=sys.stderr)
        return 5


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
