"""Command-line front end: query any of the polynomial invariants and run
the verification suites.

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
     "meta": {"version": ..., "convention": ..., "ms": ...}}
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings

from . import __version__
from .kostka import CONVENTION_TAG
from .laurent import LaurentPoly, TruncatedSeries, render
from .partitions import Partition

# Each command imports the modules it runs when it runs.  So that the parser
# needs neither weyl nor verify, its choices copy their tables (tested equal).
_FAMILIES = ("A", "B", "C", "D", "G2", "F4", "E6")
_SUITES = ("counts", "fake-degrees", "cone-series", "proudfoot", "fibers", "walg",
           "weights", "socle", "tables")


def __getattr__(name: str):
    """nilcone.cli.run_suite is verify.run_suite, imported on first access."""
    if name == "run_suite":
        from .verify import run_suite

        return run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


# ---------------------------------------------------------------------------
# Subcommands.  A compute function takes the parsed options as a dict and
# returns (value, exit_code); the value is a polynomial, a payload already
# in the requested format, or None for no stdout.  The JSON query echoes
# the options, less --format.
# ---------------------------------------------------------------------------

_RENDERERS = {"text": str, "latex": latex_poly, "json": encode_poly}
_FAKE_DEGREE_ROUTES = ("charge", "qhook", "molien")


def _kostka(o: dict):
    from .kostka import kostka_foulkes

    lam, mu = o["lambda"], o["mu"]
    if lam.size != mu.size:
        raise UsageError(f"|lambda| = {lam.size} and |mu| = {mu.size} differ")
    return kostka_foulkes(lam, mu), 0


def _fake_degree(o: dict):
    from .kostka import fake_degree_qhook, kostka_foulkes_charge

    lam = o["lambda"]
    n = lam.size
    top, ones = n * (n - 1) // 2, Partition((1,) * n)

    def molien():
        from .weyl import fake_degree_molien, sn_character_values, weyl_type

        if n < 2:
            return LaurentPoly.one("q")
        return fake_degree_molien(weyl_type("A", n - 1), sn_character_values(lam))

    routes = {
        "charge": lambda: kostka_foulkes_charge(lam, ones).substitute_power(-1).shift(top).with_var("q"),
        "qhook": lambda: fake_degree_qhook(lam),
        "molien": molien,
    }
    wanted = _FAKE_DEGREE_ROUTES if o["algorithm"] == "all" else (o["algorithm"],)
    values = {name: routes[name]() for name in wanted}
    first = values[wanted[0]]
    if any(v != first for v in values.values()):
        detail = "; ".join(f"{k}: {v}" for k, v in values.items())
        print(f"error: fake-degree cross-check failed for {lam}: {detail}", file=sys.stderr)
        return None, 2
    return first, 0


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
    raised on the way, such as an empty s3 slice, is printed as one
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
        value, code = COMMANDS[o["command"]][2](o)
        if value is None:
            return code
        if not isinstance(value, (str, dict)):
            value = _RENDERERS[o["format"]](value)
        if o["format"] != "json":
            print(value)
            return code
        echo = {k: v for k, v in o.items() if k != "format"}
        query = {k: list(v) if isinstance(v, Partition) else v for k, v in echo.items()}
        ms = int((time.perf_counter() - started) * 1000)
        meta = {"version": __version__, "convention": CONVENTION_TAG, "ms": ms}
        print(json.dumps({"query": query, "result": value, "meta": meta}, sort_keys=True))
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
