import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilcone.cli import _FORMAT, _INT, _PARTS, COMMANDS, UsageError, parse_args, parse_partition, run
from nilcone.laurent import BiLaurentPoly, ExactDivisionError, LaurentPoly
from nilcone.partitions import partitions_of
from nilcone.verify import CheckResult

# a planted defect of the mutation catalogue
from test_mutations import a2_class_size


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPartitionParsing:
    def test_accepts_decreasing(self):
        assert parse_partition("3,1,1").parts == (3, 1, 1)

    def test_rejects_increasing_without_sorting(self):
        with pytest.raises(UsageError):
            parse_partition("1,2")

    def test_rejects_nonpositive(self):
        with pytest.raises(UsageError):
            parse_partition("2,0")

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_partition("2,x")


class TestKostkaCommand:
    def test_text_output(self, capsys):
        code, out, _ = invoke(capsys, "kostka", "--lambda", "2,1", "--mu", "1,1,1")
        assert code == 0
        assert out.strip() == "t + t^2"

    def test_json_output(self, capsys):
        code, out, _ = invoke(
            capsys, "kostka", "--lambda", "2,1", "--mu", "1,1,1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["query"] == {"command": "kostka", "lambda": [2, 1], "mu": [1, 1, 1]}
        assert payload["result"]["variables"] == ["t"]
        assert payload["result"]["terms"] == [
            {"t": 1, "coeff": "1"},
            {"t": 2, "coeff": "1"},
        ]
        meta = payload["meta"]
        assert sorted(meta) == ["convention", "ms", "version"]
        assert isinstance(meta["ms"], int)
        assert meta["convention"]

    def test_latex_output(self, capsys):
        code, out, _ = invoke(
            capsys, "kostka", "--lambda", "2,1", "--mu", "1,1,1", "--format", "latex"
        )
        assert code == 0
        assert out.strip() == "t + t^{2}"

    def test_size_mismatch_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "kostka", "--lambda", "2,1", "--mu", "1,1")
        assert code == 1
        assert "error:" in err

    def test_increasing_partition_rejected(self, capsys):
        code, _, err = invoke(capsys, "kostka", "--lambda", "1,2", "--mu", "1,1,1")
        assert code == 1
        assert "weakly decreasing" in err


class TestPnCommand:
    def test_json_terms(self, capsys):
        code, out, _ = invoke(capsys, "pn", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["variables"] == ["x", "y"]
        assert payload["result"]["terms"] == [
            {"x": 0, "y": 0, "coeff": "1"},
            {"x": 2, "y": -2, "coeff": "1"},
        ]

    def test_molien_route(self, capsys):
        code, out, _ = invoke(capsys, "pn", "--type", "B", "--rank", "2")
        assert code == 0
        assert out.strip()

    def test_exceptional_rank_defaults(self, capsys):
        code, out, _ = invoke(capsys, "pn", "--type", "G2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["query"] == {"command": "pn", "type": "G2", "rank": 2}

    def test_routes_agree(self, capsys):
        _, out_a, _ = invoke(capsys, "pn", "--n", "3", "--format", "json")
        _, out_b, _ = invoke(capsys, "pn", "--type", "A", "--rank", "2", "--format", "json")
        assert json.loads(out_a)["result"] == json.loads(out_b)["result"]

    def test_both_routes_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "pn", "--n", "2", "--type", "A", "--rank", "1")
        assert code == 1

    def test_missing_rank_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "pn", "--type", "B")
        assert code == 1

    def test_unsupported_type_reported(self, capsys):
        code, _, err = invoke(capsys, "pn", "--type", "B", "--rank", "1")
        assert code == 1
        assert "unsupported" in err

    def test_exceptional_rank_mismatch_reported(self, capsys):
        code, _, err = invoke(capsys, "pn", "--type", "G2", "--rank", "3")
        assert (code, err) == (1, "error: G2 has rank 2, not 3\n")

    def test_e6(self, capsys):
        code, out, _ = invoke(capsys, "pn", "--type", "E6")
        assert code == 0
        assert out.startswith("1 + ") and out.strip().endswith("x^72 y^-72")


class TestOtherCommands:
    def test_hp0(self, capsys):
        code, out, _ = invoke(capsys, "hp0", "--phi", "2,1")
        assert code == 0
        assert out.strip() == "1 + y^2"

    def test_walg(self, capsys):
        code, out, _ = invoke(capsys, "walg", "--phi", "2", "--truncate", "6")
        assert code == 0
        assert out.strip() == "1 + y^4 + O(y^7)"

    def test_walg_json_has_truncation_order(self, capsys):
        code, out, _ = invoke(
            capsys, "walg", "--phi", "2", "--truncate", "6", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["result"]["truncation_order"] == 6

    def test_walg_negative_truncation(self, capsys):
        code, _, err = invoke(capsys, "walg", "--phi", "2", "--truncate", "-1")
        assert code == 1

    def test_ih(self, capsys):
        code, out, _ = invoke(capsys, "ih", "--lambda", "2,1")
        assert code == 0
        assert out.strip() == "1 + x^2"

    def test_s3(self, capsys):
        code, out, _ = invoke(capsys, "s3", "--nu", "2,1", "--phi", "1,1,1")
        assert code == 0
        assert out.strip() == "1 + x^2"

    def test_s3_empty_slice_warns(self, capsys):
        code, out, err = invoke(capsys, "s3", "--nu", "2,2", "--phi", "3,1")
        assert code == 0
        assert out.strip() == "0"
        assert err.count("\n") == 1
        assert err.startswith("warning: slice of orbit closure (2,2) at (3,1) is empty")
        assert ".py" not in err and "warnings.warn" not in err

    def test_springer_fiber(self, capsys):
        code, out, _ = invoke(capsys, "springer-fiber", "--phi", "2,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["terms"] == [
            {"x": 0, "y": 0, "coeff": "1"},
            {"x": 0, "y": 2, "coeff": "1"},
            {"x": 2, "y": -2, "coeff": "1"},
        ]

    def test_proudfoot_text(self, capsys):
        code, out, _ = invoke(capsys, "proudfoot", "--lambda", "3,1")
        assert code == 0
        assert "verdict: equal" in out

    def test_proudfoot_json(self, capsys):
        code, out, _ = invoke(capsys, "proudfoot", "--lambda", "3,1", "--format", "json")
        payload = json.loads(out)
        assert payload["result"]["equal"] is True
        assert payload["result"]["hp0_slice"]["terms"] == [
            {"y": 0, "coeff": "1"},
            {"y": 2, "coeff": "1"},
            {"y": 4, "coeff": "1"},
        ]

    def test_fake_degree_cross_checks_all(self, capsys):
        code, out, _ = invoke(capsys, "fake-degree", "--lambda", "2,1")
        assert code == 0
        assert out.strip() == "q + q^2"

    def test_fake_degree_single_algorithm(self, capsys):
        for algorithm in ("charge", "qhook", "molien"):
            code, out, _ = invoke(
                capsys, "fake-degree", "--lambda", "2,1", "--algorithm", algorithm
            )
            assert code == 0
            assert out.strip() == "q + q^2"

    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == 1

    def test_fake_degree_disagreement_exits_two(self, capsys, monkeypatch):
        import nilcone.kostka as kostka

        monkeypatch.setattr(kostka, "fake_degree_qhook", lambda lam: LaurentPoly.one("q"))
        code, out, err = invoke(capsys, "fake-degree", "--lambda", "2,1")
        assert code == 2
        assert out == ""
        assert err == (
            "error: fake-degree cross-check failed for (2,1): "
            "charge: q + q^2; qhook: 1; molien: q + q^2\n"
        )

    @pytest.mark.parametrize(
        "error", [ExactDivisionError("(1 + y) does not divide y"), AssertionError("bad")]
    )
    def test_broken_invariant_exits_three(self, capsys, monkeypatch, error):
        import nilcone.springer as springer

        def broken(phi):
            raise error

        monkeypatch.setattr(springer, "hp0_slice_series", broken)
        code, out, err = invoke(capsys, "hp0", "--phi", "2,1")
        assert code == 3
        assert out == ""
        assert err == f"error: internal invariant failed: {type(error).__name__}: {error}\n"

    def test_broken_kostka_column_exits_three(self, capsys, monkeypatch, clear_memos):
        import nilcone.kostka as kostka

        original = kostka._kostka_column
        original((1,))  # memoised right, so that only what column (2,1) reads is negated

        def negated_inner(parts):
            if parts == (2, 1):
                return original.__wrapped__(parts)
            return {k: -v for k, v in original(parts).items()}

        monkeypatch.setattr(kostka, "_kostka_column", negated_inner)
        code, out, err = invoke(capsys, "kostka", "--lambda", "3", "--mu", "2,1")
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal invariant failed: AssertionError: column (2,1): ")
        assert err.count("\n") == 1

    def test_molien_rejecting_the_own_character_exits_three(self, capsys, clear_memos):
        # the package's own chi^lam failing the class average is a fault, not a bad input
        with pytest.MonkeyPatch.context() as monkeypatch:
            a2_class_size(monkeypatch)
            code, out, err = invoke(capsys, "fake-degree", "--lambda", "2,1", "--algorithm", "molien")
        assert code == 3
        assert out == ""
        assert err == (
            "error: internal invariant failed: AssertionError: Molien average of chi^(2,1): "
            "class average is not integral: input is not a character\n"
        )


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "proudfoot", "--max-n", "4")
        assert code == 0
        assert "overall: pass" in out

    def test_json_report(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--suite", "counts", "--max-n", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["overall"] == "pass"
        assert all(c["passed"] for c in payload["result"]["checks"])

    def test_failure_exits_two(self, capsys, monkeypatch):
        import nilcone.verify as verify_module

        monkeypatch.setitem(
            verify_module.SUITES,
            "proudfoot",
            lambda max_n=None: [CheckResult("forced", "unit test", False, "cex")],
        )
        code, out, _ = invoke(capsys, "verify", "--suite", "proudfoot")
        assert code == 2
        assert "overall: fail" in out

    def test_unknown_suite_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "verify", "--suite", "bogus")
        assert code == 1


class TestDeterminism:
    def test_identical_invocations_identical_payloads_modulo_ms(self, capsys):
        argv = ["springer-fiber", "--phi", "2,2", "--format", "json"]
        _, first, _ = invoke(capsys, *argv)
        _, second, _ = invoke(capsys, *argv)
        a, b = json.loads(first), json.loads(second)
        a["meta"].pop("ms")
        b["meta"].pop("ms")
        assert a == b


class TestNoTableCache:
    """Every Kostka query is answered from the memoised column; the
    variable that once named a table-cache directory selects nothing (the
    golden cases pin --cache-dir as a usage error)."""

    @pytest.mark.parametrize("fmt", ["text", "json", "latex"])
    def test_environment_variable_is_ignored(self, tmp_path, monkeypatch, capsys, fmt):
        argv = ["kostka", "--lambda", "3,1,1", "--mu", "2,1,1,1", "--format", fmt]
        monkeypatch.delenv("NILCONE_CACHE_DIR", raising=False)
        code, plain, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        monkeypatch.setenv("NILCONE_CACHE_DIR", str(tmp_path))
        code, with_env, err = invoke(capsys, *argv)
        assert (code, err) == (0, "")
        assert re.sub(r'"ms": \d+', "", with_env) == re.sub(r'"ms": \d+', "", plain)
        assert list(tmp_path.iterdir()) == []


def test_rendering_helpers_roundtrip():
    from nilcone.cli import encode_poly

    poly = LaurentPoly({-2: 3, 0: -1, 5: 1}, "t")
    encoded = encode_poly(poly)
    rebuilt = LaurentPoly(
        {term["t"]: int(term["coeff"]) for term in encoded["terms"]}, "t"
    )
    assert rebuilt == poly

    bi = BiLaurentPoly({(1, -1): 2, (0, 0): 1})
    encoded = encode_poly(bi)
    rebuilt = BiLaurentPoly(
        {(term["x"], term["y"]): int(term["coeff"]) for term in encoded["terms"]}
    )
    assert rebuilt == bi


def test_parser_choices_match_the_library_tables():
    """The parser reads literals so that building it imports neither weyl nor
    verify; they must stay equal to the tables those modules define."""
    import nilcone.cli as cli
    import nilcone.verify as verify
    import nilcone.weyl as weyl

    assert cli._FAMILIES == weyl.SUPPORTED_FAMILIES
    assert cli._SUITES == tuple(verify.SUITES)


def test_run_suite_is_read_from_verify():
    import nilcone.cli as cli
    import nilcone.verify as verify

    assert cli.run_suite is verify.run_suite
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["kostka", "--lambda", "2,1", "--mu", "1,1,1"], id="one-line"),
        pytest.param(["walg", "--phi", "3,2,1", "--truncate", "20000"], id="many-writes"),
    ],
)
def test_closed_pipe_is_one_line_and_exit_4(argv):
    """A reader that closes stdout before the output is written (as
    `| head -c 100` does) costs one diagnostic line and exit 4, in a fresh
    process, where the flush at interpreter exit would also fail."""
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "nilcone.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write)
    assert done.stderr == "error: output closed (broken pipe)\n"
    assert done.returncode == 4


class TestArgvGrammar:
    """The parser keeps argparse's contract: the same options dict, the same
    error wording (tests/cli_golden.json pins it), help on stdout with exit 0,
    and unique flag prefixes."""

    def test_options_dict_has_every_flag(self):
        assert parse_args(["pn", "--n", "3"]) == {
            "command": "pn", "format": "text", "n": 3, "type": None, "rank": None,
        }
        assert parse_args(["verify", "--max-n=2", "--format", "json"]) == {
            "command": "verify", "format": "json", "suite": "all", "max_n": 2,
        }

    def test_equals_form_and_last_repeat_wins(self, capsys):
        code, out, _ = invoke(capsys, "walg", "--phi=2", "--truncate", "3", "--truncate=6")
        assert (code, out) == (0, "1 + y^4 + O(y^7)\n")

    def test_negative_value_is_a_value(self):
        assert parse_args(["walg", "--phi", "2", "--truncate", "-1"])["truncate"] == -1

    def test_unique_prefix_names_the_flag(self, capsys):
        assert invoke(capsys, "kostka", "--lam", "3", "--m", "2,1") == (0, "t\n", "")
        assert parse_args(["verify", "--max", "1", "--s", "counts"])["max_n"] == 1

    def test_ambiguous_prefix_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setitem(
            COMMANDS, "both", ("two flags", [("--max-n", _INT), ("--mu", _PARTS)], None)
        )
        code, out, err = invoke(capsys, "both", "--m", "2")
        assert (code, out) == (1, "")
        assert err == "error: ambiguous option: --m could match --max-n, --mu\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["kostka", "--lambda"], "argument --lambda: expected one argument"),
            (["kostka", "--lambda", "--mu", "1"], "argument --lambda: expected one argument"),
            (["hp0", "--phi", "1", "--", "-1"], "unrecognized arguments: -- -1"),
            (["hp0", "--phi", "1", "--lambda=1"], "unrecognized arguments: --lambda=1"),
            (["hp0", "--phi", "1", "--format="], "argument --format: invalid choice: '' "
             "(choose from 'text', 'json', 'latex')"),
            ([], "the following arguments are required: command"),
            (["--format", "json", "kostka"], "the following arguments are required: command"),
            (["s3"], "the following arguments are required: --nu, --phi"),
        ],
    )
    def test_usage_errors(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_the_commands(self, capsys, flag):
        code, out, err = invoke(capsys, flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: nilcone COMMAND")
        for name, (help_text, _, _) in COMMANDS.items():
            assert re.search(rf"^  {re.escape(name)} +{re.escape(help_text)}$", out, re.M)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_command_help_lists_its_flags(self, capsys, name):
        code, out, err = invoke(capsys, name, "-h", "--no-such-flag")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: nilcone {name} ")
        assert "  --format {text,json,latex}  " in out and out.count("default text") == 1
        for flag, _ in COMMANDS[name][1]:
            assert flag in out
        assert out.count("required") == sum(bool(s.get("required")) for _, s in COMMANDS[name][1])

    def test_command_help_shows_choices_defaults_and_help(self, capsys):
        _, out, _ = invoke(capsys, "verify", "-h")
        assert "--suite {counts,fake-degrees,cone-series,proudfoot,fibers,walg,all}  default all" in out
        _, out, _ = invoke(capsys, "pn", "--help")
        assert re.search(r"^  --n N +type A, per-partition sum$", out, re.M)
        assert re.search(r"^  --type \{A,B,C,D,G2,F4,E6\} +class-average route$", out, re.M)

    def test_help_in_a_fresh_process_exits_zero(self):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        for argv in (["-h"], ["kostka", "-h"]):
            done = subprocess.run(
                [sys.executable, "-m", "nilcone.cli", *argv], env=env, capture_output=True, text=True
            )
            assert (done.returncode, done.stderr) == (0, "")
            assert done.stdout.startswith("usage: nilcone ")


# Values of each flag, bounded so that every query stays cheap; JUNK may land
# anywhere, even as a value, so it holds no large number.
VALUES = {
    "--n": st.integers(-1, 6), "--rank": st.integers(-1, 4),
    "--truncate": st.integers(-1, 50), "--max-n": st.integers(-1, 3),
    "partition": st.integers(1, 6).flatmap(lambda n: st.sampled_from(partitions_of(n))).map(
        lambda lam: ",".join(map(str, lam))
    ),
}
JUNK = ("", "x", "0", "6", "-1", "-", "--", "=", "2,1", "1,2", "2,x", "A", "json", "all", "pn")
UNKNOWN = ("--cache-dir", "--bogus", "-x", "--lambda", "--n", "--phi", "--format", "--help=1")


@st.composite
def argvs(draw):
    """A command (or junk in its place), maybe its required flags, then
    flags of it in the space, `=` and prefix forms, -h, unknown flags and
    junk tokens."""
    name = draw(st.sampled_from([*COMMANDS, "frobnicate", "-h", "--lam"]))
    specs = dict([_FORMAT, *(COMMANDS[name][1] if name in COMMANDS else [])])

    def pair(flag):
        spec = specs[flag]
        if "choices" in spec:
            value = draw(st.sampled_from(spec["choices"]))
        else:
            value = str(draw(VALUES.get(flag, VALUES["partition"])))
        shortest = min(k for k in range(3, len(flag) + 1)
                       if [f for f in specs if f.startswith(flag[:k])] == [flag])
        spelled = flag[: draw(st.integers(shortest, len(flag)))]
        return [f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value]

    argv = [name] if draw(st.integers(0, 9)) else []
    if draw(st.integers(0, 3)):
        argv += [token for flag, spec in specs.items() if spec.get("required") for token in pair(flag)]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["pair"] * 5 + ["unknown", "junk", "help"]))
        if kind == "pair":
            argv += pair(draw(st.sampled_from(sorted(specs))))
        elif kind == "unknown":
            argv.append(draw(st.sampled_from(UNKNOWN)))
        elif kind == "junk":
            argv.append(draw(st.sampled_from(JUNK)))
        else:
            argv.append(draw(st.sampled_from(["-h", "--help"])))
    return argv


@settings(deadline=None, max_examples=150)
@given(argvs())
def test_any_argv_gives_an_exit_code_and_at_most_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert type(code) is int and 0 <= code <= 4
    lines = err.getvalue().splitlines()
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), lines
    errors = sum(line.startswith("error: ") for line in lines)
    assert errors == int(code in (1, 3, 4)) or code == 2 and errors == 1
