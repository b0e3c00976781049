import json
import os

import pytest

from nilcone.cli import (
    ENV_CACHE_DIR,
    QueryResult,
    UsageError,
    cache_load_store,
    parse_partition,
    run,
)
from nilcone.kostka import FORMAT_VERSION
from nilcone.laurent import BiLaurentPoly, ExactDivisionError, LaurentPoly
from nilcone.verify import CheckResult


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
        assert meta["cache_hit"] is False
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

    def test_e6_budget_flag(self, capsys):
        code, _, err = invoke(capsys, "pn", "--type", "E6")
        assert code == 1
        assert "budget" in err


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

    def test_cache_warning_is_one_line(self, tmp_path, capsys):
        (tmp_path / "kostka-n3.json").write_text("{ not json !!")
        argv = ["kostka", "--lambda", "2,1", "--mu", "1,1,1", "--cache-dir", str(tmp_path)]
        code, out, err = invoke(capsys, *argv)
        assert code == 0
        assert out.strip() == "t + t^2"
        assert err.count("\n") == 1
        assert err.startswith("warning: ignoring unusable cache file ")

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
        import nilcone.cli as cli_module

        monkeypatch.setattr(cli_module, "fake_degree_qhook", lambda lam: LaurentPoly.one("q"))
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
        import nilcone.cli as cli_module

        def broken(phi):
            raise error

        monkeypatch.setattr(cli_module, "hp0_slice_series", broken)
        code, out, err = invoke(capsys, "hp0", "--phi", "2,1")
        assert code == 3
        assert out == ""
        assert err == f"error: internal invariant failed: {type(error).__name__}: {error}\n"


class TestVerifyCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--suite", "duality", "--max-n", "4")
        assert code == 0
        assert "overall: pass" in out

    def test_json_report(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "--suite", "tables", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"]["overall"] == "pass"
        assert all(c["passed"] for c in payload["result"]["checks"])

    def test_failure_exits_two(self, capsys, monkeypatch):
        import nilcone.verify as verify_module

        monkeypatch.setitem(
            verify_module.SUITES,
            "duality",
            lambda max_n=None: [CheckResult("forced", "unit test", False, "cex")],
        )
        code, out, _ = invoke(capsys, "verify", "--suite", "duality")
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

    def test_query_result_roundtrip(self, capsys):
        _, out, _ = invoke(capsys, "pn", "--n", "3", "--format", "json")
        parsed = QueryResult.from_json(out)
        assert parsed.to_json() == out.strip()


class TestCache:
    def test_cold_then_hit(self, tmp_path):
        table, hit = cache_load_store(5, tmp_path)
        assert not hit
        path = tmp_path / "kostka-n5.json"
        assert path.is_file()
        first_bytes = path.read_bytes()
        again, hit = cache_load_store(5, tmp_path)
        assert hit
        assert path.read_bytes() == first_bytes
        assert again.entries == table.entries

    def test_no_directory_means_in_memory(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        table, hit = cache_load_store(3)
        assert not hit
        assert table.n == 3

    def test_environment_variable_used(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        _, hit = cache_load_store(4)
        assert not hit
        assert (tmp_path / "kostka-n4.json").is_file()
        _, hit = cache_load_store(4)
        assert hit

    def test_corrupted_file_recomputed_with_warning(self, tmp_path):
        cache_load_store(3, tmp_path)
        path = tmp_path / "kostka-n3.json"
        path.write_text("{ not json !!")
        with pytest.warns(UserWarning, match="unusable cache file"):
            table, hit = cache_load_store(3, tmp_path)
        assert not hit
        assert table.n == 3
        # overwritten with a valid file
        rebuilt = json.loads(path.read_text())
        assert rebuilt["n"] == 3

    def test_non_int_parts_recomputed_with_warning(self, tmp_path):
        cache_load_store(3, tmp_path)
        path = tmp_path / "kostka-n3.json"
        payload = json.loads(path.read_text())
        payload["entries"][0]["lambda"] = [2.5, 0.5]
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning, match="unusable cache file"):
            _, hit = cache_load_store(3, tmp_path)
        assert not hit
        assert json.loads(path.read_text())["entries"][0]["lambda"] != [2.5, 0.5]

    def test_version_mismatch_recomputed(self, tmp_path):
        cache_load_store(3, tmp_path)
        path = tmp_path / "kostka-n3.json"
        payload = json.loads(path.read_text())
        payload["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.warns(UserWarning):
            _, hit = cache_load_store(3, tmp_path)
        assert not hit
        assert json.loads(path.read_text())["format_version"] == FORMAT_VERSION

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.warns(UserWarning, match="not writable"):
            table, hit = cache_load_store(3, blocker / "sub")
        assert not hit
        assert table.n == 3

    def test_kostka_command_uses_cache(self, tmp_path, capsys):
        argv = [
            "kostka", "--lambda", "2,1", "--mu", "1,1,1",
            "--cache-dir", str(tmp_path), "--format", "json",
        ]
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert json.loads(out)["meta"]["cache_hit"] is False
        code, out, _ = invoke(capsys, *argv)
        assert json.loads(out)["meta"]["cache_hit"] is True


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
