import time

import pytest

from nilcone import kostka, verify
from nilcone.laurent import LaurentPoly, TruncatedSeries
from nilcone.partitions import Partition
from nilcone.springer import _kostka_g_parts
from nilcone.verify import SUITES, run_suite


class TestSuites:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_each_suite_passes_small(self, name):
        report = run_suite(name, max_n=4)
        assert report.passed
        assert report.checks

    def test_all_runs_every_suite(self):
        report = run_suite("all", max_n=3)
        assert report.passed
        names = {c.name.split(":")[0] for c in report.checks}
        assert names == {name.split(":")[0] for name in
                         ("counts", "fake-degrees", "cone-series",
                          "proudfoot", "fibers", "walg", "weights", "socle", "tables")}

    def test_fake_degrees_suite_catches_a_wrong_qhook(self, monkeypatch):
        """One wrong q-hook value fails the suite even when the major-index
        and Molien routes are made to agree with it: the charge route is
        left to catch it, so it must not share the q-hook's code."""
        right = kostka.fake_degree_qhook

        def wrong(lam):
            fd = right(lam)
            return fd + LaurentPoly.one("q") if lam == Partition((2, 1)) else fd

        monkeypatch.setattr(kostka, "fake_degree_qhook", wrong)
        monkeypatch.setattr(verify, "syt_major_index_genfun", wrong)
        monkeypatch.setattr(verify, "sn_character_values", lambda lam: lam)
        monkeypatch.setattr(verify, "fake_degree_molien", lambda wt, lam: wrong(lam))
        _kostka_g_parts.cache_clear()  # a memoised column would hide the patch
        try:
            report = run_suite("fake-degrees", max_n=4)
        finally:
            _kostka_g_parts.cache_clear()
        assert not report.passed
        assert report.checks[0].counterexample == "lam=(2,1)"

    def test_walg_suite_catches_a_wrong_stride(self, monkeypatch):
        """Dividing by 1 - y**(e + 1) in place of 1 - y**e fails the walg
        suite, which multiplies back through TruncatedSeries.__mul__."""
        right = TruncatedSeries.divide_one_minus
        monkeypatch.setattr(
            TruncatedSeries,
            "divide_one_minus",
            lambda self, exponents: right(self, [e + 1 for e in exponents]),
        )
        report = run_suite("walg", max_n=3)
        assert not report.passed
        assert report.checks[0].counterexample.startswith("phi=(2)")

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    def test_report_lines_have_status_and_overall(self):
        report = run_suite("proudfoot", max_n=3)
        lines = report.lines()
        assert all(line.startswith("[PASS]") for line in lines[:-1])
        assert lines[-1] == "overall: pass"

    def test_all_at_max_n_five_under_a_minute(self):
        started = time.perf_counter()
        report = run_suite("all", max_n=5)
        elapsed = time.perf_counter() - started
        assert report.passed
        assert elapsed < 60.0
