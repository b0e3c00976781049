import time

import pytest

from nilcone import kostka, springer, verify, weyl
from nilcone.laurent import ExactDivisionError
from nilcone.partitions import Partition
from nilcone.verify import SUITES, run_suite

# the planted defects of the mutation catalogue
from test_mutations import (
    a2_class_size,
    dropped_factor,
    raised_hook,
    shifted_column_entry,
    shifted_packed_fake_degree,
    walg_stride,
    wrong_qhook,
)


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
        assert names == set(SUITES) == {
            "counts", "fake-degrees", "cone-series", "proudfoot", "fibers", "walg"
        }

    def test_fake_degrees_suite_catches_a_wrong_qhook(self, monkeypatch, clear_memos):
        """One wrong q-hook value fails the suite even when the Molien route
        is made to agree with it: the charge route is left to catch it, so
        it must not share the q-hook's code.  The wrong value is planted in
        the one coefficient helper that both fake_degree_qhook and
        kostka_from_fake_degree read, and the memos are emptied so that a
        memoised column does not hide it."""
        wrong_qhook(monkeypatch)
        monkeypatch.setitem(kostka._FAKE_DEGREE_ROUTES, "molien", kostka.fake_degree_qhook)
        report = run_suite("fake-degrees", max_n=4)
        assert not report.passed
        assert report.checks[0].counterexample == "lam=(2,1)"

    def test_fake_degrees_suite_reports_a_broken_class_average(self, monkeypatch, clear_memos):
        """An A2 class size moved by one leaves no class average integral.
        fake_degree_molien raises ValueError for that, but the suite fed
        it its own S_3 characters, so the fault is internal: a FAIL with
        the shapes (exit 2), not a usage error (exit 1)."""
        a2_class_size(monkeypatch)
        report = run_suite("fake-degrees", max_n=3)
        assert not report.passed
        assert report.checks[0].counterexample == "lam=(3); lam=(2,1); lam=(1,1,1)"

    def test_walg_suite_catches_a_wrong_stride(self, monkeypatch, clear_memos):
        """A wrong stride fails the walg suite, which multiplies back
        through LaurentPoly.__mul__.  walg is the one caller of the kernel,
        so no other route of the suite trips first, memoised or not.  The
        first failure is at n = 3: the degree series of n = 2,
        1 / (1 - u**2), is the multiples of 2 and needs no prefix sum."""
        walg_stride(monkeypatch)
        report = run_suite("walg", max_n=3)
        assert not report.passed
        assert report.checks[0].counterexample.startswith("phi=(3)")

    def test_dropped_factor_trips_both_divisions(self, monkeypatch, clear_memos):
        """The shared kernel _at_base without the last factor of each product
        trips the exactness checks of its three callers: the q-hook's
        q_quotient_coefficients, the class characters of weyl.py and walg's
        hook numerator."""
        dropped_factor(monkeypatch)
        with pytest.raises(ExactDivisionError):
            kostka.fake_degree_qhook(Partition((3, 1)))
        with pytest.raises(AssertionError):
            weyl._class_characters("A", 3)
        with pytest.raises(ExactDivisionError):
            springer.hp0_walg_full_series(Partition((3, 1)), 8)

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_a_raised_hook_trips_every_suite(self, name, monkeypatch, clear_memos):
        """A hook of (2,1) raised by one leaves its q-hook inexact.  Every
        suite divides that q-hook unmemoised, so each raises
        ExactDivisionError before it compares anything."""
        raised_hook(monkeypatch)
        with pytest.raises(ExactDivisionError):
            run_suite(name, max_n=4)

    def test_fibers_suite_catches_a_shifted_column_entry(self, monkeypatch):
        """K[(3),(2,1)] times t in the Springer series' column keeps every
        count and degeneration; the x-side closed form catches it."""
        shifted_column_entry(monkeypatch)
        report = run_suite("fibers", max_n=4)
        assert not report.passed
        assert report.checks[0].counterexample == "x side phi=(2,1)"

    def test_fibers_suite_catches_a_shifted_fake_degree(self, monkeypatch):
        """The packed fake degree of (2,1) moved up one power of y**2 keeps
        every count and the x side of every series; the zero-orbit check
        against the Molien cone series catches it at (1,1,1)."""
        shifted_packed_fake_degree(monkeypatch)
        report = run_suite("fibers", max_n=3)
        assert not report.passed
        assert report.checks[0].counterexample == "zero-orbit n=3"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense")

    @pytest.mark.parametrize("suite", [["all"], ("all",), None])
    def test_non_str_suite_rejected(self, suite):
        """A list would fail unworded on hashing, a tuple or None as unknown."""
        with pytest.raises(TypeError, match=f"suite must be a str, not {type(suite).__name__}$"):
            run_suite(suite)

    @pytest.mark.parametrize("max_n", [True, 2.0, "3"])
    def test_non_int_max_n_rejected(self, max_n):
        """True is not 1: it would run every suite at n <= 1 and print n <= True."""
        with pytest.raises(TypeError, match=f"max_n must be an int, not {type(max_n).__name__}$"):
            run_suite("counts", max_n)

    def test_negative_max_n_rejected(self):
        """A negative range would pass every suite without checking anything."""
        with pytest.raises(ValueError, match="max_n must be nonnegative, not -3"):
            run_suite("counts", -3)

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


# The suite that compares each quantity of verify._ROUTES, and the label of
# its first input at max_n = 4.
OWNERS = {
    "fake degree": ("fake-degrees", "lam=(1)"),
    "Kostka entry": ("fake-degrees", "K[(1),(1)]"),
    "cone series": ("cone-series", "n=2"),
    "zero-orbit fiber": ("fibers", "zero-orbit n=1"),
    "fiber at y = 1": ("fibers", "x side phi=(1)"),
    "walg": ("walg", "phi=(1)"),
}


class TestRouteTable:
    def test_fake_degree_row_is_kostkas_table(self):
        assert verify._ROUTES["fake degree"] is kostka._FAKE_DEGREE_ROUTES

    @pytest.mark.parametrize(
        "quantity,route",
        [(quantity, route) for quantity, row in verify._ROUTES.items() for route in row],
    )
    def test_every_check_reads_the_table(self, quantity, route, monkeypatch):
        """A route of the table replaced by one whose value equals nothing
        fails the suite that owns its quantity from the first input on, so
        every compared value comes from the table: a check that called a
        route itself would still pass."""
        monkeypatch.setitem(verify._ROUTES[quantity], route, lambda x: object())
        suite, first = OWNERS[quantity]
        report = run_suite(suite, max_n=4)
        assert not report.passed
        [check] = [c for c in report.checks if not c.passed]
        assert check.counterexample.startswith(first)
