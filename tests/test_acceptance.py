"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with -s to see them on success).  Every assertion is exact
equality of term maps; the only tolerances are the stated wall-clock
limits."""

import time
from math import comb, factorial

from nilcone.kostka import (
    _kostka_foulkes_parts,
    compute_kostka_table,
    fake_degree_qhook,
    kostka_foulkes,
    kostka_from_fake_degree,
)
from nilcone.cli import cache_load_store
from nilcone.partitions import Partition, partitions_of
from nilcone.springer import (
    kostka_g,
    orbit_dim,
    pn_series,
    prefactor_audit,
    proudfoot_check,
    springer_fiber_series,
)
from nilcone.weyl import (
    enumeration_counts,
    fake_degree_molien,
    pn_series_molien,
    sn_character_values,
    weyl_type,
)


def _record(number, name, body):
    try:
        body()
    except BaseException:
        print(f"criterion {number:2d} ({name}): FAIL")
        raise
    print(f"criterion {number:2d} ({name}): PASS")


def test_criterion_01_regular_representation_count():
    def body():
        started = time.perf_counter()
        for n in range(1, 9):
            assert pn_series(n).evaluate(1, 1) == factorial(n), n
        for family, rank, order in (("B", 2, 8), ("B", 3, 48), ("G2", 2, 12), ("F4", 4, 1152)):
            wt = weyl_type(family, rank)
            assert wt.order == order
            assert pn_series_molien(wt).evaluate(1, 1) == order, (family, rank)
        assert time.perf_counter() - started < 30.0

    _record(1, "regular-representation count", body)


def test_criterion_02_fake_degree_oracle_triangle():
    def body():
        started = time.perf_counter()
        for n in range(1, 8):
            top = n * (n - 1) // 2
            wt = weyl_type("A", n - 1) if n >= 2 else None
            for lam in partitions_of(n):
                k_charge = kostka_foulkes(lam, Partition((1,) * n))
                k_hook = kostka_from_fake_degree(lam)
                assert k_charge == k_hook, lam
                if wt is not None:
                    fd = fake_degree_molien(wt, sn_character_values(lam))
                    assert fd.substitute_power(-1).shift(top) == k_charge, lam
        assert time.perf_counter() - started < 60.0

    _record(2, "fake-degree oracle triangle, n <= 7", body)


def test_criterion_03_double_computation_of_cone_series():
    def body():
        started = time.perf_counter()
        for n in range(2, 7):
            assert pn_series(n).poly == pn_series_molien(weyl_type("A", n - 1)), n
        assert time.perf_counter() - started < 30.0

    _record(3, "per-partition vs class-average cone series, n <= 6", body)


def test_criterion_04_sl2_closed_form():
    def body():
        assert pn_series(2).poly.terms == {(0, 0): 1, (2, -2): 1}

    _record(4, "sl2 closed form 1 + x^2 y^-2", body)


def test_criterion_05_duality_identity():
    def body():
        for n in range(1, 8):
            for lam in partitions_of(n):
                lhs = kostka_g(lam).substitute_power(-2).shift(orbit_dim(lam))
                conj = lam.conjugate()
                rhs = kostka_g(conj).substitute_power(-2).shift(orbit_dim(conj))
                assert lhs == rhs, lam

    _record(5, "transpose duality of shifted series, n <= 7", body)


def test_criterion_06_slice_orbit_duality():
    def body():
        for n in range(1, 7):
            for lam in partitions_of(n):
                report = proudfoot_check(lam)
                assert report.equal, (lam, report)

    _record(6, "slice hp0 equals dual orbit-closure ih, n <= 6", body)


def test_criterion_07_fiber_specializations():
    def body():
        for n in range(1, 7):
            zero_orbit = Partition((1,) * n)
            assert springer_fiber_series(zero_orbit).poly == pn_series(n).poly, n
            assert springer_fiber_series(Partition((n,))).poly.terms == {(0, 0): 1}, n

    _record(7, "slice series degenerations, n <= 6", body)


def test_criterion_08_weight_nonpositivity():
    def body():
        for n in range(1, 9):
            for (xe, ye), c in pn_series(n).poly.terms.items():
                assert ye <= 0, n
                assert xe >= 0 and c > 0, n

    _record(8, "nonpositive weight grading, n <= 8", body)


def test_criterion_09_coinvariant_self_duality():
    def body():
        for n in range(1, 8):
            top = n * (n - 1) // 2
            for lam in partitions_of(n):
                fd = fake_degree_qhook(lam)
                assert fake_degree_qhook(lam.conjugate()) == fd.substitute_power(-1).shift(top), lam

    _record(9, "coinvariant socle self-duality, n <= 7", body)


def test_criterion_10_structural_table_validation():
    def body():
        for family, rank in (
            ("A", 1), ("A", 2), ("A", 3), ("A", 4),
            ("B", 2), ("B", 3), ("B", 4),
            ("D", 4), ("G2", 2), ("F4", 4),
        ):
            wt = weyl_type(family, rank)
            order, reflections = enumeration_counts(wt)
            assert order == wt.order, (family, rank)
            assert reflections == wt.num_positive_roots, (family, rank)

    _record(10, "degree tables vs enumeration", body)


def test_criterion_11_prefactor_audit():
    def body():
        print()
        header = f"    {'mu':>14} {'ratio':>6} {'2*n_stat':>9} {'dim_orbit':>10}"
        print(header)
        for n in range(1, 7):
            for mu in partitions_of(n):
                audit = prefactor_audit(mu)
                assert audit.is_pure_power_of_y, mu
                assert audit.ratio_y_exponent == audit.doubled_n_stat - audit.orbit_dimension
                print(
                    f"    {str(mu):>14} {audit.ratio_y_exponent:>6} "
                    f"{audit.doubled_n_stat:>9} {audit.orbit_dimension:>10}"
                )

    _record(11, "printed-prefactor discrepancy measured, n <= 6", body)


def test_criterion_12_performance_floor(tmp_path):
    def body():
        _kostka_foulkes_parts.cache_clear()
        started = time.perf_counter()
        table = compute_kostka_table(8)
        cold = time.perf_counter() - started
        assert len(table.entries) > 0
        assert len(partitions_of(8)) == 22
        assert cold < 300.0, f"cold n=8 table took {cold:.1f}s"

        cache_load_store(8, tmp_path)
        started = time.perf_counter()
        _, hit = cache_load_store(8, tmp_path)
        reload_time = time.perf_counter() - started
        assert hit
        assert reload_time < 1.0, f"cached reload took {reload_time:.3f}s"
        print(f"    cold n=8 table: {cold:.2f}s, cached reload: {reload_time * 1000:.0f}ms")

    _record(12, "n = 8 table performance floor", body)
