from math import comb, factorial

import pytest

from nilcone import kostka, springer, tableaux, weyl
from nilcone.kostka import kostka_foulkes, kostka_foulkes_charge
from nilcone.laurent import BiLaurentPoly, LaurentPoly, TruncatedSeries, divide_one_minus
from nilcone.partitions import Partition, partitions_of
from nilcone.springer import (
    BigradedSeries,
    hp0_slice_series,
    hp0_walg_full_series,
    ih_orbit_closure,
    ih_s3_variety,
    kostka_g,
    orbit_dim,
    pn_series,
    proudfoot_check,
    slice_series_typeA_printed,
    springer_fiber_series,
)
from nilcone.tableaux import ssyt_enumerate
from nilcone.weyl import pn_series_molien, weyl_type

P = Partition


def ones(n):
    return P((1,) * n)


class TestOrbitDim:
    def test_regular(self):
        for n in range(1, 7):
            assert orbit_dim(P((n,))) == n * n - n

    def test_zero_orbit(self):
        for n in range(1, 7):
            assert orbit_dim(ones(n)) == 0

    def test_subregular_sl3(self):
        assert orbit_dim(P((2, 1))) == 4

    def test_two_formulas_agree(self):
        for n in range(9):
            for lam in partitions_of(n):
                d = orbit_dim(lam)
                assert d == n * n - sum(p * p for p in lam.conjugate().parts)
                assert d % 2 == 0
                assert 0 <= d <= n * n - n


class TestKostkaG:
    def test_convention_anchors(self):
        for n in range(1, 7):
            assert kostka_g(P((n,))).terms == {comb(n, 2): 1}
            assert kostka_g(ones(n)) == 1

    def test_subregular(self):
        assert kostka_g(P((2, 1))).terms == {1: 1, 2: 1}

    def test_empty_partition(self):
        assert kostka_g(P(())) == 1

    def test_consumers_take_the_closed_form(self, monkeypatch, clear_memos):
        """With the tableau search disabled, every consumer of the (1^n)
        column still answers, and so does kostka_foulkes, so none of them
        goes through charge."""

        def no_tableaux(*args):
            raise AssertionError("tableau enumeration reached")

        monkeypatch.setattr(kostka, "ssyt_enumerate", no_tableaux)
        with pytest.raises(AssertionError, match="tableau enumeration"):
            kostka_foulkes_charge(P((3, 2, 1)), ones(6))
        assert kostka_foulkes(P((3, 2, 1)), ones(6)) == kostka_g(P((3, 2, 1)))
        assert kostka_foulkes(P((3, 2, 1)), P((2, 2, 1, 1))).terms == {1: 1, 2: 2, 3: 1}
        assert sum(pn_series(6).poly.terms.values()) == factorial(6)
        for lam in partitions_of(6):
            assert sum(hp0_slice_series(lam).terms.values()) == lam.num_standard_tableaux()
            assert sum(ih_orbit_closure(lam).terms.values()) == lam.num_standard_tableaux()
            assert proudfoot_check(lam).equal


class TestPnSeries:
    def test_sl2_closed_form(self):
        assert pn_series(2).poly.terms == {(0, 0): 1, (2, -2): 1}

    def test_counts(self):
        for n in range(1, 7):
            assert sum(pn_series(n).poly.terms.values()) == factorial(n)

    def test_weight_grading_nonpositive(self):
        for n in range(1, 7):
            poly = pn_series(n).poly
            assert all(ye <= 0 <= xe for (xe, ye) in poly.terms)
            assert all(c > 0 for c in poly.terms.values())

    def test_flag_poincare_specialization(self):
        # at y = 1: product of doubled q-integers [k] for k = 2..n
        for n in range(2, 8):
            expected = LaurentPoly.one("x")
            for k in range(2, n + 1):
                expected = expected * LaurentPoly({2 * i: 1 for i in range(k)}, "x")
            at_y1 = {}
            for (xe, _), c in pn_series(n).poly.terms.items():
                at_y1[xe] = at_y1.get(xe, 0) + c
            assert LaurentPoly(at_y1) == expected

    def test_matches_class_average_route(self):
        for n in range(2, 7):
            assert pn_series(n).poly == pn_series_molien(weyl_type("A", n - 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pn_series(0)

    def test_bigraded_metadata(self):
        series = pn_series(2)
        assert series == BigradedSeries(series.poly)


class TestHp0SliceSeries:
    def test_zero_orbit(self):
        for n in range(1, 6):
            assert hp0_slice_series(ones(n)) == 1

    def test_regular_orbit_is_point(self):
        for n in range(1, 6):
            assert hp0_slice_series(P((n,))) == 1

    def test_subregular_sl3(self):
        assert hp0_slice_series(P((2, 1))).terms == {0: 1, 2: 1}

    def test_constant_term_one_and_nonnegative_exponents(self):
        for n in range(1, 8):
            for phi in partitions_of(n):
                series = hp0_slice_series(phi)
                assert series.coeff(0) == 1
                assert series.valuation == 0

    def test_dimension_counts_standard_tableaux(self):
        for n in range(1, 8):
            for phi in partitions_of(n):
                assert sum(hp0_slice_series(phi).terms.values()) == phi.num_standard_tableaux()


class TestWalgSeries:
    def test_sl2_regular(self):
        assert hp0_walg_full_series(P((2,)), 6).coefficients == [1, 0, 0, 0, 1, 0, 0]

    def test_sl2_zero_orbit(self):
        assert hp0_walg_full_series(P((1, 1)), 4).coefficients == [1, 0, 0, 0, 1]

    def test_truncation_zero(self):
        for phi in (P((3,)), P((2, 1)), ones(4)):
            assert hp0_walg_full_series(phi, 0).coefficients == [1]

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError):
            hp0_walg_full_series(P((2,)), -1)

    def test_non_int_truncation_rejected(self):
        for truncation in (True, 4.0, "4"):
            with pytest.raises(TypeError):
                hp0_walg_full_series(P((2,)), truncation)

    def test_equals_expansion_times_slice(self):
        """The hook closed form agrees with the inverse product of the
        degrees, expanded and multiplied by the slice series, at
        truncations around and far past the slice series' degree."""
        for n in range(1, 9):
            exponents = [2 * d for d in weyl_type("A", n - 1).degrees] if n >= 2 else []
            expansions = {}
            for phi in partitions_of(n):
                hp0 = hp0_slice_series(phi)
                for t in {0, 1, hp0.degree - 1, hp0.degree, 2999, 3000} - {-1}:
                    if t not in expansions:
                        inverse = divide_one_minus([1] + [0] * t, exponents)
                        expansions[t] = LaurentPoly(dict(enumerate(inverse)), "y")
                    expected = TruncatedSeries.from_poly(expansions[t] * hp0, t)
                    assert hp0_walg_full_series(phi, t) == expected, (phi, t)

    @staticmethod
    def prefix_sums(phi, t):
        """The series by the prefix sums of divide_one_minus over the hooks
        of phi less one 1, on the even coefficients."""
        hooks = sorted(phi.hooks(), reverse=True)[:-1]
        coeffs = [0] * (t + 1)
        coeffs[::2] = divide_one_minus([1] + [0] * (t // 2), hooks)
        return coeffs

    def test_equals_prefix_sums_at_the_bucket_edges(self, clear_memos):
        """Every phi of n <= 12, at truncations whose half = t // 2 + 1 is
        2**k - 1, 2**k and 2**k + 1: the last coefficient of a shared
        series, the whole of it, and the first truncation past it."""
        for n in range(13):
            for phi in partitions_of(n):
                for k in range(1, 8):
                    for half in (2**k - 1, 2**k, 2**k + 1):
                        t = 2 * half - 1 - half % 2  # odd and even t alike
                        walg = hp0_walg_full_series(phi, t).coefficients
                        assert walg == self.prefix_sums(phi, t), (phi, t)

    def test_equals_prefix_sums_at_the_benchmark_truncation(self):
        for phi in partitions_of(10):
            assert hp0_walg_full_series(phi, 2900).coefficients == self.prefix_sums(phi, 2900), phi

    def test_equals_prefix_sums_past_8_byte_digits(self, clear_memos):
        """At t = 10**4 the series of n = 10 needs 10-byte digits, which
        laurent._packed writes by to_bytes and laurent._signed_digits reads
        by int.from_bytes slices."""
        phi = P((5, 4, 1))
        assert hp0_walg_full_series(phi, 10**4).coefficients == self.prefix_sums(phi, 10**4)
        assert springer._degree_series(10, 8192)[0] > 8

    def test_cone_series_truncations_share_three_degree_series(self, clear_memos):
        """The 20 walg truncations of the cone-series benchmark, 1000..2900
        at n = 10, fall in the counts 512, 1024 and 2048."""
        for phi, t in zip(partitions_of(10), range(1000, 3000, 100)):
            hp0_walg_full_series(phi, t)
        info = springer._degree_series.cache_info()
        assert (info.misses, info.hits) == (3, 17)

    def test_wrapped_digit_raises(self, monkeypatch, clear_memos):
        # P_5 to 32 coefficients fits 1-byte digits (at most 74), but the
        # series of (3,1,1), f = 6, does not
        monkeypatch.setattr(springer, "_digit_bytes", lambda bound: 1)
        with pytest.raises(AssertionError, match=r"\(3,1,1\) wrapped a digit"):
            hp0_walg_full_series(P((3, 1, 1)), 60)

    def test_degenerate_n1(self):
        assert hp0_walg_full_series(P((1,)), 5).coefficients == [1, 0, 0, 0, 0, 0]

    def test_empty_partition_has_no_hook_to_cancel(self):
        assert hp0_walg_full_series(P(()), 3).coefficients == [1, 0, 0, 0]

    def test_subregular_sl3(self):
        # (1 + y^2) / ((1-y^4)(1-y^6)) expanded
        series = hp0_walg_full_series(P((2, 1)), 8)
        assert series.coefficients == [1, 0, 1, 0, 1, 0, 2, 0, 2]


class TestIhOrbitClosure:
    def test_full_cone_contractible(self):
        for n in range(1, 6):
            assert ih_orbit_closure(P((n,))) == 1

    def test_point(self):
        for n in range(1, 6):
            assert ih_orbit_closure(ones(n)) == 1

    def test_subregular_sl3(self):
        assert ih_orbit_closure(P((2, 1))).terms == {0: 1, 2: 1}


class TestIhS3Variety:
    def test_point_slice(self):
        for n in range(1, 6):
            for nu in partitions_of(n):
                assert ih_s3_variety(nu, nu) == 1

    def test_whole_cone(self):
        for n in range(2, 6):
            assert ih_s3_variety(P((n,)), ones(n)) == 1

    def test_subregular_case(self):
        assert ih_s3_variety(P((2, 1)), ones(3)).terms == {0: 1, 2: 1}

    def test_empty_slice_warns_and_vanishes(self):
        with pytest.warns(UserWarning):
            result = ih_s3_variety(P((2, 2)), P((3, 1)))
        assert not result

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ih_s3_variety(P((2,)), P((2, 1)))

    def test_matches_orbit_closure_at_zero(self):
        for n in range(1, 6):
            for nu in partitions_of(n):
                assert ih_s3_variety(nu, ones(n)) == ih_orbit_closure(nu)


class TestSpringerFiberSeries:
    def test_zero_orbit_recovers_cone(self):
        for n in range(1, 6):
            assert springer_fiber_series(ones(n)).poly == pn_series(n).poly

    def test_regular_orbit_is_point(self):
        for n in range(1, 6):
            assert springer_fiber_series(P((n,))).poly.terms == {(0, 0): 1}

    def test_column_route_matches_the_nu_sum(self):
        # the dominance-filtered nu-sum of K[nu,phi](x**2) y**dim(O_phi) K[nu](y**-2),
        # term by term: what the column keys and the packed fake degrees replace
        for n in range(9):
            for phi in partitions_of(n):
                expected: dict = {}
                for nu in partitions_of(n):
                    if not nu.dominates(phi):
                        continue
                    for xe, a in kostka_foulkes(nu, phi).terms.items():
                        for ye, b in kostka_g(nu).terms.items():
                            key = (2 * xe, orbit_dim(phi) - 2 * ye)
                            expected[key] = expected.get(key, 0) + a * b
                assert springer_fiber_series(phi).poly == BiLaurentPoly(expected), phi

    def test_too_narrow_digits_trip(self, monkeypatch):
        """The packed rows are sized by a bound on their coefficients; one
        byte cannot hold the 398 of pn_series(8), so a row trips."""
        monkeypatch.setattr(springer, "_digit_bytes", lambda bound: 1)
        try:
            for build in (lambda: pn_series(8), lambda: springer_fiber_series(ones(8))):
                with pytest.raises(AssertionError, match="packed row"):
                    build()
        finally:
            springer._fake_degree_packed.cache_clear()

    def test_subregular_sl3(self):
        poly = springer_fiber_series(P((2, 1))).poly
        assert poly.terms == {(0, 0): 1, (0, 2): 1, (2, -2): 1}

    def test_total_dimension_against_tableau_count(self):
        for n in range(1, 7):
            for phi in partitions_of(n):
                total = sum(springer_fiber_series(phi).poly.terms.values())
                oracle = sum(
                    len(ssyt_enumerate(nu, phi)) * nu.num_standard_tableaux()
                    for nu in partitions_of(n)
                )
                assert total == oracle, phi

    def test_homological_bottom_is_slice_hp0(self):
        # x-degree-zero layer equals the zeroth Poisson homology series
        for n in range(1, 7):
            for phi in partitions_of(n):
                poly = springer_fiber_series(phi).poly
                bottom = LaurentPoly(
                    {ye: c for (xe, ye), c in poly.terms.items() if xe == 0}, "y"
                )
                assert bottom == hp0_slice_series(phi), phi

    def test_y_side_is_the_q_multinomial(self):
        # S_phi(1, y) = y**(-2 n(phi)) [n; phi]_(y**2), checked by multiplying
        # both sides by prod_i [phi_i]_(y**2)!, each a product of q-integers
        def q_factorial(k):
            out = LaurentPoly.one("y")
            for j in range(1, k + 1):
                out = out * LaurentPoly(dict.fromkeys(range(0, 2 * j, 2), 1), "y")
            return out

        for n in range(1, 7):
            for phi in partitions_of(n):
                at_x1: dict = {}
                for (_, ye), c in springer_fiber_series(phi).poly.terms.items():
                    at_x1[ye] = at_x1.get(ye, 0) + c
                blocks = LaurentPoly.one("y")
                for part in phi.parts:
                    blocks = blocks * q_factorial(part)
                side = LaurentPoly(at_x1, "y").shift(2 * phi.n_stat())
                assert side * blocks == q_factorial(n), phi

    def test_components_of_subregular_fiber(self):
        # two irreducible components for the subregular element of sl_3
        poly = springer_fiber_series(P((2, 1))).poly
        bottom_dim = sum(c for (xe, _), c in poly.terms.items() if xe == 0)
        assert bottom_dim == 2


class TestPrintedSliceSeries:
    def test_regular_orbit_single_term(self):
        # only nu = (n) survives; prefactor y^0 leaves K[(n)](y^-2)
        for n in range(2, 6):
            poly = slice_series_typeA_printed(P((n,))).poly
            assert poly.terms == {(0, -2 * comb(n, 2)): 1}

    def test_zero_orbit_shifted_cone(self):
        for n in range(2, 6):
            printed = slice_series_typeA_printed(ones(n)).poly
            assert printed == pn_series(n).poly.shift(0, n * (n - 1))

    def test_ratio_is_pure_power_of_y(self):
        # printed / dimension normalization = y^(2 n_stat - dim O), with
        # 2 n_stat = sum of c(c - 1) over the column lengths c
        for n in range(1, 7):
            for mu in partitions_of(n):
                columns = mu.conjugate().parts
                exponent = sum(c * (c - 1) for c in columns) - orbit_dim(mu)
                printed = slice_series_typeA_printed(mu).poly
                assert printed == springer_fiber_series(mu).poly.shift(0, exponent), mu

    def test_known_discrepancy_subregular(self):
        # the two printed normalizations genuinely disagree here:
        # 2 n_stat = 2 but dim O = 4, so the printed prefactor is y^-2 lower
        poly = slice_series_typeA_printed(P((2, 1))).poly
        assert poly.terms == {(0, -2): 1, (0, 0): 1, (2, -4): 1}
        assert poly == springer_fiber_series(P((2, 1))).poly.shift(0, -2)

    def test_agreement_at_extremes(self):
        for n in range(2, 6):
            regular, zero = P((n,)), ones(n)
            assert slice_series_typeA_printed(regular).poly == (
                springer_fiber_series(regular).poly.shift(0, -(n * n - n))
            )
            assert slice_series_typeA_printed(zero).poly == (
                springer_fiber_series(zero).poly.shift(0, n * (n - 1))
            )


class TestDuality:
    def test_shifted_series_transpose_invariant(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                lhs = kostka_g(lam).substitute_power(-2).shift(orbit_dim(lam))
                conj = lam.conjugate()
                rhs = kostka_g(conj).substitute_power(-2).shift(orbit_dim(conj))
                assert lhs == rhs, lam


class TestProudfoot:
    def test_sl2(self):
        report = proudfoot_check(P((2,)))
        assert report.equal
        assert report.hp0_series == 1
        assert report.ih_dual_series == 1

    def test_self_conjugate_subregular(self):
        report = proudfoot_check(P((2, 1)))
        assert report.equal
        assert report.hp0_series.terms == {0: 1, 2: 1}

    def test_hook_in_sl4(self):
        report = proudfoot_check(P((3, 1)))
        assert report.equal
        assert report.hp0_series.terms == {0: 1, 2: 1, 4: 1}

    def test_all_small_partitions(self):
        for n in range(1, 7):
            for lam in partitions_of(n):
                assert proudfoot_check(lam).equal, lam


class TestDegenerateInputs:
    def test_n_zero_and_one_give_point_series(self):
        for phi in (P(()), P((1,))):
            assert hp0_slice_series(phi) == 1
            assert ih_orbit_closure(phi) == 1
            assert springer_fiber_series(phi).poly == 1
            assert proudfoot_check(phi).equal

    def test_pn_series_one(self):
        assert pn_series(1).poly.terms == {(0, 0): 1}


@pytest.mark.parametrize("bad", [(2, 1), 2.0, "21"], ids=["tuple", "float", "str"])
@pytest.mark.parametrize(
    "module, name",
    [
        (springer, "kostka_g"),
        (springer, "hp0_slice_series"),
        (springer, "ih_orbit_closure"),
        (springer, "proudfoot_check"),
        (springer, "springer_fiber_series"),
        (springer, "hp0_walg_full_series"),
        (springer, "pn_series"),
        (kostka, "fake_degree_qhook"),
        (kostka, "kostka_from_fake_degree"),
        (springer, "ih_s3_variety"),
        (kostka, "kostka_foulkes_charge"),
        (springer, "orbit_dim"),
        (weyl, "sn_character_values"),
        (tableaux, "ssyt_enumerate"),
        (springer, "slice_series_typeA_printed"),
    ],
)
def test_wrong_argument_type_is_named(module, name, bad):
    """A tuple, float or str fails with a TypeError naming the function and
    the type received, not an AttributeError or a comparison error."""
    second = {"hp0_walg_full_series": 8, "ih_s3_variety": P((2, 1)),
              "kostka_foulkes_charge": P((2, 1)), "ssyt_enumerate": P((2, 1))}
    args = (bad, second[name]) if name in second else (bad,)
    with pytest.raises(TypeError, match=rf"^{name} needs an? \w+, not {type(bad).__name__}$"):
        getattr(module, name)(*args)
