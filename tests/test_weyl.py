from collections import Counter
from math import factorial, prod

import pytest

import nilcone.weyl as weyl
from nilcone.kostka import fake_degree_qhook
from nilcone.laurent import BiLaurentPoly, ExactDivisionError, LaurentPoly
from nilcone.partitions import Partition, partitions_of
from nilcone.verify import _TABLE_TYPES
from nilcone.weyl import (
    _class_characters,
    _conjugacy_classes,
    _det_from_power_sums,
    _flag_series,
    _grouped_char_factors,
    _weyl_type,
    conjugacy_data,
    enumeration_counts,
    fake_degree_molien,
    mn_character,
    molien_graded_character,
    pn_series_molien,
    sn_character_values,
    weyl_type,
)

P = Partition


def one_minus(k):
    return LaurentPoly({0: 1, k: -1}, "t")


def one_minus_power(k, m):
    """(1 - t**k)**m."""
    out = LaurentPoly.one("t")
    for _ in range(m):
        out = out * one_minus(k)
    return out


def one_plus(k):
    return LaurentPoly({0: 1, k: 1}, "t")


class TestWeylType:
    def test_a2(self):
        wt = weyl_type("A", 2)
        assert wt.degrees == (2, 3)
        assert wt.order == 6
        assert wt.num_positive_roots == 3

    def test_a1(self):
        wt = weyl_type("A", 1)
        assert wt.degrees == (2,)
        assert wt.order == 2
        assert wt.num_positive_roots == 1

    def test_g2(self):
        wt = weyl_type("G2", 2)
        assert wt.degrees == (2, 6)
        assert wt.order == 12
        assert wt.num_positive_roots == 6

    def test_b3(self):
        wt = weyl_type("B", 3)
        assert wt.degrees == (2, 4, 6)
        assert wt.order == 48
        assert wt.num_positive_roots == 9

    def test_c3_same_group_as_b3(self):
        assert weyl_type("C", 3).degrees == weyl_type("B", 3).degrees

    def test_d4(self):
        wt = weyl_type("D", 4)
        assert wt.degrees == (2, 4, 4, 6)
        assert wt.order == 192
        assert wt.num_positive_roots == 12

    def test_f4(self):
        wt = weyl_type("F4", 4)
        assert wt.degrees == (2, 6, 8, 12)
        assert wt.order == 1152
        assert wt.num_positive_roots == 24

    def test_e6_table_only(self):
        wt = weyl_type("E6", 6)
        assert wt.order == 51840
        assert wt.num_positive_roots == 36

    @pytest.mark.parametrize("cached_first", [False, True])
    def test_non_int_rank_rejected_in_either_call_order(self, cached_first):
        # lru_cache keys 2.0 like 2: a float rank must fail whether or not
        # ("A", 2) is cached
        _weyl_type.cache_clear()
        if cached_first:
            weyl_type("A", 2)
        for bad in (2.0, True, "2", None):
            with pytest.raises(TypeError, match=f"rank must be an int, not {type(bad).__name__}"):
                weyl_type("A", bad)
        with pytest.raises(TypeError, match="float"):
            weyl_type("G2", 2.0)
        assert weyl_type("A", 2).order == 6

    @pytest.mark.parametrize("bad", [b"A", None, 1])
    def test_non_str_family_rejected(self, bad):
        with pytest.raises(TypeError, match=f"family must be a str, not {type(bad).__name__}"):
            weyl_type(bad, 2)

    def test_unsupported_rejected(self):
        with pytest.raises(ValueError):
            weyl_type("E", 7)
        with pytest.raises(ValueError):
            weyl_type("G2", 3)
        with pytest.raises(ValueError):
            weyl_type("A", 0)
        with pytest.raises(ValueError):
            weyl_type("B", 1)

    # an exceptional name already carries its rank, so G23 would be no type
    @pytest.mark.parametrize(
        "family,rank,message",
        [("G2", 3, "G2 has rank 2, not 3"), ("F4", 2, "F4 has rank 4, not 2"),
         ("E6", 7, "E6 has rank 6, not 7"), ("B", 1, "unsupported Weyl type B1"),
         ("A", 0, "unsupported Weyl type A0")],
    )
    def test_rejection_message(self, family, rank, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            weyl_type(family, rank)


class TestDegreeTableTripwire:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        _weyl_type.cache_clear()
        yield
        for cached in (_weyl_type, _conjugacy_classes, _class_characters, _flag_series):
            cached.cache_clear()

    # B3 with a simple last bond is A3 (24 elements), G2 with a double bond
    # is B2 (8), and F4 with a simple middle bond is A4 (120)
    @pytest.mark.parametrize(
        "family,rank,i,j,bond",
        [("B", 3, 1, 2, (-1, -1)), ("G2", 2, 0, 1, (-1, -2)), ("F4", 4, 1, 2, (-1, -1))],
    )
    def test_a_wrong_bond_trips(self, monkeypatch, family, rank, i, j, bond):
        cartan = weyl._cartan_matrix

        def wrong(family, rank):
            c = cartan(family, rank)
            c[i][j], c[j][i] = bond
            return c

        monkeypatch.setattr(weyl, "_cartan_matrix", wrong)
        with pytest.raises(AssertionError, match="contradicts enumeration"):
            weyl_type(family, rank)

    # G2 with degrees (3, 4) keeps |W| = 12 but claims 5 reflections, not 6;
    # F4 with degrees (2, 6, 8, 10) claims 960 elements, not 1152
    @pytest.mark.parametrize("family,degrees", [("G2", (3, 4)), ("F4", (2, 6, 8, 10))])
    def test_a_wrong_degree_table_trips(self, monkeypatch, family, degrees):
        monkeypatch.setitem(weyl.EXCEPTIONAL_DEGREES, family, degrees)
        with pytest.raises(AssertionError, match="contradicts enumeration"):
            weyl_type(family, len(degrees))


class TestEnumeration:
    @pytest.mark.parametrize(
        "family,rank",
        [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
         ("C", 3), ("D", 2), ("D", 3), ("D", 4), ("G2", 2), ("F4", 4)],
    )
    def test_counts_match_degree_tables(self, family, rank):
        wt = weyl_type(family, rank)
        order, reflections = enumeration_counts(wt)
        assert order == wt.order
        assert reflections == wt.num_positive_roots

    @pytest.mark.parametrize(
        "family,rank", [*_TABLE_TYPES, ("A", 5), ("C", 4), ("D", 2), ("D", 3)]
    )
    def test_orbit_count_matches_the_element_list(self, family, rank):
        elements = weyl._search(family, rank)[1]
        assert enumeration_counts(weyl_type(family, rank))[0] == len(elements)

    def test_e6_counts(self):
        assert enumeration_counts(weyl_type("E6", 6)) == (51840, 36)

    def test_groups_larger_than_e6_refused(self):
        with pytest.raises(ValueError, match="362880 elements"):
            enumeration_counts(weyl_type("A", 8))

    @pytest.mark.parametrize(
        "family,rank,classes", [("G2", 2, 6), ("B", 3, 10), ("D", 4, 13), ("F4", 4, 25), ("E6", 6, 25)]
    )
    def test_true_class_counts(self, family, rank, classes):
        # Carter, Conjugacy classes in the Weyl group (1972)
        assert len(_conjugacy_classes(family, rank)) == classes

    @pytest.mark.parametrize(
        "family,rank",
        [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("D", 4)],
    )
    def test_enumeration_matches_closed_form_classes(self, family, rank):
        closed_form: dict[LaurentPoly, int] = {}
        for cd in conjugacy_data(weyl_type(family, rank)):
            closed_form[cd.char_factor] = closed_form.get(cd.char_factor, 0) + cd.size
        assert dict(_grouped_char_factors(family, rank)) == closed_form


class TestPowerSums:
    @pytest.mark.parametrize(
        "sums,terms",
        [
            ([3, 3, 3], {0: 1, 1: -3, 2: 3, 3: -1}),  # the identity of rank 3
            ([-2, 2], {0: 1, 1: 2, 2: 1}),  # -1 in rank 2
            ([-1, -1], {0: 1, 1: 1, 2: 1}),  # a rotation of order 3
            ([], {0: 1}),
        ],
    )
    def test_newton_identities(self, sums, terms):
        assert _det_from_power_sums(sums).terms == terms

    @pytest.mark.parametrize("sums", [[1, 0], [0, 1], [2, 2, 1]])
    def test_power_sums_of_no_integer_matrix_rejected(self, sums):
        with pytest.raises(AssertionError, match="not an integer"):
            _det_from_power_sums(sums)


class TestConjugacyData:
    def test_s2(self):
        classes = conjugacy_data(weyl_type("A", 1))
        by_label = {c.label: c for c in classes}
        assert by_label["1,1"].size == 1
        assert by_label["1,1"].char_factor == one_minus(1)
        assert by_label["2"].size == 1
        assert by_label["2"].char_factor == one_plus(1)

    def test_s3(self):
        classes = {c.label: c for c in conjugacy_data(weyl_type("A", 2))}
        assert classes["1,1,1"].size == 1
        assert classes["1,1,1"].char_factor == one_minus(1) * one_minus(1)
        assert classes["2,1"].size == 3
        assert classes["2,1"].char_factor == one_minus(2)
        assert classes["3"].size == 2
        assert classes["3"].char_factor == LaurentPoly({0: 1, 1: 1, 2: 1}, "t")

    def test_b2(self):
        classes = {c.label: c for c in conjugacy_data(weyl_type("B", 2))}
        assert classes["1,1|"].size == 1
        assert classes["2|"].size == 2
        assert classes["1|1"].size == 2
        assert classes["|2"].size == 2
        assert classes["|1,1"].size == 1
        assert classes["|2"].char_factor == one_plus(2)
        assert classes["1|1"].char_factor == one_minus(1) * one_plus(1)

    def test_d_subgroup_has_even_negative_cycles(self):
        for label, *_ in [(c.label,) for c in conjugacy_data(weyl_type("D", 4))]:
            beta = label.split("|")[1]
            assert beta == "" or len(beta.split(",")) % 2 == 0

    @pytest.mark.parametrize(
        "family,rank",
        [("A", 3), ("A", 5), ("B", 3), ("B", 5), ("C", 4), ("D", 4), ("D", 5),
         ("G2", 2), ("F4", 4)],
    )
    def test_sizes_sum_to_group_order(self, family, rank):
        wt = weyl_type(family, rank)
        classes = conjugacy_data(wt)
        assert sum(c.size for c in classes) == wt.order

    @pytest.mark.parametrize(
        "family,rank", [("A", 4), ("B", 3), ("D", 4), ("G2", 2), ("F4", 4)]
    )
    def test_char_factor_shape(self, family, rank):
        wt = weyl_type(family, rank)
        for cd in conjugacy_data(wt):
            assert cd.char_factor.coeff(0) == 1
            assert cd.char_factor.degree == wt.rank

    def test_g2_element_count_by_factor(self):
        sizes = {c.char_factor: c.size for c in conjugacy_data(weyl_type("G2", 2))}
        # identity, 6 reflections (two true classes merged), two rotation
        # pairs, and the long rotation
        assert sorted(sizes.values()) == [1, 1, 2, 2, 6]


class TestMolienGradedCharacter:
    def test_s2_identity(self):
        wt = weyl_type("A", 1)
        identity = next(c for c in conjugacy_data(wt) if c.label == "1,1")
        assert molien_graded_character(wt, identity).terms == {0: 1, 1: 1}

    def test_s2_reflection(self):
        wt = weyl_type("A", 1)
        refl = next(c for c in conjugacy_data(wt) if c.label == "2")
        assert molien_graded_character(wt, refl).terms == {0: 1, 1: -1}

    @pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G2", 2), ("F4", 4)])
    def test_identity_gives_group_order_at_one(self, family, rank):
        wt = weyl_type(family, rank)
        identity_factor = one_minus_power(1, wt.rank)
        for cd in conjugacy_data(wt):
            f = molien_graded_character(wt, cd)
            expected = wt.order if cd.char_factor == identity_factor else 0
            assert f.evaluate(1) == expected


class TestClassCharacters:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        _class_characters.cache_clear()
        yield
        _class_characters.cache_clear()

    @pytest.mark.parametrize(
        "family,rank",
        [("A", r) for r in range(1, 8)]
        + [("B", r) for r in range(2, 8)]
        + [("D", r) for r in range(3, 8)],
    )
    def test_dense_quotients_match_the_div_exact_route(self, family, rank):
        wt = weyl_type(family, rank)
        route = []
        for cd in conjugacy_data(wt):
            f = molien_graded_character(wt, cd)
            route.append((cd.label, cd.size, tuple(f.coeff(e) for e in range(f.degree + 1))))
        assert _class_characters(family, rank) == tuple(route)

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4)])
    def test_a_dropped_denominator_part_trips(self, monkeypatch, family, rank):
        classes = weyl._classical_classes

        def wrong(family, rank):
            for label, size, num, den in classes(family, rank):
                yield label, size, num, den[1:]

        monkeypatch.setattr(weyl, "_classical_classes", wrong)
        with pytest.raises((ExactDivisionError, AssertionError)):
            _class_characters(family, rank)


class TestMnCharacter:
    def test_trivial_representation(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert mn_character(P((n,)), mu) == 1

    def test_sign_representation(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert mn_character(P((1,) * n), mu) == (-1) ** (n - len(mu))

    def test_standard_representation_hand_values(self):
        assert mn_character(P((2, 1)), P((1, 1, 1))) == 2
        assert mn_character(P((2, 1)), P((2, 1))) == 0
        assert mn_character(P((2, 1)), P((3,))) == -1

    def test_dimension_at_identity(self):
        for n in range(1, 10):
            for lam in partitions_of(n):
                assert mn_character(lam, P((1,) * n)) == lam.num_standard_tableaux()

    def test_first_orthogonality(self):
        for n in range(1, 7):
            wt_classes = conjugacy_data(weyl_type("A", n - 1)) if n >= 2 else None
            for lam in partitions_of(n):
                if n == 1:
                    continue
                total = sum(
                    c.size * mn_character(lam, P([int(x) for x in c.label.split(",")])) ** 2
                    for c in wt_classes
                )
                assert total == factorial(n), lam

    def test_distinct_irreducibles_orthogonal(self):
        n = 5
        classes = conjugacy_data(weyl_type("A", n - 1))
        parts = partitions_of(n)
        for i, lam in enumerate(parts):
            for nu in parts[i + 1 :]:
                total = sum(
                    c.size
                    * mn_character(lam, P([int(x) for x in c.label.split(",")]))
                    * mn_character(nu, P([int(x) for x in c.label.split(",")]))
                    for c in classes
                )
                assert total == 0, (lam, nu)

    def test_long_cycle_lives_on_hooks(self):
        for n in range(1, 10):
            for lam in partitions_of(n):
                hook = all(p == 1 for p in lam.parts[1:])  # lam = (n - k, 1**k), k = len - 1
                expected = (-1) ** (len(lam) - 1) if hook else 0
                assert mn_character(lam, P((n,))) == expected, lam

    def test_second_orthogonality(self):
        for n in range(1, 9):
            table = [sn_character_values(lam) for lam in partitions_of(n)]
            for mu in partitions_of(n):
                z = prod(p**m * factorial(m) for p, m in Counter(mu.parts).items())
                label = ",".join(map(str, mu.parts))
                for nu in partitions_of(n):
                    other = ",".join(map(str, nu.parts))
                    total = sum(row[label] * row[other] for row in table)
                    assert total == (z if mu == nu else 0), (mu, nu)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mn_character(P((2, 1)), P((2, 2)))


class TestFakeDegreeMolien:
    def test_s3_standard(self):
        wt = weyl_type("A", 2)
        fd = fake_degree_molien(wt, sn_character_values(P((2, 1))))
        assert fd.terms == {1: 1, 2: 1}

    def test_trivial_character_gives_one(self):
        for family, rank in [("A", 2), ("B", 2), ("G2", 2)]:
            wt = weyl_type(family, rank)
            trivial = {c.label: 1 for c in conjugacy_data(wt)}
            assert fake_degree_molien(wt, trivial) == 1

    def test_sign_character_concentrated_at_top(self):
        for family, rank in [("A", 2), ("A", 3), ("B", 2)]:
            wt = weyl_type(family, rank)
            sign = {
                c.label: c.char_factor.coeff(wt.rank) * (-1) ** wt.rank
                for c in conjugacy_data(wt)
            }
            fd = fake_degree_molien(wt, sign)
            assert fd.terms == {wt.num_positive_roots: 1}

    def test_regular_character_counts_group(self):
        wt = weyl_type("B", 2)
        identity_factor = one_minus_power(1, wt.rank)
        regular = {
            c.label: wt.order if c.char_factor == identity_factor else 0
            for c in conjugacy_data(wt)
        }
        fd = fake_degree_molien(wt, regular)
        assert fd.evaluate(1) == wt.order

    def test_matches_qhook_for_all_shapes(self):
        for n in range(2, 7):
            wt = weyl_type("A", n - 1)
            for lam in partitions_of(n):
                fd = fake_degree_molien(wt, sn_character_values(lam))
                assert fd == fake_degree_qhook(lam), lam

    def test_socle_self_duality(self):
        for n in range(2, 7):
            wt = weyl_type("A", n - 1)
            top = wt.num_positive_roots
            for lam in partitions_of(n):
                fd = fake_degree_molien(wt, sn_character_values(lam))
                fd_conj = fake_degree_molien(wt, sn_character_values(lam.conjugate()))
                assert fd_conj == fd.substitute_power(-1).shift(top), lam

    def test_non_character_rejected(self):
        wt = weyl_type("A", 2)
        bogus = {c.label: (1 if c.label == "1,1,1" else 0) for c in conjugacy_data(wt)}
        with pytest.raises(ValueError):
            fake_degree_molien(wt, bogus)

    def test_missing_class_rejected(self):
        wt = weyl_type("A", 2)
        with pytest.raises(ValueError):
            fake_degree_molien(wt, {"1,1,1": 1})

    def test_unknown_class_rejected(self):
        wt = weyl_type("A", 2)
        values = {**sn_character_values(P((2, 1))), "4": 0}
        with pytest.raises(ValueError, match="no class"):
            fake_degree_molien(wt, values)

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_non_int_value_rejected(self, bad):
        wt = weyl_type("A", 2)
        values = {**sn_character_values(P((2, 1))), "1,1,1": bad}
        with pytest.raises(TypeError, match="must be an int"):
            fake_degree_molien(wt, values)

    def test_mutating_a_result_leaves_the_next_one_intact(self):
        wt = weyl_type("A", 2)
        standard = sn_character_values(P((2, 1)))
        fake_degree_molien(wt, standard).terms[1] = 7
        assert fake_degree_molien(wt, standard).terms == {1: 1, 2: 1}


class TestPnSeriesMolien:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        # a series cached by an earlier test would skip sum_of_products
        _flag_series.cache_clear()
        yield
        _flag_series.cache_clear()

    def test_rank_one_closed_form(self):
        assert pn_series_molien(weyl_type("A", 1)).terms == {(0, 0): 1, (2, -2): 1}

    @pytest.mark.parametrize(
        "family,rank", [("A", 2), ("B", 2), ("B", 3), ("D", 4), ("G2", 2), ("F4", 4), ("E6", 6)]
    )
    def test_total_dimension_is_group_order(self, family, rank):
        wt = weyl_type(family, rank)
        assert pn_series_molien(wt).evaluate(1, 1) == wt.order

    @pytest.mark.parametrize("family,rank,triples", [("B", 7, 64), ("B", 6, 40), ("D", 7, 45)])
    def test_classes_sharing_a_character_are_merged(self, monkeypatch, family, rank, triples):
        counts = []
        packed = BiLaurentPoly.sum_of_products

        def counting(rows):
            rows = list(rows)
            counts.append(len(rows))
            return packed(rows)

        monkeypatch.setattr(BiLaurentPoly, "sum_of_products", staticmethod(counting))
        wt = weyl_type(family, rank)
        assert pn_series_molien(wt).evaluate(1, 1) == wt.order
        assert counts == [triples]

    def test_b_and_c_share_one_series(self):
        b3, c3 = pn_series_molien(weyl_type("B", 3)), pn_series_molien(weyl_type("C", 3))
        assert b3 == c3 and b3 is not c3
        assert _flag_series.cache_info().currsize == 1

    def test_exponent_window(self):
        wt = weyl_type("B", 2)
        series = pn_series_molien(wt)
        top = 2 * wt.num_positive_roots
        for (xe, ye), c in series.terms.items():
            assert 0 <= xe <= top
            assert -top <= ye <= 0
            assert c > 0

    def test_specialization_is_coinvariant_poincare(self):
        # at y = 1 the series is the graded dimension of the coinvariant
        # algebra in the doubled grading
        wt = weyl_type("B", 2)
        series = {}
        for (xe, _), c in pn_series_molien(wt).terms.items():
            series[xe] = series.get(xe, 0) + c
        expected = LaurentPoly.one("x")
        for d in wt.degrees:
            expected = expected * LaurentPoly({2 * i: 1 for i in range(d)}, "x")
        assert LaurentPoly(series) == expected
