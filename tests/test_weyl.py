import hashlib
import re
from collections import Counter
from dataclasses import replace
from math import factorial, prod

import pytest

import nilcone.weyl as weyl
from nilcone.kostka import fake_degree_qhook
from nilcone.laurent import LaurentPoly, q_quotient
from nilcone.partitions import Partition, partitions_of
from nilcone.weyl import (
    _class_characters,
    _conjugacy_classes,
    _cyclotomic_exponents,
    _flag_series,
    _root_system,
    _weyl_type,
    enumeration_counts,
    fake_degree_molien,
    pn_series_molien,
    sn_character_values,
    weyl_type,
)

P = Partition


def class_data(wt):
    """(label, size, det(1 - t w)) for every row of _class_rows."""
    rows = weyl._class_rows(wt.family, wt.rank)
    return [(name, size, q_quotient(a, b, "t")) for name, size, a, b in rows]


def label(mu):
    """The class label of cycle type mu, a key of sn_character_values."""
    return ",".join(map(str, mu.parts))


def character_rows(family, rank):
    """(label, size, coefficients of f_c) for every class of
    _class_characters, in the order of _class_rows."""
    _, classes, fs, *_ = _class_characters(family, rank)
    return [(name, size, fs[k]) for name, (k, size) in classes.items()]


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


# a patched table or Cartan matrix must leave no memo behind, the root system included
@pytest.mark.usefixtures("clear_memos")
class TestDegreeTableTripwire:
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

    # the classical tables up to order 1200 are validated on lookup too, which
    # is why the counts suite enumerates only the larger ones
    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 4), ("D", 4)])
    def test_a_raised_classical_degree_trips(self, monkeypatch, family, rank):
        right = weyl._degrees

        def raised(f, r):
            degrees = right(f, r)
            return (*degrees[:-1], degrees[-1] + 2) if (f, r) == (family, rank) else degrees

        monkeypatch.setattr(weyl, "_degrees", raised)
        with pytest.raises(AssertionError, match="contradicts enumeration"):
            weyl_type(family, rank)


class TestEnumeration:
    # every supported type that enumeration_counts takes, up to E6
    @pytest.mark.parametrize(
        "family,rank",
        [*((f, r) for f, low, top in (("A", 1, 7), ("B", 2, 6), ("C", 2, 6), ("D", 2, 6))
           for r in range(low, top + 1)), ("G2", 2), ("F4", 4), ("E6", 6)],
    )
    def test_counts_match_degree_tables(self, family, rank):
        wt = weyl_type(family, rank)
        order, reflections = enumeration_counts(wt)
        assert order == wt.order
        assert reflections == wt.num_positive_roots

    @pytest.mark.parametrize(
        "family,rank",
        [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7),
         ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6), ("C", 4),
         ("D", 2), ("D", 3), ("D", 4), ("D", 5), ("D", 6), ("G2", 2), ("F4", 4), ("E6", 6)],
    )
    def test_orbit_count_matches_the_element_list(self, family, rank):
        # the enumerated elements, split into classes: their sizes sum to the
        # orbit count, and each divides it
        order = enumeration_counts(weyl_type(family, rank))[0]
        sizes = [size for _, _, size in _conjugacy_classes(family, rank)]
        assert sum(sizes) == order
        assert all(order % size == 0 for size in sizes)

    def test_more_roots_than_a_byte_refused(self):
        # B12 has 288 roots; a group element is a bytes string of root indices
        with pytest.raises(ValueError, match="^B12 has 288 roots; enumeration takes at most 256$"):
            _conjugacy_classes("B", 12)

    def test_e6_counts(self):
        assert enumeration_counts(weyl_type("E6", 6)) == (51840, 36)

    def test_root_data_is_read_only(self):
        roots, gens = _root_system("F4", 4)
        with pytest.raises(TypeError):
            roots[0] = roots[1]
        with pytest.raises(TypeError):
            gens[0][0] = 1
        assert len(roots) == 48 and _root_system("F4", 4) is _root_system("F4", 4)

    def test_b_and_c_close_their_own_roots(self):
        # a2 is short in B2 and long in C2: a1 + 2 a2 is a root of B2, 2 a1 + a2 of C2
        assert (1, 2) in _root_system("B", 2)[0] and (1, 2) not in _root_system("C", 2)[0]
        assert (2, 1) in _root_system("C", 2)[0] and (2, 1) not in _root_system("B", 2)[0]

    # sha1 of the sorted (a, b, size) triples, as found by a breadth-first walk of all of W
    @pytest.mark.parametrize(
        "family,rank,digest",
        [("G2", 2, "6f5c9769b4b152118b62c4a936d71650b321f08a"),
         ("F4", 4, "f192e869c11e6475d19112b003fe0eea58579459"),
         ("E6", 6, "b6429d1dca32571f9741645163976bc4fef1f768")],
    )
    def test_exceptional_classes_pinned(self, family, rank, digest):
        rows = sorted(_conjugacy_classes(family, rank))
        assert hashlib.sha1(repr(rows).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "mangle,found",
        # the last coset representative of W_(0..3) / W_(0..2) (24 of them) a copy of the one
        # before it, or missing: |W_(0..2)| = 48 elements repeated, or not there
        [(lambda steps: [*steps[:-1], steps[-2]], "1152 elements (1104 distinct)"),
         (lambda steps: steps[:-1], "1104 elements (1104 distinct)")],
        ids=["repeated representative", "dropped step"],
    )
    def test_a_broken_coset_walk_trips(self, monkeypatch, clear_memos, mangle, found):
        right = weyl._descending_walk

        def wrong(family, rank, k):
            steps = right(family, rank, k)
            return mangle(steps) if (family, k) == ("F4", 3) else steps

        monkeypatch.setattr(weyl, "_descending_walk", wrong)
        with pytest.raises(AssertionError, match=rf"^F4: enumeration found {re.escape(found)} "):
            _conjugacy_classes("F4", 4)

    def test_groups_larger_than_e6_refused(self):
        with pytest.raises(ValueError, match="362880 elements"):
            enumeration_counts(weyl_type("A", 8))

    def test_non_weyl_type_rejected(self):
        with pytest.raises(TypeError, match="WeylType.*tuple"):
            enumeration_counts(("A", 2))

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
        closed_form: Counter[LaurentPoly] = Counter()
        for _, size, factor in class_data(weyl_type(family, rank)):
            closed_form[factor] += size
        enumerated: Counter[LaurentPoly] = Counter()
        for a, b, size in _conjugacy_classes(family, rank):
            enumerated[q_quotient(a, b, "t")] += size
        assert enumerated == closed_form


class TestPowerSums:
    """The traces tr(w**j) are the power sums of the eigenvalues of w."""

    @pytest.mark.parametrize(
        "sums,rank,a,b",
        [
            pytest.param([3], 3, (1, 1, 1), (), id="identity"),  # of rank 3
            pytest.param([-2, 2], 2, (2, 2), (1, 1), id="minus-one"),  # (1 + t)**2 in rank 2
            pytest.param([-1, -1, 2], 2, (3,), (1,), id="order-3"),  # 1 + t + t**2
            pytest.param([1, -1, -2, -1, 1, 2], 2, (1, 6), (2, 3), id="order-6"),  # 1 - t + t**2
            pytest.param([0], 0, (), (), id="rank-0"),
        ],
    )
    def test_cyclotomic_exponents(self, sums, rank, a, b):
        assert _cyclotomic_exponents(sums, rank) == (a, b)

    @pytest.mark.parametrize("sums", [[1, 0], [0, 1], [2, 2, 1]])
    def test_power_sums_of_no_integer_matrix_rejected(self, sums):
        with pytest.raises(AssertionError, match="is not divisible by"):
            _cyclotomic_exponents(sums, 2)

    # each k e_k is an integer multiple of k, but the degree sum_k k e_k is
    # not the rank
    @pytest.mark.parametrize("sums,rank", [([3], 2), ([2], 3), ([0, 2], 3), ([-2, 2], 3)])
    def test_exponents_off_the_rank_rejected(self, sums, rank):
        with pytest.raises(AssertionError, match="do not sum to the rank"):
            _cyclotomic_exponents(sums, rank)


class TestConjugacyData:
    def test_s2(self):
        by_label = {c[0]: c for c in class_data(weyl_type("A", 1))}
        assert by_label["1,1"] == ("1,1", 1, one_minus(1))
        assert by_label["2"] == ("2", 1, one_plus(1))

    def test_s3(self):
        classes = {label: (size, factor) for label, size, factor in class_data(weyl_type("A", 2))}
        assert classes["1,1,1"] == (1, one_minus(1) * one_minus(1))
        assert classes["2,1"] == (3, one_minus(2))
        assert classes["3"] == (2, LaurentPoly({0: 1, 1: 1, 2: 1}, "t"))

    def test_b2(self):
        classes = {label: (size, factor) for label, size, factor in class_data(weyl_type("B", 2))}
        sizes = {label: size for label, (size, _) in classes.items()}
        assert sizes == {"1,1|": 1, "2|": 2, "1|1": 2, "|2": 2, "|1,1": 1}
        assert classes["|2"][1] == one_plus(2)
        assert classes["1|1"][1] == one_minus(1) * one_plus(1)

    def test_d_subgroup_has_even_negative_cycles(self):
        for name, _, _ in class_data(weyl_type("D", 4)):
            beta = name.split("|")[1]
            assert beta == "" or len(beta.split(",")) % 2 == 0

    @pytest.mark.parametrize(
        "family,rank",
        [("A", 3), ("A", 5), ("B", 3), ("B", 5), ("C", 4), ("D", 4), ("D", 5),
         ("G2", 2), ("F4", 4)],
    )
    def test_sizes_sum_to_group_order(self, family, rank):
        wt = weyl_type(family, rank)
        assert sum(size for _, size, _ in class_data(wt)) == wt.order

    @pytest.mark.parametrize(
        "family,rank", [("A", 4), ("B", 3), ("D", 4), ("G2", 2), ("F4", 4)]
    )
    def test_char_factor_shape(self, family, rank):
        wt = weyl_type(family, rank)
        for _, _, factor in class_data(wt):
            assert factor.coeff(0) == 1
            assert factor.degree == wt.rank

    def test_g2_element_count_by_factor(self):
        sizes = {factor: size for _, size, factor in class_data(weyl_type("G2", 2))}
        # identity, 6 reflections (two true classes merged), two rotation
        # pairs, and the long rotation
        assert sorted(sizes.values()) == [1, 1, 2, 2, 6]


class TestMolienGradedCharacter:
    """The graded characters f_c = prod (1 - q**d_i) / det(1 - q w) that
    _class_characters keeps as coefficient tuples."""

    def test_s2_identity(self):
        assert ("1,1", 1, (1, 1)) in character_rows("A", 1)

    def test_s2_reflection(self):
        assert ("2", 1, (1, -1)) in character_rows("A", 1)

    @pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("G2", 2), ("F4", 4)])
    def test_identity_gives_group_order_at_one(self, family, rank):
        wt = weyl_type(family, rank)
        identity_factor = one_minus_power(1, wt.rank)
        rows = character_rows(family, rank)
        for (name, _, factor), (row_name, _, coeffs) in zip(class_data(wt), rows, strict=True):
            assert row_name == name
            assert sum(coeffs) == (wt.order if factor == identity_factor else 0)


class TestClassCharacters:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        _class_characters.cache_clear()
        yield
        _class_characters.cache_clear()

    # A8 is the n = 9 of the fake degrees the benchmark runs; A16 is the
    # first type A group whose division bound |W| 2**len(mu) alone needs
    # more than 8 bytes a digit, so its classes decode in Python
    @pytest.mark.parametrize(
        "family,rank",
        [("A", r) for r in range(1, 9)]
        + [("A", 16)]
        + [("B", r) for r in range(2, 8)]
        + [("D", r) for r in range(3, 8)]
        + [("G2", 2), ("F4", 4), ("E6", 6)],
    )
    def test_dense_quotients_multiply_back(self, family, rank):
        # f_c * det(1 - q w) = prod (1 - q**d_i), by LaurentPoly.__mul__
        wt = weyl_type(family, rank)
        degree_product = LaurentPoly.one("q")
        for d in wt.degrees:
            degree_product = degree_product * LaurentPoly({0: 1, d: -1}, "q")
        rows = character_rows(family, rank)
        for (name, size, factor), row in zip(class_data(wt), rows, strict=True):
            assert row[:2] == (name, size)
            coeffs, det = row[2], LaurentPoly(factor.terms, "q")
            assert LaurentPoly.from_coefficients(coeffs, "q") * det == degree_product

    @pytest.mark.parametrize(
        "family,rank", [("A", 3), ("B", 2), ("B", 4), ("D", 4), ("D", 5), ("G2", 2), ("F4", 4)]
    )
    def test_each_character_is_kept_once_with_its_classes(self, family, rank):
        # fs distinct, and per character k: F_k = f_k(B) at the table's
        # width, max|f_k|, f_k(1) and the sizes of the classes with f_c = f_k
        wt = weyl_type(family, rank)
        width, classes, fs, packs, heights, at_one, sizes = _class_characters(family, rank)
        assert len(set(fs)) == len(fs) == len(packs) == len(heights) == len(at_one) == len(sizes)
        bits = 8 * width
        for k, f in enumerate(fs):
            assert packs[k] == sum(c << bits * j for j, c in enumerate(f))
            assert (heights[k], at_one[k]) == (max(map(abs, f)), sum(f))
            assert sizes[k] == sum(size for i, size in classes.values() if i == k)
        assert [(name, size) for name, size, _ in class_data(wt)] == [
            (name, size) for name, (_, size) in classes.items()
        ]
        assert sum(sizes) == wt.order

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("G2", 2), ("F4", 4)])
    def test_a_dropped_denominator_part_trips(self, monkeypatch, family, rank):
        classes = weyl._class_rows

        def wrong(family, rank):
            for label, size, num, den in classes(family, rank):
                yield label, size, num, den[1:]

        monkeypatch.setattr(weyl, "_class_rows", wrong)
        with pytest.raises(AssertionError, match="class"):
            _class_characters(family, rank)


class TestClassCharacterTripwires:
    """Each check of the division at B reached by A3 class data that is
    wrong in one way; A3 has N = 6 and |W| = 24."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        _class_characters.cache_clear()
        yield
        _class_characters.cache_clear()

    @staticmethod
    def one_row(monkeypatch, a, b):
        monkeypatch.setattr(weyl, "_class_rows", lambda family, rank: iter([("x", 1, a, b)]))

    def test_a_remainder_trips(self, monkeypatch):
        self.one_row(monkeypatch, (5,), (1,))  # 1 - q**5 divides no (1 - q**d), d <= 4
        with pytest.raises(AssertionError, match="^det.* class x does not divide"):
            _class_characters("A", 3)

    def test_a_coefficient_above_the_group_order_trips(self, monkeypatch):
        # the identity's f = [2][3][4] = 1 + 3q + 5q^2 + 6q^3 + ..., against |W| = 3
        real = weyl.weyl_type
        monkeypatch.setattr(weyl, "weyl_type", lambda f, r: replace(real(f, r), order=3))
        with pytest.raises(AssertionError, match="class 1,1,1,1 has a coefficient above"):
            _class_characters("A", 3)

    def test_a_vanishing_numerator_trips_the_constant_term(self, monkeypatch):
        self.one_row(monkeypatch, (1, 1, 1), (0,))  # 1 - q**0 = 0
        with pytest.raises(AssertionError, match="class x has constant term 0$"):
            _class_characters("A", 3)

    # (4,) leaves (1 - q^2)(1 - q^3), of degree 5; nothing leaves all of
    # prod (1 - q^d), of degree 9, which overflows N + 1 digits
    @pytest.mark.parametrize("a", [(4,), ()])
    def test_a_degree_other_than_n_trips(self, monkeypatch, a):
        self.one_row(monkeypatch, a, ())
        with pytest.raises(AssertionError, match="class x is not of degree 6$"):
            _class_characters("A", 3)


class TestMnCharacter:
    def test_trivial_representation(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert sn_character_values(P((n,)))[label(mu)] == 1

    def test_sign_representation(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                assert sn_character_values(P((1,) * n))[label(mu)] == (-1) ** (n - len(mu))

    def test_standard_representation_hand_values(self):
        assert sn_character_values(P((2, 1))) == {"3": -1, "2,1": 0, "1,1,1": 2}

    def test_dimension_at_identity(self):
        for n in range(1, 10):
            for lam in partitions_of(n):
                assert sn_character_values(lam)[label(P((1,) * n))] == lam.num_standard_tableaux()

    def test_first_orthogonality(self):
        for n in range(1, 7):
            wt_classes = class_data(weyl_type("A", n - 1)) if n >= 2 else None
            for lam in partitions_of(n):
                if n == 1:
                    continue
                chi = sn_character_values(lam)
                total = sum(size * chi[name] ** 2 for name, size, _ in wt_classes)
                assert total == factorial(n), lam

    def test_distinct_irreducibles_orthogonal(self):
        n = 5
        classes = class_data(weyl_type("A", n - 1))
        parts = partitions_of(n)
        for i, lam in enumerate(parts):
            for nu in parts[i + 1 :]:
                chi, psi = sn_character_values(lam), sn_character_values(nu)
                total = sum(size * chi[name] * psi[name] for name, size, _ in classes)
                assert total == 0, (lam, nu)

    def test_long_cycle_lives_on_hooks(self):
        for n in range(1, 10):
            for lam in partitions_of(n):
                hook = all(p == 1 for p in lam.parts[1:])  # lam = (n - k, 1**k), k = len - 1
                expected = (-1) ** (len(lam) - 1) if hook else 0
                assert sn_character_values(lam)[label(P((n,)))] == expected, lam

    def test_second_orthogonality(self):
        for n in range(1, 9):
            table = [sn_character_values(lam) for lam in partitions_of(n)]
            for mu in partitions_of(n):
                z = prod(p**m * factorial(m) for p, m in Counter(mu.parts).items())
                for nu in partitions_of(n):
                    total = sum(row[label(mu)] * row[label(nu)] for row in table)
                    assert total == (z if mu == nu else 0), (mu, nu)

    def test_size_mismatch_rejected(self):
        # a class of another size has no value
        with pytest.raises(KeyError):
            sn_character_values(P((2, 1)))[label(P((2, 2)))]


class TestFakeDegreeMolien:
    def test_s3_standard(self):
        wt = weyl_type("A", 2)
        fd = fake_degree_molien(wt, sn_character_values(P((2, 1))))
        assert fd.terms == {1: 1, 2: 1}

    def test_trivial_character_gives_one(self):
        for family, rank in [("A", 2), ("B", 2), ("G2", 2)]:
            wt = weyl_type(family, rank)
            trivial = {name: 1 for name, _, _ in class_data(wt)}
            assert fake_degree_molien(wt, trivial) == 1

    def test_sign_character_concentrated_at_top(self):
        for family, rank in [("A", 2), ("A", 3), ("B", 2)]:
            wt = weyl_type(family, rank)
            sign = {
                name: factor.coeff(wt.rank) * (-1) ** wt.rank for name, _, factor in class_data(wt)
            }
            fd = fake_degree_molien(wt, sign)
            assert fd.terms == {wt.num_positive_roots: 1}

    def test_regular_character_counts_group(self):
        wt = weyl_type("B", 2)
        identity_factor = one_minus_power(1, wt.rank)
        regular = {
            name: wt.order if factor == identity_factor else 0 for name, _, factor in class_data(wt)
        }
        fd = fake_degree_molien(wt, regular)
        assert sum(fd.terms.values()) == wt.order

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
        bogus = {name: (1 if name == "1,1,1" else 0) for name, _, _ in class_data(wt)}
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

    def test_unknown_keys_of_mixed_types_are_named_in_mapping_order(self):
        # an int and a str key cannot be sorted together
        values = {**sn_character_values(P((2, 1))), 1: 0, "x": 0}
        with pytest.raises(ValueError, match=r"no class of A2: \[1, 'x'\]$"):
            fake_degree_molien(weyl_type("A", 2), values)

    def test_b2_linear_characters(self):
        # B2 = signed permutations of 2; label "alpha|beta" has the positive
        # cycles alpha and the negative cycles beta.  The sign of the
        # underlying permutation and the parity of the negative cycles
        # differ on "2|" and "1|1", two classes with det(1 - tw) = 1 - t^2
        # and so one shared character f_c: only a correct per-label sum
        # into it gives each its fake degree q^2
        wt = weyl_type("B", 2)
        _, classes, *_ = _class_characters("B", 2)
        assert classes["2|"][0] == classes["1|1"][0]
        cycles = {
            name: [[int(k) for k in side.split(",") if k] for side in name.split("|")]
            for name in classes
        }
        permutation_sign = {
            name: (-1) ** sum(k - 1 for side in sides for k in side)
            for name, sides in cycles.items()
        }
        parity = {name: (-1) ** len(beta) for name, (_, beta) in cycles.items()}
        assert {name for name in classes if permutation_sign[name] != parity[name]} == {"2|", "1|1"}
        det = {name: permutation_sign[name] * parity[name] for name in classes}
        trivial = dict.fromkeys(classes, 1)
        characters = (trivial, permutation_sign, parity, det)
        assert [fake_degree_molien(wt, chi).terms for chi in characters] == [
            {0: 1}, {2: 1}, {2: 1}, {4: 1}
        ]

    @pytest.mark.parametrize("bad", [2.0, True])
    def test_non_int_value_rejected(self, bad):
        wt = weyl_type("A", 2)
        values = {**sn_character_values(P((2, 1))), "1,1,1": bad}
        with pytest.raises(TypeError, match="must be an int"):
            fake_degree_molien(wt, values)

    def test_non_weyl_type_rejected(self):
        with pytest.raises(TypeError, match="WeylType.*tuple"):
            fake_degree_molien(("A", 2), sn_character_values(P((2, 1))))

    def test_non_mapping_values_rejected(self):
        pairs = list(sn_character_values(P((2, 1))).items())
        with pytest.raises(TypeError, match="Mapping.*list"):
            fake_degree_molien(weyl_type("A", 2), pairs)

    def test_digits_wider_than_eight_bytes(self):
        # 10**30 chi needs 14-byte digits, wider than the group's cached
        # packs, which it must leave as they are
        wt, scale = weyl_type("A", 4), 10**30
        cached = _class_characters("A", 4)
        standard = sn_character_values(P((4, 1)))
        fd = fake_degree_molien(wt, {label: scale * v for label, v in standard.items()})
        assert fd.terms == {e: scale * c for e, c in fake_degree_molien(wt, standard).terms.items()}
        bogus = {label: scale * (label == "1,1,1,1,1") for label in standard}
        with pytest.raises(ValueError, match="not integral"):
            fake_degree_molien(wt, bogus)
        assert _class_characters("A", 4) is cached

    def test_mutating_a_result_leaves_the_next_one_intact(self):
        wt = weyl_type("A", 2)
        standard = sn_character_values(P((2, 1)))
        with pytest.raises(TypeError):
            fake_degree_molien(wt, standard).terms[1] = 7
        assert fake_degree_molien(wt, standard).terms == {1: 1, 2: 1}


class TestPnSeriesMolien:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        # a series cached by an earlier test would skip the packed class sums
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
        assert sum(pn_series_molien(wt).terms.values()) == wt.order

    @pytest.mark.parametrize("family,rank,merged", [("B", 7, 64), ("B", 6, 40), ("D", 7, 45)])
    def test_classes_sharing_a_character_are_merged(self, family, rank, merged):
        wt = weyl_type(family, rank)
        assert sum(pn_series_molien(wt).terms.values()) == wt.order
        assert len(_class_characters(family, rank)[2]) == merged

    @pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("G2", 2), ("F4", 4)])
    def test_every_row_is_the_fake_degree_of_a_graded_piece(self, family, rank):
        # row i (the x**(2(N - i)) terms, y shifted by 2N) is the class
        # average of chi_i(c) = f_c[i], the degree-i coinvariants; the rows
        # past N/2, which the series takes by reversal, are averaged directly
        wt = weyl_type(family, rank)
        npos, series = wt.num_positive_roots, pn_series_molien(wt).terms
        characters = {
            name: q_quotient((*wt.degrees, *b), a, "q")
            for name, _, a, b in weyl._class_rows(family, rank)
        }
        for i in range(npos + 1):
            chi = {name: f.coeff(i) for name, f in characters.items()}
            x = 2 * (npos - i)
            row = {(ye + 2 * npos) // 2: c for (xe, ye), c in series.items() if xe == x}
            assert row == fake_degree_molien(wt, chi).terms, i

    def test_non_weyl_type_rejected(self):
        with pytest.raises(TypeError, match="WeylType.*tuple"):
            pn_series_molien(("B", 3))

    def test_b_and_c_share_one_series(self):
        b3, c3 = pn_series_molien(weyl_type("B", 3)), pn_series_molien(weyl_type("C", 3))
        assert b3 == c3 and b3 is c3
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


class TestPackedClassSumTripwires:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        caches = (_class_characters, _flag_series)
        for cached in caches:
            cached.cache_clear()
        yield
        for cached in caches:
            cached.cache_clear()

    @pytest.fixture
    def moved_size(self, monkeypatch):
        """B4 with the size of its first class moved by one."""
        rows = weyl._class_rows

        def moved(family, rank):
            for k, (label, size, a, b) in enumerate(rows(family, rank)):
                yield label, size + (k == 0), a, b

        monkeypatch.setattr(weyl, "_class_rows", moved)
        return weyl_type("B", 4)

    def test_a_moved_class_size_trips_the_flag_series(self, moved_size):
        with pytest.raises(AssertionError, match="^flag series of B4: .* is not integral"):
            pn_series_molien(moved_size)

    def test_a_moved_class_size_trips_a_fake_degree(self, moved_size):
        trivial = {name: 1 for name, _, _ in class_data(moved_size)}
        with pytest.raises(ValueError, match="not integral"):
            fake_degree_molien(moved_size, trivial)

    def test_sizes_beyond_the_group_width_are_summed_wider(self, monkeypatch):
        # every size times 10**30: the digits need 15 bytes, not B4's 2
        true = pn_series_molien(weyl_type("B", 4)).terms
        _class_characters.cache_clear()
        _flag_series.cache_clear()
        rows, scale = weyl._class_rows, 10**30
        monkeypatch.setattr(
            weyl, "_class_rows", lambda f, r: ((c, scale * size, a, b) for c, size, a, b in rows(f, r))
        )
        assert pn_series_molien(weyl_type("B", 4)).terms == {k: scale * v for k, v in true.items()}

    def test_digits_too_narrow_trip_the_flag_series(self, monkeypatch):
        monkeypatch.setattr(weyl, "_digit_bytes", lambda bound: 1)
        with pytest.raises(AssertionError):
            pn_series_molien(weyl_type("B", 4))

    def test_digits_too_narrow_trip_a_fake_degree(self, monkeypatch):
        monkeypatch.setattr(weyl, "_digit_bytes", lambda bound: 1)
        wt = weyl_type("B", 4)
        trivial = {name: 1 for name, _, _ in class_data(wt)}
        with pytest.raises(AssertionError, match="^packed class sum wrapped a digit$"):
            fake_degree_molien(wt, trivial)
