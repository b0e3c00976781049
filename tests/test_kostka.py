from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcone import kostka, verify
from nilcone.kostka import (
    charge,
    compute_kostka_table,
    fake_degree_qhook,
    kostka_foulkes,
    kostka_foulkes_charge,
    kostka_from_fake_degree,
)
from nilcone.laurent import LaurentPoly
from nilcone.partitions import Partition, partitions_of
from nilcone.tableaux import ssyt_enumerate

P = Partition


def ones(n):
    return P((1,) * n)


def major_index_genfun(shape):
    """sum of q**maj(T) over the standard tableaux T of shape, where r
    counts toward maj(T) when r + 1 sits in a strictly lower row than r."""
    terms = Counter()
    for rows in ssyt_enumerate(shape, ones(shape.size)):
        row_of = {v: r for r, row in enumerate(rows) for v in row}
        terms[sum(r for r in range(1, shape.size) if row_of[r + 1] > row_of[r])] += 1
    return LaurentPoly(terms, "q")


class TestChargeStandardWords:
    def test_increasing_word(self):
        for n in range(1, 7):
            assert charge(list(range(1, n + 1))) == n * (n - 1) // 2

    def test_decreasing_word(self):
        for n in range(1, 7):
            assert charge(list(range(n, 0, -1))) == 0

    def test_index_rule_hand_cases(self):
        assert charge([3, 1, 2]) == 2
        assert charge([2, 1, 3]) == 1

    def test_empty_word(self):
        assert charge([]) == 0

    def test_non_partition_content_rejected(self):
        with pytest.raises(ValueError):
            charge([2, 2, 1])  # letter 2 more frequent than letter 1
        with pytest.raises(ValueError):
            charge([1, 3])  # letter 2 missing
        with pytest.raises(ValueError):
            charge([0, 1])

    def test_bool_letters_rejected(self):
        # True == 1, but a bool is not a letter; Partition rejects it too
        with pytest.raises(ValueError):
            charge((True,))
        with pytest.raises(ValueError):
            charge([2, True, 1])


class TestChargeGeneralContent:
    def test_repeated_letters(self):
        assert charge([2, 1, 1]) == 0
        assert charge([1, 1, 2]) == 1
        assert charge([1, 1, 2, 2]) == 2
        assert charge([2, 1, 1, 2]) == 1

    def test_all_equal_letters(self):
        assert charge([1, 1, 1, 1]) == 0


# --- tie-break invariance -------------------------------------------------
#
# The deterministic extraction picks the first occurrence met while scanning
# right-to-left (cyclically).  When the occurrence sits in a block of equal
# adjacent letters, any member of the block is an equally valid pick; the
# charge must not depend on which one the implementation takes.


def _charge_shuffled_ties(word, choose):
    """Reimplementation of the extraction with a pluggable tie-break.

    `choose(k)` returns an index in range(k), selecting which member of a
    block of equal adjacent letters gets extracted.
    """

    def standard_charge(sub):
        position = {v: i for i, v in enumerate(sub)}
        index = total = 0
        for r in range(2, len(sub) + 1):
            if position[r] > position[r - 1]:
                index += 1
            total += index
        return total

    w = list(word)
    total = 0
    while w:
        top = max(w)
        first = next(i for i in range(len(w) - 1, -1, -1) if w[i] == 1)
        run = [first]
        while run[-1] - 1 >= 0 and w[run[-1] - 1] == 1:
            run.append(run[-1] - 1)
        selected = [run[choose(len(run))]]
        for letter in range(2, top + 1):
            i = selected[-1]
            for step in range(1, len(w)):
                j = (i - step) % len(w)
                if w[j] == letter:
                    run = [j]
                    while run[-1] - 1 >= 0 and w[run[-1] - 1] == letter:
                        run.append(run[-1] - 1)
                    selected.append(run[choose(len(run))])
                    break
        total += standard_charge([w[j] for j in sorted(selected)])
        for j in sorted(selected, reverse=True):
            del w[j]
    return total


@st.composite
def words_with_partition_content(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    options = partitions_of(n)
    mu = options[draw(st.integers(min_value=0, max_value=len(options) - 1))]
    letters = [i + 1 for i, part in enumerate(mu.parts) for _ in range(part)]
    return draw(st.permutations(letters))


class TestChargeTieBreaks:
    @given(words_with_partition_content(), st.randoms(use_true_random=False))
    def test_any_member_of_equal_block(self, word, rng):
        expected = charge(word)
        assert _charge_shuffled_ties(word, lambda k: rng.randrange(k)) == expected

    @given(words_with_partition_content())
    def test_deepest_member_of_equal_block(self, word):
        assert _charge_shuffled_ties(word, lambda k: k - 1) == charge(word)


# Frozen oracle: charge-convention tables through n = 4, derived by hand
# from the tableau enumerations (reading word, extraction, index rule).
KNOWN_TABLES = {
    2: {
        ((2,), (2,)): {0: 1},
        ((2,), (1, 1)): {1: 1},
        ((1, 1), (1, 1)): {0: 1},
    },
    3: {
        ((3,), (3,)): {0: 1},
        ((3,), (2, 1)): {1: 1},
        ((3,), (1, 1, 1)): {3: 1},
        ((2, 1), (2, 1)): {0: 1},
        ((2, 1), (1, 1, 1)): {1: 1, 2: 1},
        ((1, 1, 1), (1, 1, 1)): {0: 1},
    },
    4: {
        ((4,), (4,)): {0: 1},
        ((4,), (3, 1)): {1: 1},
        ((4,), (2, 2)): {2: 1},
        ((4,), (2, 1, 1)): {3: 1},
        ((4,), (1, 1, 1, 1)): {6: 1},
        ((3, 1), (3, 1)): {0: 1},
        ((3, 1), (2, 2)): {1: 1},
        ((3, 1), (2, 1, 1)): {1: 1, 2: 1},
        ((3, 1), (1, 1, 1, 1)): {3: 1, 4: 1, 5: 1},
        ((2, 2), (2, 2)): {0: 1},
        ((2, 2), (2, 1, 1)): {1: 1},
        ((2, 2), (1, 1, 1, 1)): {2: 1, 4: 1},
        ((2, 1, 1), (2, 1, 1)): {0: 1},
        ((2, 1, 1), (1, 1, 1, 1)): {1: 1, 2: 1, 3: 1},
        ((1, 1, 1, 1), (1, 1, 1, 1)): {0: 1},
    },
}


class TestKostkaFoulkes:
    def test_hand_case(self):
        assert kostka_foulkes(P((2, 1)), ones(3)).terms == {1: 1, 2: 1}

    def test_diagonal_is_one(self):
        for n in range(7):
            for lam in partitions_of(n):
                assert kostka_foulkes(lam, lam) == 1

    def test_non_dominating_vanishes(self):
        assert not kostka_foulkes(P((2, 2)), P((3, 1)))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kostka_foulkes(P((2,)), P((2, 1)))
        with pytest.raises(ValueError):
            kostka_foulkes_charge(P((2,)), P((2, 1)))

    def test_known_tables(self):
        for n, table in KNOWN_TABLES.items():
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    expected = table.get((lam.parts, mu.parts), {})
                    assert kostka_foulkes(lam, mu).terms == expected, (lam, mu)

    def test_value_at_one_counts_tableaux(self):
        for n in range(7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert sum(kostka_foulkes(lam, mu).terms.values()) == len(
                        ssyt_enumerate(lam, mu)
                    )

    def test_nonnegative_coefficients(self):
        for n in range(8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    poly = kostka_foulkes(lam, mu)
                    assert all(c > 0 for c in poly.terms.values())

    def test_monic_of_degree_nstat_difference(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    if not lam.dominates(mu):
                        continue
                    poly = kostka_foulkes(lam, mu)
                    expected_degree = mu.n_stat() - lam.n_stat()
                    assert poly.degree == expected_degree, (lam, mu)
                    assert poly.coeff(expected_degree) == 1

    def test_nonzero_iff_dominates(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert bool(kostka_foulkes(lam, mu)) == lam.dominates(mu)

    def test_column_route_equals_charge(self):
        for n in range(9):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert kostka_foulkes(lam, mu) == kostka_foulkes_charge(lam, mu), (lam, mu)

    def test_unequal_sizes_raise(self):
        for _ in range(2):  # the second call finds the column of mu memoised
            with pytest.raises(ValueError, match=r"equal sizes: \|\(2,1\)\| != \|\(2\)\|"):
                kostka_foulkes(P((2, 1)), P((2,)))

    @pytest.mark.parametrize(
        "lam, mu, name",
        [((2, 1), (2, 1), "tuple"), (P((2, 1)), (2, 1), "tuple"), ([3], P((2, 1)), "list")],
    )
    def test_non_partitions_raise_type_error(self, lam, mu, name):
        with pytest.raises(TypeError, match=f"kostka_foulkes needs Partitions, not {name}$"):
            kostka_foulkes(lam, mu)

    def test_first_eight_byte_digit(self):
        # 13! needs 33 bits, so n = 13 is the first column with 8-byte digits
        assert [kostka._digit_bytes(factorial(n)) for n in (12, 13)] == [4, 8]
        assert _table_check(13).passed

    def test_digits_wider_than_eight_bytes(self):
        # 21! needs 66 bits: 9-byte digits, decoded by int.from_bytes slices
        assert kostka._digit_bytes(factorial(21)) == 9
        assert kostka_foulkes(P((21,)), P((20, 1))) == LaurentPoly({1: 1})
        assert kostka_foulkes(P((21,)), P((19, 1, 1))) == LaurentPoly({3: 1})


def _alternant(s, kappa):
    """Independent oracle for Bernstein's operator: s_(s,kappa) by the
    Jacobi-Trudi alternant.  Sort (s, kappa) + delta, delta_i = len - i;
    a repeated entry gives 0, otherwise the sign of the sorting permutation
    and nu = sorted - delta."""
    composition = (s, *kappa)
    delta = range(len(composition) - 1, -1, -1)
    shifted = [a + d for a, d in zip(composition, delta)]
    if len(set(shifted)) < len(shifted):
        return 0, ()
    inversions = sum(x < y for i, x in enumerate(shifted) for y in shifted[i + 1 :])
    nu = [a - d for a, d in zip(sorted(shifted, reverse=True), delta)]
    return (-1) ** inversions, tuple(p for p in nu if p)


class TestStraighten:
    def test_against_the_alternant(self):
        cases = [(s, kappa.parts) for s in range(13) for k in range(9) for kappa in partitions_of(k)]
        assert len(cases) == 13 * 67
        for s, kappa in cases:
            assert kostka._straighten(s, kappa) == _alternant(s, kappa), (s, kappa)

    def test_hand_cases(self):
        assert kostka._straighten(1, (3,)) == (-1, (2, 2))  # one swap
        assert kostka._straighten(1, (2,)) == (0, ())  # two equal rows
        assert kostka._straighten(1, (4, 4)) == (1, (3, 3, 3))  # two swaps

    def test_column_of_two_one(self):
        # Q'_(2,1) = s_(2,1) + t s_(3): B_2 s_(1) + t B_3 s_()
        assert kostka._kostka_column((2, 1)) == {(2, 1): 1, (3,): LaurentPoly({1: 1})}


def _doctor_inner_column(monkeypatch, mu, doctor):
    """Build the column of mu (fresh) from a doctored copy of the column of
    mu without its first part."""
    original = kostka._kostka_column

    def column(parts):
        if parts == mu:
            return original.__wrapped__(parts)
        return doctor(original(parts))

    monkeypatch.setattr(kostka, "_kostka_column", column)


class TestColumnTripwires:
    def test_negative_coefficient(self, monkeypatch):
        _doctor_inner_column(monkeypatch, (2, 1), lambda c: {k: -v for k, v in c.items()})
        with pytest.raises(AssertionError, match="a negative coefficient"):
            kostka_foulkes(P((2, 1)), P((2, 1)))

    def test_diagonal_not_one(self, monkeypatch):
        _doctor_inner_column(monkeypatch, (2, 1), lambda c: {k: v * 2 for k, v in c.items()})
        with pytest.raises(AssertionError, match=r"K\[\(2,1\),\(2,1\)\] = 2"):
            kostka_foulkes(P((2, 1)), P((2, 1)))

    def test_not_dominating(self, monkeypatch):
        _doctor_inner_column(monkeypatch, (2, 2), lambda c: {(1, 1): LaurentPoly.one()})
        with pytest.raises(AssertionError, match="not dominating"):
            kostka_foulkes(P((2, 2)), P((2, 2)))

    def test_column_sum(self, monkeypatch):
        # doubling K[(2),(1,1)] keeps dominance, signs and K[mu,mu] = 1
        _doctor_inner_column(
            monkeypatch, (2, 1, 1), lambda c: {k: v * 2 if k == (2,) else v for k, v in c.items()}
        )
        with pytest.raises(AssertionError, match=r"sum of f\^lam K\[lam,\(2,1,1\)\]\(1\) is 18, not 12"):
            kostka_foulkes(P((2, 1, 1)), P((2, 1, 1)))

    def test_overflowing_digit(self, monkeypatch):
        # K[lam,(1^11)] has a coefficient of 165, which one-byte digits cannot hold
        monkeypatch.setattr(kostka, "_digit_bytes", lambda bound: 1)
        mu = (1,) * 11
        _doctor_inner_column(monkeypatch, mu, lambda c: c)
        with pytest.raises(AssertionError, match=r"column \(1,1,1,1,1,1,1,1,1,1,1\): "):
            kostka_foulkes(P(mu), P(mu))


class TestSharedEntries:
    """_column_entry decodes each distinct packed entry once, so equal
    K[lam,mu] of the columns of one n are one object."""

    def test_equal_entries_of_two_columns_are_one_object(self, clear_memos):
        # K[(4),(3,1)] = K[(3,1),(2,2)] = t
        first, second = kostka_foulkes(P((4,)), P((3, 1))), kostka_foulkes(P((3, 1)), P((2, 2)))
        assert first == LaurentPoly({1: 1})
        assert first is second

    def test_equal_entries_of_one_n_are_one_object(self, clear_memos):
        shared = {}
        entries = [
            poly for mu in partitions_of(9) for poly in kostka._kostka_column(mu.parts).values()
        ]
        assert all(shared.setdefault(poly, poly) is poly for poly in entries)
        assert len(shared) < len(entries)

    def test_columns_of_n_up_to_10_decode_each_distinct_entry_once(self, clear_memos):
        # 1719 nonzero K[lam,mu] with n <= 10, 622 distinct (packed, width) keys
        for n in range(1, 11):
            for mu in partitions_of(n):
                kostka._kostka_column(mu.parts)
        info = kostka._column_entry.cache_info()
        assert (info.misses, info.hits, info.currsize) == (622, 1097, 622)


class TestFakeDegrees:
    def test_hand_case(self):
        assert fake_degree_qhook(P((2, 1))).terms == {1: 1, 2: 1}

    def test_trivial_shape(self):
        for n in range(1, 7):
            assert fake_degree_qhook(P((n,))) == 1

    def test_column_two(self):
        assert fake_degree_qhook(P((1, 1))).terms == {1: 1}

    def test_sign_shape_concentrated_at_top(self):
        for n in range(1, 7):
            top = n * (n - 1) // 2
            assert fake_degree_qhook(ones(n)).terms == {top: 1}

    def test_matches_major_index_route(self):
        """FD = sum_T q**maj(T) (Stanley, EC2, Prop. 7.19.11), with the
        major index read from the enumerated standard tableaux."""
        for n in range(8):
            for lam in partitions_of(n):
                assert fake_degree_qhook(lam) == major_index_genfun(lam)

    def test_reversal_matches_charge_route(self):
        for n in range(7):
            for lam in partitions_of(n):
                assert kostka_from_fake_degree(lam) == kostka_foulkes(lam, ones(n))

    def test_reversal_hand_case(self):
        assert kostka_from_fake_degree(P((2, 1))).terms == {1: 1, 2: 1}
        assert kostka_from_fake_degree(ones(4)) == 1
        assert kostka_from_fake_degree(P((4,))).terms == {6: 1}


def _table_check(max_n):
    """The counts suite's check of the Kostka table invariants, n <= max_n."""
    [check] = [c for c in verify.suite_counts(max_n) if c.name == "counts: Kostka table invariants"]
    return check


class TestKostkaTable:
    """The dict that compute_kostka_table returns, and the counts check of
    its invariants."""

    def test_compute_small(self):
        assert len(compute_kostka_table(3)) == 6  # dominating pairs of n = 3

    def test_recomputation_is_identical(self):
        assert compute_kostka_table(5) == compute_kostka_table(5)

    def test_n12_table_passes_the_load_invariants(self):
        assert _table_check(12).passed

    @pytest.mark.parametrize(
        "tamper, message",
        [
            # K[(3,1),(2,1,1)] = t + t^2 with one coefficient raised to 2
            (lambda t: t.update({(P((3, 1)), P((2, 1, 1))): LaurentPoly({1: 2, 2: 1})}), "sum of f"),
            (lambda t: t.update({(P((3, 1)), P((2, 1, 1))): LaurentPoly({1: 1, 2: 2})}), "not monic"),
            (lambda t: t.update({(P((2, 2)), P((3, 1))): LaurentPoly.one()}), "does not dominate"),
            (lambda t: t.update({(P((2, 2)), P((2, 2))): LaurentPoly({0: 1, 1: 1})}), "not monic"),
            # 1 - t + t^2 keeps the column sum and the monic top term of t^2
            (
                lambda t: t.update({(P((4,)), P((2, 2))): LaurentPoly({0: 1, 1: -1, 2: 1})}),
                "negative coefficient",
            ),
            (lambda t: t.pop((P((1, 1, 1, 1)), P((1, 1, 1, 1)))), "= 0, not 1"),
        ],
    )
    def test_broken_tables_rejected_on_load(self, monkeypatch, tamper, message):
        """tamper(table) edits a copy of the n = 4 table, which the counts
        check must then fail, naming the edited entry or its column.  The
        copy never passes through the column's own tripwires."""
        right = compute_kostka_table(4)
        table = {k: LaurentPoly(dict(v.terms)) for k, v in right.items()}
        tamper(table)
        monkeypatch.setattr(
            verify, "compute_kostka_table", lambda n: table if n == 4 else compute_kostka_table(n)
        )
        check = _table_check(4)
        assert not check.passed
        assert message in check.counterexample
        [(lam, mu)] = [k for k in right.keys() | table.keys() if right.get(k) != table.get(k)]
        assert f"K[{lam},{mu}]" in check.counterexample or f"K[lam,{mu}]" in check.counterexample

    def test_entries_are_stored_polynomials(self):
        for (lam, mu), poly in compute_kostka_table(4).items():
            assert isinstance(poly, LaurentPoly)
            assert lam.dominates(mu)
