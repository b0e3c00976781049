import copy
import pickle
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilcone.kostka import compute_kostka_table
from nilcone.partitions import Partition, partitions_of
from nilcone.springer import pn_series


def brute_force_partition_count(n):
    """Independent oracle: count weakly decreasing positive tuples by
    first-part recursion."""

    def count(remaining, cap):
        if remaining == 0:
            return 1
        return sum(count(remaining - p, p) for p in range(min(cap, remaining), 0, -1))

    return count(n, n)


@st.composite
def small_partitions(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    options = partitions_of(n)
    return options[draw(st.integers(min_value=0, max_value=len(options) - 1))]


class TestConstruction:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, -1))
        with pytest.raises(ValueError):
            Partition((3, 0, 1))

    @pytest.mark.parametrize("part", [2.7, True, "3"])
    def test_rejects_non_int_parts(self, part):
        with pytest.raises(TypeError):
            Partition([part])

    def test_strips_trailing_zeros(self):
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))

    def test_size_is_the_sum_of_the_parts(self):
        for n in range(11):
            for lam in partitions_of(n):
                assert lam.size == sum(lam.parts) == n

    @pytest.mark.parametrize("name", ["size", "parts"])
    def test_size_and_parts_cannot_be_assigned(self, name):
        lam = Partition((2, 1))
        with pytest.raises(AttributeError, match=f"cannot assign {name}$"):
            setattr(lam, name, 4 if name == "size" else (4,))
        assert (lam.parts, lam.size) == ((2, 1), 3)

    def test_copies_keep_the_stored_size(self):
        lam = Partition((3, 1, 1))
        for twin in (copy.copy(lam), copy.deepcopy(lam), pickle.loads(pickle.dumps(lam))):
            assert (twin, twin.size) == (lam, 5)

    def test_empty_partition(self):
        empty = Partition(())
        assert empty.size == 0
        assert empty.conjugate() == empty
        assert empty.hooks() == []
        assert empty.num_standard_tableaux() == 1


class TestEnumeration:
    def test_three(self):
        assert partitions_of(3) == [
            Partition((3,)),
            Partition((2, 1)),
            Partition((1, 1, 1)),
        ]

    def test_zero(self):
        assert partitions_of(0) == [Partition(())]

    def test_counts_against_oracle(self):
        for n in range(11):
            assert len(partitions_of(n)) == brute_force_partition_count(n)

    def test_six_has_eleven(self):
        assert len(partitions_of(6)) == 11

    def test_reverse_lexicographic_and_distinct(self):
        for n in range(9):
            parts = [p.parts for p in partitions_of(n)]
            assert parts == sorted(parts, reverse=True)
            assert len(set(parts)) == len(parts)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partitions_of(-1)

    @pytest.mark.parametrize("n", [True, 2.0, "3"])
    @pytest.mark.parametrize("entry", [partitions_of, pn_series, compute_kostka_table])
    def test_non_int_rejected(self, entry, n):
        """True is not 1 and 2.0 is not 2: each is refused, not coerced."""
        with pytest.raises(TypeError, match=type(n).__name__):
            entry(n)


class TestConjugate:
    def test_self_conjugate(self):
        assert Partition((2, 1)).conjugate() == Partition((2, 1))

    def test_row_to_column(self):
        assert Partition((4,)).conjugate() == Partition((1, 1, 1, 1))

    def test_hand_drawn(self):
        assert Partition((3, 1)).conjugate() == Partition((2, 1, 1))

    def test_involution_exhaustive(self):
        for n in range(9):
            for lam in partitions_of(n):
                assert lam.conjugate().conjugate() == lam


class TestDominance:
    def test_maximum_element(self):
        assert Partition((3,)).dominates(Partition((2, 1)))

    def test_partial_sums(self):
        assert not Partition((2, 2)).dominates(Partition((3, 1)))
        assert Partition((3, 1)).dominates(Partition((2, 2)))

    def test_every_pair_against_partial_sums(self):
        """Oracle: the first k parts of a sum to at least those of b, for
        every k.  The counts suite leans on dominance, and a dominates that
        only loosened it, such as True for ((2,2),(3,1)), failed no suite."""
        for n in range(9):
            for a in partitions_of(n):
                for b in partitions_of(n):
                    expected = all(
                        sum(a.parts[:k]) >= sum(b.parts[:k]) for k in range(1, n + 1)
                    )
                    assert a.dominates(b) == expected, (a, b)

    def test_incomparable_pair(self):
        assert not Partition((3, 1, 1, 1)).dominates(Partition((2, 2, 2)))
        assert not Partition((2, 2, 2)).dominates(Partition((3, 1, 1, 1)))

    def test_reflexive(self):
        for n in range(8):
            for lam in partitions_of(n):
                assert lam.dominates(lam)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Partition((2,)).dominates(Partition((2, 1)))

    def test_partial_order_exhaustive(self):
        for n in range(9):
            parts = partitions_of(n)
            order = {
                (a, b): a.dominates(b) for a in parts for b in parts
            }
            for a in parts:
                for b in parts:
                    if order[(a, b)] and order[(b, a)]:
                        assert a == b  # antisymmetry
                    for c in parts:
                        if order[(a, b)] and order[(b, c)]:
                            assert order[(a, c)]  # transitivity

    def test_conjugation_reverses_dominance(self):
        for n in range(9):
            parts = partitions_of(n)
            for a in parts:
                for b in parts:
                    assert a.dominates(b) == b.conjugate().dominates(a.conjugate())


class TestStatistics:
    def test_n_stat_column(self):
        assert Partition((1, 1, 1)).n_stat() == 3

    def test_n_stat_row(self):
        assert Partition((7,)).n_stat() == 0

    def test_n_stat_hand(self):
        assert Partition((2, 1)).n_stat() == 1

    @given(small_partitions())
    def test_n_stat_conjugate_identity(self, mu):
        # classical: 2 n(mu) = sum of squared column lengths minus |mu|
        assert 2 * mu.n_stat() == sum(c * c for c in mu.conjugate().parts) - mu.size

    def test_hooks_hand_computed(self):
        assert sorted(Partition((2, 1)).hooks()) == [1, 1, 3]

    def test_hooks_single_row(self):
        for n in range(1, 7):
            assert Partition((n,)).hooks() == list(range(n, 0, -1))

    def test_hooks_single_cell(self):
        assert Partition((1,)).hooks() == [1]

    def test_hook_product_divides_factorial(self):
        for n in range(9):
            for lam in partitions_of(n):
                product = 1
                for h in lam.hooks():
                    product *= h
                assert factorial(n) % product == 0


class TestStandardTableauxCount:
    def test_known_counts(self):
        assert Partition((2, 1)).num_standard_tableaux() == 2
        assert Partition((2, 2)).num_standard_tableaux() == 2
        assert Partition((3, 2)).num_standard_tableaux() == 5
        assert Partition((4, 4)).num_standard_tableaux() == 14

    def test_sum_of_squares_is_factorial(self):
        # dimensions of irreducibles square-sum to the group order
        for n in range(1, 9):
            assert (
                sum(lam.num_standard_tableaux() ** 2 for lam in partitions_of(n))
                == factorial(n)
            )
