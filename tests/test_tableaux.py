from collections import Counter
from math import factorial, prod

import pytest

from nilcone import kostka
from nilcone.partitions import Partition, partitions_of
from nilcone.tableaux import ssyt_enumerate

# the major-index oracle of the fake-degree test
from test_kostka import major_index_genfun


def ones(n):
    return Partition((1,) * n)


class TestSsytEnumerate:
    def test_two_standard_fillings(self):
        found = ssyt_enumerate(Partition((2, 1)), ones(3))
        assert len(found) == 2
        # strip order is pinned: letter 2 joins the first row before the second
        assert found == [((1, 2), (3,)), ((1, 3), (2,))]

    def test_single_row(self):
        for n in range(1, 6):
            found = ssyt_enumerate(Partition((n,)), ones(n))
            assert found == [(tuple(range(1, n + 1)),)]

    def test_impossible_filling(self):
        assert ssyt_enumerate(Partition((1, 1)), Partition((2,))) == []

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssyt_enumerate(Partition((2, 1)), Partition((2, 1, 1)))

    def test_empty_shape(self):
        assert ssyt_enumerate(Partition(()), Partition(())) == [()]

    def test_content_respected(self):
        for rows in ssyt_enumerate(Partition((3, 2)), Partition((2, 2, 1))):
            assert Counter(v for row in rows for v in row) == {1: 2, 2: 2, 3: 1}

    def test_standard_count_matches_hook_formula(self):
        for n in range(8):
            for lam in partitions_of(n):
                assert len(ssyt_enumerate(lam, ones(n))) == lam.num_standard_tableaux()

    def test_weight_one_content_gives_standard(self):
        for t in ssyt_enumerate(Partition((3, 2, 1)), ones(6)):
            assert sorted(v for row in t for v in row) == list(range(1, 7))


def _every_filling_up_to_eight():
    for n in range(9):
        for mu in partitions_of(n):
            for lam in partitions_of(n):
                for rows in ssyt_enumerate(lam, mu):
                    yield lam, mu, rows


class TestTableauValidation:
    """The fillings ssyt_enumerate returns, checked without the
    horizontal-strip helper it uses: on every pair with n <= 8 each filling
    is a semistandard tableau of the right shape and content, no filling
    repeats, and sum_lam f^lam |SSYT(lam, mu)| = n!/prod mu_i! (RSK).  With
    positive weights f^lam, that identity leaves no room for a missing
    tableau, so the enumeration is also complete."""

    def test_valid(self):
        assert ssyt_enumerate(Partition((3, 1)), Partition((2, 2))) == [((1, 1, 2), (2,))]

    def test_row_must_weakly_increase(self):
        for _, _, rows in _every_filling_up_to_eight():
            assert all(a <= b for row in rows for a, b in zip(row, row[1:])), rows

    def test_column_must_strictly_increase(self):
        for _, _, rows in _every_filling_up_to_eight():
            for upper, lower in zip(rows, rows[1:]):
                assert all(a < b for a, b in zip(upper, lower)), rows

    def test_letters_positive(self):
        # and the letter i appears exactly mu_i times
        for _, mu, rows in _every_filling_up_to_eight():
            content = Counter(v for row in rows for v in row)
            assert content == {i: m for i, m in enumerate(mu.parts, 1)}, (mu, rows)

    def test_shape_must_be_partition(self):
        # the row lengths are the parts of the requested shape
        for lam, _, rows in _every_filling_up_to_eight():
            assert tuple(len(row) for row in rows) == lam.parts, (lam, rows)

    def test_reading_word_bottom_row_first(self, monkeypatch):
        words = []
        monkeypatch.setattr(kostka, "ssyt_enumerate", lambda lam, mu: [((1, 2), (3,))])
        monkeypatch.setattr(kostka, "charge", lambda word: words.append(tuple(word)) or 0)
        kostka._kostka_foulkes_charge_parts.__wrapped__((2, 1), (1, 1, 1))
        assert words == [(3, 1, 2)]

    def test_every_pair_up_to_eight_distinct_and_complete(self):
        for n in range(9):
            for mu in partitions_of(n):
                weighted = 0
                for lam in partitions_of(n):
                    found = ssyt_enumerate(lam, mu)
                    assert len(set(found)) == len(found), (lam, mu)
                    weighted += lam.num_standard_tableaux() * len(found)
                assert weighted == factorial(n) // prod(factorial(m) for m in mu.parts), mu


class TestMajorIndex:
    """The oracle that tests/test_kostka.py sets against the q-hook."""

    def test_hand_computed_hook(self):
        assert major_index_genfun(Partition((2, 1))).terms == {1: 1, 2: 1}

    def test_single_row_no_descents(self):
        assert major_index_genfun(Partition((4,))) == 1

    def test_single_column(self):
        assert major_index_genfun(Partition((1, 1))).terms == {1: 1}
        # descents at every position: maj = 1 + 2 = 3
        assert major_index_genfun(Partition((1, 1, 1))).terms == {3: 1}

    def test_counts_standard_tableaux_at_one(self):
        for n in range(8):
            for lam in partitions_of(n):
                genfun = major_index_genfun(lam)
                assert sum(genfun.terms.values()) == lam.num_standard_tableaux()
