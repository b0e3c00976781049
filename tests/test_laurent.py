from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nilcone.laurent import (
    BiLaurentPoly,
    ExactDivisionError,
    LaurentPoly,
    TruncatedSeries,
    series_invert_product,
)

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)

nonzero_polys = polys.filter(bool)

# Coefficient lists with many zeros, so sparse operands come up often.
coefficient_lists = st.lists(
    st.one_of(st.just(0), st.integers(min_value=-9, max_value=9)), min_size=1, max_size=14
)


def dense_product(a, b):
    """Naive truncated convolution of two coefficient lists."""
    t = min(len(a), len(b)) - 1
    return [sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(t + 1)]


def L(terms):
    return LaurentPoly(terms)


class TestLaurentBasics:
    def test_inverse_monomials(self):
        assert L({1: 1}) * L({-1: 1}) == 1

    def test_difference_of_squares(self):
        assert (1 + L({1: 1})) * (1 - L({1: 1})) == L({0: 1, 2: -1})

    def test_identity_element(self):
        p = L({1: 1, 2: 1})
        assert p * LaurentPoly.one() == p

    def test_zero_strips_eagerly(self):
        assert L({3: 0, 1: 2}).terms == {1: 2}
        assert (L({1: 1}) - L({1: 1})).is_zero()

    def test_equality_ignores_variable_name(self):
        assert L({1: 1}).with_var("q") == L({1: 1})

    def test_degree_valuation(self):
        p = L({-2: 1, 3: 5})
        assert p.valuation == -2 and p.degree == 3
        with pytest.raises(ValueError):
            _ = LaurentPoly.zero().degree

    def test_evaluate_exact(self):
        p = L({-1: 1, 2: 3})
        assert p.evaluate(2) == Fraction(25, 2)
        assert p.evaluate(1) == 4
        assert p(Fraction(1, 2)) == 2 + Fraction(3, 4)

    def test_str_ascending_with_signs(self):
        assert str(L({2: -3, 0: 1, -1: 1})) == "t^-1 + 1 - 3*t^2"
        assert str(LaurentPoly.zero()) == "0"


class TestSubstitutePower:
    def test_exponent_scaling(self):
        assert L({1: 1, 2: 1}).substitute_power(-2).terms == {-2: 1, -4: 1}

    def test_monomial(self):
        assert L({3: 1}).substitute_power(2).terms == {6: 1}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            L({1: 1}).substitute_power(0)

    def test_charge_count_specialization(self):
        # q + q^2 doubled in exponent, then evaluated at 1, counts tableaux
        assert L({1: 1, 2: 1}).substitute_power(2).evaluate(1) == 2

    @given(polys)
    def test_negation_is_involutive(self, p):
        assert p.substitute_power(-1).substitute_power(-1) == p

    @given(polys)
    def test_unit_powers_identity(self, p):
        assert p.substitute_power(1) == p


class TestRingAxioms:
    @given(polys, polys)
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)

    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c


class TestDivExact:
    def test_geometric_factor(self):
        assert L({0: 1, 2: -1}).div_exact(L({0: 1, 1: -1})) == L({0: 1, 1: 1})

    def test_other_factor(self):
        assert L({0: 1, 2: -1}).div_exact(L({0: 1, 1: 1})) == L({0: 1, 1: -1})

    def test_expanded_product_long_division(self):
        num = L({0: 1, 2: -1}) * L({0: 1, 3: -1})
        den = L({0: 1, 1: -1}) * L({0: 1, 1: -1})
        expected = L({0: 1, 1: 1}) * L({0: 1, 1: 1, 2: 1})
        assert num.div_exact(den) == expected

    def test_non_exact_reports_distinct_error(self):
        with pytest.raises(ExactDivisionError):
            L({0: 1, 1: 1}).div_exact(L({0: 1, 1: -1}))

    def test_non_integral_quotient_rejected(self):
        with pytest.raises(ExactDivisionError):
            L({1: 1}).div_exact(L({0: 2}))

    def test_division_by_zero(self):
        with pytest.raises(ExactDivisionError):
            L({1: 1}).div_exact(LaurentPoly.zero())

    @given(polys, nonzero_polys)
    def test_roundtrip(self, a, b):
        assert (a * b).div_exact(b) == a


class TestBiLaurent:
    def test_embeddings_multiply(self):
        p = BiLaurentPoly.from_x(L({2: 1})) * BiLaurentPoly.from_y(L({-2: 1}))
        assert p.terms == {(2, -2): 1}

    def test_specializations_are_ring_maps(self):
        a = BiLaurentPoly({(1, -1): 2, (0, 3): 1})
        b = BiLaurentPoly({(2, 0): 1, (1, 1): -1})
        assert (a * b).set_x(1) == a.set_x(1) * b.set_x(1)
        assert (a * b).set_y(1) == a.set_y(1) * b.set_y(1)
        assert (a + b).set_y(1) == a.set_y(1) + b.set_y(1)

    def test_evaluate(self):
        p = BiLaurentPoly({(2, -2): 1, (0, 0): 1})
        assert p.evaluate(1, 1) == 2
        assert p.evaluate(2, 1) == 5
        assert p.evaluate(2, 2) == 2

    def test_monomial_ratio(self):
        a = BiLaurentPoly({(0, 2): 1, (2, 0): 3})
        shifted = a.shift(1, -4)
        assert shifted.monomial_ratio(a) == (1, -4)
        assert a.monomial_ratio(BiLaurentPoly({(0, 0): 1})) is None
        assert a.monomial_ratio(BiLaurentPoly({(0, 2): 1, (2, 0): 4})) is None

    def test_str(self):
        p = BiLaurentPoly({(2, -2): 1, (0, 0): 1})
        assert str(p) == "1 + x^2 y^-2"


class TestTruncatedSeries:
    def test_single_geometric_series(self):
        assert series_invert_product([2], 6).coefficients == [1, 0, 1, 0, 1, 0, 1]

    def test_two_part_partitions(self):
        assert series_invert_product([2, 4], 4).coefficients == [1, 0, 1, 0, 2]

    def test_empty_product(self):
        assert series_invert_product([], 5).coefficients == [1, 0, 0, 0, 0, 0]

    def test_brute_force_partition_count_oracle(self):
        # coefficient of y^m counts multisets of parts summing to m
        def count(m, exponents):
            if m == 0:
                return 1
            if not exponents:
                return 0
            first, rest = exponents[0], exponents[1:]
            return sum(count(m - k * first, rest) for k in range(m // first + 1))

        for exponents in ([2], [2, 4], [1, 2, 3], [3, 3], [5, 2, 2]):
            series = series_invert_product(exponents, 10)
            for m in range(11):
                assert series.coeff(m) == count(m, list(exponents)), (exponents, m)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            series_invert_product([0], 3)
        with pytest.raises(ValueError):
            series_invert_product([2], -1)

    def test_arithmetic_truncates_to_minimum(self):
        a = TruncatedSeries([1, 1, 1, 1])
        b = TruncatedSeries([1, 2])
        assert (a * b).order == 1
        assert (a * b).coefficients == [1, 3]
        assert (a + b).coefficients == [2, 3]

    def test_poly_multiplication(self):
        series = series_invert_product([4], 6)
        poly = L({0: 1, 2: 1})
        assert (series * poly).coefficients == [1, 0, 1, 0, 1, 0, 1]

    @given(coefficient_lists, coefficient_lists)
    @example([0, 0, 0], [1, 2, 3, 4, 5])
    @example([0, 0, 4, 0, 1], [0, 3])
    @example([0], [7, 1])
    def test_product_is_dense_convolution(self, a, b):
        product = TruncatedSeries(a) * TruncatedSeries(b)
        assert product.coefficients == dense_product(a, b)
        assert product.order == min(len(a), len(b)) - 1
        assert TruncatedSeries(b) * TruncatedSeries(a) == product

    @given(
        coefficient_lists,
        st.dictionaries(
            st.integers(min_value=0, max_value=25), st.integers(min_value=-9, max_value=9),
            max_size=6,
        ),
    )
    @example([1, 0, 0], {0: 1, 5: 2, 30: 1})
    @example([0, 1], {})
    def test_poly_product_is_padded_convolution(self, a, terms):
        padded = [terms.get(e, 0) for e in range(len(a))]
        product = TruncatedSeries(a) * LaurentPoly(terms, "y")
        assert product.coefficients == dense_product(a, padded)

    def test_from_poly_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_poly(L({-1: 1}), 4)

    @given(
        st.lists(st.integers(min_value=1, max_value=6), max_size=4),
        st.integers(min_value=0, max_value=12),
    )
    def test_inverse_against_expanded_product(self, exponents, order):
        series = series_invert_product(exponents, order)
        product = LaurentPoly.one("y")
        for e in exponents:
            product = product * LaurentPoly({0: 1, e: -1}, "y")
        assert series * product == TruncatedSeries.one(order)
