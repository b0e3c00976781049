import copy
import pickle
from collections.abc import Mapping
from math import gcd
from operator import sub

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nilcone import laurent
from nilcone.laurent import (
    BiLaurentPoly,
    ExactDivisionError,
    LaurentPoly,
    TruncatedSeries,
    divide_one_minus,
    q_quotient,
    q_quotient_coefficients,
)

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)

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


def S(coeffs):
    """The polynomial with coefficient list coeffs, constant term first."""
    return LaurentPoly(dict(enumerate(coeffs)))


def truncated_product(a, b, order):
    """a * b by LaurentPoly.__mul__, truncated to the given order by
    TruncatedSeries.from_poly, as a coefficient list."""
    return TruncatedSeries.from_poly(a * b, order).coefficients


def invert_product(exponents, order):
    """prod_e (1 - y**e)**-1 to the given order."""
    return divide_one_minus([1] + [0] * order, exponents)


def naive_sum_of_products(triples):
    """sum of c * f(x) * g(y) by the triple loop over terms."""
    out: dict = {}
    for c, f, g in triples:
        for xe, fc in f.terms.items():
            for ye, gc in g.terms.items():
                out[xe, ye] = out.get((xe, ye), 0) + c * fc * gc
    return BiLaurentPoly(out)


def packed_sum(triples, width=None):
    """sum of c * f(x) * g(y) over (c, f, g) triples as packed rows that
    laurent._packed_rows decodes: each g is packed on the lattice of all
    the y-exponents, in digits of `width` bytes, or by default of as many
    as the bound sum |c| max|f| max|g| needs."""
    live = [(c, f.terms, g.terms) for c, f, g in triples if c and f.terms and g.terms]
    ys = set().union(*(g for _, _, g in live))
    ylo = min(ys, default=0)
    step = gcd(*(e - ylo for e in ys)) or 1
    count = (max(ys, default=0) - ylo) // step + 1
    if width is None:
        width = laurent._digit_bytes(
            sum(abs(c) * max(map(abs, f.values())) * max(map(abs, g.values())) for c, f, g in live)
        )
    rows: dict = {}
    sums: dict = {}
    for c, f, g in live:
        packed = sum(gc << 8 * width * ((ye - ylo) // step) for ye, gc in g.items())
        for xe, fc in f.items():
            rows[xe] = rows.get(xe, 0) + c * fc * packed
            sums[xe] = sums.get(xe, 0) + c * fc * sum(g.values())
    return laurent._packed_rows(rows, sums, width, ylo, step, count)


@st.composite
def packed_triples(draw):
    """(c, f, g) triples with coefficients up to 2**80 in size and every
    y-exponent on one lattice of step 1, 2 or 3, some of them cancelling."""
    step = draw(st.sampled_from([1, 2, 3]))
    ylo = draw(st.integers(min_value=-6, max_value=6))
    coeffs = st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-(2**80), max_value=2**80),
    )
    terms = st.dictionaries(st.integers(min_value=-4, max_value=4), coeffs, max_size=5)
    triples = [
        (c, L(f), L({ylo + step * e: v for e, v in g.items()}))
        for c, f, g in draw(st.lists(st.tuples(coeffs, terms, terms), max_size=5))
    ]
    if triples and draw(st.booleans()):
        c, f, g = triples[0]
        triples.append((-c, f, g))
    return triples


@st.composite
def triples_of_width(draw, width):
    """(c, f, g) triples whose coefficient bound, sum |c| max|f| max|g|,
    needs exactly `width` digit bytes: c and the f-coefficients are +-1,
    the first g holds a negative coefficient above the next narrower
    width's bound, and at most four triples stay below 2**(8 * width - 1).
    Every y-exponent lies on one lattice ylo + step * k."""
    below = {1: 0, 2: 1, 4: 2, 8: 4}.get(width, width - 1)
    top = ((1 << (8 * width - 1)) - 1) // 4
    big = draw(st.integers(min_value=1 << (8 * below), max_value=top))
    step = draw(st.sampled_from([1, 2, 3]))
    ylo = draw(st.integers(min_value=-6, max_value=6))
    signs = st.sampled_from([-1, 1])
    fs = st.dictionaries(st.integers(min_value=-3, max_value=3), signs, max_size=3)
    gs = st.dictionaries(
        st.integers(min_value=0, max_value=6), st.integers(min_value=-top, max_value=top), max_size=5
    )
    drawn = [(draw(signs), draw(fs) | {0: 1}, draw(gs) | {0: -big})]
    drawn += draw(st.lists(st.tuples(signs, fs, gs), max_size=3))
    return [(c, L(f), L({ylo + step * k: v for k, v in g.items()})) for c, f, g in drawn]


def divided_by_loop(coeffs, exponents):
    """Division by prod_e (1 - y**e) one coefficient at a time, as a
    reference for the strided kernel."""
    out = list(coeffs)
    for e in exponents:
        for m in range(e, len(out)):
            out[m] += out[m - e]
    return out


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
        assert not (L({1: 1}) - L({1: 1}))

    @given(coefficient_lists)
    def test_from_coefficients_keeps_the_nonzero_terms(self, coeffs):
        p = LaurentPoly.from_coefficients(coeffs, "q")
        assert p.terms == L(dict(enumerate(coeffs))).terms and p.var == "q"

    def test_equality_ignores_variable_name(self):
        assert L({1: 1}).with_var("q") == L({1: 1})

    def test_degree_valuation(self):
        p = L({-2: 1, 3: 5})
        assert p.valuation == -2 and p.degree == 3
        with pytest.raises(ValueError):
            _ = LaurentPoly.zero().degree

    def test_str_ascending_with_signs(self):
        assert str(L({2: -3, 0: 1, -1: 1})) == "t^-1 + 1 - 3*t^2"
        assert str(LaurentPoly.zero()) == "0"


class TestConstructorsRefuseNonIntegerData:
    """The public constructors check what enters from outside and name the
    argument and the type received; bool is not an int here."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: LaurentPoly({0: 1.5}), "LaurentPoly terms need int coefficients, not float"),
            (lambda: LaurentPoly({0: True}), "LaurentPoly terms need int coefficients, not bool"),
            (lambda: LaurentPoly({0.5: 1}), "LaurentPoly terms need int exponents, not float"),
            (lambda: LaurentPoly({True: 1}), "LaurentPoly terms need int exponents, not bool"),
            (lambda: LaurentPoly((1, 2)), "LaurentPoly terms must be a Mapping, not tuple"),
            (lambda: LaurentPoly(0), "LaurentPoly terms must be a Mapping, not int"),
            (
                lambda: BiLaurentPoly({(0.5, 1): 1}),
                r"BiLaurentPoly terms need \(int, int\) exponents, not \(float, int\)",
            ),
            (lambda: BiLaurentPoly({0: 1}), r"BiLaurentPoly terms need \(int, int\) exponents, not int"),
            (
                lambda: BiLaurentPoly({(0, 1, 2): 1}),
                r"BiLaurentPoly terms need \(int, int\) exponents, not \(int, int, int\)$",
            ),
            (lambda: BiLaurentPoly({(0, 1): 2.0}), "BiLaurentPoly terms need int coefficients, not float"),
            (lambda: BiLaurentPoly([((0, 1), 1)]), "BiLaurentPoly terms must be a Mapping, not list"),
            (lambda: TruncatedSeries("x"), "TruncatedSeries coefficients must be a Sequence of ints, not str"),
            (lambda: TruncatedSeries(1.5), "TruncatedSeries coefficients must be a Sequence of ints, not float"),
            (lambda: TruncatedSeries([1, 0.5]), "TruncatedSeries coefficients must be ints, not float"),
            (lambda: TruncatedSeries([True]), "TruncatedSeries coefficients must be ints, not bool"),
            (
                lambda: LaurentPoly.from_coefficients([True, 2.5, "3"]),
                "LaurentPoly.from_coefficients needs int coefficients, not bool",
            ),
            (
                lambda: LaurentPoly.from_coefficients([1, 0, 2.0]),
                "LaurentPoly.from_coefficients needs int coefficients, not float",
            ),
            (
                lambda: LaurentPoly.from_coefficients("13"),
                "LaurentPoly.from_coefficients needs int coefficients, not str",
            ),
            (lambda: LaurentPoly({1: 1}, var=7), "LaurentPoly variable name must be a str, not int"),
            (lambda: LaurentPoly(var=b"t"), "LaurentPoly variable name must be a str, not bytes"),
            (
                lambda: LaurentPoly.from_coefficients([1], var=None),
                "LaurentPoly.from_coefficients variable name must be a str, not NoneType",
            ),
            (lambda: LaurentPoly.zero(0), "LaurentPoly.zero variable name must be a str, not int"),
            (lambda: LaurentPoly.one(("q",)), "LaurentPoly.one variable name must be a str, not tuple"),
            (
                lambda: LaurentPoly({1: 1}).with_var(7),
                "LaurentPoly.with_var variable name must be a str, not int",
            ),
            (
                lambda: TruncatedSeries([1, 2], var=None),
                "TruncatedSeries variable name must be a str, not NoneType",
            ),
            (lambda: q_quotient([2], [1], 7), "q_quotient variable name must be a str, not int"),
        ],
    )
    def test_non_integer_data_is_refused(self, build, message):
        with pytest.raises(TypeError, match=f"^{message}"):
            build()

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: LaurentPoly({1: 1}).shift(0.5), "LaurentPoly.shift needs an int, not float"),
            (lambda: LaurentPoly({1: 1}).shift(True), "LaurentPoly.shift needs an int, not bool"),
            (
                lambda: LaurentPoly({1: 1}).substitute_power(1.5),
                "LaurentPoly.substitute_power needs an int, not float",
            ),
            (
                lambda: LaurentPoly({1: 1}).substitute_power(True),
                "LaurentPoly.substitute_power needs an int, not bool",
            ),
            (
                lambda: LaurentPoly({1: 1}).substitute_power(False),
                "LaurentPoly.substitute_power needs an int, not bool",
            ),
            # True and 1.0 hash like 1, so the term map would answer for them
            (lambda: L({1: 2}).coeff(True), "LaurentPoly.coeff needs an int, not bool"),
            (lambda: L({1: 2}).coeff(1.0), "LaurentPoly.coeff needs an int, not float"),
            (lambda: L({1: 2}).coeff("1"), "LaurentPoly.coeff needs an int, not str"),
            # True would index the list as 1, and 1.0 fail there unworded
            (lambda: TruncatedSeries([1, 2]).coeff(True), "TruncatedSeries.coeff needs an int, not bool"),
            (lambda: TruncatedSeries([1, 2]).coeff(1.0), "TruncatedSeries.coeff needs an int, not float"),
            (lambda: TruncatedSeries([1, 2]).coeff("1"), "TruncatedSeries.coeff needs an int, not str"),
            (lambda: BiLaurentPoly({(1, 1): 1}).shift(0.5, 1), "BiLaurentPoly.shift needs an int, not float"),
            (lambda: BiLaurentPoly({(1, 1): 1}).shift(1, "2"), "BiLaurentPoly.shift needs an int, not str"),
            (lambda: BiLaurentPoly({(1, 1): 1}).shift(True, 0), "BiLaurentPoly.shift needs an int, not bool"),
            (
                lambda: TruncatedSeries.from_poly(3, 2),
                "TruncatedSeries.from_poly needs a LaurentPoly, not int",
            ),
            (
                lambda: TruncatedSeries.from_poly(BiLaurentPoly({(0, 0): 1}), 2),
                "TruncatedSeries.from_poly needs a LaurentPoly, not BiLaurentPoly",
            ),
        ],
    )
    def test_value_methods_refuse_non_integer_exponents(self, call, message):
        """The exponent arguments of the value methods follow the value
        rule of the constructors: a float or a bool would land in the term
        map as an exponent."""
        with pytest.raises(TypeError, match=f"^{message}$"):
            call()

    def test_internal_builders_skip_the_check(self, monkeypatch):
        def refused(*args):
            raise AssertionError("checked again")

        monkeypatch.setattr(laurent, "_clean_terms", refused)
        p = LaurentPoly._from_clean({0: 1, 2: -2}, "q")
        assert LaurentPoly.zero("q").terms == {} and LaurentPoly.one().terms == {0: 1}
        assert (p + p - p * 2).terms == {} and (-p * p).terms == {0: -1, 2: 4, 4: -4}
        assert TruncatedSeries.from_poly(p, 3).coefficients == [1, 0, -2, 0]
        assert laurent._packed_rows({}, {}, 1, 0, 2, 3).terms == {}
        row = laurent._packed_rows({4: 2 + (1 << 8)}, {4: 3}, 1, -2, 2, 3)
        assert row.terms == {(4, -2): 2, (4, 0): 1}

    def test_arithmetic_with_a_bool_stores_ints(self):
        total = L({0: 1}) + True
        assert total.terms == {0: 2} and type(total.terms[0]) is int
        assert (L({1: 3}) * True).terms == {1: 3} and (L({1: 3}) * False).terms == {}


class TestSubstitutePower:
    def test_exponent_scaling(self):
        assert L({1: 1, 2: 1}).substitute_power(-2).terms == {-2: 1, -4: 1}

    def test_monomial(self):
        assert L({3: 1}).substitute_power(2).terms == {6: 1}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            L({1: 1}).substitute_power(0)

    def test_charge_count_specialization(self):
        # q + q^2 doubled in exponent, then summed (its value at 1), counts tableaux
        assert sum(L({1: 1, 2: 1}).substitute_power(2).terms.values()) == 2

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


class TestConstantHash:
    def test_constant_hashes_like_its_int(self):
        assert L({0: 3}) == 3 and 3 in {L({0: 3})} and L({0: 3}) in {3}
        assert {L({0: -2}): "a"}[-2] == "a" and {-2: "a"}[L({0: -2})] == "a"
        assert LaurentPoly() == 0 and 0 in {LaurentPoly()} and LaurentPoly.zero() in {0}
        assert L({0: 1}) in {1} and L({1: 1}) not in {1}

    def test_bivariate_constant_hashes_like_its_int(self):
        assert BiLaurentPoly({(0, 0): 2}) == 2 and 2 in {BiLaurentPoly({(0, 0): 2})}
        assert {BiLaurentPoly(): "z"}[0] == "z" and BiLaurentPoly({(0, 1): 2}) not in {2}

    @given(st.integers())
    def test_every_constant_hashes_like_its_int(self, c):
        assert hash(L({0: c})) == hash(c) == hash(BiLaurentPoly({(0, 0): c}))


class TestBiLaurent:
    """laurent._packed_rows, the row kernel of every packed bivariate sum,
    against the triple loop; packed_sum packs the rows as the Springer
    series do."""

    def test_embeddings_multiply(self):
        # 2 * (1 + x) * y**-1 + (-1) * x**2 * (y**-1 + y)
        p = packed_sum([(2, L({0: 1, 1: 1}), L({-1: 1})), (-1, L({2: 1}), L({-1: 1, 1: 1}))])
        assert p.terms == {(0, -1): 2, (1, -1): 2, (2, -1): -1, (2, 1): -1}

    def test_empty_and_cancelling_rows(self):
        assert packed_sum([]) == 0 and laurent._packed_rows({}, {}, 1, 0, 1, 0) == 0
        cancelling = [(1, L({1: 1}), L({0: 1})), (-1, L({1: 1}), L({0: 1}))]
        assert packed_sum(cancelling).terms == {}
        # a row that cancels to 0 decodes to no terms; the next row keeps its own
        assert laurent._packed_rows({1: 0, 2: 5 << 16}, {1: 0, 2: 5}, 2, 0, 3, 2).terms == {(2, 3): 5}

    @given(st.lists(st.tuples(st.integers(min_value=-5, max_value=5), polys, polys), max_size=5))
    @example([(3, L({-1: 2}), L({0: 1, 2: -1})), (-3, L({-1: 2}), L({2: -1, 0: 1}))])
    def test_specializations_are_ring_maps(self, triples):
        p = packed_sum(triples)
        assert p == naive_sum_of_products(triples)  # term maps equal, so no zeros kept

    @given(packed_triples())
    @example([])
    @example([(5, L({-2: 1}), L({-3: -7}))])
    @example([(2**80, L({0: 2**80}), L({0: -(2**80), 4: 2**80})), (1, L({1: 1}), L({2: 1}))])
    def test_packed_rows_match_the_triple_loop(self, triples):
        p = packed_sum(triples)
        assert p == naive_sum_of_products(triples)
        assert 0 not in p.terms.values()  # zero digits are never written

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16])
    @given(data=st.data())
    def test_every_digit_width_decodes(self, width, data):
        # 1, 2, 4 and 8 bytes go through memoryview.cast, 9 and 16 through int.from_bytes
        triples = data.draw(triples_of_width(width))
        bound = sum(
            abs(c) * max(map(abs, f.terms.values())) * max(map(abs, g.terms.values()))
            for c, f, g in triples
            if f and g
        )
        assert laurent._digit_bytes(bound) == width
        assert packed_sum(triples) == naive_sum_of_products(triples)

    @pytest.mark.parametrize(
        "triples",
        [
            # 2**71 at y^0 carries into y^2 inside a nine-byte row
            [(2**71, L({0: 1}), L({0: 1})), (1, L({0: 1}), L({2: 1}))],
            # 2**600 runs past the top digit of the row
            [(2**600, L({0: 1}), L({0: 1, 1: 1}))],
        ],
    )
    def test_too_narrow_wide_digits_trip(self, triples):
        with pytest.raises(AssertionError, match="packed row"):
            packed_sum(triples, width=9)

    @pytest.mark.parametrize(
        "triples",
        [
            # 200 at y^0 carries into y^2 inside a one-byte row
            [(200, L({0: 1}), L({0: 1})), (1, L({0: 1}), L({2: 1}))],
            # 2**80 runs past the top digit of the row
            [(2**80, L({0: 1}), L({0: 1, 1: 1}))],
        ],
    )
    def test_too_narrow_digits_trip(self, triples):
        with pytest.raises(AssertionError, match="packed row"):
            packed_sum(triples, width=1)

    def test_str(self):
        p = BiLaurentPoly({(2, -2): 1, (0, 0): 1})
        assert str(p) == "1 + x^2 y^-2"


class TestSignedDigits:
    """laurent._signed_digits, the one decoder of Kronecker-packed ints, and
    laurent._packed, its encoder: 1, 2, 4 and 8 bytes go through
    memoryview.cast and array, 9 and 16 through int.from_bytes and
    int.to_bytes."""

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
    @given(data=st.data())
    def test_round_trip(self, width, data):
        half = 1 << (8 * width - 1)
        digit = st.one_of(st.sampled_from([0, 1, -1, half - 1, -half]), st.integers(-half, half - 1))
        digits = data.draw(st.lists(digit, min_size=1, max_size=12))
        value = sum(d << (8 * width * k) for k, d in enumerate(digits))
        assert laurent._signed_digits(value, width, len(digits)) == digits

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 9, 16])
    @given(data=st.data())
    def test_packed_inverts_signed_digits(self, width, data):
        """The encoder is the sum of shifts and the decoder's inverse on
        the whole signed digit range, both ends included."""
        half = 1 << (8 * width - 1)
        digit = st.one_of(st.sampled_from([0, 1, -1, half - 1, -half]), st.integers(-half, half - 1))
        digits = data.draw(st.lists(digit, min_size=1, max_size=12))
        packed = laurent._packed(digits, width)
        assert packed == sum(d << (8 * width * k) for k, d in enumerate(digits))
        assert laurent._signed_digits(packed, width, len(digits)) == digits

    @pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
    @given(data=st.data())
    def test_top_coefficient_past_its_digit_trips(self, width, data):
        half = 1 << (8 * width - 1)
        lower = data.draw(st.lists(st.integers(-half, half - 1), max_size=5))
        top = data.draw(st.one_of(st.integers(half, 4 * half), st.integers(-4 * half, -half - 1)))
        value = sum(d << (8 * width * k) for k, d in enumerate(lower + [top]))
        with pytest.raises(AssertionError, match="packed row overflows"):
            laurent._signed_digits(value, width, len(lower) + 1)


class TestTruncatedSeries:
    def test_single_geometric_series(self):
        assert invert_product([2], 6) == [1, 0, 1, 0, 1, 0, 1]

    def test_two_part_partitions(self):
        assert invert_product([2, 4], 4) == [1, 0, 1, 0, 2]

    def test_empty_product(self):
        assert invert_product([], 5) == [1, 0, 0, 0, 0, 0]

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
            series = TruncatedSeries(invert_product(exponents, 10))
            for m in range(11):
                assert series.coeff(m) == count(m, list(exponents)), (exponents, m)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            invert_product([0], 3)
        with pytest.raises(ValueError):
            TruncatedSeries.from_poly(L({0: 1}), -1)
        with pytest.raises(ValueError):
            TruncatedSeries([])

    def test_rejects_non_int_exponents_and_orders(self):
        for exponents in ([True], [2.0]):
            with pytest.raises(TypeError):
                invert_product(exponents, 4)
        for order in (4.0, True, "4", 3.0):
            with pytest.raises(TypeError):
                TruncatedSeries.from_poly(L({0: 1}), order)

    def test_poly_multiplication(self):
        # (1 + y^2) / (1 - y^4) = 1 / (1 - y^2)
        assert divide_one_minus([1, 0, 1, 0, 0, 0, 0], [4]) == invert_product([2], 6)

    @given(coefficient_lists, coefficient_lists)
    @example([0, 0, 0], [1, 2, 3, 4, 5])
    @example([0, 0, 4, 0, 1], [0, 3])
    @example([0], [7, 1])
    def test_product_is_dense_convolution(self, a, b):
        order = min(len(a), len(b)) - 1
        product = truncated_product(S(a), S(b), order)
        assert product == dense_product(a, b)
        assert truncated_product(S(b), S(a), order) == product

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
        series = TruncatedSeries.from_poly(S(a).with_var("y") * L(terms), len(a) - 1)
        assert series.coefficients == dense_product(a, padded)
        assert series.var == "y"

    def test_poly_times_other_types_is_not_implemented(self):
        with pytest.raises(TypeError):
            L({0: 1}) * "y"
        p, b, s = L({0: 1, 1: 2}), BiLaurentPoly({(0, 1): 1}), TruncatedSeries([1, 0, 0, 0])
        for combine in (
            lambda: b * p,
            lambda: p * b,
            lambda: b + p,
            lambda: p + b,
            lambda: s + 1,
            lambda: p + s,
            lambda: p * s,
            lambda: s * p,
            lambda: s * b,
            lambda: b * s,
        ):
            with pytest.raises(TypeError, match="unsupported operand"):
                combine()

    def test_from_poly_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_poly(L({-1: 1}), 4)

    @given(
        st.lists(st.integers(min_value=1, max_value=6), max_size=4),
        st.integers(min_value=0, max_value=12),
    )
    def test_inverse_against_expanded_product(self, exponents, order):
        product = LaurentPoly.one()
        for e in exponents:
            product = product * LaurentPoly({0: 1, e: -1})
        back = truncated_product(S(invert_product(exponents, order)), product, order)
        assert back == [1] + [0] * order


class TestDivideOneMinus:
    def test_signed_coefficients(self):
        # (1 - 2y + 3y^2 - y^4 + 5y^5) / ((1 - y^2)(1 - y^3))
        quotient = divide_one_minus([1, -2, 3, 0, -1, 5], [2, 3])
        assert quotient == [1, -2, 4, -1, 1, 7]

    @given(
        coefficient_lists,
        st.lists(st.integers(min_value=1, max_value=16), max_size=4),
    )
    @example([3, -1, 0, 2], [1, 1])
    @example([0, -5, 0, 0, 0, 7], [2, 9])
    def test_matches_loop_and_multiplies_back(self, coeffs, exponents):
        quotient = divide_one_minus(coeffs, exponents)
        assert quotient == divided_by_loop(coeffs, exponents)
        factor = LaurentPoly.one()
        for e in exponents:
            factor = factor * LaurentPoly({0: 1, e: -1})
        assert truncated_product(S(quotient), factor, len(coeffs) - 1) == coeffs

    def test_exponent_above_order_leaves_series_unchanged(self):
        assert divide_one_minus([3, -1, 2], [3, 10**9]) == [3, -1, 2]
        assert divide_one_minus([4], [1]) == [4]

    def test_empty_product_is_identity(self):
        assert divide_one_minus([0, 2, -3], []) == [0, 2, -3]

    def test_receiver_not_mutated(self):
        coeffs = [1, -1, 2, 0, 5]
        quotient = divide_one_minus(coeffs, [1, 2])
        assert coeffs == [1, -1, 2, 0, 5]
        assert quotient is not coeffs
        assert divide_one_minus(coeffs, []) is not coeffs

    def test_rejects_exponents_below_one(self):
        for exponents in ([0], [-2], [2, 0]):
            with pytest.raises(ValueError, match="positive"):
                divide_one_minus([1, 0, 0, 0, 0], exponents)

    def test_rejects_non_int_exponents(self):
        for exponents in ([2.0], [True], ["2"], [2, None]):
            with pytest.raises(TypeError, match="ints"):
                divide_one_minus([1, 0, 0, 0, 0], exponents)


class TestStorageContract:
    """The benchmark's encoder (perfbench/worker.py, encode) reads these
    attributes directly, so a change of storage fails here first.  A term
    map is read-only, so that no caller can corrupt a memoised value."""

    def test_univariate_terms_are_a_read_only_map_keyed_by_int(self):
        for p in (L({-2: 1, 3: -4}), LaurentPoly.zero(), q_quotient([2, 3], [1])):
            assert isinstance(p.terms, Mapping)
            assert all(type(e) is int for e in p.terms)
            with pytest.raises(TypeError):
                p.terms[7] = 1

    def test_bivariate_terms_are_a_read_only_map_keyed_by_int_pairs(self):
        b = packed_sum([(2, L({0: 1, 1: 1}), L({-1: 1, 3: 2}))])
        for p in (b, b.shift(1, -2), BiLaurentPoly({(0, 0): 1})):
            assert isinstance(p.terms, Mapping) and p.terms
            assert all(
                type(k) is tuple and len(k) == 2 and all(type(e) is int for e in k)
                for k in p.terms
            )
            with pytest.raises(TypeError):
                p.terms[0, 7] = 1

    @pytest.mark.parametrize(
        "value",
        [
            LaurentPoly({-2: 1, 3: -4}, "q"),
            LaurentPoly.zero("x"),
            BiLaurentPoly({(0, 0): 1, (2, -2): 3}),
        ],
        ids=repr,
    )
    def test_pickle_and_deepcopy_round_trip(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(twin) is type(value) and twin == value
            assert getattr(twin, "var", None) == getattr(value, "var", None)
            assert isinstance(twin.terms, Mapping)
            with pytest.raises(TypeError):
                twin.terms[9, 9] = 1
            with pytest.raises(AttributeError):
                twin.terms = {}

    def test_series_coefficients_are_a_list(self):
        for s in (TruncatedSeries((1, 2, 3)), TruncatedSeries.from_poly(L({0: 1, 2: 5}), 4)):
            assert type(s.coefficients) is list

    def test_series_is_immutable(self):
        """No attribute rebinds, a reader's edit of coefficients does not
        reach the series, and copies rebuild through the constructor."""
        s = TruncatedSeries([1, 2])
        for name in ("var", "coefficients", "_coefficients"):
            with pytest.raises(AttributeError, match=f"^TruncatedSeries is immutable: cannot assign {name}$"):
                setattr(s, name, 5)
        s.coefficients.append(2.5)
        assert s.coefficients == [1, 2] and s.order == 1 and str(s) == "1 + 2*y + O(y^2)"
        for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
            assert twin == s and twin.var == "y"


def one_minus_product(exponents):
    """prod (1 - q**e) by LaurentPoly.__mul__."""
    out = LaurentPoly.one("q")
    for e in exponents:
        out = out * LaurentPoly({0: 1, e: -1}, "q")
    return out


def multiplies_back(quotient, numerator, denominator):
    """quotient * prod (1 - q**b) == prod (1 - q**a), by LaurentPoly.__mul__."""
    return quotient * one_minus_product(denominator) == one_minus_product(numerator)


def divides(numerator, denominator):
    """Whether prod (1 - q**b) divides prod (1 - q**a): the cyclotomic
    polynomial Phi_k divides 1 - q**m exactly when k | m, once, so each Phi_k
    must divide at least as many numerator factors as denominator ones."""
    return all(
        sum(a % k == 0 for a in numerator) >= sum(b % k == 0 for b in denominator)
        for k in range(1, max(denominator, default=0) + 1)
    )


@st.composite
def dividing_exponents(draw):
    """Exponent multisets whose quotient is a polynomial: 1 - q**b divides
    1 - q**(k b), and a q-multinomial coefficient
    prod_(i <= m) (1 - q**i) / prod_j prod_(i <= m_j) (1 - q**i), m = sum m_j,
    is one; extra numerator factors ride along."""
    pairs = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), max_size=4))
    blocks = draw(st.lists(st.integers(0, 4), max_size=3))
    extra = draw(st.lists(st.integers(1, 9), max_size=3))
    numerator = [b * k for b, k in pairs] + list(range(1, sum(blocks) + 1)) + extra
    denominator = [b for b, _ in pairs] + [i for m in blocks for i in range(1, m + 1)]
    return draw(st.permutations(numerator)), draw(st.permutations(denominator))


def uncancelled_coefficients(numerator, denominator):
    """q_quotient_coefficients with no exponent cancelled: every numerator
    factor expanded on the dense list, then every denominator factor
    divided; None when the division leaves a tail."""
    t = 0
    top = sum(numerator)
    coeffs = [1] + [0] * top
    for a in numerator:
        t += a
        coeffs[a : t + 1] = map(sub, coeffs[a : t + 1], coeffs[: t + 1 - a])
    series = divide_one_minus(coeffs, denominator)
    degree = top - sum(denominator)
    return None if degree < 0 or any(series[degree + 1 :]) else series[: degree + 1]


class TestQQuotient:
    @given(
        st.one_of(
            dividing_exponents(),
            st.tuples(st.lists(st.integers(1, 8), max_size=5), st.lists(st.integers(1, 8), max_size=4)),
        ),
        st.lists(st.integers(1, 6), max_size=4),
        st.lists(st.integers(1, 5), max_size=2),
    )
    @example(([], []), [2, 3], [])
    @example(([4], [1]), [2, 2, 2], [3])
    def test_cancelling_shared_exponents_changes_nothing(self, exponents, shared, extra):
        """Shared exponents, repeated ones among them, leave the quotient and
        its exactness as the uncancelled expansion has them, with or without
        extra numerator factors."""
        numerator = [*exponents[0], *shared, *extra]
        denominator = [*shared[::-1], *exponents[1]]
        expected = uncancelled_coefficients(numerator, denominator)
        if expected is None:
            with pytest.raises(ExactDivisionError):
                q_quotient_coefficients(numerator, denominator)
        else:
            assert q_quotient_coefficients(numerator, denominator) == expected

    def test_shared_exponents_cancel(self):
        assert q_quotient_coefficients([2, 3], [3, 2]) == [1]
        assert q_quotient_coefficients([2, 2, 4], [2, 2, 2]) == [1, 0, 1]  # 1 + q**2

    def test_exponent_types_are_checked_before_sorting(self):
        """A str or None among ints would fail the degree's sum with an
        unworded error; the worded check must come first."""
        with pytest.raises(TypeError, match="^factor exponents must be ints, not str$"):
            q_quotient_coefficients([3, "2"], [1])
        with pytest.raises(TypeError, match="^factor exponents must be ints, not NoneType$"):
            q_quotient_coefficients([2], [1, None])

    @given(dividing_exponents())
    @example(([2, 4, 6], [1, 2, 3]))
    def test_matches_product_route(self, exponents):
        numerator, denominator = exponents
        quotient = q_quotient(numerator, denominator)
        assert multiplies_back(quotient, numerator, denominator)
        assert quotient.var == "q"
        # dense, zeros kept, from the constant term to a nonzero leading one
        coefficients = q_quotient_coefficients(numerator, denominator)
        assert len(coefficients) == sum(numerator) - sum(denominator) + 1
        assert coefficients == [quotient.coeff(e) for e in range(len(coefficients))]
        assert coefficients[-1] != 0

    @given(
        st.lists(st.integers(1, 8), max_size=5),
        st.lists(st.integers(1, 8), max_size=3),
    )
    def test_raises_exactly_when_division_is_inexact(self, numerator, denominator):
        if divides(numerator, denominator):
            assert multiplies_back(q_quotient(numerator, denominator), numerator, denominator)
        else:
            with pytest.raises(ExactDivisionError):
                q_quotient(numerator, denominator)

    def test_empty_products(self):
        assert q_quotient([], []) == 1
        assert q_quotient((), (), "t").var == "t"
        assert q_quotient([3], []) == L({0: 1, 3: -1})
        assert q_quotient(range(1, 4), []) == one_minus_product([1, 2, 3])
        with pytest.raises(ExactDivisionError):
            q_quotient([], [1])

    def test_non_dividing_pair_raises(self):
        with pytest.raises(ExactDivisionError):
            q_quotient([2], [3])

    def test_generators_are_read_once(self):
        assert q_quotient((a for a in (2, 3)), (b for b in (1,))) == L({0: 1, 1: 1, 3: -1, 4: -1})

    def test_a_quotient_wider_than_the_first_digit(self):
        """(1 - q**8)**5 / (1 - q)**4 has a coefficient 280, past the first
        one-byte digit: at B = 2**8 the division is exact and decodes, but
        into wrapped digits, which the bound check must send to a wider B."""
        coefficients = q_quotient_coefficients([8] * 5, [1] * 4)
        assert coefficients == uncancelled_coefficients([8] * 5, [1] * 4)
        assert max(coefficients) == 280

    def test_a_divisor_short_of_a_factor_raises(self, monkeypatch):
        """_at_base without the divisor's factor (1 - q): (1 - q**2)(1 - q**3)
        still divides at every B, but its quotient has one degree too many,
        so no width passes the digit check, and the doubling stops at the
        width that would hold any quotient."""
        right = laurent._at_base
        monkeypatch.setattr(
            laurent, "_at_base", lambda e, bits: right([] if e == [1] else e, bits)
        )
        with pytest.raises(ExactDivisionError):
            q_quotient_coefficients([2, 3], [1])

    def test_bad_exponents_rejected_before_any_work(self, monkeypatch):
        def untouched(*args):
            raise AssertionError("division reached")

        monkeypatch.setattr(laurent, "_at_base", untouched)
        for bad, error in ((0, ValueError), (-2, ValueError), (True, TypeError), (2.0, TypeError)):
            with pytest.raises(error):
                q_quotient([10**6, bad], [1])
            with pytest.raises(error):
                q_quotient([10**6], [1, bad])
