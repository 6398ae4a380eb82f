"""Scalar backends: rationals and truncated Laurent series, and the prime-field
helpers of the modular rank certificate."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quizlab.errors import (
    CapExceededError,
    NoSuchRootError,
    NotHolomorphicAtOriginError,
    PrecisionUnderflowError,
)
from quizlab.exact import (
    PRINT_DIGITS_CAP,
    LaurentRing,
    LaurentSeries,
    cleared_series,
    laurent_limit,
    modular_root_of_unity,
    multiplicative_order,
    printable,
    rational_from_str,
    rational_to_str,
    smallest_prime_modulus,
    substitute_cleared,
    window_truncate,
)
from conftest import (
    naive_laurent,
    naive_laurent_add,
    naive_laurent_mul,
    naive_laurent_neg,
    naive_laurent_truncate,
    naive_laurent_value,
    naive_laurent_window,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a and a * b == b * a
    assert a * (b + c) == a * b + a * c
    # Fractions are always reduced with positive denominator
    from math import gcd

    assert gcd(a.numerator, a.denominator) == 1 and a.denominator > 0


def test_rational_string_codec():
    q = Fraction(-14, 6)
    assert rational_to_str(q) == "-7/3"
    assert rational_from_str("-7/3") == q
    assert rational_from_str("5") == Fraction(5)


@pytest.mark.parametrize("sign", [1, -1])
def test_numbers_print_up_to_the_print_cap(sign):
    # The widest printable numerator or denominator prints as str always
    # did; one more digit is a cap, whatever Python's own limit is set to.
    widest = sign * (10 ** PRINT_DIGITS_CAP - 1)
    for q in (Fraction(widest, 7), Fraction(7, abs(widest))):
        assert rational_to_str(q) == f"{q.numerator}/{q.denominator}"
        assert str(LaurentSeries.from_rational(q)) == str(q)
    assert printable(widest) is widest
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for digits in (PRINT_DIGITS_CAP + 1, 2 * PRINT_DIGITS_CAP + 9):
            for q in (Fraction(sign * 10 ** (digits - 1), 7), Fraction(7, 10 ** digits - 1)):
                message = f"print cap: digits={digits} exceeds {PRINT_DIGITS_CAP}; no override"
                for show in (rational_to_str, lambda q: str(LaurentSeries.monomial(q, 2))):
                    with pytest.raises(CapExceededError, match=f"^{message}$"):
                        show(q)
    finally:
        sys.set_int_max_str_digits(limit)


def eps(exp=1, coeff=1):
    return LaurentSeries.monomial(coeff, exp)


def test_laurent_telescoping_product():
    a = eps(-1) + LaurentSeries.from_rational(1)  # e^-1 + 1
    assert LaurentRing().mul(a, eps(1)) == LaurentSeries.from_pairs([(0, 1), (1, 1)])


def test_laurent_cancellation_sum():
    a = LaurentSeries.from_pairs([(0, 1), (1, 1)])
    b = LaurentSeries.from_pairs([(0, 1), (1, -1)])
    assert LaurentRing().add(a, b) == LaurentSeries.from_rational(2)


@pytest.mark.parametrize("precision", [1, 2])
def test_laurent_ring_truncates_every_sum_difference_and_product(precision):
    ring = LaurentRing(precision)
    operands = [
        LaurentSeries.from_pairs([(0, 1), (2, 1)]),
        LaurentSeries.from_pairs([(2, -1)]),
        LaurentSeries.from_pairs([(-1, 2), (0, 1), (1, 3)]),
        LaurentSeries(0, (Fraction(1), Fraction(2)), 2),
        LaurentSeries.from_rational(Fraction(1, 3)),
    ]
    for a in operands:
        for b in operands:
            for op, exact in ((ring.add, a + b), (ring.sub, a - b), (ring.mul, a * b)):
                assert op(a, b) == LaurentSeries(*window_truncate(exact.window, precision))
    # A value the ring has cut stays cut: (1 + e^2) + (-e^2) is 1 + O(e^precision).
    cut = ring.add(LaurentSeries.from_rational(1), eps(2))
    assert ring.add(cut, eps(2, -1)) == LaurentSeries(0, (Fraction(1),), precision)


def test_laurent_monomial_product():
    half_over_eps = eps(-1, Fraction(1, 2))
    two_eps_sq = eps(2, 2)
    assert LaurentRing().mul(half_over_eps, two_eps_sq) == eps(1)


def test_laurent_limit_examples():
    assert laurent_limit(LaurentSeries.from_pairs([(0, 3), (1, 2)])) == 3
    assert laurent_limit(LaurentSeries.zero()) == 0
    with pytest.raises(NotHolomorphicAtOriginError):
        laurent_limit(LaurentSeries.from_pairs([(-1, 1), (0, 1)]))


def test_laurent_limit_ignores_higher_terms():
    rng = random.Random(7)
    for _ in range(50):
        a = LaurentSeries.from_pairs(
            [(k, Fraction(rng.randint(-5, 5))) for k in range(0, 4)]
        )
        b = LaurentSeries.from_pairs(
            [(k, Fraction(rng.randint(-5, 5))) for k in range(0, 4)]
        )
        assert laurent_limit(a + eps(1) * b) == laurent_limit(a)


def test_laurent_truncation_tracks_bound():
    long_series = LaurentSeries.from_pairs([(k, 1) for k in range(12)])
    t = long_series.truncate(8)
    assert t.bound == 8
    assert t.coefficient(7) == 1
    with pytest.raises(PrecisionUnderflowError):
        t.coefficient(9)


def test_cleared_series_substitution():
    s = LaurentSeries.from_pairs([(-1, Fraction(1, 2)), (1, 3)])
    assert substitute_cleared(cleared_series(s), 1, 2) == 1 + Fraction(3, 2)
    assert naive_laurent_value(s, Fraction(1, 2)) == 1 + Fraction(3, 2)
    for p, q in ((-3, 4), (5, 1), (1, 7)):
        assert substitute_cleared(cleared_series(s), p, q) == naive_laurent_value(s, Fraction(p, q))


def test_laurent_pair_serialization_roundtrip():
    pairs = [(-2, Fraction(5, 3)), (0, Fraction(-1)), (3, Fraction(7))]
    s = LaurentSeries.from_pairs(pairs)
    assert s.to_pairs() == pairs
    assert LaurentSeries.from_pairs(s.to_pairs()) == s


small_rationals = st.sampled_from([0, 0, 1, -1]).map(Fraction) | st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


@st.composite
def laurent_series(draw):
    """Exact zero, exact and truncated windows (interior zeros, negative
    low), and all-cancelled truncated windows, each stored canonically."""
    low = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(small_rationals, max_size=5))
    bound = draw(st.none() | st.integers(0, 3).map(lambda k: low + len(coeffs) + k))
    terms = {low + i: c for i, c in enumerate(coeffs) if c}
    return LaurentSeries(*naive_laurent_window(terms, bound))


def assert_laurent(series, expected):
    """Same window, bound and coefficient values, every coefficient a Fraction."""
    assert (series.low, series.coeffs, series.bound) == naive_laurent_window(*expected)
    assert all(type(c) is Fraction for c in series.coeffs)


@given(laurent_series(), laurent_series())
def test_laurent_arithmetic_against_naive_oracle(a, b):
    na, nb = naive_laurent(a), naive_laurent(b)
    assert_laurent(a + b, naive_laurent_add(na, nb))
    assert_laurent(a - b, naive_laurent_add(na, naive_laurent_neg(nb)))
    assert_laurent(-a, naive_laurent_neg(na))
    assert_laurent(a * b, naive_laurent_mul(na, nb))


@given(st.integers(-4, 4), st.integers(-4, 4), laurent_series())
def test_all_cancelled_window_is_ordered_by_its_bound(low, bound, b):
    # A window with no stored coefficient is zero below its bound, whatever
    # low it stores, so a product takes the bound as its order.
    a = LaurentSeries(low, (), bound)
    expected = naive_laurent_mul(({}, bound), naive_laurent(b))
    assert_laurent(a * b, expected)
    assert_laurent(b * a, expected)


@given(laurent_series(), st.integers(1, 6))
def test_laurent_truncate_against_naive_oracle(a, precision):
    assert_laurent(a.truncate(precision), naive_laurent_truncate(naive_laurent(a), precision))


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-3, 3) | small_rationals), max_size=8))
def test_laurent_from_pairs_against_naive_oracle(pairs):
    terms = {}
    for exp, q in pairs:
        terms[exp] = terms.get(exp, Fraction(0)) + Fraction(q)
    assert_laurent(LaurentSeries.from_pairs(pairs), (terms, None))


def test_modular_root_of_unity_examples():
    assert modular_root_of_unity(5, 4) == 2
    assert modular_root_of_unity(7, 1) == 1
    with pytest.raises(NoSuchRootError):
        modular_root_of_unity(5, 3)
    assert [multiplicative_order(a, 7) for a in range(1, 7)] == [1, 3, 6, 3, 6, 2]
    with pytest.raises(ValueError):
        multiplicative_order(7, 7)


def _first_root_by_multiplication(p, d):
    """The first a^((p-1)/d), over bases a = 2, 3, ..., of order exactly d mod p,
    with the power and its order both found by repeated multiplication."""
    for a in range(2, p):
        power = 1
        for _ in range((p - 1) // d):
            power = power * a % p
        order, acc = 1, power
        while acc != 1:
            acc = acc * power % p
            order += 1
        if order == d:
            return power
    raise AssertionError(f"no element of order {d} mod {p}")


def test_modular_root_exhaustive_oracle():
    # Every order the univariate-d desk cap allows: d = D + 1 for D = 0..64.
    for d in range(1, 66):
        p = smallest_prime_modulus(d)
        assert modular_root_of_unity(p, d) == _first_root_by_multiplication(p, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 12, 31])
def test_root_order_property(d):
    p = smallest_prime_modulus(d)
    assert p > 2 * d and (p - 1) % d == 0
    root = modular_root_of_unity(p, d)
    assert 0 < root < p and pow(root, d, p) == 1
    for q in range(1, d):
        if d % q == 0:
            assert pow(root, q, p) != 1
