"""Sparse polynomial arithmetic, calculus and coefficient vectors."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from quizlab.errors import TermOutsideSupportError
from quizlab.exact import RATIONALS, LaurentRing, LaurentSeries
from quizlab.poly import (
    Polynomial,
    from_coeff_vector,
    monomials_below_degree,
    monomials_of_degree,
    multilinear_monomials,
    product_of_linear_roots,
    root_product_coefficients,
    sort_support,
)
from conftest import (
    GenericRationals,
    naive_laurent,
    naive_laurent_add,
    naive_laurent_mul,
    naive_laurent_neg,
    naive_laurent_scalar,
    naive_laurent_window,
    random_fraction,
    sparse_root_product,
    subset_root_product,
)


def poly1(*coeffs):
    """Univariate polynomial from ascending coefficients."""
    return Polynomial.make(
        1, {(i,): Fraction(c) for i, c in enumerate(coeffs) if c}
    )


def random_poly(rng, nvars=2, degree=3, terms=5):
    monos = monomials_below_degree(nvars, degree + 1)
    chosen = rng.sample(monos, min(terms, len(monos)))
    return Polynomial.make(nvars, {m: random_fraction(rng) for m in chosen})


def test_evaluate_examples():
    f = Polynomial.make(2, {(1, 0): Fraction(1), (0, 1): Fraction(2)})
    assert f.evaluate([Fraction(1), Fraction(1)]) == 3
    g = poly1(7, 14, 28)
    assert g.evaluate([Fraction(1)]) == 49
    rng = random.Random(1)
    for _ in range(10):
        h = random_poly(rng)
        assert h.evaluate([Fraction(0), Fraction(0)]) == h.coefficient((0, 0))


def test_evaluate_is_ring_homomorphism(rng):
    for _ in range(25):
        f, g = random_poly(rng), random_poly(rng)
        point = [random_fraction(rng) for _ in range(2)]
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_derivative_examples():
    assert poly1(7, 14, 28).derivative(0) == poly1(14, 56)
    assert poly1(5).derivative(0).is_zero()
    f = Polynomial.make(2, {(1, 1): Fraction(1)})
    assert f.derivative(1) == Polynomial.make(2, {(1, 0): Fraction(1)})


def test_leibniz_rule(rng):
    for _ in range(25):
        f, g = random_poly(rng), random_poly(rng)
        var = rng.randrange(2)
        lhs = (f * g).derivative(var)
        rhs = f.derivative(var) * g + f * g.derivative(var)
        assert lhs == rhs


def test_integral_examples(rng):
    assert poly1(1, 2).integral(0) == poly1(0, 1, 1)
    assert Polynomial.zero(1).integral(0).is_zero()
    for _ in range(20):
        f = random_poly(rng)
        var = rng.randrange(2)
        assert f.integral(var).derivative(var) == f


def test_coeff_vector_examples():
    support = ((0,), (1,), (2,))
    assert poly1(7, 14, 28).coeff_vector(support) == (7, 14, 28)
    assert Polynomial.zero(1).coeff_vector(support) == (0, 0, 0)
    with pytest.raises(TermOutsideSupportError) as info:
        poly1(0, 0, 0, 1).coeff_vector(((0,), (1,)))
    assert info.value.monomial == (3,)


def test_coeff_vector_roundtrip(rng):
    support = monomials_below_degree(2, 4)
    for _ in range(20):
        f = random_poly(rng)
        vec = f.coeff_vector(support)
        assert from_coeff_vector(support, vec, 2) == f


def test_support_orders():
    # graded lex: ascending degree, X1-major within a degree
    assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials_below_degree(1, 3) == ((0,), (1,), (2,))
    assert multilinear_monomials(2) == ((0, 0), (1, 0), (0, 1), (1, 1))
    assert sort_support([(0, 2), (2, 0), (1, 1)]) == ((2, 0), (1, 1), (0, 2))


def test_serialization_pairs():
    f = poly1(7, 0, 28)
    assert f.to_pairs() == [((0,), "7/1"), ((2,), "28/1")]


small_rationals = st.sampled_from([0, 1, -1]).map(Fraction) | st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)
# Exact Laurent roots with poles, and the same truncated at two terms.
laurent_roots = st.builds(
    LaurentSeries.from_pairs, st.lists(st.tuples(st.integers(-2, 2), small_rationals), max_size=3)
) | st.builds(
    lambda pairs: LaurentSeries.from_pairs(pairs).truncate(2),
    st.lists(st.tuples(st.integers(-2, 2), small_rationals), min_size=3, max_size=4),
)


def with_repeats(values):
    """Root lists drawn from a small pool, so roots repeat."""
    return st.lists(values, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=5)
    )


def assert_same_product(roots, ring):
    """The recurrence gives the sparse product's terms, in its term order."""
    got, ref = product_of_linear_roots(roots, ring), sparse_root_product(roots, ring)
    assert got == ref and list(got.terms) == list(ref.terms)
    return got


@given(with_repeats(small_rationals))
@example([])
@example([0, 0, Fraction(-1, 2), 3])
@example([Fraction(-2, 3)] * 3)
@example([Fraction(1, 6), Fraction(-1, 4), 0, Fraction(1, 6), -5])
@example([Fraction(-7, 9), Fraction(5, 12), Fraction(-7, 9), Fraction(0)])
def test_product_of_linear_roots_over_rationals(roots):
    got = assert_same_product(roots, RATIONALS)
    generic = product_of_linear_roots(roots, GenericRationals())
    assert got == generic and list(got.terms) == list(generic.terms)
    expected = subset_root_product(roots, Fraction(1), operator.add, operator.mul, operator.neg)
    assert [got.coefficient((k,)) for k in range(len(roots) + 1)] == expected
    assert all(type(c) is Fraction for c in got.terms.values())


@given(st.lists(st.integers(-1000, 1000), max_size=7) | with_repeats(st.integers(-3, 3)))
@example([])
@example([0, 0, -1, 3, 3])
def test_root_product_coefficients_keep_integer_roots_integer(roots):
    coeffs = root_product_coefficients(roots)
    assert all(type(c) is int for c in coeffs)
    assert coeffs == subset_root_product(roots, 1, operator.add, operator.mul, operator.neg)


@given(with_repeats(laurent_roots | st.just(LaurentSeries.zero())), st.integers(1, 3))
def test_product_of_linear_roots_over_laurent_series(roots, precision):
    """Each truncated coefficient agrees with the exact expansion below its bound."""
    ring = LaurentRing(precision)
    got = assert_same_product(roots, ring)
    exact = subset_root_product(
        [naive_laurent(r) for r in roots],
        naive_laurent_scalar(1),
        naive_laurent_add,
        naive_laurent_mul,
        naive_laurent_neg,
    )
    for k, (terms, _) in enumerate(exact):
        c = got.coefficient((k,))
        assert (c.low, c.coeffs, c.bound) == naive_laurent_window(terms, c.bound)


def test_product_of_linear_roots_truncates_at_low_precision():
    ring = LaurentRing(2)
    root = LaurentSeries.from_pairs([(-1, 1), (0, 2), (1, 3)]).truncate(2)
    roots = [root, LaurentSeries.zero(), root, LaurentSeries.from_pairs([(0, 1), (1, -1)])]
    got = assert_same_product(roots, ring)
    assert got.coefficient((4,)) == ring.one
    assert got.coefficient((0,)).is_zero()
    assert any(c.bound is not None for c in got.terms.values())
