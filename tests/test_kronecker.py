"""Kronecker folds on diagonals, characteristic polynomials, and the diagonal identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quizlab import kronecker
from quizlab.errors import CapExceededError, QuizlabError
from quizlab.families import elimination_poly
from quizlab.kronecker import (
    SquareMatrix,
    build_theta_matrix,
    char_poly,
    kron_product,
    kron_sum,
    verify_lemma_identities,
    verify_lemma_trials,
)
from quizlab.poly import Polynomial
from conftest import cofactor_determinant, dense_kron_product, dense_kron_sum, random_fraction


def diag(*values):
    return SquareMatrix.diagonal([Fraction(v) for v in values])


def test_kron_product_examples():
    assert kron_product([1, 5], [1, 7]) == [1, 7, 5, 35]
    assert kron_product([1, 1], [1, 1]) == [1, 1, 1, 1]


def test_kron_sum_examples():
    assert kron_sum([0, 2], [0, 1]) == [0, 1, 2, 3]
    assert kron_sum([1, 2], [3, 4, 5]) == [4, 5, 6, 5, 6, 7]


diagonals = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=1, max_size=4
)


@settings(max_examples=100, deadline=None)
@given(diagonals, diagonals)
def test_kron_folds_against_dense_oracle(a, b):
    # The diagonal folds against the entry-by-entry Kronecker product and sum.
    dense_a, dense_b = SquareMatrix.diagonal(a).entries, SquareMatrix.diagonal(b).entries
    product = SquareMatrix.from_rows(dense_kron_product(dense_a, dense_b))
    assert SquareMatrix.diagonal(kron_product(a, b)) == product
    total = SquareMatrix.from_rows(dense_kron_sum(dense_a, dense_b))
    assert SquareMatrix.diagonal(kron_sum(a, b)) == total


def test_mixed_product_property(rng):
    # (A (x) B)(C (x) D) = AC (x) BD checks SquareMatrix.__matmul__.
    def kron(x, y):
        return SquareMatrix.from_rows(dense_kron_product(x.entries, y.entries))

    for _ in range(20):
        mats = [
            SquareMatrix.from_rows(
                [[random_fraction(rng) for _ in range(2)] for _ in range(2)]
            )
            for _ in range(4)
        ]
        a, b, c, d = mats
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def charpoly_by_cofactors(matrix: SquareMatrix) -> Polynomial:
    """det(Y * Id - A) via cofactor expansion over the polynomial ring."""
    n = matrix.dimension
    y = Polynomial.variable(1, 0)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = -Polynomial.constant(1, matrix.entries[i][j])
            if i == j:
                entry = entry + y
            row.append(entry)
        rows.append(row)
    return cofactor_determinant(rows)


def test_char_poly_examples():
    assert char_poly(diag(0, 1, 2, 3)) == charpoly_by_cofactors(diag(0, 1, 2, 3))
    y = Polynomial.variable(1, 0)
    one = Polynomial.constant(1, 1)
    assert char_poly(diag(1, 1)) == (y - one) * (y - one)
    theta, _ = build_theta_matrix(1, 1, [2])
    assert char_poly(theta) == (y - one) * (y - Polynomial.constant(1, 3))


def test_char_poly_against_cofactor_oracle(rng):
    for n in range(1, 6):
        for _ in range(6):
            m = SquareMatrix.from_rows(
                [[random_fraction(rng) for _ in range(n)] for _ in range(n)]
            )
            assert char_poly(m) == charpoly_by_cofactors(m)


def test_char_poly_roots_of_diagonal(rng):
    values = [Fraction(v) for v in (-3, 0, 2, 7)]
    cp = char_poly(SquareMatrix.diagonal(values))
    for v in values:
        assert cp.evaluate([v]) == 0


def test_build_theta_matrix_examples():
    theta, ops = build_theta_matrix(1, 1, [2])
    assert theta == diag(1, 3) and ops == 2
    theta, ops = build_theta_matrix(2, 0, [11, 13])
    assert theta == diag(0, 1, 2, 3) and ops == 4
    theta, _ = build_theta_matrix(2, 1, [1, 1])
    assert theta == diag(1, 2, 3, 4)
    with pytest.raises(CapExceededError):
        build_theta_matrix(9, 1, [1] * 9)


def test_theta_matrix_is_diagonal_by_inspection(rng):
    for k in (1, 2, 3):
        s = random_fraction(rng)
        u = [random_fraction(rng) for _ in range(k)]
        theta, ops = build_theta_matrix(k, s, u)
        assert ops == 2 * k
        assert all(
            x == 0
            for i, row in enumerate(theta.entries)
            for j, x in enumerate(row)
            if i != j
        )


def test_verify_lemma_identities(rng):
    assert verify_lemma_identities(1, 0, [5]) == (True, True, True)
    for k in (1, 2, 3, 4):
        for _ in range(5):
            s = random_fraction(rng)
            u = [random_fraction(rng) for _ in range(k)]
            assert verify_lemma_identities(k, s, u) == (True, True, True)


def test_verify_lemma_trials_draws_s_then_u_per_trial():
    rng = random.Random(7)
    expected = []
    for _ in range(4):
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
        expected.append(verify_lemma_identities(3, s, u))
    assert verify_lemma_trials(3, 4, 7) == expected == [(True, True, True)] * 4
    for trials in (0, -1):
        with pytest.raises(QuizlabError, match=f"need at least one trial, got {trials}"):
            verify_lemma_trials(3, trials, 7)


def test_verify_lemma_trials_checks_k_before_drawing(monkeypatch):
    # Each trial draws k coordinates, so an over-cap k must stop before the rng.
    monkeypatch.setattr(kronecker, "random", None)
    with pytest.raises(CapExceededError, match="k=6 exceeds 5"):
        verify_lemma_trials(6, 1, 0)


def test_charpoly_matches_elimination_poly(rng):
    for k in (1, 2, 3):
        for _ in range(5):
            s = random_fraction(rng)
            u = [random_fraction(rng) for _ in range(k)]
            theta, _ = build_theta_matrix(k, s, u)
            assert char_poly(theta) == elimination_poly(k, s, u)


@st.composite
def rational_matrices(draw):
    """Dense, generally non-diagonal square matrices of dimension 1..5 with
    mixed denominators and zero entries; sometimes the zero matrix."""
    n = draw(st.integers(1, 5))
    if draw(st.integers(0, 9)) == 0:
        return SquareMatrix.from_rows([[0] * n for _ in range(n)])
    entry = st.one_of(
        st.just(Fraction(0)),
        st.integers(-6, 6).map(Fraction),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
    )
    return SquareMatrix.from_rows(
        [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    )


@settings(max_examples=200, deadline=None)
@given(rational_matrices())
@example(SquareMatrix.from_rows([[Fraction(-7, 3)]]))
@example(SquareMatrix.from_rows([[0, 0], [0, 0]]))
@example(SquareMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 5), 0]]))
def test_char_poly_against_cofactors_on_random_matrices(matrix):
    # The integer-scaled Faddeev-LeVerrier route against the slow route.
    assert char_poly(matrix) == charpoly_by_cofactors(matrix)
