"""Identification sequences: bounds, sampling, certificates, falsification."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizlab import witness
from quizlab.errors import ArityMismatchError, QuizlabError
from quizlab.families import easy_power_sum, univariate_d
from quizlab.identify import (
    IdentificationSequence,
    minimum_length,
    required_set_size,
    sample_sequence,
    verify_linear_span,
)
from quizlab.poly import monomials_of_degree
from quizlab.witness import RANK_PRIME
from conftest import falsify_random, naive_rank


def test_required_set_size_examples():
    assert required_set_size(2, 2, 4) == 125   # ceil(8 * sqrt(3) * 9)
    assert required_set_size(2, 1, 1) == 48    # exact: 8 * 2 * 3
    assert minimum_length(2) == 10


def test_required_set_size_float_crosscheck():
    # outward rounding should agree with the float value away from ties
    for delta, L, K in ((2, 2, 4), (3, 2, 5), (2, 3, 9), (4, 4, 2)):
        exact = required_set_size(delta, L, K)
        approx = delta ** 3 * (1 + L) ** (1.0 / L) * (1 + K * delta)
        assert exact == math.ceil(approx) or abs(exact - approx) < 1e-6
    with pytest.raises(QuizlabError):
        required_set_size(1, 1, 1)


def test_sample_sequence_determinism():
    a = sample_sequence(3, 5, 10, seed=42)
    b = sample_sequence(3, 5, 10, seed=42)
    assert a == b
    assert sample_sequence(3, 5, 10, seed=43) != a
    singleton = sample_sequence(1, 3, 1, seed=0)
    assert singleton.points == ((0,), (0,), (0,))
    assert all(0 <= x < 10 for p in a.points for x in p)


@pytest.mark.parametrize("n", [0, -1])
def test_sample_sequence_rejects_arity_below_1(n):
    with pytest.raises(QuizlabError, match=f"point arity n must be at least 1, got {n}"):
        sample_sequence(n, 2, 3, seed=0)


def test_verify_linear_span_examples():
    quad = ((0,), (1,), (2,))
    assert verify_linear_span([(0,), (1,), (2,)], quad)
    assert not verify_linear_span([(0,), (1,)], quad)
    assert not verify_linear_span([(5,), (5,), (5,)], ((0,), (1,)))


def test_verify_linear_span_rejects_mixed_arity():
    # Zipping a point with a monomial of another arity would silently drop
    # coordinates and certify a span that was never tested.
    cases = [
        ([(1,), (2,), (3,)], ((0, 0), (1, 1))),
        ([(1, 2), (3,)], ((0, 0), (1, 0))),
        ([(1, 2, 3), (4, 5, 6)], ((0,), (1,))),
        ([(1,)], ((0,), (1,), (2, 0))),
    ]
    for points, support in cases:
        with pytest.raises(ArityMismatchError):
            verify_linear_span(points, support)


def test_verify_linear_span_checks_arity_past_the_early_exit():
    # Two points already settle the support, but the 13th point is malformed.
    points = [(x,) for x in range(12)] + [(1, 2)]
    with pytest.raises(ArityMismatchError):
        verify_linear_span(points, ((0,), (1,)))


def _spy(monkeypatch, name):
    """Record each call of the witness function ``name``."""
    calls = []
    original = getattr(witness, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(witness, name, spy)
    return calls


def test_verify_linear_span_falls_back_when_short_mod_the_prime(monkeypatch):
    # Points congruent mod RANK_PRIME collapse the residue rows, not the rational ones.
    p = RANK_PRIME
    passes, eliminations = _spy(monkeypatch, "_rank_prime_field"), _spy(monkeypatch, "_bareiss")
    assert verify_linear_span([(0,), (1,)], ((0,), (1,)))
    assert (len(passes), len(eliminations)) == (1, 0)
    # A shortfall runs one Bareiss elimination, and no second pass mod p.
    for points, support, spanned in (
        ([(0,), (p,)], ((0,), (1,)), True),
        ([(1, 0), (1 + p, 0), (2, 1)], ((1, 0), (0, 0), (0, 1)), True),
        ([(0,), (p,), (0,)], ((0,), (1,), (2,)), False),
    ):
        passes.clear(), eliminations.clear()
        assert verify_linear_span(points, support) is spanned
        assert (len(passes), len(eliminations)) == (1, 1)


def test_verify_linear_span_builds_only_the_rows_it_needs(monkeypatch):
    built = _spy(monkeypatch, "monomial_values")
    support = monomials_of_degree(3, 3)
    points = [(x, x * x + 1, 7 * x ** 3 % 101) for x in range(258)]
    assert verify_linear_span(points, support)
    assert len(built) == len(support) == 10
    # A shortfall mod the prime reads every point before the exact fallback.
    built.clear()
    assert not verify_linear_span([(0,), (1,), (1,)], ((0,), (1,), (2,)))
    assert len(built) == 3


@st.composite
def span_cases(draw):
    """Points with integer or rational coordinates, some repeated, often
    fewer than the support, and a support of monomials of the same arity."""
    arity = draw(st.integers(1, 3))
    coordinate = st.one_of(
        st.integers(-6, 6), st.fractions(min_value=-4, max_value=4, max_denominator=5)
    )
    pool = draw(st.lists(st.tuples(*[coordinate] * arity), min_size=1, max_size=6))
    points = draw(st.lists(st.sampled_from(pool), max_size=12))
    support = draw(st.lists(st.tuples(*[st.integers(0, 3)] * arity), max_size=7, unique=True))
    return points, support


@settings(max_examples=300, deadline=None)
@given(span_cases())
def test_verify_linear_span_against_naive_rank(case):
    points, support = case
    rows = [
        [math.prod((Fraction(x) ** e for x, e in zip(point, mono)), start=Fraction(1))
         for mono in support]
        for point in points
    ]
    assert verify_linear_span(points, support) == (naive_rank(rows) == len(support))


def test_verify_monotone_in_points():
    support = ((0,), (1,), (2,))
    base = [(0,), (1,), (2,)]
    assert verify_linear_span(base, support)
    for extra in ((7,), (0,), (-3,)):
        assert verify_linear_span(base + [extra], support)


def test_falsify_unconstrained():
    result = falsify_random(
        IdentificationSequence.from_points([]),
        easy_power_sum(1, 1),
        easy_power_sum(1, 1),
        trials=50,
        seed=1,
    )
    assert result is not None
    u_a, u_b = result
    assert u_a != u_b


def test_falsify_identified_family():
    points = IdentificationSequence.from_points([(x,) for x in range(10)])
    result = falsify_random(
        points, univariate_d(2), univariate_d(2), trials=2000, seed=3
    )
    assert result is None  # degree <= 2 polynomials are fixed by 3 points


def test_certificate_implies_no_counterexample():
    # consistency across modules: a verified span admits no falsification
    desc = easy_power_sum(1, 1)  # expansions live in span(1, X)
    points = IdentificationSequence.from_points([(1,), (4,)])
    assert verify_linear_span(points, ((0,), (1,)))
    assert falsify_random(points, desc, desc, trials=1000, seed=9) is None


def test_sequence_serialization():
    seq = sample_sequence(2, 3, 7, seed=5)
    text = seq.to_text()
    assert text.startswith("idseq v1 n=2 m=3 set_size=7 seed=5")
    assert len(text.strip().split("\n")) == 4
