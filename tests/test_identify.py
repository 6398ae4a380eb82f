"""Identification sequences: bounds, sampling, certificates, falsification."""

import math

import pytest

from quizlab.errors import ArityMismatchError, QuizlabError
from quizlab.families import easy_power_sum, univariate_d
from quizlab.identify import (
    IdentificationSequence,
    falsify_random,
    minimum_length,
    required_set_size,
    sample_sequence,
    verify_linear_span,
)


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
