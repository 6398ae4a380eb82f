"""Germ validation, encoding extraction, and the closure-membership demo."""

from fractions import Fraction

import pytest

from quizlab.approx import (
    GermInstance,
    border_demo_germ,
    border_family_circuit,
    closure_membership_demo,
    coefficient_distance,
    encode,
    image_nonmembership_certificate,
    sequence_from_germ,
    validate_instance,
)
from quizlab.errors import (
    ArityMismatchError,
    PrecisionUnderflowError,
    QuizlabError,
    UnsupportedDomainError,
)
from quizlab.exact import LaurentSeries
from quizlab.families import build_circuit, easy_power_sum, expand_family
from quizlab.poly import Polynomial


def test_validate_instance():
    germ = border_demo_germ()
    assert validate_instance(germ, border_family_circuit(2))
    assert validate_instance(GermInstance.constant((1, 2)), easy_power_sum(1, 1))
    with pytest.raises(ArityMismatchError):
        validate_instance(GermInstance.constant((1, 2)), easy_power_sum(1, 2))
    sentinel = LaurentSeries(low=0, coeffs=(), bound=0)
    assert not validate_instance(GermInstance.make([sentinel, 1, 1]), easy_power_sum(1, 2))
    with pytest.raises(UnsupportedDomainError):
        validate_instance(
            germ,
            border_family_circuit(2),
            domain_ideal=[Polynomial.make(3, {(1, 0, 0): Fraction(1)})],
        )


def test_encode_border_family():
    enc = encode(border_demo_germ(), border_family_circuit(2))
    assert enc.holomorphic
    assert enc.h == Polynomial.make(2, {(1, 1): Fraction(1)})
    assert enc.h_prime_leading == Polynomial.make(2, {(0, 2): Fraction(1, 2)})


def test_encode_constant_germ():
    desc = easy_power_sum(2, 2)
    point = (Fraction(3), Fraction(1), Fraction(-2))
    enc = encode(GermInstance.constant(point), desc)
    assert enc.holomorphic
    assert enc.h == expand_family(desc, point)
    assert enc.h_prime_leading.is_zero()


def test_encode_pole_detected():
    germ = GermInstance.make([LaurentSeries.monomial(1, -1), 1])
    enc = encode(germ, build_circuit(easy_power_sum(1, 1)))
    assert not enc.holomorphic
    assert enc.offending_monomial in ((0,), (1,))


def test_encode_precision_underflow_guidance():
    # u = 1 + e + e^2 at precision 1 truncates the X coefficient to
    # 1 + O(e), hiding the e^1 term the encoding must read
    germ = GermInstance.make([1, LaurentSeries.from_pairs([(0, 1), (1, 1), (2, 1)])])
    circ = build_circuit(easy_power_sum(1, 1))
    with pytest.raises(PrecisionUnderflowError) as info:
        encode(germ, circ, precision=1)
    assert "retry" in str(info.value)
    enc = encode(germ, circ, precision=8)
    assert enc.holomorphic
    assert enc.h == Polynomial.make(1, {(0,): Fraction(1), (1,): Fraction(1)})
    assert enc.h_prime_leading == Polynomial.make(1, {(1,): Fraction(1)})


@pytest.mark.parametrize("precision", [0, -3])
def test_encode_rejects_precision_below_1(precision):
    # Precision 0 used to fall back to the germ's precision silently.
    with pytest.raises(QuizlabError, match=f"got {precision}"):
        encode(border_demo_germ(), border_family_circuit(2), precision=precision)


def test_sequence_from_germ():
    germ = border_demo_germ()
    points = sequence_from_germ(germ, [Fraction(1, 2), Fraction(1, 4)])
    assert points == [
        (Fraction(1), Fraction(1), Fraction(1, 2)),
        (Fraction(2), Fraction(1), Fraction(1, 4)),
    ]
    constant = GermInstance.constant((5, 7))
    assert sequence_from_germ(constant, [Fraction(1, 3)]) == [(5, 7)]
    with pytest.raises(QuizlabError):
        sequence_from_germ(germ, [Fraction(0)])


def test_encode_consistent_with_substitution():
    # H + e * H' evaluated at e = 1/16 equals the family at u(1/16),
    # up to the e^2 tail (exactly e^2 / 4 * X2^0 terms here)
    germ = border_demo_germ()
    circ = border_family_circuit(2)
    enc = encode(germ, circ)
    eps = Fraction(1, 16)
    truncated = enc.h + enc.h_prime_leading.scale(eps)
    exact_point = sequence_from_germ(germ, [eps])[0]
    full = circ.expand(exact_point)
    assert coefficient_distance(full, truncated) == 0


def test_nonmembership_certificate_border():
    circ = border_family_circuit(2)
    target = Polynomial.make(2, {(1, 1): Fraction(1)})
    assert image_nonmembership_certificate(circ, target) is True
    # a point of the actual image has no certificate
    reachable = circ.expand((1, 1, 1))
    assert image_nonmembership_certificate(circ, reachable) is None


def test_closure_demo_border():
    germ = border_demo_germ()
    target = Polynomial.make(2, {(1, 1): Fraction(1)})
    report = closure_membership_demo(border_family_circuit(2), target, germ)
    assert report.distances_decreasing
    assert report.nonmembership_certified is True
    # distances halve geometrically: eps / 2 is the X2^2 coefficient
    assert report.distances[0] == Fraction(1, 4)
    for first, second in zip(report.distances, report.distances[1:]):
        assert second == first / 2
    text = report.to_text()
    assert "certified" in text


@pytest.mark.parametrize("depth", [0, -1])
def test_closure_demo_rejects_depth_below_1(depth):
    # With no sample there is no distance, so nothing is decreasing or certified.
    target = Polynomial.make(2, {(1, 1): Fraction(1)})
    with pytest.raises(QuizlabError, match=f"got {depth}"):
        closure_membership_demo(border_family_circuit(2), target, border_demo_germ(), depth)
    report = closure_membership_demo(border_family_circuit(2), target, border_demo_germ(), 1)
    assert report.distances == (Fraction(1, 4),)


def test_closure_demo_constant_germ():
    desc = easy_power_sum(1, 1)
    point = (Fraction(2), Fraction(3))
    germ = GermInstance.constant(point)
    target = expand_family(desc, point)
    report = closure_membership_demo(desc, target, germ)
    assert all(d == 0 for d in report.distances)


def test_closure_demo_scaling_germ():
    # germ t = e at fixed direction: distances are ||theta(1, u)|| * 2^-k
    desc = easy_power_sum(1, 2)
    germ = GermInstance.make([LaurentSeries.epsilon(), 3, 4])
    target = Polynomial.zero(2)
    report = closure_membership_demo(desc, target, germ)
    norm = coefficient_distance(expand_family(desc, (1, 3, 4)), target)
    for k, distance in enumerate(report.distances, start=1):
        assert distance == norm * Fraction(1, 2 ** k)


def test_closure_demo_rejects_wrong_target():
    germ = border_demo_germ()
    with pytest.raises(QuizlabError):
        closure_membership_demo(
            border_family_circuit(2), Polynomial.zero(2), germ
        )
