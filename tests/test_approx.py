"""Germ validation, encoding extraction, and the closure-membership demo."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quizlab import exact
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
)
from quizlab.exact import LaurentSeries
from quizlab.families import build_circuit, easy_power_sum, expand_family, univariate_d
from quizlab.poly import Polynomial
from conftest import naive_laurent_value


def test_validate_instance():
    germ = border_demo_germ()
    assert validate_instance(germ, border_family_circuit(2))
    assert validate_instance(GermInstance.constant((1, 2)), easy_power_sum(1, 1))
    with pytest.raises(ArityMismatchError):
        validate_instance(GermInstance.constant((1, 2)), easy_power_sum(1, 2))
    sentinel = LaurentSeries(low=0, coeffs=(), bound=0)
    assert not validate_instance(GermInstance.make([sentinel, 1, 1]), easy_power_sum(1, 2))


# A truncated zero carries no known term at any precision: encode refuses
# it by name instead of encoding h = -1 or asking for more precision.
@pytest.mark.parametrize("zero", [LaurentSeries(3, (), 3), LaurentSeries(0, (), 0)])
def test_encode_refuses_a_germ_that_validate_instance_refuses(zero):
    desc = univariate_d(2)
    germ = GermInstance.make([zero])
    assert not validate_instance(germ, desc)
    with pytest.raises(QuizlabError, match="germ component 1 is a truncated zero") as info:
        encode(germ, desc)
    assert not isinstance(info.value, PrecisionUnderflowError)


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


# Germ components with negative, zero and positive orders, their
# coefficients often with large denominators, and nonzero samples of either
# sign.
germ_terms = st.dictionaries(
    st.integers(-6, 6),
    st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6),
    max_size=5,
)
nonzero_eps = st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 4).filter(bool)


@settings(max_examples=100, deadline=None)
@given(st.lists(germ_terms, min_size=1, max_size=3), st.lists(nonzero_eps, max_size=5))
@example([{-3: Fraction(1, 6), 2: Fraction(-5, 4)}, {}], [Fraction(-2, 3), Fraction(1, 1024)])
@example([{-2: Fraction(3)}, {0: Fraction(1, 3), 1: Fraction(2, 3)}], [Fraction(-1)])
def test_germ_substitution_matches_the_fraction_sum(components, eps_values):
    germ = GermInstance.make([LaurentSeries.from_pairs(terms.items()) for terms in components])
    expected = [
        tuple(naive_laurent_value(comp, eps) for comp in germ.components) for eps in eps_values
    ]
    got = sequence_from_germ(germ, eps_values)
    assert got == expected
    assert all(type(x) is Fraction for point in got for x in point)


def test_germ_substitution_errors():
    pole = LaurentSeries.from_pairs([(-1, 2), (0, 1)])
    truncated = LaurentSeries(0, (Fraction(1), Fraction(1, 2)), 2)
    germ = GermInstance.make([pole, truncated])
    # e = 0 is refused before any component is read, and a truncated
    # component has no value at any sample.
    with pytest.raises(QuizlabError, match="^epsilon = 0 is the excluded origin"):
        sequence_from_germ(germ, [Fraction(0), Fraction(1, 2)])
    with pytest.raises(PrecisionUnderflowError, match="^cannot substitute into a truncated"):
        sequence_from_germ(germ, [Fraction(-1, 2), Fraction(0)])
    assert sequence_from_germ(germ, []) == []


def test_germ_substitution_makes_one_fraction_per_component_and_sample(monkeypatch):
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    germ = GermInstance.make(
        [LaurentSeries.from_pairs([(-2, Fraction(1, 3)), (1, 5)]), 7, LaurentSeries.epsilon()]
    )
    schedule = [Fraction(1, 2 ** k) for k in range(1, 9)]
    expected = sequence_from_germ(germ, schedule)
    monkeypatch.setattr(exact, "Fraction", counting)
    assert sequence_from_germ(germ, schedule) == expected
    assert len(made) == len(schedule) * germ.arity


def test_encode_consistent_with_substitution():
    # H + e * H' evaluated at e = 1/16 equals the family at u(1/16),
    # up to the e^2 tail (exactly e^2 / 4 * X2^0 terms here)
    germ = border_demo_germ()
    circ = border_family_circuit(2)
    enc = encode(germ, circ)
    eps = Fraction(1, 16)
    truncated = enc.h + enc.h_prime_leading * Polynomial.constant(2, eps)
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
    report = closure_membership_demo(border_family_circuit(2), germ)
    assert report.encoded == Polynomial.make(2, {(1, 1): Fraction(1)})
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
    with pytest.raises(QuizlabError, match=f"got {depth}"):
        closure_membership_demo(border_family_circuit(2), border_demo_germ(), depth)
    report = closure_membership_demo(border_family_circuit(2), border_demo_germ(), 1)
    assert report.distances == (Fraction(1, 4),)


def test_closure_demo_constant_germ():
    desc = easy_power_sum(1, 1)
    point = (Fraction(2), Fraction(3))
    germ = GermInstance.constant(point)
    report = closure_membership_demo(desc, germ)
    assert report.encoded == expand_family(desc, point)
    assert all(d == 0 for d in report.distances)


def test_closure_demo_scaling_germ():
    # germ t = e at fixed direction: distances are ||theta(1, u)|| * 2^-k
    desc = easy_power_sum(1, 2)
    germ = GermInstance.make([LaurentSeries.epsilon(), 3, 4])
    target = Polynomial.zero(2)
    report = closure_membership_demo(desc, germ)
    assert report.encoded == target
    norm = coefficient_distance(expand_family(desc, (1, 3, 4)), target)
    for k, distance in enumerate(report.distances, start=1):
        assert distance == norm * Fraction(1, 2 ** k)


def test_closure_demo_rejects_a_germ_that_encodes_no_polynomial():
    # (1/e, 1, 1) leaves a pole in every coefficient of the border family.
    germ = GermInstance.make([LaurentSeries.monomial(1, -1), 1, 1])
    with pytest.raises(QuizlabError, match="^germ does not encode a polynomial$"):
        closure_membership_demo(border_family_circuit(2), germ)
