"""Quiz-game rounds: exact, approximative, fibers, information hiding."""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quizlab import protocol
from quizlab.approx import GermInstance, border_demo_germ, border_family_circuit, encode
from quizlab.errors import (
    ArityMismatchError,
    InconsistentSystemError,
    NoFiberSamplerError,
    NonIdentifyingPointsError,
    NoStableClusterError,
    NotHolomorphicAtOriginError,
    QuizlabError,
    UnderdeterminedSystemError,
)
from quizlab.exact import LaurentSeries
from quizlab.families import (
    TASK_CHARPOLY,
    TASK_DERIVATIVE,
    TASK_ELIMINATION,
    TASK_INTEGRAL,
    easy_power_sum,
    expand_family,
    hypercube_shift,
    kronecker_diag,
    neural_power,
    univariate_d,
)
from quizlab.identify import IdentificationSequence
from quizlab.poly import Polynomial, monomials_below_degree
from quizlab.protocol import (
    MODE_NUMERIC,
    MODE_SYMBOLIC,
    ApproxGameConfig,
    Strategy,
    builtin_strategy,
    decide_equal,
    fiber_image,
    run_approx,
    run_exact,
    symmetric_integer_points,
)
from quizlab.witness import spans
from conftest import lagrange_interpolate, naive_coefficient_gap, random_fraction


def border_strategy() -> Strategy:
    return Strategy(
        question_points=IdentificationSequence.from_points([(1, 0), (0, 1), (1, 1)]),
        target_support=((2, 0), (1, 1), (0, 2)),
    )


def test_pinned_transcript_d2_t2():
    transcript = run_exact(univariate_d(2), [2])
    assert transcript.strategy_points == ((0,), (1,), (-1,))
    assert transcript.quizmaster_message == ("7/1", "49/1", "21/1")
    assert transcript.player_message == ("7/1", "14/1", "28/1")
    assert transcript.verdict == "accept"


TRANSCRIPTS = Path(__file__).parent / "transcripts"


@pytest.mark.parametrize(
    "name, desc, hidden",
    [
        ("exact_univariate_d16_integral.txt", univariate_d(16, TASK_INTEGRAL), [Fraction(-5, 7)]),
        (
            "exact_hypercube_shift3_elimination.txt",
            hypercube_shift(3, TASK_ELIMINATION),
            [Fraction(2, 3), Fraction(-1, 2), Fraction(5), Fraction(-7, 4)],
        ),
    ],
)
def test_exact_transcript_bytes_are_pinned(name, desc, hidden):
    transcript = run_exact(desc, hidden, strategy=builtin_strategy(desc, seed=0))
    assert transcript.export(include_hidden=True).encode() == (TRANSCRIPTS / name).read_bytes()


@pytest.mark.parametrize("mode", [MODE_SYMBOLIC, MODE_NUMERIC])
def test_border_approx_transcript_bytes_are_pinned(mode):
    circ = border_family_circuit(2)
    germ = border_demo_germ()
    config = ApproxGameConfig(
        germ=germ,
        mode=mode,
        sample_schedule=tuple(Fraction(1, 2 ** k) for k in range(1, 13)),
        cluster_tolerance=Fraction(1, 64),
    )
    transcript = run_approx(circ, border_strategy(), config, encode(germ, circ).h)
    expected = (TRANSCRIPTS / f"approx_border_{mode}.txt").read_bytes()
    assert transcript.export().encode() == expected


def _germ(constants, slopes):
    """The germ with components c + a*e."""
    return GermInstance.make(
        [LaurentSeries.from_pairs([(0, c), (1, a)]) for c, a in zip(constants, slopes)]
    )


F = Fraction
# One exact round for every family and task of the benchmark's exact set, and
# one symbolic round with a moving germ for each of its symbolic families.
PINNED_EXACT = [
    ("exact_univariate_d16.txt", univariate_d(16), [F(-3, 4)]),
    ("exact_univariate_d16_derivative.txt", univariate_d(16, TASK_DERIVATIVE), [F(5, 3)]),
    ("exact_univariate_d16_integral_2.txt", univariate_d(16, TASK_INTEGRAL), [F(7, 9)]),
    ("exact_easy_power_sum_l2_n2.txt", easy_power_sum(2, 2), [F(2, 5), F(-1, 3), F(4)]),
    ("exact_neural_power3.txt", neural_power(3), [F(-6, 7), F(1, 2), F(3), F(-2, 9)]),
    (
        "exact_hypercube_shift3_elimination_2.txt",
        hypercube_shift(3, TASK_ELIMINATION),
        [F(-1, 6), F(3, 2), F(-4), F(5, 8)],
    ),
    (
        "exact_kronecker_diag3_charpoly.txt",
        kronecker_diag(3, TASK_CHARPOLY),
        [F(3, 7), F(-2), F(1, 5), F(9, 4)],
    ),
]
PINNED_SYMBOLIC = [
    ("symbolic_univariate_d8.txt", univariate_d(8), [F(-2, 3)], [F(1, 2)]),
    (
        "symbolic_easy_power_sum_l2_n2.txt",
        easy_power_sum(2, 2),
        [F(3, 4), F(-1), F(2, 7)],
        [F(-1, 3), F(2), F(0)],
    ),
    (
        "symbolic_hypercube_shift2_elimination.txt",
        hypercube_shift(2, TASK_ELIMINATION),
        [F(5, 2), F(-3, 8), F(6)],
        [F(1), F(0), F(-5, 4)],
    ),
]


@pytest.mark.parametrize("name, desc, hidden", PINNED_EXACT)
def test_benchmark_exact_transcripts_are_pinned(name, desc, hidden):
    transcript = run_exact(desc, hidden, strategy=builtin_strategy(desc, seed=0))
    assert transcript.export(include_hidden=True).encode() == (TRANSCRIPTS / name).read_bytes()


@pytest.mark.parametrize("name, desc, constants, slopes", PINNED_SYMBOLIC)
def test_benchmark_symbolic_transcripts_are_pinned(name, desc, constants, slopes):
    config = ApproxGameConfig(germ=_germ(constants, slopes), mode=MODE_SYMBOLIC)
    target = expand_family(desc.base(), constants)
    transcript = run_approx(desc, builtin_strategy(desc, seed=0), config, target)
    assert transcript.export().encode() == (TRANSCRIPTS / name).read_bytes()


def test_transcript_matches_lagrange_oracle():
    # independent route: Lagrange interpolation at the same points
    values = [Fraction(7), Fraction(49), Fraction(21)]
    coeffs = lagrange_interpolate([0, 1, -1], values)
    assert coeffs == [Fraction(7), Fraction(14), Fraction(28)]


def test_zero_family_round():
    transcript = run_exact(univariate_d(2), [1])
    assert transcript.quizmaster_message == ("0/1", "0/1", "0/1")
    assert transcript.player_message == ("0/1", "0/1", "0/1")
    assert transcript.verdict == "accept"


def test_derivative_round():
    transcript = run_exact(univariate_d(2, TASK_DERIVATIVE), [2])
    assert transcript.player_message == ("14/1", "56/1")
    assert transcript.verdict == "accept"


def test_decide_equal_examples():
    support = ((0,), (1,), (2,), (3,))
    zero = ((0,),), (Fraction(0),)
    theta_at_one = support, expand_family(univariate_d(3), [1]).coeff_vector(support)
    assert decide_equal(theta_at_one, zero)
    a = (((0,), (1,)), (Fraction(1), Fraction(2)))
    b = (((1,), (0,)), (Fraction(2), Fraction(1)))  # same polynomial, permuted
    assert decide_equal(a, b)
    x = (((1,),), (Fraction(1),))
    x_squared = (((2,),), (Fraction(1),))
    assert not decide_equal(x, x_squared)
    # a tolerance bound is inclusive
    third, half = (((0,),), (Fraction(1, 3),)), (((0,),), (Fraction(1, 2),))
    assert decide_equal(third, half, tolerance=Fraction(1, 6))
    assert not decide_equal(third, half, tolerance=Fraction(1, 7))


def naive_decide_equal(f_enc, g_enc, tolerance=None) -> bool:
    return naive_coefficient_gap(f_enc, g_enc) <= (tolerance or 0)


def test_decide_equal_matches_naive_oracle():
    square = (((2, 0), (1, 1), (0, 0)), (Fraction(1, 2), Fraction(-3), Fraction(7, 4)))
    permuted = (((0, 0), (2, 0), (1, 1)), (Fraction(7, 4), Fraction(1, 2), Fraction(-3)))
    nudged = (square[0], (Fraction(1, 2), Fraction(-3), Fraction(7, 4) + Fraction(1, 100)))
    extended = ((*square[0], (0, 2)), (*square[1], Fraction(1)))
    cases = [
        (square, nudged, None, False),  # same support
        (square, permuted, None, True),  # different supports
        (square, nudged, Fraction(1, 100), True),  # tolerance, inclusive
        (square, nudged, Fraction(1, 101), False),
        (square, extended, Fraction(1, 64), False),  # a monomial of g alone
    ]
    for f_enc, g_enc, tolerance, expected in cases:
        assert naive_decide_equal(f_enc, g_enc, tolerance) == expected
        assert decide_equal(f_enc, g_enc, tolerance) == expected


def test_decide_equal_tolerance_is_per_coefficient():
    # Within 1/64 in every coefficient of a degree-4 encoding, but off by
    # (1 + 4 + 16 + 64 + 256)/64 at Y = 4: accepted.
    support = tuple([(j,) for j in range(5)])
    reference = support, (Fraction(3), Fraction(-11), Fraction(51, 4), Fraction(-6), Fraction(1))
    tolerance = Fraction(1, 64)
    shifted = support, tuple([c + tolerance for c in reference[1]])
    at_four = [sum(c * 4 ** j for j, c in enumerate(enc[1])) for enc in (reference, shifted)]
    assert at_four[1] - at_four[0] == Fraction(341, 64)
    assert decide_equal(shifted, reference, tolerance)
    # One coefficient over the tolerance is rejected.
    over = support, (*shifted[1][:4], reference[1][4] + tolerance + Fraction(1, 2 ** 20))
    assert not decide_equal(over, reference, tolerance)
    assert not decide_equal(reference, over, tolerance)


def test_numeric_round_reads_the_tolerance_per_coefficient():
    # The dominant cluster lies within 1/64 of the reference in every
    # coefficient; the largest error is 15877/1048576, at Y.
    desc = kronecker_diag(2, TASK_CHARPOLY)
    germ = _germ([F(1, 2), 2, -1], [0, 0, 1])
    config = ApproxGameConfig(
        germ=germ,
        mode=MODE_NUMERIC,
        sample_schedule=tuple(Fraction(1, 2 ** k) for k in range(1, 13)),
        cluster_tolerance=Fraction(1, 64),
    )
    transcript = run_approx(desc, None, config, encode(germ, desc).h)
    errors = [
        abs(Fraction(p) - Fraction(r))
        for p, r in zip(transcript.player_message, transcript.reference)
    ]
    assert max(errors) == errors[1] == Fraction(15877, 1048576)
    assert transcript.verdict == "accept"


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def verdict_cases(draw):
    """Two encodings of one polynomial (permuted, padded with zeros), or of
    two polynomials that differ by a small or a free perturbation, with an
    optional tolerance."""
    nvars = draw(st.integers(1, 2))
    monos = monomials_below_degree(nvars, 4)
    support = draw(st.lists(st.sampled_from(monos), unique=True, max_size=6))
    coeffs = draw(st.lists(small_fractions, min_size=len(support), max_size=len(support)))
    terms = list(zip(support, coeffs))
    kind = draw(st.sampled_from(["equal", "perturbed", "free"]))
    if kind == "equal":
        other = draw(st.permutations(terms))
        spare = [m for m in monos if m not in support]
        if spare and draw(st.booleans()):
            other.append((draw(st.sampled_from(spare)), Fraction(0)))
    elif kind == "perturbed" and terms:
        other = list(terms)
        i = draw(st.integers(0, len(terms) - 1))
        delta = draw(st.fractions(min_value=-1, max_value=1, max_denominator=200))
        other[i] = (terms[i][0], terms[i][1] + delta)
    else:
        free = draw(st.lists(st.sampled_from(monos), unique=True, max_size=6))
        other = [(m, draw(small_fractions)) for m in free]
    tolerance = draw(st.none() | st.fractions(min_value=0, max_value=1, max_denominator=64))
    f_enc = tuple(support), tuple(coeffs)
    g_enc = tuple(m for m, _ in other), tuple(c for _, c in other)
    return f_enc, g_enc, tolerance


@settings(max_examples=400, deadline=None)
@given(verdict_cases())
def test_verdict_matches_naive_coefficient_oracle(case):
    f_enc, g_enc, tolerance = case
    expected = naive_decide_equal(f_enc, g_enc, tolerance)
    assert decide_equal(f_enc, g_enc, tolerance) == expected
    assert decide_equal(g_enc, f_enc, tolerance) == expected


def test_strategy_compiles_its_system_once(monkeypatch, rng):
    compiled = []
    compile_questions = protocol.compile_questions

    def counting_compile(points, support):
        compiled.append((points, support))
        return compile_questions(points, support)

    monkeypatch.setattr(protocol, "compile_questions", counting_compile)
    desc = hypercube_shift(2, TASK_ELIMINATION)
    strategy = builtin_strategy(desc, seed=1)
    assert compiled == []
    for _ in range(4):
        hidden = [random_fraction(rng) for _ in range(desc.param_arity)]
        assert run_exact(desc, hidden, strategy=strategy).verdict == "accept"
        target = expand_family(desc.base(), hidden)
        for mode in (MODE_SYMBOLIC, MODE_NUMERIC):
            config = ApproxGameConfig(
                germ=GermInstance.constant(hidden),
                mode=mode,
                sample_schedule=tuple(Fraction(1, 2 ** k) for k in range(1, 9)),
            )
            assert run_approx(desc, strategy, config, target).verdict == "accept"
    fiber_image(desc, strategy, (0, 1, 2), samples=3, seed=0)
    assert len(compiled) == 1
    # the carried system takes no part in equality or hashing
    fresh = builtin_strategy(desc, seed=1)
    assert fresh == strategy and hash(fresh) == hash(strategy)


def test_winning_strategy_small_sweep(rng):
    cases = [
        univariate_d(4),
        univariate_d(4, TASK_DERIVATIVE),
        univariate_d(4, TASK_INTEGRAL),
        easy_power_sum(2, 2),
        neural_power(1),
        neural_power(2),
        hypercube_shift(2, TASK_ELIMINATION),
        kronecker_diag(2, TASK_CHARPOLY),
    ]
    for desc in cases:
        strategy = builtin_strategy(desc, seed=1)
        for _ in range(10):
            hidden = [random_fraction(rng) for _ in range(desc.param_arity)]
            transcript = run_exact(desc, hidden, strategy=strategy)
            assert transcript.verdict == "accept", desc.label()


def test_non_identifying_points_error():
    desc = univariate_d(2)
    bad = Strategy(
        question_points=IdentificationSequence.from_points([(1,), (1,), (1,)]),
        target_support=((0,), (1,), (2,)),
    )
    with pytest.raises(NonIdentifyingPointsError):
        run_exact(desc, [2], strategy=bad)
    # every mode plays the same player pass, so every mode converts the error
    target = expand_family(desc, [2])
    for mode in (MODE_SYMBOLIC, MODE_NUMERIC):
        config = ApproxGameConfig(
            germ=GermInstance.constant([2]),
            mode=mode,
            sample_schedule=tuple(Fraction(1, 2 ** k) for k in range(1, 9)),
        )
        with pytest.raises(NonIdentifyingPointsError):
            run_approx(desc, bad, config, target)
    with pytest.raises(NonIdentifyingPointsError):
        fiber_image(desc, bad, (0,), samples=3, seed=0)


def test_custom_strategy_takes_the_post_map_from_the_task():
    # A strategy carries no post map: every round entry re-encodes by the
    # descriptor's task, on the carrier of the strategy's declared support.
    desc = univariate_d(3, TASK_DERIVATIVE)
    strategy = Strategy(
        question_points=IdentificationSequence.from_points([(3,), (-2,), (5,), (1,)]),
        target_support=((0,), (1,), (2,), (3,)),
    )
    carrier = ((0,), (1,), (2,))
    hidden = (F(3, 2),)
    exact = run_exact(desc, hidden, strategy=strategy)
    assert (exact.post_map, exact.player_support, exact.verdict) == (
        "differentiate", carrier, "accept",
    )
    assert exact.player_message == exact.reference
    assert "post_map: differentiate\n" in exact.export()
    target = expand_family(desc.base(), hidden)
    for mode in (MODE_SYMBOLIC, MODE_NUMERIC):
        config = ApproxGameConfig(
            germ=GermInstance.constant(hidden),
            mode=mode,
            sample_schedule=tuple(F(1, 2 ** k) for k in range(1, 9)),
        )
        approx = run_approx(desc, strategy, config, target)
        assert (approx.post_map, approx.player_support, approx.verdict) == (
            "differentiate", carrier, "accept",
        ), mode
        assert approx.reference == exact.reference, mode
    (vector,) = fiber_image(desc, strategy, (0,), samples=3, seed=0)
    assert len(vector) == len(carrier)
    assert vector == fiber_image(desc, None, (0,), samples=1, seed=0)[0]


def test_inconsistent_support_signals_nonmembership():
    # declare a support that cannot explain the values of a cubic family
    desc = univariate_d(3)
    strategy = Strategy(
        question_points=IdentificationSequence.from_points(
            list(symmetric_integer_points(4))
        ),
        target_support=((0,), (1,)),
    )
    with pytest.raises(InconsistentSystemError):
        run_exact(desc, [2], strategy=strategy)


def test_quizmaster_message_factors_through_theta(rng):
    # hidden points in the same fiber produce identical messages
    desc = hypercube_shift(3)
    strategy = builtin_strategy(desc, seed=4)
    hiddens = [
        (Fraction(0),) + tuple(random_fraction(rng) for _ in range(3))
        for _ in range(4)
    ]
    messages = {
        run_exact(desc, h, strategy=strategy).quizmaster_message for h in hiddens
    }
    assert len(messages) == 1


def test_information_hiding_audit():
    desc = easy_power_sum(2, 2)
    strategy = builtin_strategy(desc, seed=9)
    t1 = run_exact(desc, (0, 3, 5), strategy=strategy)
    t2 = run_exact(desc, (0, -2, 7), strategy=strategy)
    assert t1.export(include_hidden=False) == t2.export(include_hidden=False)
    assert "withheld" in t1.export(include_hidden=False)
    audit = t1.export(include_hidden=True)
    assert "3/1" in audit.split("hidden: ")[1]


def test_fiber_image_examples(rng):
    for desc in (easy_power_sum(2, 2), neural_power(2), hypercube_shift(3)):
        strategy = builtin_strategy(desc, seed=2)
        vectors = fiber_image(
            desc, strategy, (0,) * desc.param_arity, samples=30, seed=5
        )
        assert len(vectors) == 1
    # the hypercube fiber value is the binary weight polynomial, not zero
    desc = hypercube_shift(3)
    vectors = fiber_image(desc, builtin_strategy(desc, seed=2), (0, 1, 1, 1), 10, 3)
    expected = expand_family(desc, (0, 9, 9, 9)).coeff_vector(desc.base_support())
    assert vectors == (tuple(expected),)


def test_fiber_requires_degeneration():
    desc = easy_power_sum(2, 2)
    with pytest.raises(NoFiberSamplerError):
        fiber_image(desc, None, (1, 0, 0), samples=5, seed=0)


@pytest.mark.parametrize("samples", [0, -1])
def test_fiber_image_rejects_samples_below_1(samples):
    with pytest.raises(QuizlabError, match=f"fiber samples must be at least 1, got {samples}"):
        fiber_image(easy_power_sum(2, 2), None, (0, 0, 0), samples=samples, seed=0)


def test_approx_symbolic_border():
    target = Polynomial.make(2, {(1, 1): Fraction(1)})
    config = ApproxGameConfig(germ=border_demo_germ(), mode=MODE_SYMBOLIC)
    transcript = run_approx(border_family_circuit(2), border_strategy(), config, target)
    assert transcript.verdict == "accept"
    assert transcript.player_message == ("0/1", "1/1", "0/1")


@pytest.mark.parametrize("mode", [MODE_SYMBOLIC, MODE_NUMERIC])
def test_approx_config_rejects_negative_tolerance(mode):
    schedule = tuple(Fraction(1, 2 ** k) for k in range(1, 9))
    with pytest.raises(QuizlabError, match="tolerance must be nonnegative, got -1/64"):
        ApproxGameConfig(
            germ=border_demo_germ(),
            mode=mode,
            sample_schedule=schedule,
            cluster_tolerance=Fraction(-1, 64),
        )
    config = ApproxGameConfig(germ=border_demo_germ(), mode=mode, sample_schedule=schedule)
    assert config.cluster_tolerance == 0


def test_approx_constant_germ_reduces_to_exact(rng):
    for desc in (
        easy_power_sum(2, 2),
        univariate_d(3, TASK_DERIVATIVE),
        hypercube_shift(2, TASK_ELIMINATION),
        kronecker_diag(2, TASK_CHARPOLY),
    ):
        strategy = builtin_strategy(desc, seed=3)
        hidden = tuple(random_fraction(rng) for _ in range(desc.param_arity))
        exact = run_exact(desc, hidden, strategy=strategy)
        config = ApproxGameConfig(
            germ=GermInstance.constant(hidden), mode=MODE_SYMBOLIC
        )
        target = expand_family(desc.base(), hidden)
        approx = run_approx(desc, strategy, config, target)
        assert approx.verdict == exact.verdict == "accept"
        assert approx.player_message == exact.player_message


def test_approx_diverging_germ():
    desc = easy_power_sum(1, 2)
    config = ApproxGameConfig(
        germ=GermInstance.make([LaurentSeries.monomial(1, -1), 1, 1]),
        mode=MODE_SYMBOLIC,
    )
    target = expand_family(desc, (1, 1, 1))
    with pytest.raises(NotHolomorphicAtOriginError):
        run_approx(desc, None, config, target)


def test_approx_numeric_mode():
    target = Polynomial.make(2, {(1, 1): Fraction(1)})
    schedule = tuple(Fraction(1, 2 ** k) for k in range(1, 13))
    config = ApproxGameConfig(
        germ=border_demo_germ(),
        mode=MODE_NUMERIC,
        sample_schedule=schedule,
        cluster_tolerance=Fraction(1, 64),
    )
    transcript = run_approx(border_family_circuit(2), border_strategy(), config, target)
    assert transcript.verdict == "accept"


def test_approx_numeric_no_cluster():
    # an exploding germ never clusters under exact tolerance zero
    desc = easy_power_sum(1, 1)
    germ = GermInstance.make([LaurentSeries.monomial(1, -1), 1])
    schedule = tuple(Fraction(1, 2 ** k) for k in range(1, 9))
    config = ApproxGameConfig(
        germ=germ, mode=MODE_NUMERIC, sample_schedule=schedule
    )
    target = expand_family(desc, (1, 1))
    with pytest.raises(
        NoStableClusterError, match=r"^no cluster covers half of the schedule tail \(best 1/4\)$"
    ):
        run_approx(desc, None, config, target)


def _pairwise_cluster(tail):
    """The zero-tolerance cluster rule by comparing every pair: the last
    candidate of the largest coverage wins."""
    best, best_coverage = None, 0
    for candidate in tail:
        coverage = sum(1 for other in tail if other == candidate)
        if coverage >= best_coverage:
            best, best_coverage = candidate, coverage
    return best, best_coverage


# Vectors that are equal without being the same objects, and two that differ
# in one coordinate only.
CLUSTER_VECTORS = [
    (Fraction(1, 2), Fraction(0)),
    (Fraction(2, 4), Fraction(0, 3)),
    (Fraction(1, 2), Fraction(1)),
    (Fraction(-3), Fraction(7, 5)),
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, len(CLUSTER_VECTORS) - 1), max_size=12))
@example([0, 2, 1, 2])  # a tie between two clusters: the later one wins
@example([2, 0, 3, 1])  # a tie, the winner's last member past the other's
@example([0, 2, 3])  # no cluster covers half of the tail
def test_counted_cluster_matches_the_pairwise_rule(indices):
    tail = [CLUSTER_VECTORS[i] for i in indices]
    best, coverage = protocol._dominant_cluster(tail, Fraction(0))
    assert (best, coverage) == _pairwise_cluster(tail)


def test_numeric_tie_takes_the_last_cluster():
    # t + t u X at the germ (e, 1): the tail of this schedule is 1 + X,
    # 2 + 2X, 1 + X, 2 + 2X, two clusters that each cover half of it.
    desc = easy_power_sum(1, 1)
    germ = GermInstance.make([LaurentSeries.epsilon(), 1])
    schedule = tuple(Fraction(x) for x in (3, 3, 3, 3, 1, 2, 1, 2))
    config = ApproxGameConfig(germ=germ, mode=MODE_NUMERIC, sample_schedule=schedule)
    later, earlier = expand_family(desc, (2, 1)), expand_family(desc, (1, 1))
    assert run_approx(desc, None, config, later).verdict == "accept"
    assert run_approx(desc, None, config, earlier).verdict == "reject"


def _x1(desc, shift: int) -> Polynomial:
    return Polynomial.variable(desc.input_arity, 0) - Polynomial.constant(desc.input_arity, shift)


# Each pair is a family and a nonzero polynomial outside its support that
# vanishes at every one of its question points: x1^2 - x1 on the cube,
# x1 (x1 - 1) (x1 - 2) (x1 - 3) on the lattice |a| < 4, x1 + x2 - 2 on the
# slice |a| = 2.
VANISHING_ON_THE_QUESTIONS = [
    (hypercube_shift(2), lambda d: _x1(d, 0) * _x1(d, 1)),
    (easy_power_sum(2, 2), lambda d: _x1(d, 0) * _x1(d, 1) * _x1(d, 2) * _x1(d, 3)),
    (neural_power(2), lambda d: _x1(d, 2) + Polynomial.variable(2, 1)),
]


@pytest.mark.parametrize("mode", [MODE_SYMBOLIC, MODE_NUMERIC])
@pytest.mark.parametrize(
    "desc, vanishing", VANISHING_ON_THE_QUESTIONS, ids=["cube", "lattice", "slice"]
)
def test_approx_target_outside_the_support_is_rejected(desc, vanishing, mode):
    hidden = tuple(Fraction(j + 2, 2) for j in range(desc.param_arity))
    strategy = builtin_strategy(desc)
    p = vanishing(desc)
    assert not p.is_zero()
    assert all(p.evaluate(x) == 0 for x in strategy.question_points.points)
    limit = expand_family(desc, hidden)
    config = ApproxGameConfig(
        germ=GermInstance.constant(hidden),
        mode=mode,
        sample_schedule=tuple(Fraction(1, 2 ** k) for k in range(1, 9)),
        cluster_tolerance=Fraction(1, 64),
    )
    assert run_approx(desc, strategy, config, limit).verdict == "accept"
    assert run_approx(desc, strategy, config, limit + p).verdict == "reject"


def test_verdict_does_not_depend_on_the_question_points():
    # easy-power-sum(2, 2) with the germ 1+e; 1/2; -1, asked at its own
    # exponent vectors and at spanning points drawn from [0, 39]^2.
    desc = easy_power_sum(2, 2)
    germ = _germ([1, F(1, 2), -1], [1, 0, 0])
    target = encode(germ, desc).h
    support = desc.base_support()
    draw = random.Random(0)
    points = [(draw.randint(0, 39), draw.randint(0, 39)) for _ in support]
    assert spans(points, support)
    drawn = Strategy(IdentificationSequence.from_points(points), support)
    for mode in (MODE_SYMBOLIC, MODE_NUMERIC):
        config = ApproxGameConfig(
            germ=germ,
            mode=mode,
            sample_schedule=tuple(Fraction(1, 2 ** k) for k in range(1, 13)),
            cluster_tolerance=Fraction(1, 64),
        )
        verdicts = {run_approx(desc, s, config, target).verdict
                    for s in (builtin_strategy(desc), drawn)}
        assert len(verdicts) == 1, mode


@st.composite
def support_cases(draw):
    """Two encodings in 1 to 3 variables with exponents at most 4: one
    polynomial permuted and padded with zero terms, two on disjoint
    supports, two drawn freely, or f and f + c x_i (x_i - 1) ... (x_i - e + 1),
    which differ only at the points with x_i >= e; coefficients may be zero."""
    nvars = draw(st.integers(1, 3))
    monos = list(itertools.product(range(5), repeat=nvars))
    support = draw(st.lists(st.sampled_from(monos), unique=True, max_size=4))
    coeffs = draw(st.lists(small_fractions, min_size=len(support), max_size=len(support)))
    terms = list(zip(support, coeffs))
    kind = draw(st.sampled_from(["equal", "disjoint", "free", "vanishing"]))
    spare = [m for m in monos if m not in support]
    if kind == "equal":
        other = draw(st.permutations(terms))
        zeros = draw(st.lists(st.sampled_from(spare), unique=True, max_size=2))
        other += [(m, Fraction(0)) for m in zeros]
    elif kind == "vanishing":
        i, e = draw(st.integers(0, nvars - 1)), draw(st.integers(1, 4))
        c = draw(small_fractions.filter(bool))
        falling = [Fraction(1)]  # coefficients, lowest degree first
        for j in range(e):
            falling = [a - j * b for a, b in zip([0, *falling], [*falling, 0])]
        added = dict(terms)
        for k, a in enumerate(falling):
            m = tuple([k if v == i else 0 for v in range(nvars)])
            added[m] = added.get(m, 0) + c * a
        other = list(added.items())
    else:
        pool = spare if kind == "disjoint" else monos
        free = draw(st.lists(st.sampled_from(pool), unique=True, max_size=6))
        other = [(m, draw(small_fractions)) for m in free]
    f_enc = tuple(support), tuple(coeffs)
    g_enc = tuple(m for m, _ in other), tuple(c for _, c in other)
    return f_enc, g_enc


@settings(max_examples=300, deadline=None)
@given(support_cases())
def test_exact_verdict_is_equality_of_polynomials(case):
    f_enc, g_enc = case
    expected = naive_coefficient_gap(f_enc, g_enc) == 0
    assert decide_equal(f_enc, g_enc) == expected
    assert decide_equal(g_enc, f_enc) == expected


def _target(nvars: int) -> Polynomial:
    return Polynomial.make(nvars, {(0,) * nvars: Fraction(3), (1,) * nvars: Fraction(6)})


# A family or the border circuit with its strategy and germ, and a target of
# another arity than the circuit's inputs.
WRONG_ARITY_TARGETS = [
    (univariate_d(1), None, GermInstance.constant([2]), _target(2), "2, circuit needs 1"),
    (
        univariate_d(1, TASK_DERIVATIVE), None, GermInstance.constant([2]), _target(2),
        "2, circuit needs 1",
    ),
    (
        hypercube_shift(2, TASK_ELIMINATION), None, GermInstance.constant([1, 2, -1]),
        _target(1), "1, circuit needs 2",
    ),
    (border_family_circuit(2), border_strategy(), border_demo_germ(), _target(3),
     "3, circuit needs 2"),
]


@pytest.mark.parametrize("mode", [MODE_SYMBOLIC, MODE_NUMERIC])
@pytest.mark.parametrize(
    "subject, strategy, germ, target, message", WRONG_ARITY_TARGETS,
    ids=["identity", "derivative", "elimination", "border"],
)
def test_approx_target_of_the_wrong_arity_is_refused(
    subject, strategy, germ, target, message, mode, monkeypatch
):
    def no_compile(*args, **kwargs):
        raise AssertionError("the questions were compiled before the target was checked")

    monkeypatch.setattr(protocol, "compile_questions", no_compile)
    config = ApproxGameConfig(
        germ=germ, mode=mode, sample_schedule=tuple(Fraction(1, 2 ** k) for k in range(1, 9))
    )
    with pytest.raises(ArityMismatchError, match=f"^target has arity {message}$"):
        run_approx(subject, strategy, config, target)


def test_symmetric_points():
    assert symmetric_integer_points(5) == ((0,), (1,), (-1,), (2,), (-2,))


def test_univariate_points_without_the_constant_start_at_1():
    # The support {X} of neural-power n=1 has no constant monomial, so the
    # symmetric point 0 alone would ask a question with a zero row.
    assert builtin_strategy(neural_power(1)).question_points.points == ((1,),)
    for desc in (univariate_d(4), easy_power_sum(2, 1), hypercube_shift(1), kronecker_diag(1)):
        m = len(desc.base_support())
        assert builtin_strategy(desc).question_points.points == symmetric_integer_points(m)
    # Every other support is asked at its own exponent vectors, whatever the seed.
    for desc in (easy_power_sum(2, 2), neural_power(3), hypercube_shift(3), kronecker_diag(2)):
        strategy = builtin_strategy(desc)
        assert strategy.question_points.points == desc.base_support()
        assert all(builtin_strategy(desc, seed=seed) == strategy for seed in (0, 1, 7))


# Every multivariate base support up to its desk cap, and neural-power(1).
OWN_POINT_SUPPORTS = [
    *[easy_power_sum(l, n) for n in range(2, 9) for l in range(1, 8 // n + 1)],
    *[neural_power(n) for n in range(1, 7)],
    *[hypercube_shift(n) for n in range(2, 6)],
    *[kronecker_diag(k) for k in range(2, 6)],
]


@pytest.mark.parametrize("desc", OWN_POINT_SUPPORTS, ids=lambda desc: desc.label())
def test_every_support_spans_at_its_own_exponents(desc):
    support = desc.base_support()
    assert spans(builtin_strategy(desc).question_points.points, support)


# One round at every family's desk cap, set-up included, within a wall budget
# of several times its measured time: 0.25 s for easy-power-sum(8, 1), 0.14 s
# for neural-power(6), and 40 ms or less for the others.
@pytest.mark.parametrize(
    "desc, budget_s",
    [
        (hypercube_shift(5, TASK_ELIMINATION), 2.0),
        (kronecker_diag(5, TASK_CHARPOLY), 2.0),
        (easy_power_sum(2, 4), 2.0),
        (easy_power_sum(1, 8), 2.0),
        (easy_power_sum(4, 2), 2.0),
        (easy_power_sum(8, 1), 3.0),
        (univariate_d(64), 2.0),
        (neural_power(5), 2.0),
        (neural_power(6), 2.0),
    ],
    ids=["hypercube-shift-5", "kronecker-diag-5", "easy-power-sum-2-4", "easy-power-sum-1-8",
         "easy-power-sum-4-2", "easy-power-sum-8-1", "univariate-d-64", "neural-power-5",
         "neural-power-6"],
)
def test_game_exact_at_the_desk_cap_accepts_within_budget(desc, budget_s):
    hidden = [Fraction((-1) ** j * (j + 1), 1 + j % 2) for j in range(desc.param_arity)]
    start = time.perf_counter()
    transcript = run_exact(desc, hidden, strategy=builtin_strategy(desc))
    assert transcript.verdict == "accept"
    assert time.perf_counter() - start < budget_s
