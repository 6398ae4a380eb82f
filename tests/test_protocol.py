"""Quiz-game rounds: exact, approximative, fibers, information hiding."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quizlab import protocol
from quizlab.approx import GermInstance, border_demo_germ, border_family_circuit, encode
from quizlab.errors import (
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
    player_interpolate,
    run_approx,
    run_exact,
    symmetric_integer_points,
)
from quizlab.witness import evaluation_matrix
from conftest import lagrange_interpolate, random_fraction


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


def test_player_interpolate_examples():
    coeffs = player_interpolate(
        [Fraction(7), Fraction(49), Fraction(21)],
        [(0,), (1,), (-1,)],
        ((0,), (1,), (2,)),
    )
    assert coeffs == [Fraction(7), Fraction(14), Fraction(28)]
    zeros = player_interpolate(
        [Fraction(0)] * 3, [(0,), (1,), (-1,)], ((0,), (1,), (2,))
    )
    assert zeros == [Fraction(0)] * 3
    with pytest.raises(InconsistentSystemError):
        player_interpolate([Fraction(0), Fraction(1)], [(0,), (0,)], ((0,),))
    with pytest.raises(UnderdeterminedSystemError):
        player_interpolate([Fraction(0), Fraction(0)], [(5,), (5,)], ((0,), (1,)))


def test_decide_equal_examples():
    support = ((0,), (1,), (2,), (3,))
    zero = ((0,),), (Fraction(0),)
    theta_at_one = support, expand_family(univariate_d(3), [1]).coeff_vector(support)
    points = symmetric_integer_points(5)
    assert decide_equal(theta_at_one, zero, points)
    a = (((0,), (1,)), (Fraction(1), Fraction(2)))
    b = (((1,), (0,)), (Fraction(2), Fraction(1)))  # same polynomial, permuted
    assert decide_equal(a, b, points)
    x = (((1,),), (Fraction(1),))
    x_squared = (((2,),), (Fraction(1),))
    assert not decide_equal(x, x_squared, [(0,), (1,), (2,)])
    # a tolerance bound is inclusive
    third, half = (((0,),), (Fraction(1, 3),)), (((0,),), (Fraction(1, 2),))
    assert decide_equal(third, half, [(1,)], tolerance=Fraction(1, 6))
    assert not decide_equal(third, half, [(1,)], tolerance=Fraction(1, 7))


def naive_encoding_value(enc, point) -> Fraction:
    """sum of c * prod x^e over the encoding's terms, in Fractions."""
    total = Fraction(0)
    for mono, c in zip(*enc):
        term = Fraction(c)
        for x, e in zip(point, mono):
            term *= Fraction(x) ** e
        total += term
    return total


def test_decide_equal_cached_rows_match_naive_oracle():
    points = [(1, 2), (-3, 1), (2, -2), (0, 5)]
    square = (((2, 0), (1, 1), (0, 0)), (Fraction(1, 2), Fraction(-3), Fraction(7, 4)))
    permuted = (((0, 0), (2, 0), (1, 1)), (Fraction(7, 4), Fraction(1, 2), Fraction(-3)))
    nudged = (square[0], (Fraction(1, 2), Fraction(-3), Fraction(7, 4) + Fraction(1, 100)))
    cases = [
        (square, nudged, None),  # same support
        (square, permuted, None),  # different supports
        (square, nudged, Fraction(1, 100)),  # tolerance, inclusive
        (square, nudged, Fraction(1, 101)),
    ]
    for f_enc, g_enc, tolerance in cases:
        expected = all(
            abs(naive_encoding_value(f_enc, p) - naive_encoding_value(g_enc, p))
            <= (tolerance or 0)
            for p in points
        )
        hits = protocol._monomial_rows.cache_info().hits
        # The second call reads both supports' rows from the cache.
        for _ in range(2):
            assert decide_equal(f_enc, g_enc, points, tolerance) == expected
        assert protocol._monomial_rows.cache_info().hits >= hits + 2
    rows = protocol._monomial_rows(tuple(points), square[0])
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)


def fraction_decide_equal(f_enc, g_enc, points, tolerance=None):
    """The verdict by Fraction sums at each point: the slow reference."""
    f_rows = evaluation_matrix(points, f_enc[0]).entries
    g_rows = evaluation_matrix(points, g_enc[0]).entries

    def value(coeffs, row):
        return sum((Fraction(c) * m for c, m in zip(coeffs, row)), Fraction(0))

    for f_row, g_row in zip(f_rows, g_rows):
        lhs, rhs = value(f_enc[1], f_row), value(g_enc[1], g_row)
        if tolerance is None:
            if lhs != rhs:
                return False
        elif abs(lhs - rhs) > tolerance:
            return False
    return True


small_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def verdict_cases(draw):
    """Two encodings of one polynomial (permuted, padded with zeros), or of
    two polynomials that differ by a small or a free perturbation, with
    integer or rational points and an optional tolerance."""
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
    coordinate = st.integers(-6, 6) if draw(st.booleans()) else small_fractions
    points = draw(
        st.lists(st.tuples(*[coordinate] * nvars), min_size=1, max_size=8)
    )
    tolerance = draw(st.none() | st.fractions(min_value=0, max_value=1, max_denominator=64))
    f_enc = tuple(support), tuple(coeffs)
    g_enc = tuple(m for m, _ in other), tuple(c for _, c in other)
    return f_enc, g_enc, points, tolerance


@settings(max_examples=400, deadline=None)
@given(verdict_cases())
def test_integer_verdict_matches_fraction_reference(case):
    f_enc, g_enc, points, tolerance = case
    expected = fraction_decide_equal(f_enc, g_enc, points, tolerance)
    assert decide_equal(f_enc, g_enc, points, tolerance) == expected
    assert decide_equal(g_enc, f_enc, points, tolerance) == expected


def test_strategy_compiles_its_system_once(monkeypatch, rng):
    compiled = []
    compile_system = protocol.compile_system

    def counting_compile(rows):
        compiled.append(rows)
        return compile_system(rows)

    monkeypatch.setattr(protocol, "compile_system", counting_compile)
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
    redacted = t1.redacted()
    assert redacted.hidden is None and redacted.hidden_withheld


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
    with pytest.raises(NoStableClusterError):
        run_approx(desc, None, config, target)


def test_symmetric_points():
    assert symmetric_integer_points(5) == ((0,), (1,), (-1,), (2,), (-2,))


def test_univariate_points_without_the_constant_start_at_1():
    # The support {X} of neural-power n=1 has no constant monomial, so the
    # symmetric point 0 alone would ask a question with a zero row.
    assert builtin_strategy(neural_power(1)).question_points.points == ((1,),)
    for desc in (univariate_d(4), easy_power_sum(2, 1), hypercube_shift(1), kronecker_diag(1)):
        m = len(desc.base_support())
        assert builtin_strategy(desc).question_points.points == symmetric_integer_points(m)
