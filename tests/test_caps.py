"""Every desk-scale cap names the measured value, the cap and its override."""

from fractions import Fraction

import pytest

from quizlab.approx import (
    DEMO_DEPTH_CAP,
    SAMPLES_CAP,
    GermInstance,
    closure_membership_demo,
    halving_schedule,
)
from quizlab.circuit import Circuit, generic_computation
from quizlab.errors import (
    CapExceededError,
    ExpansionCapExceededError,
    QuizlabError,
    UnsupportedTaskError,
)
from quizlab.exact import LaurentSeries
from quizlab.families import (
    TASK_CHARPOLY,
    TASK_ELIMINATION,
    UNIVARIATE_D,
    build_circuit,
    easy_power_sum,
    elimination_poly,
    emit_formula,
    hypercube_shift,
    kronecker_diag,
    neural_power,
    univariate_d,
)
from quizlab.identify import (
    MONOMIAL_BITS_CAP,
    SPAN_ENTRIES_CAP,
    required_set_size,
    sample_sequence,
    verify_linear_span,
)
from quizlab.kronecker import build_theta_matrix, verify_lemma_identities, verify_lemma_trials
from quizlab.neural import EPOCHS_CAP, TRAINING_WORK_CAP, TrainConfig, random_batch
from quizlab.protocol import fiber_image
from quizlab import witness
from quizlab.witness import (
    REPORT_TRIALS_CAP,
    REPORT_WORK_CAP,
    VARIANT_BASE,
    expected_rank,
    hypercube_size,
    lower_bound_report,
    roots_of_unity_matrix,
    roots_of_unity_rank,
)
from conftest import OVER_DEGREE_CIRCUIT_FILES

NO_OVERRIDE = "; no override"


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: elimination_poly(11, 1, (1,) * 11), ("n=11", "exceeds 10", NO_OVERRIDE)),
        (lambda: build_theta_matrix(9, 1, (1,) * 9), ("k=9", "exceeds 8", NO_OVERRIDE)),
        (lambda: verify_lemma_identities(6, 1, (1,) * 6), ("k=6", "exceeds 5", NO_OVERRIDE)),
        (lambda: hypercube_size(6), ("n=6", "exceeds 5", NO_OVERRIDE)),
        (lambda: roots_of_unity_matrix(65, VARIANT_BASE), ("d = 65", "d <= 64", NO_OVERRIDE)),
        (lambda: easy_power_sum(3, 3), ("n*l = 9", "n*l <= 8", NO_OVERRIDE)),
        (lambda: neural_power(7), ("n = 7", "n <= 6", NO_OVERRIDE)),
        (lambda: emit_formula(11), ("formula cap: n=11", "exceeds 10", NO_OVERRIDE)),
        (
            lambda: sample_sequence(1, 1_000_001, 2, 0),
            ("identification sequence cap: n*m=1000001", "exceeds 1000000", NO_OVERRIDE),
        ),
        (
            lambda: required_set_size(2, 3277, 1),
            ("L*bits(delta^3*(1+K*delta))=16385", "exceeds 16384", NO_OVERRIDE),
        ),
        (lambda: generic_computation(127, 1), ("(L+n+1)^2=16641", "exceeds 16384", NO_OVERRIDE)),
        # A circuit read from text: the first node over the formal degree cap.
        (
            lambda: Circuit.from_text(OVER_DEGREE_CIRCUIT_FILES["squaring-chain.json"]),
            ("formal degree cap: node 11=2048", "exceeds 1024", NO_OVERRIDE),
        ),
        (
            lambda: Circuit.from_text(OVER_DEGREE_CIRCUIT_FILES["high-degree-param.json"]),
            ("formal degree cap: node 0=1000000", "exceeds 1024", NO_OVERRIDE),
        ),
        # Loop counts, each just over its cap: the count is checked before any loop.
        (
            lambda: TrainConfig(2, 0.01, 100_001, ((0.5, 0.5),), target_weights=(0, 0, 0)),
            ("training cap: epochs=100001", "exceeds 100000", NO_OVERRIDE),
        ),
        (
            lambda: lower_bound_report(hypercube_shift(2), trials=1001, seed=0),
            ("witness report cap: trials=1001", "exceeds 1000", NO_OVERRIDE),
        ),
        # Work: trials * K^2, with K = 256 at easy-power-sum(8, 1).
        (
            lambda: lower_bound_report(easy_power_sum(8, 1), trials=17, seed=0),
            ("witness report cap: trials*K^2=1114112", "exceeds 1048576", NO_OVERRIDE),
        ),
        # A span check: points times support, then the largest monomial's bits.
        (
            lambda: verify_linear_span([(x,) for x in range(65)], [(e,) for e in range(64)]),
            ("linear span cap: points*support=4160", "exceeds 4096", NO_OVERRIDE),
        ),
        (
            lambda: verify_linear_span([(2,), (3,)], [(0,), (8193,)]),
            ("linear span cap: monomial bits=16386", "exceeds 16384", NO_OVERRIDE),
        ),
        (
            lambda: fiber_image(easy_power_sum(2, 2), None, (0, 0, 0), samples=10_001, seed=0),
            ("fiber image cap: samples=10001", "exceeds 10000", NO_OVERRIDE),
        ),
        (
            lambda: verify_lemma_trials(3, 1001, 0),
            ("lemma-identity cap: trials=1001", "exceeds 1000", NO_OVERRIDE),
        ),
        (
            lambda: halving_schedule(101, "--samples", SAMPLES_CAP),
            ("halving schedule cap: --samples=101", "exceeds 100", NO_OVERRIDE),
        ),
        # The demo refuses its depth before it encodes the germ.
        (
            lambda: closure_membership_demo(easy_power_sum(1, 1), None, depth=101),
            ("halving schedule cap: demo depth=101", "exceeds 100", NO_OVERRIDE),
        ),
        (
            lambda: random_batch(2, 100_001, 0),
            ("batch cap: size=100001", "exceeds 100000", NO_OVERRIDE),
        ),
        # 66,667 epochs of 30 points visit 2,000,010 points.
        (
            lambda: TrainConfig(2, 0.01, 66_667, ((0.5, 0.5),) * 30, target_weights=(0, 0, 0)),
            ("training cap: epochs*batch_size=2000010", "exceeds 2000000", NO_OVERRIDE),
        ),
        # k is held to its cap before any point is drawn.
        (lambda: verify_lemma_trials(6, 1, 0), ("k=6", "exceeds 5", NO_OVERRIDE)),
        (
            lambda: GermInstance.make([1, LaurentSeries.from_pairs([(-1, 1), (64, 2)])]),
            ("component 2 spans e^-1..e^64", "gap 65 exceeds 64", NO_OVERRIDE),
        ),
    ],
)
def test_cap_message_names_value_cap_and_override(call, expected):
    with pytest.raises(CapExceededError) as info:
        call()
    for part in expected:
        assert part in str(info.value)


@pytest.mark.parametrize(
    "make, at_cap, over_cap, unsupported, message",
    [
        (easy_power_sum, (2, 4), (3, 3), TASK_CHARPOLY, "n*l <= 8 exceeded: n*l = 9"),
        (univariate_d, (64,), (65,), TASK_ELIMINATION, "d <= 64 exceeded: d = 65"),
        (neural_power, (6,), (7,), TASK_CHARPOLY, "n <= 6 exceeded: n = 7"),
        (hypercube_shift, (5,), (6,), TASK_CHARPOLY, "n <= 5 exceeded: n = 6"),
        (kronecker_diag, (5,), (6,), TASK_ELIMINATION, "k <= 5 exceeded: k = 6"),
    ],
)
def test_descriptor_holds_each_family_to_its_desk_cap(
    make, at_cap, over_cap, unsupported, message
):
    # Every entry point takes a descriptor, so none can start over the cap.
    assert make(*at_cap).base_support()
    with pytest.raises(CapExceededError) as info:
        make(*over_cap)
    assert str(info.value) == f"desk cap {message}; no override"
    # A usage error is still raised before the cap.
    with pytest.raises(UnsupportedTaskError):
        make(*over_cap, unsupported)


def test_halving_schedule_up_to_its_caps():
    for cap in (SAMPLES_CAP, DEMO_DEPTH_CAP):
        schedule = halving_schedule(cap, "count", cap)
        assert schedule == tuple(Fraction(1, 2 ** k) for k in range(1, cap + 1))
    with pytest.raises(QuizlabError, match="^--samples must be at least 1, got 0$"):
        halving_schedule(0, "--samples", SAMPLES_CAP)


def test_training_work_cap_comes_after_the_epochs_cap():
    # Every epochs value up to its cap stays open at the default batch of 20.
    assert EPOCHS_CAP * 20 <= TRAINING_WORK_CAP
    TrainConfig(2, 0.01, EPOCHS_CAP, ((0.5, 0.5),) * 20, target_weights=(0, 0, 0))
    with pytest.raises(CapExceededError, match="^training cap: epochs=100001 "):
        TrainConfig(2, 0.01, EPOCHS_CAP + 1, ((0.5, 0.5),) * 30, target_weights=(0, 0, 0))


def test_germ_gap_is_held_however_the_germ_is_built():
    at_cap = LaurentSeries.from_pairs([(0, 1), (64, 1)])
    over_cap = LaurentSeries(0, (1,) + (0,) * 64 + (1,), 70)
    assert GermInstance.make([at_cap]).components == (at_cap,)
    for build in (GermInstance.make, lambda comps: GermInstance(tuple(comps))):
        with pytest.raises(CapExceededError, match="gap 65 exceeds 64; no override"):
            build([at_cap, over_cap])


def test_expansion_cap_message_names_override_and_node():
    circ = build_circuit(easy_power_sum(3, 2))
    with pytest.raises(ExpansionCapExceededError) as info:
        circ.expand([1, 2, 3], cap=5)
    message = str(info.value)
    assert "cap is 5; --expansion-cap overrides it for circuit expand" in message
    assert message.endswith(f" (at node {info.value.node})")
    produced = int(message.split("expansion produced ")[1].split()[0])
    assert produced > 5


@pytest.mark.parametrize(
    "desc", [easy_power_sum(8, 1), neural_power(6), hypercube_shift(5), univariate_d(64)],
    ids=lambda d: d.variant,
)
def test_report_work_cap_accepts_the_most_trials_under_it(desc, monkeypatch):
    # The rows and the rank are stubbed out: only the cap check and the draw
    # loop run, so each family can be taken at its desk cap.
    k = expected_rank(desc)
    for name in ("derivative_matrix", "hypercube_lk_matrix"):
        monkeypatch.setattr(witness, name, lambda *args: None)
    for name in ("exact_rank", "roots_of_unity_rank"):
        monkeypatch.setattr(witness, name, lambda *args: k)
    # univariate-d is ranked once, so its work is not charged per trial.
    most = REPORT_TRIALS_CAP
    if desc.variant != UNIVARIATE_D:
        most = min(most, REPORT_WORK_CAP // k ** 2)
    assert lower_bound_report(desc, trials=most, seed=0).success_count == most
    over = r"trials\*K\^2=" if most < REPORT_TRIALS_CAP else "trials="
    with pytest.raises(CapExceededError, match=f"^witness report cap: {over}"):
        lower_bound_report(desc, trials=most + 1, seed=0)


def test_univariate_report_ranks_its_matrix_once(monkeypatch):
    ranked = []

    def rank(*args):
        ranked.append(args)
        return roots_of_unity_rank(*args)

    monkeypatch.setattr(witness, "roots_of_unity_rank", rank)
    report = lower_bound_report(univariate_d(64), trials=1000, seed=3)
    assert ranked == [(64, VARIANT_BASE)]
    assert report.achieved_ranks == (65,) * 1000
    assert report.success_count == 1000
    assert report.seeds == tuple(3 * 1_000_003 + trial for trial in range(1000))


def test_span_caps_accept_a_check_at_each_cap():
    # 64 distinct points against 1, X, ..., X^63: 4096 entries, full rank.
    points, support = [(x,) for x in range(64)], [(e,) for e in range(64)]
    assert len(points) * len(support) == SPAN_ENTRIES_CAP
    assert verify_linear_span(points, support)
    # bits(3) = 2, so X^8192 at 3 has a bound of exactly the cap.
    assert 2 * 8192 == MONOMIAL_BITS_CAP
    assert verify_linear_span([(2,), (3,)], [(0,), (8192,)])
    # A rational coordinate counts the bits of its denominator.
    with pytest.raises(CapExceededError, match="^linear span cap: monomial bits=16386 "):
        verify_linear_span([(Fraction(1, 3),), (1,)], [(0,), (8193,)])
