"""Polynomial-activation network: forward, gradients, training harness."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from quizlab import neural
from quizlab.cli import main
from quizlab.errors import CapExceededError, QuizlabError
from quizlab.families import expand_family, neural_power
from quizlab.identify import verify_linear_span
from quizlab.neural import (
    PolyActivationNet,
    TrainConfig,
    finite_diff_check,
    forward,
    gradient,
    loss,
    polynomial_distance,
    random_batch,
    train,
)
from quizlab.poly import monomials_of_degree


def test_forward_examples():
    net = PolyActivationNet(2, (1.0, 1.0, 1.0))
    assert forward(net, (1.0, 1.0)) == 4.0
    assert forward(PolyActivationNet(2, (0.0, 3.0, 5.0)), (2.0, 2.0)) == 0.0
    assert forward(PolyActivationNet(2, (1.0, 1.0, 0.0)), (0.0, 1.0)) == 0.0


def test_gradient_hand_example():
    net = PolyActivationNet(2, (1.0, 1.0, 1.0))
    grad = gradient(net, [(1.0, 1.0)], [0.0])
    assert grad[0] == 32.0  # 2 * (4 - 0) * (u.x)^2 = 2 * 4 * 4
    assert grad[1] == 32.0  # 2 * 4 * t * n * (u.x) * x_1 = 2 * 4 * 1 * 2 * 2
    assert grad[2] == 32.0


def test_gradient_zero_at_fit():
    net = PolyActivationNet(3, (0.5, 1.0, -2.0, 0.25))
    batch = random_batch(3, 8, seed=0)
    targets = [forward(net, x) for x in batch]
    assert gradient(net, batch, targets) == (0.0,) * 4


def test_fused_pass_gives_loss_bit_for_bit():
    # train records the loss of the fused pass; it must be loss() exactly.
    rng = random.Random(6)
    for n in (1, 2, 5):
        for _ in range(10):
            net = PolyActivationNet(n, tuple(rng.uniform(-3, 3) for _ in range(n + 1)))
            batch = random_batch(n, 7, seed=rng.randrange(1000))
            targets = [rng.uniform(-1, 1) for _ in batch]
            assert neural._loss_and_gradient(net, batch, targets)[0] == loss(net, batch, targets)


def test_finite_diff_examples():
    rng = random.Random(4)
    for n in (2, 4):
        for _ in range(10):
            net = PolyActivationNet(
                n, tuple(rng.uniform(-1, 1) for _ in range(n + 1))
            )
            batch = random_batch(n, 6, seed=rng.randrange(1000))
            targets = [rng.uniform(-1, 1) for _ in batch]
            err = finite_diff_check(net, batch, targets, h=1e-5)
            assert err < (1e-4 if n > 2 else 1e-5)


def test_finite_diff_at_zero_gradient():
    net = PolyActivationNet(2, (0.5, 1.0, 1.0))
    batch = random_batch(2, 5, seed=1)
    targets = [forward(net, x) for x in batch]
    assert finite_diff_check(net, batch, targets, h=1e-5) < 1e-8


def test_train_target_equals_initialization():
    rng = random.Random(9)
    seed = 9
    init = random.Random(seed)
    weights = tuple(init.uniform(-1.0, 1.0) for _ in range(4))
    config = TrainConfig(
        n=3,
        learning_rate=0.01,
        epochs=3,
        batch=random_batch(3, 6, seed=2),
        seed=seed,
        target_weights=weights,
    )
    report = train(config)
    assert report.loss_curve[0] == 0.0
    assert report.final_poly_distance == 0


def test_train_zero_learning_rate():
    config = TrainConfig(
        n=2,
        learning_rate=0.0,
        epochs=5,
        batch=random_batch(2, 6, seed=3),
        seed=11,
        target_weights=(0.5, 0.25, -0.75),
    )
    report = train(config)
    assert len(set(report.loss_curve)) == 1


def test_train_divergence_status():
    config = TrainConfig(
        n=4,
        learning_rate=50.0,
        epochs=200,
        batch=random_batch(4, 10, seed=5),
        seed=5,
        target_weights=(1.0, 1.0, 1.0, 1.0, 1.0),
    )
    report = train(config)
    assert report.status == "diverged"
    assert report.final_poly_distance is None


def test_train_checks_neural_power_desk_cap_before_training(capsys):
    # The report ends in an exact neural-power(n) distance.
    batch = ((0.0,) * 7,)
    with pytest.raises(CapExceededError, match="desk cap n <= 6 exceeded: n = 7; no override"):
        TrainConfig(n=7, learning_rate=0.1, epochs=1, batch=batch, target_weights=(1.0,) * 8)
    # n is the first field checked: below 1, then over the desk cap.
    with pytest.raises(CapExceededError, match="n = 7; no override"):
        TrainConfig(n=7, learning_rate=-1.0, epochs=0, batch=(), target_weights=())
    with pytest.raises(QuizlabError, match="^need at least one input, n >= 1$"):
        TrainConfig(n=0, learning_rate=-1.0, epochs=0, batch=(), target_weights=())
    assert main(["neural", "train", "--n=7"]) == 3
    assert capsys.readouterr() == (
        "", "cap exceeded: desk cap n <= 6 exceeded: n = 7; no override\n"
    )


def test_forward_agrees_with_exact_family():
    rng = random.Random(13)
    desc = neural_power(3)
    for _ in range(20):
        weights = tuple(rng.uniform(-2, 2) for _ in range(4))
        x = tuple(rng.uniform(-2, 2) for _ in range(3))
        exact_w = [Fraction(w).limit_denominator(10 ** 12) for w in weights]
        exact_x = [Fraction(v).limit_denominator(10 ** 12) for v in x]
        exact_value = float(expand_family(desc, exact_w).evaluate(exact_x))
        numeric = forward(PolyActivationNet(3, weights), x)
        assert abs(exact_value - numeric) <= 1e-9 * max(1.0, abs(exact_value))


def test_polynomial_distance_exactness():
    d = polynomial_distance(2, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    assert d == 0
    d = polynomial_distance(2, (1.0, 1.0, 1.0), (1.0, 1.0, 0.5))
    assert isinstance(d, Fraction) and d > 0


def test_neural_interpolation_points_identify_span():
    # m = 4 (K L + n + 1)^2 + 2 random integer points of bit size
    # <= 4 (K L + 1), K = 2 neurons, L = ceil(log2 n): these pin down the
    # degree-n coefficient span on almost every seed.
    n = 3
    kl = 2 * math.ceil(math.log2(n))
    m = 4 * (kl + n + 1) ** 2 + 2
    bits = 4 * (kl + 1)
    support = monomials_of_degree(n, n)
    hits = 0
    for seed in range(100):
        rng = random.Random(seed)
        points = [
            tuple(rng.randrange(0, 2 ** bits) for _ in range(n)) for _ in range(m)
        ]
        hits += verify_linear_span(points, support)
    assert hits >= 95


TRANSCRIPTS = Path(__file__).parent / "transcripts"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["neural", "train", "--n", "3", "--seed", "4", "--epochs", "200",
          "--learning-rate", "0.05"], "neural_train_n3_seed4.txt"),
        (["neural", "train", "--n", "4", "--seed", "5", "--epochs", "200",
          "--learning-rate", "50", "--batch-size", "10", "--format", "csv"],
         "neural_train_n4_diverged.csv"),
    ],
)
def test_train_output_is_pinned(argv, name, capsys):
    # Loss curve, weights, status and polynomial distance, byte for byte.
    assert main(argv) == 0
    assert capsys.readouterr().out == (TRANSCRIPTS / name).read_text()
