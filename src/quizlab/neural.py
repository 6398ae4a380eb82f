"""Two-layer polynomial-activation network: forward, backprop, training.

The network computes t * (u . x)^n from the weight vector (t, u_1..u_n):
two neurons, with activations Y^n and Y.  This is the package's only
floating-point module; it exists to run the gradient-descent experiment
whose exact counterpart lives in the family oracle.  Gradients are
analytic, validated against central differences; training is plain
full-batch gradient descent on mean squared error, deterministic per seed.
No pass/fail is attached to convergence: the point of the experiment is
qualitative, and the exact rank witnesses carry the actual lower bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .approx import coefficient_distance
from .errors import ArityMismatchError, QuizlabError, check_cap
from .families import expand_family, neural_power

DIVERGENCE_LIMIT = 1e12
# Gradient steps per run; 100000 epochs take about 7 s at n = 6 on a batch of 20.
EPOCHS_CAP = 100_000
# Points per batch, and the points a training run visits (epochs x batch
# size): every epochs value up to EPOCHS_CAP stays open at the default batch
# of 20.  At n = 6 the work cap takes about 5 s, and a gradient check on
# the largest batch about 2 s.
BATCH_SIZE_CAP = 100_000
TRAINING_WORK_CAP = 2_000_000
WEIGHT_ROUNDING_DENOMINATOR = 10 ** 6


@dataclass(frozen=True)
class PolyActivationNet:
    """n inputs; weights (t, u_1..u_n) as double-precision reals."""

    n: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise QuizlabError("need at least one input, n >= 1")
        if len(self.weights) != self.n + 1:
            raise ArityMismatchError(
                f"weight vector must have length {self.n + 1}, got {len(self.weights)}"
            )


def forward(net: PolyActivationNet, x: Sequence[float]) -> float:
    """t * (u . x)^n."""
    if len(x) != net.n:
        raise ArityMismatchError(f"input must have length {net.n}, got {len(x)}")
    t, u = net.weights[0], net.weights[1:]
    inner = sum(ui * xi for ui, xi in zip(u, x))
    return t * inner ** net.n


def loss(net: PolyActivationNet, batch: Sequence[Sequence[float]], targets: Sequence[float]) -> float:
    """Mean squared error over the batch."""
    return sum((forward(net, x) - y) ** 2 for x, y in zip(batch, targets)) / len(batch)


def gradient(
    net: PolyActivationNet,
    batch: Sequence[Sequence[float]],
    targets: Sequence[float],
) -> tuple[float, ...]:
    """Analytic gradient of the mean squared error.

    With f = t * s^n, s = u . x:  d/dt = mean 2 (f - y) s^n and
    d/du_j = mean 2 (f - y) t n s^(n-1) x_j.
    """
    return _loss_and_gradient(net, batch, targets)[1]


def _loss_and_gradient(
    net: PolyActivationNet,
    batch: Sequence[Sequence[float]],
    targets: Sequence[float],
) -> tuple[float, tuple[float, ...]]:
    """``loss`` and ``gradient`` from one forward evaluation per sample, with
    the same float operations in the same order as ``loss`` takes."""
    if not batch:
        raise QuizlabError("batch must be nonempty")
    n = net.n
    t, u = net.weights[0], net.weights[1:]
    squares = []
    grad = [0.0] * (n + 1)
    for x, y in zip(batch, targets):
        if len(x) != n:
            raise ArityMismatchError(f"input must have length {n}, got {len(x)}")
        s = sum(ui * xi for ui, xi in zip(u, x))
        power = s ** n
        f = t * power
        squares.append((f - y) ** 2)
        residual = 2.0 * (f - y)
        grad[0] += residual * power
        common = residual * t * n * s ** (n - 1)
        for j in range(n):
            grad[j + 1] += common * x[j]
    m = len(batch)
    return sum(squares) / m, tuple(g / m for g in grad)


def finite_diff_check(
    net: PolyActivationNet,
    batch: Sequence[Sequence[float]],
    targets: Sequence[float],
    h: float = 1e-5,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The denominator max(1, |analytic|) makes the measure fall back to an
    absolute error near zero-gradient points.
    """
    if h <= 0:
        raise QuizlabError("step must be positive")
    analytic = gradient(net, batch, targets)
    worst = 0.0
    for j in range(net.n + 1):
        bumped_up = list(net.weights)
        bumped_down = list(net.weights)
        bumped_up[j] += h
        bumped_down[j] -= h
        numeric = (
            loss(PolyActivationNet(net.n, tuple(bumped_up)), batch, targets)
            - loss(PolyActivationNet(net.n, tuple(bumped_down)), batch, targets)
        ) / (2 * h)
        err = abs(analytic[j] - numeric) / max(1.0, abs(analytic[j]))
        worst = max(worst, err)
    return worst


@dataclass(frozen=True)
class TrainConfig:
    """Full-batch gradient-descent run description.

    When ``target_weights`` is given, targets are generated by the network
    at those weights; otherwise explicit ``targets`` must be supplied.
    """

    n: int
    learning_rate: float
    epochs: int
    batch: tuple[tuple[float, ...], ...]
    seed: int = 0
    targets: tuple[float, ...] | None = None
    target_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise QuizlabError("need at least one input, n >= 1")
        if self.learning_rate < 0:
            raise QuizlabError("learning rate must be nonnegative")
        if self.epochs < 1:
            raise QuizlabError("need at least one epoch")
        check_cap("training", "epochs", self.epochs, EPOCHS_CAP)
        check_cap(
            "training", "epochs*batch_size", self.epochs * len(self.batch), TRAINING_WORK_CAP
        )
        if not self.batch:
            raise QuizlabError("batch must be nonempty")
        if self.targets is None and self.target_weights is None:
            raise QuizlabError("either targets or target_weights must be given")
        if self.target_weights is not None:
            # The exact distance at the end expands neural-power(n): hold n
            # to its desk cap before training, not after.
            neural_power(self.n)


@dataclass(frozen=True)
class TrainReport:
    loss_curve: tuple[float, ...]
    final_weights: tuple[float, ...]
    status: str  # "completed" | "diverged"
    final_poly_distance: Fraction | None

    def curve_csv(self) -> str:
        lines = ["epoch,loss"]
        for epoch, value in enumerate(self.loss_curve):
            lines.append(f"{epoch},{value!r}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"status: {self.status}",
            "final_weights: " + ",".join(repr(w) for w in self.final_weights),
            f"epochs_recorded: {len(self.loss_curve)}",
            f"final_loss: {self.loss_curve[-1]!r}",
        ]
        if self.final_poly_distance is not None:
            lines.append(f"final_poly_distance: {self.final_poly_distance}")
        return "\n".join(lines) + "\n"


def random_batch(n: int, size: int, seed: int) -> tuple[tuple[float, ...], ...]:
    """Sample points uniformly from [-1, 1]^n, reproducible per seed; a size
    over ``BATCH_SIZE_CAP`` is refused before any draw."""
    check_cap("batch", "size", size, BATCH_SIZE_CAP)
    rng = random.Random(seed)
    return tuple(
        tuple(rng.uniform(-1.0, 1.0) for _ in range(n)) for _ in range(size)
    )


def rounded_weight_fractions(weights: Sequence[float]) -> tuple[Fraction, ...]:
    """Snap weights to the declared rational grid (10^-6) for exact work."""
    return tuple(
        Fraction(round(w * WEIGHT_ROUNDING_DENOMINATOR), WEIGHT_ROUNDING_DENOMINATOR)
        for w in weights
    )


def polynomial_distance(n: int, weights_a: Sequence[float], weights_b: Sequence[float]) -> Fraction:
    """Exact max-abs coefficient distance between the two target functions.

    Both weight vectors are rounded to the rational grid first, then pushed
    through the exact family expansion, so the distance is a statement
    about polynomials, not about floats.
    """
    desc = neural_power(n)
    return coefficient_distance(
        expand_family(desc, rounded_weight_fractions(weights_a)),
        expand_family(desc, rounded_weight_fractions(weights_b)),
    )


def train(config: TrainConfig) -> TrainReport:
    """Plain gradient descent; per-epoch loss recorded; divergence is a
    terminal status, not an exception."""
    rng = random.Random(config.seed)
    weights = tuple(rng.uniform(-1.0, 1.0) for _ in range(config.n + 1))
    if config.target_weights is not None:
        target_net = PolyActivationNet(config.n, tuple(config.target_weights))
        targets = tuple(forward(target_net, x) for x in config.batch)
    else:
        targets = tuple(config.targets)
    net = PolyActivationNet(config.n, weights)
    current, grad = _loss_and_gradient(net, config.batch, targets)
    curve = [current]
    status = "completed"
    for _ in range(config.epochs):
        weights = tuple(w - config.learning_rate * g for w, g in zip(net.weights, grad))
        net = PolyActivationNet(config.n, weights)
        current, grad = _loss_and_gradient(net, config.batch, targets)
        curve.append(current)
        if not math.isfinite(current) or current > DIVERGENCE_LIMIT:
            status = "diverged"
            break
    distance = None
    if config.target_weights is not None and status == "completed":
        distance = polynomial_distance(config.n, net.weights, config.target_weights)
    return TrainReport(
        loss_curve=tuple(curve),
        final_weights=net.weights,
        status=status,
        final_poly_distance=distance,
    )
