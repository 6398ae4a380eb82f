"""Exact and approximative quiz-game protocols as one-round state machines.

Every mode plays one round.  The quizmaster answers the player's fixed
evaluation questions by running the family circuit at a parameter point;
the player interpolates exactly on a declared support and re-encodes by
the task's post map (the identity, differentiating, integrating, or
repacking vertex values into an elimination/characteristic polynomial),
on the carrier ``families.task_carrier`` gives the reference too; the
quizmaster compares the two encodings coefficient by coefficient.  One player
pass (answers, interpolation, post map) and one judge (``decide_equal``,
transcript) serve every mode, so every mode raises
NonIdentifyingPointsError when the questions do not pin down the support.
The modes differ in the point and the ring only:

* exact: the hidden point over the rationals, against a reference computed
  directly from it;
* approximative, against a target polynomial: a Laurent germ over
  truncated Laurent scalars, taking the termwise value at the origin
  (symbolic mode, the authoritative path), or the germ at each sample of a
  finite schedule, taking the cluster that covers at least half of the
  schedule's tail (numeric mode).  A constant germ reproduces the exact
  game bit for bit;
* fiber sampler: sampled points of a t = 0 fiber, keeping the distinct
  player vectors.

The built-in strategy asks at points fixed by the support alone, with no
random draw (``builtin_strategy``); the first round's elimination is the
only identification check.  The round entries (``run_exact``,
``run_approx``, ``fiber_image``) check a round's input (point, germ and
target arity, fiber base) before that first compile, and are the only
place that checks it.

Because the questions are fixed before the round, a rational round does
integer work only, and so does the symbolic solve.  The strategy carries
its question matrix, compiled once on first use into integer rows
(``Strategy.system``), and each round applies it to the answers: rational
answers as one integer column, Laurent answers as one integer column per
power of e.  The quizmaster answers every question in one
``Circuit.evaluate_points`` call at the integer question points, unlifted:
the hidden point or the germ fixes, once per round, the circuit's
parameter-only values and a denominator for every input-dependent node, and
each question then runs on integers, as numerators over the rationals and
as integer coefficient windows over Laurent scalars, and makes its
Fractions at the output only.  The elimination and charpoly repacks find
the vertex values by Yates's subset sums over either ring, of the cleared
coefficients over the rationals, and multiply out rational roots on
integers.  The verdict
evaluates nothing: it compares the two encodings' nonzero coefficients.

Message order is quizmaster -> player -> quizmaster; questions are fixed up
front, never adaptive.  A transcript's export withholds the hidden point
unless asked for it; two hidden points with the same base polynomial
produce byte-identical exports.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .approx import GermInstance, sequence_from_germ
from .circuit import Circuit
from .errors import (
    ArityMismatchError,
    NoFiberSamplerError,
    NonIdentifyingPointsError,
    NoStableClusterError,
    QuizlabError,
    UnderdeterminedSystemError,
    check_cap,
)
from .exact import RATIONALS, LaurentRing, laurent_limit, rational_to_str
from .families import (
    KRONECKER_DIAG,
    TASK_CHARPOLY,
    TASK_DERIVATIVE,
    TASK_ELIMINATION,
    TASK_IDENTITY,
    TASK_INTEGRAL,
    FamilyDescriptor,
    build_circuit_cached,
    expand_family,
    task_carrier,
    vertex_elimination,
)
from .identify import IdentificationSequence
from .kronecker import build_theta_matrix, char_poly
from .poly import Monomial, Polynomial, from_coeff_vector
from .witness import CompiledSystem, compile_system, evaluation_matrix, solve_exact

# Each task's post map, by the name a transcript's ``post_map:`` line gives it.
POST_MAP_NAMES = {
    TASK_IDENTITY: "identity",
    TASK_DERIVATIVE: "differentiate",
    TASK_INTEGRAL: "integrate",
    TASK_ELIMINATION: "elimination-repack",
    TASK_CHARPOLY: "charpoly-repack",
}

MODE_SYMBOLIC = "symbolic"
MODE_NUMERIC = "numeric"

# Fiber points per image; 10000 samples take about 5 s at hypercube-shift(5).
FIBER_SAMPLES_CAP = 10_000

VERDICT_ACCEPT = "accept"
VERDICT_REJECT = "reject"


@dataclass(frozen=True)
class Strategy:
    """The player's strategy: fixed questions and a declared support.  The
    task, not the strategy, fixes the post map (identity for a raw circuit).

    ``system`` is the questions' evaluation matrix on the support, eliminated
    on first use and kept for every later round; it takes no part in
    equality, hashing or repr.
    """

    question_points: IdentificationSequence
    target_support: tuple[Monomial, ...]

    def __post_init__(self):
        if len(self.target_support) > self.question_points.length:
            raise QuizlabError(
                "need at least as many question points as support monomials"
            )

    @functools.cached_property
    def system(self) -> CompiledSystem:
        matrix = evaluation_matrix(self.question_points.points, self.target_support)
        return compile_system(matrix.entries)


@dataclass(frozen=True)
class ApproxGameConfig:
    """Hidden data for one approximative run.

    Both modes need a germ.  Symbolic mode runs the player over truncated
    Laurent scalars at ``DEFAULT_LAURENT_PRECISION``.  Numeric mode also
    needs a sample schedule of at least 8 epsilon values, substituted into
    the germ; values within ``cluster_tolerance`` of each other are
    clustered when hunting for accumulation candidates.
    """

    germ: GermInstance
    sample_schedule: tuple[Fraction, ...] = ()
    mode: str = MODE_SYMBOLIC
    cluster_tolerance: Fraction = Fraction(0)

    def __post_init__(self):
        if self.mode not in (MODE_SYMBOLIC, MODE_NUMERIC):
            raise QuizlabError(f"unknown mode {self.mode!r}")
        if self.germ is None:
            raise QuizlabError(f"{self.mode} mode requires a germ")
        if self.mode == MODE_NUMERIC and len(self.sample_schedule) < 8:
            raise QuizlabError("numeric mode requires at least 8 samples")
        if self.cluster_tolerance < 0:
            raise QuizlabError(
                f"cluster tolerance must be nonnegative, got {self.cluster_tolerance}"
            )


@dataclass(frozen=True)
class GameTranscript:
    """Full record of one run; ``hidden`` is retained for audit export only."""

    family: str
    mode: str
    strategy_points: tuple[tuple[int, ...], ...]
    strategy_support: tuple[Monomial, ...]
    post_map: str
    quizmaster_message: tuple[str, ...]
    player_support: tuple[Monomial, ...]
    player_message: tuple[str, ...]
    reference_support: tuple[Monomial, ...]
    reference: tuple[str, ...]
    verdict: str
    hidden: tuple | None = None

    def export(self, include_hidden: bool = False) -> str:
        """Structured-text serialization; the quizmaster export redacts hidden."""

        def fmt_tuples(tuples) -> str:
            return ";".join(",".join(str(x) for x in t) for t in tuples)

        lines = [
            "transcript v1",
            f"family: {self.family}",
            f"mode: {self.mode}",
            f"post_map: {self.post_map}",
            f"strategy.points: {fmt_tuples(self.strategy_points)}",
            f"strategy.support: {fmt_tuples(self.strategy_support)}",
            f"quizmaster_message: {';'.join(self.quizmaster_message)}",
            f"player_support: {fmt_tuples(self.player_support)}",
            f"player_message: {';'.join(self.player_message)}",
            f"reference_support: {fmt_tuples(self.reference_support)}",
            f"reference: {';'.join(self.reference)}",
            f"verdict: {self.verdict}",
        ]
        if include_hidden and self.hidden is not None:
            lines.append(
                "hidden: " + ",".join(rational_to_str(Fraction(x)) for x in self.hidden)
            )
        else:
            lines.append("hidden: withheld")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def symmetric_integer_points(count: int) -> tuple[tuple[int, ...], ...]:
    """0, 1, -1, 2, -2, ... as 1-dimensional points; always identifying."""
    points: list[tuple[int, ...]] = [(0,)]
    step = 1
    while len(points) < count:
        points.append((step,))
        if len(points) < count:
            points.append((-step,))
        step += 1
    return tuple(points[:count])


def builtin_strategy(desc: FamilyDescriptor, seed: int = 0) -> Strategy:
    """The library's winning strategy: the base family's generic support,
    asked at points unisolvent for it, so no draw or certificate is needed.

    The powers 1, X, ..., X^(m-1) of one variable take the symmetric points
    0, 1, -1, ...; any m distinct points do.  Every other support takes its
    own exponent vectors:

    * multilinear (hypercube-shift, kronecker-diag): the cube {0,1}^n.  x^T
      is 1 at the point S exactly when T is a subset of S, a unitriangular
      matrix (the zeta transform of the subset lattice);
    * degree below 2^l (easy-power-sum): the principal lattice, a lower set
      and so unisolvent (Chung and Yao, 1977);
    * forms of degree n in n variables (neural-power): the slice |a| = n.
      Setting x_n = n - x_1 - ... - x_(n-1) takes a form vanishing there to
      a polynomial of degree at most n vanishing on the lower set |b| <= n,
      hence zero; a form zero on the plane sum(x) = n is zero everywhere.

    ``seed`` has no effect; it stays for callers that pass it.
    """
    support = desc.base_support()
    if support == tuple([(j,) for j in range(len(support))]):
        points = symmetric_integer_points(len(support))
    else:
        points = support
    return Strategy(
        question_points=IdentificationSequence.from_points(points),
        target_support=support,
    )


# ---------------------------------------------------------------------------
# Player and quizmaster computations
# ---------------------------------------------------------------------------

def player_interpolate(values: Sequence, system: CompiledSystem):
    """Unique exact solution of the evaluation system on the support.

    The questions are fixed before the round, so ``system`` is their matrix
    on the support already compiled (``Strategy.system``); the values, one
    per question, may be rationals or Laurent series.  Raises
    InconsistentSystemError when the values cannot come from the declared
    support, and UnderdeterminedSystemError when the points do not pin down
    the support.
    """
    return solve_exact(system, values)


def _post_polynomial(task: str, f: Polynomial, n_inputs: int) -> Polynomial:
    """The task's post map applied to a polynomial: the player's interpolant
    or the approximative game's target."""
    if task == TASK_IDENTITY:
        return f
    if task == TASK_DERIVATIVE:
        return f.derivative(0)
    if task == TASK_INTEGRAL:
        return f.integral(0)
    return vertex_elimination(f, n_inputs)


def apply_post_map(
    task: str,
    support: Sequence[Monomial],
    coeffs: Sequence,
    n_inputs: int,
    ring=RATIONALS,
) -> tuple[tuple[Monomial, ...], tuple]:
    """The player's re-encoding after interpolation: the task's post map, on
    the carrier ``task_carrier`` gives the declared support."""
    new_support = task_carrier(task, support, n_inputs)
    if task == TASK_IDENTITY:
        return new_support, tuple(coeffs)
    f = from_coeff_vector(support, coeffs, n_inputs, ring)
    return new_support, _post_polynomial(task, f, n_inputs).coeff_vector(new_support)


def reference_encoding(
    desc: FamilyDescriptor, hidden: Sequence[Fraction]
) -> tuple[tuple[Monomial, ...], tuple]:
    """The quizmaster's reference v' computed directly from the hidden point.

    Uses the closed-form family oracle; the characteristic-polynomial task
    goes through the composed matrix and the exact Faddeev-LeVerrier
    recurrence, a route fully independent of the player's product of roots.
    """
    support = desc.task_support()
    if desc.variant == KRONECKER_DIAG and desc.task == TASK_CHARPOLY:
        theta, _ = build_theta_matrix(desc.k, hidden[0], hidden[1:])
        reference_poly = char_poly(theta)
    else:
        reference_poly = expand_family(desc, hidden)
    return support, reference_poly.coeff_vector(support)


def decide_equal(
    f_enc: tuple[Sequence[Monomial], Sequence],
    g_enc: tuple[Sequence[Monomial], Sequence],
    tolerance: Fraction | None = None,
) -> bool:
    """Equality of two encodings, coefficient by coefficient.

    An encoding is a support and one rational coefficient per monomial; a
    monomial outside a support counts as 0, so the encodings are equal
    exactly when their nonzero coefficients agree.  ``tolerance`` switches
    to |f_m - g_m| <= tolerance for every monomial m of either support, the
    per-coefficient reading that numeric mode's cluster step also takes.
    """
    f = {m: c for m, c in zip(*f_enc) if c}
    g = {m: c for m, c in zip(*g_enc) if c}
    if tolerance is None:
        return f == g
    return all(abs(f.get(m, 0) - g.get(m, 0)) <= tolerance for m in f.keys() | g.keys())


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------

# A round builds its support and message tuples from lists, not from
# generators: CPython 3.11 grows a generator's tuple by resizing and frees it
# onto the free list of its final size, which little else drains, so many
# rounds would keep hundreds of kilobytes of dead tuples.
def _format_values(values, ring) -> tuple[str, ...]:
    return tuple([ring.to_str(v) for v in values])


def parameter_point(
    desc: FamilyDescriptor, values: Sequence, what: str = "hidden point"
) -> tuple[Fraction, ...]:
    """``values`` as a point of the family's parameter space, arity checked."""
    point = tuple([Fraction(x) for x in values])
    if len(point) != desc.param_arity:
        raise ArityMismatchError(
            f"{what} must have arity {desc.param_arity}, got {len(point)}"
        )
    return point


def _play(circ: Circuit, strategy: Strategy, task: str, params: Sequence, ring=RATIONALS):
    """The player's pass at one parameter point: the quizmaster's answers,
    the interpolation on the strategy's carried system, and the task's post map.

    The integer question points go in as they are, so the circuit runs
    them on integers over the rationals and over Laurent scalars alike.
    Returns (answers, output support, output vector).
    """
    answers = circ.evaluate_points(params, strategy.question_points.points, ring)
    try:
        coeffs = player_interpolate(answers, strategy.system)
    except UnderdeterminedSystemError as exc:
        raise NonIdentifyingPointsError(str(exc)) from exc
    support, vector = apply_post_map(task, strategy.target_support, coeffs, circ.n_inputs, ring)
    return answers, support, vector


def _judge(
    strategy: Strategy,
    task: str,
    family: str,
    mode: str,
    message: tuple[str, ...],
    player: tuple[tuple[Monomial, ...], tuple],
    reference: tuple[tuple[Monomial, ...], tuple],
    hidden: tuple | None = None,
    tolerance: Fraction | None = None,
) -> GameTranscript:
    """The quizmaster's verdict on the player's encoding, and the transcript.

    Both encodings are coefficient vectors on explicit supports, so the
    verdict compares their nonzero coefficients (``decide_equal``), one rule
    for every mode and arity.  The reference never reads the player's
    questions or compiled system, so the verdict never checks the player
    against itself.
    """
    (support_star, v_star), (support_ref, v_ref) = player, reference
    accepted = decide_equal(player, reference, tolerance)
    return GameTranscript(
        family=family,
        mode=mode,
        strategy_points=strategy.question_points.points,
        strategy_support=strategy.target_support,
        post_map=POST_MAP_NAMES[task],
        quizmaster_message=message,
        player_support=support_star,
        player_message=_format_values(v_star, RATIONALS),
        reference_support=support_ref,
        reference=_format_values(v_ref, RATIONALS),
        verdict=VERDICT_ACCEPT if accepted else VERDICT_REJECT,
        hidden=hidden,
    )


def run_exact(
    desc: FamilyDescriptor,
    hidden: Sequence,
    strategy: Strategy | None = None,
) -> GameTranscript:
    """One exact game round; the task is the descriptor's task."""
    strategy = strategy if strategy is not None else builtin_strategy(desc)
    hidden_point = parameter_point(desc, hidden)
    circ = build_circuit_cached(desc.base())
    answers, support_star, v_star = _play(circ, strategy, desc.task, hidden_point)
    reference = reference_encoding(desc, hidden_point)
    return _judge(
        strategy, desc.task, desc.label(), "exact", _format_values(answers, RATIONALS),
        (support_star, v_star), reference, hidden=hidden_point,
    )


def run_approx(
    desc_or_circuit: FamilyDescriptor | Circuit,
    strategy: Strategy | None,
    config: ApproxGameConfig,
    target: Polynomial,
) -> GameTranscript:
    """One approximative game round against a target polynomial H.

    The descriptor's task is the post map, on the player's interpolant and
    on H alike; a raw circuit takes the identity.  Symbolic mode evaluates
    the whole player pipeline over truncated Laurent scalars and takes the
    termwise value at the origin as the single accumulation candidate; a
    pole in any player coefficient raises NotHolomorphicAtOriginError (the
    boundedness condition fails).  Numeric mode evaluates a finite schedule
    exactly and reports the dominant cluster of the tail half, or raises
    NoStableClusterError.  A target or germ of the wrong arity raises
    ArityMismatchError before the first round compiles the questions.
    """
    if isinstance(desc_or_circuit, FamilyDescriptor):
        desc = desc_or_circuit
        circ = build_circuit_cached(desc.base())
        if strategy is None:
            strategy = builtin_strategy(desc)
        task, label = desc.task, desc.label()
    else:
        circ = desc_or_circuit
        if strategy is None:
            raise QuizlabError("an explicit strategy is required for a raw circuit")
        task, label = TASK_IDENTITY, f"circuit(n={circ.n_inputs},r={circ.n_params})"
    n_inputs = circ.n_inputs
    if target.nvars != n_inputs:
        raise ArityMismatchError(f"target has arity {target.nvars}, circuit needs {n_inputs}")
    g = _post_polynomial(task, target, n_inputs)
    support_ref = g.support()
    reference = support_ref, g.coeff_vector(support_ref)
    if len(config.germ.components) != circ.n_params:
        raise ArityMismatchError(
            f"germ has arity {len(config.germ.components)}, circuit needs {circ.n_params}"
        )

    if config.mode == MODE_SYMBOLIC:
        ring = LaurentRing()
        answers, support_star, laurent_star = _play(
            circ, strategy, task, list(config.germ.components), ring
        )
        v_star = tuple([laurent_limit(c) for c in laurent_star])
        return _judge(
            strategy, task, label, "approx-symbolic", _format_values(answers, ring),
            (support_star, v_star), reference,
        )

    vectors = []
    for u_k in sequence_from_germ(config.germ, config.sample_schedule):
        _, support_star, v_k = _play(circ, strategy, task, u_k)
        vectors.append(v_k)
    tail = vectors[len(vectors) // 2 :]
    tol = config.cluster_tolerance
    best, best_coverage = _dominant_cluster(tail, tol)
    if best is None or 2 * best_coverage < len(tail):
        raise NoStableClusterError(
            f"no cluster covers half of the schedule tail (best {best_coverage}/{len(tail)})"
        )
    message = tuple([";".join(_format_values(vec, RATIONALS)) for vec in vectors])
    return _judge(
        strategy, task, label, "approx-numeric", message,
        (support_star, best), reference, tolerance=tol if tol else None,
    )


def _dominant_cluster(tail: list[tuple], tol: Fraction) -> tuple[tuple | None, int]:
    """The tail vector with the most tail vectors within ``tol`` of it in
    every coordinate, and that count; of equal counts the last candidate
    wins.

    Every vector has the task support's length, so at zero tolerance the
    count is the vector's multiplicity, counted once in a dict whose keys
    move to the end at each occurrence; the winner is then the first
    largest count from the end.  A positive tolerance compares every pair.
    """
    if not tol:
        coverage: dict = {}
        for vec in tail:
            coverage[vec] = coverage.pop(vec, 0) + 1
        best = max(reversed(coverage), key=coverage.__getitem__, default=None)
        return best, coverage.get(best, 0)
    best, best_coverage = None, 0
    for candidate in tail:
        count = sum(
            1 for other in tail if all(abs(x - y) <= tol for x, y in zip(candidate, other))
        )
        if count >= best_coverage:
            best, best_coverage = candidate, count
    return best, best_coverage


def fiber_image(
    desc: FamilyDescriptor,
    strategy: Strategy | None,
    base_point: Sequence,
    samples: int,
    seed: int,
) -> tuple[tuple[Fraction, ...], ...]:
    """Distinct player vectors over a sampled fiber of the base point.

    Every in-scope family degenerates at t = 0: the base polynomial no
    longer depends on the direction parameters, so the whole fiber
    {(0, u)} maps to one quizmaster message and hence one player vector.
    Only such t = 0 bases have a known fiber sampler.
    """
    if samples < 1:
        raise QuizlabError(f"fiber samples must be at least 1, got {samples}")
    check_cap("fiber image", "samples", samples, FIBER_SAMPLES_CAP)
    if parameter_point(desc, base_point, "base point")[0] != 0:
        raise NoFiberSamplerError(
            "no fiber sampler for bases with a nonzero t coordinate"
        )
    strategy = strategy if strategy is not None else builtin_strategy(desc)
    circ = build_circuit_cached(desc.base())
    rng = random.Random(seed)
    seen: set[tuple[Fraction, ...]] = set()
    for _ in range(samples):
        fiber_point = (Fraction(0),) + tuple(
            Fraction(rng.randint(-8, 8)) for _ in range(desc.param_arity - 1)
        )
        seen.add(tuple(_play(circ, strategy, desc.task, fiber_point)[2]))
    return tuple(sorted(seen))
