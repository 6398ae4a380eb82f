"""Exact and approximative quiz-game protocols as one-round state machines.

One exact run: the quizmaster hides a parameter point, answers the player's
fixed evaluation questions about the hidden polynomial by running the
family circuit, the player interpolates exactly on a declared support and
re-encodes (optionally differentiating, integrating, or repacking vertex
values into an elimination/characteristic polynomial), and the quizmaster
compares the player's encoding against a reference encoding computed
directly from the hidden point.  Both encodings are compared by evaluation
at identification points.

The approximative run replaces the hidden point by a Laurent germ (symbolic
mode, the authoritative path: interpolation happens over truncated Laurent
scalars and the answer is the termwise value at the origin) or by a finite
sample schedule (numeric mode: candidate accumulation values are clusters
covering at least half of the schedule's tail).  A constant germ reproduces
the exact game bit for bit.

Because the questions are fixed before the round, a rational round does
integer work only.  The strategy carries its question matrix, compiled once
on first use into integer rows (``Strategy.system``), and each round applies
it to the answers.  The quizmaster answers every question in one
``Circuit.evaluate_points`` call at the integer question points: the hidden
point fixes, once per round, the circuit's parameter-only values and a
denominator for every input-dependent node, and each question then runs on
integers and makes one Fraction, at the output.  The elimination and
charpoly repacks find the vertex values by subset sums of the cleared
coefficients and multiply out their roots on integers.  The verdict clears
each encoding's denominators once and compares cross-multiplied integer
sums point by point; it evaluates at its own identification points and
never through the player's compiled system.

Message order is quizmaster -> player -> quizmaster; questions are fixed up
front, never adaptive.  Transcripts exported by the quizmaster redact the
hidden data; two hidden points with the same base polynomial produce
byte-identical redacted transcripts.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
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
    vertex_elimination,
)
from .identify import IdentificationSequence, sample_sequence, verify_linear_span
from .kronecker import build_theta_matrix, char_poly
from .poly import Monomial, Polynomial, from_coeff_vector
from .witness import (
    CompiledSystem,
    cleared_row,
    compile_system,
    evaluation_matrix,
    monomial_values,
    solve_exact,
)

POST_IDENTITY = "identity"
POST_DIFFERENTIATE = "differentiate"
POST_INTEGRATE = "integrate"
POST_ELIMINATION = "elimination-repack"
POST_CHARPOLY = "charpoly-repack"

TASK_TO_POST = {
    TASK_IDENTITY: POST_IDENTITY,
    TASK_DERIVATIVE: POST_DIFFERENTIATE,
    TASK_INTEGRAL: POST_INTEGRATE,
    TASK_ELIMINATION: POST_ELIMINATION,
    TASK_CHARPOLY: POST_CHARPOLY,
}

MODE_SYMBOLIC = "symbolic"
MODE_NUMERIC = "numeric"

VERDICT_ACCEPT = "accept"
VERDICT_REJECT = "reject"


@dataclass(frozen=True)
class Strategy:
    """The player's strategy: fixed questions, declared support, re-encoding.

    ``system`` is the questions' evaluation matrix on the support, eliminated
    on first use and kept for every later round; it takes no part in
    equality or hashing.
    """

    question_points: IdentificationSequence
    target_support: tuple[Monomial, ...]
    post_map: str = POST_IDENTITY
    _system: CompiledSystem | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.target_support) > self.question_points.length:
            raise QuizlabError(
                "need at least as many question points as support monomials"
            )

    @property
    def system(self) -> CompiledSystem:
        if self._system is None:
            matrix = evaluation_matrix(self.question_points.points, self.target_support)
            object.__setattr__(self, "_system", compile_system(matrix.entries))
        return self._system


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
    hidden_withheld: bool = False

    def export(self, include_hidden: bool = False) -> str:
        """Structured-text serialization; the quizmaster export redacts hidden."""

        def fmt_monos(monos) -> str:
            return ";".join(",".join(str(e) for e in m) for m in monos)

        def fmt_points(points) -> str:
            return ";".join(",".join(str(x) for x in p) for p in points)

        lines = [
            "transcript v1",
            f"family: {self.family}",
            f"mode: {self.mode}",
            f"post_map: {self.post_map}",
            f"strategy.points: {fmt_points(self.strategy_points)}",
            f"strategy.support: {fmt_monos(self.strategy_support)}",
            f"quizmaster_message: {';'.join(self.quizmaster_message)}",
            f"player_support: {fmt_monos(self.player_support)}",
            f"player_message: {';'.join(self.player_message)}",
            f"reference_support: {fmt_monos(self.reference_support)}",
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

    def redacted(self) -> "GameTranscript":
        return replace(self, hidden=None, hidden_withheld=True)


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
    """The library's winning strategy for a family/task.

    Interpolates the base family on its full generic support.  Univariate
    families on the powers 1, X, ..., X^(m-1) use the fixed symmetric points
    0, 1, -1, ..., which identify them as any m distinct points do.  Other
    univariate supports (X alone for neural-power n=1) use 1, 2, ..., m: a
    matrix of distinct powers at distinct positive points is nonsingular,
    and the linear-span certificate checks it.  Multivariate families draw
    points from a small box and re-draw (deterministically) until the
    certificate passes.
    """
    base = desc.base()
    support = base.base_support()
    m = len(support)
    if base.input_arity == 1 and support == tuple([(j,) for j in range(m)]):
        points = IdentificationSequence.from_points(
            symmetric_integer_points(m), source_set_size=0, seed=None
        )
    elif base.input_arity == 1:
        points = IdentificationSequence.from_points(
            [(x,) for x in range(1, m + 1)], source_set_size=0, seed=None
        )
        if not verify_linear_span(points, support):
            raise QuizlabError("could not find identifying question points")
    else:
        box = max(4 * m, 8)
        attempt = 0
        while True:
            candidate = sample_sequence(base.input_arity, m, box, seed + attempt)
            if verify_linear_span(candidate, support):
                points = candidate
                break
            attempt += 1
            if attempt > 64:
                raise QuizlabError("could not find identifying question points")
    return Strategy(
        question_points=points,
        target_support=support,
        post_map=TASK_TO_POST[desc.task],
    )


# ---------------------------------------------------------------------------
# Player and quizmaster computations
# ---------------------------------------------------------------------------

def player_interpolate(
    values: Sequence,
    points: IdentificationSequence | Sequence[Sequence[int]],
    support: Sequence[Monomial],
    system: CompiledSystem | None = None,
):
    """Unique exact solution of the evaluation system on the support.

    The system matrix is rational (integer points); the values may be
    rationals or Laurent series.  Raises InconsistentSystemError when the
    values cannot come from the declared support, and
    UnderdeterminedSystemError when the points do not pin down the support.
    The questions are fixed before the round: ``system`` is their matrix
    already compiled (``Strategy.system``); without it, solve_exact
    eliminates the matrix once and later calls only apply the compiled map.
    """
    pts = points.points if isinstance(points, IdentificationSequence) else points
    if len(values) != len(pts):
        raise ArityMismatchError("one value per question point required")
    if system is None:
        system = evaluation_matrix(pts, support).entries
    return solve_exact(system, list(values))


def _answers(circ: Circuit, params: Sequence, strategy: Strategy, ring=RATIONALS) -> list:
    """The quizmaster's answers to the strategy's questions at ``params``.

    Over the rationals the integer question points go in as they are, so
    the circuit runs them on integers; other rings get them lifted.
    """
    points = strategy.question_points.points
    if ring is not RATIONALS:
        points = [[ring.from_rational(x) for x in p] for p in points]
    return circ.evaluate_points(params, points, ring)


def _interpolate(strategy: Strategy, values: Sequence) -> list:
    """The player's interpolation on the strategy's carried system."""
    return player_interpolate(
        values, strategy.question_points, strategy.target_support, strategy.system
    )


def _post_polynomial(post: str, f: Polynomial, n_inputs: int) -> Polynomial:
    """The task's post map applied to a polynomial: the player's interpolant
    or the approximative game's target."""
    if post == POST_IDENTITY:
        return f
    if post == POST_DIFFERENTIATE:
        return f.derivative(0)
    if post == POST_INTEGRATE:
        return f.integral(0)
    if post in (POST_ELIMINATION, POST_CHARPOLY):
        return vertex_elimination(f, n_inputs)
    raise QuizlabError(f"unknown post map {post!r}")


def _post_support(
    post: str, support: Sequence[Monomial], n_inputs: int
) -> tuple[Monomial, ...]:
    """The carrier of the post map's output, fixed by the declared support."""
    if post == POST_IDENTITY:
        return tuple([tuple(m) for m in support])
    if post == POST_DIFFERENTIATE:
        return tuple([(j,) for j in range(max(len(support) - 1, 1))])
    if post == POST_INTEGRATE:
        return tuple([(j,) for j in range(1, len(support) + 1)])
    if post in (POST_ELIMINATION, POST_CHARPOLY):
        return tuple([(j,) for j in range(2 ** n_inputs + 1)])
    raise QuizlabError(f"unknown post map {post!r}")


def apply_post_map(
    post: str,
    support: Sequence[Monomial],
    coeffs: Sequence,
    n_inputs: int,
    ring=RATIONALS,
) -> tuple[tuple[Monomial, ...], tuple]:
    """The player's re-encoding after interpolation."""
    new_support = _post_support(post, support, n_inputs)
    if post == POST_IDENTITY:
        return new_support, tuple(coeffs)
    f = from_coeff_vector(support, coeffs, n_inputs, ring)
    return new_support, _post_polynomial(post, f, n_inputs).coeff_vector(new_support)


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


@functools.lru_cache(maxsize=64)
def _monomial_rows(points: tuple, support: tuple) -> tuple[tuple, ...]:
    """Each point's monomial values over the support, as tuples no caller
    can change.  A strategy's verdict uses the same points and supports in
    every round, so the rows are cached."""
    return tuple([tuple(monomial_values(point, support)) for point in points])


def decide_equal(
    f_enc: tuple[Sequence[Monomial], Sequence],
    g_enc: tuple[Sequence[Monomial], Sequence],
    points: IdentificationSequence | Sequence[Sequence[int]],
    tolerance: Fraction | None = None,
) -> bool:
    """Equality of two encodings by evaluation at identification points.

    With identifying points this decides polynomial equality; with
    arbitrary points the test is one-sided (False is conclusive, True is
    not).  ``tolerance`` switches to |lhs - rhs| <= tolerance per point,
    used only by the numeric approximative mode.

    Coefficients are rationals (int or Fraction).  Each
    encoding is cleared once to integer coefficients F / f and G / g, so
    lhs = L / f and rhs = R / g with L and R sums of monomial values
    (integers at an integer point), and the test is L g = R f, or
    b |L g - R f| <= a f g for a tolerance a / b.  The points are evaluated
    here, never through the player's compiled system, so the verdict does
    not check the player against itself; their monomial values are cached
    per (points, support).
    """
    pts = points.points if isinstance(points, IdentificationSequence) else points
    # The keys are built from lists, as in every round (see _format_values).
    pts = tuple([tuple(p) for p in pts])
    (f_support, f_coeffs), (g_support, g_coeffs) = f_enc, g_enc
    f, big_f = cleared_row(f_coeffs)
    g, big_g = cleared_row(g_coeffs)
    if tolerance is not None:
        tolerance = Fraction(tolerance)
        a, b = tolerance.numerator, tolerance.denominator
    f_rows = _monomial_rows(pts, tuple([tuple(m) for m in f_support]))
    g_rows = _monomial_rows(pts, tuple([tuple(m) for m in g_support]))
    for f_row, g_row in zip(f_rows, g_rows):
        left = sum(c * m for c, m in zip(big_f, f_row) if c) * g
        right = sum(c * m for c, m in zip(big_g, g_row) if c) * f
        if tolerance is None:
            if left != right:
                return False
        elif b * abs(left - right) > a * f * g:
            return False
    return True


def _verdict_points(
    strategy: Strategy,
    support_star: Sequence[Monomial],
    support_ref: Sequence[Monomial],
) -> Sequence[Sequence[int]]:
    """Identification points for the output carrier comparison."""
    arity = len(support_star[0]) if support_star else 1
    if arity == 1:
        degree = 0
        for mono in tuple(support_star) + tuple(support_ref):
            degree = max(degree, mono[0])
        return symmetric_integer_points(degree + 1)
    return strategy.question_points.points


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------

# A round builds its support and message tuples from lists, not from
# generators: CPython 3.11 grows a generator's tuple by resizing and frees it
# onto the free list of its final size, which little else drains, so many
# rounds would keep hundreds of kilobytes of dead tuples.
def _format_values(values, ring) -> tuple[str, ...]:
    return tuple([ring.to_str(v) for v in values])


def run_exact(
    desc: FamilyDescriptor,
    hidden: Sequence,
    strategy: Strategy | None = None,
) -> GameTranscript:
    """One exact game round; the task is the descriptor's task."""
    strategy = strategy if strategy is not None else builtin_strategy(desc)
    if strategy.post_map != TASK_TO_POST[desc.task]:
        raise QuizlabError(
            f"strategy post map {strategy.post_map!r} does not realize task {desc.task!r}"
        )
    hidden_point = tuple(Fraction(x) for x in hidden)
    if len(hidden_point) != desc.param_arity:
        raise ArityMismatchError(
            f"hidden point must have arity {desc.param_arity}, got {len(hidden_point)}"
        )
    values = _answers(build_circuit_cached(desc.base()), hidden_point, strategy)
    try:
        coeffs = _interpolate(strategy, values)
    except UnderdeterminedSystemError as exc:
        raise NonIdentifyingPointsError(str(exc)) from exc
    support_star, v_star = apply_post_map(
        strategy.post_map, strategy.target_support, coeffs, desc.input_arity
    )
    support_ref, v_ref = reference_encoding(desc, hidden_point)
    check_points = _verdict_points(strategy, support_star, support_ref)
    accepted = decide_equal((support_star, v_star), (support_ref, v_ref), check_points)
    return GameTranscript(
        family=desc.label(),
        mode="exact",
        strategy_points=strategy.question_points.points,
        strategy_support=strategy.target_support,
        post_map=strategy.post_map,
        quizmaster_message=_format_values(values, RATIONALS),
        player_support=support_star,
        player_message=_format_values(v_star, RATIONALS),
        reference_support=support_ref,
        reference=_format_values(v_ref, RATIONALS),
        verdict=VERDICT_ACCEPT if accepted else VERDICT_REJECT,
        hidden=hidden_point,
    )


def _target_task_encoding(
    target: Polynomial, post: str, n_inputs: int
) -> tuple[tuple[Monomial, ...], tuple]:
    """Apply the game's task to the target polynomial H."""
    g = _post_polynomial(post, target, n_inputs)
    support = g.support()
    return support, g.coeff_vector(support)


def run_approx(
    desc_or_circuit: FamilyDescriptor | Circuit,
    strategy: Strategy | None,
    config: ApproxGameConfig,
    target: Polynomial,
) -> GameTranscript:
    """One approximative game round against a target polynomial H.

    Symbolic mode evaluates the whole player pipeline over truncated
    Laurent scalars and takes the termwise value at the origin as the
    single accumulation candidate; a pole in any player coefficient raises
    NotHolomorphicAtOriginError (the boundedness condition fails).  Numeric
    mode evaluates a finite schedule exactly and reports the dominant
    cluster of the tail half, or raises NoStableClusterError.
    """
    if isinstance(desc_or_circuit, FamilyDescriptor):
        desc = desc_or_circuit
        circ = build_circuit_cached(desc.base())
        if strategy is None:
            strategy = builtin_strategy(desc)
        n_inputs = desc.input_arity
        label = desc.label()
        post = TASK_TO_POST[desc.task]
    else:
        desc = None
        circ = desc_or_circuit
        if strategy is None:
            raise QuizlabError("an explicit strategy is required for a raw circuit")
        n_inputs = circ.n_inputs
        label = f"circuit(n={circ.n_inputs},r={circ.n_params})"
        post = strategy.post_map
    if strategy.post_map != post:
        raise QuizlabError("strategy post map does not realize the requested task")
    support_ref, v_ref = _target_task_encoding(target, post, n_inputs)

    if config.mode == MODE_SYMBOLIC:
        germ = config.germ
        if len(germ.components) != circ.n_params:
            raise ArityMismatchError(
                f"germ has arity {len(germ.components)}, circuit needs {circ.n_params}"
            )
        ring = LaurentRing()
        values = _answers(circ, list(germ.components), strategy, ring)
        coeffs = _interpolate(strategy, values)
        support_star, laurent_star = apply_post_map(
            post, strategy.target_support, coeffs, n_inputs, ring
        )
        v_star = tuple([laurent_limit(c) for c in laurent_star])
        check_points = _verdict_points(strategy, support_star, support_ref)
        accepted = decide_equal(
            (support_star, v_star), (support_ref, v_ref), check_points
        )
        message = _format_values(values, ring)
        mode = "approx-symbolic"
        hidden = None
    else:
        sequence = sequence_from_germ(config.germ, config.sample_schedule)
        vectors = []
        for u_k in sequence:
            coeffs_k = _interpolate(strategy, _answers(circ, u_k, strategy))
            _, v_k = apply_post_map(post, strategy.target_support, coeffs_k, n_inputs)
            vectors.append(tuple(v_k))
        tail = vectors[len(vectors) // 2 :]
        tol = config.cluster_tolerance

        def close(a, b) -> bool:
            # Every vector has the task support's length, so zero tolerance
            # is plain equality.
            if not tol:
                return a == b
            return all(abs(x - y) <= tol for x, y in zip(a, b))

        best_index, best_coverage = None, 0
        for i, candidate in enumerate(tail):
            coverage = sum(1 for other in tail if close(candidate, other))
            if coverage >= best_coverage:
                best_index, best_coverage = i, coverage
        if best_index is None or 2 * best_coverage < len(tail):
            raise NoStableClusterError(
                f"no cluster covers half of the schedule tail (best {best_coverage}/{len(tail)})"
            )
        v_star = tail[best_index]
        support_star = _post_support(post, strategy.target_support, n_inputs)
        check_points = _verdict_points(strategy, support_star, support_ref)
        accepted = decide_equal(
            (support_star, v_star),
            (support_ref, v_ref),
            check_points,
            tolerance=tol if tol else None,
        )
        message = tuple(
            ";".join(rational_to_str(x) for x in vec) for vec in vectors
        )
        mode = "approx-numeric"
        hidden = None

    return GameTranscript(
        family=label,
        mode=mode,
        strategy_points=strategy.question_points.points,
        strategy_support=strategy.target_support,
        post_map=post,
        quizmaster_message=tuple(message),
        player_support=support_star,
        player_message=tuple([rational_to_str(Fraction(x)) for x in v_star]),
        reference_support=support_ref,
        reference=tuple([rational_to_str(Fraction(x)) for x in v_ref]),
        verdict=VERDICT_ACCEPT if accepted else VERDICT_REJECT,
        hidden=hidden,
    )


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
    base = tuple(Fraction(x) for x in base_point)
    if len(base) != desc.param_arity:
        raise ArityMismatchError(
            f"base point must have arity {desc.param_arity}, got {len(base)}"
        )
    if base[0] != 0:
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
        coeffs = _interpolate(strategy, _answers(circ, fiber_point, strategy))
        _, v = apply_post_map(
            strategy.post_map, strategy.target_support, coeffs, desc.input_arity
        )
        seen.add(tuple(v))
    return tuple(sorted(seen))
