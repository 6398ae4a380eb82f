"""The benchmark's three workloads: op kinds, seeded inputs and answer checks.

Each workload is a fixed round-robin of op kinds.  A run draws a pool of
inputs, ``pool_size`` per kind, from its seed and plays the pool over and
over.  A kind draws its input from the run's random stream, runs the op
against the package, renders the output as canonical bytes (for the run
digest and the determinism check) and checks the answer by a route the
package already provides.  Inputs stay inside the README desk caps.  Every kind belongs to class ``a`` or
``b``; each class has its own throughput metric, so a gain on one class
cannot hide a loss on the other.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable

from checkout import ROOT, STATE_DIR, child_env
from quizlab import families, identify, kronecker, protocol, witness
from quizlab.approx import GermInstance
from quizlab.families import (
    TASK_CHARPOLY,
    TASK_DERIVATIVE,
    TASK_ELIMINATION,
    TASK_INTEGRAL,
    easy_power_sum,
    hypercube_shift,
    kronecker_diag,
    neural_power,
    univariate_d,
)
from quizlab.protocol import MODE_NUMERIC, MODE_SYMBOLIC, ApproxGameConfig
from quizlab.witness import VARIANT_INTEGRAL

# Package functions are called through their module (``protocol.run_exact``)
# so that a traced run's wrappers, installed on the module, see these calls.
LAUNCHER = ROOT / "perfbench" / "launcher.py"
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Kind:
    """One op kind of a workload's round-robin."""

    name: str
    group: str
    make_input: Callable[[random.Random], Any]
    run: Callable[[Any, Any], Any]
    canonical: Callable[[Any], bytes]
    check: Callable[[Any, Any, Any], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[Kind, ...]
    prepare: Callable[[int], Any]
    warm_up: bool
    classes: tuple[str, str]  # what class a and class b ops are
    pool_size: int  # inputs per kind


def setup(workload: Workload, seed: int):
    """Program-side set-up: prepare, then one untimed op per kind if asked."""
    state = workload.prepare(seed)
    if workload.warm_up:
        rng = random.Random(f"warm-up {seed}")
        for kind in workload.kinds:
            kind.run(state, kind.make_input(rng))
    return state


def op_pool(workload: Workload, seed: int, size: int | None = None) -> list:
    """The run's (kind, input) pool in round-robin order, from the seed alone:
    ``size`` inputs per kind, by default the workload's ``pool_size``."""
    rng = random.Random(seed)
    return [
        (kind, kind.make_input(rng))
        for _ in range(size or workload.pool_size)
        for kind in workload.kinds
    ]


def _fraction(rng: random.Random) -> Fraction:
    # |numerator| and denominator at most 9, as in acceptance criterion 4.
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _point(arity: int):
    return lambda rng: tuple(_fraction(rng) for _ in range(arity))


# ---------------------------------------------------------------------------
# games: one op is one game round
# ---------------------------------------------------------------------------

EXACT_FAMILIES = (
    univariate_d(16),
    univariate_d(16, TASK_DERIVATIVE),
    univariate_d(16, TASK_INTEGRAL),
    easy_power_sum(2, 2),
    neural_power(3),
    hypercube_shift(3, TASK_ELIMINATION),
    kronecker_diag(3, TASK_CHARPOLY),
)
SYMBOLIC_FAMILIES = (
    univariate_d(8),
    easy_power_sum(2, 2),
    hypercube_shift(2, TASK_ELIMINATION),
)
NUMERIC_FAMILY = hypercube_shift(2, TASK_ELIMINATION)
SAMPLE_SCHEDULE = tuple(Fraction(1, 2 ** k) for k in range(1, 13))


def _nonzero(support, message) -> dict:
    return {tuple(m): Fraction(v) for m, v in zip(support, message) if Fraction(v)}


def _check_round(state, hidden, transcript) -> bool:
    """Accepted, and the player's vector equals the quizmaster's reference."""
    return transcript.verdict == "accept" and _nonzero(
        transcript.player_support, transcript.player_message
    ) == _nonzero(transcript.reference_support, transcript.reference)


def _transcript_bytes(transcript) -> bytes:
    return transcript.export(include_hidden=True).encode()


def _exact_round(desc) -> Kind:
    return Kind(
        name=f"exact {desc.label()}",
        group="a",
        make_input=_point(desc.param_arity),
        run=lambda strategies, hidden: protocol.run_exact(desc, hidden, strategy=strategies[desc]),
        canonical=_transcript_bytes,
        check=_check_round,
    )


def _approx_round(desc, mode: str) -> Kind:
    def run(strategies, hidden):
        config = ApproxGameConfig(
            germ=GermInstance.constant(hidden), mode=mode, sample_schedule=SAMPLE_SCHEDULE
        )
        target = families.expand_family(desc.base(), hidden)
        return protocol.run_approx(desc, strategies[desc], config, target)

    return Kind(
        name=f"approx-{mode} {desc.label()}",
        group="b",
        make_input=_point(desc.param_arity),
        run=run,
        canonical=_transcript_bytes,
        check=_check_round,
    )


def _build_strategies(seed: int) -> dict:
    families = EXACT_FAMILIES + SYMBOLIC_FAMILIES + (NUMERIC_FAMILY,)
    return {desc: protocol.builtin_strategy(desc, seed=seed) for desc in families}


GAMES = Workload(
    name="games",
    kinds=tuple(_exact_round(desc) for desc in EXACT_FAMILIES)
    + tuple(_approx_round(desc, MODE_SYMBOLIC) for desc in SYMBOLIC_FAMILIES)
    + (_approx_round(NUMERIC_FAMILY, MODE_NUMERIC),),
    prepare=_build_strategies,
    warm_up=True,
    classes=("exact rounds", "approximative rounds"),
    pool_size=10,
)


# ---------------------------------------------------------------------------
# algebra: one op is one certificate
# ---------------------------------------------------------------------------

LEMMA_K = 4
SPAN_POINTS = 258  # 4 (K L + n + 1)^2 + 2 for the neural-power n=3 support
SPAN_SUPPORT = neural_power(3).base_support()
RANK_PRIME = 2 ** 61 - 1


def _report_kind(desc, expected: int) -> Kind:
    def check(state, trial_seed, report) -> bool:
        # A rank below K is a legitimate non-generic draw, not a wrong answer.
        (rank,) = report.achieved_ranks
        return (
            report.expected_rank == expected
            and report.trials == 1
            and report.seeds == (trial_seed * 1_000_003,)
            and 0 <= rank <= expected
            and report.success_count == int(rank == expected)
        )

    return Kind(
        name=f"lower_bound_report {desc.label()}",
        group="a",
        make_input=lambda rng: rng.randrange(2 ** 31),
        run=lambda state, trial_seed: witness.lower_bound_report(desc, trials=1, seed=trial_seed),
        canonical=lambda report: report.to_text().encode(),
        check=check,
    )


def _check_lemma(state, inputs, triple) -> bool:
    s, u = inputs
    theta, _ = kronecker.build_theta_matrix(LEMMA_K, s, u)
    reference = families.elimination_poly(LEMMA_K, s, u)
    return triple == (True, True, True) and kronecker.char_poly(theta) == reference


def _rank_mod_p(rows) -> int:
    """Rank over F_p; it never exceeds the rank over the rationals."""
    grid = [[x % RANK_PRIME for x in row] for row in rows]
    rank = 0
    for col in range(len(grid[0])):
        pivot = next((r for r in range(rank, len(grid)) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        inv = pow(grid[rank][col], -1, RANK_PRIME)
        for r in range(rank + 1, len(grid)):
            factor = grid[r][col] * inv % RANK_PRIME
            if factor:
                grid[r] = [(a - factor * b) % RANK_PRIME for a, b in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def _check_span(state, points, passed) -> bool:
    rows = [[math.prod(x ** e for x, e in zip(p, m)) for m in SPAN_SUPPORT] for p in points]
    return passed or _rank_mod_p(rows) < len(SPAN_SUPPORT)


ROOTS_KIND = Kind(
    name="roots_of_unity_rank integral",
    group="a",
    make_input=lambda rng: rng.randint(16, 31),
    run=lambda state, d: witness.roots_of_unity_rank(d, VARIANT_INTEGRAL),
    canonical=lambda rank: str(rank).encode(),
    check=lambda state, d, rank: rank == d + 1,
)

# Seven slots, with the cheap roots-of-unity kind twice, so that the median
# and the 90th percentile fall inside one kind's latencies rather than on
# the edge between two kinds.
ALGEBRA = Workload(
    name="algebra",
    kinds=(
        _report_kind(easy_power_sum(2, 3), math.comb(2 ** 2 - 1 + 3, 3)),
        ROOTS_KIND,
        _report_kind(neural_power(4), math.comb(2 * 4 - 1, 4 - 1)),
        Kind(
            name=f"verify_lemma_identities k={LEMMA_K}",
            group="b",
            make_input=lambda rng: (_fraction(rng), _point(LEMMA_K)(rng)),
            run=lambda state, inputs: kronecker.verify_lemma_identities(LEMMA_K, *inputs),
            canonical=lambda triple: repr(triple).encode(),
            check=_check_lemma,
        ),
        _report_kind(hypercube_shift(4), 2 ** 4),
        ROOTS_KIND,
        Kind(
            name="verify_linear_span neural-power n=3",
            group="a",
            make_input=lambda rng: tuple(
                tuple(rng.randrange(2 ** 12) for _ in range(3)) for _ in range(SPAN_POINTS)
            ),
            run=lambda state, points: identify.verify_linear_span(points, SPAN_SUPPORT),
            canonical=lambda passed: repr(passed).encode(),
            check=_check_span,
        ),
    ),
    prepare=lambda seed: None,
    warm_up=True,
    classes=("rank certificates", "Faddeev-LeVerrier certificates"),
    pool_size=5,
)


# ---------------------------------------------------------------------------
# cli: one op is one fresh `python -m quizlab.cli` child
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliState:
    env: dict
    spans_path: str | None = None  # set for traced children


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


def run_child(state: CliState, argv) -> CliResult:
    """One command in a fresh interpreter: the real entry point, or the
    tracing launcher when the state names a spans file."""
    if state.spans_path is None:
        command = [sys.executable, "-m", "quizlab.cli", *argv]
    else:
        command = [sys.executable, str(LAUNCHER), state.spans_path, *argv]
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=state.env,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    return CliResult(done.returncode, done.stdout, done.stderr)


def _rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _vector(values) -> str:
    return ",".join(_rational(q) for q in values)


def _points(points) -> str:
    return ";".join(",".join(str(x) for x in p) for p in points)


def _idseq_argv(rng: random.Random) -> list[str]:
    support = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    points = [(rng.randrange(16), rng.randrange(16)) for _ in range(8)]
    return ["idseq", "verify", f"--points={_points(points)}", f"--support={_points(support)}"]


def _cli_kind(name: str, group: str, make_argv, must_contain: bytes = b"") -> Kind:
    # Values go as --flag=value: argparse takes a lone "-3/4" for an option.
    def check(state, argv, result) -> bool:
        return result.returncode == 0 and not result.stderr and must_contain in result.stdout

    return Kind(
        name=name,
        group=group,
        make_input=make_argv,
        run=run_child,
        canonical=lambda r: b"exit %d\n" % r.returncode + r.stdout + r.stderr,
        check=check,
    )


ACCEPT = b"\nverdict: accept\n"

CLI = Workload(
    name="cli",
    kinds=(
        _cli_kind(
            "game exact easy-power-sum",
            "a",
            lambda rng: ["game", "exact", "--family=easy-power-sum", "--l=2", "--n=2",
                         f"--hidden={_vector(_point(3)(rng))}", f"--seed={rng.randrange(1000)}"],
            ACCEPT,
        ),
        _cli_kind(
            "game exact kronecker-diag charpoly",
            "a",
            lambda rng: ["game", "exact", "--family=kronecker-diag", "--k=3", "--task=charpoly",
                         f"--hidden={_vector(_point(4)(rng))}"],
            ACCEPT,
        ),
        _cli_kind(
            "game exact univariate-d derivative",
            "a",
            lambda rng: ["game", "exact", "--family=univariate-d", "--d=12",
                         "--task=derivative", f"--hidden={_vector(_point(1)(rng))}"],
            ACCEPT,
        ),
        _cli_kind("game approx border", "a", lambda rng: ["game", "approx", "--border"], ACCEPT),
        _cli_kind(
            "witness report hypercube-shift",
            "b",
            lambda rng: ["witness", "report", "--family=hypercube-shift", "--n=3",
                         "--trials=3", f"--seed={rng.randrange(10 ** 6)}"],
        ),
        _cli_kind(
            "kron charpoly",
            "b",
            lambda rng: ["kron", "charpoly", "--k=4", f"--s={_vector(_point(1)(rng))}",
                         f"--u={_vector(_point(4)(rng))}"],
            b"\nmatches_elimination_poly: True\n",
        ),
        _cli_kind(
            "neural train",
            "b",
            lambda rng: ["neural", "train", "--n=4", "--epochs=300",
                         f"--seed={rng.randrange(10 ** 6)}"],
        ),
        _cli_kind(
            "family emit-formula",
            "b",
            lambda rng: ["family", "emit-formula", f"--n={rng.randint(2, 4)}"],
        ),
        _cli_kind("approx demo border", "b", lambda rng: ["approx", "demo", "--border"]),
        _cli_kind("idseq verify", "b", _idseq_argv),
    ),
    prepare=lambda seed: CliState(env=child_env(os.environ)),
    warm_up=False,
    classes=("game rounds", "other commands"),
    pool_size=1,
)

@contextmanager
def traced(tracer, state, op: int):
    """Record op ``op`` in ``tracer``; yields the state to run the op with.

    In-process ops run with the wrappers installed.  A cli op runs in the
    tracing launcher, which writes its spans to a file; they are merged
    into ``tracer`` afterwards.  Only the op itself should be timed inside
    the block.
    """
    if isinstance(state, CliState):
        path = STATE_DIR / f"child-{os.getpid()}.json"
        try:
            yield replace(state, spans_path=str(path))
            if path.exists():
                tracer.merge(json.loads(path.read_text()), op)
        finally:
            path.unlink(missing_ok=True)
        return
    tracer.op = op
    tracer.install()
    try:
        yield state
    finally:
        tracer.uninstall()


WORKLOADS = {w.name: w for w in (GAMES, ALGEBRA, CLI)}
