"""Batch command-line front end.

Every subcommand emits a report that embeds the package version and the
full effective configuration; identical argument vectors (including seeds)
produce byte-identical reports, so wall-clock timing is only included when
asked for explicitly.  Exit codes: 0 success, 2 usage or input error,
3 desk-scale cap exceeded, 4 internal invariant violation.

Value syntax on the command line:

* rationals:  "3", "-2/7"
* vectors:    comma-separated rationals, e.g. "2,1,-1/2"
* points:     semicolon-separated integer tuples, e.g. "0,1;1,0;1,1"
* germs:      semicolon-separated Laurent components; each component is a
  "+"-joined list of terms "c", "c*e" or "c*e^k", e.g. "1/2*e^-1;1;e",
  whose exponents lie at most 64 apart.

Every family is held to its desk cap (easy-power-sum n*l <= 8,
neural-power n <= 6, hypercube-shift n <= 5, kronecker-diag k <= 5,
univariate-d d <= 64) before any work starts, and no setting raises it.
circuit expand's --expansion-cap (default 200000) is its term cap.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .approx import (
    GermInstance,
    border_demo_germ,
    border_family_circuit,
    closure_membership_demo,
    encode,
)
from .circuit import DEFAULT_EXPANSION_CAP, Circuit, generic_computation
from .errors import CapExceededError, InternalCheckError, QuizlabError
from .exact import LaurentSeries, rational_from_str, rational_to_str
from .families import (
    SIZE_PARAMS,
    TASK_IDENTITY,
    VARIANTS,
    FamilyDescriptor,
    build_circuit,
    circuit_gate_bound,
    elimination_poly,
    emit_formula,
    expand_family,
)
from .identify import (
    IdentificationSequence,
    minimum_length,
    required_set_size,
    sample_sequence,
    verify_linear_span,
)
from .kronecker import build_theta_matrix, char_poly, verify_lemma_identities
from .neural import PolyActivationNet, TrainConfig, finite_diff_check, random_batch, train
from .poly import Polynomial, sort_support
from .protocol import (
    MODE_NUMERIC,
    MODE_SYMBOLIC,
    ApproxGameConfig,
    Strategy,
    fiber_image,
    run_approx,
    run_exact,
)
from .witness import (
    VARIANT_BASE,
    ExactMatrix,
    exact_rank,
    hypercube_lk_matrix,
    hypercube_size,
    lower_bound_report,
    roots_of_unity_matrix,
)

import random

# Widest exponent gap of a parsed germ component: every Laurent series
# stores a dense window from its lowest to its highest exponent.
GERM_GAP_CAP = 64


def parse_vector(text: str) -> tuple[Fraction, ...]:
    if not text:
        return ()
    return tuple(rational_from_str(part) for part in text.split(","))


def parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise QuizlabError(f"invalid integer {text!r}") from None


def parse_points(text: str) -> tuple[tuple[int, ...], ...]:
    if not text:
        return ()
    return tuple(
        tuple(parse_int(x) for x in part.split(",")) for part in text.split(";")
    )


def parse_germ(text: str) -> GermInstance:
    """A germ from its command-line text; each component's exponent gap is
    capped before its dense coefficient window is allocated."""
    components = []
    for index, chunk in enumerate(text.split(";"), 1):
        pairs = []
        for term in chunk.split("+"):
            term = term.strip()
            if "e" not in term:
                pairs.append((0, rational_from_str(term)))
                continue
            coeff_part, _, exp_part = term.partition("e")
            coeff_part = coeff_part.rstrip("*").strip()
            coeff = rational_from_str(coeff_part) if coeff_part else Fraction(1)
            exp = parse_int(exp_part.lstrip("^")) if exp_part else 1
            pairs.append((exp, coeff))
        exps = [exp for exp, coeff in pairs if coeff]
        low, high = min(exps, default=0), max(exps, default=0)
        if high - low > GERM_GAP_CAP:
            raise CapExceededError(
                f"germ exponent gap cap: component {index} spans e^{low}..e^{high}, "
                f"gap {high - low} exceeds {GERM_GAP_CAP}; no override"
            )
        components.append(LaurentSeries.from_pairs(pairs))
    return GermInstance.make(components)


def family_from_args(args) -> FamilyDescriptor:
    # An omitted --family passes None on, which FamilyDescriptor rejects.
    sizes = {name: getattr(args, name) for name in SIZE_PARAMS.get(args.family, ())}
    return FamilyDescriptor(args.family, task=args.task, **sizes)


def add_family_flags(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--family", required=required, choices=VARIANTS)
    parser.add_argument("--task", default=TASK_IDENTITY)
    parser.add_argument("--l", type=int, help="easy-power-sum threshold exponent")
    parser.add_argument("--n", type=int, help="variable count")
    parser.add_argument("--d", type=int, help="univariate degree")
    parser.add_argument("--k", type=int, help="kronecker block count")


def report_header(args, command: str) -> list[str]:
    config = []
    for key in sorted(vars(args)):
        if key in ("func", "out"):
            continue
        config.append(f"{key}={getattr(args, key)}")
    return [
        f"quizlab-report v{__version__}",
        f"command: {command}",
        "config: " + " ".join(config),
    ]


def emit(args, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def poly_lines(f: Polynomial) -> list[str]:
    return [
        "polynomial: "
        + " ".join(
            f"({','.join(str(e) for e in mono)}):{coeff}" for mono, coeff in f.to_pairs()
        )
    ]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_family_expand(args) -> None:
    desc = family_from_args(args)
    f = expand_family(desc, parse_vector(args.u))
    emit(args, report_header(args, "family expand") + [f"family: {desc.label()}"] + poly_lines(f))


def cmd_family_eval(args) -> None:
    desc = family_from_args(args)
    f = expand_family(desc, parse_vector(args.u))
    value = f.evaluate(parse_vector(args.x))
    emit(args, report_header(args, "family eval") + [f"value: {rational_to_str(value)}"])


def cmd_family_emit_formula(args) -> None:
    rep = emit_formula(args.n)
    lines = report_header(args, "family emit-formula") + [
        f"equations: {rep.equation_count}",
        f"symbols: {rep.symbol_count}",
        f"formula: {rep.text}",
    ]
    emit(args, lines)


def cmd_circuit_build(args) -> None:
    desc = family_from_args(args)
    circ = build_circuit(desc.base())
    size = circ.size()
    lines = report_header(args, "circuit build") + [
        f"family: {desc.base().label()}",
        f"gates: {size.gates}",
        f"leaves: {size.leaves}",
        f"essential_muls: {size.essential_muls}",
        f"gate_bound: {circuit_gate_bound(desc)}",
        "circuit: " + circ.to_text().rstrip("\n"),
    ]
    emit(args, lines)


def _load_circuit(args) -> Circuit:
    if args.circuit_file:
        try:
            with open(args.circuit_file) as handle:
                text = handle.read()
        except OSError as exc:
            raise QuizlabError(f"cannot read circuit file: {exc}") from None
        except UnicodeDecodeError:
            raise QuizlabError(f"circuit file {args.circuit_file!r} is not text") from None
        return Circuit.from_text(text)
    desc = family_from_args(args)
    return build_circuit(desc.base())


def cmd_circuit_eval(args) -> None:
    circ = _load_circuit(args)
    value = circ.evaluate(parse_vector(args.params), parse_vector(args.inputs))
    emit(args, report_header(args, "circuit eval") + [f"value: {rational_to_str(value)}"])


def cmd_circuit_expand(args) -> None:
    if args.expansion_cap < 1:
        raise QuizlabError(f"--expansion-cap must be at least 1, got {args.expansion_cap}")
    circ = _load_circuit(args)
    f = circ.expand(parse_vector(args.params), cap=args.expansion_cap)
    emit(args, report_header(args, "circuit expand") + poly_lines(f))


def cmd_circuit_generic(args) -> None:
    circ = generic_computation(args.big_l, args.n)
    size = circ.size()
    lines = report_header(args, "circuit generic") + [
        f"param_arity: {circ.n_params}",
        f"gates: {size.gates}",
        f"essential_muls: {size.essential_muls}",
        "circuit: " + circ.to_text().rstrip("\n"),
    ]
    emit(args, lines)


def cmd_idseq_size(args) -> None:
    value = required_set_size(args.delta, args.big_l, args.big_k)
    lines = report_header(args, "idseq size") + [
        f"required_set_size: {value}",
        f"minimum_length: {minimum_length(args.big_l)}",
    ]
    emit(args, lines)


def cmd_idseq_sample(args) -> None:
    seq = sample_sequence(args.n, args.m, args.set_size, args.seed)
    emit(args, report_header(args, "idseq sample") + seq.to_text().rstrip("\n").split("\n"))


def cmd_idseq_verify(args) -> None:
    points = parse_points(args.points)
    support = parse_points(args.support)
    ok = verify_linear_span(points, sort_support(support))
    emit(args, report_header(args, "idseq verify") + [f"identifies_span: {ok}"])


# The game commands parse their values and leave every other input check to
# the protocol, which makes it before the first round compiles the
# strategy's questions (``Strategy.system``), the slow step at a desk cap.
def cmd_game_exact(args) -> None:
    transcript = run_exact(family_from_args(args), parse_vector(args.hidden))
    body = transcript.export(include_hidden=args.audit).rstrip("\n").split("\n")
    emit(args, report_header(args, "game exact") + body)


def cmd_game_approx(args) -> None:
    if args.samples < 1:
        raise QuizlabError(f"--samples must be at least 1, got {args.samples}")
    subject = border_family_circuit(2) if args.border else family_from_args(args)
    germ = parse_germ(args.germ) if args.germ else border_demo_germ()
    if args.target:
        target_support = parse_points(args.target_support)
        values = parse_vector(args.target)
        if not target_support or len(target_support) != len(values):
            raise QuizlabError(
                "--target-support must list one monomial per --target value: "
                f"{len(values)} values, {len(target_support)} monomials"
            )
        target = Polynomial.make(
            len(target_support[0]),
            dict(zip(target_support, values)),
        )
    else:
        enc = encode(germ, subject)
        if not enc.holomorphic:
            raise QuizlabError("germ does not encode a polynomial; supply --target")
        target = enc.h
    schedule = tuple(Fraction(1, 2 ** k) for k in range(1, args.samples + 1))
    config = ApproxGameConfig(
        germ=germ,
        mode=MODE_NUMERIC if args.numeric else MODE_SYMBOLIC,
        sample_schedule=schedule,
        cluster_tolerance=rational_from_str(args.tolerance),
    )
    strategy = None
    if args.border:
        strategy = Strategy(
            question_points=IdentificationSequence.from_points([(1, 0), (0, 1), (1, 1)]),
            target_support=((2, 0), (1, 1), (0, 2)),
        )
    transcript = run_approx(subject, strategy, config, target)
    body = transcript.export(include_hidden=args.audit).rstrip("\n").split("\n")
    emit(args, report_header(args, "game approx") + body)


def cmd_game_fiber(args) -> None:
    desc = family_from_args(args)
    vectors = fiber_image(desc, None, parse_vector(args.base), args.samples, args.seed)
    lines = report_header(args, "game fiber") + [f"distinct_vectors: {len(vectors)}"]
    for vec in vectors:
        lines.append("vector: " + ",".join(rational_to_str(x) for x in vec))
    emit(args, lines)


def cmd_witness_report(args) -> None:
    desc = family_from_args(args)
    rep = lower_bound_report(desc, trials=args.trials, seed=args.seed)
    body = rep.to_text(include_timing=args.timing).rstrip("\n").split("\n")
    if args.format == "csv":
        body = rep.to_csv().rstrip("\n").split("\n")
    emit(args, report_header(args, "witness report") + body)


def cmd_witness_rank(args) -> None:
    rows = [
        [rational_from_str(x) for x in line.split(",")]
        for line in args.matrix.split(";")
    ]
    rank = exact_rank(ExactMatrix.from_rows(rows))
    emit(args, report_header(args, "witness rank") + [f"rank: {rank}"])


def cmd_witness_roots(args) -> None:
    matrix, p = roots_of_unity_matrix(args.d, args.variant)
    rank = exact_rank(matrix)
    lines = report_header(args, "witness roots-of-unity") + [
        f"modulus: {p}",
        f"rank: {rank}",
        f"rows: {matrix.rows}",
        f"cols: {matrix.cols}",
    ]
    emit(args, lines)


def cmd_witness_hypercube_lk(args) -> None:
    if args.points:
        points = parse_points(args.points)
    else:
        size = hypercube_size(args.n)
        rng = random.Random(args.seed)
        points = tuple(
            tuple(rng.randint(1, 4 * size) for _ in range(args.n)) for _ in range(size)
        )
    matrix = hypercube_lk_matrix(args.n, points)
    lines = report_header(args, "witness hypercube-lk") + [
        f"rank: {exact_rank(matrix)}",
        f"expected: {2 ** args.n}",
    ]
    emit(args, lines)


def cmd_kron_verify(args) -> None:
    if args.trials < 1:
        raise QuizlabError(f"need at least one trial, got {args.trials}")
    rng = random.Random(args.seed)
    results = []
    for _ in range(args.trials):
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(args.k)]
        results.append(verify_lemma_identities(args.k, s, u))
    all_ok = all(all(triple) for triple in results)
    lines = report_header(args, "kron verify") + [
        f"trials: {args.trials}",
        f"identities: {results[-1]}",
        f"all_true: {all_ok}",
    ]
    emit(args, lines)


def cmd_kron_charpoly(args) -> None:
    theta, ops = build_theta_matrix(args.k, rational_from_str(args.s), parse_vector(args.u))
    cp = char_poly(theta)
    reference = elimination_poly(args.k, rational_from_str(args.s), parse_vector(args.u))
    lines = report_header(args, "kron charpoly") + [
        f"operations: {ops}",
        f"matches_elimination_poly: {cp == reference}",
    ] + poly_lines(cp)
    emit(args, lines)


def cmd_neural_train(args) -> None:
    batch = random_batch(args.n, args.batch_size, args.seed)
    rng = random.Random(args.seed + 1)
    target_weights = tuple(rng.uniform(-1.0, 1.0) for _ in range(args.n + 1))
    config = TrainConfig(
        n=args.n,
        learning_rate=args.learning_rate,
        epochs=args.epochs,
        batch=batch,
        seed=args.seed,
        target_weights=target_weights,
    )
    rep = train(config)
    body = rep.to_text().rstrip("\n").split("\n")
    if args.format == "csv":
        body = rep.curve_csv().rstrip("\n").split("\n")
    emit(args, report_header(args, "neural train") + body)


def cmd_neural_gradcheck(args) -> None:
    rng = random.Random(args.seed)
    weights = tuple(rng.uniform(-1.0, 1.0) for _ in range(args.n + 1))
    net = PolyActivationNet(args.n, weights)
    batch = random_batch(args.n, args.batch_size, args.seed + 1)
    targets = tuple(rng.uniform(-1.0, 1.0) for _ in batch)
    err = finite_diff_check(net, batch, targets, h=args.step)
    emit(args, report_header(args, "neural gradcheck") + [f"max_relative_error: {err!r}"])


def cmd_approx_encode(args) -> None:
    germ = parse_germ(args.germ) if args.germ else border_demo_germ()
    subject = border_family_circuit(2) if args.border else family_from_args(args)
    enc = encode(germ, subject, precision=args.precision)
    lines = report_header(args, "approx encode") + [f"holomorphic: {enc.holomorphic}"]
    if enc.holomorphic:
        lines.append("h: " + str(enc.h))
        lines.append("h_prime_leading: " + str(enc.h_prime_leading))
    else:
        lines.append(f"offending_monomial: {enc.offending_monomial}")
    emit(args, lines)


def cmd_approx_demo(args) -> None:
    germ = parse_germ(args.germ) if args.germ else border_demo_germ()
    subject = border_family_circuit(2) if args.border else family_from_args(args)
    enc = encode(germ, subject)
    if not enc.holomorphic:
        raise QuizlabError("germ does not encode a polynomial")
    report = closure_membership_demo(subject, enc.h, germ, depth=args.depth)
    emit(args, report_header(args, "approx demo") + report.to_text().rstrip("\n").split("\n"))


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quizlab",
        description="Exact quiz-game laboratory: families, circuits, protocols, witnesses.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"quizlab {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)

    def new(group, name: str, handler, family: bool = False):
        sub = group.add_parser(name)
        sub.set_defaults(func=handler)
        sub.add_argument("--out", default=None, help="write the report to this path")
        sub.add_argument("--seed", type=int, default=0)
        if family:
            add_family_flags(sub)
        return sub

    family = groups.add_parser("family").add_subparsers(dest="command", required=True)
    sub = new(family, "expand", cmd_family_expand, family=True)
    sub.add_argument("--u", required=True, help="parameter vector")
    sub = new(family, "eval", cmd_family_eval, family=True)
    sub.add_argument("--u", required=True)
    sub.add_argument("--x", required=True, help="input point")
    sub = new(family, "emit-formula", cmd_family_emit_formula)
    sub.add_argument("--n", type=int, required=True)

    circuit = groups.add_parser("circuit").add_subparsers(dest="command", required=True)
    sub = new(circuit, "build", cmd_circuit_build, family=True)
    for name, handler in (("eval", cmd_circuit_eval), ("expand", cmd_circuit_expand)):
        sub = new(circuit, name, handler, family=False)
        sub.add_argument("--circuit-file", default=None)
        add_family_flags(sub, required=False)
        sub.add_argument("--params", required=True)
        if name == "eval":
            sub.add_argument("--inputs", required=True)
        else:
            sub.add_argument("--expansion-cap", type=int, default=DEFAULT_EXPANSION_CAP)
    sub = new(circuit, "generic", cmd_circuit_generic)
    sub.add_argument("--big-l", "--L", dest="big_l", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)

    idseq = groups.add_parser("idseq").add_subparsers(dest="command", required=True)
    sub = new(idseq, "size", cmd_idseq_size)
    sub.add_argument("--delta", type=int, required=True)
    sub.add_argument("--big-l", "--L", dest="big_l", type=int, required=True)
    sub.add_argument("--big-k", "--K", dest="big_k", type=int, required=True)
    sub = new(idseq, "sample", cmd_idseq_sample)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--set-size", type=int, required=True)
    sub = new(idseq, "verify", cmd_idseq_verify)
    sub.add_argument("--points", required=True)
    sub.add_argument("--support", required=True, help="monomial exponent tuples")

    game = groups.add_parser("game").add_subparsers(dest="command", required=True)
    sub = new(game, "exact", cmd_game_exact, family=True)
    sub.add_argument("--hidden", required=True)
    sub.add_argument("--audit", action="store_true", help="include the hidden point")
    sub = new(game, "approx", cmd_game_approx)
    sub.add_argument("--border", action="store_true", help="use the border demo family")
    add_family_flags(sub, required=False)
    sub.add_argument("--germ", default=None)
    sub.add_argument("--target", default=None, help="target coefficient vector")
    sub.add_argument("--target-support", default=None)
    sub.add_argument("--numeric", action="store_true")
    sub.add_argument("--samples", type=int, default=12)
    sub.add_argument("--tolerance", default="1/64")
    sub.add_argument("--audit", action="store_true")
    sub = new(game, "fiber", cmd_game_fiber, family=True)
    sub.add_argument("--base", required=True)
    sub.add_argument("--samples", type=int, default=50)

    witness = groups.add_parser("witness").add_subparsers(dest="command", required=True)
    sub = new(witness, "report", cmd_witness_report, family=True)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--format", choices=("text", "csv"), default="text")
    sub.add_argument("--timing", action="store_true")
    sub = new(witness, "rank", cmd_witness_rank)
    sub.add_argument("--matrix", required=True, help="rows ; separated, entries , separated")
    sub = new(witness, "roots-of-unity", cmd_witness_roots)
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--variant", choices=("base", "derivative", "integral"), default=VARIANT_BASE)
    sub = new(witness, "hypercube-lk", cmd_witness_hypercube_lk)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--points", default=None)

    kron = groups.add_parser("kron").add_subparsers(dest="command", required=True)
    sub = new(kron, "verify", cmd_kron_verify)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--trials", type=int, default=1)
    sub = new(kron, "charpoly", cmd_kron_charpoly)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--s", required=True)
    sub.add_argument("--u", required=True)

    neural = groups.add_parser("neural").add_subparsers(dest="command", required=True)
    sub = new(neural, "train", cmd_neural_train)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--epochs", type=int, default=1000)
    sub.add_argument("--learning-rate", type=float, default=0.01)
    sub.add_argument("--batch-size", type=int, default=20)
    sub.add_argument("--format", choices=("text", "csv"), default="text")
    sub = new(neural, "gradcheck", cmd_neural_gradcheck)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--batch-size", type=int, default=10)
    sub.add_argument("--step", type=float, default=1e-5)

    approx = groups.add_parser("approx").add_subparsers(dest="command", required=True)
    sub = new(approx, "encode", cmd_approx_encode)
    sub.add_argument("--border", action="store_true")
    add_family_flags(sub, required=False)
    sub.add_argument("--germ", default=None)
    sub.add_argument("--precision", type=int, default=None)
    sub = new(approx, "demo", cmd_approx_demo)
    sub.add_argument("--border", action="store_true")
    add_family_flags(sub, required=False)
    sub.add_argument("--germ", default=None)
    sub.add_argument("--depth", type=int, default=10)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    except QuizlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
