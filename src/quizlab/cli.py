"""Batch command-line front end.

Every report embeds the package version and the full effective
configuration; identical argument vectors (including seeds) produce
byte-identical reports, so wall-clock timing is only included when asked
for explicitly.  Exit codes: 0 success, 2 usage or input error (an --out
that cannot be written included), 3 desk-scale cap exceeded, 4 internal
invariant violation.

Value syntax on the command line:

* rationals:  "3", "-2/7"
* vectors:    comma-separated rationals, e.g. "2,1,-1/2"
* points:     semicolon-separated integer tuples, e.g. "0,1;1,0;1,1"
* germs:      semicolon-separated Laurent components; each component is a
  "+"-joined list of terms "c", "c*e" or "c*e^k", e.g. "1/2*e^-1;1;e",
  whose exponents lie at most 64 apart.

Every family is held to its desk cap (easy-power-sum n*l <= 8,
neural-power n <= 6, hypercube-shift n <= 5, kronecker-diag k <= 5,
univariate-d d <= 64) before any work starts, and no setting raises it;
neural train and neural gradcheck hold --n to the neural-power cap too,
before any draw.  So are the loop counts (neural train --epochs <=
100000, witness report --trials <= 1000, game fiber --samples <= 10000,
kron verify --trials <= 1000, game approx --samples <= 100, approx demo
--depth <= 100), a report's work (witness report --trials times K^2 <=
1048576, K its expected rank, for every family but univariate-d, which
is ranked once), the neural batch (--batch-size <= 100000, and neural
train --epochs times --batch-size <= 2000000), two output sizes (family
emit-formula --n <= 10, idseq sample --n times --m <= 1000000), a span
check (idseq verify --points times --support monomials <= 4096, and sum
e_i*bits(x_i) <= 16384 over the largest monomial, x_i the largest i-th
coordinate) and the formal degree of every node of a --circuit-file
circuit (<= 1024, each input and parameter counting 1).
circuit expand's --expansion-cap (default 200000) is its term cap.  No
report prints a number whose numerator or denominator has more than 4300
digits; such a command exits 3.  A loss that overflows a float ends
neural train as diverged, with loss inf, and makes neural gradcheck exit
2.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import __version__
from .approx import (
    SAMPLES_CAP,
    GermInstance,
    border_demo_germ,
    border_family_circuit,
    check_germ_gap,
    closure_membership_demo,
    encode,
    halving_schedule,
)
from .circuit import DEFAULT_EXPANSION_CAP, Circuit, generic_computation
from .errors import CapExceededError, InternalCheckError, QuizlabError
from .exact import LaurentSeries, printable, rational_from_str, rational_to_str
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
from .kronecker import build_theta_matrix, char_poly, verify_lemma_trials
from .neural import (
    PolyActivationNet,
    TrainConfig,
    check_inputs,
    finite_diff_check,
    random_batch,
    train,
)
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
    lower_bound_report,
    roots_of_unity_matrix,
    sample_hypercube_points,
)

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
        check_germ_gap(index, min(exps, default=0), max(exps, default=0))
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


def approx_subject(args) -> tuple[FamilyDescriptor | Circuit, GermInstance]:
    """The (subject, germ) pair of the approx-family commands."""
    subject = border_family_circuit(2) if args.border else family_from_args(args)
    germ = parse_germ(args.germ) if args.germ else border_demo_germ()
    return subject, germ


def add_approx_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--border", action="store_true", help="use the border demo family")
    add_family_flags(parser, required=False)
    parser.add_argument("--germ", default=None)


def poly_line(f: Polynomial) -> str:
    terms = (f"({','.join(map(str, mono))}):{coeff}" for mono, coeff in f.to_pairs())
    return "polynomial: " + " ".join(terms)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns its report body as a list of lines
# ---------------------------------------------------------------------------

def cmd_family_expand(args) -> list[str]:
    desc = family_from_args(args)
    f = expand_family(desc, parse_vector(args.u))
    return [f"family: {desc.label()}", poly_line(f)]


def cmd_family_eval(args) -> list[str]:
    f = expand_family(family_from_args(args), parse_vector(args.u))
    return [f"value: {rational_to_str(f.evaluate(parse_vector(args.x)))}"]


def cmd_family_emit_formula(args) -> list[str]:
    rep = emit_formula(args.n)
    return [
        f"equations: {rep.equation_count}",
        f"symbols: {rep.symbol_count}",
        f"formula: {rep.text}",
    ]


def cmd_circuit_build(args) -> list[str]:
    desc = family_from_args(args)
    circ = build_circuit(desc.base())
    size = circ.size()
    return [
        f"family: {desc.base().label()}",
        f"gates: {size.gates}",
        f"leaves: {size.leaves}",
        f"essential_muls: {size.essential_muls}",
        f"gate_bound: {circuit_gate_bound(desc)}",
        "circuit: " + circ.to_text().rstrip("\n"),
    ]


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
    return build_circuit(family_from_args(args).base())


def cmd_circuit_eval(args) -> list[str]:
    circ = _load_circuit(args)
    value = circ.evaluate(parse_vector(args.params), parse_vector(args.inputs))
    return [f"value: {rational_to_str(value)}"]


def cmd_circuit_expand(args) -> list[str]:
    if args.expansion_cap < 1:
        raise QuizlabError(f"--expansion-cap must be at least 1, got {args.expansion_cap}")
    circ = _load_circuit(args)
    return [poly_line(circ.expand(parse_vector(args.params), cap=args.expansion_cap))]


def cmd_circuit_generic(args) -> list[str]:
    circ = generic_computation(args.big_l, args.n)
    size = circ.size()
    return [
        f"param_arity: {circ.n_params}",
        f"gates: {size.gates}",
        f"essential_muls: {size.essential_muls}",
        "circuit: " + circ.to_text().rstrip("\n"),
    ]


def cmd_idseq_size(args) -> list[str]:
    value = required_set_size(args.delta, args.big_l, args.big_k)
    return [
        f"required_set_size: {printable(value)}",
        f"minimum_length: {minimum_length(args.big_l)}",
    ]


def cmd_idseq_sample(args) -> list[str]:
    return sample_sequence(args.n, args.m, args.set_size, args.seed).to_text().splitlines()


def cmd_idseq_verify(args) -> list[str]:
    points = parse_points(args.points)
    support = parse_points(args.support)
    return [f"identifies_span: {verify_linear_span(points, sort_support(support))}"]


# The game commands parse their values and leave every other input check to
# the protocol, which makes it before the first round compiles the
# strategy's questions (``Strategy.system``), the slow step at a desk cap.
def cmd_game_exact(args) -> list[str]:
    transcript = run_exact(family_from_args(args), parse_vector(args.hidden))
    return transcript.export(include_hidden=args.audit).splitlines()


def cmd_game_approx(args) -> list[str]:
    schedule = halving_schedule(args.samples, "--samples", SAMPLES_CAP)
    subject, germ = approx_subject(args)
    if args.target:
        target_support = parse_points(args.target_support)
        values = parse_vector(args.target)
        if not target_support or len(target_support) != len(values):
            raise QuizlabError(
                "--target-support must list one monomial per --target value: "
                f"{len(values)} values, {len(target_support)} monomials"
            )
        target = Polynomial.make(len(target_support[0]), dict(zip(target_support, values)))
    else:
        enc = encode(germ, subject)
        if not enc.holomorphic:
            raise QuizlabError("germ does not encode a polynomial; supply --target")
        target = enc.h
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
    return transcript.export(include_hidden=args.audit).splitlines()


def cmd_game_fiber(args) -> list[str]:
    vectors = fiber_image(
        family_from_args(args), None, parse_vector(args.base), args.samples, args.seed
    )
    return [f"distinct_vectors: {len(vectors)}"] + [
        "vector: " + ",".join(rational_to_str(x) for x in vec) for vec in vectors
    ]


def cmd_witness_report(args) -> list[str]:
    rep = lower_bound_report(family_from_args(args), trials=args.trials, seed=args.seed)
    if args.format == "csv":
        return rep.to_csv().splitlines()
    return rep.to_text(include_timing=args.timing).splitlines()


def cmd_witness_rank(args) -> list[str]:
    rows = [
        [rational_from_str(x) for x in line.split(",")]
        for line in args.matrix.split(";")
    ]
    return [f"rank: {exact_rank(ExactMatrix.from_rows(rows))}"]


def cmd_witness_roots(args) -> list[str]:
    matrix, p = roots_of_unity_matrix(args.d, args.variant)
    return [
        f"modulus: {p}",
        f"rank: {exact_rank(matrix)}",
        f"rows: {matrix.rows}",
        f"cols: {matrix.cols}",
    ]


def cmd_witness_hypercube_lk(args) -> list[str]:
    if args.points:
        points = parse_points(args.points)
    else:
        points = sample_hypercube_points(random.Random(args.seed), args.n)
    matrix = hypercube_lk_matrix(args.n, points)
    return [f"rank: {exact_rank(matrix)}", f"expected: {2 ** args.n}"]


def cmd_kron_verify(args) -> list[str]:
    results = verify_lemma_trials(args.k, args.trials, args.seed)
    return [
        f"trials: {args.trials}",
        f"identities: {results[-1]}",
        f"all_true: {all(all(triple) for triple in results)}",
    ]


def cmd_kron_charpoly(args) -> list[str]:
    s, u = rational_from_str(args.s), parse_vector(args.u)
    theta, ops = build_theta_matrix(args.k, s, u)
    cp = char_poly(theta)
    return [
        f"operations: {ops}",
        f"matches_elimination_poly: {cp == elimination_poly(args.k, s, u)}",
        poly_line(cp),
    ]


def cmd_neural_train(args) -> list[str]:
    check_inputs(args.n)
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
    if args.format == "csv":
        return rep.curve_csv().splitlines()
    return rep.to_text().splitlines()


def cmd_neural_gradcheck(args) -> list[str]:
    check_inputs(args.n)
    rng = random.Random(args.seed)
    weights = tuple(rng.uniform(-1.0, 1.0) for _ in range(args.n + 1))
    net = PolyActivationNet(args.n, weights)
    batch = random_batch(args.n, args.batch_size, args.seed + 1)
    targets = tuple(rng.uniform(-1.0, 1.0) for _ in batch)
    err = finite_diff_check(net, batch, targets, h=args.step)
    return [f"max_relative_error: {err!r}"]


def cmd_approx_encode(args) -> list[str]:
    subject, germ = approx_subject(args)
    enc = encode(germ, subject, precision=args.precision)
    if not enc.holomorphic:
        return ["holomorphic: False", f"offending_monomial: {enc.offending_monomial}"]
    return ["holomorphic: True", f"h: {enc.h}", f"h_prime_leading: {enc.h_prime_leading}"]


def cmd_approx_demo(args) -> list[str]:
    subject, germ = approx_subject(args)
    report = closure_membership_demo(subject, germ, depth=args.depth)
    return report.to_text().splitlines()


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

    def new(group, name: str, handler, flags=None):
        sub = group.add_parser(name)
        sub.set_defaults(func=handler)
        sub.add_argument("--out", default=None, help="write the report to this path")
        sub.add_argument("--seed", type=int, default=0)
        if flags:
            flags(sub)
        return sub

    family = groups.add_parser("family").add_subparsers(dest="command", required=True)
    sub = new(family, "expand", cmd_family_expand, add_family_flags)
    sub.add_argument("--u", required=True, help="parameter vector")
    sub = new(family, "eval", cmd_family_eval, add_family_flags)
    sub.add_argument("--u", required=True)
    sub.add_argument("--x", required=True, help="input point")
    sub = new(family, "emit-formula", cmd_family_emit_formula)
    sub.add_argument("--n", type=int, required=True)

    circuit = groups.add_parser("circuit").add_subparsers(dest="command", required=True)
    sub = new(circuit, "build", cmd_circuit_build, add_family_flags)
    for name, handler in (("eval", cmd_circuit_eval), ("expand", cmd_circuit_expand)):
        sub = new(circuit, name, handler)
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
    sub = new(game, "exact", cmd_game_exact, add_family_flags)
    sub.add_argument("--hidden", required=True)
    sub.add_argument("--audit", action="store_true", help="include the hidden point")
    sub = new(game, "approx", cmd_game_approx, add_approx_flags)
    sub.add_argument("--target", default=None, help="target coefficient vector")
    sub.add_argument("--target-support", default=None)
    sub.add_argument("--numeric", action="store_true")
    sub.add_argument("--samples", type=int, default=12)
    sub.add_argument("--tolerance", default="1/64")
    sub.add_argument("--audit", action="store_true")
    sub = new(game, "fiber", cmd_game_fiber, add_family_flags)
    sub.add_argument("--base", required=True)
    sub.add_argument("--samples", type=int, default=50)

    witness = groups.add_parser("witness").add_subparsers(dest="command", required=True)
    sub = new(witness, "report", cmd_witness_report, add_family_flags)
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
    sub = new(approx, "encode", cmd_approx_encode, add_approx_flags)
    sub.add_argument("--precision", type=int, default=None)
    sub = new(approx, "demo", cmd_approx_demo, add_approx_flags)
    sub.add_argument("--depth", type=int, default=10)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        body = args.func(args)
        config = " ".join(
            f"{key}={value}"
            for key, value in sorted(vars(args).items())
            if key not in ("func", "out")
        )
        header = [
            f"quizlab-report v{__version__}",
            f"command: {args.group} {args.command}",
            f"config: {config}",
        ]
        text = "\n".join(header + body) + "\n"
        if args.out:
            try:
                with open(args.out, "w") as handle:
                    handle.write(text)
            except OSError as exc:
                raise QuizlabError(f"cannot write report: {exc}") from None
        else:
            sys.stdout.write(text)
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
