"""Command-line front end: dispatch, reproducibility, exit codes."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from quizlab import cli, protocol
from quizlab.approx import DEMO_DEPTH_CAP, GERM_GAP_CAP, SAMPLES_CAP
from quizlab.circuit import DEFAULT_EXPANSION_CAP, DEGREE_CAP
from quizlab.cli import main
from quizlab.exact import PRINT_DIGITS_CAP
from quizlab.families import DESK_CAPS, ELIMINATION_CAP
from quizlab.identify import MONOMIAL_BITS_CAP, SAMPLE_COORDINATES_CAP, SPAN_ENTRIES_CAP
from quizlab.kronecker import LEMMA_TRIALS_CAP
from quizlab.neural import BATCH_SIZE_CAP, EPOCHS_CAP, TRAINING_WORK_CAP
from quizlab.protocol import FIBER_SAMPLES_CAP
from quizlab.witness import REPORT_TRIALS_CAP, REPORT_WORK_CAP

from conftest import MALFORMED_CIRCUIT_FILES, OVER_DEGREE_CIRCUIT_FILES


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_child(argv):
    """``python -m quizlab.cli`` in a fresh interpreter that imports quizlab
    from wherever this test process found it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run(
        [sys.executable, "-m", "quizlab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


TRANSCRIPTS = Path(__file__).parent / "transcripts"


@pytest.mark.parametrize(
    "argv, name",
    [
        (["kron", "charpoly", "--k", "4", "--s=-3/2", "--u=2,-1/3,5,7/4"], "kron_charpoly_k4.txt"),
        (["kron", "verify", "--k", "5", "--trials", "20"], "kron_verify_k5_trials20.txt"),
    ],
)
def test_kron_reports_are_pinned(argv, name, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (TRANSCRIPTS / name).read_text()


IDSEQ_POINTS = ";".join(f"{i % 8},{(i * i) % 13 - 6}" for i in range(40))
IDSEQ_SUPPORT = ";".join(f"{a},{b}" for a in range(4) for b in range(4 - a))


@pytest.mark.parametrize(
    "argv, name",
    [
        (
            ["witness", "report", "--family=neural-power", "--n=4", "--trials=3"],
            "witness_report_neural_power4.txt",
        ),
        (
            ["witness", "report", "--family=easy-power-sum", "--l=2", "--n=3", "--trials=3"],
            "witness_report_easy_power_sum_l2_n3.txt",
        ),
        (
            ["idseq", "verify", f"--points={IDSEQ_POINTS}", f"--support={IDSEQ_SUPPORT}"],
            "idseq_verify_40_points.txt",
        ),
    ],
)
def test_rank_reports_are_pinned(argv, name, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out == (TRANSCRIPTS / name).read_text()


def test_witness_report_example(capsys):
    argv = [
        "witness", "report", "--family", "easy-power-sum",
        "--l", "2", "--n", "2", "--trials", "20", "--seed", "7",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "expected_rank: 10" in out
    assert "success_count: 20" in out
    assert "seed=7" in out  # full configuration embedded


def test_game_exact_example(capsys):
    argv = ["game", "exact", "--family", "univariate-d", "--d", "2", "--hidden", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "verdict: accept" in out
    assert "quizmaster_message: 7/1;49/1;21/1" in out
    assert "hidden: withheld" in out


# The target has x1^2 where the player's limit has x1; the two agree on the
# cube {0,1}^2 the player asks, so the verdict checks beyond those points.
@pytest.mark.parametrize("mode", [[], ["--numeric"]], ids=["symbolic", "numeric"])
def test_game_approx_target_outside_the_support_rejects(mode, capsys):
    argv = [
        "game", "approx", "--family", "hypercube-shift", "--n", "2", "--germ", "7/2;-1/2;3",
        "--target", "7/2,-17/4,9,-21/2", "--target-support", "0,0;2,0;0,1;1,1", *mode,
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "player_message: 7/2;-17/4;9/1;-21/2" in out
    assert "verdict: reject" in out


def test_game_exact_audit_includes_hidden(capsys):
    argv = [
        "game", "exact", "--family", "univariate-d", "--d", "2",
        "--hidden", "2", "--audit",
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "hidden: 2/1" in out


def test_kron_verify_example(capsys):
    code, out, _ = run_cli(["kron", "verify", "--k", "3", "--seed", "1"], capsys)
    assert code == 0
    assert "identities: (True, True, True)" in out
    assert "all_true: True" in out


def test_reports_are_byte_identical(capsys):
    argv = [
        "witness", "report", "--family", "neural-power",
        "--n", "2", "--trials", "5", "--seed", "3",
    ]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_version_embedded(capsys):
    code, out, _ = run_cli(
        ["idseq", "size", "--delta", "2", "--L", "2", "--K", "4"], capsys
    )
    assert code == 0
    assert out.startswith("quizlab-report v")
    assert "required_set_size: 125" in out


def test_usage_error_exit_code():
    proc = run_cli_child(["witness", "report"])
    assert proc.returncode == 2


def test_cap_exceeded_exit_code(capsys):
    argv = [
        "witness", "report", "--family", "easy-power-sum",
        "--l", "4", "--n", "3", "--trials", "1",
    ]
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert "cap" in err


def test_bad_input_exit_code(capsys):
    argv = ["game", "exact", "--family", "univariate-d", "--d", "2", "--hidden", "1,2"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "error" in err


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    argv = [
        "family", "expand", "--family", "univariate-d", "--d", "2",
        "--u", "2", "--out", str(out_path),
    ]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and out == ""
    assert "(2):28/1" in out_path.read_text()


def test_circuit_roundtrip_via_files(tmp_path, capsys):
    build_argv = [
        "circuit", "build", "--family", "hypercube-shift", "--n", "2",
        "--out", str(tmp_path / "circ.txt"),
    ]
    assert run_cli(build_argv, capsys)[0] == 0
    text = (tmp_path / "circ.txt").read_text()
    circuit_line = next(
        line for line in text.split("\n") if line.startswith("circuit: ")
    )
    (tmp_path / "only.json").write_text(circuit_line[len("circuit: "):] + "\n")
    eval_argv = [
        "circuit", "eval", "--circuit-file", str(tmp_path / "only.json"),
        "--params", "1,1,1", "--inputs", "1,1",
    ]
    code, out, _ = run_cli(eval_argv, capsys)
    assert code == 0
    assert "value: 4/1" in out  # X1 + 2 X2 + t at u = (1,1), X = (1,1)


def test_approx_demo_cli(capsys):
    code, out, _ = run_cli(["approx", "demo", "--border"], capsys)
    assert code == 0
    assert "distances_decreasing: True" in out
    assert "certified" in out


def test_neural_gradcheck_cli(capsys):
    code, out, _ = run_cli(["neural", "gradcheck", "--n", "3", "--seed", "2"], capsys)
    assert code == 0
    value = float(out.split("max_relative_error: ")[1])
    assert value < 1e-4


def test_formula_cli(capsys):
    code, out, _ = run_cli(["family", "emit-formula", "--n", "1"], capsys)
    assert code == 0
    assert "equations: 18" in out


# Input errors of the game commands at the neural-power desk cap, whose
# first round compiles its questions for minutes; each is reported before
# that compile.  The last is a wrong-arity germ in numeric mode.
SLOW_STRATEGY_INPUT_ERRORS = [
    ["game", "fiber", "--family", "neural-power", "--n", "6", "--base", "1,1,1,1,1,1,1",
     "--samples", "5"],
    ["game", "exact", "--family", "neural-power", "--n", "6", "--hidden", "1"],
    ["game", "exact", "--family", "neural-power", "--n", "6", "--hidden", "1/0"],
    ["game", "approx", "--family", "neural-power", "--n", "6", "--germ", "1;;"],
    ["game", "approx", "--family", "neural-power", "--n", "2", "--germ", "1;1", "--numeric",
     "--target", "1", "--target-support", "2,0"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["game", "exact", "--family", "univariate-d", "--d", "2", "--hidden", "1/0"],
        ["game", "exact", "--family", "univariate-d", "--d", "2", "--hidden", "abc"],
        ["witness", "rank", "--matrix", ""],
        ["approx", "encode", "--border", "--germ", "1/2*e^-1;1;x"],
        ["approx", "encode", "--border", "--germ", "1/2*e^x;1;1"],
        ["idseq", "verify", "--points", "0,a", "--support", "0,0"],
        ["kron", "verify", "--k", "0"],
        ["kron", "verify", "--k", "2", "--trials", "0"],
        ["circuit", "generic", "--L", "-1", "--n", "1"],
        ["family", "emit-formula", "--n", "0"],
        ["neural", "train", "--n", "0"],
        ["neural", "gradcheck", "--n", "0"],
        ["neural", "train", "--n", "2", "--batch-size", "0"],
        ["neural", "train", "--n", "2", "--batch-size=-3"],
        ["circuit", "eval", "--circuit-file", "{dir}/missing.json", "--params", "1", "--inputs", "1"],
        ["circuit", "eval", "--circuit-file", "{dir}", "--params", "1", "--inputs", "1"],
        ["circuit", "eval", "--circuit-file", "{dir}/not-json.txt", "--params", "1", "--inputs", "1"],
        ["circuit", "expand", "--circuit-file", "{dir}/array.json", "--params", "1"],
        ["circuit", "expand", "--circuit-file", "{dir}/no-output.json", "--params", "1"],
        ["circuit", "eval", "--circuit-file", "{dir}/empty-node.json", "--params", "1", "--inputs", "1"],
        ["circuit", "eval", "--circuit-file", "{dir}/string-n.json", "--params", "1", "--inputs", "1"],
        ["circuit", "eval", "--circuit-file", "{dir}/float-output.json", "--params", "1", "--inputs", "1"],
        ["circuit", "expand", "--circuit-file", "{dir}/nodes-object.json", "--params", "1"],
        ["circuit", "expand", "--circuit-file", "{dir}/few-args.json", "--params", "1"],
        ["circuit", "expand", "--circuit-file", "{dir}/unknown-kind.json", "--params", "1"],
        ["circuit", "expand", "--circuit-file", "{dir}/int-constant.json", "--params", "1"],
        ["circuit", "expand", "--circuit-file", "{dir}/bad-term.json", "--params", "1"],
        ["idseq", "verify", "--points=1;2;3", "--support=0,0;1,1"],
        ["idseq", "verify", "--points=1,2;3", "--support=0,0;1,0"],
        ["idseq", "verify", "--points=1,2,3;4,5,6", "--support=0;1"],
        ["witness", "roots-of-unity", "--d=-1"],
        ["witness", "hypercube-lk", "--n=-1"],
        ["witness", "report", "--family=neural-power", "--n=2", "--trials", "0"],
        ["witness", "report", "--family=neural-power", "--n=2", "--trials=-1"],
        ["game", "approx", "--border", "--target=1"],
        ["game", "approx", "--border", "--target=1", "--target-support="],
        ["game", "approx", "--border", "--target=0,1,0,5", "--target-support=2,0;1,1;0,2"],
        ["approx", "encode", "--border", "--precision=-3"],
        ["approx", "encode", "--border", "--precision=0"],
        ["approx", "demo", "--border", "--depth=0"],
        ["approx", "demo", "--border", "--depth=-1"],
        ["game", "approx", "--border", "--tolerance=-1", "--samples=-1"],
        ["game", "approx", "--border", "--numeric", "--tolerance=-1"],
        ["idseq", "sample", "--n=-1", "--m=2", "--set-size=3"],
        ["game", "fiber", "--family=univariate-d", "--d=2", "--base=0", "--samples=0"],
        ["game", "fiber", "--family=univariate-d", "--d=2", "--base=0", "--samples=-1"],
        ["game", "approx", "--border", "--germ", "1;1", "--numeric", "--target=1,1,0",
         "--target-support=2,0;1,1;0,2"],
        ["game", "approx", "--family=univariate-d", "--d=1", "--germ=2", "--target=3,6",
         "--target-support=0,7;1,9"],
        ["game", "approx", "--family=univariate-d", "--d=1", "--germ=2", "--target=3,6",
         "--target-support=0,7;1,9", "--task=derivative"],
        ["game", "approx", "--border", "--target=1,1,0", "--target-support=2,0,0;1,1,0;0,2,0"],
        ["family", "emit-formula", "--n=2", "--out={dir}"],
        ["family", "emit-formula", "--n=2", "--out={dir}/missing/r.txt"],
        *SLOW_STRATEGY_INPUT_ERRORS,
    ],
)
def test_malformed_value_exits_2(argv, tmp_path):
    for name, text in MALFORMED_CIRCUIT_FILES.items():
        (tmp_path / name).write_text(text)
    proc = run_cli_child([arg.replace("{dir}", str(tmp_path)) for arg in argv])
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["approx", "encode", "--border", "--precision=-3"], "got -3"),
        (["approx", "encode", "--border", "--precision=0"], "got 0"),
        (["game", "approx", "--border", "--target=1"], "1 values, 0 monomials"),
        (
            ["game", "approx", "--border", "--target=0,1,0,5", "--target-support=2,0;1,1;0,2"],
            "4 values, 3 monomials",
        ),
        (["approx", "demo", "--border", "--depth=0"], "got 0"),
        (["approx", "demo", "--border", "--depth=-1"], "got -1"),
        (
            ["game", "approx", "--border", "--tolerance=-1", "--samples=-1"],
            "--samples must be at least 1, got -1",
        ),
        (["game", "approx", "--border", "--samples=0"], "--samples must be at least 1, got 0"),
        (
            ["game", "approx", "--border", "--germ", "1;1", "--numeric", "--target=1,1,0",
             "--target-support=2,0;1,1;0,2"],
            "germ has arity 2, circuit needs 3",
        ),
        (
            ["game", "approx", "--border", "--numeric", "--tolerance=-1"],
            "cluster tolerance must be nonnegative, got -1",
        ),
        (["idseq", "sample", "--n=-1", "--m=2", "--set-size=3"], "must be at least 1, got -1"),
        (
            ["game", "fiber", "--family=univariate-d", "--d=2", "--base=0", "--samples=0"],
            "fiber samples must be at least 1, got 0",
        ),
        (
            ["game", "fiber", "--family=univariate-d", "--d=2", "--base=0", "--samples=-1"],
            "fiber samples must be at least 1, got -1",
        ),
        (
            ["circuit", "expand", "--family=univariate-d", "--d=3", "--params=2",
             "--expansion-cap=0"],
            "--expansion-cap must be at least 1, got 0",
        ),
        (
            ["circuit", "expand", "--family=univariate-d", "--d=3", "--params=2",
             "--expansion-cap=-1"],
            "--expansion-cap must be at least 1, got -1",
        ),
        (["circuit", "eval", "--params", "1", "--inputs", "1"], "unknown family variant None"),
        (["approx", "encode"], "unknown family variant None"),
        (["game", "approx"], "unknown family variant None"),
    ],
)
def test_malformed_value_message_names_it(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    zip(
        SLOW_STRATEGY_INPUT_ERRORS,
        [
            "no fiber sampler for bases with a nonzero t coordinate",
            "hidden point must have arity 7, got 1",
            "invalid rational '1/0'",
            "invalid rational ''",
            "germ has arity 2, circuit needs 3",
        ],
    ),
)
def test_game_input_error_precedes_the_strategy(argv, message, monkeypatch, capsys):
    def no_compile(*args, **kwargs):
        raise AssertionError("the questions were compiled before the input was checked")

    monkeypatch.setattr(protocol, "compile_system", no_compile)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_expansion_cap_flag_sets_the_cap(capsys):
    argv = ["circuit", "expand", "--family", "univariate-d", "--d", "3", "--params", "2"]
    code, out, _ = run_cli(argv + ["--expansion-cap", "7"], capsys)
    assert code == 0 and "expansion_cap=7 " in out
    code, _, err = run_cli(argv + ["--expansion-cap", "2"], capsys)
    assert code == 3 and "cap is 2" in err


@pytest.mark.parametrize(
    "family",
    [
        ["--family", "easy-power-sum", "--l", "4", "--n", "4"],
        ["--family", "univariate-d", "--d", "200"],
        ["--family", "kronecker-diag", "--k", "7", "--task", "charpoly"],
        ["--family", "neural-power", "--n", "9"],
    ],
)
def test_game_exact_over_desk_cap_exits_3(family):
    proc = run_cli_child(["game", "exact", *family, "--hidden", "1"])
    assert proc.returncode == 3
    assert "cap exceeded: desk cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_hypercube_lk_over_cap_exits_3_before_sampling(capsys):
    # 2^40 random points would be drawn before the cap check otherwise.
    code, _, err = run_cli(["witness", "hypercube-lk", "--n", "40"], capsys)
    assert code == 3
    assert "hypercube coefficient cap: n=40 exceeds 5" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["approx", "encode", "--border", "--germ", "1/2*e^-1 + e^64;1;1"],
            "component 1 spans e^-1..e^64, gap 65 exceeds 64; no override",
        ),
        (
            ["approx", "demo", "--border", "--germ", "1;1;e^-65 + 3"],
            "component 3 spans e^-65..e^0, gap 65 exceeds 64; no override",
        ),
        (
            ["game", "approx", "--border", "--germ", "1/2*e^-1 + e^64;1;1"],
            "component 1 spans e^-1..e^64, gap 65 exceeds 64; no override",
        ),
    ],
)
def test_germ_over_gap_cap_exits_3(argv, message, capsys):
    # Just over the cap: the gap is checked before any window is allocated.
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (3, "")
    assert err == f"cap exceeded: germ exponent gap cap: {message}\n"


def test_germ_at_gap_cap_runs(capsys):
    code, _, _ = run_cli(["approx", "encode", "--border", "--germ", "1/2*e^-1 + e^63;1;1"], capsys)
    assert code == 0


# Each reaches a number too long to print: a coefficient of 4550 digits at
# u = 10^70, a set size of 4401 digits, and t^3 - 1 at t = 10^2000 (6000 digits).
TOO_LONG_TO_PRINT = [
    ["family", "expand", "--family=univariate-d", "--d=64", "--u=1" + "0" * 70],
    ["idseq", "size", "--delta=1" + "0" * 1100, "--L=1", "--K=1"],
    ["game", "exact", "--family=univariate-d", "--d=2", "--hidden=1" + "0" * 2000],
    ["game", "approx", "--family=univariate-d", "--d=2", "--germ=1" + "0" * 2000 + "+e"],
]


@pytest.mark.parametrize("argv", TOO_LONG_TO_PRINT, ids=lambda argv: " ".join(argv[:2]))
def test_number_too_long_to_print_exits_3(argv):
    start = time.perf_counter()
    proc = run_cli_child(argv)
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("cap exceeded: print cap: digits=")
    assert proc.stderr.endswith("; no override\n")
    assert "Traceback" not in proc.stderr


# Python's float ** int raises OverflowError where * returns inf; a run
# that overflows diverges, and a gradient check names its step.  The last
# two were unbounded: emit-formula grows as n^4 and idseq sample as n*m.
@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["neural", "train", "--n", "2", "--epochs", "5", "--learning-rate", "1e100"], 0,
         "stdout", "status: diverged\nfinal_weights: "),
        (["neural", "train", "--n", "6", "--epochs", "5", "--learning-rate", "1e30"], 0,
         "stdout", "epochs_recorded: 2\nfinal_loss: inf\n"),
        (["neural", "gradcheck", "--n", "300"], 3,
         "stderr", "cap exceeded: desk cap n <= 6 exceeded: n = 300; no override\n"),
        (["neural", "gradcheck", "--n", "2", "--step", "1e200"], 2,
         "stderr", "error: the loss overflows a float at step 1e+200\n"),
        (["family", "emit-formula", "--n", "200"], 3,
         "stderr", "cap exceeded: formula cap: n=200 exceeds 10; no override\n"),
        (["idseq", "sample", "--n", "1", "--m", "3000000", "--set-size", "5"], 3,
         "stderr", "identification sequence cap: n*m=3000000 exceeds 1000000; no override\n"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else None,
)
def test_float_overflow_and_unbounded_sizes_exit_without_a_traceback(argv, code, stream, text):
    start = time.perf_counter()
    proc = run_cli_child(argv)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == code
    assert text in getattr(proc, stream)
    assert "Traceback" not in proc.stderr


# Each was slow before its cap held: neural train --n 3000000 drew its batch
# for about 10 s, the squaring chain doubles its degree with every gate, 17
# trials at easy-power-sum(8, 1) took about 6 s, a rejected span of 80 points
# 2.5 s, and two points against X^(10^7) 2.6 s.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["neural", "train", "--n", "3000000"], "desk cap n <= 6 exceeded: n = 3000000"),
        (["neural", "gradcheck", "--n", "300000"], "desk cap n <= 6 exceeded: n = 300000"),
        (
            ["circuit", "eval", "--circuit-file", "{dir}/squaring-chain.json", "--params=",
             "--inputs", "2"],
            "formal degree cap: node 11=2048 exceeds 1024",
        ),
        (
            ["circuit", "expand", "--circuit-file", "{dir}/high-degree-param.json",
             "--params", "2"],
            "formal degree cap: node 0=1000000 exceeds 1024",
        ),
        (
            ["witness", "report", "--family=easy-power-sum", "--l=8", "--n=1", "--trials=17"],
            "witness report cap: trials*K^2=1114112 exceeds 1048576",
        ),
        (
            ["witness", "report", "--family=neural-power", "--n=6", "--trials=5"],
            "witness report cap: trials*K^2=1067220 exceeds 1048576",
        ),
        (
            ["idseq", "verify", "--points=" + ";".join(map(str, [*range(79), 0])),
             "--support=" + ";".join(map(str, range(80)))],
            "linear span cap: points*support=6400 exceeds 4096",
        ),
        (
            ["idseq", "verify", "--points=2;3", "--support=0;10000000"],
            "linear span cap: monomial bits=20000000 exceeds 16384",
        ),
    ],
    ids=lambda value: " ".join(value[:2]) if isinstance(value, list) else None,
)
def test_over_cap_input_exits_3_before_any_work(argv, message, tmp_path):
    for name, text in OVER_DEGREE_CIRCUIT_FILES.items():
        (tmp_path / name).write_text(text)
    start = time.perf_counter()
    proc = run_cli_child([arg.replace("{dir}", str(tmp_path)) for arg in argv])
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"cap exceeded: {message}; no override\n"


def test_help_epilog_states_every_cap():
    # The --help epilog is the module docstring; each cap phrase in it is
    # built from the constant that enforces the cap.
    assert cli.build_parser().epilog == cli.__doc__
    epilog = " ".join(cli.__doc__.split())
    phrases = [f"{variant} {name} <= {cap}" for variant, (name, cap) in DESK_CAPS.items()]
    phrases += [
        f"neural train --epochs <= {EPOCHS_CAP}",
        f"witness report --trials <= {REPORT_TRIALS_CAP}",
        f"game fiber --samples <= {FIBER_SAMPLES_CAP}",
        f"kron verify --trials <= {LEMMA_TRIALS_CAP}",
        f"game approx --samples <= {SAMPLES_CAP}",
        f"approx demo --depth <= {DEMO_DEPTH_CAP}",
        f"(--batch-size <= {BATCH_SIZE_CAP},",
        f"--epochs times --batch-size <= {TRAINING_WORK_CAP})",
        f"--expansion-cap (default {DEFAULT_EXPANSION_CAP})",
        f"whose exponents lie at most {GERM_GAP_CAP} apart",
        f"has more than {PRINT_DIGITS_CAP} digits; such a command exits 3",
        f"family emit-formula --n <= {ELIMINATION_CAP}",
        "neural train and neural gradcheck hold --n to the neural-power cap too, before any draw",
        f"formal degree of every node of a --circuit-file circuit (<= {DEGREE_CAP},",
        f"idseq sample --n times --m <= {SAMPLE_COORDINATES_CAP}",
        f"witness report --trials times K^2 <= {REPORT_WORK_CAP}, K its expected rank,"
        " for every family but univariate-d, which is ranked once",
        f"idseq verify --points times --support monomials <= {SPAN_ENTRIES_CAP}",
        f"sum e_i*bits(x_i) <= {MONOMIAL_BITS_CAP} over the largest monomial",
    ]
    assert [phrase for phrase in phrases if phrase not in epilog] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["circuit", "build", "--family", "hypercube-shift", "--n", "6"],
        ["family", "expand", "--family", "hypercube-shift", "--n", "6", "--u", "1,1,1,1,1,1,1"],
        ["circuit", "build", "--family", "kronecker-diag", "--k", "6"],
        ["witness", "roots-of-unity", "--d=65"],
    ],
)
def test_over_desk_cap_exits_3(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert "cap exceeded: desk cap" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (
            ["circuit", "eval", "--family", "hypercube-shift", "--n", "2",
             "--params", "1,1,1", "--inputs", "1,1"],
            "config: circuit_file=None command=eval d=None family=hypercube-shift "
            "group=circuit inputs=1,1 k=None l=None n=2 params=1,1,1 seed=0 task=identity",
        ),
        (
            ["circuit", "expand", "--family", "univariate-d", "--d", "3", "--params", "2"],
            "config: circuit_file=None command=expand d=3 expansion_cap=200000 "
            "family=univariate-d group=circuit k=None l=None n=None params=2 seed=0 "
            "task=identity",
        ),
        (
            ["game", "approx", "--border"],
            "config: audit=False border=True command=approx d=None family=None germ=None "
            "group=game k=None l=None n=None numeric=False samples=12 seed=0 target=None "
            "target_support=None task=identity tolerance=1/64",
        ),
        (
            ["approx", "encode", "--border"],
            "config: border=True command=encode d=None family=None germ=None group=approx "
            "k=None l=None n=None precision=None seed=0 task=identity",
        ),
        (
            ["approx", "demo", "--border"],
            "config: border=True command=demo d=None depth=10 family=None germ=None "
            "group=approx k=None l=None n=None seed=0 task=identity",
        ),
    ],
)
def test_optional_family_flags_config_line(argv, config, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.split("\n")[2] == config
