"""Command-line front end: dispatch, reproducibility, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from quizlab.cli import main


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


MALFORMED_CIRCUIT_FILES = {
    "not-json.txt": "n = 1\n",
    "array.json": "[1, 2]\n",
    "no-output.json": '{"n": 1, "r": 1, "nodes": []}\n',
    "empty-node.json": '{"n": 1, "r": 1, "nodes": [{}], "output": 0}\n',
    "string-n.json": '{"n": "1", "r": 1, "nodes": [{"kind": "input", "args": [0]}], "output": 0}\n',
    "float-output.json": '{"n": 1, "r": 1, "nodes": [{"kind": "input", "args": [0]}], "output": 0.5}\n',
    "nodes-object.json": '{"n": 1, "r": 1, "nodes": {"kind": "input"}, "output": 0}\n',
    "few-args.json": '{"n": 1, "r": 1, "nodes": [{"kind": "input", "args": [0]}, '
    '{"kind": "add", "args": [0]}], "output": 1}\n',
    "unknown-kind.json": '{"n": 1, "r": 1, "nodes": [{"kind": "div", "args": [0, 0]}], "output": 0}\n',
    "int-constant.json": '{"n": 1, "r": 1, "nodes": [{"kind": "const", "args": [3]}], "output": 0}\n',
    "bad-term.json": '{"n": 1, "r": 1, "nodes": [{"kind": "poly_param", "args": [[1]]}], "output": 0}\n',
}


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
            ["game", "approx", "--border", "--numeric", "--tolerance=-1"],
            "cluster tolerance must be nonnegative, got -1",
        ),
    ],
)
def test_malformed_value_message_names_it(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "name, argv",
    [
        ("QUIZLAB_EXPANSION_CAP",
         ["circuit", "expand", "--family", "univariate-d", "--d", "3", "--params", "2"]),
        ("QUIZLAB_ELIMINATION_CAP", ["kron", "charpoly", "--k", "2", "--s", "1", "--u", "1,2"]),
    ],
)
def test_malformed_cap_variable_exits_2(name, argv, capsys, monkeypatch):
    monkeypatch.setenv(name, "abc")
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert f"{name} must be an integer, got 'abc'" in err
    assert "Traceback" not in err


def test_unused_cap_variable_is_ignored(capsys, monkeypatch):
    # Only circuit expand reads the expansion cap; the parser does not.
    argv = ["kron", "verify", "--k", "2"]
    monkeypatch.delenv("QUIZLAB_EXPANSION_CAP", raising=False)
    expected = run_cli(argv, capsys)
    monkeypatch.setenv("QUIZLAB_EXPANSION_CAP", "abc")
    assert run_cli(argv, capsys) == expected
    assert expected[0] == 0


def test_expansion_cap_variable_sets_the_default(capsys, monkeypatch):
    monkeypatch.setenv("QUIZLAB_EXPANSION_CAP", "7")
    argv = ["circuit", "expand", "--family", "univariate-d", "--d", "3", "--params", "2"]
    code, out, _ = run_cli(argv, capsys)
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
    "argv",
    [
        ["circuit", "build", "--family", "hypercube-shift", "--n", "6"],
        ["family", "expand", "--family", "hypercube-shift", "--n", "6", "--u", "1,1,1,1,1,1,1"],
        ["circuit", "build", "--family", "kronecker-diag", "--k", "6"],
    ],
)
def test_desk_cap_ignores_elimination_override(argv, capsys, monkeypatch):
    # The elimination cap (default 10) may be raised, but --family commands
    # check the smaller desk cap first.
    monkeypatch.setenv("QUIZLAB_ELIMINATION_CAP", "12")
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
def test_optional_family_flags_config_line(argv, config, capsys, monkeypatch):
    monkeypatch.delenv("QUIZLAB_EXPANSION_CAP", raising=False)
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.split("\n")[2] == config
