"""The benchmark's own tests: run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from checkout import ROOT, use_checkout_package

use_checkout_package()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = Path(__file__).resolve().parent / "run.py"


def bench(workload: str, trace: int, seed: int = 3) -> tuple[str, dict]:
    """A tiny run: one input per op kind, and as few passes as allowed."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--pool-size", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = done.stdout.strip().splitlines()
    return done.stdout, json.loads(lines[-1])


def digest(stdout: str) -> str:
    (line,) = [x for x in stdout.splitlines() if x.startswith("digest ")]
    return line.split()[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_and_repeats_its_digest(name):
    first, result = bench(name, 0)
    for metric in BENCHMARK["end_to_end"]:
        assert f"metric {metric['name']} " in first
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert "metric op_fail_ratio 0.0 ratio" in first
    assert result["correct"] and result["failed"] == 0
    second, _ = bench(name, 0)
    assert digest(first) == digest(second)
    traced, traced_result = bench(name, 1)
    assert digest(traced) == digest(first)
    assert traced_result["correct"]
    assert set(traced_result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert traced_result["metrics"][metric["name"]]["unit"] == metric["unit"]
    calls = {
        key: m["value"] for key, m in traced_result["metrics"].items() if key.endswith(".calls")
    }
    if name == "algebra":
        assert not any(v for key, v in calls.items() if key.startswith("protocol."))
    if name == "games":
        assert calls["witness.lower_bound_report.calls"] == 0


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _bindings():
    """Every attribute of every quizlab module, and of the patched classes."""
    seen = {}
    for key, module in sys.modules.items():
        if key == "quizlab" or key.startswith("quizlab."):
            for attr, value in vars(module).items():
                seen[(key, attr)] = value
                if isinstance(value, type):
                    for member, obj in vars(value).items():
                        seen[(key, attr, member)] = obj
    return seen


def test_traced_run_restores_every_wrapped_attribute(capsys):
    tracing.Tracer()  # imports every boundary module before the snapshot
    before = _bindings()
    assert run.main(["--workload", "games", "--seed", "5", "--seconds", "0",
                     "--trace", "1", "--pool-size", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["metrics"]["witness.solve_exact.calls"]["value"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def _wrong(name: str, output):
    """A plausible but wrong answer of the same type."""
    if name == "games":
        first = Fraction(output.player_message[0]) + 1
        return replace(output, player_message=(str(first),) + output.player_message[1:])
    if name == "cli":
        return replace(output, stderr=b"Traceback (most recent call last):\n")
    if isinstance(output, bool) and output:
        return False
    if isinstance(output, tuple):
        return (True, True, False)
    if isinstance(output, int):
        return output - 1
    return replace(output, achieved_ranks=(output.expected_rank + 1,))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_answer_counts_as_failed_op(name):
    workload = workloads.WORKLOADS[name]
    state = workloads.setup(workload, 11)
    rng = random.Random(11)
    for kind in workload.kinds:
        op_input = kind.make_input(rng)
        output = kind.run(state, op_input)
        assert kind.check(state, op_input, output), kind.name
        assert not kind.check(state, op_input, _wrong(name, output)), kind.name

    def wrong_run(kind):
        return lambda s, op_input: _wrong(name, kind.run(s, op_input))

    broken = replace(
        workload,
        kinds=tuple(replace(kind, run=wrong_run(kind)) for kind in workload.kinds),
    )
    loop = run.timed_loop(state, workloads.op_pool(broken, 11, 1), 0, 2)
    assert loop.failed == len(loop.latencies) == 2 * len(broken.kinds)
