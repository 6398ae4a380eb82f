"""quizlab benchmark: one closed-loop workload, one client, every answer checked.

    python3 perfbench/run.py --workload games --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md beside this file).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from checkout import ROOT, STATE_DIR, child_env, use_checkout_package

use_checkout_package()

import tracing  # noqa: E402  (needs the checkout's package on sys.path)
import workloads  # noqa: E402

SETUP_PROBES = 11
PROBE = Path(__file__).resolve().parent / "probe.py"
PROBE_TIMEOUT_S = 60
CALIBRATION_ROUNDS = 300_000

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("class_a_ops_per_s", "ops/s"),
    ("class_b_ops_per_s", "ops/s"),
)


@dataclass
class Loop:
    """What the timed loop saw.  Op ``i`` ran pool item ``i % len(pool)``."""

    pool: list  # (kind, input) per item
    latencies: list = field(default_factory=list)
    passed: list = field(default_factory=list)
    expected: list = field(default_factory=list)  # checked canonical bytes, or None
    wall_s: float = 0.0
    traced_s: float = 0.0
    untraced_s: float = 0.0

    def digest(self) -> str:
        h = hashlib.sha256()
        for i, ((kind, _), canonical) in enumerate(zip(self.pool, self.expected)):
            h.update(f"{i} {kind.name}\n".encode())
            h.update(canonical if canonical is not None else b"failed")
        return h.hexdigest()

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    @property
    def passes(self) -> int:
        return len(self.latencies) // len(self.pool)

    def upper_quartiles(self) -> list[float]:
        """The upper quartile of each pool item's runs."""
        n = len(self.pool)
        return [statistics.quantiles(self.latencies[j::n], n=4)[2] for j in range(n)]

    def items_passed(self) -> int:
        """Pool items whose every run passed."""
        n = len(self.pool)
        return sum(all(self.passed[j::n]) for j in range(n))


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; recorded, never used to scale."""
    started = perf_counter()
    total = 0
    for i in range(CALIBRATION_ROUNDS):
        total += i * i % 7
    return perf_counter() - started


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
    }


def _run_op(kind, state, op_input):
    """Run one op; returns (seconds, output, error)."""
    started = perf_counter()
    try:
        output = kind.run(state, op_input)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return perf_counter() - started, None, exc
    return perf_counter() - started, output, None


def _report_failure(i: int, kind, why) -> None:
    print(f"op {i} ({kind.name}) failed: {why}", file=sys.stderr)
    if isinstance(why, BaseException):
        traceback.print_exception(why, file=sys.stderr)


def timed_loop(state, pool, seconds, min_passes, tracer=None, pauses=()) -> Loop:
    """Closed loop: one op at a time, in whole passes over ``pool``, until
    ``seconds`` and ``min_passes`` are met.

    The first pass checks every answer; a later pass must repeat the
    checked output byte for byte.  Checking is not part of the loop's wall
    time.  With a tracer, every op runs twice, untraced and then traced;
    both outputs must agree byte for byte, and the traced one is the op's
    result.  Each of ``pauses`` runs once, outside the loop's wall time, at
    evenly spaced points of the loop (any left over run at its end).
    """
    loop = Loop(pool)
    pending = list(pauses)
    checking = 0.0
    started = perf_counter()
    i = 0
    n = len(pool)
    while i % n or i < min_passes * n or perf_counter() - started - checking < seconds:
        elapsed = perf_counter() - started - checking
        if pending and elapsed >= seconds * (len(pauses) - len(pending) + 0.5) / len(pauses):
            pause_started = perf_counter()
            pending.pop(0)()
            checking += perf_counter() - pause_started
        kind, op_input = pool[i % n]
        latency, output, error = _run_op(kind, state, op_input)
        if tracer is not None:
            loop.untraced_s += latency
            untraced, untraced_error = output, error
            with workloads.traced(tracer, state, i) as traced_state:
                latency, output, error = _run_op(kind, traced_state, op_input)
            loop.traced_s += latency
            error = error or untraced_error
        loop.latencies.append(latency)
        check_started = perf_counter()
        if error is None:
            canonical = kind.canonical(output)
            if i < n:
                loop.expected.append(canonical if kind.check(state, op_input, output) else None)
            if canonical != loop.expected[i % n]:
                checked = loop.expected[i % n] is not None
                error = "output changed when repeated" if checked else "wrong answer"
            elif tracer is not None and kind.canonical(untraced) != canonical:
                error = "traced and untraced outputs differ"
        elif i < n:
            loop.expected.append(None)
        loop.passed.append(error is None)
        if error is not None:
            _report_failure(i, kind, error)
        checking += perf_counter() - check_started
        i += 1
    loop.wall_s = perf_counter() - started - checking
    for pause in pending:
        pause()
    return loop


def setup_probe(workload_name: str, seed: int, samples: list[float]):
    """A pause that times one fresh process's set-up and appends it to ``samples``."""

    def probe():
        done = subprocess.run(
            [sys.executable, str(PROBE), workload_name, str(seed)],
            cwd=ROOT,
            env=child_env(os.environ),
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))

    return probe


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload is workloads.CLI else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload, loop: Loop, setup_samples: list[float]) -> tuple[dict, list[str]]:
    """Latency and throughput over one figure per pool item: the upper
    quartile of its runs.

    The shared machine runs at one of two speeds, about 1.7x apart, and
    switches between them in stretches of a second to more than 30 s; the
    slow one holds most of the time.  Every item runs once per pass, so its
    runs are spread over the whole loop.  The upper quartile of an item's
    runs stays within the slow speed whatever share of the run the fast one
    took, where its fastest run depends on whether a fast stretch came at
    all.  A fixed pool keeps the inputs' own spread in cost out of the
    figure.  README.md ("Sizing") gives the measurements.
    """
    times = loop.upper_quartiles()
    n = len(times)
    passed = loop.items_passed()
    p90 = percentile(times, 0.9)
    steady = f"each the upper quartile of {loop.passes} runs of one pool op"
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": passed / sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_p90_ms": 1000 * p90,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh processes,"
        f" fastest {min(setup_samples):.4f} s",
        "ops_per_s": f"{passed} of {n} pool ops passed every run, {steady}",
        "op_p50_ms": f"n={n}, {steady}",
        "op_p90_ms": f"n={n}, {sum(1 for x in times if x > p90)} beyond, {steady}",
        "peak_rss_mb": "largest child" if workload is workloads.CLI else "this process",
    }
    for group, label in zip("ab", workload.classes):
        group_times = [t for t, (kind, _) in zip(times, loop.pool) if kind.group == group]
        values[f"class_{group}_ops_per_s"] = len(group_times) / sum(group_times)
        notes[f"class_{group}_ops_per_s"] = f"{label}, n={len(group_times)}, {steady}"
    lines = [
        f"metric {name} {values[name]!r} {unit} ({notes[name]})" for name, unit in END_TO_END
    ]
    total = len(loop.latencies)
    lines += [
        f"metric op_fail_ratio {loop.failed / total!r} ratio ({loop.failed}/{total} ops)",
        f"info whole run: {total} ops in {loop.wall_s:.3f} s,"
        f" {(total - loop.failed) / loop.wall_s:.3f} ops/s,"
        f" p50 {1000 * statistics.median(loop.latencies):.3f} ms,"
        f" p90 {1000 * percentile(loop.latencies, 0.9):.3f} ms",
    ]
    return {name: (values[name], unit) for name, unit in END_TO_END}, lines


def per_layer(tracer, loop: Loop) -> tuple[dict, list[str]]:
    values = tracer.layer_metrics(len(loop.pool))
    values["trace.overhead_ratio"] = loop.traced_s / loop.untraced_s - 1
    lines = [
        f"metric {name} {values[name]!r} {unit}" for name, unit in tracing.PER_LAYER
    ]
    lines.append(
        f"note per-layer figures cover set-up and the first pass, ops 0..{len(loop.pool) - 1};"
        f" trace.overhead_ratio covers all {len(loop.latencies)} ops"
    )
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pool-size", type=int, default=None,
        help="inputs per op kind (default: the workload's); the digest covers the pool",
    )
    args = parser.parse_args(argv)
    if args.pool_size is not None and args.pool_size < 1:
        parser.error("--pool-size must be at least 1")
    workload = workloads.WORKLOADS[args.workload]
    pool = workloads.op_pool(workload, args.seed, args.pool_size)
    STATE_DIR.mkdir(exist_ok=True)

    record = machine_record()
    record["calibration_start_s"] = calibrate()
    setup_samples: list[float] = []
    if args.trace:
        tracer = tracing.Tracer()
        with workloads.traced(tracer, None, -1):
            state = workloads.setup(workload, args.seed)
        loop = timed_loop(state, pool, args.seconds, 1, tracer)
        metrics, lines = per_layer(tracer, loop)
    else:
        probes = [setup_probe(workload.name, args.seed, setup_samples)] * SETUP_PROBES
        state = workloads.setup(workload, args.seed)
        # Two passes at least, so that every answer is repeated and compared.
        loop = timed_loop(state, pool, args.seconds, 2, pauses=probes)
        metrics, lines = end_to_end(workload, loop, setup_samples)
    record["calibration_end_s"] = calibrate()
    record["loadavg_after"] = os.getloadavg()

    failed = loop.failed
    digest = loop.digest()
    stem = STATE_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(f"{stem}-spans.json", "w") as handle:
            json.dump(tracer.dump(), handle)
    with open(f"{stem}-run.json", "w") as handle:
        json.dump({
            "record": record,
            "digest": digest,
            "metrics": metrics,
            "pool_kinds": [kind.name for kind, _ in loop.pool],
            "op_latencies_s": loop.latencies,
            "setup_samples_s": setup_samples,
        }, handle)

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("record " + json.dumps(record))
    print("\n".join(lines))
    print(f"digest sha256={digest} (pool of {len(loop.pool)} ops, passes={loop.passes})")
    result = {
        "correct": failed == 0,
        "attempted": len(loop.latencies),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
