"""Outside-in layer tracing: spans around calls into quizlab's public functions.

Nothing under ``src/`` is instrumented.  ``Tracer.install`` replaces each
boundary function in every ``quizlab`` module namespace that binds the same
function object (``solve_exact`` is bound in ``witness`` and ``protocol``,
``expand_family`` in four modules), and patches the listed methods on their
class.  ``Tracer.uninstall`` puts every original object back.  The
``lru_cache`` wrapper ``build_circuit_cached`` keeps its reference to the
original ``build_circuit``, so cached circuit builds are not spans.

Each span records its boundary, start, end, parent span and op id (-1 for
set-up).  Spans stay in memory; ``dump`` returns them for writing once at
exit.  A layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

BOUNDARIES = (
    ("protocol", (
        "builtin_strategy",
        "run_exact",
        "run_approx",
        "player_interpolate",
        "apply_post_map",
        "reference_encoding",
        "decide_equal",
    )),
    ("witness", (
        "solve_exact",
        "exact_rank",
        "evaluation_matrix",
        "derivative_matrix",
        "hypercube_lk_matrix",
        "roots_of_unity_matrix",
        "lower_bound_report",
    )),
    ("kronecker", (
        "char_poly",
        "build_theta_matrix",
        "verify_lemma_identities",
        "SquareMatrix.__matmul__",
    )),
    ("families", ("expand_family", "elimination_poly", "build_circuit")),
    ("circuit", ("Circuit.evaluate", "Circuit.expand")),
    ("identify", ("verify_linear_span", "sample_sequence")),
    ("approx", ("encode", "sequence_from_germ", "closure_membership_demo")),
    ("neural", ("train", "gradient", "loss")),
    ("poly", ("Polynomial.__mul__",)),
    ("exact", ("LaurentSeries.__mul__",)),
    ("cli", ("main",)),
)

LABELS = tuple(f"{module}.{name}" for module, names in BOUNDARIES for name in names)

RING_KINDS = {
    "RationalRing": "rational",
    "LaurentRing": "laurent",
    "PolynomialRing": "polynomial",
}

COUNTED = (
    ("circuit.nodes.rational", "count"),
    ("circuit.nodes.laurent", "count"),
    ("circuit.nodes.polynomial", "count"),
    ("protocol.accept_ratio", "ratio"),
    ("witness.rank_hit_ratio", "ratio"),
    ("identify.span_pass_ratio", "ratio"),
    ("cli.import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Every per-layer metric a traced run reports, with its unit, in print order.
PER_LAYER = tuple(
    (f"{label}.{suffix}", unit)
    for label in LABELS
    for suffix, unit in (("calls", "count"), ("self_s", "s"))
) + COUNTED


def _count_nodes(events, op, args, kwargs, result):
    ring = args[3] if len(args) > 3 else kwargs.get("ring")
    kind = "rational" if ring is None else RING_KINDS.get(type(ring).__name__)
    if kind is not None:
        events.append((op, f"circuit.nodes.{kind}", len(args[0].nodes)))


def _count_round(events, op, args, kwargs, result):
    events.append((op, "protocol.rounds", 1))
    events.append((op, "protocol.accepted", int(result.verdict == "accept")))


def _count_trials(events, op, args, kwargs, result):
    events.append((op, "witness.trials", result.trials))
    events.append((op, "witness.rank_hits", result.success_count))


def _count_span_certificate(events, op, args, kwargs, result):
    events.append((op, "identify.span_attempts", 1))
    events.append((op, "identify.span_passes", int(bool(result))))


HOOKS = {
    "circuit.Circuit.evaluate": _count_nodes,
    "protocol.run_exact": _count_round,
    "protocol.run_approx": _count_round,
    "witness.lower_bound_report": _count_trials,
    "identify.verify_linear_span": _count_span_certificate,
}


class Tracer:
    """Span recorder plus the patch plan that routes boundary calls through it."""

    def __init__(self):
        self.op = -1
        self.names = list(LABELS)
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.ops: list[int] = []
        self.events: list[tuple[int, str, float]] = []
        self._stack: list[int] = []
        self.patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        modules = {name: importlib.import_module(f"quizlab.{name}") for name, _ in BOUNDARIES}
        package = [
            module
            for key, module in sorted(sys.modules.items())
            if key == "quizlab" or key.startswith("quizlab.")
        ]
        patches = []
        for label_id, label in enumerate(LABELS):
            module_name, _, qualname = label.partition(".")
            owner_path, _, attr = qualname.rpartition(".")
            if owner_path:
                owner = getattr(modules[module_name], owner_path)
                original = vars(owner)[attr]
                bindings = [(owner, attr)]
            else:
                original = getattr(modules[module_name], attr)
                bindings = [
                    (module, key)
                    for module in package
                    for key, value in vars(module).items()
                    if value is original
                ]
            wrapper = self._wrap(label_id, original, HOOKS.get(label))
            patches.extend((owner, key, original, wrapper) for owner, key in bindings)
        return patches

    def _wrap(self, label_id: int, fn, hook):
        name, start, end, parent, ops = self.name, self.start, self.end, self.parent, self.ops
        stack, events = self._stack, self.events
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            name.append(label_id)
            parent.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            end.append(0.0)
            stack.append(index)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(events, tracer.op, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, key, _, wrapper in self.patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self.patches:
            setattr(owner, key, original)

    def dump(self) -> dict:
        """Every span and counter event, as plain lists."""
        return {
            "names": self.names,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.ops,
            "events": self.events,
        }

    def merge(self, child: dict, op: int) -> None:
        """Append a child process's dump; its spans and events belong to ``op``."""
        if child["names"] != self.names:
            raise ValueError("child spans use other boundary names")
        offset = len(self.start)
        self.name.extend(child["name"])
        self.start.extend(child["start"])
        self.end.extend(child["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in child["parent"])
        self.ops.extend(op for _ in child["name"])
        self.events.extend((op, key, amount) for _, key, amount in child["events"])

    def layer_metrics(self, op_limit: int) -> dict[str, float]:
        """Per-layer metrics over set-up and the ops with id below ``op_limit``.

        ``trace.overhead_ratio`` is not known here; the caller adds it.
        """
        child_time = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, label_id in enumerate(self.name):
            if self.ops[i] < op_limit:
                label = self.names[label_id]
                calls[label] += 1
                self_s[label] += self.end[i] - self.start[i] - child_time[i]
        totals: defaultdict = defaultdict(float)
        imports = []
        for op, key, amount in self.events:
            if op < op_limit:
                if key == "cli.import_s":
                    imports.append(amount)
                else:
                    totals[key] += amount
        metrics: dict[str, float] = {}
        for label in LABELS:
            metrics[f"{label}.calls"] = calls[label]
            metrics[f"{label}.self_s"] = self_s[label]
        for kind in ("rational", "laurent", "polynomial"):
            metrics[f"circuit.nodes.{kind}"] = totals[f"circuit.nodes.{kind}"]
        metrics["protocol.accept_ratio"] = _ratio(totals, "protocol.accepted", "protocol.rounds")
        metrics["witness.rank_hit_ratio"] = _ratio(totals, "witness.rank_hits", "witness.trials")
        metrics["identify.span_pass_ratio"] = _ratio(
            totals, "identify.span_passes", "identify.span_attempts"
        )
        metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
        return metrics


def _ratio(totals, numerator: str, denominator: str) -> float:
    """Useful outcomes over attempts; 0 when the layer made no attempt."""
    return totals[numerator] / totals[denominator] if totals[denominator] else 0.0
