"""The benchmark's traced layer boundaries still name real functions.

``perfbench/tracing.py`` patches each boundary by module and name.  Building
its patch plan (without installing it) resolves every boundary, so a
refactor that renames or deletes a traced function fails here instead of
only when the benchmark runs.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    traced = {id(original) for _, _, original, _ in tracer.patches}
    assert len(traced) == len(tracing.LABELS)
    for owner, key, original, _ in tracer.patches:
        assert callable(original)
        assert vars(owner)[key] is original  # planned, not installed
    bound = {(owner.__name__, key) for owner, key, _, _ in tracer.patches}
    # a game solve reaches solve_exact through protocol's binding
    assert ("quizlab.protocol", "solve_exact") in bound
    assert ("quizlab.witness", "solve_exact") in bound
