"""Replay the package's known traffic and list the lines it never reaches.

The traffic is every argv of the byte-identity corpus, replayed through
``quizlab.cli.main`` as ``test_corpus.py`` replays it, and one pool of each
benchmark workload from ``perfbench/workloads.py``, run and checked in
process; a ``cli`` op's argv goes through ``cli.main`` instead of a child
interpreter.  All of it runs under ``sys.settrace``.  For each function in
``src/quizlab``, the script then prints the executable lines that no
traffic reached, or that the function was never called:

    PYTHONPATH=src python tests/trace_traffic.py

A function missing from the output ran every line.  The script only reads
the benchmark's workload module, and it writes no file.  ``KEPT`` names
each function that the traffic never calls and why it stays;
``test_trace_traffic.py`` holds the never-called set to exactly those.
"""

from __future__ import annotations

import contextlib
import dis
import inspect
import io
import sys
import types
from pathlib import Path

import quizlab
from quizlab import cli

from capture_corpus import read_argv_lines, replay, replay_environment

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(quizlab.__file__).resolve().parent
SEED = 1  # the benchmark pools' seed

# Package functions (module.qualname) that the traffic never calls, each
# with the reason it stays.
KEPT = {
    "poly.Polynomial.__neg__": "test oracles negate a polynomial",
    "poly.Polynomial.is_zero": "test asserts call it",
    "poly.Polynomial.__hash__": (
        "without it the frozen dataclass would hash its fields, and the terms dict has no hash"
    ),
    "exact.LaurentSeries.__bool__": (
        "the Laurent null-row rule: a truncated all-zero window stays truthy "
        "(test_laurent_solve_bounds_each_row_by_its_own_entries)"
    ),
    "kronecker.SquareMatrix.__matmul__": "perfbench traces it as a layer boundary",
    "errors.TermOutsideSupportError.__init__": "an error path",
}


def _functions(path: Path) -> dict[str, tuple[int, set[int]]]:
    """Each function of a source file, by qualified name: its first line and
    its executable lines.  A lambda's or comprehension's lines count as its
    enclosing function's; module and class bodies are left out."""
    found: dict[str, tuple[int, set[int]]] = {}

    def walk(code: types.CodeType, owner: str | None) -> None:
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if not const.co_flags & inspect.CO_OPTIMIZED:  # a class body
                walk(const, owner)
                continue
            name = const.co_qualname
            if const.co_name.startswith("<"):
                name = owner or f"{name}@{const.co_firstlineno}"
            _, lines = found.setdefault(name, (const.co_firstlineno, set()))
            lines.update(
                line
                for _, line in dis.findlinestarts(const)
                if line is not None and line != const.co_firstlineno
            )
            walk(const, name)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return found


def _traced(run) -> dict[str, set[int]]:
    """Run ``run()`` and return the lines each package file reached."""
    reached: dict[str, set[int]] = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set())
        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return reached


def _replay_corpus() -> None:
    with replay_environment():
        for line in read_argv_lines():
            replay(line)


def _replay_workloads(seed: int) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for workload in workloads.WORKLOADS.values():
        state = workload.prepare(seed)
        for kind, op_input in workloads.op_pool(workload, seed):
            if isinstance(state, workloads.CliState):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(op_input)
                result = workloads.CliResult(code, out.getvalue().encode(), err.getvalue().encode())
            else:
                result = kind.run(state, op_input)
            if not kind.check(state, op_input, result):
                raise SystemExit(f"benchmark op failed its check: {kind.name}")


def _spans(lines: list[int]) -> str:
    parts, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def _clear_caches() -> None:
    """Empty the package's memo caches, so that a run after other work in
    the same process calls what a fresh process would."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("quizlab."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def missed_lines() -> list[tuple[str, int, str, list[int], int]]:
    """Replay the traffic and return (file, first line, qualified name,
    missed lines, executable lines) for each function it did not run whole."""
    _clear_caches()
    reached = _traced(lambda: (_replay_corpus(), _replay_workloads(SEED)))
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        hit = reached.get(str(path), set())
        for name, (first, lines) in sorted(_functions(path).items(), key=lambda kv: kv[1][0]):
            missed = sorted(lines - hit)
            if missed:
                out.append((path.name, first, name, missed, len(lines)))
    return out


def never_called() -> set[str]:
    """The module.qualname of each function that the traffic never calls."""
    return {
        f"{file.removesuffix('.py')}.{name}"
        for file, _, name, missed, total in missed_lines()
        if len(missed) == total
    }


def main() -> int:
    for file, first, name, missed, total in missed_lines():
        where = f"{file}:{first} {name}"
        if len(missed) == total:
            print(f"{where}: never called ({total} lines)")
        else:
            print(f"{where}: {_spans(missed)} of {total} lines not reached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
