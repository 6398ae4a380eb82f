"""Run one quizlab command with the benchmark's layer wrappers installed.

The traced ``cli`` workload starts each child through this launcher
instead of ``python -m quizlab.cli``.  It times ``import quizlab.cli``,
installs the same wrappers as an in-process traced run, calls the entry
point ``quizlab.cli.main`` exactly as the module's ``__main__`` block does,
and writes its spans to SPANS_JSON for the parent to merge.  Usage:

    python3 perfbench/launcher.py SPANS_JSON ARG...
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from checkout import use_checkout_package


def main(spans_path: str, argv: list[str]) -> int:
    use_checkout_package()
    started = perf_counter()
    import quizlab.cli

    import_s = perf_counter() - started

    from tracing import Tracer

    tracer = Tracer()
    tracer.events.append((-1, "cli.import_s", import_s))
    tracer.install()
    try:
        return quizlab.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
