"""Time one fresh process's set-up for a workload and print it in seconds.

Set-up is ``import`` of the package modules the workload calls, plus the
program-side preparation in ``workloads.setup``.  Importing the
benchmark's own modules is left out.  Usage:

    python3 perfbench/probe.py WORKLOAD SEED
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

from checkout import use_checkout_package

PACKAGE_MODULES = {
    "games": ("quizlab.protocol",),
    "algebra": ("quizlab.witness", "quizlab.kronecker", "quizlab.identify"),
    "cli": ("quizlab.cli",),
}


def main(argv: list[str]) -> None:
    workload_name, seed = argv[0], int(argv[1])
    use_checkout_package()
    started = perf_counter()
    for name in PACKAGE_MODULES[workload_name]:
        importlib.import_module(name)
    imported = perf_counter() - started

    import workloads

    started = perf_counter()
    workloads.setup(workloads.WORKLOADS[workload_name], seed)
    print(repr(imported + perf_counter() - started))


if __name__ == "__main__":
    main(sys.argv[1:])
