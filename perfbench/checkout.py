"""Locate the checkout the benchmark runs in and import quizlab from it.

The benchmark always measures the package in the checkout's ``src/``
directory, never an installed copy, so every entry point calls
``use_checkout_package`` before it imports ``quizlab``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
STATE_DIR = ROOT / ".perfbench"


def use_checkout_package() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``; exit if it is missing."""
    if not (SRC / "quizlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quizlab package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def child_env(base: dict[str, str]) -> dict[str, str]:
    """Environment for a child interpreter that imports the checkout's package.

    The bytecode cache stays on, as for an installed package, so a child's
    import time does not depend on whether the caller disabled it.
    """
    env = dict(base)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env
