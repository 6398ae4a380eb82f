"""Byte-identity corpus: replay quizlab argvs in process and keep their records.

``corpus/argv.txt`` holds one argv per line in shell quoting; blank lines
and lines starting with ``#`` are skipped.  ``corpus/records.jsonl`` holds
one golden record per argv, in the same order: the argv line, the exit
code and the exact stdout and stderr text.  ``test_corpus.py`` replays
every line and compares bytes.  Run this file to capture the records:

    PYTHONPATH=src python tests/capture_corpus.py

It reruns every argv, rewrites only the records whose bytes changed, adds
records for new lines, drops records of removed lines, and prints each
line it touched, so a deliberate output change shows as a record diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from quizlab.cli import main as cli_main

from conftest import MALFORMED_CIRCUIT_FILES, OVER_DEGREE_CIRCUIT_FILES

CORPUS = Path(__file__).resolve().parent / "corpus"
ARGV_FILE = CORPUS / "argv.txt"
RECORDS_FILE = CORPUS / "records.jsonl"

# argparse wraps usage text at the terminal width: it is fixed for every replay.
FIXED_ENV = {"COLUMNS": "80"}


def read_argv_lines() -> list[str]:
    lines = ARGV_FILE.read_text().splitlines()
    return [line for line in lines if line.strip() and not line.startswith("#")]


def read_records() -> dict[str, dict]:
    if not RECORDS_FILE.exists():
        return {}
    records = [json.loads(line) for line in RECORDS_FILE.read_text().splitlines()]
    return {record["argv"]: record for record in records}


def record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


@contextlib.contextmanager
def replay_environment():
    """A fresh working directory holding ``files/`` with the malformed and
    the over-degree circuit documents, and the fixed environment; both
    restored after."""
    saved_env = {name: os.environ.get(name) for name in FIXED_ENV}
    saved_cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        files = Path(tmp) / "files"
        files.mkdir()
        for name, text in {**MALFORMED_CIRCUIT_FILES, **OVER_DEGREE_CIRCUIT_FILES}.items():
            (files / name).write_text(text)
        os.environ.update(FIXED_ENV)
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(saved_cwd)
            for name, value in saved_env.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value


def replay(line: str) -> dict:
    """Run one argv line through ``quizlab.cli.main`` with both streams
    captured; must run inside ``replay_environment``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(shlex.split(line))
        except SystemExit as exc:  # argparse usage errors, --version
            code = exc.code
    return {"argv": line, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    old = read_records()
    lines = read_argv_lines()
    out = []
    with replay_environment():
        for line in lines:
            record = replay(line)
            if line not in old:
                print(f"new: {line}")
            elif record_line(record) != record_line(old[line]):
                print(f"changed: {line}")
            out.append(record_line(record))
    for line in old.keys() - set(lines):
        print(f"removed: {line}")
    RECORDS_FILE.write_text("".join(text + "\n" for text in out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
