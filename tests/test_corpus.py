"""Every corpus argv replays to its golden stdout, stderr and exit code."""

import argparse
from pathlib import Path

import pytest

from quizlab.cli import build_parser

from capture_corpus import read_argv_lines, read_records, replay, replay_environment

LINES = read_argv_lines()
RECORDS = read_records()


@pytest.fixture(scope="module")
def environment():
    with replay_environment():
        yield


@pytest.mark.parametrize("line", LINES)
def test_corpus_record(line, environment):
    assert line in RECORDS, "no record: run tests/capture_corpus.py"
    assert replay(line) == RECORDS[line]


def test_corpus_has_one_record_per_line():
    assert len(LINES) == len(set(LINES))
    assert list(RECORDS) == LINES


def _subcommands(parser: argparse.ArgumentParser, prefix=()):
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not actions:
        yield prefix
        return
    for name, sub in actions[0].choices.items():
        yield from _subcommands(sub, prefix + (name,))


COMMANDS = set(_subcommands(build_parser()))


def test_corpus_covers_every_subcommand():
    assert COMMANDS and all(len(command) == 2 for command in COMMANDS)
    covered = {tuple(line.split()[:2]) for line in LINES}
    assert COMMANDS <= covered, sorted(COMMANDS - covered)


def _first_success_per_subcommand() -> list[str]:
    first = {}
    for line in LINES:
        command = tuple(line.split()[:2])
        if command in COMMANDS and RECORDS.get(line, {}).get("exit") == 0:
            first.setdefault(command, line)
    return list(first.values())


FIRST_SUCCESS = _first_success_per_subcommand()


def test_every_subcommand_has_a_successful_record():
    assert {tuple(line.split()[:2]) for line in FIRST_SUCCESS} == COMMANDS


# ``main`` writes every report through one path: with --out the file holds
# exactly the bytes the record holds for stdout, and both streams stay empty.
@pytest.mark.parametrize("line", FIRST_SUCCESS)
def test_out_file_holds_the_recorded_stdout(line, environment):
    report = Path("report.txt")
    record = replay(f"{line} --out={report}")
    assert (record["exit"], record["stdout"], record["stderr"]) == (0, "", "")
    assert report.read_bytes() == RECORDS[line]["stdout"].encode()
    report.unlink()
