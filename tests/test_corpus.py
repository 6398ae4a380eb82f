"""Every corpus argv replays to its golden stdout, stderr and exit code."""

import argparse

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


def test_corpus_covers_every_subcommand():
    commands = set(_subcommands(build_parser()))
    assert commands and all(len(command) == 2 for command in commands)
    covered = {tuple(line.split()[:2]) for line in LINES}
    assert commands <= covered, sorted(commands - covered)
