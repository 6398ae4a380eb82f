"""Every package module imports only the standard library and quizlab, and
uses every name it imports, so a deletion leaves no dead import behind."""

import ast
import sys
from pathlib import Path

import pytest

import quizlab

MODULES = sorted(Path(quizlab.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module):
    """(top-level module, bound name) for each name an import binds; a
    relative import is quizlab's own."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield top, alias.asname or top
        elif isinstance(node, ast.ImportFrom):
            top = "quizlab" if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield top, alias.asname or alias.name


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, including those inside quoted
    annotations such as ``-> "Polynomial"``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def test_every_module_is_checked():
    assert {path.stem for path in MODULES} >= {"__init__", "cli", "witness", "exact"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library_and_quizlab(path):
    outside = {
        top for top, _ in _imports(_tree(path))
        if top != "quizlab" and top not in sys.stdlib_module_names
    }
    assert outside == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = _tree(path)
    used = _used_names(tree)
    unused = {
        name for top, name in _imports(tree)
        if top != "__future__" and name not in used
    }
    assert unused == set()
