"""The package's public surface stays what the commands use.

Every module's ``__all__`` lists exactly its public module-level functions
and classes, and every such name is reached from ``cli.py``; references that
only tests compare with live under ``tests/``.  Reachability walks names
through the source with ``ast``: a top-level definition is reached when
cli's module-level code or a reached definition mentions it by bare name,
through ``from .module import name``, or as ``module.name`` after
``from . import module``, imports inside functions included.  A local
variable that shares a top-level name counts as a mention, so the walk can
only over-report.  The package imports nothing beyond the standard library
and numpy, its one declared dependency.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import sphnodal

# (function, parameter, position) that the benchmark's counters in
# perfbench/spans.py read from call arguments, by position or by name; a
# rename or a move would zero or break the counter without any error here
COUNTER_ARGUMENTS = [
    ("moments.kernel_K", "mc_paths", 1),
    ("moments.volume_second_moment", "mc_paths", 2),
    ("ensemble.eval_basis_many", "basis", 0),
    ("ensemble.eval_gradient_ambient_many", "points", 1),
    ("specfun.gegenbauer_q", "model", 0),
    ("specfun.gegenbauer_q", "t", 1),
    ("specfun.gegenbauer_eval_arrays", "model", 0),
    ("specfun.gegenbauer_eval_arrays", "t", 1),
]

# the package __init__ only re-exports
TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(Path(sphnodal.__file__).parent.glob("*.py"))
         if path.stem != "__init__"}


def _public(tree) -> set[str]:
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return None


def _definitions(tree) -> dict:
    """Top-level name -> the statement that binds it."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
    return defs


def _relative_imports(tree) -> dict:
    """Local name -> (module, name), with name None for a module import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (node.module, alias.name) if node.module else (alias.name, None)
                bound[alias.asname or alias.name] = target
    return bound


def _reached() -> set[tuple[str, str]]:
    """(module, name) of every top-level definition reached from cli's
    module-level code."""
    defs = {module: _definitions(tree) for module, tree in TREES.items()}
    imports = {module: _relative_imports(tree) for module, tree in TREES.items()}
    seen = set()
    todo = [("cli", node) for node in TREES["cli"].body]
    while todo:
        module, node = todo.pop()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                bound = imports[module].get(sub.id)
                key = bound if bound and bound[1] else (module, sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                bound = imports[module].get(sub.value.id)
                if not bound or bound[1] is not None:
                    continue
                key = (bound[0], sub.attr)
            else:
                continue
            if key not in seen and key[1] in defs.get(key[0], {}):
                seen.add(key)
                todo.append((key[0], defs[key[0]][key[1]]))
    return seen


@pytest.mark.parametrize("module", sorted(TREES))
def test_all_lists_exactly_the_public_functions_and_classes(module):
    assert _declared_all(TREES[module]) == _public(TREES[module])


def test_every_public_name_is_reached_from_the_cli_or_kept():
    # a public name that no command reaches belongs in the tests that use it
    public = {f"{module}.{name}" for module, tree in TREES.items() for name in _public(tree)}
    from_cli = {f"{module}.{name}" for module, name in _reached()}
    assert sorted(public - from_cli) == []


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    imported = set()
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(module, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((module, node.module.split(".")[0]))
    assert sorted(f"{module}: {name}" for module, name in imported if name not in allowed) == []


@pytest.mark.parametrize("function, name, position", COUNTER_ARGUMENTS,
                         ids=[f"{f}.{name}" for f, name, _ in COUNTER_ARGUMENTS])
def test_benchmark_counter_arguments_keep_their_place(function, name, position):
    module, attr = function.split(".")
    params = list(inspect.signature(
        getattr(importlib.import_module(f"sphnodal.{module}"), attr)).parameters.values())
    assert params[position].name == name
    assert params[position].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
