"""Source hygiene of the ``qlrc`` package, checked with the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qlrc"


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            yield from (a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                        + [args.vararg, args.kwarg] if a is not None)
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import anywhere in the module and never read in it."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):  # a string annotation such as -> "PauliError"
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                     if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _private_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module: bare names, attributes, and imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_definition_is_referenced():
    # a module-level _helper that nothing in the package names is dead code
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    dead = [f"{name}:{fn}" for name, tree in trees.items()
            for fn in _private_definitions(tree) if fn not in referenced]
    assert dead == []
