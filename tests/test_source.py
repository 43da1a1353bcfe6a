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


def _imported_names(tree: ast.AST) -> set[str]:
    """Names read from other modules: ``from .m import name`` and ``m.name``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the tree: bare names, attributes, and imported names."""
    return _imported_names(tree) | {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _bound_names(tree: ast.AST) -> set[str]:
    """Names a definition binds inside itself: assignment targets, arguments
    and nested definitions. A read of one of them is not a module-level read."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node is not tree:
            out.add(node.name)
    return out


def _module_reads(definition: ast.AST) -> set[str]:
    """The names a module-level definition reads from its module: its bare
    names less the ones it binds, plus attributes and imported names."""
    bare = {node.id for node in ast.walk(definition) if isinstance(node, ast.Name)}
    return _imported_names(definition) | (bare - _bound_names(definition))


def test_every_traced_name_resolves():
    # perfbench/spans.py wraps qlrc functions by (module, name); parsed, not
    # imported, so that a renamed function fails here and not only in perfbench
    import importlib

    spans = ast.parse((SRC.parents[1] / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    targets = next(node.value for node in spans.body
                   if isinstance(node, ast.AnnAssign) and node.target.id == "TARGETS")
    names = [(t.elts[0].value, t.elts[1].value) for t in targets.elts]
    assert ("ensembles", "_inner_decoder_cache") in names
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"qlrc.{mod}"), fn, None))]
    assert missing == []


# Public names that no code of the package reads: each is paper-facing or
# oracle API that the tests call directly.
TEST_FACING = (
    "singleton_quantum",  # the quantum Singleton bound, checked against exact distances
    "singleton_qlrc_general",  # the paper's Singleton-like bound for any qLRC
    "fqtb_distance_simple",  # the paper's simplified folded distance bound (s >= 2r^2)
    "fqtb_simple_below_lower",  # the paper's claim that the simple form is the weaker one
    "gv_ell",  # the Gilbert-Varshamov row count of the random ensemble
    "verify_appendix_inequalities",  # the paper's appendix lemmas, checked on a grid
    "AppendixReport",  # the result type of verify_appendix_inequalities
    "frs_code",  # the folded RS code, the oracle code of the folded list decoder
    "erasure_decode",  # exact erasure filling, the oracle of local recovery
    "local_recover_symbol",  # one-symbol recovery from a dual check: the LRC property
    "local_recovery_sets",  # recovery sets found by search when a code has no metadata
    "ael_locality_structure",  # the AEL code's locality claim, verified per qudit
    "root_of_unity",  # the canonical r-th root of unity that the shifts use
    "coset",  # a coset of the r-th roots of unity as a set of field elements
    "frs_paper_radius",  # the paper's asymptotic folded radius, against the achieved one
    "brute_list_decode",  # the exhaustive list-decoding oracle
    "support_qtb_dual",  # the exponent set of the qTB dual, checked against the code's dual
    "mod_reduce",  # reduction modulo X^r - c, the paper's per-coset local polynomial
    "qtb_dim_window",  # the paper's dimension window around (2*ell-q)(1-2/r)
    "fqtb_recover_block",  # folded local recovery from the sibling blocks
    "dist_to_piecewise",  # distance to the piecewise-linear space with its witness;
    "dist_to_piecewise_folded",  # the decoders rank candidates by the distance alone
)


def _unreachable_definitions(roots: tuple[str, ...] = ()) -> list[tuple[str, str]]:
    """Module-level definitions that nothing live reads, as (module, name).

    A definition is live when another module imports it, when its module's
    top-level code reads it, when ``roots`` names it, or when a live
    definition of its own module reads it (``_module_reads``: a local of the
    same name is not a read).
    """
    defs_of = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    dead = []
    for name, tree in trees.items():
        defs = {node.name: node for node in tree.body if isinstance(node, defs_of)}
        live = set(roots).union(
            *(_imported_names(other) for n, other in trees.items() if n != name),
            *(_referenced_names(node) for node in tree.body if not isinstance(node, defs_of)))
        todo = [d for d in defs if d in live]
        while todo:
            found = _module_reads(defs[todo.pop()]) & defs.keys() - live
            live |= found
            todo += found
        dead += [(name, d) for d in defs if d not in live]
    return dead


def test_every_public_definition_is_referenced():
    # TEST_FACING names are exempt but make nothing live
    assert [f"{m}:{d}" for m, d in _unreachable_definitions()
            if not d.startswith("_") and d not in TEST_FACING] == []


def test_every_private_definition_is_referenced():
    # a module-level _helper that no live code reads is dead code; the
    # TEST_FACING entry points are live, and so is what they read
    assert [f"{m}:{d}" for m, d in _unreachable_definitions(TEST_FACING)
            if d.startswith("_") and not d.startswith("__")] == []
