"""Every public function or method in the package has a caller outside tests,
and every private top-level function or class is named in the package.

A public name counts as used when it appears as an identifier (a bare name
or an attribute) in a module of ``src/deferbench`` other than its
definition, in ``scripts/``, or among the functions that
``bench/layertrace.py`` traces by name. A private name counts as used when
it appears as an identifier anywhere in the package outside its own
definition. Code that only tests reach is code to maintain with nothing
gained, so it goes, and any test that checks it moves to what a run does
call; a private helper whose last caller went is left behind by mistake.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "deferbench"

# qualified name -> why it stays without a caller in the scanned code
ALLOWED = {
    "nnet.backward": "the gradient tests reach _backward_cached through it",
    "cli.main": "the console entry point, named in pyproject.toml",
}


def _public_definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node) of each public top-level function and
    of each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                is_function = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                if is_function and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def _identifiers(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Bare names and attribute names read anywhere in tree, outside skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _traced_names() -> set:
    """Last component of every attribute path in bench/layertrace.LAYERS."""
    tree = ast.parse((ROOT / "bench" / "layertrace.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            layers = ast.literal_eval(node.value)
            return {path.rsplit(".", 1)[-1] for entries in layers.values() for _, path in entries}
    raise AssertionError("bench/layertrace.py defines no LAYERS")


def _package_trees() -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def _unused_public_names() -> list:
    modules = _package_trees()
    scripts = [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "scripts").glob("*.py")]
    outside = _traced_names().union(*(_identifiers(tree) for tree in scripts))
    unused = []
    for module, tree in sorted(modules.items()):
        elsewhere = outside.union(
            *(_identifiers(other) for name, other in modules.items() if name != module)
        )
        for qualified, name, node in _public_definitions(tree, module):
            if qualified in ALLOWED:
                continue
            if name not in elsewhere and name not in _identifiers(tree, skip=node):
                unused.append(qualified)
    return unused


def test_every_public_function_has_a_caller_outside_tests():
    assert _unused_public_names() == []


def _unused_private_names() -> list:
    modules = _package_trees()
    unused = []
    for module, tree in sorted(modules.items()):
        elsewhere = set().union(
            *(_identifiers(other) for name, other in modules.items() if name != module)
        )
        for node in tree.body:
            is_definition = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if not (is_definition and node.name.startswith("_")):
                continue
            if node.name not in elsewhere and node.name not in _identifiers(tree, skip=node):
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_private_top_level_definition_is_named_in_the_package():
    assert _unused_private_names() == []
