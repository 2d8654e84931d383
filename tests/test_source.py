"""The package source itself: no dead private helpers, and one list of public names."""

import ast
import importlib
from pathlib import Path

from projdyn import _EXPORTS

SRC = Path(__file__).resolve().parent.parent / "src" / "projdyn"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Module-level functions, classes and assigned constants, with their lines; no imported name."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                out.extend((n.id, node.lineno) for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def _uses(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module: bare, as an attribute, or as a string.

    A string counts because `cli.main` looks its runners up by name in
    `globals()`.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_private_helper_is_used():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_uses, trees.values()))
    dead = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in _definitions(tree)
        if _private(name) and name not in used
    ]
    assert not dead, f"private names defined but never read in src/: {dead}"


def test_the_package_table_lists_each_layers_public_definitions():
    # _EXPORTS is the only list of public names: each layer's __all__ is its entry
    for layer, names in _EXPORTS.items():
        tree = ast.parse((SRC / f"{layer}.py").read_text())
        public = {name for name, _ in _definitions(tree) if not name.startswith("_")}
        assert set(names) == public, layer
        assert len(names) == len(public)
        assert importlib.import_module(f"projdyn.{layer}").__all__ == list(names)
