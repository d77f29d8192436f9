"""Static checks on the package source: no dead imports, no dead private helpers."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bunncalc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def referenced_names(*trees: ast.AST) -> set[str]:
    """Every identifier the code reads: bare names, attributes, and the names
    in any string that parses as an expression (quoted annotations)."""
    names: set[str] = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= referenced_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def imported_names(tree: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            out += [a.asname or a.name.split(".")[0] for a in node.names]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    used = referenced_names(tree)
    assert [name for name in imported_names(tree) if name not in used] == []


def test_every_private_function_is_used():
    top = [(path, node) for path in SRC.glob("*.py") for node in parse(path).body]
    dead = [
        f"{path.name}:{node.name}"
        for path, node in top
        if path.name != "__init__.py"
        and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        # a function's own body does not keep it alive
        and node.name not in referenced_names(*(other for _, other in top if other is not node))
    ]
    assert dead == []
