"""Static checks on the package source: no dead imports, no dead private helpers,
no private names imported across modules, no glyph switch outside the one
ASCII table."""

import ast
from pathlib import Path

import pytest

from bunncalc.bundles import ascii_text

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



def imported_modules(tree: ast.Module) -> list[str]:
    """Every module an import statement may load, as an absolute dotted name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["bunncalc" if node.level else "", node.module]))
            out += [base] + [f"{base}.{a.name}" for a in node.names]
    return out


TYPE_CHECKING_TESTS = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def load_time_imports(node: ast.AST) -> list[str]:
    """The modules that running node imports: those of its import statements,
    not counting the ones in a function body or under ``if TYPE_CHECKING:``."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return imported_modules(node)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return []
    if isinstance(node, ast.If) and ast.unparse(node.test) in TYPE_CHECKING_TESTS:
        return [m for child in node.orelse for m in load_time_imports(child)]
    return [m for child in ast.iter_child_nodes(node) for m in load_time_imports(child)]


def package_modules(modules: list[str]) -> set[str]:
    """The package modules among dotted names, by their short names."""
    names = {p.stem for p in SRC.glob("*.py")}
    return {m.split(".")[1] for m in modules if m.startswith("bunncalc.")} & names


# the library layers, lowest first; a layer loads only layers of lower rank
LAYERS = {"bundles": 0, "kottwitz": 1, "lparams": 2, "weights": 2, "modif": 2, "spectral": 3,
          "shtuka": 4}


def test_library_layer_order():
    """bundles < kottwitz < {lparams, weights, modif} < spectral < shtuka: each
    layer imports, when it loads, only layers below it, and no view or cli.
    The modification layer (modif) and the cohomology layer (shtuka) share
    their weight predicates through bundles, so neither imports the other
    anywhere, nor a view or cli."""
    upward = [
        f"{name} loads {dep}"
        for name, rank in LAYERS.items()
        for dep in sorted(package_modules(load_time_imports(parse(SRC / f"{name}.py"))))
        if LAYERS.get(dep, rank) >= rank
    ]
    assert upward == []
    crossing = [
        f"{name} imports {dep}"
        for name, other in (("modif", "shtuka"), ("shtuka", "modif"))
        for dep in sorted(package_modules(imported_modules(parse(SRC / f"{name}.py"))))
        if dep == other or dep == "cli" or dep.startswith("view_")
    ]
    assert crossing == []


def test_no_module_imports_cli():
    """``python -m bunncalc.cli`` runs cli as ``__main__``, so an import of
    ``bunncalc.cli`` from the package would run it a second time."""
    importers = [p.name for p in SRC.glob("*.py") if "bunncalc.cli" in imported_modules(parse(p))]
    assert importers == []


def test_no_module_imports_dataclasses():
    """Records are ``bundles.record``: ``dataclasses`` loads ``inspect``, and a
    CLI start would pay for both."""
    importers = [
        p.name for p in SRC.glob("*.py")
        if any(m.split(".")[0] == "dataclasses" for m in imported_modules(parse(p)))
    ]
    assert importers == []


def test_no_private_name_imported_across_modules():
    """A module reads only the public names of the other package modules."""
    private = [
        f"{path.name}: {alias.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "bunncalc")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def budget_reads(node: ast.AST, in_loop: bool = False):
    """in_loop for every ``enumeration_budget()`` call in the body of node,
    not counting the bodies of the functions and classes it defines."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, SCOPES):
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "enumeration_budget":
                yield in_loop
        yield from budget_reads(child, in_loop or isinstance(child, LOOPS))


def test_budget_read_once_per_function():
    """Each read parses the environment, so a function reads it once, outside
    any loop, and keeps the value."""
    offenders = [
        f"{path.name}:{node.name}"
        for path in SRC.glob("*.py")
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for reads in [list(budget_reads(node))]
        if len(reads) > 1 or any(reads)
    ]
    assert offenders == []


def test_no_ascii_mode_parameter():
    """Renderers draw one form; ``--ascii`` is ``bundles.ascii_text`` at the view edge."""
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SRC.glob("*.py")
        for node in ast.walk(parse(path))
        if isinstance(node, ast.arg) and node.arg == "ascii_mode"
    ]
    assert offenders == []


def test_ascii_text_covers_every_glyph():
    """The glyph table spells every character the text views print."""
    golden = Path(__file__).parent / "golden"
    paths = [*golden.glob("*.text.out"), *golden.glob("*.text.dot")]
    assert paths
    unspelled = [p.name for p in paths if not ascii_text(p.read_text(encoding="utf-8")).isascii()]
    assert unspelled == []
