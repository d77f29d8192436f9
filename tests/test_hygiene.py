"""Static checks on the package source: no dead imports, no dead private helpers,
no private names imported across modules, no budget read outside bundles.Meter,
no unbounded cache, no glyph switch outside the one ASCII table, no recursion
beyond the pinned list."""

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


def call_name(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def budget_reads(node: ast.AST, in_loop: bool = False):
    """in_loop for every ``enumeration_budget()`` call in the body of node,
    not counting the bodies of the functions and classes it defines."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, SCOPES):
            continue
        if isinstance(child, ast.Call) and call_name(child) == "enumeration_budget":
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


def budget_policy_breaches(tree: ast.AST, module: str) -> list[str]:
    """``enumeration_budget()`` called outside bundles.py, and a ``Meter`` made
    in a loop body, where each pass would reread the budget and restart its
    count; each by its line."""
    out = []

    def walk(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                walk(child, False)
                continue
            if isinstance(child, ast.Call):
                name = call_name(child)
                if name == "enumeration_budget" and module != "bundles.py":
                    out.append(f"{child.lineno}: enumeration_budget()")
                elif name == "Meter" and in_loop:
                    out.append(f"{child.lineno}: Meter in a loop")
            walk(child, in_loop or isinstance(child, LOOPS))

    walk(tree, False)
    return out


def test_budget_policy_in_one_place():
    """How the budget is read, compared and worded is decided by bundles.Meter."""
    offenders = [
        f"{p.name}:{hit}" for p in SRC.glob("*.py") for hit in budget_policy_breaches(parse(p), p.name)
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "source, module, hits",
    [
        ("def f():\n    return enumeration_budget()", "bundles.py", 0),
        ("def f():\n    return enumeration_budget()", "lparams.py", 1),
        ("import bundles\nlimit = bundles.enumeration_budget()", "spectral.py", 1),
        ("def f(xs):\n    meter = Meter('{} nodes exceed')\n    for x in xs:\n"
         "        meter.charge(x)", "kottwitz.py", 0),
        ("def f(xs):\n    for x in xs:\n        Meter('{} nodes exceed').charge(x)", "modif.py", 1),
        ("def f(xs):\n    while xs:\n        if xs.pop():\n            m = Meter('{}')", "modif.py", 1),
        ("def f(xs):\n    return [Meter('{}') for x in xs]", "lparams.py", 1),
        ("def f(xs):\n    for x in xs:\n        def g():\n            return Meter('{}')", "lparams.py", 0),
    ],
)
def test_budget_policy_rule(source, module, hits):
    assert len(budget_policy_breaches(ast.parse(source), module)) == hits


def unbounded_caches(tree: ast.AST) -> list[str]:
    """``functools.cache``, imported or read, and ``lru_cache`` with maxsize
    None, each by its line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [f"{node.lineno}: cache" for a in node.names if a.name == "cache"]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "functools.cache":
            out.append(f"{node.lineno}: functools.cache")
        elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("lru_cache"):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                out.append(f"{node.lineno}: {ast.unparse(node)}")
    return out


def test_every_cache_is_bounded():
    """A cache keyed by request grows with every distinct request a session
    sends, so each one names its bound."""
    offenders = [f"{p.name}:{hit}" for p in SRC.glob("*.py") for hit in unbounded_caches(parse(p))]
    assert offenders == []


@pytest.mark.parametrize(
    "source, hits",
    [
        ("from functools import cache", 1),
        ("import functools\n@functools.cache\ndef f(): pass", 1),
        ("@lru_cache(maxsize=None)\ndef f(): pass", 1),
        ("@functools.lru_cache(None)\ndef f(): pass", 1),
        ("@lru_cache(maxsize=CACHE_SIZE)\ndef f(): pass", 0),
        ("@lru_cache\ndef f(): pass", 0),
    ],
)
def test_unbounded_cache_rule(source, hits):
    assert len(unbounded_caches(ast.parse(source))) == hits


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def direct_calls(fn: ast.AST) -> set[str]:
    """The names fn's body calls, not counting the bodies of functions it defines."""
    out = set()
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, FUNCTIONS):
            continue
        if isinstance(node, ast.Call) and call_name(node):
            out.add(call_name(node))
        todo += ast.iter_child_nodes(node)
    return out


def recursive_functions(tree: ast.AST) -> set[str]:
    """The functions of a module that reach themselves by direct calls to
    functions of the same module, matched by name: functions, methods and
    nested functions of one name are one node."""
    graph: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            graph.setdefault(node.name, set()).update(direct_calls(node))
    out = set()
    for name, calls in graph.items():
        seen: set[str] = set()
        todo = list(calls)
        while todo:
            callee = todo.pop()
            if callee in graph and callee not in seen:
                seen.add(callee)
                todo += graph[callee]
        if name in seen:
            out.add(name)
    return out


# each must become a loop before the weight caps can go, and is struck off then
RECURSIVE = {"weights._lr_peel", "weights._orbit", "weights._strips"}


def test_recursion_is_pinned():
    """Recursion depth grows with the input, so no new recursion lands unlisted."""
    found = {f"{p.stem}.{name}" for p in MODULES for name in recursive_functions(parse(p))}
    assert found == RECURSIVE


@pytest.mark.parametrize(
    "source, names",
    [
        ("def f(n):\n    return f(n - 1) if n else 0", {"f"}),
        ("def f(n):\n    return g(n)\ndef g(n):\n    return f(n) + h(n)\ndef h(n):\n    return n",
         {"f", "g"}),
        ("def f(n):\n    def g(m):\n        return g(m)\n    return g(n)", {"g"}),
        ("def f(n):\n    def g(m):\n        return f(m)\n    return g(n)", {"f", "g"}),
        ("class A:\n    def walk(self):\n        return self.walk()", {"walk"}),
        ("def f(xs):\n    stack = [xs]\n    while stack:\n        stack.pop()\n    return len(xs)",
         set()),
        ("def f(n):\n    return [f for f in range(n)]", set()),
    ],
)
def test_recursion_rule(source, names):
    assert recursive_functions(ast.parse(source)) == names


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
