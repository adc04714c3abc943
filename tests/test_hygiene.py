"""Source hygiene: no module of the package imports a name it never uses,
and every function of ``ratlin`` is used by the package or the benchmark,
so ``ratlin`` carries no API that only tests call."""

import ast
from pathlib import Path

import pytest

import spinoriality

PACKAGE = Path(spinoriality.__file__).resolve().parent
# __init__ imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == [
        (1, "os"), (2, "b")]


def ratlin_uses(source, own=False):
    """The ratlin names a module refers to: ``rl.f`` or ``ratlin.f``, a name
    imported from ratlin, or (in ratlin itself) any name."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").endswith("ratlin")
                for alias in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("rl", "ratlin")):
            yield node.attr
        elif isinstance(node, ast.Name) and (own or node.id in imported):
            yield node.id


def test_every_ratlin_function_is_used():
    ratlin = PACKAGE / "ratlin.py"
    defined = {node.name for node in ast.parse(ratlin.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    used = set()
    assert BENCH
    for path in MODULES + BENCH:
        used.update(ratlin_uses(path.read_text(), own=path == ratlin))
    assert sorted(defined - used) == []


def test_ratlin_references_are_found():
    source = "from .ratlin import vec\nimport ratlin as rl\nvec(rl.dot(a))\n"
    assert set(ratlin_uses(source)) == {"vec", "dot"}
    assert set(ratlin_uses("def f():\n    return g()\n")) == set()
