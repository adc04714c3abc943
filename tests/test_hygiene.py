"""Source hygiene: no module of the package imports a name it never uses,
every function of ``ratlin`` is used by the package or the benchmark, so
``ratlin`` carries no API that only tests call, and neither does any other
module, past the public names of ``__init__``; and what a root datum keeps
past its construction is a cached property or a bounded memo."""

import ast
from functools import cached_property
from pathlib import Path

import pytest
from click.testing import CliRunner

import spinoriality
from spinoriality import cli
from spinoriality.repcalc import ROOT_STRING_STEPS
from spinoriality.rootdata import RootDatum

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


def import_bindings(tree, modules):
    """(aliases, imported) of a module: the names it binds to package
    modules (``from . import ratlin as rl``), and those it imports from one
    (``from .ratlin import vec``), each with its (module, name).
    ``modules``: the package's module names."""
    aliases, imported = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                bound = alias.asname or alias.name
                if source in modules:
                    imported[bound] = (source, alias.name)
                elif alias.name in modules:
                    aliases[bound] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                last = alias.name.rpartition(".")[2]
                if alias.asname and last in modules:
                    aliases[alias.asname] = last
    return aliases, imported


def names_read(tree, module, bindings):
    """The (module, name) pairs a syntax tree of ``module`` reads, resolved
    as Python does at top level through its ``import_bindings``:
    ``alias.name`` as the aliased module's, an imported bare name as its
    source's and any other bare name as ``module``'s own."""
    aliases, imported = bindings
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(imported.get(node.id, (module, node.id)))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            out.add((aliases[node.value.id], node.attr))
    return out


def is_command(node):
    """A function registered as a CLI command by ``@main.command()``."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def unread_definitions(sources, public=()):
    """(module, name) of each top-level function or class of the package
    sources (a dict from file name to source) that no code reads outside
    its own definition, in the package or in ``sources[None]``, the
    benchmark, a read resolved to its module by ``names_read``; public
    names and CLI commands are exempt."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    stems = {m: m and m.removesuffix(".py") for m in sources}
    modules = set(stems.values()) - {None}
    reads = {}
    for m, tree in trees.items():
        bindings = import_bindings(tree, modules)
        reads[m] = [names_read(node, stems[m], bindings) for node in tree.body]
    out = []
    for m, tree in trees.items():
        for k, node in enumerate(tree.body):
            if (m is None or not isinstance(node, (ast.FunctionDef,
                                                    ast.ClassDef))
                    or node.name in public or is_command(node)):
                continue
            key = (stems[m], node.name)
            if not any(key in r for n, rs in reads.items()
                       for j, r in enumerate(rs) if (n, j) != (m, k)):
                out.append((m, node.name))
    return sorted(out)


def test_every_module_level_name_is_read_or_public():
    sources = {p.name: p.read_text() for p in MODULES}
    sources[None] = "\n".join(p.read_text() for p in BENCH)
    assert unread_definitions(sources, set(spinoriality.__all__)) == []


def test_unread_definitions_are_found():
    sources = {"a.py": "def f():\n    return f()\n\nclass C:\n    pass\n"
                       "\ndef g():\n    pass\n\ndef _h():\n    return g\n",
               "b.py": "@main.command()\ndef cmd():\n    pass\n",
               None: "from spinoriality import a\nx = a._h\n"}
    assert unread_definitions(sources) == [("a.py", "C"), ("a.py", "f")]
    assert unread_definitions(sources, {"C"}) == [("a.py", "f")]


def test_same_spelled_names_elsewhere_are_not_reads():
    # a local, an attribute of another object or a benchmark name spelled as
    # a.py's functions reads none of them; rl.dot and the imported dot do
    sources = {"a.py": "def table():\n    pass\n\ndef vec():\n    pass\n"
                       "\ndef dot():\n    pass\n",
               "b.py": "from . import a as rl\nfrom .a import dot as d\n\n"
                       "def f(rows):\n    table = rows.table\n"
                       "    return table, rows.vec, rl.dot, d\n",
               None: "vec = 1\nprint(vec)\n"}
    assert unread_definitions(sources) == [
        ("a.py", "table"), ("a.py", "vec"), ("b.py", "f")]
    sources["b.py"] = "from . import a\nfrom .a import dot\nx = a.vec, dot\n"
    assert unread_definitions(sources) == [("a.py", "table")]


# the memos a datum keeps besides its cached properties, each with its bound
BOUNDED_MEMOS = {
    "_cochar_tables": lambda rd, m: len(m) <= 2 * len(rd.cochar_basis),
    "_parabolic_tables": lambda rd, m: len(m) <= 2 ** len(rd.simple_roots),
    "_weight_forms": lambda rd, m: len(m) <= 2,
    "_q_forms": lambda rd, m: len(m[1]) == len(m[0].generators),
    "_root_strings": lambda rd, m: m.steps <= ROOT_STRING_STEPS,
}


@pytest.mark.parametrize("name", ["SO8", "Spin8", "F4", "PGL3", "GL3",
                                  "SL6/mu3"])
def test_datum_memos_are_cached_properties_or_bounded(monkeypatch, name):
    groups = []

    def load(spec):
        groups.append(real(spec))
        return groups[-1]

    real = cli.load_group
    monkeypatch.setattr(cli, "load_group", load)
    runner = CliRunner()
    zero = ",".join(["0"] * len(real(name).weight_basis))
    commands = (["check", "--weight", zero], ["summary", "--box", "1"],
                ["oracle", "--box", "2"])
    for argv in commands:
        res = runner.invoke(cli.main, argv + ["--group", name])
        assert res.exit_code == 0, res.output
    assert len(groups) == len(commands)
    for g, argv in zip(groups, commands):
        rd = g.rd
        built = vars(RootDatum(rd.simple_roots, rd.simple_coroots,
                               rd.cochar_basis, rd.central_cochars))
        kept = {k for k in vars(rd) if k not in built and not isinstance(
            RootDatum.__dict__.get(k), cached_property)}
        assert kept <= set(BOUNDED_MEMOS)
        assert ("_root_strings" in kept) == (argv[0] == "oracle")
        for k in kept:
            assert BOUNDED_MEMOS[k](rd, vars(rd)[k]), k
