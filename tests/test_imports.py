"""Every name a module imports is read in that module, every name one
``projspray`` module imports from another is in the exporter's ``__all__``,
and every name a ``projspray`` module lists in ``__all__`` is bound at its
top level.

``__init__.py`` files are exempt from the first check (they re-export), and
so is every name a module lists in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)
PACKAGE = ROOT / "src" / "projspray"


def exports(tree: ast.AST) -> set[str]:
    """The names a module lists in ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read - exports(tree))


def unexported_imports(package: Path) -> list[str]:
    """``importer: module.name`` for each name one module of ``package``
    imports from a sibling whose ``__all__`` does not list it."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    listed = {stem: exports(tree) for stem, tree in trees.items()}
    missing = []
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in listed:
                missing += [
                    f"{stem}: {node.module}.{a.name}" for a in node.names if a.name not in listed[node.module]
                ]
    return missing


def stale_exports(source: str) -> list[str]:
    """The names a module lists in ``__all__`` that no top-level
    definition, import or assignment of that module binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return sorted(exports(tree) - bound)


def test_checker_finds_an_unused_import():
    assert unused_imports("import os.path\nfrom math import pi as tau, sqrt\nsqrt(2)\n") == [
        "os",
        "tau",
    ]
    assert unused_imports("import os.path\n__all__ = ['tau']\nfrom math import tau\nos.sep\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_finds_an_unexported_import(tmp_path):
    (tmp_path / "a.py").write_text("__all__ = ['f']\ndef f(): pass\ndef g(): pass\n")
    (tmp_path / "b.py").write_text("from .a import f, g\nfrom math import pi\n")
    assert unexported_imports(tmp_path) == ["b: a.g"]


def test_package_imports_only_exported_names():
    assert unexported_imports(PACKAGE) == []


def test_checker_finds_a_stale_export(tmp_path):
    (tmp_path / "a.py").write_text(
        "from math import pi\n"
        "__all__ = ['f', 'C', 'pi', 'X', 'Y', 'g', 'h']\n"
        "X, Y = 1, 2\n"
        "def f():\n"
        "    def g(): pass\n"
        "class C:\n"
        "    h = 0\n"
    )
    assert stale_exports((tmp_path / "a.py").read_text()) == ["g", "h"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    assert stale_exports(path.read_text()) == []
