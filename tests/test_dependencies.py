"""The third-party modules imported in the code are its declared dependencies.

Those imported in ``src/`` equal ``[project].dependencies``; those imported in
``tests/`` are covered by the dependencies plus the ``test`` extra.  The
test files and the modules of ``perfbench/`` and ``tools/``, which tests
import by their file names, are local.  Each distribution declared here
installs a module of the same name, so names are compared directly.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def third_party_imports(directory: str) -> set[str]:
    files = list((ROOT / directory).rglob("*.py"))
    tools = [p for d in ("perfbench", "tools") for p in (ROOT / d).glob("*.py")]
    local = {"projspray"} | {p.stem for p in files + tools}
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - local


def distribution_names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}


def test_src_imports_are_the_dependencies():
    assert third_party_imports("src") == distribution_names(PROJECT["dependencies"])


def test_test_imports_are_covered_by_the_test_extra():
    declared = distribution_names(PROJECT["dependencies"] + PROJECT["optional-dependencies"]["test"])
    assert third_party_imports("tests") <= declared
