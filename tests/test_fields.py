"""Every field a ``projspray`` dataclass declares is read somewhere.

A field counts as read when some file of ``src/``, ``tests/`` or
``perfbench/`` loads an attribute of that name (``obj.name``).  The match
is by name only, so the check finds fields that nothing reads, not every
field that is read through the wrong class.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
PACKAGE = ROOT / "src" / "projspray"


def _is_dataclass(cls: ast.ClassDef) -> bool:
    targets = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def declared_fields(source: str) -> list[str]:
    """``Class.field`` for each annotated name in the body of a dataclass."""
    fields = []
    for cls in ast.walk(ast.parse(source)):
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            fields += [
                f"{cls.name}.{stmt.target.id}"
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return fields


def attributes_read(source: str) -> set[str]:
    nodes = ast.walk(ast.parse(source))
    return {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_fields(declaring: list[str], reading: list[str]) -> list[str]:
    """The fields declared in ``declaring`` sources that no ``reading`` source loads."""
    read = set().union(*(attributes_read(s) for s in reading))
    return sorted(f for s in declaring for f in declared_fields(s) if f.split(".")[1] not in read)


def test_checker_finds_an_unread_field():
    declaring = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class P:\n"
        "    x: float\n"
        "    y: float\n"
        "    z = 0.0\n"
        "@dataclass\n"
        "class Q:\n"
        "    w: int\n"
        "class R:\n"
        "    v: int\n"
    )
    reading = "def f(p, q):\n    q.y = 1\n    return p.x + p.z\n"
    assert declared_fields(declaring) == ["P.x", "P.y", "Q.w"]
    assert unread_fields([declaring], [declaring, reading]) == ["P.y", "Q.w"]
    assert unread_fields([declaring], [reading, "g = lambda q: q.w + q.y"]) == []


def test_every_dataclass_field_is_read():
    reading = [p.read_text() for p in FILES]
    assert unread_fields([p.read_text() for p in sorted(PACKAGE.glob("*.py"))], reading) == []
