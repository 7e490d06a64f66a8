"""Print the source lines of a checkout that no benchmark operation executes.

    python3 tools/traffic_lines.py CHECKOUT

Imports CHECKOUT's ``src/projspray`` and, for each workload of CHECKOUT's
``perfbench/`` at seeds 7 and 271828, builds the operations and runs one
round of them as ``tools/verdict_digest.py`` does, all under
``sys.settrace`` limited to frames of CHECKOUT's ``src/projspray``.  Then,
for each function and method of the package (nested ones on their own), it
prints the statements that no line event reached: a header
``path:line qualname: m of n statements not executed`` ("never called"
when none ran), then each such statement's first line.  A statement counts
as executed when any of its own lines, those not inside a nested
statement, was reached.  Docstrings and ``def`` and ``class`` lines are
left out.  The import counts, so a function that runs only at import time
is not listed.  It writes no file.
"""

import ast
import sys
from pathlib import Path

from verdict_digest import SEEDS, load, rows_of

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _lines(node) -> set:
    return set(range(node.lineno, node.end_lineno + 1))


def _functions(tree):
    """(qualname, def node) of every function in ``tree``, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                if not isinstance(child, ast.ClassDef):
                    out.append((prefix + child.name, child))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _statements(fn):
    """(statement, its own lines) of every statement in the body of ``fn``,
    without the docstring and without nested definitions and their bodies.
    A statement's own lines are those that no statement inside it spans."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFS):
                continue
            if isinstance(child, ast.stmt):
                inner = [s for s in ast.walk(child) if s is not child and isinstance(s, ast.stmt)]
                out.append((child, _lines(child).difference(*map(_lines, inner))))
            visit(child)

    visit(fn)
    if ast.get_docstring(fn, clean=False) is not None:
        del out[0]
    return out


def main(argv):
    if len(argv) != 2:
        print("usage: python3 tools/traffic_lines.py CHECKOUT", file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    src, bench = root / "src", root / "perfbench"
    pkg = src / "projspray"
    files = {str(p): p for p in sorted(pkg.glob("*.py"))}
    hits = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    sys.settrace(call)
    try:
        common = load(src, bench)
        for name in common.WORKLOADS:
            wl = common.workload(name)
            for seed in SEEDS:
                rows_of(common, wl, seed)
    finally:
        sys.settrace(None)

    total = missed = never = 0
    for name, path in files.items():
        text = path.read_text()
        lines, hit = text.splitlines(), hits[name]
        for qualname, fn in _functions(ast.parse(text)):
            stmts = _statements(fn)
            idle = [s for s, own in stmts if not own & hit]
            total, missed = total + len(stmts), missed + len(idle)
            if not idle:
                continue
            if len(idle) == len(stmts):
                never += 1
                note = "never called"
            else:
                note = f"{len(idle)} of {len(stmts)} statements not executed"
            print(f"{path.relative_to(root)}:{fn.lineno} {qualname}: {note}")
            for s in idle:
                print(f"    {s.lineno:4d}  {lines[s.lineno - 1].strip()}")
    print(f"{missed} of {total} statements not executed; {never} functions never called")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
