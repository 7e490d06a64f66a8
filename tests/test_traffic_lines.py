"""How ``tools/traffic_lines.py`` splits a module into functions and statements."""

import ast
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import traffic_lines  # noqa: E402
from traffic_lines import _functions, _statements  # noqa: E402

SOURCE = textwrap.dedent(
    '''\
    def f(a):
        """Doc."""
        def g(b):
            return b
        if a:
            x = g(
                a,
            )
        return x


    class C:
        def m(self):
            return 1
    '''
)


def _listing(fn):
    return [(type(s).__name__, s.lineno, sorted(own)) for s, own in _statements(fn)]


def test_functions_are_listed_by_qualname_nested_ones_and_methods_included():
    assert [name for name, _ in _functions(ast.parse(SOURCE))] == ["f", "f.g", "C.m"]


def test_statements_leave_out_the_docstring_and_nested_definitions():
    fns = dict(_functions(ast.parse(SOURCE)))
    # the if owns only its header line; the multi-line assignment owns all three of its lines
    assert _listing(fns["f"]) == [("If", 5, [5]), ("Assign", 6, [6, 7, 8]), ("Return", 9, [9])]
    assert _listing(fns["f.g"]) == [("Return", 4, [4])]
    assert _listing(fns["C.m"]) == [("Return", 14, [14])]


def test_main_without_a_checkout_prints_its_usage(capsys):
    assert traffic_lines.main(["traffic_lines.py"]) == 2
    assert capsys.readouterr().err.startswith("usage: python3 tools/traffic_lines.py CHECKOUT")
