"""How ``tools/verdict_digest.py`` runs one operation and reads its arguments."""

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import verdict_digest  # noqa: E402
from verdict_digest import row  # noqa: E402

COMMON = SimpleNamespace(Work=lambda: "work")


def test_row_of_an_operation_reads_its_verdict_on_a_fresh_work():
    seen = []

    def fn(work):
        seen.append(work)
        return SimpleNamespace(ok=True, worst=0.1 + 0.2)

    op = SimpleNamespace(kind="projective", key="bk+", fn=fn)
    assert row(COMMON, op) == ("projective", "bk+", True, "0.30000000000000004")
    assert seen == ["work"]


def test_row_of_an_operation_that_raises_fails_with_a_nan_worst(capsys):
    def fn(work):
        raise ZeroDivisionError("division by zero")

    op = SimpleNamespace(kind="convexity", key="euclidean(k=1)", fn=fn)
    assert row(COMMON, op) == ("convexity", "euclidean(k=1)", False, "nan")
    captured = capsys.readouterr()
    assert captured.err == "convexity euclidean(k=1): ZeroDivisionError: division by zero\n"
    assert captured.out == ""


def test_main_with_the_wrong_number_of_arguments_prints_the_usage_and_returns_2(capsys):
    usage = "usage: python3 tools/verdict_digest.py CHECKOUT [OUT.json]\n"
    for argv in (["verdict_digest.py"], ["verdict_digest.py", "a", "b.json", "c"]):
        assert verdict_digest.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == usage and captured.out == ""
