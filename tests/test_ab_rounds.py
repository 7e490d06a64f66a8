"""How ``tools/ab_rounds.py`` compares the two sides' rows."""

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import ab_rounds  # noqa: E402
from ab_rounds import differences, largest_move  # noqa: E402

ROWS = [("convexity", "euclidean(k=1)", True, "0.9999999999999998"), ("projective", "bk+", False, "0.5")]


def test_equal_rows_differ_nowhere():
    assert differences(ROWS, list(ROWS)) == ([], [])


def test_a_worst_that_moves_an_ulp_is_listed_not_a_verdict():
    moved = [("convexity", "euclidean(k=1)", True, "0.9999999999999996"), ROWS[1]]
    assert differences(ROWS, moved) == ([], [(0, ROWS[0], moved[0])])


def test_a_differing_ok_is_a_differing_verdict():
    flipped = [ROWS[0], ("projective", "bk+", True, "0.25")]
    assert differences(ROWS, flipped) == ([(ROWS[1], flipped[1])], [])


def test_a_differing_kind_or_key_is_a_differing_verdict():
    renamed = [("convexity", "euclidean(k=2)", True, "0.9999999999999998"), ROWS[1]]
    assert differences(ROWS, renamed) == ([(ROWS[0], renamed[0])], [])


def _run_main(monkeypatch, change_rows, parent_rows=ROWS):
    """``ab_rounds.main`` over two fake checkouts whose operations return
    ``parent_rows`` on the parent side and ``change_rows`` on the change side."""
    ops = [SimpleNamespace(kind=kind, key=key, i=i) for i, (kind, key, _, _) in enumerate(parent_rows)]
    sides = {"parent": parent_rows, "change": change_rows}
    commons = iter(sides)
    monkeypatch.setattr(ab_rounds, "load", lambda src, bench: SimpleNamespace(side=next(commons), workload=str))
    monkeypatch.setattr(ab_rounds, "ops_of", lambda wl, seed: ops)
    monkeypatch.setattr(ab_rounds, "row", lambda common, op: sides[common.side][op.i])
    return ab_rounds.main(["parent", "change", "--workload", "probes", "--rounds", "2"])


def test_main_times_a_change_whose_worst_moves_and_lists_the_row_once(monkeypatch, capsys):
    moved = [("convexity", "euclidean(k=1)", True, "0.9999999999999996"), ROWS[1]]
    assert _run_main(monkeypatch, moved) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "probes, seed 7, 2 rounds; every verdict agrees, 1 rows differ in worst (largest |Δ| 2.22e-16)"
    assert [line for line in out if line.startswith("worst differs")] == [
        f"worst differs: parent {ROWS[0]}, change {moved[0]}"
    ]
    # two operations whose rows move alike are two rows
    assert _run_main(monkeypatch, [moved[0], *moved], [ROWS[0], *ROWS]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "probes, seed 7, 2 rounds; every verdict agrees, 2 rows differ in worst (largest |Δ| 2.22e-16)"
    assert [line for line in out if line.startswith("worst differs")] == [
        f"worst differs: parent {ROWS[0]}, change {moved[0]}"
    ] * 2


def test_main_exits_1_on_a_differing_ok(monkeypatch, capsys):
    flipped = [ROWS[0], ("projective", "bk+", True, "0.5")]
    assert _run_main(monkeypatch, flipped) == 1
    assert "round 1: verdicts differ" in capsys.readouterr().err


def test_largest_move_reads_only_worsts_that_are_finite_floats_on_both_sides():
    def pair(a, b):
        return ("projective", "bk+", True, a), ("projective", "bk+", True, b)

    assert largest_move([]) == 0.0
    assert largest_move([pair("nan", "0.5"), pair("inf", "1.0"), pair("None", "0.5")]) == 0.0
    assert largest_move([pair("0.5", "0.25"), pair("1e-14", "3e-14"), pair("nan", "7.0")]) == 0.25
