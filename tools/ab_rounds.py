"""Time two checkouts' operations in one process, alternating operation by operation.

    python3 tools/ab_rounds.py PARENT CHANGE --workload W --rounds N [--seed S]

Loads PARENT's and CHANGE's ``src/projspray`` into one interpreter, each
under PARENT's ``perfbench/`` workload modules, and builds each side's
operations from seed S (default 7).  After one warm-up round it runs N
rounds; a round runs each operation once on each side, back to back, the
parent first on even-numbered operations in odd rounds and on odd-numbered
ones in even rounds, the change first otherwise.  Every operation's row
``(kind, key, ok, repr(worst))`` is compared between the two sides in
every round (a raising operation counts as failed with a worst of ``nan``,
as in ``perfbench/run.py``).  The script exits 1 at the first row whose
``(kind, key, ok)`` differs.  A row whose ``worst`` alone differs is
listed after the table instead, so a change that moves a ``worst`` by an
ulp can still be timed.

Prints, per operation kind and for the whole round: the operations per
round, each side's median time per round in ms, the change of the medians
relative to the parent's, the median over rounds of the change's time over
the parent's in the same round, less 1, and the rounds in which the change
was faster.  Then, with their count in the summary line, each operation
whose ``worst`` differs, once, as the parent's row and the change's; two
operations whose rows move alike are two rows.  The summary
line also gives the largest |Δ worst| over those rows whose ``worst`` reads
as a finite float on both sides (0 where none does).

A host's speed can swing between two runs started seconds apart, and
within one round.  Operations alternated in one process compare like with
like: a swing falls on both sides' copies of an operation, timed
milliseconds apart, so this shows which operation kinds a saving reaches
even when a round is short.  A swing between rounds still moves both
medians; the per-round ratio compares the two sides of the same round, so
such a swing cancels out of it.  It writes no file.  A claimed gain is
still measured by ``tools/bench_pairs.py``, which runs the benchmark itself.
"""

import argparse
import gc
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

from verdict_digest import load, ops_of, row  # pins the BLAS threads before numpy loads

SIDES = ("parent", "change")


def run_round(sides, r):
    """Per side, each operation's time in seconds and its row, in round r.

    Each operation runs on both sides back to back; the parent goes first
    when r + i is odd for the i-th operation (0-based).
    """
    gc.collect()
    runs = {side: ([], []) for side in SIDES}
    for i in range(len(sides["parent"][1])):
        for side in SIDES if (r + i) % 2 else SIDES[::-1]:
            common, ops = sides[side]
            t0 = perf_counter()
            runs[side][1].append(row(common, ops[i]))
            runs[side][0].append(perf_counter() - t0)
    return runs


def differences(parent_rows, change_rows):
    """The (parent row, change row) pairs of one round whose verdicts differ,
    and, as (operation index, parent row, change row), those whose
    ``(kind, key, ok)`` agree but whose ``repr(worst)`` does not."""
    verdicts, worsts = [], []
    for i, (a, b) in enumerate(zip(parent_rows, change_rows)):
        if a[:3] != b[:3]:
            verdicts.append((a, b))
        elif a != b:
            worsts.append((i, a, b))
    return verdicts, worsts


def largest_move(moved) -> float:
    """The largest |Δ worst| over (parent row, change row) pairs whose
    ``worst`` reads as a finite float on both sides, or 0.0 where none does."""
    deltas = [0.0]
    for a, b in moved:
        try:
            wa, wb = float(a[3]), float(b[3])
        except ValueError:
            continue
        if math.isfinite(wa) and math.isfinite(wb):
            deltas.append(abs(wb - wa))
    return max(deltas)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Alternate the operations of two checkouts in one process.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    sides = {}
    for side, root in zip(SIDES, (args.parent, args.change)):
        common = load(root.resolve() / "src", args.parent.resolve() / "perfbench")
        sides[side] = common, ops_of(common.workload(args.workload), args.seed)
    kinds = [op.kind for op in sides["parent"][1]]
    if kinds != [op.kind for op in sides["change"][1]]:
        raise SystemExit("error: the two sides built different operation lists")

    run_round(sides, 0)  # warm-up: kernels, caches
    totals = {side: [] for side in SIDES}  # per round, {kind: seconds}
    moved = {}  # operation index: (parent row, change row), where worst alone differs, in the order first seen
    for r in range(1, args.rounds + 1):
        timed = run_round(sides, r)
        for side, (times, _) in timed.items():
            by_kind = {"round": sum(times)}
            for kind, t in zip(kinds, times):
                by_kind[kind] = by_kind.get(kind, 0.0) + t
            totals[side].append(by_kind)
        verdicts, worsts = differences(timed["parent"][1], timed["change"][1])
        if verdicts:
            a, b = verdicts[0]
            print(f"round {r}: verdicts differ: parent {a}, change {b}", file=sys.stderr)
            return 1
        for i, a, b in worsts:
            moved.setdefault(i, (a, b))

    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds; every verdict agrees, "
          f"{len(moved)} rows differ in worst (largest |Δ| {largest_move(moved.values()):.3g})")
    print(f"{'kind':28s} {'ops':>5s} {'parent ms':>10s} {'change ms':>10s} {'change':>8s} {'per-round':>9s} "
          f"{'wins':>7s}")
    for kind in [*dict.fromkeys(kinds), "round"]:
        runs = {side: [t[kind] * 1e3 for t in totals[side]] for side in SIDES}
        med = {side: statistics.median(runs[side]) for side in SIDES}
        wins = sum(1 for a, b in zip(runs["parent"], runs["change"]) if b < a)
        ops = len(kinds) if kind == "round" else kinds.count(kind)
        rel = med["change"] / med["parent"] - 1.0
        ratio = statistics.median(b / a for a, b in zip(runs["parent"], runs["change"])) - 1.0
        print(f"{kind:28s} {ops:5d} {med['parent']:10.2f} {med['change']:10.2f} {rel:+8.1%} {ratio:+9.1%} "
              f"{wins:3d}/{args.rounds}")
    for a, b in moved.values():
        print(f"worst differs: parent {a}, change {b}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
