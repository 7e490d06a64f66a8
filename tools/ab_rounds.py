"""Time two checkouts' operations in one process, alternating operation by operation.

    python3 tools/ab_rounds.py PARENT CHANGE --workload W --rounds N [--seed S]

Loads PARENT's and CHANGE's ``src/projspray`` into one interpreter, each
under PARENT's ``perfbench/`` workload modules, and builds each side's
operations from seed S (default 7).  After one warm-up round it runs N
rounds; a round runs each operation once on each side, back to back, the
parent first on even-numbered operations in odd rounds and on odd-numbered
ones in even rounds, the change first otherwise.  Every operation's row
``(kind, key, ok, repr(worst))`` must agree between the two sides in every
round (a raising operation counts as failed with a worst of ``nan``, as in
``perfbench/run.py``); the script exits 1 at the first that does not.

Prints, per operation kind and for the whole round: the operations per
round, each side's median time per round in ms, the change of the medians
relative to the parent's, the median over rounds of the change's time over
the parent's in the same round, less 1, and the rounds in which the change
was faster.

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
    for r in range(1, args.rounds + 1):
        timed = run_round(sides, r)
        for side, (times, _) in timed.items():
            by_kind = {"round": sum(times)}
            for kind, t in zip(kinds, times):
                by_kind[kind] = by_kind.get(kind, 0.0) + t
            totals[side].append(by_kind)
        for a, b in zip(timed["parent"][1], timed["change"][1]):
            if a != b:
                print(f"round {r}: verdicts differ: parent {a}, change {b}", file=sys.stderr)
                return 1

    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds; every row agrees")
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
