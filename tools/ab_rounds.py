"""Time two checkouts' operations in one process, alternating whole rounds.

    python3 tools/ab_rounds.py PARENT CHANGE --workload W --rounds N [--seed S]

Loads PARENT's and CHANGE's ``src/projspray`` into one interpreter, each
under PARENT's ``perfbench/`` workload modules, and builds each side's
operations from seed S (default 7).  After one warm-up round per side it
runs N rounds of each side, alternating: the parent first in odd rounds,
the change first in even ones.  Every operation's row
``(kind, key, ok, repr(worst))`` must agree between the two sides in every
round (a raising operation counts as failed with a worst of ``nan``, as in
``perfbench/run.py``); the script exits 1 at the first that does not.

Prints, per operation kind and for the whole round: the operations per
round, each side's median time per round in ms, the change of the medians
relative to the parent's, the median over rounds of the change's time over
the parent's in the same round, less 1, and the rounds in which the change
was faster.

A host's speed can swing between two runs started seconds apart; rounds
alternated in one process compare like with like, so this shows which
operation kinds a saving reaches.  A swing between rounds still moves both
medians; the per-round ratio compares two sides timed back to back, so
such a swing cancels out of it.  It writes no file.  A claimed gain is
still measured by ``tools/bench_pairs.py``, which runs the benchmark itself.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as perfbench/run.py sets them, before numpy loads

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("parent", "change")


def load(src: Path, bench: Path, workload: str, seed: int):
    """``(common, ops)`` of one side: ``src``'s package under ``bench``'s workload.

    The previous side's modules leave ``sys.modules`` first, so each side
    imports its own; its operations keep their modules alive.
    """
    for name in [m for m in sys.modules if m in ("projspray", "common") or m.startswith(("projspray.", "wl_"))]:
        del sys.modules[name]
    sys.path[:0] = [str(src), str(bench)]
    try:
        common = importlib.import_module("common")
        pkg = common.import_package()
        if Path(pkg.__file__).resolve().parent != src / "projspray":
            raise SystemExit(f"error: projspray imported from {pkg.__file__}, not from {src}")
        wl = common.workload(workload)
        ops = wl.ops(wl.build(), np.random.default_rng(seed))
    finally:
        del sys.path[:2]
    return common, ops


def run_round(common, ops):
    """Per operation, its time in seconds and its row."""
    gc.collect()
    times, rows = [], []
    for op in ops:
        t0 = perf_counter()
        try:
            v = op.fn(common.Work())
            ok, worst = v.ok, v.worst
        except Exception:  # a raising op fails, as in run.py
            ok, worst = False, math.nan
        times.append(perf_counter() - t0)
        rows.append((op.kind, op.key, ok, repr(worst)))
    return times, rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Alternate whole rounds of two checkouts in one process.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    bench = args.parent.resolve() / "perfbench"
    sides = {side: load(root.resolve() / "src", bench, args.workload, args.seed)
             for side, root in zip(SIDES, (args.parent, args.change))}
    kinds = [op.kind for op in sides["parent"][1]]
    if kinds != [op.kind for op in sides["change"][1]]:
        raise SystemExit("error: the two sides built different operation lists")

    for side in SIDES:  # warm-up: kernels, caches
        run_round(*sides[side])
    totals = {side: [] for side in SIDES}  # per round, {kind: seconds}
    for r in range(1, args.rounds + 1):
        rows = {}
        for side in SIDES if r % 2 else SIDES[::-1]:
            times, rows[side] = run_round(*sides[side])
            by_kind = {"round": sum(times)}
            for kind, t in zip(kinds, times):
                by_kind[kind] = by_kind.get(kind, 0.0) + t
            totals[side].append(by_kind)
        for a, b in zip(rows["parent"], rows["change"]):
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
