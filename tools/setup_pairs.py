"""Time two checkouts' set-up in fresh interpreters, alternating.

    python3 tools/setup_pairs.py PARENT CHANGE --workload W --runs N

Run i (1-based) starts ``python3 perfbench/setup_probe.py src W`` once in
each checkout, each from its own root with its own ``perfbench/`` and
``src/`` and with ``PYTHONHASHSEED=0``, as ``perfbench/run.py`` starts it;
the parent goes first on odd runs, the change on even ones.  Each probe
prints the seconds one set-up took: importing projspray and building the
catalog entries the workload reads.

Prints each side's median and quartiles (numpy's linear percentiles) in
ms, the change of the medians relative to the parent's, and the runs in
which the change was faster.  ``run.py`` reports ``setup_s`` as the median
of a few probes run one after another, so a host whose speed drifts can
move it on a change that adds no import-time work; alternating many probes
of both sides tells such a drift from a real cost.  It writes no file.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def probe(root: Path, workload: str) -> float:
    """Seconds of one set-up of ``root``'s ``workload`` in a fresh interpreter."""
    cmd = [sys.executable, "perfbench/setup_probe.py", str(root / "src"), workload]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Alternating fresh-interpreter set-up probes of two checkouts.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, required=True)
    args = p.parse_args(argv)
    if args.runs < 1:
        p.error("--runs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = {side: [] for side in SIDES}
    for i in range(1, args.runs + 1):
        for side in SIDES if i % 2 else SIDES[::-1]:
            runs[side].append(probe(roots[side], args.workload) * 1e3)

    print(f"{args.workload}, {args.runs} alternating set-up probes per side")
    print(f"{'side':8s} {'median ms':>10s} {'q1 ms':>8s} {'q3 ms':>8s}")
    med = {}
    for side in SIDES:
        q1, med[side], q3 = np.percentile(runs[side], [25, 50, 75])
        print(f"{side:8s} {med[side]:10.1f} {q1:8.1f} {q3:8.1f}")
    wins = sum(1 for a, b in zip(runs["parent"], runs["change"]) if b < a)
    print(f"change {med['change'] / med['parent'] - 1.0:+.1%}, faster in {wins}/{args.runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
