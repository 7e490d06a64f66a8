"""Run one benchmark workload on two checkouts in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed FIRST]

Pair i (1-based) runs ``python3 perfbench/run.py --workload W --seed s
--seconds S --trace 0`` once in each checkout, each from its own root and
with its own ``perfbench/``, with s = FIRST + i - 1 (FIRST defaults to 1).
The parent runs first on odd pairs, the change on even ones.  Each run's
last line of standard output is its JSON record.

Prints one JSON object: per pair, each side's ``correct``, ``attempted``,
``failed`` and metric values; per end-to-end metric declared in PARENT's
``BENCHMARK.json``, each side's median, quartiles (numpy's linear
percentiles) and runs, the change of the medians relative to the parent's,
``change_wins``, the pairs in which the change reads better (ties count for
neither side), the parent's quartile spread q3 - q1 and the gate's
``verdict`` (also printed to standard error, one line per metric):

- ``improved``: the change wins at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's quartile
  spread;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, relative to the parent's median;
- ``unresolved``: the parent's quartile spread, relative to its median,
  is wider than the bound;
- ``within bound``: any other case.

The first that holds is the verdict.  Last comes ``rss_line``, the
least-squares line of ``peak_rss_mb`` on ``attempted`` over every run of
both sides: its slope per 1,000 operations, its intercept and each side's
mean residual, so a rise in memory can be read as more operations completed
or as memory held.  This script writes no file; each ``run.py`` leaves its
usual record under its checkout's ``perfbench/out/``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One plain run of ``root``'s benchmark: its last JSON line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


def verdict(parent: dict, change: dict, wins: int, n: int, bound: float, sign: float) -> str:
    """The gate's reading of one metric from each side's ``summary``; ``sign``
    is 1 when lower is better, -1 when higher is."""
    base, gain = parent["median"], sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    if 10 * wins >= 9 * n and gain > spread:
        return "improved"
    if base and -gain > bound * abs(base):
        return "worse"
    if base and spread > bound * abs(base):
        return "unresolved"
    return "within bound"


def rss_line(pairs: list) -> dict:
    """Least-squares line of ``peak_rss_mb`` on ``attempted`` over all runs."""
    x = np.array([pr[side]["attempted"] for side in SIDES for pr in pairs], float)
    y = np.array([pr[side]["metrics"]["peak_rss_mb"] for side in SIDES for pr in pairs], float)
    if np.ptp(x) == 0.0:  # one operation count: no slope to fit
        return {"slope_mb_per_1000_ops": None, "intercept_mb": None, "mean_residual_mb": None}
    slope, intercept = np.polyfit(x, y, 1)
    residual = (y - (slope * x + intercept)).reshape(len(SIDES), len(pairs))
    return {
        "slope_mb_per_1000_ops": float(slope * 1000.0),
        "intercept_mb": float(intercept),
        "mean_residual_mb": {side: float(r.mean()) for side, r in zip(SIDES, residual)},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Alternating parent/change pairs of one benchmark workload.")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    declared = json.loads((roots["parent"] / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for i in range(1, args.pairs + 1):
        seed = args.seed + i - 1
        order = SIDES if i % 2 else SIDES[::-1]
        record = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            out = run_once(roots[side], args.workload, seed, args.seconds)
            record[side] = {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": {name: m["value"] for name, m in out["metrics"].items()},
            }
        pairs.append(record)
        print(f"pair {i}/{args.pairs} seed {seed} done", file=sys.stderr)

    metrics = {}
    for m in declared:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        runs = {side: [pr[side]["metrics"][name] for pr in pairs] for side in SIDES}
        wins = sum(1 for a, b in zip(runs["parent"], runs["change"]) if sign * (b - a) < 0)
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            **{side: summary(runs[side]) for side in SIDES},
        }
        parent, change = metrics[name]["parent"], metrics[name]["change"]
        base = parent["median"]
        metrics[name]["change_vs_parent"] = change["median"] / base - 1.0 if base else None
        metrics[name]["change_wins"] = f"{wins}/{len(pairs)}"
        metrics[name]["parent_quartile_spread"] = parent["q3"] - parent["q1"]
        metrics[name]["verdict"] = verdict(parent, change, wins, len(pairs), m["bound"], sign)
        print(f"{name}: {metrics[name]['verdict']} ({wins}/{len(pairs)} wins)", file=sys.stderr)
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "roots": {side: str(roots[side]) for side in SIDES},
        "seeds": [pr["seed"] for pr in pairs],
        "correct": all(pr[side]["correct"] for pr in pairs for side in SIDES),
        "attempted": {side: [pr[side]["attempted"] for pr in pairs] for side in SIDES},
        "failed": {side: [pr[side]["failed"] for pr in pairs] for side in SIDES},
        "metrics": metrics,
        "rss_line": rss_line(pairs),
        "pairs": pairs,
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
