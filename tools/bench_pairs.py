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
and ``change_wins``, the pairs in which the change reads better (ties count
for neither side).  This script writes no file; each ``run.py`` leaves its
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
    """One plain run of ``root``'s benchmark; its last JSON line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list) -> dict:
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "runs": runs}


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
        base = metrics[name]["parent"]["median"]
        metrics[name]["change_vs_parent"] = metrics[name]["change"]["median"] / base - 1.0 if base else None
        metrics[name]["change_wins"] = f"{wins}/{len(pairs)}"
    result = {
        "workload": args.workload,
        "seconds": args.seconds,
        "roots": {side: str(roots[side]) for side in SIDES},
        "seeds": [pr["seed"] for pr in pairs],
        "correct": all(pr[side]["correct"] for pr in pairs for side in SIDES),
        "attempted": {side: [pr[side]["attempted"] for pr in pairs] for side in SIDES},
        "failed": {side: [pr[side]["failed"] for pr in pairs] for side in SIDES},
        "metrics": metrics,
        "pairs": pairs,
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
