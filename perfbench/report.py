"""Run every workload once and print its end-to-end metrics, with units.

    python3 perfbench/report.py --seed 1

Each workload runs in its own ``run.py`` process, one after another, for the
``run_seconds`` that ``BENCHMARK.json`` declares.  ``fail_frac`` is failed
operations over attempted ones, the known defects' failures included; it is
read from the run's record.  ``failed`` counts only the failures no known
defect explains.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    results = {}
    for wl in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
        results[wl] = json.loads(out.stdout.splitlines()[-1])
    first = results[WORKLOADS[0]]["metrics"]
    rows = [(name, m["unit"], [results[wl]["metrics"][name]["value"] for wl in WORKLOADS]) for name, m in first.items()]
    records = [json.loads((HERE / "out" / f"{wl}-seed{args.seed}-trace0.json").read_text()) for wl in WORKLOADS]
    rows.append(("fail_frac", "ratio", [r["metrics"]["fail_frac"] for r in records]))
    rows.append(("failed", "count", [results[wl]["failed"] for wl in WORKLOADS]))
    rows.append(("correct", "", [results[wl]["correct"] for wl in WORKLOADS]))
    print(f"{'metric':14s} {'unit':6s}" + "".join(f"{wl:>15s}" for wl in WORKLOADS))
    for name, unit, values in rows:
        print(f"{name:14s} {unit:6s}" + "".join(f"{v!s:>15.10s}" if isinstance(v, bool) else f"{v:>15.6g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
