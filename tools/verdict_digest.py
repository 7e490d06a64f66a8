"""Print a digest of every benchmark verdict of a checkout.

    python3 tools/verdict_digest.py CHECKOUT [OUT.json]

For each workload of CHECKOUT's ``perfbench/`` at seeds 7 and 271828, this
builds the operations from CHECKOUT's ``src/`` and ``perfbench/``, runs one
round with a fresh ``common.Work()`` per operation, and prints the number of
operations, the number whose verdict is ok, and the first 16 hex digits of
the SHA-256 of ``json.dumps(rows)``, where ``rows`` lists
``(kind, key, ok, repr(worst))`` per operation in run order.  Two checkouts
with equal digests reach bit-identical verdicts.  An operation that raises
counts as failed with a worst of ``nan``, as in ``perfbench/run.py``.  With
OUT.json, the rows are also written there, keyed by workload and seed.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as perfbench/run.py sets them, before numpy loads

import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = (7, 271828)


def rows_of(common, wl, seed):
    """(kind, key, ok, repr(worst)) of each operation of one round."""
    import numpy as np

    ops = wl.ops(wl.build(), np.random.default_rng(seed))
    rows = []
    for op in ops:
        try:
            v = op.fn(common.Work())
            ok, worst = v.ok, v.worst
        except Exception as exc:  # a raising op fails, as in run.py; the digest still covers the rest
            print(f"{op.kind} {op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
            ok, worst = False, math.nan
        rows.append((op.kind, op.key, ok, repr(worst)))
    return rows


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: python3 tools/verdict_digest.py CHECKOUT [OUT.json]", file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    src, bench = root / "src", root / "perfbench"
    sys.path[:0] = [str(src), str(bench)]
    common = importlib.import_module("common")
    projspray = common.import_package()
    if Path(projspray.__file__).resolve().parent != src / "projspray":
        print(f"error: projspray imported from {projspray.__file__}, not from {src}", file=sys.stderr)
        return 2
    out = {}
    for name in common.WORKLOADS:
        wl = common.workload(name)
        for seed in SEEDS:
            rows = rows_of(common, wl, seed)
            digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
            ok = sum(1 for row in rows if row[2])
            print(f"{name:13s} seed {seed:<7d} {len(rows):4d} ops  {ok:4d} ok  {digest}")
            out.setdefault(name, {})[str(seed)] = rows
    if len(argv) == 3:
        Path(argv[2]).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
