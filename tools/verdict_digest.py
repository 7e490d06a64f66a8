"""Print a digest of every benchmark verdict of a checkout.

    python3 tools/verdict_digest.py CHECKOUT [OUT.json]

For each workload of CHECKOUT's ``perfbench/`` at seeds 7 and 271828, this
builds the operations from CHECKOUT's ``src/`` and ``perfbench/``, runs one
round with a fresh ``common.Work()`` per operation, and prints the number of
operations, the number whose verdict is ok, and the first 16 hex digits of
the SHA-256 of ``json.dumps(rows)``, where ``rows`` lists
``(kind, key, ok, repr(worst))`` per operation in run order.  Two checkouts
with equal digests reach bit-identical verdicts.  The round runs under
CHECKOUT's ``perfbench/tracer.py``, and each line ends with the round's
traced ``jets.lift`` calls, ``seed_jets`` calls and jets created, the
numbers ``perfbench/run.py --trace 1`` reports as ``jets.lift.calls``,
``jets.seed_jets.calls`` and ``jets.jet2.created``.  An operation that raises
counts as failed with a worst of ``nan``, as in ``perfbench/run.py``.  With
OUT.json, the rows are also written there, keyed by workload and seed.

``load``, ``ops_of`` and ``row`` are also how the other tools load a
checkout, build its operations and run one; importing this module pins the
BLAS threads.
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


def load(src: Path, bench: Path):
    """``common`` of ``bench``, with every module of ``src``'s package imported.

    Any earlier ``projspray``, ``common`` and ``wl_*`` modules leave
    ``sys.modules`` first, so each call imports its own; operations built
    before keep their modules alive.  Both directories go first on
    ``sys.path``.  Exits with status 2 when the package is imported from
    anywhere but ``src``.
    """
    for name in [m for m in sys.modules if m in ("projspray", "common") or m.startswith(("projspray.", "wl_"))]:
        del sys.modules[name]
    sys.path[:0] = [str(src), str(bench)]
    common = importlib.import_module("common")
    pkg = common.import_package()
    if Path(pkg.__file__).resolve().parent != src / "projspray":
        print(f"error: projspray imported from {pkg.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return common


def row(common, op) -> tuple:
    """``(kind, key, ok, repr(worst))`` of one run of ``op`` on a fresh ``common.Work()``."""
    try:
        v = op.fn(common.Work())
        ok, worst = v.ok, v.worst
    except Exception as exc:  # a raising op fails, as in run.py; the caller still runs the rest
        print(f"{op.kind} {op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        ok, worst = False, math.nan
    return (op.kind, op.key, ok, repr(worst))


def ops_of(wl, seed):
    """The operations of one round of workload module ``wl`` at ``seed``."""
    import numpy as np

    return wl.ops(wl.build(), np.random.default_rng(seed))


def rows_of(common, wl, seed):
    """The row of each operation of one round."""
    return [row(common, op) for op in ops_of(wl, seed)]


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: python3 tools/verdict_digest.py CHECKOUT [OUT.json]", file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    common = load(root / "src", root / "perfbench")
    tracer = importlib.import_module("tracer")
    out = {}
    for name in common.WORKLOADS:
        wl = common.workload(name)
        for seed in SEEDS:
            ops, traced = ops_of(wl, seed), tracer.Tracer()
            traced.install()
            try:
                rows = [row(common, op) for op in ops]
            finally:
                traced.uninstall()
            digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
            ok = sum(1 for r in rows if r[2])
            lifts = traced.self_times()[0]["jets.lift"]
            print(
                f"{name:13s} seed {seed:<7d} {len(rows):4d} ops  {ok:4d} ok  {digest}"
                f"  {lifts:6d} lifts {traced.seed_jets:6d} seeds {traced.jets_created:7d} jets"
            )
            out.setdefault(name, {})[str(seed)] = rows
    if len(argv) == 3:
        Path(argv[2]).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
