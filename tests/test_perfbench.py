"""The package as ``perfbench/`` sees it: every name the workloads and the tracer read.

A rename or deletion in ``src/`` that the tests follow would otherwise break
only the benchmark.  One round of each workload at seed 7 must reach an ok
verdict on every operation and do the work each operation's definition
asks for, as ``perfbench/run.py`` checks it; the tracer must install and
uninstall.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import common  # noqa: E402
import tracer  # noqa: E402


@pytest.mark.parametrize("name", common.WORKLOADS)
def test_one_round_of_the_workload_at_seed_7(name):
    wl = common.workload(name)
    for op in wl.ops(wl.build(), np.random.default_rng(7)):
        work = common.Work()
        verdict = op.fn(work)
        assert verdict.ok, (op.kind, op.key, verdict)
        due = op.points if work.due is None else work.due
        assert (work.points, work.fiber_dirs) == (due, op.fiber_dirs), (op.kind, op.key)


def test_the_tracer_installs_and_uninstalls():
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
