"""Run one workload of the projspray benchmark and print its metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; projspray is imported from its ``src``.
A run sets up (timed in fresh interpreters), generates the workload's
operations from the seed, warms up, then repeats the whole operation list
("a round") for as long as ``--seconds`` allows.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates plain and
traced rounds and prints the per-layer metrics.  Latencies are scaled to a
reference speed of the host (``calibrate.py``).  ``failed`` counts the
failures that no known defect explains.  The metric names and units
are those declared in ``BENCHMARK.json``.  The last line of standard output
is one JSON object; a fuller record, with the machine, goes to
``perfbench/out/``.

Exit codes: 0 on a completed run, 2 when the sources are missing, 3 when
the work done differs from the workload definition.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads: 2x2 algebra gains nothing from threads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import REFERENCE_S, reference_time  # noqa: E402
from common import KNOWN_DEFECTS, WORKLOADS, GateError, Verdict, Work, import_package, workload  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5
CHECK_S = 0.1  # work between two timings of the reference computation
LAYERS = ("jets", "finsler", "symmetry", "classify", "randers", "trace")
# Span names reported with both ``.calls`` and ``.self_s``.
SPAN_METRICS = (
    "jets.lift",
    "finsler.spray_eval.derived",
    "finsler.spray_eval.closed",
    "finsler.fundamental_tensor",
    "finsler.projective_residual",
    "finsler.induced_ode",
    "symmetry.point_symmetry_residual",
    "symmetry.projective_field_residual",
    "symmetry.structure_constants",
    "classify.extract_cubic",
    "classify.flatness_residuals",
    "classify.liouville_residuals",
    "randers.christoffel",
    "randers.magnetic_rhs",
    "randers.geodesic_curvature",
)
SELF_ONLY = ("finsler.is_strongly_convex", "trace.integrate", "trace.resample", "trace.circle_fit")


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one workload of the projspray benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    return p.parse_args(argv)


def machine():
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(name):
    """Set-up times of ``SETUP_SAMPLES`` fresh interpreters, run one after another."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), name]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.split()[-1]))
    return samples


@dataclass
class Round:
    wall: float
    latencies: list
    verdicts: list  # (Verdict, error text or None) per operation
    work: dict
    reference: list  # per operation, the reference time around it
    tracer: object = None


def run_round(ops, tracer=None):
    gc.collect()
    if tracer is not None:
        tracer.install()
    latencies, verdicts, reference = [], [], []
    work = {"points": 0, "fiber_dirs": 0, "rk4_steps": 0, "rk4_requested": 0}
    before, since = reference_time(), 0.0
    start = perf_counter()
    try:
        for i, op in enumerate(ops):
            w = Work()
            error = None
            t0 = perf_counter()
            try:
                v = tracer.op(i, op.fn, w) if tracer is not None else op.fn(w)
            except GateError:
                raise
            except Exception as exc:  # an operation that raised has failed
                v = Verdict(False, math.nan, math.nan)
                error = f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
            due = op.points if w.due is None else w.due
            if error is None and (w.points, w.fiber_dirs) != (due, op.fiber_dirs):
                raise GateError(
                    f"{op.kind} {op.key}: did {w.points} points / {w.fiber_dirs} fiber directions, "
                    f"defined {due} / {op.fiber_dirs}"
                )
            for k in work:
                work[k] += getattr(w, k)
            verdicts.append((v, error))
            since += latencies[-1]
            if since >= CHECK_S or i == len(ops) - 1:
                after = reference_time()
                reference += [0.5 * (before + after)] * (len(latencies) - len(reference))
                before, since = after, 0.0
        wall = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Round(wall, latencies, verdicts, work, reference, tracer)


def run_rounds(ops, seconds, traced):
    """Whole rounds while the next is expected to end within ``seconds``.

    A traced run alternates plain and traced rounds, starting plain.
    """
    from tracer import Tracer

    rounds = []
    start = perf_counter()
    need = 2 if traced else 1
    while True:
        tracer = Tracer() if traced and len(rounds) % 2 == 1 else None
        rounds.append(run_round(ops, tracer))
        elapsed = perf_counter() - start
        next_wall = max(r.wall for r in rounds[-2:])
        if len(rounds) >= need and elapsed + next_wall > seconds:
            return rounds


def check_repeats(rounds):
    """Every round must do the same work and reach the same verdicts."""
    first = rounds[0]
    for r in rounds:
        if r.work != first.work:
            raise GateError(f"rounds did different work: {first.work} and {r.work}")
        if [v.ok for v, _ in r.verdicts] != [v.ok for v, _ in first.verdicts]:
            raise GateError("rounds reached different verdicts")


def summarize_failures(ops, rnd):
    out = []
    for op, (v, err) in zip(ops, rnd.verdicts):
        if not v.ok:
            out.append(
                {"kind": op.kind, "key": op.key, "worst": v.worst, "tol": v.tol, "defect": v.defect, "error": err}
            )
    return out


def op_times(rounds):
    """Each operation's latency at the reference speed, in seconds.

    Every ``CHECK_S`` of work the round times the reference computation;
    a latency is scaled by ``REFERENCE_S`` over the mean of the reference
    times just before and just after it, which takes out how fast the
    shared host ran then.  Each operation's latency is the median of its
    scaled ones over ``rounds``.
    """
    lat = np.array([r.latencies for r in rounds])
    return np.median(lat * REFERENCE_S / np.array([r.reference for r in rounds]), axis=0)


def end_to_end(setup, plain, peak_rss_mb):
    """p50 and p90 are taken over the operations' latencies (``op_times``),
    and ``wall_s`` is their sum: the time of the round's fixed work."""
    lat_ms = op_times(plain) * 1e3
    return {
        "setup_s": statistics.median(setup),
        "wall_s": float(lat_ms.sum()) / 1e3,
        "op_ms_p50": float(np.percentile(lat_ms, 50)),
        "op_ms_p90": float(np.percentile(lat_ms, 90)),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(plain, traced, build_s, n_ops):
    stats = [r.tracer.self_times() for r in traced]
    calls = stats[0][0]
    for c, _ in stats[1:]:
        if c != calls:
            raise GateError("traced rounds made different calls")

    def self_s(name):
        return min(s[name] for _, s in stats)

    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s(name)
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = self_s(name)
    first = traced[0]
    m["jets.seed_jets.calls"] = first.tracer.seed_jets
    m["jets.jet2.created"] = first.tracer.jets_created
    for layer in LAYERS:
        m[f"{layer}.errors"] = first.tracer.errors[layer]
    work = first.work
    m["trace.rk4.steps"] = work["rk4_steps"]
    m["trace.steps_ratio"] = work["rk4_steps"] / work["rk4_requested"] if work["rk4_requested"] else 1.0
    m["catalog.build_s"] = build_s
    m["bench.self_s"] = self_s("bench.op")
    m["bench.trace_overhead_s"] = float(op_times(traced).sum() - op_times(plain).sum())
    m["work.ops"] = n_ops
    m["work.points"] = work["points"]
    m["work.fiber_dirs"] = work["fiber_dirs"]
    return m


def declared(kind):
    """(name, unit) of the metrics ``BENCHMARK.json`` declares under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "projspray" / "__init__.py").is_file():
        print(f"error: projspray sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    projspray = import_package()
    if Path(projspray.__file__).resolve().parent != SRC / "projspray":
        print(f"error: projspray imported from {projspray.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    setup = measure_setup(args.workload)
    wl = workload(args.workload)
    t0 = perf_counter()
    entries = wl.build()
    build_s = perf_counter() - t0
    ops = wl.ops(entries, np.random.default_rng(args.seed))

    try:
        warm = list({op.kind: op for op in ops}.values())
        run_round(warm)
        rounds = run_rounds(ops, args.seconds, bool(args.trace))
        check_repeats(rounds)
    except GateError as exc:
        print(f"error: work differs from the workload definition: {exc}", file=sys.stderr)
        return 3

    plain = [r for r in rounds if r.tracer is None]
    traced = [r for r in rounds if r.tracer is not None]
    attempted = len(ops) * len(rounds)
    verdicts = [v for r in rounds for v, _ in r.verdicts]
    # ``failed`` counts the failures no known defect explains; fail_frac
    # counts every failure, the known defects' included.
    failed = sum(1 for v in verdicts if not v.ok and v.defect not in KNOWN_DEFECTS)
    fail_frac = sum(1 for v in verdicts if not v.ok) / attempted
    defects = {d: sum(1 for v, _ in rounds[0].verdicts if not v.ok and v.defect == d) for d in KNOWN_DEFECTS}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    computed = end_to_end(setup, plain, peak_rss_mb)
    computed["fail_frac"] = fail_frac
    if traced:
        computed.update(per_layer(plain, traced, build_s, len(ops)))
        computed.update({f"defects.{d}": n for d, n in defects.items()})
    names = declared("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": computed[name], "unit": unit} for name, unit in names}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        for i, r in enumerate(traced):
            r.tracer.write(spans, i, append=i > 0)
    record = {
        "args": vars(args),
        "machine": machine(),
        "ops_per_round": len(ops),
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "round_traced": [r.tracer is not None for r in rounds],
        "round_reference_s": [float(np.median(r.reference)) for r in rounds],
        "reference_s": REFERENCE_S,
        "setup_samples_s": setup,
        "work_per_round": rounds[0].work,
        "failed_per_round": sum(1 for v, _ in rounds[0].verdicts if not v.ok),
        "known_defects_per_round": defects,
        "failures": summarize_failures(ops, rounds[0]),
        "metrics": computed,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(
        f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)} x {len(ops)} ops  "
        f"fail_frac {fail_frac:.6g} (known defects per round: {defects}, unexplained failures: {failed})"
    )
    units = dict(names, fail_frac="ratio")
    for name in list(dict(names)) + ([] if args.trace else ["fail_frac"]):
        print(f"  {name:40s} {computed[name]:>14.6g} {units[name]}")
    print(f"  machine: {json.dumps(record['machine'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
