"""Span tracing of projspray's layers, installed from outside the package.

Each traced public name is replaced, in every projspray module that binds
it, by a wrapper that records a span (name, start, end, parent, operation).
Self time is a span's duration minus that of its child spans.  An
``EvaluationError`` or ``DomainError`` that leaves a span for a caller in
another module (or the benchmark) counts against the span's module.
"""

from __future__ import annotations

import dataclasses
import gzip
import sys
from collections import Counter
from time import perf_counter

from projspray import finsler, jets, trace

# (module, public name, span name)
FUNCTIONS = (
    ("jets", "lift", "jets.lift"),
    ("finsler", "fundamental_tensor", "finsler.fundamental_tensor"),
    ("finsler", "is_strongly_convex", "finsler.is_strongly_convex"),
    ("finsler", "projective_residual", "finsler.projective_residual"),
    ("symmetry", "point_symmetry_residual", "symmetry.point_symmetry_residual"),
    ("symmetry", "projective_field_residual", "symmetry.projective_field_residual"),
    ("symmetry", "structure_constants", "symmetry.structure_constants"),
    ("classify", "extract_cubic", "classify.extract_cubic"),
    ("classify", "flatness_residuals", "classify.flatness_residuals"),
    ("classify", "liouville_residuals", "classify.liouville_residuals"),
    ("classify", "is_projectively_flat", "classify.is_projectively_flat"),
    ("randers", "christoffel", "randers.christoffel"),
    ("randers", "geodesic_curvature", "randers.geodesic_curvature"),
    ("trace", "integrate_flow", "trace.integrate"),
    ("trace", "integrate_spray", "trace.integrate"),
    ("trace", "integrate_ode", "trace.integrate"),
    ("trace", "unit_speed_resample", "trace.resample"),
    ("trace", "curve_samples", "trace.resample"),
    ("trace", "circle_fit", "trace.circle_fit"),
)
# Factories whose products are traced: every evaluation of an induced
# equation, and every call of a magnetic right-hand side.
FACTORIES = (
    ("finsler", "induced_odes", "finsler.induced_ode"),
    ("finsler", "induced_ode_direct", "finsler.induced_ode"),
    ("randers", "magnetic_rhs", "randers.magnetic_rhs"),
)
SPRAY_DERIVED = "finsler.spray_eval.derived"  # sprays from geodesic_spray
SPRAY_CLOSED = "finsler.spray_eval.closed"  # closed-form catalog sprays
OP_SPAN = "bench.op"


def _modules():
    return [m for name, m in sys.modules.items() if name == "projspray" or name.startswith("projspray.")]


class Tracer:
    """Spans and counts of one traced round; ``install`` ... ``uninstall``."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, operation id)
        self.seed_jets = 0
        self.jets_created = 0
        self.errors = Counter()
        self._stack = []  # span indices
        self._mods = []  # module of each open span
        self._op = -1
        self._saved = []  # (owner, attribute, original)
        self._caught = (jets.EvaluationError, trace.DomainError)

    # -- recording --------------------------------------------------------

    def _call(self, name, module, fn, args, kwargs):
        stack, mods = self._stack, self._mods
        parent = stack[-1] if stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        stack.append(idx)
        mods.append(module)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except self._caught:
            if len(mods) < 2 or mods[-2] != module:
                self.errors[module] += 1
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            mods.pop()
            self.spans[idx] = (name, t0, t1, parent, self._op)

    def _wrap(self, fn, name, module):
        def traced(*args, **kwargs):
            return self._call(name, module, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def op(self, op_id, fn, work):
        """Run one benchmark operation as the root span of its subtree."""
        self._op = op_id
        try:
            return self._call(OP_SPAN, "bench", fn, (work,), {})
        finally:
            self._op = -1

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, module, name, new):
        """Replace ``module.name`` wherever a projspray module binds the same object."""
        original = getattr(sys.modules[f"projspray.{module}"], name)
        for m in _modules():
            if getattr(m, name, None) is original:
                self._patch(m, name, new)

    def install(self):
        for module, name, span in FUNCTIONS:
            fn = getattr(sys.modules[f"projspray.{module}"], name)
            self._rebind(module, name, self._wrap(fn, span, module))
        for module, name, span in FACTORIES:
            self._rebind(module, name, self._factory(getattr(sys.modules[f"projspray.{module}"], name), span, module))

        seed = jets.seed_jets

        def seed_jets(*args, **kwargs):
            self.seed_jets += 1
            return seed(*args, **kwargs)

        self._rebind("jets", "seed_jets", seed_jets)

        init = jets.Jet2.__init__

        def __init__(jet, *args):
            self.jets_created += 1
            init(jet, *args)

        self._patch(jets.Jet2, "__init__", __init__)

        coefficients = finsler.Spray.coefficients

        def spray_coefficients(spray, *args):
            name = SPRAY_DERIVED if spray.name.startswith("geodesic") else SPRAY_CLOSED
            return self._call(name, "finsler", coefficients, (spray, *args), {})

        self._patch(finsler.Spray, "coefficients", spray_coefficients)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _factory(self, make, span, module):
        """Wrap a factory so the callables it returns are traced."""

        def traced_factory(*args, **kwargs):
            out = make(*args, **kwargs)
            if callable(out):
                return self._wrap(out, span, module)
            changes = {
                f.name: dataclasses.replace(v, fn=self._wrap(v.fn, span, module))
                for f in dataclasses.fields(out)
                if isinstance(v := getattr(out, f.name), jets.ScalarField)
            }
            return dataclasses.replace(out, **changes)

        return traced_factory

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total self time in seconds)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, self_s = Counter(), Counter()
        for i, (name, t0, t1, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
        return calls, self_s

    def write(self, path, round_no, append):
        """Append this round's spans to a gzipped CSV file."""
        with gzip.open(path, "at" if append else "wt") as fh:
            if not append:
                fh.write("round,span,name,start,end,parent,op\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(f"{round_no},{i},{name},{t0:.9f},{t1:.9f},{parent},{op}\n")
