"""Workload ``probes``: single residual calls at seeded points of each domain.

One call is one operation, as a property test or a one-off spot check makes
it.  Nothing here is a grid, so batching sweeps cannot help; cheaper jets or
a cheaper ``geodesic_spray`` show here most clearly.  Cases are used equally
often, so the mix of costs is the same for every seed.
"""

from __future__ import annotations

import numpy as np

from projspray import catalog, finsler, symmetry

from common import Op, at_most, balanced, uniform_in
from wl_catalog import FIELD_TOL, TOL, metric_cases

PER_KIND = 200  # calls of each residual per round
DOMAIN_SHRINK = 0.9


def build():
    metrics = []
    for key, k in metric_cases():
        entry = catalog.metric_entry(key, k=k)
        metrics.append(
            (
                f"{key}(k={k:g})",
                entry,
                finsler.geodesic_spray(entry.metric),
                catalog.spray_entry(entry.spray_key, k=k).spray,
            )
        )
    return {"pairs": catalog.symmetry_pairs(), "metrics": metrics}


def _symmetry_point(rng, entry):
    zlo, zhi = min(entry.z_values), max(entry.z_values)
    while True:
        x, y = uniform_in(rng, entry.base_domain, DOMAIN_SHRINK)
        z = float(rng.uniform(zlo, zhi))
        if entry.point_filter is None or entry.point_filter(x, y, z):
            return (x, y, z)


def _fiber_point(rng, entry):
    x, y = uniform_in(rng, entry.domain, DOMAIN_SHRINK)
    t = float(rng.uniform(0.0, 2.0 * np.pi))
    return (x, y, float(np.cos(t)), float(np.sin(t)))


def _point_symmetry(X, f, pt):
    def run(w):
        w.at(pt)
        return at_most(symmetry.point_symmetry_residual(X, f, pt), TOL)

    return run


def _projective(gs, spray, pt):
    def run(w):
        w.at(pt[:2], pt[2:])
        return at_most(finsler.projective_residual(gs, spray, pt), TOL)

    return run


def _projective_field(X, gs, pt):
    def run(w):
        w.at(pt[:2], pt[2:])
        return at_most(symmetry.projective_field_residual(X, gs, pt), FIELD_TOL)

    return run


def ops(entries, rng: np.random.Generator) -> list[Op]:
    out = []
    combos = [(label, case, entry, i) for (label, case, entry) in entries["pairs"] for i in range(3)]
    for label, case, entry, i in balanced(rng, combos, PER_KIND):
        pt = _symmetry_point(rng, entry)
        out.append(Op("point_symmetry", f"{label} X{i}", _point_symmetry(case.basis[i], entry.f, pt), points=1))
    for label, entry, gs, spray in balanced(rng, entries["metrics"], PER_KIND):
        pt = _fiber_point(rng, entry)
        out.append(Op("projective", label, _projective(gs, spray, pt), points=1, fiber_dirs=1))
    combos = [(label, entry, gs, X) for (label, entry, gs, _) in entries["metrics"] for X in entry.projective_basis]
    for label, entry, gs, X in balanced(rng, combos, PER_KIND):
        pt = _fiber_point(rng, entry)
        out.append(Op("projective_field", f"{label} {X.name}", _projective_field(X, gs, pt), points=1, fiber_dirs=1))
    return [out[i] for i in rng.permutation(len(out))]
