"""Workload ``catalog``: every claim of the classification catalog, once per round.

One operation is one claim for one key or parameter set; a symmetry claim is
one basis field of one pair.  The sweeps are grid-heavy (L3) over derived
sprays (L1 with nested registers) and integrate nothing.  Grid sizes match
the test suite or are denser; the seed sets the claim order, the
perturbation sizes, the fiber-circle offsets and the slopes and base points
the pointwise comparisons use.
"""

from __future__ import annotations

import numpy as np

from projspray import catalog, classify, finsler, symmetry

from common import Op, Verdict, at_most, observe, stratified, uniform_in, unit_dirs

TOL = 1e-9  # brackets, symmetry pairs, spray equivalence, pipelines, Liouville
FIELD_TOL = 1e-8  # projective fields of metrics
BREAK_MIN = 1e-4  # a perturbed equation must miss its symmetries by more
J3_PARTIAL_TOL = 1e-12

SC_POINTS = 5
SYM_GRID = 3  # OdeEntry.grid(n_spatial)
CONVEX = {"nx": 5, "ny": 5, "ndirs": 16, "margin": 0.9}
EQUIV_GRID, EQUIV_DIRS = 3, 4
DIRECT_GRID, DIRECT_Z = 3, 3
FIELD_GRID, FIELD_DIRS = 2, 4
FLAT = {"nx": 4, "ny": 4, "tol": 1e-8, "cubic_tol": 1e-9, "margin": 0.9}
FLAT_BOX = finsler.Rectangle(-0.3, 0.3, -0.3, 0.3)
FLAT_GRID = FLAT_BOX.grid(FLAT["nx"], FLAT["ny"], FLAT["margin"])  # the order of the sweep
LIOUVILLE_GRID = 3

# The normal forms that are projectively flat; every other one is not.
FLAT_ODES = ("flat", "J3")
FLAT_SPRAYS = ("flat",)


def _lie_params(key):
    return {"D2": {"lam": 2.0}, "C1": {"lam": -1.0}}.get(key, {})


def metric_cases():
    """(key, k) for the ten metric cases: b-family at k = 0.5, 1, 2."""
    out = []
    for key in catalog.METRIC_KEYS:
        ks = (0.5, 1.0, 2.0) if key in ("bk+", "bk-") else (1.0,)
        out.extend((key, k) for k in ks)
    return out


def build():
    """Catalog entries the claims read."""
    lie = [(key, catalog.lie_case(key, **_lie_params(key))) for key in catalog.LIE_CASE_KEYS]
    lie.append(("J3(gamma=0,1)", catalog.lie_case("J3", gamma=(0.0, 1.0))))
    metrics = []
    for key, k in metric_cases():
        entry = catalog.metric_entry(key, k=k)
        metrics.append((f"{key}(k={k:g})", entry, catalog.spray_entry(entry.spray_key, k=k).spray))
    return {
        "lie": lie,
        "pairs": catalog.symmetry_pairs(),
        "j3": (catalog.lie_case("J3"), catalog.ode_entry("J3")),
        "metrics": metrics,
        "odes": [(key, catalog.ode_entry(key)) for key in catalog.ODE_KEYS],
        "sprays": [(key, catalog.spray_entry(key).spray) for key in catalog.SPRAY_KEYS],
    }


def _brackets(case):
    def run(w):
        # structure_constants samples its own pool; its points are not seen here.
        sc = symmetry.structure_constants(case, npoints=SC_POINTS, tol=TOL)
        worst = max(
            sc.residual,
            symmetry.jacobi_residual(sc),
            *(float(np.abs(sc.constants[p] - np.asarray(want)).max()) for p, want in case.expected.items()),
        )
        ok = worst <= TOL and case.isotropy_ok() and case.transitive_ok()
        return Verdict(ok, worst, TOL)

    return run


def _residual_grid(fields, f, pts, w):
    worst = 0.0
    for X in fields:
        for pt in pts:
            worst = max(worst, symmetry.point_symmetry_residual(X, f, pt))
            w.at(pt)
    return worst


def _symmetry(X, entry, tol):
    def run(w):
        return at_most(_residual_grid((X,), entry.f, entry.grid(SYM_GRID), w), tol)

    return run


def _breaking(case, entry, eps):
    def run(w):
        f_pert, filt = entry.perturbed(eps)
        pts = [p for p in entry.grid(SYM_GRID) if filt is None or filt(*p)]
        worst = _residual_grid(case.basis, f_pert, pts, w)
        return Verdict(worst > BREAK_MIN, worst, BREAK_MIN)

    return run


def _convexity(entry):
    def run(w):
        with observe(finsler, "fundamental_tensor", lambda metric, p: w.at(p[:2], p[2:])):
            rep = finsler.is_strongly_convex(entry.metric, entry.domain, **CONVEX)
        return Verdict(rep.ok, rep.min_eigenvalue, 0.0)

    return run


def _equivalence(entry, cat_spray, offset):
    def run(w):
        gs = finsler.geodesic_spray(entry.metric)
        dirs = unit_dirs(EQUIV_DIRS, offset)
        worst = 0.0
        for (x, y) in entry.domain.grid(EQUIV_GRID, EQUIV_GRID):
            for (u, v) in dirs:
                worst = max(worst, finsler.projective_residual(gs, cat_spray, (x, y, u, v)))
                w.at((x, y), (u, v))
        return at_most(worst, TOL)

    return run


def _pipelines(entry, zs):
    def run(w):
        direct = finsler.induced_ode_direct(entry.metric)
        via = finsler.induced_odes(finsler.geodesic_spray(entry.metric))
        worst = 0.0
        for (x, y) in entry.domain.grid(DIRECT_GRID, DIRECT_GRID):
            for z in zs:
                worst = max(
                    worst,
                    abs(direct.fplus(x, y, z) - via.fplus(x, y, z)),
                    abs(direct.fminus(x, y, z) - via.fminus(x, y, z)),
                )
                w.at((x, y, z))
        return at_most(float(worst), TOL)

    return run


def _projective_fields(entry, offset):
    def run(w):
        gs = finsler.geodesic_spray(entry.metric)
        dirs = unit_dirs(FIELD_DIRS, offset)
        worst = 0.0
        for X in entry.projective_basis:
            for (x, y) in entry.domain.grid(FIELD_GRID, FIELD_GRID):
                for (u, v) in dirs:
                    worst = max(worst, symmetry.projective_field_residual(X, gs, (x, y, u, v)))
                    w.at((x, y), (u, v))
        return at_most(worst, FIELD_TOL)

    return run


def _flatness(field_of, expected):
    def run(w):
        f = field_of()
        with observe(classify, "extract_cubic", lambda field, at, **kw: w.at(at)):
            verdict = classify.is_projectively_flat(f, FLAT_BOX, **FLAT)
        if verdict.witness is not None:  # the sweep ends at its first failing point
            w.due = FLAT_GRID.index(verdict.witness) + 1
        return Verdict(verdict.flat == expected, verdict.worst, FLAT["tol"])

    return run


def _liouville(entry, at):
    def run(w):
        fplus = finsler.induced_ode_direct(entry.metric).fplus
        cf = classify.extract_cubic(fplus, at)
        if not isinstance(cf, classify.CubicForm):
            return Verdict(False, cf.residual, TOL)
        K = classify.ProjectiveConnectionCoeffs.from_cubic(cf)
        a = classify.liouville_candidate(entry.alpha)
        worst = 0.0
        for pt in entry.domain.grid(LIOUVILLE_GRID, LIOUVILLE_GRID):
            worst = max(worst, float(np.abs(classify.liouville_residuals(a, K, pt)).max()))
            w.at(pt)
        return at_most(worst, TOL)

    return run


def ops(entries, rng: np.random.Generator) -> list[Op]:
    out = []
    for key, case in entries["lie"]:
        out.append(Op("brackets", key, _brackets(case)))
    eps = stratified(rng, 0.01, 0.02, len(entries["pairs"]))
    for (label, case, entry), e in zip(entries["pairs"], eps):
        n = len(entry.grid(SYM_GRID))
        for X in case.basis:
            out.append(Op("symmetry", f"{label} {X.name}", _symmetry(X, entry, TOL), points=n))
        f_pert, filt = entry.perturbed(float(e))
        m = sum(1 for p in entry.grid(SYM_GRID) if filt is None or filt(*p))
        out.append(Op("symmetry_breaking", f"{label}(eps={e:.4f})", _breaking(case, entry, float(e)), points=m))
    case, entry = entries["j3"]
    for X in case.basis[:2]:  # the cubic family keeps these two for any h(y)
        n = len(entry.grid(SYM_GRID))
        out.append(Op("symmetry", f"J3 {X.name}", _symmetry(X, entry, J3_PARTIAL_TOL), points=n))
    offsets = rng.uniform(0.0, 2.0 * np.pi, size=(len(entries["metrics"]), 2))
    zs = stratified(rng, -2.0, 2.0, DIRECT_Z * len(entries["metrics"])).reshape(-1, DIRECT_Z)
    for (label, entry, spray), (o1, o2), z in zip(entries["metrics"], offsets, zs):
        out.append(
            Op("convexity", label, _convexity(entry),
               points=CONVEX["nx"] * CONVEX["ny"], fiber_dirs=CONVEX["ndirs"])
        )
        out.append(
            Op("spray_equivalence", label, _equivalence(entry, spray, float(o1)),
               points=EQUIV_GRID**2, fiber_dirs=EQUIV_DIRS)
        )
        out.append(
            Op("pipelines", label, _pipelines(entry, tuple(float(t) for t in z)),
               points=DIRECT_GRID**2 * DIRECT_Z)
        )
        out.append(
            Op("projective_fields", label, _projective_fields(entry, float(o2)),
               points=FIELD_GRID**2, fiber_dirs=FIELD_DIRS)
        )
    for key, entry in entries["odes"]:
        out.append(
            Op("flatness", key, _flatness(lambda f=entry.f: f, key in FLAT_ODES),
               points=FLAT["nx"] * FLAT["ny"])
        )
    for key, spray in entries["sprays"]:
        out.append(
            Op("flatness", f"spray {key}",
               _flatness(lambda s=spray: finsler.induced_odes(s).fplus, key in FLAT_SPRAYS),
               points=FLAT["nx"] * FLAT["ny"])
        )
    for label, entry, _ in entries["metrics"]:
        if entry.key in ("c+", "c-"):
            at = uniform_in(rng, entry.domain, 0.5)
            out.append(Op("liouville", label, _liouville(entry, at), points=LIOUVILLE_GRID**2))
    return [out[i] for i in rng.permutation(len(out))]
