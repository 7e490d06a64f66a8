import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projspray.catalog import metric_entry, ode_entry
from projspray.classify import (
    CubicForm,
    NotCubic,
    ProjectiveConnectionCoeffs,
    extract_cubic,
    flatness_residuals,
    is_projectively_flat,
    liouville_candidate,
    liouville_residuals,
)
from projspray.finsler import FinslerMetric, Rectangle, induced_ode_direct, is_strongly_convex
from projspray.jets import EvaluationError, Jet2, ScalarField, exp, jet_value, sqrt
from projspray.randers import MetricField, constant_curvature_metric, randers_metric
from projspray.symmetry import PlaneVectorField, structure_constants

BOX = Rectangle(-0.3, 0.3, -0.3, 0.3)


def test_extract_cubic_zero():
    cf = extract_cubic(ScalarField(3, lambda x, y, z: 0.0), (0.1, 0.2))
    assert isinstance(cf, CubicForm)
    assert cf.coefficients(0.1, 0.2) == (0.0, 0.0, 0.0, 0.0)


def test_extract_cubic_j2():
    f = ode_entry("J2", C=0.5).f  # y'' = z/2 + e^{-2x} z^3 / 2
    cf = extract_cubic(f, (0.0, 0.1))
    assert isinstance(cf, CubicForm)
    A, B, C, D = cf.coefficients(0.0, 0.1)
    assert (A, B, C) == (pytest.approx(0.0, abs=1e-14), pytest.approx(0.5), pytest.approx(0.0, abs=1e-13))
    assert D == pytest.approx(0.5)
    A, B, C, D = cf.coefficients(0.3, -0.1)
    assert D == pytest.approx(0.5 * math.exp(-0.6), rel=1e-12)


def test_extract_cubic_rejects_c1():
    f = ode_entry("C1", lam=0.0).f
    out = extract_cubic(f, (0.0, 0.0))
    assert isinstance(out, NotCubic)
    assert out.residual > 1e-9
    # the witness node is a check node, and the residual is the misfit there
    nodes = (0.0, 1.0, -1.0, 2.0)
    cubic = np.polyfit(nodes, [f(0.0, 0.0, z) for z in nodes], 3)
    assert out.node in (-2.0, 3.0)
    assert out.residual == pytest.approx(abs(f(0.0, 0.0, out.node) - np.polyval(cubic, out.node)), rel=1e-12)


def test_flatness_residuals_zero_equation():
    cf = extract_cubic(ScalarField(3, lambda x, y, z: 0.0), (0.0, 0.0))
    assert flatness_residuals(cf, (0.0, 0.0)) == (0.0, 0.0)


def test_flatness_residuals_j3_family():
    cf = extract_cubic(ode_entry("J3").f, (0.1, 0.2))
    r1, r2 = flatness_residuals(cf, (0.1, 0.2))
    assert abs(r1) <= 1e-12 and abs(r2) <= 1e-12


def test_flatness_residuals_c_plus_coefficients():
    # coefficients (0, 1/2, 0, e^{-2x}/2): obstruction pair (0, -3/2) at x = 0
    cf = extract_cubic(ode_entry("J2", C=0.5).f, (0.0, 0.15))
    r1, r2 = flatness_residuals(cf, (0.0, 0.15))
    assert abs(r1) <= 1e-10
    assert r2 == pytest.approx(-1.5, abs=1e-10)


def test_projective_flatness_dichotomy():
    assert is_projectively_flat(ScalarField(3, lambda x, y, z: 0.0), BOX).flat
    assert is_projectively_flat(ode_entry("J3").f, BOX).flat
    for k in (0, 1, 2, 3):
        f = ScalarField(3, lambda x, y, z, k=k: 0.7 * z**k)
        assert is_projectively_flat(f, BOX).flat
    for key, kwargs in [
        ("D1", {}),
        ("D2", {"lam": -1.0}),
        ("J1", {}),
        ("J2", {}),
        ("C1", {"lam": -1.0}),
        ("C1", {"lam": 2.0}),
        ("C2+", {}),
        ("C2-", {}),
    ]:
        verdict = is_projectively_flat(ode_entry(key, **kwargs).f, BOX)
        assert not verdict.flat, key
        assert verdict.witness is not None


def _nan_beyond(cut, x, nan):
    """0.0 where x <= cut, ``nan`` beyond."""
    return 0.0 if jet_value(x) <= cut else nan


def test_flatness_never_passes_on_nan():
    first = next(iter(BOX.grid(4, 4, 0.9)))
    # NaN where x > 0.1: the first such grid point is the witness, not a pass
    verdict = is_projectively_flat(ScalarField(3, lambda x, y, z: _nan_beyond(0.1, x, math.nan)), BOX)
    assert not verdict.flat and verdict.witness == pytest.approx((0.27, -0.27)) and math.isnan(verdict.worst)
    nowhere = is_projectively_flat(ScalarField(3, lambda x, y, z: math.nan), BOX)
    assert not nowhere.flat and nowhere.witness == first and math.isnan(nowhere.worst)
    out = extract_cubic(ScalarField(3, lambda x, y, z: math.nan), first)
    assert isinstance(out, NotCubic) and math.isnan(out.residual) and out.node == -2.0
    # a cubic (zero) on floats whose lifted coefficients are NaN beyond x = 0.1:
    # the fit passes and the obstructions are NaN
    f = ScalarField(3, lambda x, y, z: _nan_beyond(0.1, x, math.nan * x if isinstance(x, Jet2) else 0.0))
    verdict = is_projectively_flat(f, BOX)
    assert not verdict.flat and verdict.witness == pytest.approx((0.27, -0.27)) and math.isnan(verdict.worst)


def _on_a_field_nan_beyond(verdict, cut):
    """(ok, x of the witness) of ``verdict`` on a field that is NaN where x > cut."""
    if verdict == "is_projectively_flat":
        v = is_projectively_flat(ScalarField(3, lambda x, y, z: _nan_beyond(cut, x, math.nan)), BOX)
        return v.flat, v.witness[0] if v.witness else None
    if verdict == "is_strongly_convex":
        metric = FinslerMetric(lambda x, y, u, v: sqrt(u * u + v * v) + _nan_beyond(cut, x, math.nan), BOX)
        report = is_strongly_convex(metric, BOX)
        return report.ok, report.witness[0]
    if verdict == "structure_constants":
        third = PlaneVectorField(lambda x, y: (0.0, y + _nan_beyond(cut, x, math.nan)))
        structure_constants([PlaneVectorField(lambda x, y: (x, y)), PlaneVectorField(lambda x, y: (1.0, 0.0)), third])
        return True, None
    def beta(x, y):
        return 0.1 + _nan_beyond(cut, x, math.nan), 0.0

    randers_metric(constant_curvature_metric("euclidean"), beta, BOX)
    return True, None


@pytest.mark.parametrize(
    "verdict", ["is_projectively_flat", "is_strongly_convex", "structure_constants", "randers_metric"]
)
@given(cut=st.floats(-0.2, 0.25, exclude_min=True, exclude_max=True))
@settings(max_examples=15, derandomize=True, deadline=None)
def test_no_verdict_passes_on_a_field_that_turns_nan_part_of_the_way(verdict, cut):
    # cut > -0.2 keeps the grids' first point (x = -0.27 or -0.3) finite, and cut < 0.25 leaves
    # a point of every grid, and of structure_constants' sample pool, beyond it
    try:
        ok, x = _on_a_field_nan_beyond(verdict, cut)
    except EvaluationError as err:
        ok, x = False, float(re.search(r" at \(([^,]+),", str(err)).group(1))
    assert not ok and x > cut


def test_liouville_candidate_euclidean():
    a = liouville_candidate(constant_curvature_metric("euclidean"))
    assert np.allclose(a.matrix(0.3, -0.2), np.eye(2), atol=1e-14)


def test_liouville_candidate_c_minus():
    g = metric_entry("c-").alpha
    a = liouville_candidate(g)
    for x in (-0.3, 0.0, 0.4):
        m = a.matrix(x, 0.1)
        assert m[0, 0] == pytest.approx(math.exp(x / 3.0), rel=1e-12)
        assert m[1, 1] == pytest.approx(math.exp(-5.0 * x / 3.0), rel=1e-12)
        assert m[0, 1] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize(
    "entries",
    # det = 3 * (1/3) - (1 + 2^-52)^2 rounds to -2^-51, not to 0
    [(3.0, 1.0 + 2.0**-52, 1.0 / 3.0), (1.0, 1.0, 1.0)],
    ids=["numerically_singular", "singular"],
)
def test_liouville_candidate_of_a_singular_metric_names_the_point(entries):
    g = MetricField(lambda x, y: entries, Rectangle(-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(EvaluationError, match=r"singular metric field at \(0\.1, 0\.2\)"):
        liouville_candidate(g).entries(0.1, 0.2)


def _k_c_minus():
    return ProjectiveConnectionCoeffs(lambda x, y: (0.0, 0.5, 0.0, -0.5 * exp(-2.0 * x)))


def test_liouville_residuals_euclidean():
    a = liouville_candidate(constant_curvature_metric("euclidean"))
    K = ProjectiveConnectionCoeffs(lambda x, y: (0.0, 0.0, 0.0, 0.0))
    assert np.allclose(liouville_residuals(a, K, (0.2, -0.1)), 0.0, atol=1e-14)


def test_liouville_residuals_c_minus():
    a = liouville_candidate(metric_entry("c-").alpha)
    K = _k_c_minus()
    for x in (-0.3, 0.0, 0.25):
        r = liouville_residuals(a, K, (x, 0.1))
        assert np.all(np.abs(r) <= 1e-11), r


def test_liouville_residual_detects_flipped_sign():
    a = liouville_candidate(metric_entry("c-").alpha)
    K_bad = ProjectiveConnectionCoeffs(
        lambda x, y: (0.0, 0.5, 0.0, 0.5 * exp(-2.0 * x))  # flipped K3
    )
    r = liouville_residuals(a, K_bad, (0.0, 0.0))
    assert abs(r[2]) == pytest.approx(2.0, rel=1e-12)


def test_metric_a_induced_equation_not_cubic():
    entry = metric_entry("a")
    fplus = induced_ode_direct(entry.metric).fplus
    out = extract_cubic(fplus, (0.05, -0.04))
    assert isinstance(out, NotCubic)


@pytest.mark.parametrize("key", ["c-", "c+"])
def test_metrizability_of_c_family(key):
    entry = metric_entry(key)
    fplus = induced_ode_direct(entry.metric).fplus
    cf = extract_cubic(fplus, (0.0, 0.0))
    assert isinstance(cf, CubicForm)
    K = ProjectiveConnectionCoeffs.from_cubic(cf)
    a = liouville_candidate(entry.alpha)
    for (x, y) in entry.domain.grid(3, 3):
        r = liouville_residuals(a, K, (x, y))
        assert np.all(np.abs(r) <= 1e-9), (key, x, y, r)


def test_liouville_residuals_evaluate_f_four_times():
    entry = metric_entry("c+")
    fplus = induced_ode_direct(entry.metric).fplus
    calls = []

    def counted(x, y, z):
        calls.append(z)
        return fplus(x, y, z)

    cf = extract_cubic(ScalarField(3, counted), (0.0, 0.0))
    K = ProjectiveConnectionCoeffs.from_cubic(cf)
    a = liouville_candidate(entry.alpha)
    calls.clear()
    liouville_residuals(a, K, (0.1, 0.1))
    assert len(calls) == 4
