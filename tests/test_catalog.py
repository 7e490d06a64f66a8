import math

import numpy as np
import pytest

from projspray.catalog import (
    LIE_CASE_KEYS,
    METRIC_KEYS,
    ODE_KEYS,
    SPRAY_KEYS,
    lie_case,
    metric_entry,
    ode_entry,
    spray_entry,
    symmetry_pairs,
)
from projspray.classify import extract_cubic, flatness_residuals, is_projectively_flat
from projspray.finsler import (
    Rectangle,
    geodesic_spray,
    induced_ode_direct,
    induced_odes,
    is_strongly_convex,
    projective_residual,
)
from projspray.jets import power
from projspray.randers import area_form, beta_for, constant_curvature_metric
from projspray.symmetry import (
    jacobi_residual,
    point_symmetry_residual,
    projective_field_residual,
    structure_constants,
)
from projspray.trace import curve_samples, integrate_spray


def fiber_circle(n=8):
    return [(math.cos(0.1 + 2 * math.pi * i / n), math.sin(0.1 + 2 * math.pi * i / n)) for i in range(n)]


# --- hand-coded copies of the normal forms guard against transcription drift


def lemma_formula(key, C, lam, s):
    if key == "D1":
        return lambda x, y, z: C * power(y * y - 2 * z, 1.5) - y**3 + 3 * y * z
    if key == "D2":
        k = (lam - 2.0) / (lam - 1.0)
        return lambda x, y, z: C * power(z, k)
    if key == "J1":
        return lambda x, y, z: C * z**3 * math.exp(-1.0 / z) if z > 0 else 0.0
    if key == "J2":
        return lambda x, y, z: 0.5 * z + C * math.exp(-2.0 * x) * z**3
    if key == "C1":
        return lambda x, y, z: C * (z * z + 1) ** 1.5 * math.exp(-lam * math.atan(z))
    if key in ("C2+", "C2-"):
        return lambda x, y, z: (
            C * (z * z + 1) ** 1.5 + s * 2 * (x * z - y) * (z * z + 1)
        ) / (1 + s * (x * x + y * y))
    raise KeyError(key)


@pytest.mark.parametrize("key,kwargs", [
    ("D1", {}),
    ("D2", {"lam": -1.0}),
    ("D2", {"lam": 2.0}),
    ("J1", {}),
    ("J2", {}),
    ("C1", {"lam": -1.0}),
    ("C1", {"lam": 2.0}),
    ("C2+", {}),
    ("C2-", {}),
])
def test_catalog_fidelity(key, kwargs):
    entry = ode_entry(key, **kwargs)
    ref = lemma_formula(key, 1.0, kwargs.get("lam", -1.0), -1.0 if key == "C2-" else 1.0)
    rng = np.random.default_rng(11)
    n = 0
    while n < 20:
        x, y = rng.uniform(-0.3, 0.3, size=2)
        z = rng.uniform(-2, 2)
        if entry.point_filter is not None and not entry.point_filter(x, y, z):
            continue
        n += 1
        a, b = float(entry.f(x, y, z)), ref(x, y, z)
        assert abs(a - b) <= 1e-12 * (abs(b) + 1.0), (key, x, y, z)


# --- sprays induce their normal forms ------------------------------------


def test_spray_a_constants():
    p = induced_odes(spray_entry("a").spray)
    for z in (-1.0, 0.0, 0.7):
        assert p.fplus(0.2, 0.1, z) == pytest.approx((1 + z * z) ** 1.5, rel=1e-13)
        assert p.fminus(0.2, 0.1, z) == pytest.approx(-((1 + z * z) ** 1.5), rel=1e-13)


@pytest.mark.parametrize("key,s", [("bk+", 1.0), ("bk-", -1.0)])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_spray_b_induces_c2_equation(key, s, k):
    p = induced_odes(spray_entry(key, k=k).spray)
    plus = ode_entry("C2+" if s > 0 else "C2-", C=k).f
    minus = ode_entry("C2+" if s > 0 else "C2-", C=-k).f
    for (x, y) in [(0.2, -0.1), (-0.3, 0.25)]:
        for z in (-1.5, 0.0, 0.8):
            assert p.fplus(x, y, z) == pytest.approx(float(plus(x, y, z)), rel=1e-12, abs=1e-13)
            assert p.fminus(x, y, z) == pytest.approx(float(minus(x, y, z)), rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("key,sign", [("c+", 1.0), ("c-", -1.0)])
def test_spray_c_induces_j2_equation(key, sign):
    p = induced_odes(spray_entry(key).spray)
    ref = ode_entry("J2", C=sign * 0.5).f
    for (x, z) in [(0.0, 2.0), (0.3, -1.0)]:
        assert p.fplus(x, 0.1, z) == pytest.approx(float(ref(x, 0.1, z)), rel=1e-13)
        assert p.fminus(x, 0.1, z) == pytest.approx(float(ref(x, 0.1, z)), rel=1e-13)


# --- all seven algebras reproduce their tables ----------------------------


@pytest.mark.parametrize("key", LIE_CASE_KEYS)
def test_bracket_tables(key):
    kwargs = {}
    if key == "D2":
        kwargs["lam"] = 2.0
    if key == "C1":
        kwargs["lam"] = -1.0
    case = lie_case(key, **kwargs)
    assert case.isotropy_ok()
    assert case.transitive_ok()
    sc = structure_constants(case)
    assert sc.residual <= 1e-9
    for pair, want in case.expected.items():
        got = sc.constants[pair]
        assert np.allclose(got, want, atol=1e-9), (key, pair, got, want)
    assert jacobi_residual(sc) <= 1e-9


def test_j3_second_parameter_set():
    case = lie_case("J3", gamma=(0.0, 1.0))
    sc = structure_constants(case)
    for pair, want in case.expected.items():
        assert np.allclose(sc.constants[pair], want, atol=1e-9)


# --- the six algebra/equation pairs --------------------------------------


def test_symmetry_pairs_residuals():
    for label, case, entry in symmetry_pairs():
        worst = 0.0
        for X in case.basis:
            for pt in entry.grid():
                worst = max(worst, point_symmetry_residual(X, entry.f, pt))
        assert worst <= 1e-9, (label, worst)


def test_symmetry_pairs_break_under_structural_perturbation():
    for label, case, entry in symmetry_pairs():
        f_pert, filt = entry.perturbed(0.01)
        worst = 0.0
        for X in case.basis:
            for (x, y, z) in entry.grid():
                if filt is not None and not filt(x, y, z):
                    continue
                worst = max(worst, point_symmetry_residual(X, f_pert, (x, y, z)))
        assert worst > 1e-4, (label, worst)


def _perturbable_entries():
    """Each perturbable ODE_KEYS family at its defaults, then every symmetry_pairs() entry."""
    out = [(f"{key} default", ode_entry(key)) for key in ODE_KEYS if key not in ("flat", "J3")]
    return out + [(label, entry) for label, _, entry in symmetry_pairs()]


@pytest.mark.parametrize("label,entry", [pytest.param(*le, id=le[0]) for le in _perturbable_entries()])
def test_perturbation_at_zero_is_the_catalog_form(label, entry):
    # perturbed(eps) evaluates the form at p = bump(eps); bump(0.0) must be the default p
    f0, filt = entry.perturbed(0.0)
    pts = entry.grid()
    assert pts and all(f0(*pt) == entry.f(*pt) for pt in pts), label
    if label == "D2(lam=2)":  # its own filter is None, but the perturbed exponent is fractional
        assert entry.point_filter is None
        assert [pt for pt in pts if filt(*pt)] == [pt for pt in pts if pt[2] > 0.0]
    else:
        assert filt is entry.point_filter, label


def test_j3_partial_symmetries():
    # the cubic family is preserved by the first two J3 fields for any h(y)
    entry = ode_entry("J3")
    case = lie_case("J3")
    for X in case.basis[:2]:
        for pt in entry.grid():
            assert point_symmetry_residual(X, entry.f, pt) <= 1e-12


# --- metrics: convexity, equivalence with sprays, projective fields -------


def _metric_cases():
    out = []
    for key in METRIC_KEYS:
        if key in ("bk+", "bk-"):
            out.extend((key, k) for k in (0.5, 1.0, 2.0))
        else:
            out.append((key, 1.0))
    return out


@pytest.mark.parametrize("key,k", _metric_cases())
def test_metric_convexity(key, k):
    entry = metric_entry(key, k=k)
    rep = is_strongly_convex(entry.metric, entry.domain, ndirs=8)
    assert rep.ok, (key, rep.min_eigenvalue, rep.witness)


@pytest.mark.parametrize("key,k", _metric_cases())
def test_metric_spray_projectively_matches_catalog(key, k):
    entry = metric_entry(key, k=k)
    gs = geodesic_spray(entry.metric)
    cat = spray_entry(entry.spray_key, k=k).spray
    worst = 0.0
    for (x, y) in entry.domain.grid(3, 3):
        for (u, v) in fiber_circle(4):
            worst = max(worst, projective_residual(gs, cat, (x, y, u, v)))
    assert worst <= 1e-9, (key, worst)


@pytest.mark.parametrize("key,k", [("a", 1.0), ("bk+", 1.0), ("c-", 1.0)])
def test_metric_pipelines_cross_validate(key, k):
    entry = metric_entry(key, k=k)
    direct = induced_ode_direct(entry.metric)
    via = induced_odes(geodesic_spray(entry.metric))
    for (x, y) in entry.domain.grid(3, 3):
        for z in (-2.0, 0.0, 1.0):
            assert abs(direct.fplus(x, y, z) - via.fplus(x, y, z)) <= 1e-9
            assert abs(direct.fminus(x, y, z) - via.fminus(x, y, z)) <= 1e-9


@pytest.mark.parametrize("key", ["c+", "c-"])
def test_direct_pipeline_lifts_through_an_outer_register(key):
    # flatness_residuals lifts the cubic fit in (x, y), so f+ receives jets
    # of that register and seeds its own (x, y, v) register inside it
    m = metric_entry(key).metric
    direct, via = induced_ode_direct(m).fplus, induced_odes(geodesic_spray(m)).fplus
    for at in ((0.0, 0.0), (0.1, -0.2)):
        got = flatness_residuals(extract_cubic(direct, at), at)
        want = flatness_residuals(extract_cubic(via, at), at)
        assert np.abs(np.subtract(got, want)).max() <= 1e-13, (key, at, got, want)
        assert abs(want[1]) > 1.0  # r2 is -+1.5 at the origin: not a comparison of zeros


@pytest.mark.parametrize("key,k", [("a", 1.0), ("bk-", 2.0), ("c+", 1.0), ("c-", 1.0)])
def test_projective_fields_of_metrics(key, k):
    entry = metric_entry(key, k=k)
    gs = geodesic_spray(entry.metric)
    worst = 0.0
    for X in entry.projective_basis:
        for (x, y) in entry.domain.grid(2, 2):
            for (u, v) in fiber_circle(4):
                worst = max(worst, projective_field_residual(X, gs, (x, y, u, v)))
    assert worst <= 1e-8, (key, worst)


def test_wrong_beta_sign_breaks_equivalence():
    from projspray.finsler import Rectangle
    from projspray.randers import beta_for, constant_curvature_metric, randers_metric

    alpha = constant_curvature_metric("sphere")
    b = beta_for("sphere", 1.0)

    def beta(x, y):
        b1, b2 = b(x, y)
        return -b1, -b2

    m = randers_metric(alpha, beta, domain=Rectangle(-0.45, 0.45, -0.45, 0.45))
    gs = geodesic_spray(m)
    cat = spray_entry("bk+", k=1.0).spray
    worst = max(
        projective_residual(gs, cat, (x, y, u, v))
        for (x, y) in [(0.2, -0.1), (-0.3, 0.3)]
        for (u, v) in fiber_circle(4)
    )
    assert worst > 1e-2


def test_catalog_key_listings():
    assert len(ODE_KEYS) == 9
    assert len(SPRAY_KEYS) == 6
    assert len(METRIC_KEYS) == 6
    assert len(LIE_CASE_KEYS) == 8


@pytest.mark.parametrize(
    "build,error,match",
    [
        (lambda: ode_entry("flat").perturbed(), ValueError, "no structural perturbation defined for flat"),
        (lambda: ode_entry("J3").perturbed(), ValueError, "no structural perturbation defined for J3"),
        (lambda: ode_entry("D2", lam=1.0), ValueError, "undefined for lam = 1"),
        (lambda: spray_entry("bk+", k=0.0), ValueError, r"needs k > 0 \(got 0\.0\)"),
        (lambda: area_form(constant_curvature_metric("sphere"), 0.0), ValueError, "k must be positive"),
        (lambda: ode_entry("D3"), KeyError, "unknown equation family 'D3'"),
        (lambda: spray_entry("b"), KeyError, "unknown spray 'b'"),
        (lambda: metric_entry("sphere"), KeyError, "unknown metric 'sphere'"),
        (lambda: lie_case("C3"), KeyError, "unknown symmetry algebra 'C3'"),
        (lambda: constant_curvature_metric("torus"), ValueError, "unknown model 'torus'"),
        (lambda: beta_for("torus", 1.0), ValueError, "unknown model 'torus'"),
        (lambda: ode_entry("J3", C=4.0), ValueError, "family J3 takes no parameter C"),
        (lambda: ode_entry("flat", C=2.0), ValueError, "family flat takes no parameter C"),
        (lambda: ode_entry("J1", lam=5.0), ValueError, "family J1 takes no parameter lam"),
        (lambda: lie_case("J1", lam=5.0), ValueError, "family J1 takes no parameter lam"),
        (lambda: lie_case("D1", gamma=(0.0, 1.0)), ValueError, "family D1 takes no parameter gamma"),
        (lambda: spray_entry("a", k=7.0), ValueError, "family a takes no parameter k"),
        (lambda: metric_entry("c+", k=3.0), ValueError, r"family c\+ takes no parameter k"),
    ],
    ids=[
        "perturbed-flat", "perturbed-J3", "D2-lam-1", "bk+-k-0", "area-form-k-0", "ode-key",
        "spray-key", "metric-key", "lie-case-key", "curvature-model", "beta-model",
        "J3-C", "flat-C", "ode-J1-lam", "lie-J1-lam", "lie-D1-gamma", "spray-a-k", "metric-c+-k",
    ],
)
def test_catalog_refuses_undefined_entries(build, error, match):
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize(
    "build,match",
    [
        (lambda: spray_entry("bk+", k=math.nan), "parameter k of family bk"),
        (lambda: spray_entry("bk-", k=math.inf), "parameter k of family bk"),
        (lambda: metric_entry("bk+", k=math.nan), "parameter k of family bk"),
        (lambda: metric_entry("bk-", k=-1.0), "curvature scale k must be positive"),
        (lambda: ode_entry("D2", lam=math.nan), "parameter lam of family D2"),
        (lambda: ode_entry("C1", lam=-math.inf), "parameter lam of family C1"),
        (lambda: ode_entry("J2", C=math.nan), "parameter C of family J2"),
        (lambda: ode_entry("D1", C=math.inf), "parameter C of family D1"),
        (lambda: lie_case("D2", lam=math.nan), "parameter lam of family D2"),
        (lambda: lie_case("J3", gamma=(1.0, math.nan)), "parameter gamma of family J3"),
        (lambda: beta_for("sphere", math.nan), "curvature scale k must be positive and finite"),
        (lambda: beta_for("euclidean", math.inf), "curvature scale k must be positive and finite"),
        (lambda: area_form(constant_curvature_metric("sphere"), math.nan), "curvature scale k must be positive and"),
        (lambda: ode_entry("J2").perturbed(math.nan), "perturbation eps of family J2 must be finite"),
        (lambda: ode_entry("D2", lam=3.0).perturbed(math.inf), "perturbation eps of family D2 must be finite"),
        (lambda: ode_entry("C1").perturbed(-math.inf), "perturbation eps of family C1 must be finite"),
    ],
    ids=[
        "spray-k-nan", "spray-k-inf", "metric-k-nan", "metric-k-negative", "ode-D2-lam-nan", "ode-C1-lam-inf",
        "ode-J2-C-nan", "ode-D1-C-inf", "lie-D2-lam-nan", "lie-J3-gamma-nan", "beta-k-nan", "beta-k-inf",
        "area-form-k-nan", "perturbed-J2-eps-nan", "perturbed-D2-eps-inf", "perturbed-C1-eps-minus-inf",
    ],
)
def test_catalog_refuses_parameters_that_are_not_finite_or_not_positive(build, match):
    with pytest.raises(ValueError, match=match):
        build()


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: is_strongly_convex(metric_entry("a").metric, metric_entry("a").domain, nx=0),
        lambda: is_strongly_convex(metric_entry("a").metric, metric_entry("a").domain, ndirs=0),
        lambda: is_projectively_flat(ode_entry("J3").f, Rectangle(-0.3, 0.3, -0.3, 0.3), nx=0),
        lambda: ode_entry("J3").grid(0),
        lambda: curve_samples(integrate_spray(spray_entry("a").spray, (0.0, 0.0, 1.0, 0.0), 0.1, 1e-2), 0),
    ],
    ids=["convexity-grid", "convexity-directions", "flatness-grid", "ode-grid", "curve-samples"],
)
def test_empty_sweeps_are_refused(sweep):
    with pytest.raises(ValueError, match="at least one"):
        sweep()


def test_flat_equation_is_zero_on_its_grid():
    entry = ode_entry("flat")
    pts = entry.grid()
    assert len(pts) == 9 * len(entry.z_values)
    assert all(entry.f(*p) == 0.0 for p in pts)
