import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projspray.catalog import LIE_CASE_KEYS, lie_case, symmetry_pairs
from projspray.finsler import Rectangle, Spray
from projspray.jets import EvaluationError, ScalarField, arctan, exp, jet_value, lift, sqrt
from projspray.symmetry import (
    DegenerateBasisError,
    NotClosedError,
    PlaneVectorField,
    _bracket,
    jacobi_residual,
    point_symmetry_residual,
    projective_field_residual,
    structure_constants,
)


def VF(a, b, name=""):
    return PlaneVectorField(lambda x, y: (a(x, y), b(x, y)), name)


D_Y = VF(lambda x, y: 0.0, lambda x, y: 1.0, "dy")
D_X = VF(lambda x, y: 1.0, lambda x, y: 0.0, "dx")
X_DY = VF(lambda x, y: 0.0, lambda x, y: x, "x*dy")
ROTATION = VF(lambda x, y: y, lambda x, y: -x, "rot")


def bracket_at(X, Y, x, y):
    """[X, Y] = (a, b) at (x, y), from ``_bracket`` on order-1 lifts of X and Y there."""
    return _bracket(lift(X.at, (x, y), order=1), lift(Y.at, (x, y), order=1))


# --- prolongation ---------------------------------------------------------


def test_prolong_constant_field():
    assert prolong(D_Y)(0.3, -0.2, 1.7)[2] == 0.0


def test_prolong_x_dy():
    assert prolong(X_DY)(0.5, 0.1, -0.4)[2] == pytest.approx(1.0)


def test_prolong_scaling_field():
    X = VF(lambda x, y: -x, lambda x, y: y)
    for z in (-1.0, 0.3, 2.0):
        assert prolong(X)(0.2, 0.4, z)[2] == pytest.approx(2.0 * z)


def test_prolongation_formula_pointwise():
    # c = b_x + z b_y - z (a_x + z a_y) against jet derivatives of a, b
    X = VF(lambda x, y: x * y + 0.3 * y * y, lambda x, y: x * x - y)
    for (x, y, z) in [(0.2, -0.4, 1.3), (-0.5, 0.1, -0.7)]:
        ja, jb = lift(X.at, (x, y))
        want = jb.grad[0] + z * jb.grad[1] - z * (ja.grad[0] + z * ja.grad[1])
        assert prolong(X)(x, y, z)[2] == pytest.approx(want, rel=1e-13)


# --- brackets -------------------------------------------------------------


def test_bracket_dx_with_x_dy():
    assert bracket_at(D_X, X_DY, 0.7, -0.3) == (pytest.approx(0.0), pytest.approx(1.0))


def test_bracket_c1_case():
    X0 = VF(lambda x, y: y, lambda x, y: -x)
    X2 = VF(lambda x, y: 0.0, lambda x, y: -1.0)
    a, b = bracket_at(X0, X2, 0.4, 0.9)
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(0.0)


def test_bracket_d2_case():
    lam = 2.0
    X0 = VF(lambda x, y: -x, lambda x, y: -lam * y)
    X1 = VF(lambda x, y: 1.0, lambda x, y: 0.0)
    a, b = bracket_at(X0, X1, 0.3, -0.8)
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(0.0)


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_bracket_antisymmetry(x, y):
    X = VF(lambda a, b: a * b + 0.2, lambda a, b: a - b * b)
    Y = VF(lambda a, b: exp(0.3 * a), lambda a, b: arctan(b) + a)
    a1, b1 = bracket_at(X, Y, x, y)
    a2, b2 = bracket_at(Y, X, x, y)
    assert a1 + a2 == pytest.approx(0.0, abs=1e-12)
    assert b1 + b2 == pytest.approx(0.0, abs=1e-12)


def test_nested_bracket_evaluates():
    # the inner field [rot, x dy] lifts its operands in a register nested inside the outer lift
    inner = PlaneVectorField(lambda x, y: bracket_at(ROTATION, X_DY, x, y), "[rot,x*dy]")
    a, b = bracket_at(D_X, inner, 0.2, 0.5)
    # [rot, x dy] = -x dx + ... compute directly: rot(x)=y... oracle via finite structure:
    # [rot, x dy]^1 = rot(0) - x*dy-part... checked numerically against hand result (-x, y):
    # rot = y dx - x dy; X = x dy.  [rot, X]^1 = rot(0) - X(y) = -x; ^2 = rot(x) - X(-x) = y + x*...
    # Just require closure under a second bracket and antisymmetry:
    a2, b2 = bracket_at(inner, D_X, 0.2, 0.5)
    assert a == pytest.approx(-a2, abs=1e-12)
    assert b == pytest.approx(-b2, abs=1e-12)


# --- structure constants and Jacobi ---------------------------------------


def test_structure_constants_d2():
    lam = 2.0
    basis = [
        VF(lambda x, y: -x, lambda x, y: -lam * y),
        VF(lambda x, y: 1.0, lambda x, y: 0.0),
        VF(lambda x, y: 0.0, lambda x, y: 1.0),
    ]
    sc = structure_constants(basis)
    t = sc.constants
    assert np.allclose(t[(0, 1)], [0, 1, 0], atol=1e-9)
    assert np.allclose(t[(0, 2)], [0, 0, lam], atol=1e-9)
    assert np.allclose(t[(1, 2)], [0, 0, 0], atol=1e-9)
    assert sc.residual <= 1e-9


def test_structure_constants_c2_sphere():
    # isotropy rotation, then the two Killing boosts; bracket closes on -X0
    basis = [
        VF(lambda x, y: y, lambda x, y: -x),
        VF(lambda x, y: x * y, lambda x, y: 0.5 * (-x * x + y * y + 1.0)),
        VF(lambda x, y: 0.5 * (x * x - y * y + 1.0), lambda x, y: x * y),
    ]
    sc = structure_constants(basis)
    t = sc.constants
    assert np.allclose(t[(0, 1)], [0, 0, -1], atol=1e-9)
    assert np.allclose(t[(0, 2)], [0, 1, 0], atol=1e-9)
    assert np.allclose(t[(1, 2)], [-1, 0, 0], atol=1e-9)
    assert jacobi_residual(sc) <= 1e-9


def test_structure_constants_not_closed():
    basis = [
        VF(lambda x, y: 0.0, lambda x, y: x * x),
        VF(lambda x, y: 1.0, lambda x, y: 0.0),
        VF(lambda x, y: 0.0, lambda x, y: 1.0),
    ]
    with pytest.raises(NotClosedError):
        structure_constants(basis)


def test_structure_constants_refuses_a_nan_residual():
    # at x > 0.2 the third field's second component has value pi/2 and a NaN x-derivative,
    # so two brackets are NaN there, and would make the residual NaN: the first such
    # sample point is named before the solve
    def steep(x, y):
        return arctan(x * math.inf) if jet_value(x) > 0.2 else 0.0

    basis = [VF(lambda x, y: x, lambda x, y: y), D_X, VF(lambda x, y: 0.0, steep)]
    with pytest.raises(EvaluationError, match=r"bracket is not finite at \(0\.301, -0\.157\)"):
        structure_constants(basis)


def test_structure_constants_name_the_first_point_of_a_nan_field_and_print_nothing(capfd):
    # a NaN entry of A must not reach the least-squares solve: LAPACK prints to stderr, numpy raises LinAlgError
    def third(x, y):
        return 0.0, y * math.nan if jet_value(x) > 0.2 else y

    basis = [VF(lambda x, y: x, lambda x, y: y), D_X, PlaneVectorField(third)]
    with pytest.raises(EvaluationError, match=r"not finite at \(0\.301, -0\.157\)"):
        structure_constants(basis)
    assert capfd.readouterr() == ("", "")


def test_structure_constants_degenerate_basis():
    X0, X1, _ = lie_case("D1").basis
    with pytest.raises(DegenerateBasisError):
        structure_constants((X0, X0, X1))


@pytest.mark.parametrize("key", ["C2+", "C2-", "J3"])
def test_structure_constants_transform_as_a_tensor_under_change_of_basis(key):
    # Y_a = P[a, i] X_i gives [Y_a, Y_b] = P[a, i] P[b, j] C[i, j, l] X_l = C'[a, b, d] P[d, l] X_l
    P = np.array([[1.0, 0.5, -0.25], [0.0, 2.0, 0.75], [-1.0, 0.25, 1.5]])
    basis = lie_case(key).basis

    def combined(row):
        return PlaneVectorField(
            lambda x, y: tuple(sum(p * X.at(x, y)[c] for p, X in zip(row, basis)) for c in (0, 1))
        )

    C = structure_constants(basis).constants
    want = np.einsum("ai,bj,ijl,ld->abd", P, P, C, np.linalg.inv(P))
    got = structure_constants([combined(row) for row in P])
    assert np.allclose(got.constants, want, rtol=0.0, atol=1e-12)
    assert got.residual <= 1e-12


def test_jacobi_zero_for_abelian():
    assert jacobi_residual(np.zeros((3, 3, 3))) == 0.0


def test_jacobi_detects_bad_constants():
    # D2-type table with lambda = 2 and a spurious X0 component in [X1, X2]
    C = np.zeros((3, 3, 3))
    C[0, 1] = [0, 1, 0]
    C[1, 0] = [0, -1, 0]
    C[0, 2] = [0, 0, 2.0]
    C[2, 0] = [0, 0, -2.0]
    C[1, 2] = [0.1, 0, 0]
    C[2, 1] = [-0.1, 0, 0]
    assert jacobi_residual(C) == pytest.approx(0.3)


# --- point symmetries ------------------------------------------------------


def test_point_symmetry_trivial_translation():
    f = ScalarField(3, lambda x, y, z: x * z + z**3)
    assert point_symmetry_residual(D_Y, f, (0.2, 0.5, 1.0)) == pytest.approx(0.0, abs=1e-14)


def prolong(X: PlaneVectorField):
    """The prolonged field (x, y, z) -> (a, b, c) of X, with
    c = b_x + z b_y - z (a_x + z a_y) from an order-1 lift of ``X.at``."""

    def at(x, y, z):
        ja, jb = lift(X.at, (x, y), order=1)
        return ja.value, jb.value, jb.grad[0] + z * jb.grad[1] - z * (ja.grad[0] + z * ja.grad[1])

    return at


def _prolonged_residual(X, f, at):
    """The point-symmetry residual from an order-1 lift of the prolonged
    field, whose coefficient c lifts X once more."""
    x, y, z = at
    jf = lift(f, (x, y, z), order=1)
    fval, fx, fy, fz = jf.value, jf.grad[0], jf.grad[1], jf.grad[2]
    ja, jb, jc = lift(prolong(X), (x, y, z), order=1)
    a, ax, ay = ja.value, ja.grad[0], ja.grad[1]
    c, cx, cy, cz = jc.value, jc.grad[0], jc.grad[1], jc.grad[2]
    return abs(a * fx + jb.value * fy + c * fz - (cz - ax - z * ay) * fval - cx - z * cy)


def test_point_symmetry_residual_matches_the_prolonged_field_bit_for_bit():
    # The grids' z values make every product with z exact; seeded z pin the operation order.
    rng = np.random.default_rng(16)
    for label, case, entry in symmetry_pairs():
        f_pert, filt = entry.perturbed(0.01)
        pts = entry.grid() + [(x, y, float(rng.uniform(-2.0, 2.0))) for (x, y, _) in entry.grid()]
        pts = [pt for pt in pts if entry.point_filter is None or entry.point_filter(*pt)]
        for X in case.basis:
            for pt in pts:
                for f in (entry.f, f_pert) if filt is None or filt(*pt) else (entry.f,):
                    assert point_symmetry_residual(X, f, pt) == _prolonged_residual(X, f, pt), (label, pt)


def test_point_symmetry_residual_makes_2_lifts(monkeypatch):
    from projspray import symmetry

    calls = []
    lift = symmetry.lift

    def counted(*args, **kwargs):
        calls.append(args[1])
        return lift(*args, **kwargs)

    monkeypatch.setattr(symmetry, "lift", counted)
    f = ScalarField(3, lambda x, y, z: x * z + z**3)
    point_symmetry_residual(lie_case("C2+").basis[1], f, (0.1, 0.2, 0.5))
    assert len(calls) == 2


@pytest.mark.parametrize(
    "what, jets_created",
    [  # each id names the evaluation alone, so a new pinned count keeps the test's id
        pytest.param(what, count, id=what)
        for what, count in (
            ("fundamental_tensor", 12),
            ("geodesic_spray", 56),
            ("projective_field_residual", 394),
            ("projective_field_residual_of_a_translation", 86),
        )
    ],
)
def test_jet_construction_counts_at_one_bk_point(monkeypatch, what, jets_created):
    # Pins the Jet2 objects each evaluation builds, counted the way the
    # benchmark's tracer counts them, so a kernel that skipped Jet2.__init__
    # or a change that builds more jets shows here.  The translation C1.X1
    # on spray a moves x alone, so its still coordinates build no t-jets:
    # the product of the seed t by a zero rate is the float zero.
    from projspray import jets
    from projspray.catalog import metric_entry
    from projspray.finsler import fundamental_tensor, geodesic_spray

    entry = metric_entry("bk+", k=1.0)
    spray = geodesic_spray(entry.metric)
    entry_a = metric_entry("a")
    spray_a = geodesic_spray(entry_a.metric)
    at = (0.1, 0.2, 0.6, 0.8)
    run = {
        "fundamental_tensor": lambda: fundamental_tensor(entry.metric, at),
        "geodesic_spray": lambda: spray.pair(*at),
        "projective_field_residual": lambda: projective_field_residual(entry.projective_basis[0], spray, at),
        "projective_field_residual_of_a_translation": lambda: projective_field_residual(
            entry_a.projective_basis[1], spray_a, at
        ),
    }[what]
    created = []
    init = jets.Jet2.__init__

    def counted(jet, *args):
        created.append(None)
        init(jet, *args)

    monkeypatch.setattr(jets.Jet2, "__init__", counted)
    run()
    assert len(created) == jets_created


def _residual_moving_all_four(X, spray, at):
    """``projective_field_residual`` with every coordinate moved along t,
    still ones included: x + a t, y + b t, u + A3 t, v + B3 t."""
    from projspray.finsler import non_radial
    from projspray.jets import jet_value

    def fiber(x, y, u, v):
        ja, jb = lift(X.at, (x, y), order=2)
        a, (ax, ay) = ja.value, ja.grad
        b, (bx, by) = jb.value, jb.grad
        axx, axy, ayy = ja.hess_packed
        bxx, bxy, byy = jb.hess_packed
        A3 = ax * u + ay * v
        B3 = bx * u + by * v
        jg1, jg2 = lift(
            lambda t: spray.coefficients(x + a * t, y + b * t, u + A3 * t, v + B3 * t), (0.0,), order=1
        )
        G1, G2 = jet_value(jg1), jet_value(jg2)
        xhat_g1, xhat_g2 = jet_value(jg1.grad[0]), jet_value(jg2.grad[0])
        gamma_a3 = u * (axx * u + axy * v) + v * (axy * u + ayy * v) - 2.0 * G1 * ax - 2.0 * G2 * ay
        gamma_b3 = u * (bxx * u + bxy * v) + v * (bxy * u + byy * v) - 2.0 * G1 * bx - 2.0 * G2 * by
        return -2.0 * xhat_g1 - gamma_a3, -2.0 * xhat_g2 - gamma_b3

    return abs(non_radial(fiber, at, "projective field residual"))


def test_projective_field_residual_equals_the_residual_that_moves_all_four_coordinates():
    from projspray.catalog import METRIC_KEYS, metric_entry
    from projspray.finsler import geodesic_spray

    rng = np.random.default_rng(31)
    for key in METRIC_KEYS:
        entry = metric_entry(key)
        spray = geodesic_spray(entry.metric)
        dom = entry.domain.shrunk(0.5)
        points = [(0.0, 0.0, 0.6, -0.8)] + [
            (float(rng.uniform(dom.x0, dom.x1)), float(rng.uniform(dom.y0, dom.y1)), *rng.normal(size=2).tolist())
            for _ in range(4)
        ]
        for X in entry.projective_basis:
            for at in points:
                assert projective_field_residual(X, spray, at) == _residual_moving_all_four(X, spray, at), (X.name, at)


def test_point_symmetry_c2_sphere_ode():
    C = 1.0

    def f(x, y, z):
        return (C * (z * z + 1.0) ** 1.5 + 2.0 * (x * z - y) * (z * z + 1.0)) / (
            1.0 + x * x + y * y
        )

    fld = ScalarField(3, f)
    fields = [
        VF(lambda x, y: y, lambda x, y: -x),
        VF(lambda x, y: x * y, lambda x, y: 0.5 * (-x * x + y * y + 1.0)),
        VF(lambda x, y: 0.5 * (x * x - y * y + 1.0), lambda x, y: x * y),
    ]
    worst = 0.0
    for X in fields:
        for x in (-0.3, 0.0, 0.3):
            for y in (-0.3, 0.0, 0.3):
                for z in (-2.0, -1.0, 0.0, 1.0, 2.0):
                    worst = max(worst, point_symmetry_residual(X, fld, (x, y, z)))
    assert worst <= 1e-9


def test_point_symmetry_structural_perturbation_breaks():
    # scaling the non-constant part of the sphere equation leaves the family
    def f(x, y, z):
        return ((z * z + 1.0) ** 1.5 + 2.02 * (x * z - y) * (z * z + 1.0)) / (
            1.0 + x * x + y * y
        )

    fld = ScalarField(3, f)
    X1 = VF(lambda x, y: 0.5 * (x * x - y * y + 1.0), lambda x, y: x * y)
    worst = max(
        point_symmetry_residual(X1, fld, (x, y, z))
        for x in (-0.3, 0.0, 0.3)
        for y in (-0.3, 0.0, 0.3)
        for z in (-2.0, -1.0, 0.0, 1.0, 2.0)
    )
    assert worst > 1e-3


def test_scaling_family_constant_stays_symmetric():
    # the family constant C parametrizes the symmetric equations themselves:
    # rescaling it must NOT break the symmetry
    def f(x, y, z):
        return (1.01 * (z * z + 1.0) ** 1.5 + 2.0 * (x * z - y) * (z * z + 1.0)) / (
            1.0 + x * x + y * y
        )

    fld = ScalarField(3, f)
    X1 = VF(lambda x, y: 0.5 * (x * x - y * y + 1.0), lambda x, y: x * y)
    worst = max(
        point_symmetry_residual(X1, fld, (x, y, z))
        for x in (-0.3, 0.3)
        for y in (-0.3, 0.3)
        for z in (-2.0, 0.0, 2.0)
    )
    assert worst <= 1e-9


# --- projective fields ----------------------------------------------------


FLAT = Spray(lambda *a: (0.0, 0.0), Rectangle(-3, 3, -3, 3), "flat")


def spray_a():
    def pair(x, y, u, v):
        r = sqrt(u * u + v * v)
        return 0.5 * r * v, -0.5 * r * u

    return Spray(pair, Rectangle(-2, 2, -2, 2), "a")


def spray_b_plus(k):
    def pair(x, y, u, v):
        q = (k * sqrt(u * u + v * v) - 2.0 * (y * u - x * v)) / (1.0 + x * x + y * y)
        return 0.5 * q * v, -0.5 * q * u

    return Spray(pair, Rectangle(-2, 2, -2, 2), "bk+")


def test_projective_field_translation_on_flat():
    assert projective_field_residual(D_X, FLAT, (0.1, 0.2, 0.7, 0.3)) == pytest.approx(0.0, abs=1e-14)


def test_projective_field_rotation_on_spray_a():
    s = spray_a()
    for i in range(8):
        th = 0.3 + 2 * math.pi * i / 8
        at = (0.1, 0.2, math.cos(th), math.sin(th))
        assert projective_field_residual(ROTATION, s, at) <= 1e-9


def test_projective_field_translation_fails_on_sphere_spray():
    s = spray_b_plus(1.0)
    worst = max(
        projective_field_residual(D_X, s, (x, y, math.cos(t), math.sin(t)))
        for (x, y) in [(0.2, 0.3), (-0.4, 0.1)]
        for t in (0.4, 1.7, 3.0)
    )
    assert worst > 1e-3


# --- single evaluations ----------------------------------------------------


def test_structure_constants_refuses_more_points_than_the_pool():
    with pytest.raises(ValueError, match="sample pool of 8 points") as err:
        structure_constants(lie_case("D1"), npoints=9)
    assert not isinstance(err.value, DegenerateBasisError)


@pytest.mark.parametrize("npoints", [-1, 0, 1])
def test_structure_constants_refuses_fewer_than_two_points(npoints):
    with pytest.raises(ValueError, match="sample pool of 8 points") as err:
        structure_constants(lie_case("D1"), npoints=npoints)
    assert not isinstance(err.value, DegenerateBasisError)


def test_structure_constants_refuses_two_points():
    # two points fit the non-closed basis (x^2 dy, dx, dy) of
    # test_structure_constants_not_closed to rounding; three expose it
    basis = [
        VF(lambda x, y: 0.0, lambda x, y: x * x),
        VF(lambda x, y: 1.0, lambda x, y: 0.0),
        VF(lambda x, y: 0.0, lambda x, y: 1.0),
    ]
    with pytest.raises(ValueError, match="between 3 and the sample pool of 8 points") as err:
        structure_constants(basis, npoints=2)
    assert not isinstance(err.value, (DegenerateBasisError, NotClosedError))
    with pytest.raises(NotClosedError):
        structure_constants(basis, npoints=3)


def test_structure_constants_c2_plus_makes_15_lifts(monkeypatch):
    """One order-1 lift per basis field and sample point: 3 fields x 5 points."""
    from projspray import symmetry

    calls = []
    lift = symmetry.lift

    def counted(*args, **kwargs):
        calls.append(args[1])
        return lift(*args, **kwargs)

    monkeypatch.setattr(symmetry, "lift", counted)
    structure_constants(lie_case("C2+"))
    assert len(calls) == 15
    assert sorted(set(calls)) == sorted(symmetry._SAMPLE_POOL[:5])
    assert all(calls.count(p) == 3 for p in set(calls))


# perfbench's bases: every key at its defaults (C1's default lam is -1.0), D2 at lam 2 and J3 at gamma (0, 1)
_BENCH_CASES = [(key, {}) for key in LIE_CASE_KEYS] + [("D2", {"lam": 2.0}), ("J3", {"gamma": (0.0, 1.0)})]


@pytest.mark.parametrize("key, params", _BENCH_CASES, ids=[*LIE_CASE_KEYS, "D2(lam=2)", "J3(gamma=0,1)"])
def test_structure_constants_keep_the_bits_of_plain_values_and_lie_bracket(key, params):
    """A from the fields' float values and R from ``_bracket`` on fresh lifts
    of each pair give the same constants and residual, under ==, as one lift
    per field and point."""
    from projspray.symmetry import _PAIRS, _SAMPLE_POOL

    basis = lie_case(key, **params).basis

    def stacked(at):
        values = np.array([[F(x, y) for F in at] for (x, y) in _SAMPLE_POOL[:5]], dtype=float)
        return values.transpose(0, 2, 1).reshape(10, 3)

    brackets = [lambda x, y, i=i, j=j: bracket_at(basis[i], basis[j], x, y) for (i, j) in _PAIRS]
    A, R = stacked([F.at for F in basis]), stacked(brackets)
    C = np.linalg.lstsq(A, R)[0]
    want = np.zeros((3, 3, 3))
    for col, (i, j) in enumerate(_PAIRS):
        want[i, j], want[j, i] = C[:, col], -C[:, col]
    got = structure_constants(lie_case(key, **params))
    assert (got.constants == want).all()
    assert got.residual == float(np.abs(A @ C - R).max())


def test_bracket_reads_each_operand_once():
    calls = {"X": 0, "Y": 0}

    def counted(key, at):
        def fn(x, y):
            calls[key] += 1
            return at(x, y)

        return fn

    X = PlaneVectorField(counted("X", lambda x, y: (x * y, y)), "X")
    Y = PlaneVectorField(counted("Y", lambda x, y: (exp(x), x - y)), "Y")
    bracket_at(X, Y, 0.3, -0.2)
    assert calls == {"X": 1, "Y": 1}


@pytest.mark.parametrize("n", [2, 4])
def test_structure_constants_refuse_a_basis_of_other_than_three_fields(n):
    basis = lie_case("C2+").basis + (PlaneVectorField(lambda x, y: (x, y), "X3"),)
    with pytest.raises(ValueError, match=f"a basis of {n} fields; structure constants need three"):
        structure_constants(basis[:n])
