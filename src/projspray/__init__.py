"""Verification toolkit for plane sprays with large projective symmetry algebras.

The package evaluates every check through exact second-order jets: geodesic
sprays of Finsler metrics, the scalar equations their geodesics induce,
point-symmetry and projective-vector-field residuals, projective flatness,
Riemannian metrizability, and the Randers / magnetic-geodesic construction
over constant-curvature backgrounds.
"""

__version__ = "0.1.0"
