"""Elliptic <-> Cartesian transforms and the regularized-time map.

The plane is covered by the conformal map x + iy = cosh(xi + i*phi) from
the cylinder R x S^1.  The two primaries sit at the ramification points
(xi, phi) = (0, 0) -> (1, 0) and (0, pi) -> (-1, 0); every other Cartesian
point has exactly two elliptic representations, (xi, phi) and
(-xi, -phi mod 2pi).

The scalar maps and physical_time_of, which works on sequences, use only
math and cmath.  numpy is imported on the first call of an array helper
(elliptic_to_xy without `lib`, transform_matrix, velocity_to_cartesian),
so the closed-form layer never loads it.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import SingularityError

__all__ = [
    "TWO_PI",
    "EllipticPoint", "CartesianPoint",
    "elliptic_to_xy", "elliptic_to_cartesian", "cartesian_to_elliptic",
    "transform_matrix", "velocity_to_cartesian", "physical_time_of",
]

TWO_PI = 2.0 * math.pi

_PRIMARY_TOL = 1e-13


class EllipticPoint(NamedTuple("EllipticPoint", [("xi", float), ("phi", float)])):
    """Point (xi, phi) on the cylinder; phi stored normalized to [0, 2pi)."""

    __slots__ = ()

    def __new__(cls, xi: float, phi: float):
        phi = math.fmod(phi, TWO_PI)
        if phi < 0.0:
            phi += TWO_PI
        return tuple.__new__(cls, (xi, 0.0 if phi == TWO_PI else phi))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too

    @property
    def conjugate(self) -> "EllipticPoint":
        """The other elliptic representation of the same Cartesian point."""
        return EllipticPoint(-self.xi, -self.phi)

    def is_primary(self) -> bool:
        """Within 1e-13 in xi and in phi of (0, 0) or (0, pi)."""
        if abs(self.xi) > _PRIMARY_TOL:
            return False
        d = min(self.phi, TWO_PI - self.phi, abs(self.phi - math.pi))
        return d <= _PRIMARY_TOL


class CartesianPoint(NamedTuple):
    x: float
    y: float

    def distance_to(self, other: "CartesianPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def elliptic_to_xy(xi, phi, lib=None):
    """x = cosh(xi) cos(phi), y = sinh(xi) sin(phi), elementwise.

    `lib` supplies cosh/cos/sinh/sin: numpy for arrays (the default, None),
    math for floats.
    """
    if lib is None:
        import numpy as lib
    return lib.cosh(xi) * lib.cos(phi), lib.sinh(xi) * lib.sin(phi)


def elliptic_to_cartesian(p: EllipticPoint) -> CartesianPoint:
    """The Cartesian point of p: elliptic_to_xy on floats, written out."""
    return CartesianPoint(math.cosh(p.xi) * math.cos(p.phi),
                          math.sinh(p.xi) * math.sin(p.phi))


def cartesian_to_elliptic(p: CartesianPoint) -> tuple[EllipticPoint, EllipticPoint]:
    """Both elliptic preimages of a Cartesian point.

    The principal branch of the complex arccosh (real part >= 0) gives one
    representation; the other is its conjugate.  arccosh is well conditioned
    near the ramification points, where it reduces to the square-root
    expansion sqrt(2(z - 1)).
    """
    first = _principal_point(p)
    return first, first.conjugate


def _principal_point(p: CartesianPoint) -> EllipticPoint:
    """p's principal preimage (see cartesian_to_elliptic)."""
    zeta = cmath.acosh(complex(p.x, p.y))
    return EllipticPoint(zeta.real, zeta.imag)


def transform_matrix(p: EllipticPoint) -> np.ndarray:
    """Jacobian of the map to Cartesian coordinates at p.

    Satisfies det = cosh^2(xi) - cos^2(phi) and M(-xi, -phi) = -M(xi, phi);
    it is singular exactly at the primaries.
    """
    import numpy as np
    sh, ch = math.sinh(p.xi), math.cosh(p.xi)
    sp, cp = math.sin(p.phi), math.cos(p.phi)
    return np.array([[sh * cp, -ch * sp],
                     [ch * sp, sh * cp]])


def velocity_to_cartesian(p: EllipticPoint, v) -> np.ndarray:
    """Map an elliptic velocity (xi', phi') to d(x, y)/dtau at point p."""
    if p.is_primary():
        raise SingularityError(
            f"velocity transform is singular at the primary near {p}")
    import numpy as np
    return transform_matrix(p) @ np.asarray(v, dtype=float)


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """The n >= 2 floats of numpy.linspace(start, stop, n):
    start + k (stop - start)/(n - 1), the last set to stop."""
    step = (stop - start) / (n - 1)
    return [start + k * step for k in range(n - 1)] + [stop]


def physical_time_of(taus, xis, phis) -> list[float]:
    """Cumulative physical time t(tau) along a sampled trajectory.

    t(tau) = integral_0^tau (cosh^2 xi - cos^2 phi) dtau', evaluated with
    the composite trapezoid rule on the given samples.  The integrand
    vanishes only at the primaries, where the time reparametrization
    degenerates, so a sample there is rejected.
    """
    rho = [math.cosh(xi) ** 2 - math.cos(phi) ** 2
           for xi, phi in zip(xis, phis)]
    if any(r < 1e-14 for r in rho):
        raise SingularityError(
            "trajectory sample at a primary: physical time is undefined there")
    t = [0.0]
    for k in range(1, len(rho)):
        t.append(t[-1] + (taus[k] - taus[k - 1]) * 0.5 * (rho[k] + rho[k - 1]))
    return t
