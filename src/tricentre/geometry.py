"""Elliptic <-> Cartesian transforms and the regularized-time map.

The plane is covered by the conformal map x + iy = cosh(xi + i*phi) from
the cylinder R x S^1.  The two primaries sit at the ramification points
(xi, phi) = (0, 0) -> (1, 0) and (0, pi) -> (-1, 0); every other Cartesian
point has exactly two elliptic representations, (xi, phi) and
(-xi, -phi mod 2pi).

The scalar maps use only math and cmath.  numpy is imported on the first
call of an array helper (elliptic_to_xy without `lib`, transform_matrix,
velocity_to_cartesian, physical_time_of), so the closed-form layer never
loads it.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import SingularityError

__all__ = [
    "TWO_PI",
    "EllipticPoint", "CartesianPoint",
    "elliptic_to_xy", "elliptic_to_cartesian", "cartesian_to_elliptic",
    "transform_matrix", "velocity_to_cartesian", "physical_time_of",
    "wrap_angle",
]

TWO_PI = 2.0 * math.pi

_PRIMARY_TOL = 1e-13


def wrap_angle(phi: float) -> float:
    """Reduce an angle to [0, 2pi)."""
    phi = math.fmod(phi, TWO_PI)
    if phi < 0.0:
        phi += TWO_PI
    return 0.0 if phi == TWO_PI else phi


@dataclass(frozen=True)
class EllipticPoint:
    """Point (xi, phi) on the cylinder; phi stored normalized to [0, 2pi)."""

    xi: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", wrap_angle(self.phi))

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


@dataclass(frozen=True)
class CartesianPoint:
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
    """The Cartesian point of p; see elliptic_to_xy."""
    return CartesianPoint(*elliptic_to_xy(p.xi, p.phi, math))


def cartesian_to_elliptic(p: CartesianPoint) -> tuple[EllipticPoint, EllipticPoint]:
    """Both elliptic preimages of a Cartesian point.

    The principal branch of the complex arccosh (real part >= 0) gives one
    representation; the other is its conjugate.  arccosh is well conditioned
    near the ramification points, where it reduces to the square-root
    expansion sqrt(2(z - 1)).
    """
    first = _principal_preimage(p)
    return first, first.conjugate


def _principal_preimage(p: CartesianPoint) -> EllipticPoint:
    """The first preimage of cartesian_to_elliptic, alone."""
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


def physical_time_of(taus, xis, phis) -> np.ndarray:
    """Cumulative physical time t(tau) along a sampled trajectory.

    t(tau) = integral_0^tau (cosh^2 xi - cos^2 phi) dtau', evaluated with
    the composite trapezoid rule on the given samples.  The integrand
    vanishes only at the primaries, where the time reparametrization
    degenerates, so a sample there is rejected.
    """
    import numpy as np
    taus = np.asarray(taus, dtype=float)
    xis = np.asarray(xis, dtype=float)
    phis = np.asarray(phis, dtype=float)
    rho = np.cosh(xis) ** 2 - np.cos(phis) ** 2
    if np.any(rho < 1e-14):
        raise SingularityError(
            "trajectory sample at a primary: physical time is undefined there")
    t = np.empty_like(taus)
    t[0] = 0.0
    if len(taus) > 1:
        dt = np.diff(taus) * 0.5 * (rho[1:] + rho[:-1])
        np.cumsum(dt, out=t[1:])
    return t
