"""Collision arcs through the perturbing centre.

An arc is a fixed-energy solution of the unperturbed separated flow that
starts and ends at the centre C with no interior passage through it.  For
a resonant parameter set the four (sign, direction) velocity choices at C
yield four labeled arcs; when C sits on a self-intersection of the orbit
the arcs end at the first early return instead of the full period.
Nothing here integrates: at eps = 0 both separated motions are Jacobi
elliptic functions of tau, which `SeparatedPath` evaluates through `am`,
and the first return comes from the exact times at which phi reaches
+-phi0.

A family is built only for a centre that passes the primary-collision
exclusion test of `exclusion`, whose public names this module re-exports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._kernels import StepStats
from .errors import (DomainError, PlacementError, StructuralError,
                     UnsafeCentreError)
from .exclusion import (NondegeneracyCertificate, SafetyReport,
                        find_admissible_beta, nondegeneracy_certificate,
                        primary_collision_check, primary_collision_ratios,
                        resonant_params, _separated_motion)
from .geometry import (TWO_PI, EllipticPoint, elliptic_to_cartesian,
                       elliptic_to_xy, velocity_to_cartesian, wrap_angle)
from .params import Params
from .periods import period_phi, period_xi
from .special import complete_elliptic_k, incomplete_elliptic_f

__all__ = [
    "ArcLabel", "CollisionArc", "SafetyReport", "NondegeneracyCertificate",
    "initial_velocities", "resonant_params", "build_arc", "arc_family",
    "primary_collision_ratios", "primary_collision_check",
    "nondegeneracy_certificate", "find_admissible_beta",
]


class ArcLabel(NamedTuple):
    q: Fraction
    sign: int       # sign of xi' at departure
    direction: int  # sign of phi' at departure

    def __str__(self):
        return f"q={self.q}:s{self.sign:+d}:d{self.direction:+d}"


@dataclass
class CollisionArc:
    params: Params
    label: ArcLabel
    start: EllipticPoint
    end: EllipticPoint
    v0: tuple[float, float]   # elliptic velocity at departure
    vT: tuple[float, float]   # elliptic velocity at arrival
    duration: float           # tau time of the first return to C
    path: SeparatedPath
    early_collision: bool
    min_primary_distance: float
    closure_error: float      # Cartesian distance from the endpoint to C

    @property
    def v0_cartesian(self) -> np.ndarray:
        return velocity_to_cartesian(self.start, self.v0)

    @property
    def vT_cartesian(self) -> np.ndarray:
        return velocity_to_cartesian(self.end, self.vT)

    @property
    def energy(self) -> float:
        return self.params.energy


def initial_velocities(centre: EllipticPoint, beta: float, a1_hat: float,
                       a: float = 1.0) -> tuple[float, float]:
    """Speeds |xi'|, |phi'| of the separated flow at the centre.

    Requires the centre strictly inside the turning ellipse (|xi0| < xi+),
    so the xi component of the velocity never vanishes there.
    """
    xi0, phi0 = centre.xi, centre.phi
    ch = math.cosh(xi0)
    r = ch - beta * a1_hat * ch ** 2 - a1_hat
    # relative floor: roundoff of the cancellation at the turning point
    if r <= 1e-12 * max(1.0, beta * a1_hat * ch ** 2):
        raise PlacementError(
            f"centre xi0={xi0:.6g} lies at/beyond the turning point of the xi"
            " oscillation (outside the bounding ellipse)")
    xi_speed = 2.0 * math.sqrt(a * r)
    phi_speed = 2.0 * math.sqrt(a * (beta * a1_hat * math.cos(phi0) ** 2 + a1_hat))
    return xi_speed, phi_speed


def am(u, m: float) -> np.ndarray:
    """Jacobi amplitude am(u | m) over an array u, for 0 <= m < 1.

    The descending Landen (AGM) sequence a_n, c_n of (1, sqrt(1 - m),
    sqrt(m)) runs until c_N <= 2^-26 a_N, where the next correction,
    c_(N+1)/a ~ (c_N/a)^2 / 4, is below rounding; then phi_N = 2^N a_N u
    and phi_(n-1) = (phi_n + arcsin(c_n / a_n sin phi_n)) / 2 (Abramowitz
    and Stegun 16.4; DLMF 22.20).  sn, cn and dn are sin(am), cos(am) and
    sqrt(1 - m sin^2(am)); am(u | 0) = u.
    """
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    ratios = []
    while c > 2.0 ** -26 * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
    phi = 2.0 ** len(ratios) * a * np.asarray(u, dtype=float)
    for r in reversed(ratios):
        phi = 0.5 * (phi + np.arcsin(r * np.sin(phi)))
    return phi


class SeparatedPath:
    """The eps = 0 motion from start with velocity signs (sign, direction),
    in closed form over [0, duration].

    With the constants of `exclusion._separated_motion`, k2^2 = beta/(1+beta),
    m = u+/(u+ - u-) and lam = sqrt(a A (u+ - u-)):

        phi = am(F(phi0 | k2^2) + direction*w*tau | k2^2),
        tanh(xi/2) = sqrt(u+) cn(lam*tau + v0 | m),

    with v0 = -sign F(arccos(tanh(xi0/2)/sqrt(u+)) | m), so that xi' has the
    sign of `sign` at tau = 0.  It serves what readers of a collision
    arc's path use: `taus` and `states` (the two ends), `state_at`,
    `dense_grid`, `params` and `stats`, which counts no step.
    """

    stats = StepStats(0, 0, 0, 0.0, 0.0)

    def __init__(self, prm: Params, start: EllipticPoint, sign: int,
                 direction: int, duration: float):
        u_plus, u_minus, big_a, w, _ = _separated_motion(prm.beta, prm.a1,
                                                         prm.a)
        self.params = prm
        self._k2 = prm.beta / (1.0 + prm.beta)
        self._f0 = incomplete_elliptic_f(start.phi, self._k2)
        self._rate = direction * w
        self._m = u_plus / (u_plus - u_minus)
        self._lam = math.sqrt(prm.a * big_a * (u_plus - u_minus))
        self._root_u = math.sqrt(u_plus)
        cn0 = math.tanh(0.5 * start.xi) / self._root_u
        if not abs(cn0) <= 1.0:
            raise PlacementError(
                f"start xi={start.xi:.6g} lies beyond the turning ellipse")
        self._v0 = -sign * incomplete_elliptic_f(math.acos(cn0), self._m)
        self.taus = np.array([0.0, float(duration)])

    @cached_property
    def states(self) -> np.ndarray:
        return self.state_at(self.taus)

    def state_at(self, tau) -> np.ndarray:
        """State(s) (xi, phi, xi', phi') at scalar or array tau."""
        t = np.asarray(tau, dtype=float)
        phi = am(self._f0 + self._rate * t, self._k2)
        theta = am(self._lam * t + self._v0, self._m)
        sn, cn = np.sin(theta), np.cos(theta)
        half = self._root_u * cn  # tanh(xi/2)
        return np.stack([
            2.0 * np.arctanh(half),
            phi,
            -2.0 * self._root_u * self._lam * sn
            * np.sqrt(1.0 - self._m * sn * sn) / (1.0 - half * half),
            self._rate * np.sqrt(1.0 - self._k2 * np.sin(phi) ** 2),
        ], axis=-1)

    def dense_grid(self, n: int = 1024) -> tuple[np.ndarray, np.ndarray]:
        """Uniform tau grid with its states, endpoints included."""
        t = np.linspace(self.taus[0], self.taus[-1], n)
        return t, self.state_at(t)


def build_arc(prm: Params, sign: int, direction: int) -> CollisionArc:
    """One collision arc from C until its first return to C, in closed form.

    The return is the earliest time at which phi = phi0 with xi = xi0, or
    phi = -phi0 (mod 2pi) with xi = -xi0: both elliptic representations of
    C are the same Cartesian point.  Without an early collision it lands
    at the full resonant period m*T1 = n*T2; an earlier match sets the
    early_collision flag.
    """
    if sign not in (-1, 1) or direction not in (-1, 1):
        raise DomainError("sign and direction must each be +1 or -1")
    m, n = prm.q.numerator, prm.q.denominator
    t1 = period_xi(prm.beta, prm.a1, prm.a)
    t2 = period_phi(prm.beta, prm.a1, prm.a)
    t_full = m * t1
    if abs(m * t1 - n * t2) > 1e-6 * t_full:
        raise DomainError(
            f"parameters are not resonant for q={prm.q}: m*T1={m*t1:.12g}"
            f" differs from n*T2={n*t2:.12g}")

    centre = prm.centre_elliptic
    xi_speed, phi_speed = initial_velocities(centre, prm.beta, prm.a1, prm.a)
    duration = _first_return(SeparatedPath(prm, centre, sign, direction, t_full),
                             centre, t_full)
    early = duration < t_full * (1.0 - 1e-6)
    path = SeparatedPath(prm, centre, sign, direction, duration)

    y_end = path.states[-1]
    end = EllipticPoint(float(y_end[0]), float(y_end[1]))
    closure = elliptic_to_cartesian(end).distance_to(prm.centre)

    _, states = path.dense_grid(4096)
    x, y = elliptic_to_xy(states[:, 0], states[:, 1])
    d1 = np.hypot(x - 1.0, y)
    d2 = np.hypot(x + 1.0, y)
    min_primary = float(min(d1.min(), d2.min()))

    return CollisionArc(
        params=prm,
        label=ArcLabel(prm.q, sign, direction),
        start=centre,
        end=end,
        v0=(sign * xi_speed, direction * phi_speed),
        vT=(float(y_end[2]), float(y_end[3])),
        duration=float(duration),
        path=path,
        early_collision=bool(early),
        min_primary_distance=min_primary,
        closure_error=float(closure),
    )


def _first_return(path: SeparatedPath, centre: EllipticPoint,
                  t_full: float) -> float:
    """Earliest tau in (1e-6 t_full, (1 + 2e-4) t_full] at which the path is
    back at C.

    phi = +-phi0 (mod 2pi) exactly when F(phi0) + d*w*tau lies in
    +-F(phi0) + 4K*Z (K of phi's modulus).  At such a time xi must match
    +-xi0 to within 1e-6; for phi0 = 0 or pi, where the two angles
    coincide, either sign of xi0 matches.  The window reaches past m*T1 so
    that it holds n*T2, the full-period return.
    """
    xi0, phi0 = centre.xi, centre.phi
    mirrored = wrap_angle(-phi0)
    one_angle = (abs(mirrored - phi0) <= 1e-12
                 or abs(abs(mirrored - phi0) - TWO_PI) <= 1e-12)
    lo, hi = 1e-6 * t_full, (1.0 + 2e-4) * t_full
    f0, rate = path._f0, path._rate
    step = 4.0 * complete_elliptic_k(path._k2) / abs(rate)  # phi turns 2pi
    returns = []
    for s in (1, -1):
        # tau = (s*f0 - f0 + 4K*j) / rate for integer j
        base = (s * f0 - f0) / rate
        j = np.arange(math.floor((lo - base) / step),
                      math.ceil((hi - base) / step) + 1)
        taus = base + j * step
        taus = taus[(taus > lo) & (taus <= hi)]
        targets = (xi0, -xi0) if one_angle else (s * xi0,)
        xi = path.state_at(taus)[:, 0]
        match = np.any(np.abs(xi[:, None] - np.array(targets)) < 1e-6, axis=1)
        returns.extend(taus[match].tolist())
    if not returns:
        raise DomainError(
            f"no return to the centre found within {hi:.6g} tau units;"
            " parameters are inconsistent")
    return min(returns)


# ---------------------------------------------------------------------------
# families

def arc_family(prm: Params, delta: float = 1e-4) -> list[CollisionArc]:
    """The four labeled arcs at C for one resonant parameter set.

    Ordered [(+,+), (-,-), (+,-), (-,+)]: the first two share one initial
    direction pair at C, the last two the transverse one.  Refuses centres
    that fail the primary-collision exclusion test, and cross-checks the
    verdict against the primary distances the built paths actually attain.
    """
    report = primary_collision_check(prm, delta=delta)
    if not report.safe:
        raise UnsafeCentreError(
            f"centre fails primary-collision exclusion for q={prm.q}:"
            f" G+={report.g_plus:.9g}, G-={report.g_minus:.9g} is within"
            f" {report.min_separation:.3g} of ratio {report.nearest}"
            f" (margin {delta:g})",
            g_plus=report.g_plus, g_minus=report.g_minus,
            nearest=report.nearest)
    family = [build_arc(prm, s, d)
              for (s, d) in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    grazing = min(arc.min_primary_distance for arc in family)
    if grazing <= 1e-6:
        raise StructuralError(
            "exclusion test declared the centre safe but a built arc"
            f" passes within {grazing:.3g} of a primary")
    return family
