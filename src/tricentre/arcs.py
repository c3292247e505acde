"""Collision arcs through the perturbing centre.

An arc is a fixed-energy solution of the unperturbed separated flow that
starts and ends at the centre C with no interior passage through it.  For
a resonant parameter set the four (sign, direction) velocity choices at C
yield four labeled arcs; when C sits on a self-intersection of the orbit
the arcs end at the first early return instead of the full period.

A family is built only for a centre that passes the primary-collision
exclusion test of `exclusion`, whose public names this module re-exports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dynamics import PhiCrossing, Trajectory, integrate
from .errors import (DomainError, PlacementError, StructuralError,
                     UnsafeCentreError)
from .exclusion import (NondegeneracyCertificate, SafetyReport,
                        find_admissible_beta, nondegeneracy_certificate,
                        primary_collision_check, primary_collision_ratios,
                        resonant_params)
from .geometry import (TWO_PI, EllipticPoint, elliptic_to_cartesian,
                       elliptic_to_xy, transform_matrix, wrap_angle)
from .params import Params
from .periods import period_phi, period_xi

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
    path: Trajectory
    early_collision: bool
    min_primary_distance: float
    # Cartesian distance from the endpoint to C; an arc derived by time
    # reversal carries its partner's: it starts within it of C and ends on C
    closure_error: float

    @property
    def v0_cartesian(self) -> np.ndarray:
        return transform_matrix(self.start) @ np.array(self.v0)

    @property
    def vT_cartesian(self) -> np.ndarray:
        return transform_matrix(self.end) @ np.array(self.vT)

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


def build_arc(prm: Params, sign: int, direction: int,
              tol: float = 1e-12) -> CollisionArc:
    """Integrate one collision arc from C until its first return to C.

    The return is detected on crossings of phi = phi0 and phi = -phi0
    (mod 2pi), matching xi against the corresponding representation; both
    elliptic representations of C are the same Cartesian point.  Without an
    early collision the first return lands at the full resonant period
    m*T1 = n*T2; an earlier match sets the early_collision flag.
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
    xi0, phi0 = centre.xi, centre.phi
    xi_speed, phi_speed = initial_velocities(centre, prm.beta, prm.a1, prm.a)
    y0 = np.array([xi0, phi0, sign * xi_speed, direction * phi_speed])

    targets = [(phi0, xi0)]
    mirrored = wrap_angle(-phi0)
    if abs(mirrored - phi0) > 1e-12 and abs(abs(mirrored - phi0) - TWO_PI) > 1e-12:
        targets.append((mirrored, -xi0))
    events = [PhiCrossing(t) for t, _ in targets]

    # the endpoint error in Cartesian terms is the global integration error
    # amplified by the map Jacobian (~ sinh|xi0|); integrate a decade tighter
    # than the requested arc tolerance to keep the closure within it
    int_tol = max(0.1 * tol, 1e-14)
    traj = integrate(y0, prm, t_full * (1.0 + 2e-4), tol=int_tol, events=events)

    xi_match = {wrap_angle(t): x for t, x in targets}
    returns = []
    for ev in traj.events:
        if ev.tau <= 1e-6 * t_full:
            continue
        target_phi = wrap_angle(ev.spec.value)
        xi_target = xi_match[target_phi]
        candidates = (xi_target,) if len(targets) == 2 else (xi0, -xi0)
        for xt in candidates:
            if abs(ev.state[0] - xt) < 1e-6:
                returns.append((ev.tau, ev.state))
                break
    if not returns:
        raise DomainError(
            f"no return to the centre found within {t_full*(1+2e-4):.6g} tau"
            " units; parameters are inconsistent")
    duration, y_end = min(returns, key=lambda r: r[0])
    early = duration < t_full * (1.0 - 1e-6)

    path = traj.truncated(duration)
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
        v0=(float(y0[2]), float(y0[3])),
        vT=(float(y_end[2]), float(y_end[3])),
        duration=float(duration),
        path=path,
        early_collision=bool(early),
        min_primary_distance=min_primary,
        closure_error=float(closure),
    )


def _reversed_arc(arc: CollisionArc) -> CollisionArc:
    """The arc at C that runs along arc's path backwards.

    H is even in the momenta, so the reversed path is a solution with the
    same duration.  It starts at arc's end, which may be the mirrored
    representation (-xi0, -phi0) of C and carries the winding of phi; both
    are mapped back to (xi0, phi0).  The label is read off the reversed
    path's initial velocity.
    """
    xi0, phi0 = arc.start.xi, arc.start.phi
    path = arc.path.reversed()
    xi, phi = path.states[0, 0], path.states[0, 1]

    def offset(xi, phi):
        turns = round((phi - phi0) / TWO_PI)
        return abs(xi - xi0) + abs(phi - phi0 - TWO_PI * turns), turns

    plain, mirrored = offset(xi, phi), offset(-xi, -phi)
    negate = mirrored[0] < plain[0]
    path = path.represented(negate, -(mirrored if negate else plain)[1])
    y0, y_end = path.states[0], path.states[-1]
    sign, direction = (1 if y0[2] > 0.0 else -1), (1 if y0[3] > 0.0 else -1)
    return CollisionArc(
        params=arc.params,
        label=ArcLabel(arc.label.q, sign, direction),
        start=arc.start,
        end=EllipticPoint(float(y_end[0]), float(y_end[1])),
        v0=(sign * abs(arc.v0[0]), direction * abs(arc.v0[1])),
        vT=(float(y_end[2]), float(y_end[3])),
        duration=arc.duration,
        path=path,
        early_collision=arc.early_collision,
        min_primary_distance=arc.min_primary_distance,
        closure_error=arc.closure_error,
    )


# ---------------------------------------------------------------------------
# families

def arc_family(prm: Params, tol: float = 1e-12,
               delta: float = 1e-4) -> list[CollisionArc]:
    """The four labeled arcs at C for one resonant parameter set.

    Ordered [(+,+), (-,-), (+,-), (-,+)]: the first two share one initial
    direction pair at C, the last two the transverse one.  Refuses centres
    that fail the primary-collision exclusion test, and cross-checks the
    verdict against the primary distances the built paths actually attain.

    Only (+,+) and (+,-) are integrated; the other two arcs are their time
    reversals, with the partner's duration, early_collision,
    min_primary_distance and closure_error.  A derived arc starts within
    its partner's closure error of C and ends on C.
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
    built = [build_arc(prm, 1, d, tol=tol) for d in (1, -1)]
    by_label = {arc.label: arc
                for arc in built + [_reversed_arc(arc) for arc in built]}
    if len(by_label) != 4:
        raise StructuralError(
            "time reversal of the (+,+) and (+,-) arcs does not give the"
            f" other two labels: got {sorted(str(lb) for lb in by_label)}")
    family = [by_label[ArcLabel(prm.q, s, d)]
              for (s, d) in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    grazing = min(arc.min_primary_distance for arc in family)
    if grazing <= 1e-6:
        raise StructuralError(
            "exclusion test declared the centre safe but a built arc"
            f" passes within {grazing:.3g} of a primary")
    return family
