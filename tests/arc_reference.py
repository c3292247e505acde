"""Reference collision arcs for the closed-form oracle tests.

This is the earlier implementation of ``tricentre.arcs.build_arc``: it
integrates the arc with `integrate` (a decade tighter than the requested
tolerance) and finds the first return to C as the earliest ``PhiCrossing``
event of phi = phi0 or phi = -phi0 (mod 2pi) whose xi matches.  Its
``path`` is a second integration from the same start that ends at that
return.  The closed-form
arcs must agree with it within the tolerances the tests state.
"""
from __future__ import annotations

import numpy as np

from tricentre.arcs import ArcLabel, CollisionArc, initial_velocities
from tricentre.dynamics import PhiCrossing, integrate
from tricentre.errors import DomainError
from tricentre.geometry import (TWO_PI, EllipticPoint, elliptic_to_cartesian,
                                elliptic_to_xy)
from tricentre.params import Params
from tricentre.periods import period_phi, period_xi


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
    t1 = period_xi(prm.beta, prm.a1)
    t2 = period_phi(prm.beta, prm.a1)
    t_full = m * t1
    if abs(m * t1 - n * t2) > 1e-6 * t_full:
        raise DomainError(
            f"parameters are not resonant for q={prm.q}: m*T1={m*t1:.12g}"
            f" differs from n*T2={n*t2:.12g}")

    centre = prm.centre_elliptic
    xi0, phi0 = centre.xi, centre.phi
    xi_speed, phi_speed = initial_velocities(centre, prm.beta, prm.a1)
    y0 = np.array([xi0, phi0, sign * xi_speed, direction * phi_speed])

    targets = [(phi0, xi0)]
    mirrored = EllipticPoint(0.0, -phi0).phi
    if abs(mirrored - phi0) > 1e-12 and abs(abs(mirrored - phi0) - TWO_PI) > 1e-12:
        targets.append((mirrored, -xi0))
    events = [PhiCrossing(t) for t, _ in targets]

    # the endpoint error in Cartesian terms is the global integration error
    # amplified by the map Jacobian (~ sinh|xi0|); integrate a decade tighter
    # than the requested arc tolerance to keep the closure within it
    int_tol = max(0.1 * tol, 1e-14)
    traj = integrate(y0, prm, t_full * (1.0 + 2e-4), tol=int_tol, events=events)

    xi_match = {EllipticPoint(0.0, t).phi: x for t, x in targets}
    returns = []
    for ev in traj.events:
        if ev.tau <= 1e-6 * t_full:
            continue
        target_phi = EllipticPoint(0.0, ev.spec.value).phi
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

    path = integrate(y0, prm, duration, tol=int_tol)
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
