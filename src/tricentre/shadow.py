"""Shadowing experiments on the perturbed flow (eps > 0).

A perturbed trajectory segment is matched to a reference collision arc by
two-point shooting between small circles around the perturbing centre: the
unknowns are the angular position on the entry circle and the tau duration,
the speed being eliminated by the fixed-energy constraint.  Deviation
metrics quantify how closely the segment tracks the arc as eps shrinks;
a finite-difference pass through the centre's neighbourhood estimates the
local expansion rate of the return map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .arcs import CollisionArc
from .dynamics import CentreProximity, Params, integrate
from .errors import DomainError, IntegrationError
from .geometry import (CartesianPoint, EllipticPoint, cartesian_to_elliptic,
                       elliptic_to_xy, transform_matrix, velocity_to_cartesian)

__all__ = ["ShadowResult", "shoot_segment", "local_expansion_rate"]

_ENTRY_RADIUS_FLOOR = 1e-4  # entry radius max(10 eps, floor)
_SHOOT_TOL = 1e-9           # Newton stop on the Cartesian endpoint residual
_SHOOT_MAX_ITER = 40
_IMPACT_OFFSET_FRAC = 0.25  # impact parameter b0, over the entry radius
_IMPACT_STEP_FRAC = 0.05    # its central-difference half step db, likewise


@dataclass
class ShadowResult:
    eps: float
    max_deviation: float      # sup over the segment of distance to the arc
    min_c_distance: float
    time_defect: float        # |duration - arc duration| in tau
    converged: bool
    entry_radius: float
    residual: float           # final Newton residual (Cartesian)
    n_iterations: int
    alpha: float              # converged entry-circle angle offset
    duration: float
    arrival_state: Optional[np.ndarray]  # elliptic state at the exit circle
    params: Optional[Params] = None
    residual_history: tuple[float, ...] = ()  # residual, then after each step
    rhs_evals: int = 0        # over every integration of the solve


def _energy_consistent_state(pos: CartesianPoint, direction_cart: np.ndarray,
                             prm: Params) -> np.ndarray:
    """Elliptic state at pos moving along direction_cart on the zero level."""
    ell = cartesian_to_elliptic(pos)[0]
    u = transform_matrix(ell)
    rho = math.cosh(ell.xi) ** 2 - math.cos(ell.phi) ** 2
    d_ell = u.T @ direction_cart / rho  # inverse of the conformal map
    v_cent = -1.0 / pos.distance_to(prm.centre) if prm.eps != 0.0 else 0.0
    rhs = 2.0 * prm.a * math.cosh(ell.xi) + (prm.energy - prm.eps * v_cent) * rho
    if rhs <= 0.0:
        raise DomainError("no admissible speed: state outside the Hill region")
    speed = math.sqrt(2.0 * rhs) / math.hypot(d_ell[0], d_ell[1])
    return np.array([ell.xi, ell.phi, speed * d_ell[0], speed * d_ell[1]])


def _rotate(v: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _cartesian_track(states: np.ndarray) -> np.ndarray:
    return np.column_stack(elliptic_to_xy(states[:, 0], states[:, 1]))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _deviation_to_arc(points: np.ndarray, arc: CollisionArc,
                      n_seed: int = 4096) -> float:
    """Max over points of the distance to the continuous reference arc.

    A coarse polyline gives the nearest-sample seed; a golden-section
    refinement on the arc's dense output removes the discretization floor
    (the arc sweeps fast in Cartesian terms far from the primaries, where
    uniform-tau sampling is sparse).  All points are refined together for
    40 steps, one array dense-output query per step.
    """
    arc_taus, arc_states = arc.path.dense_grid(n_seed)
    poly = _cartesian_track(arc_states)
    px, py = points[:, 0], points[:, 1]
    nearest = np.empty(len(points), dtype=np.intp)
    chunk = 256
    for s in range(0, len(points), chunk):
        d2 = ((px[s:s + chunk, None] - poly[:, 0]) ** 2
              + (py[s:s + chunk, None] - poly[:, 1]) ** 2)
        nearest[s:s + chunk] = np.argmin(d2, axis=1)

    def dist_at(tau: np.ndarray, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
        y = arc.path.state_at(tau)
        x, yy = elliptic_to_xy(y[:, 0], y[:, 1])
        return np.hypot(x - qx, yy - qy)

    a = arc_taus[np.maximum(nearest - 1, 0)]
    b = arc_taus[np.minimum(nearest + 1, len(arc_taus) - 1)]
    t1, t2 = a + (1.0 - _GOLDEN) * (b - a), a + _GOLDEN * (b - a)
    fa, fb = dist_at(t1, px, py), dist_at(t2, px, py)
    for _ in range(40):
        left = fa < fb
        a, b = np.where(left, a, t1), np.where(left, t2, b)
        t_new = a + np.where(left, 1.0 - _GOLDEN, _GOLDEN) * (b - a)
        f_new = dist_at(t_new, px, py)
        t1, t2 = np.where(left, t_new, t2), np.where(left, t1, t_new)
        fa, fb = np.where(left, f_new, fb), np.where(left, fa, f_new)
    return float(np.minimum(fa, fb).max(initial=0.0))


def shoot_segment(arc: CollisionArc, eps: float) -> ShadowResult:
    """Match a perturbed segment to a reference arc between centre circles.

    Starts on the entry circle of radius max(10 eps, 1e-4) in the direction
    of the arc's departure velocity (radial outward motion), with speed
    fixed by the energy constraint of the perturbed Hamiltonian, and
    Newton-adjusts the entry angle and the duration (at most 40 steps)
    until the endpoint is within 1e-9 of the exit-circle point where the
    arc comes back in.  eps = 0 reproduces the arc itself up to the
    circle-chord offset.
    """
    if eps < 0.0:
        raise DomainError(f"eps must be >= 0, got {eps}")
    r_e = max(10.0 * eps, _ENTRY_RADIUS_FLOOR)
    prm = arc.params.with_eps(eps)
    centre = prm.centre
    c_vec = np.array([centre.x, centre.y])

    u0 = arc.v0_cartesian
    u0 = u0 / np.hypot(*u0)
    u_t = arc.vT_cartesian
    u_t = u_t / np.hypot(*u_t)
    target = c_vec - r_e * u_t

    # tau spent inside the circles along the unperturbed arc, for the guess
    v0_cart_speed = float(np.hypot(*arc.v0_cartesian))
    vt_cart_speed = float(np.hypot(*arc.vT_cartesian))
    tau_in = r_e / v0_cart_speed
    tau_out = r_e / vt_cart_speed

    rhs_evals = 0

    def residual(z):
        nonlocal rhs_evals
        direction = _rotate(u0, z[0])
        pos = CartesianPoint(*(c_vec + r_e * direction))
        y0 = _energy_consistent_state(pos, direction, prm)
        traj = integrate(y0, prm, z[1], tol=1e-12)
        rhs_evals += traj.stats.rhs_evals
        return traj, _cartesian_track(traj.states[-1:])[0] - target

    z = np.array([0.0, arc.duration - tau_in - tau_out])
    traj, r = residual(z)
    rnorm = float(np.hypot(*r))
    history = [rnorm]
    n_it = 0
    converged = rnorm <= _SHOOT_TOL
    while not converged and n_it < _SHOOT_MAX_ITER:
        n_it += 1
        jac = np.empty((2, 2))
        d_alpha = 1e-7
        d_t = 1e-7 * max(1.0, abs(z[1]))
        _, r_a = residual(z + np.array([d_alpha, 0.0]))
        _, r_t = residual(z + np.array([0.0, d_t]))
        jac[:, 0] = (r_a - r) / d_alpha
        jac[:, 1] = (r_t - r) / d_t
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        improved = False
        for _ in range(10):
            z_new = z + lam * step
            if z_new[1] <= 0.0:
                lam *= 0.5
                continue
            traj_new, r_new = residual(z_new)
            rn = float(np.hypot(*r_new))
            if rn < rnorm:
                z, traj, r, rnorm = z_new, traj_new, r_new, rn
                history.append(rn)
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        converged = rnorm <= _SHOOT_TOL

    taus, states = traj.dense_grid(1024)
    track = _cartesian_track(states)
    min_c = float(np.min(np.hypot(track[:, 0] - centre.x,
                                  track[:, 1] - centre.y)))
    deviation = _deviation_to_arc(track, arc)

    return ShadowResult(
        eps=eps,
        max_deviation=deviation,
        min_c_distance=min_c,
        time_defect=abs(z[1] - arc.duration),
        converged=bool(converged),
        entry_radius=r_e,
        residual=rnorm,
        n_iterations=n_it,
        alpha=float(z[0]),
        duration=float(z[1]),
        arrival_state=traj.states[-1].copy(),
        params=prm,
        residual_history=tuple(history),
        rhs_evals=rhs_evals,
    )


def local_expansion_rate(results: Sequence[ShadowResult], eps: float) -> float:
    """Per-passage expansion rate through the centre neighbourhood.

    Takes the arrival state of the first converged segment, offsets it
    across the incoming direction by impact parameters b0 -+ db = (0.25 -+
    0.05) entry radii (energy kept on the zero level), integrates each
    branch through the near-centre swing until it exits the doubled circle,
    and returns log |d(theta_out)/d(b)| by central differences.  It grows
    as the centre's attraction strengthens relative to the passage
    distance, i.e. as eps decreases at fixed b/entry_radius.
    """
    if len(results) < 2:
        raise DomainError("need at least 2 consecutive segments")
    if not all(r.converged for r in results[:2]):
        raise DomainError("expansion rate requires converged segments")
    seg = results[0]
    if seg.params is None or seg.arrival_state is None:
        raise DomainError("segment carries no arrival data")
    prm = seg.params
    if prm.eps != eps:
        prm = prm.with_eps(eps)
    r_e = seg.entry_radius
    c_vec = np.array([prm.centre.x, prm.centre.y])

    y_arr = seg.arrival_state
    p_arr = EllipticPoint(y_arr[0], y_arr[1])
    v_cart = velocity_to_cartesian(p_arr, y_arr[2:])
    v_dir = v_cart / np.hypot(*v_cart)
    normal = np.array([-v_dir[1], v_dir[0]])
    pos0 = _cartesian_track(y_arr[None, :])[0]

    b0 = _IMPACT_OFFSET_FRAC * r_e
    db = _IMPACT_STEP_FRAC * r_e

    def theta_out(b: float) -> float:
        pos = CartesianPoint(*(pos0 + b * normal))
        y0 = _energy_consistent_state(pos, v_dir, prm)
        speed_cart = float(np.hypot(*velocity_to_cartesian(
            EllipticPoint(y0[0], y0[1]), y0[2:])))
        tau_max = 80.0 * r_e / speed_cart
        exit_ev = CentreProximity(radius=2.0 * r_e, direction=+1, terminal=True)
        traj = integrate(y0, prm, tau_max, tol=1e-12, events=[exit_ev])
        hits = [e for e in traj.events if e.kind == "centre_proximity"]
        if not hits:
            raise IntegrationError(
                "near-centre passage did not exit the measurement circle")
        y_exit = hits[0].state
        v_exit = velocity_to_cartesian(EllipticPoint(y_exit[0], y_exit[1]),
                                       y_exit[2:])
        return math.atan2(v_exit[1], v_exit[0])

    th_plus = theta_out(b0 + db)
    th_minus = theta_out(b0 - db)
    dtheta = math.atan2(math.sin(th_plus - th_minus),
                        math.cos(th_plus - th_minus))
    sensitivity = abs(dtheta) / (2.0 * db)
    if sensitivity <= 0.0:
        raise IntegrationError("degenerate zero sensitivity across the passage")
    return math.log(sensitivity)
