"""Potentials, regularized Hamiltonian and the trajectory integrator.

The regularized system evolves y = (xi, phi, xi', phi') in the rescaled
time tau, with Hamiltonian

    H = (xi'^2 + phi'^2)/2 - 2 a cosh(xi) - [E - eps*V](cosh^2 xi - cos^2 phi)

whose zero level carries the fixed-energy orbits of the physical problem.
For eps = 0 the flow separates into a double-well oscillation in xi and a
rotating-pendulum motion in phi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import _kernels
from ._kernels import StepStats
from ._output import write_csv, write_json
from .errors import DomainError, IntegrationError, SingularityError
from .geometry import (
    CartesianPoint,
    EllipticPoint,
    elliptic_to_cartesian,
    elliptic_to_xy,
    physical_time_of,
)
from .params import Params

__all__ = [
    "Params", "EllipticState", "Trajectory",
    "XiCrossing", "PhiCrossing", "CentreProximity",
    "EventRecord", "StepStats",
    "primary_potential", "centre_potential",
    "regularized_hamiltonian", "vector_field",
    "integrate",
    "trajectory_to_csv", "trajectory_to_json",
]

MAX_STEPS = 2_000_000         # step attempts of one integration
EXCLUSION_RADIUS_FRAC = 0.01  # radius of the ball around C refused, over eps
_CSV_ROWS = 1000              # dense-output rows of a trajectory CSV


@dataclass(frozen=True)
class EllipticState:
    point: EllipticPoint
    xi_prime: float
    phi_prime: float

    def as_array(self) -> np.ndarray:
        return np.array([self.point.xi, self.point.phi,
                         self.xi_prime, self.phi_prime])

    @staticmethod
    def from_array(y) -> "EllipticState":
        return EllipticState(EllipticPoint(float(y[0]), float(y[1])),
                             float(y[2]), float(y[3]))


def _as_state_array(state) -> np.ndarray:
    if isinstance(state, EllipticState):
        return state.as_array()
    y = np.asarray(state, dtype=float)
    if y.shape != (4,):
        raise DomainError(f"state must have 4 components, got shape {y.shape}")
    return y.copy()


# ---------------------------------------------------------------------------
# potentials and Hamiltonian

def primary_potential(p: CartesianPoint, a: float) -> float:
    """Gravitational potential of the two primaries at (+1, 0) and (-1, 0)."""
    d1 = math.hypot(p.x - 1.0, p.y)
    d2 = math.hypot(p.x + 1.0, p.y)
    if d1 < 1e-13 or d2 < 1e-13:
        raise SingularityError(f"potential singular at primary: ({p.x}, {p.y})")
    return -a / d2 - a / d1


def centre_potential(p: CartesianPoint, centre: CartesianPoint) -> float:
    """Unit-intensity potential of the perturbing centre."""
    d = p.distance_to(centre)
    if d < 1e-13:
        raise SingularityError("potential singular at the perturbing centre")
    return -1.0 / d


def regularized_hamiltonian(state, prm: Params) -> float:
    """Value of the regularized Hamiltonian; 0 on orbits of energy prm.energy."""
    y = _as_state_array(state)
    if prm.eps > 0.0:
        _check_off_centre(y, prm, "state at the perturbing centre with eps > 0")
    return float(hamiltonian_values(y[None, :], prm)[0])


def hamiltonian_values(states: np.ndarray, prm: Params) -> np.ndarray:
    """Vectorized Hamiltonian over an (n, 4) state array."""
    xi, phi = states[:, 0], states[:, 1]
    ch, cp = np.cosh(xi), np.cos(phi)
    rho = ch * ch - cp * cp
    val = 0.5 * (states[:, 2] ** 2 + states[:, 3] ** 2) - 2.0 * prm.a * ch \
        - prm.energy * rho
    if prm.eps != 0.0:
        x, yy = elliptic_to_xy(xi, phi)
        r = np.hypot(x - prm.centre.x, yy - prm.centre.y)
        val += prm.eps * (-1.0 / r) * rho
    return val


def vector_field(state, prm: Params) -> np.ndarray:
    """d(state)/dtau from Hamilton's equations of the regularized system."""
    y = _as_state_array(state)
    if prm.eps > 0.0:
        _check_off_centre(y, prm, "vector field singular at the perturbing centre")
    rhs = _kernels.field(prm.a, prm.energy, prm.eps, *_centre_xy(prm))
    return np.array(rhs(*(float(v) for v in y)))


def _check_off_centre(y: np.ndarray, prm: Params, message: str) -> None:
    pos = elliptic_to_cartesian(EllipticPoint(y[0], y[1]))
    if pos.distance_to(prm.centre) < 1e-13:
        raise SingularityError(message)


def _centre_xy(prm: Params) -> tuple[float, float]:
    if prm.centre is None:
        return 0.0, 0.0
    return prm.centre.x, prm.centre.y


# ---------------------------------------------------------------------------
# event specifications
#
# Every spec has g(states, prm), whose sign changes mark its roots, over an
# (..., 4) state array: the scan passes the whole dense-output grid and the
# root refinement one state of shape (4,).  accept(y) filters the roots.

@dataclass(frozen=True)
class XiCrossing:
    """Crossing of the confocal ellipse xi = value; direction +1/-1/0=any."""
    value: float
    direction: int = 0
    terminal: bool = False
    kind: str = field(default="xi_crossing", init=False)

    def g(self, states: np.ndarray, prm: Params):
        return states[..., 0] - self.value

    def accept(self, y: np.ndarray) -> bool:
        return True


@dataclass(frozen=True)
class PhiCrossing:
    """Crossing of phi = value (mod 2pi), any rotation direction."""
    value: float
    terminal: bool = False
    kind: str = field(default="phi_crossing", init=False)
    direction: int = field(default=0, init=False)

    def g(self, states: np.ndarray, prm: Params):
        # sin vanishes at value mod pi; the accept() filter keeps mod 2pi
        return np.sin(states[..., 1] - self.value)

    def accept(self, y: np.ndarray) -> bool:
        return math.cos(y[1] - self.value) > 0.0


@dataclass(frozen=True)
class CentreProximity:
    """Crossing of the circle dist(., centre) = radius; -1 means entering."""
    radius: float
    direction: int = -1
    terminal: bool = False
    kind: str = field(default="centre_proximity", init=False)

    def g(self, states: np.ndarray, prm: Params):
        # a single state is mapped through math, as the DOPRI kernel does
        lib = math if states.ndim == 1 else np
        cx, cy = _centre_xy(prm)
        x, y = elliptic_to_xy(states[..., 0], states[..., 1], lib)
        return (x - cx) ** 2 + (y - cy) ** 2 - self.radius ** 2

    def accept(self, y: np.ndarray) -> bool:
        return True


@dataclass(frozen=True)
class EventRecord:
    kind: str
    tau: float
    state: np.ndarray
    spec: object = None


# ---------------------------------------------------------------------------
# trajectory container with dense output

class Trajectory:
    """Result of one integration: accepted samples plus dense interpolant.

    Step i of the dense output starts at taus[i], has length h[i] and the
    coefficients dense_q[i] = K_i^T P (4 components x 4 powers); a run
    without dense output passes empty h and dense_q.  A truncated copy
    keeps the full h of the step that holds its cut, so its last h may
    exceed taus[-1] - taus[-2].  `stats` reports the steps of the
    integration that produced it, also for a truncated copy, which keeps
    the events up to its cut.
    """

    def __init__(self, prm: Params, taus: np.ndarray, states: np.ndarray,
                 h: np.ndarray, dense_q: np.ndarray,
                 events: Sequence[EventRecord], stats: StepStats):
        self.params = prm
        self.taus = taus
        self.states = states
        self._h = h
        self._dense_q = dense_q
        self.events = list(events)
        self.stats = stats

    @cached_property
    def energy_drift(self) -> float:
        """Largest |H - H(first sample)| over the samples."""
        hvals = hamiltonian_values(self.states, self.params)
        return float(np.max(np.abs(hvals - hvals[0])))

    @property
    def tau_final(self) -> float:
        return float(self.taus[-1])

    def state_at(self, tau) -> np.ndarray:
        """Dense-output state(s) at scalar or array tau inside the span."""
        scalar = np.isscalar(tau)
        t = np.atleast_1d(np.asarray(tau, dtype=float))
        if len(self.taus) == 1:
            out = np.repeat(self.states[:1], len(t), axis=0)
            return out[0] if scalar else out
        ascending = self.taus[-1] >= self.taus[0]
        grid = self.taus if ascending else -self.taus
        q = t if ascending else -t
        idx = np.clip(np.searchsorted(grid, q, side="right") - 1, 0,
                      len(self._h) - 1)
        th = (t - self.taus[idx]) / self._h[idx]
        powers = np.stack([th, th**2, th**3, th**4], axis=-1)
        corr = np.einsum("ncp,np->nc", self._dense_q[idx], powers)
        out = self.states[idx] + self._h[idx][:, None] * corr
        return out[0] if scalar else out

    def truncated(self, tau_star: float) -> "Trajectory":
        """Copy of this trajectory cut at tau_star (earlier events kept).

        A cut within 1e-15*max(1, |tau_star|) after a sample ends at that
        sample.  The copy keeps the parent's dense steps up to the one that
        holds the cut, with that step's full h, so its dense output is the
        parent's on its span.  It keeps the parent's stats.
        """
        ascending = self.taus[-1] >= self.taus[0]
        grid = self.taus if ascending else -self.taus
        q = tau_star if ascending else -tau_star
        n = int(np.searchsorted(grid, q, side="right"))
        n = max(1, min(n, len(self.taus)))
        if abs(self.taus[n - 1] - tau_star) <= 1e-15 * max(1.0, abs(tau_star)):
            taus = self.taus[:n].copy()
            states = self.states[:n].copy()
        else:
            taus = np.concatenate([self.taus[:n], [tau_star]])
            states = np.vstack([self.states[:n], self.state_at(tau_star)])
        events = [e for e in self.events
                  if (e.tau <= tau_star + 1e-15 if ascending
                      else e.tau >= tau_star - 1e-15)]
        return Trajectory(self.params, taus, states, self._h[:n],
                          self._dense_q[:n], events, self.stats)

    def dense_grid(self, n: int = 1024) -> tuple[np.ndarray, np.ndarray]:
        """Uniform tau grid with dense-output states, endpoints included."""
        t = np.linspace(self.taus[0], self.taus[-1], n)
        return t, self.state_at(t)


# ---------------------------------------------------------------------------
# event engine

_SCAN_POINTS = 8  # dense samples per accepted step used for sign scanning


def _detect_events(traj_T, traj_Y, h, dense_q, prm, specs):
    """Locate event roots on the dense output; returns sorted EventRecords."""
    nstep = len(traj_T) - 1
    if nstep < 1 or not specs:
        return []
    theta = np.linspace(0.0, 1.0, _SCAN_POINTS + 1)
    powers = np.stack([theta, theta**2, theta**3, theta**4], axis=-1)
    # grid[i, j] = state at traj_T[i] + theta[j]*h[i]
    corr = np.einsum("scp,gp->sgc", dense_q, powers)
    grid = traj_Y[:-1, None, :] + h[:, None, None] * corr
    tau_grid = traj_T[:-1, None] + h[:, None] * theta[None, :]

    def dense_state(i, tau):
        th = (tau - traj_T[i]) / h[i]
        p = np.array([th, th**2, th**3, th**4])
        return traj_Y[i] + h[i] * (dense_q[i] @ p)

    records = []
    for spec in specs:
        g = spec.g(grid, prm)
        steps, cells = np.nonzero((g[:, :-1] * g[:, 1:]) < 0.0)
        brackets = [(i, tau_grid[i, j], tau_grid[i, j + 1], g[i, j], g[i, j + 1])
                    for i, j in zip(steps, cells)]
        # A root exactly on scan points flips no cell: bracket it with zero
        # width at the last zero of each run whose neighbours differ in sign.
        flat, taus = g.ravel(), tau_grid.ravel()
        zeros = np.flatnonzero(flat == 0.0)
        nonzero = np.flatnonzero(flat) if zeros.size else zeros
        for k in zeros:
            pos = np.searchsorted(nonzero, k)
            if 0 < pos < nonzero.size and nonzero[pos] == k + 1:
                ga, gb = flat[nonzero[pos - 1]], flat[k + 1]
                if ga * gb < 0.0:
                    brackets.append((k // g.shape[1], taus[k], taus[k], ga, gb))
        for i, ta, tb, ga, gb in brackets:
            direction = 1 if gb > ga else -1
            if spec.direction != 0 and direction != spec.direction:
                continue
            tau_star, y_star = _refine_root(
                lambda tt, ii=i: dense_state(ii, tt),
                lambda yv: spec.g(yv, prm),
                ta, tb, ga, gb)
            if spec.accept(y_star):
                records.append(EventRecord(spec.kind, tau_star, y_star, spec))
    ascending = traj_T[-1] >= traj_T[0]
    records.sort(key=lambda r: r.tau if ascending else -r.tau)
    return records


def _refine_root(state_of, g_of, ta, tb, ga, gb, tol=1e-12, max_iter=80):
    """Bisection/secant hybrid root refinement to ~1e-12 in tau."""
    for _ in range(max_iter):
        if abs(tb - ta) <= tol * max(1.0, abs(ta), abs(tb)):
            break
        # secant candidate, safeguarded to the interior
        denom = gb - ga
        if denom != 0.0:
            tc = tb - gb * (tb - ta) / denom
        else:
            tc = 0.5 * (ta + tb)
        lo, hi = (ta, tb) if ta < tb else (tb, ta)
        if not (lo + 0.1 * (hi - lo) <= tc <= hi - 0.1 * (hi - lo)):
            tc = 0.5 * (ta + tb)
        yc = state_of(tc)
        gc = g_of(yc)
        if gc == 0.0:
            return tc, yc
        if (ga < 0) != (gc < 0):
            tb, gb = tc, gc
        else:
            ta, ga = tc, gc
    t_star = 0.5 * (ta + tb)
    return t_star, state_of(t_star)


# ---------------------------------------------------------------------------
# integrate

def integrate(state0, prm: Params, tau_end: float, tol: float = 1e-10,
              events: Sequence = ()) -> Trajectory:
    """Integrate the regularized flow from tau = 0 to tau_end.

    tol sets both relative and absolute local error targets of the embedded
    5(4) pair.  The stepper makes at most MAX_STEPS attempts and never
    enters the ball of radius EXCLUSION_RADIUS_FRAC*eps around the centre.
    Event specs are located on the dense output by sign-change scanning
    plus hybrid root refinement; a spec with terminal=True truncates the
    returned trajectory at its first occurrence.  A terminal root on the
    accepted steps outranks a later failure of the stepper (step underflow,
    exhausted budget, exclusion ball), which raises IntegrationError only
    when no terminal root precedes it.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    y0 = _as_state_array(state0)
    tau_end = float(tau_end)
    r_min = EXCLUSION_RADIUS_FRAC * prm.eps

    status, n, T, Y, KS, stats = _kernels.dopri5_core(
        y0, tau_end, tol, MAX_STEPS, prm.a, prm.energy, prm.eps,
        *_centre_xy(prm), r_min)

    h = np.diff(T)
    dense_q = np.einsum("skc,kp->scp", KS, _kernels.DENSE_P)
    records = _detect_events(T, Y, h, dense_q, prm, list(events))
    traj = Trajectory(prm, T, Y, h, dense_q, records, stats)
    for rec in records:
        if rec.spec.terminal:
            return traj.truncated(rec.tau)

    if status == _kernels.STATUS_STEP_UNDERFLOW:
        raise IntegrationError(
            f"step size underflow at tau={T[n]:.6g} (singularity approach?)")
    if status == _kernels.STATUS_MAX_STEPS:
        raise IntegrationError(f"step budget {MAX_STEPS} exhausted at tau={T[n]:.6g}")
    if status == _kernels.STATUS_ENTERED_EXCLUSION_BALL:
        raise IntegrationError(
            f"trajectory entered the exclusion ball of radius {r_min:.3g}"
            f" around the perturbing centre at tau={T[n]:.6g}")
    return traj


# ---------------------------------------------------------------------------
# export

def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write tau, elliptic state, physical time and Cartesian position,
    on a uniform grid of 1000 dense-output points."""
    taus, states = traj.dense_grid(_CSV_ROWS) if len(traj.taus) > 1 else (
        traj.taus, traj.states)
    t_phys = physical_time_of(taus, states[:, 0], states[:, 1])
    x, y = elliptic_to_xy(states[:, 0], states[:, 1])
    write_csv(path, ["tau", "xi", "phi", "xi_prime", "phi_prime",
                     "t_physical", "x", "y"],
              [taus, *states.T, t_phys, x, y])


def trajectory_to_json(traj: Trajectory, path) -> None:
    """Write integration metadata and event records."""
    doc = {
        "tau_span": [float(traj.taus[0]), float(traj.taus[-1])],
        "n_samples": int(len(traj.taus)),
        "energy": traj.params.energy,
        "energy_drift": traj.energy_drift,
        "events": [
            {"kind": e.kind, "tau": float(e.tau),
             "state": [float(v) for v in e.state]}
            for e in traj.events
        ],
    }
    write_json(path, doc)
