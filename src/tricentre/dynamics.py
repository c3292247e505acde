"""Regularized Hamiltonian and the trajectory integrator.

The regularized system evolves y = (xi, phi, xi', phi') in the rescaled
time tau, with Hamiltonian

    H = (xi'^2 + phi'^2)/2 - 2 cosh(xi) - [E - eps*V](cosh^2 xi - cos^2 phi)

whose zero level carries the fixed-energy orbits of the physical problem.
For eps = 0 the flow separates into a double-well oscillation in xi and a
rotating-pendulum motion in phi.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from ._kernels import StepStats
from ._output import write_json
from .errors import DomainError, IntegrationError
from .geometry import elliptic_to_xy
from .params import Params
from .periods import _bracketed_root

__all__ = [
    "Params", "Trajectory",
    "PhiCrossing", "CentreProximity",
    "EventRecord", "StepStats",
    "integrate", "trajectory_to_json",
]

MAX_STEPS = 2_000_000         # step attempts of one integration
EXCLUSION_RADIUS_FRAC = 0.01  # radius of the ball around C refused, over eps


def _as_state_array(state) -> np.ndarray:
    y = np.asarray(state, dtype=float)
    if y.shape != (4,):
        raise DomainError(f"state must have 4 components, got shape {y.shape}")
    return y.copy()


# ---------------------------------------------------------------------------
# Hamiltonian

def hamiltonian_values(states: np.ndarray, prm: Params) -> np.ndarray:
    """Regularized Hamiltonian over an (n, 4) state array; 0 on orbits of
    energy prm.energy."""
    xi, phi = states[:, 0], states[:, 1]
    ch, cp = np.cosh(xi), np.cos(phi)
    rho = ch * ch - cp * cp
    val = 0.5 * (states[:, 2] ** 2 + states[:, 3] ** 2) - 2.0 * ch \
        - prm.energy * rho
    if prm.eps != 0.0:
        x, yy = elliptic_to_xy(xi, phi)
        r = np.hypot(x - prm.centre.x, yy - prm.centre.y)
        val += prm.eps * (-1.0 / r) * rho
    return val


def _centre_xy(prm: Params) -> tuple[float, float]:
    return prm.centre or (0.0, 0.0)


# ---------------------------------------------------------------------------
# event specifications
#
# Every spec has g(states, prm), whose sign changes in `direction` (+1, -1
# or 0 = any) mark its roots, over an (..., 4) state array: the scan passes
# the whole dense-output grid and the root refinement one state of shape
# (4,).  Each root becomes an EventRecord of the spec's `kind`.

class PhiCrossing(NamedTuple("PhiCrossing", [("value", float), ("kind", str),
                                             ("direction", int)])):
    """Crossing of phi = value (mod 2pi), any rotation direction."""

    __slots__ = ()
    __getnewargs__ = lambda self: self[:1]  # for copy and pickle

    def __new__(cls, value: float):
        return tuple.__new__(cls, (value, "phi_crossing", 0))

    def g(self, states: np.ndarray, prm: Params):
        # the half angle vanishes, with a sign change, only at value mod 2pi
        return np.sin(0.5 * (states[..., 1] - self.value))


class CentreProximity(NamedTuple("CentreProximity", [
        ("radius", float), ("direction", int), ("kind", str)])):
    """Crossing of the circle dist(., centre) = radius; -1 means entering."""

    __slots__ = ()
    __getnewargs__ = lambda self: self[:2]  # for copy and pickle

    def __new__(cls, radius: float, direction: int = -1):
        return tuple.__new__(cls, (radius, direction, "centre_proximity"))

    def g(self, states: np.ndarray, prm: Params):
        # a single state is mapped through math, as the stepping kernel does
        lib = math if states.ndim == 1 else np
        c = prm.centre
        if c is None:
            raise DomainError("CentreProximity needs a perturbing centre")
        x, y = elliptic_to_xy(states[..., 0], states[..., 1], lib)
        return (x - c.x) ** 2 + (y - c.y) ** 2 - self.radius ** 2


class EventRecord(NamedTuple):
    kind: str
    tau: float
    state: np.ndarray
    spec: object = None


# ---------------------------------------------------------------------------
# trajectory container with dense output

class Trajectory:
    """Result of one integration: accepted samples plus dense interpolant.

    Step i runs from taus[i] to taus[i+1], as the signed step steps[i] of
    the kernel, with the stage derivatives stages[i] (see
    `_kernels.dop853_core`).  Its seventh-order dense output needs three
    more field calls per step; they are made for every step on the first
    query between samples (`state_at`, `dense_grid`, the event scan) and
    then counted in `stats`, which reports the steps of the integration
    that produced the trajectory.  A run without dense output passes empty
    steps and stages.  `replay` pushes another start state through the same
    steps (`_kernels.dop853_replay`), the twin of shooting's Jacobian.
    """

    def __init__(self, prm: Params, taus: np.ndarray, states: np.ndarray,
                 steps, stages: np.ndarray, stats: StepStats):
        self.params = prm
        self.taus = taus
        self.states = states
        self._h = np.diff(taus)
        self._steps = steps
        self._stages = stages
        self.events: list[EventRecord] = []
        self.stats = stats

    @cached_property
    def _dense(self) -> np.ndarray:
        """The (n, 7, 4) dense coefficients of `_kernels.dop853_dense`."""
        prm = self.params
        coeffs, calls = _kernels.dop853_dense(
            self.states, self._stages, self._steps, prm.energy, prm.eps,
            *_centre_xy(prm))
        self.stats = self.stats._replace(
            rhs_evals=self.stats.rhs_evals + calls)
        return coeffs

    def replay(self, state0) -> tuple[tuple[float, ...], int]:
        """End state of state0 pushed through this run's accepted steps
        under its params, and the field calls made; the run's own start
        state ends on its last state, bitwise.  The steps are not error
        controlled for state0, so a twin that leaves the run's path can
        overflow: IntegrationError, as for a non-finite end state."""
        prm = self.params
        try:
            end, calls = _kernels.dop853_replay(
                state0, self._steps, prm.energy, prm.eps, *_centre_xy(prm))
        except OverflowError as exc:
            raise IntegrationError(f"the replayed twin overflowed: {exc}") \
                from exc
        if not all(map(math.isfinite, end)):
            raise IntegrationError("the replayed twin ended non-finite")
        return end, calls

    def _dense_states(self, idx, th) -> np.ndarray:
        """States at the fractions th of the steps idx (broadcast together)."""
        f = self._dense[idx]
        th = np.asarray(th)[..., None]
        acc = f[..., 6, :]
        for j in range(5, -1, -1):
            acc = f[..., j, :] + (th if j % 2 else 1.0 - th) * acc
        return self.states[idx] + th * acc

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
        out = self._dense_states(idx, (t - self.taus[idx]) / self._h[idx])
        return out[0] if scalar else out

    def dense_grid(self, n: int = 1024) -> tuple[np.ndarray, np.ndarray]:
        """Uniform tau grid with dense-output states, endpoints included."""
        t = np.linspace(self.taus[0], self.taus[-1], n)
        return t, self.state_at(t)


# ---------------------------------------------------------------------------
# event engine

_SCAN_POINTS = 8  # dense samples per accepted step used for sign scanning
_ROOT_TOL = 1e-12  # relative tau width at which a root bracket stops


def _detect_events(traj: Trajectory, specs):
    """Locate event roots on the dense output; returns sorted EventRecords."""
    traj_T, h, prm = traj.taus, traj._h, traj.params
    nstep = len(traj_T) - 1
    if nstep < 1 or not specs:
        return []
    theta = np.linspace(0.0, 1.0, _SCAN_POINTS + 1)
    # grid[i, j] = state at traj_T[i] + theta[j]*h[i]
    grid = traj._dense_states(np.arange(nstep)[:, None], theta[None, :])
    tau_grid = traj_T[:-1, None] + h[:, None] * theta[None, :]

    def dense_state(i, tau):
        return traj._dense_states(i, (tau - traj_T[i]) / h[i])

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
            if ta > tb:  # a backward integration scans tau downwards
                ta, tb, ga, gb = tb, ta, gb, ga
            tau_star, _ = _bracketed_root(
                lambda tt, ii=i: spec.g(dense_state(ii, tt), prm),
                ta, tb, ga, gb, 0.0, _ROOT_TOL)
            records.append(EventRecord(spec.kind, tau_star,
                                       dense_state(i, tau_star), spec))
    ascending = traj_T[-1] >= traj_T[0]
    records.sort(key=lambda r: r.tau if ascending else -r.tau)
    return records


# ---------------------------------------------------------------------------
# integrate

def integrate(state0, prm: Params, tau_end: float, tol: float = 1e-10,
              events: Sequence = ()) -> Trajectory:
    """Integrate the regularized flow from tau = 0 to tau_end.

    tol sets both relative and absolute local error targets of the DOP853
    pair (order 8, error estimators of orders 5 and 3).  The stepper makes
    at most MAX_STEPS attempts and never enters the ball of radius
    EXCLUSION_RADIUS_FRAC*eps around the centre.  A failure of the stepper
    (step underflow, exhausted budget, exclusion ball) raises
    IntegrationError.  Event specs are located on the dense output by
    sign-change scanning plus Illinois root refinement and reported on the
    returned trajectory; they never change the run.  A tol, tau_end or
    state that is not finite raises DomainError.
    """
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be positive and finite, got {tol}")
    y0 = _as_state_array(state0)
    tau_end = float(tau_end)
    if not (math.isfinite(tau_end) and np.all(np.isfinite(y0))):
        raise DomainError(f"tau_end and state must be finite, got {tau_end}"
                          f" and {y0.tolist()}")
    T, Y, KS, stats, steps = _kernels.dop853_core(
        y0, tau_end, tol, MAX_STEPS, prm.energy, prm.eps,
        *_centre_xy(prm), EXCLUSION_RADIUS_FRAC * prm.eps)
    traj = Trajectory(prm, T, Y, steps, KS, stats)
    traj.events = _detect_events(traj, list(events))
    return traj


# ---------------------------------------------------------------------------
# export

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
