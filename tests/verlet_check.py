"""Fixed-step velocity-Verlet integrator for the symplectic cross-check.

The regularized Hamiltonian is separable (kinetic + position-only
potential), so the scheme is symplectic for it.  Only the cross-check in
``test_dynamics.py`` uses it, against the adaptive DOP853 integrator.
"""
from __future__ import annotations

import math

import numpy as np

from tricentre import _kernels
from tricentre._kernels import StepStats
from tricentre.dynamics import Params, Trajectory, _as_state_array, _centre_xy
from tricentre.errors import DomainError


def verlet_core(y0, tau0, tau1, dt, stride, energy, eps, cx, cy):
    """Velocity-Verlet steps of size about dt from tau0 to tau1.

    Samples every `stride` steps plus the final state.  Returns
    (T, Y, stats).
    """
    rhs = _kernels.field(energy, eps, cx, cy)
    span = tau1 - tau0
    nsteps = int(math.ceil(abs(span) / dt))
    if nsteps < 1:
        nsteps = 1
    h = span / nsteps
    nsamp = nsteps // stride + 2
    T = np.empty(nsamp)
    Y = np.empty((nsamp, 4))

    xi, phi, pxi, pphi = (float(v) for v in y0)
    _, _, acc0, acc1 = rhs(xi, phi, pxi, pphi)
    T[0] = tau0
    Y[0] = (xi, phi, pxi, pphi)
    m = 1
    for step in range(nsteps):
        pxi_h = pxi + 0.5 * h * acc0
        pphi_h = pphi + 0.5 * h * acc1
        xi += h * pxi_h
        phi += h * pphi_h
        _, _, acc0, acc1 = rhs(xi, phi, pxi_h, pphi_h)
        pxi = pxi_h + 0.5 * h * acc0
        pphi = pphi_h + 0.5 * h * acc1
        if (step + 1) % stride == 0 or step == nsteps - 1:
            T[m] = tau0 + (step + 1) * h
            Y[m] = (xi, phi, pxi, pphi)
            m += 1
    stats = StepStats(nsteps, 0, nsteps + 1, abs(h), abs(h))
    return T[:m].copy(), Y[:m].copy(), stats


def integrate_symplectic(state0, prm: Params, tau_end: float,
                         dt: float = 1e-4, stride: int = 16) -> Trajectory:
    """Fixed-step velocity-Verlet run (no events, no dense output)."""
    if dt <= 0.0:
        raise DomainError(f"dt must be positive, got {dt}")
    y0 = _as_state_array(state0)
    cx, cy = _centre_xy(prm)
    T, Y, stats = verlet_core(y0, 0.0, float(tau_end), float(dt),
                              int(stride), prm.energy, prm.eps, cx, cy)
    return Trajectory(prm, T, Y, np.zeros(0), np.zeros((0, 9, 4)), stats)
