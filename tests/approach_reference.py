"""Sampled search for an arc's closest primary approach, the oracle of the
closed form.

`build_arc` once read `min_primary_distance` off 4,096 evenly spaced
states of the arc's path.  `arcs._closest_primary_approach` now runs
Newton searches from the closed-form times of the passages; the tests
check it against this dense search, whose every local minimum is refined
by golden section, and against the 4,096-sample value.
"""
from __future__ import annotations

import math

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def primary_distances(path, taus) -> np.ndarray:
    """Distance from the path to the nearer primary at the given times,
    as cosh xi - |cos phi| written without cancellation."""
    states = path.state_at(taus)
    xi, phi = states[..., 0], states[..., 1]
    psi = phi - math.pi * np.round(phi / math.pi)
    return 2.0 * np.sinh(0.5 * xi) ** 2 + 2.0 * np.sin(0.5 * psi) ** 2


def sampled_approach(path, n: int) -> float:
    """The least distance over n evenly spaced times, ends included."""
    return float(primary_distances(path, np.linspace(*path.taus, n)).min())


def refined_approach(path, n: int = 20_001, sweeps: int = 100) -> float:
    """The least distance over n evenly spaced times, each local minimum of
    the samples refined by `sweeps` golden-section steps over its two
    neighbouring intervals (all brackets at once)."""
    taus = np.linspace(*path.taus, n)
    d = primary_distances(path, taus)
    padded = np.concatenate([[math.inf], d, [math.inf]])
    low = np.flatnonzero((padded[1:-1] <= padded[:-2])
                         & (padded[1:-1] <= padded[2:]))
    a = taus[np.maximum(low - 1, 0)]
    b = taus[np.minimum(low + 1, n - 1)]
    best = float(d.min())
    for _ in range(sweeps):
        c = b - _GOLDEN * (b - a)
        e = a + _GOLDEN * (b - a)
        dc, de = primary_distances(path, c), primary_distances(path, e)
        best = min(best, float(dc.min()), float(de.min()))
        left = dc < de
        b = np.where(left, e, b)
        a = np.where(left, a, c)
    return best
