"""Reference shadowing deviation metric for the lockstep oracle test.

This is the earlier per-point implementation of
``tricentre.shadow._deviation_to_arc``, kept verbatim: a scalar
golden-section search on the arc's dense output for each point in turn.
The production version refines all points together and must agree with it
to rounding.
"""
from __future__ import annotations

import math

import numpy as np

from tricentre.arcs import CollisionArc
from tricentre.geometry import elliptic_to_xy


def _cartesian_track(states: np.ndarray) -> np.ndarray:
    return np.column_stack(elliptic_to_xy(states[:, 0], states[:, 1]))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _deviation_to_arc(points: np.ndarray, arc: CollisionArc,
                      n_seed: int = 4096) -> float:
    """Max over points of the distance to the continuous reference arc.

    A coarse polyline gives the nearest-sample seed; a golden-section
    refinement on the arc's dense output removes the discretization floor
    (the arc sweeps fast in Cartesian terms far from the primaries, where
    uniform-tau sampling is sparse).
    """
    arc_taus, arc_states = arc.path.dense_grid(n_seed)
    poly = _cartesian_track(arc_states)

    def dist_at(tau: float, p: np.ndarray) -> float:
        y = arc.path.state_at(tau)
        x, yy = elliptic_to_xy(y[0], y[1], math)
        return math.hypot(x - p[0], yy - p[1])

    worst = 0.0
    chunk = 256
    for s in range(0, len(points), chunk):
        pts = points[s:s + chunk]
        d2 = ((pts[:, None, :] - poly[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        for row, j in enumerate(nearest):
            p = pts[row]
            lo = arc_taus[max(j - 1, 0)]
            hi = arc_taus[min(j + 1, len(arc_taus) - 1)]
            a, b = lo, hi
            fa = dist_at(a + (1.0 - _GOLDEN) * (b - a), p)
            fb = dist_at(a + _GOLDEN * (b - a), p)
            t1, t2 = a + (1.0 - _GOLDEN) * (b - a), a + _GOLDEN * (b - a)
            for _ in range(40):
                if fa < fb:
                    b, t2, fb = t2, t1, fa
                    t1 = a + (1.0 - _GOLDEN) * (b - a)
                    fa = dist_at(t1, p)
                else:
                    a, t1, fa = t1, t2, fb
                    t2 = a + _GOLDEN * (b - a)
                    fb = dist_at(t2, p)
                if abs(b - a) < 1e-12 * max(1.0, abs(b)):
                    break
            worst = max(worst, min(fa, fb))
    return worst
