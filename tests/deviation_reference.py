"""Reference shadowing deviation metrics for the oracle tests.

Two earlier implementations of ``tricentre.shadow._deviation_to_arc``,
both refining each point's nearest polyline sample by 40 golden-section
steps inside [tau_(k-1), tau_(k+1)]:

- ``_deviation_to_arc`` refines one point at a time, a scalar search on
  the arc's dense output with math's functions.
- ``exhaustive_deviation_to_arc`` computes every squared distance from
  every point to every one of the 4,096 polyline samples
  (``exhaustive_nearest``), and refines every point together in numpy.
  The production seed search must give ``exhaustive_nearest``'s seeds bit
  for bit.

Both ends of an arc sit at C, so both refine a point seeded at either end
in both end brackets and keep the smaller value, as the production
version does; without that, a point near one end seeded at the other
reads its distance to C.  The production Newton search must agree with
both to the golden section's own floor: 40 steps leave 0.618^40 of the
seed bracket, across which a distance moves by up to max|P'| times it.
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
    last = len(arc_taus) - 1

    def dist_at(tau: float, p: np.ndarray) -> float:
        y = arc.path.state_at(tau)
        x, yy = elliptic_to_xy(y[0], y[1], math)
        return math.hypot(x - p[0], yy - p[1])

    def refined(j: int, p: np.ndarray) -> float:
        a, b = arc_taus[max(j - 1, 0)], arc_taus[min(j + 1, last)]
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
        return min(fa, fb)

    worst = 0.0
    chunk = 256
    for s in range(0, len(points), chunk):
        pts = points[s:s + chunk]
        d2 = ((pts[:, None, :] - poly[None, :, :]) ** 2).sum(axis=2)
        nearest = np.argmin(d2, axis=1)
        for row, j in enumerate(nearest):
            seeds = (j, last - j) if j in (0, last) else (j,)
            worst = max(worst, min(refined(k, pts[row]) for k in seeds))
    return worst


def exhaustive_nearest(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Index of the nearest polyline sample to each point, by argmin over
    every sample in blocks of 32 points."""
    px, py = points[:, 0], points[:, 1]
    nearest = np.empty(len(points), dtype=np.intp)
    dx2 = np.empty((min(32, len(points)), len(poly)))
    dy2 = np.empty_like(dx2)
    for s in range(0, len(points), 32):
        e = min(s + 32, len(points))
        bx, by = dx2[:e - s], dy2[:e - s]
        np.square(np.subtract(px[s:e, None], poly[:, 0], out=bx), out=bx)
        np.square(np.subtract(py[s:e, None], poly[:, 1], out=by), out=by)
        nearest[s:e] = np.argmin(np.add(bx, by, out=bx), axis=1)
    return nearest


def exhaustive_deviation_to_arc(points: np.ndarray,
                                arc: CollisionArc) -> float:
    """Max over points of the distance to the continuous reference arc,
    with every point seeded exhaustively and refined in lockstep."""
    arc_taus, arc_states = arc.path.dense_grid(4096)
    nearest = exhaustive_nearest(points, _cartesian_track(arc_states))
    last, n = len(arc_taus) - 1, len(points)
    ends = np.flatnonzero((nearest == 0) | (nearest == last))
    nearest = np.concatenate([nearest, last - nearest[ends]])
    points = points[np.concatenate([np.arange(n), ends])]
    px, py = points[:, 0], points[:, 1]

    def dist_at(tau: np.ndarray, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
        y = arc.path.state_at(tau)
        x, yy = elliptic_to_xy(y[:, 0], y[:, 1])
        return np.hypot(x - qx, yy - qy)

    a = arc_taus[np.maximum(nearest - 1, 0)]
    b = arc_taus[np.minimum(nearest + 1, last)]
    t1, t2 = a + (1.0 - _GOLDEN) * (b - a), a + _GOLDEN * (b - a)
    fa, fb = dist_at(t1, px, py), dist_at(t2, px, py)
    for _ in range(40):
        left = fa < fb
        a, b = np.where(left, a, t1), np.where(left, t2, b)
        t_new = a + np.where(left, 1.0 - _GOLDEN, _GOLDEN) * (b - a)
        f_new = dist_at(t_new, px, py)
        t1, t2 = np.where(left, t_new, t2), np.where(left, t1, t_new)
        fa, fb = np.where(left, f_new, fb), np.where(left, fa, f_new)
    value = np.minimum(fa, fb)
    value[ends] = np.minimum(value[ends], value[n:])
    return float(value[:n].max(initial=0.0))
