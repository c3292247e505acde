"""Deterministic data sets behind the standard family portraits.

Six canned configurations: the two separated-system potential curves, the
full q = 1 orbit family portrait with the primary-colliding pair, the
two-orbit bundles through the reference off-axis centre for q = 1 and
q = 2, and the enlargement of the q = 2 bundle around its
self-intersections.  Every orbit track is an eps = 0 orbit, sampled from
its closed form (`arcs.SeparatedPath`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arcs import SeparatedPath
from .errors import DomainError
from .geometry import EllipticPoint, elliptic_to_cartesian, elliptic_to_xy
from .params import Params
from .periods import solve_resonant_a1, turning_point_xi

__all__ = ["OrbitTrack", "xi_potential_curve", "phi_potential_curve",
           "orbit_family_portrait", "orbit_bundle_through",
           "polyline_self_intersections"]

_CURVE_POINTS = 1201   # samples of each potential curve
_PORTRAIT_ORBITS = 18  # distinct orbits of figure 3 besides the colliding pair
_SKIP_ADJACENT = 2     # segment pairs this close in index never cross


@dataclass
class OrbitTrack:
    name: str
    taus: np.ndarray
    states: np.ndarray  # (n, 4) elliptic
    x: np.ndarray
    y: np.ndarray
    colliding: bool


def xi_potential_curve(energy: float):
    """Effective xi potential -2 cosh(xi) + |E| cosh(xi)^2 and its minima.

    For |E| < 1 the curve, sampled on xi in [-3, 3], is a double well with
    minima at cosh(xi) = 1/|E| and a local maximum at xi = 0.
    """
    if energy >= 0.0:
        raise DomainError("the double-well shape requires energy < 0")
    xi = np.linspace(-3.0, 3.0, _CURVE_POINTS)
    pot = -2.0 * np.cosh(xi) + abs(energy) * np.cosh(xi) ** 2
    meta = {}
    if abs(energy) < 1.0:
        c = 1.0 / abs(energy)  # cosh(xi) at the minima
        meta = {"minima_xi": [-math.acosh(c), math.acosh(c)],
                "cosh_minima": c, "value_at_minima": -c,
                "local_max_value": abs(energy) - 2.0}
    return xi, pot, meta


def phi_potential_curve(energy: float):
    """Pendulum-type phi potential -|E| cos(phi)^2 over one revolution."""
    if energy >= 0.0:
        raise DomainError("energy must be negative")
    phi = np.linspace(0.0, 2.0 * math.pi, _CURVE_POINTS)
    pot = -abs(energy) * np.cos(phi) ** 2
    meta = {"minima_phi": [0.0, math.pi], "minimum_value": -abs(energy)}
    return phi, pot, meta


def _orbit_track(prm: Params, start: EllipticPoint, sign: int, t_span: float,
                 name: str, colliding: bool,
                 n_samples: int = 2000) -> OrbitTrack:
    path = SeparatedPath(prm, start, sign, 1, t_span)
    taus, states = path.dense_grid(n_samples)
    x, y = elliptic_to_xy(states[:, 0], states[:, 1])
    return OrbitTrack(name=name, taus=taus, states=states, x=x, y=y,
                      colliding=colliding)


def orbit_family_portrait(beta: float = 1.0 / 7.0) -> list[OrbitTrack]:
    """18 distinct periodic orbits of class q = 1 plus the colliding pair.

    Orbits are parametrized by the phi phase at an upward xi = 0 crossing;
    phases in (0, pi) give distinct curves (a phase shift by pi retraces
    the same curve).  The two orbits seeded exactly at a primary are the
    colliding pair.
    """
    q = Fraction(1)
    sol = solve_resonant_a1(beta, q)
    t_span = sol.full_period
    prm = Params(beta=beta, a1=sol.a1_hat, q=q)
    tracks = []
    for k in range(_PORTRAIT_ORBITS):
        start = EllipticPoint(0.0, (k + 0.5) * math.pi / _PORTRAIT_ORBITS)
        tracks.append(_orbit_track(prm, start, 1, t_span, f"orbit_{k:02d}",
                                   False))
    for label, sign in (("colliding_0", 1), ("colliding_1", -1)):
        tracks.append(_orbit_track(prm, EllipticPoint(0.0, 0.0), sign, t_span,
                                   label, True))
    return tracks


def orbit_bundle_through(q, beta: float = 1.0 / 7.0) -> list[OrbitTrack]:
    """The two transverse periodic orbits through (2/3 xi_plus, 0)."""
    q = Fraction(q)
    sol = solve_resonant_a1(beta, q)
    xi_plus = turning_point_xi(beta, sol.a1_hat)
    centre = EllipticPoint(2.0 / 3.0 * xi_plus, 0.0)
    prm = Params(beta=beta, a1=sol.a1_hat, q=q,
                 centre=elliptic_to_cartesian(centre))
    t_span = sol.full_period
    return [_orbit_track(prm, centre, sign, t_span, label, False,
                         n_samples=4000)
            for label, sign in (("orbit_pos", 1), ("orbit_neg", -1))]


def polyline_self_intersections(x: np.ndarray,
                                y: np.ndarray) -> list[tuple[float, float]]:
    """Transverse self-crossings of one polyline (approximate, from samples).

    Solves the 2x2 segment-pair intersection for pairs more than 2 segments
    apart, in blocks of 32 consecutive segments.  A row block is tested only
    against the blocks at or after it whose bounding boxes overlap its own.
    Each box is padded by 1e-9*max(1, max|p|) over all samples p, so that a
    pair whose computed t and s land in [0, 1] through rounding alone is
    still tested; as long as rounding moves a computed crossing by less
    than the padding, the crossings and their order are those of the test
    on every pair.  A crossing point within 1e-3 of one kept before it is
    dropped.
    """
    px = np.column_stack([x[:-1], y[:-1]])
    d = np.column_stack([np.diff(x), np.diff(y)])
    n = len(px)
    found = []
    # rows per block: the block's temporaries (about ten chunk x n float
    # arrays at most) set the peak memory of the figure 4-6 commands
    chunk = 32
    starts = np.arange(0, n, chunk)
    ends = np.minimum(starts + chunk, n)  # last point of each block
    pts = np.column_stack([x, y])
    # fmin/fmax skip NaN samples: the segments at one never hit anyway
    pad = 1e-9 * float(np.nanmax(np.abs(pts), initial=1.0))
    lo = np.fmin(np.fmin.reduceat(pts[:n], starts), pts[ends]) - pad
    hi = np.fmax(np.fmax.reduceat(pts[:n], starts), pts[ends]) + pad
    overlap = np.all((lo[:, None, :] <= hi[None, :, :])
                     & (lo[None, :, :] <= hi[:, None, :]), axis=2)
    block_of = np.arange(n) // chunk
    for r, i0 in enumerate(starts.tolist()):
        i1 = int(ends[r])
        # a kept pair has b > a, so blocks before this one cannot hold one
        cols = i0 + np.flatnonzero(overlap[r, block_of[i0:]])
        pi = px[i0:i1, None, :]
        di = d[i0:i1, None, :]
        pj = px[None, cols, :]
        dj = d[None, cols, :]
        rhs = pj - pi
        det = di[..., 0] * (-dj[..., 1]) - di[..., 1] * (-dj[..., 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rhs[..., 0] * (-dj[..., 1]) - rhs[..., 1] * (-dj[..., 0])) / det
            s = (di[..., 0] * rhs[..., 1] - di[..., 1] * rhs[..., 0]) / det
        hit = (np.abs(det) > 1e-14) & (t >= 0.0) & (t <= 1.0) \
            & (s >= 0.0) & (s <= 1.0)
        ii, jj = np.nonzero(hit)
        for a_idx, k, b_idx in zip(ii + i0, jj, cols[jj]):
            if abs(a_idx - b_idx) <= _SKIP_ADJACENT or b_idx <= a_idx:
                continue
            # endpoints wrap: ignore the trivial closure contact
            if a_idx == 0 and b_idx >= n - 1 - _SKIP_ADJACENT:
                continue
            tt = t[a_idx - i0, k]
            found.append((float(px[a_idx, 0] + tt * d[a_idx, 0]),
                          float(px[a_idx, 1] + tt * d[a_idx, 1])))
    return _merge_near_duplicates(found)


def _merge_near_duplicates(points):
    """Keep each point in order unless a kept point lies within 1e-3."""
    merged: list[tuple[float, float]] = []
    for p in points:
        if all(math.hypot(p[0] - m[0], p[1] - m[1]) > 1e-3 for m in merged):
            merged.append(p)
    return merged
