"""Sampled self-crossing search, the oracle of the closed form.

The figures once found an orbit's self-crossings by this exhaustive
segment-pair search over its samples, in blocks of 32 rows, with a 1e-3
merge radius.  `arcs._self_crossings` now gives them in closed form; the
tests check that this search finds as many, and that its points close in
on the closed-form ones at second order in the sample spacing.
"""
from __future__ import annotations

import math

import numpy as np


def polyline_self_intersections(x: np.ndarray, y: np.ndarray,
                                skip_adjacent: int = 2) -> list[tuple[float, float]]:
    """Transverse self-crossings of one polyline (approximate, from samples).

    Solves the 2x2 segment-pair intersection for all non-adjacent pairs,
    chunked over the first index.  Crossing points closer than the local
    sample spacing are merged.
    """
    px = np.column_stack([x[:-1], y[:-1]])
    d = np.column_stack([np.diff(x), np.diff(y)])
    n = len(px)
    found = []
    # rows per block: the block's temporaries (about ten chunk x n float
    # arrays) set the peak memory of the figure 4-6 commands
    chunk = 32
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        pi = px[i0:i1, None, :]
        di = d[i0:i1, None, :]
        pj = px[None, :, :]
        dj = d[None, :, :]
        rhs = pj - pi
        det = di[..., 0] * (-dj[..., 1]) - di[..., 1] * (-dj[..., 0])
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rhs[..., 0] * (-dj[..., 1]) - rhs[..., 1] * (-dj[..., 0])) / det
            s = (di[..., 0] * rhs[..., 1] - di[..., 1] * rhs[..., 0]) / det
        hit = (np.abs(det) > 1e-14) & (t >= 0.0) & (t <= 1.0) \
            & (s >= 0.0) & (s <= 1.0)
        ii, jj = np.nonzero(hit)
        for a_idx, b_idx in zip(ii + i0, jj):
            if abs(a_idx - b_idx) <= skip_adjacent or b_idx <= a_idx:
                continue
            # endpoints wrap: ignore the trivial closure contact
            if a_idx == 0 and b_idx >= n - 1 - skip_adjacent:
                continue
            tt = t[a_idx - i0, b_idx]
            found.append((float(px[a_idx, 0] + tt * d[a_idx, 0]),
                          float(px[a_idx, 1] + tt * d[a_idx, 1])))
    # merge near-duplicates
    merged: list[tuple[float, float]] = []
    for p in found:
        if all(math.hypot(p[0] - m[0], p[1] - m[1]) > 1e-3 for m in merged):
            merged.append(p)
    return merged
