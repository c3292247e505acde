"""Deterministic data sets behind the standard family portraits.

Six canned configurations: the two separated-system potential curves, the
full q = 1 orbit family portrait with the primary-colliding pair, the
two-orbit bundles through the reference off-axis centre for q = 1 and
q = 2, and the enlargement of the q = 2 bundle around its
self-intersections, as floats computed with math.  Every orbit track is
an eps = 0 orbit, sampled from its closed form, whose xi and phi motions
a figure's tracks share where they can, and so are a bundle track's
self-crossings, m(2n - 1) for q = m/n (`arcs`).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arcs import SeparatedPath, _self_crossings
from .errors import DomainError
from .geometry import (EllipticPoint, _linspace, elliptic_to_cartesian,
                       elliptic_to_xy)
from .params import Params
from .periods import solve_resonant_a1, turning_point_xi

__all__ = ["OrbitTrack", "xi_potential_curve", "phi_potential_curve",
           "orbit_family_portrait", "orbit_bundle_through"]

_CURVE_POINTS = 1201   # samples of each potential curve
_PORTRAIT_ORBITS = 18  # distinct orbits of figure 3 besides the colliding pair


class OrbitTrack(NamedTuple):  # tracks share a column as one tuple object
    name: str
    taus: tuple[float, ...]
    xi: tuple[float, ...]
    phi: tuple[float, ...]
    x: tuple[float, ...]
    y: tuple[float, ...]
    colliding: bool
    # (x, y) of each self-crossing on a bundle track; None on figure 3's
    crossings: list[tuple[float, float]] | None


def xi_potential_curve(energy: float):
    """Effective xi potential -2 cosh(xi) + |E| cosh(xi)^2 and its minima.

    For |E| < 1 the curve, sampled on xi in [-3, 3], is a double well with
    minima at cosh(xi) = 1/|E| and a local maximum at xi = 0.
    """
    xi = _linspace(-3.0, 3.0, _CURVE_POINTS)
    pot = [-2.0 * c + abs(energy) * (c * c) for c in map(math.cosh, xi)]
    if not (energy < 0.0 and math.inf not in pot):  # so |E| < about 1.8e306
        raise DomainError("the double-well shape requires energy < 0 with"
                          f" |E| cosh(xi)^2 finite, got {energy!r}")
    meta = {}
    if abs(energy) < 1.0:
        c = 1.0 / abs(energy)  # cosh(xi) at the minima
        meta = {"minima_xi": [-math.acosh(c), math.acosh(c)],
                "cosh_minima": c, "value_at_minima": -c,
                "local_max_value": abs(energy) - 2.0}
    return xi, pot, meta


def phi_potential_curve(energy: float):
    """Pendulum-type phi potential -|E| cos(phi)^2 over one revolution."""
    if not -math.inf < energy < 0.0:
        raise DomainError("energy must be finite and negative")
    phi = _linspace(0.0, 2.0 * math.pi, _CURVE_POINTS)
    pot = [-abs(energy) * (c * c) for c in map(math.cos, phi)]
    meta = {"minima_phi": [0.0, math.pi], "minimum_value": -abs(energy)}
    return phi, pot, meta


def _orbit_tracks(prm: Params, t_span: float, n_samples: int, orbits,
                  crossings: bool) -> list[OrbitTrack]:
    """The tracks of orbits, (name, start, sign, colliding) each with
    direction +1, on one grid of n_samples taus over [0, t_span].  Each
    distinct motion (its key) is sampled once, positions only: no figure
    writes a speed."""
    taus = tuple(_linspace(0.0, t_span, n_samples))
    sampled = {}

    def column(key, motion):
        if key not in sampled:
            sampled[key] = tuple([motion(t, math, False) for t in taus])
        return sampled[key]

    tracks = []
    for name, start, sign, colliding in orbits:
        path = SeparatedPath(prm, start, sign, 1, t_span)
        xi = column(path._xi_key, path._xi_motion)
        phi = column(path._phi_key, path._phi_motion)
        x, y = zip(*[elliptic_to_xy(a, b, math) for a, b in zip(xi, phi)])
        points = ([elliptic_to_xy(*path.state_at(t)[:2], math)
                   for t, _ in _self_crossings(path, prm.q)]
                  if crossings else None)
        tracks.append(OrbitTrack(name, taus, xi, phi, x, y, colliding,
                                 points))
    return tracks


def orbit_family_portrait(beta: float = 1.0 / 7.0) -> list[OrbitTrack]:
    """18 distinct periodic orbits of class q = 1 plus the colliding pair.

    Orbits are parametrized by the phi phase at an upward xi = 0 crossing;
    phases in (0, pi) give distinct curves (a phase shift by pi retraces
    the same curve).  The two orbits seeded exactly at a primary are the
    colliding pair.
    """
    q = Fraction(1)
    sol = solve_resonant_a1(beta, q)
    prm = Params(beta=beta, a1=sol.a1_hat, q=q)
    orbits = [(f"orbit_{k:02d}",
               EllipticPoint(0.0, (k + 0.5) * math.pi / _PORTRAIT_ORBITS), 1,
               False) for k in range(_PORTRAIT_ORBITS)]
    orbits += [(label, EllipticPoint(0.0, 0.0), sign, True)
               for label, sign in (("colliding_0", 1), ("colliding_1", -1))]
    return _orbit_tracks(prm, sol.full_period, 2000, orbits, False)


def orbit_bundle_through(q, beta: float = 1.0 / 7.0) -> list[OrbitTrack]:
    """The two transverse periodic orbits through (2/3 xi_plus, 0)."""
    q = Fraction(q)
    sol = solve_resonant_a1(beta, q)
    xi_plus = turning_point_xi(beta, sol.a1_hat)
    centre = EllipticPoint(2.0 / 3.0 * xi_plus, 0.0)
    prm = Params(beta=beta, a1=sol.a1_hat, q=q,
                 centre=elliptic_to_cartesian(centre))
    return _orbit_tracks(prm, sol.full_period, 4000,
                         [("orbit_pos", centre, 1, False),
                          ("orbit_neg", centre, -1, False)], True)
