"""Deterministic data sets behind the standard family portraits.

Six canned configurations: the two separated-system potential curves, the
full q = 1 orbit family portrait with the primary-colliding pair, the
two-orbit bundles through the reference off-axis centre for q = 1 and
q = 2, and the enlargement of the q = 2 bundle around its
self-intersections, as lists of floats computed with math.  Every orbit
track is an eps = 0 orbit, sampled from its closed form, and so are a
bundle track's self-crossings, m(2n - 1) for q = m/n (`arcs`).
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


class OrbitTrack(NamedTuple):
    name: str
    taus: list[float]
    states: list[tuple[float, float, float, float]]  # elliptic
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
    if energy >= 0.0:
        raise DomainError("the double-well shape requires energy < 0")
    xi = _linspace(-3.0, 3.0, _CURVE_POINTS)
    pot = [-2.0 * c + abs(energy) * (c * c) for c in map(math.cosh, xi)]
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
    phi = _linspace(0.0, 2.0 * math.pi, _CURVE_POINTS)
    pot = [-abs(energy) * (c * c) for c in map(math.cos, phi)]
    meta = {"minima_phi": [0.0, math.pi], "minimum_value": -abs(energy)}
    return phi, pot, meta


def _orbit_track(prm: Params, start: EllipticPoint, sign: int, t_span: float,
                 name: str, colliding: bool,
                 n_samples: int = 2000, crossings: bool = False) -> OrbitTrack:
    path = SeparatedPath(prm, start, sign, 1, t_span)
    taus = _linspace(0.0, t_span, n_samples)
    states = path.state_at(taus)
    x, y = zip(*(elliptic_to_xy(s[0], s[1], math) for s in states))
    points = None
    if crossings:
        at = path.state_at([t for t, _ in _self_crossings(path, prm.q)])
        points = [elliptic_to_xy(s[0], s[1], math) for s in at]
    return OrbitTrack(name=name, taus=taus, states=states, x=x, y=y,
                      colliding=colliding, crossings=points)


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
                         n_samples=4000, crossings=True)
            for label, sign in (("orbit_pos", 1), ("orbit_neg", -1))]
