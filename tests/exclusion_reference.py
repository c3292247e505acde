"""Reference exclusion cell for the oracle tests.

The earlier implementation of one cell of ``tricentre.exclusion``, kept
verbatim: ``resonant_params`` maps an elliptic centre to Cartesian
coordinates through ``elliptic_to_xy``, ``primary_collision_check`` reads
the centre back as an ``EllipticPoint`` built from the principal branch of
the complex arccosh, and the nearest element of S is the least
``(|g - s|, s)`` tuple over the two bisect neighbours of each of G+-.
``find_admissible_beta`` converts the centre on every halving and reads
xi0 from the rebuilt point.  The production cell must return the same
reports, the same betas and the same error classes, bit for bit.

The closed-form constants, the special functions and the ratio set are the
production ones: they are not what the two implementations differ in.
"""
from __future__ import annotations

import bisect
import cmath
import math
from fractions import Fraction

from tricentre.errors import DomainError, PlacementError, RangeError
from tricentre.exclusion import (SafetyReport, _resonance_constants,
                                 primary_collision_ratios)
from tricentre.geometry import CartesianPoint, EllipticPoint, elliptic_to_xy
from tricentre.params import Params, _check_centre
from tricentre.periods import solve_resonant_a1, turning_point_xi
from tricentre.special import incomplete_elliptic_f


def _as_cartesian(centre):
    if isinstance(centre, EllipticPoint):
        return CartesianPoint(*elliptic_to_xy(centre.xi, centre.phi, math))
    return centre


def _centre_elliptic(prm: Params) -> EllipticPoint:
    if prm.centre is None:
        raise DomainError("no perturbing centre configured")
    zeta = cmath.acosh(complex(prm.centre.x, prm.centre.y))
    return EllipticPoint(zeta.real, zeta.imag)


def resonant_params(centre, q, beta: float):
    sol = solve_resonant_a1(beta, q)
    prm = Params(beta=beta, a1=sol.a1_hat, q=sol.q, eps=0.0,
                 centre=_as_cartesian(centre))
    return prm, sol


def _nearest_ratio(g_plus: float, g_minus: float, q: Fraction):
    ratios = sorted(primary_collision_ratios(q))
    values = [float(s) for s in ratios]
    found = []
    for g in (g_plus, g_minus):
        k = bisect.bisect_left(values, g)
        found += [(abs(g - values[i]), ratios[i])
                  for i in (k - 1, k) if 0 <= i < len(values)]
    return min(found)


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < math.inf:
        raise DomainError(f"delta must be positive and finite, got {delta}")


def primary_collision_check(prm: Params, delta: float = 1e-4) -> SafetyReport:
    _check_delta(delta)
    beta, a1 = prm.beta, prm.a1
    centre = _centre_elliptic(prm)
    xi0, phi0 = centre.xi, centre.phi
    root_u_plus, m_xi, w, q_scale, t1 = _resonance_constants(beta, a1)
    p_val = incomplete_elliptic_f(phi0, beta / (1.0 + beta)) / w
    ratio = math.tanh(0.5 * abs(xi0)) / root_u_plus
    if ratio > 1.0:
        raise PlacementError("beyond the turning ellipse")
    q_val = math.copysign(incomplete_elliptic_f(math.asin(ratio), m_xi)
                          / q_scale, xi0)
    g_plus = (p_val + q_val) / t1
    g_minus = (p_val - q_val) / t1

    best, nearest = _nearest_ratio(g_plus, g_minus, prm.q)
    return SafetyReport(g_plus=g_plus, g_minus=g_minus, safe=best > delta,
                        min_separation=best, nearest=nearest, delta=delta)


def find_admissible_beta(centre, q, beta_start: float = 0.5,
                         delta: float = 1e-4) -> float:
    q = Fraction(q)
    _check_centre(_as_cartesian(centre))
    _check_delta(delta)
    beta = beta_start
    for _ in range(60):
        try:
            prm, sol = resonant_params(centre, q, beta)
            xi_plus = turning_point_xi(beta, sol.a1_hat)
            c_ell = _centre_elliptic(prm)
            inside = math.cosh(c_ell.xi) < math.cosh(xi_plus) * (1.0 - 0.01)
            if inside and primary_collision_check(prm, delta=delta).safe:
                return beta
        except DomainError:
            pass
        beta *= 0.5
    raise RangeError(f"no admissible beta found for centre {centre}")
