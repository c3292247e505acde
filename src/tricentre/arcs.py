"""Collision arcs through the perturbing centre.

An arc is a fixed-energy solution of the unperturbed separated flow that
starts and ends at the centre C with no interior passage through it.  For
a resonant parameter set the four (sign, direction) velocity choices at C
yield four labeled arcs; when C sits on a self-intersection of the orbit
the arcs end at the first early return instead of the full period.

The module also houses the primary-collision exclusion test (the finite
ratio set S with the two travel-time ratio functions) and the
finite-difference nondegeneracy certificate.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dynamics import Params, PhiCrossing, Trajectory, integrate
from .errors import (AccuracyError, DomainError, PlacementError, RangeError,
                     StructuralError, UnsafeCentreError)
from .geometry import (TWO_PI, EllipticPoint, elliptic_to_cartesian,
                       elliptic_to_xy, transform_matrix, wrap_angle)
from .periods import (ResonanceSolution, period_phi, period_xi,
                      resonance_residual, solve_resonant_a1,
                      turning_point_xi)
from .special import adaptive_quadrature

__all__ = [
    "ArcLabel", "CollisionArc", "SafetyReport", "NondegeneracyCertificate",
    "initial_velocities", "resonant_params", "build_arc", "arc_family",
    "primary_collision_ratios", "primary_collision_check",
    "nondegeneracy_certificate", "find_admissible_beta",
]


class ArcLabel(NamedTuple):
    q: Fraction
    sign: int       # sign of xi' at departure
    direction: int  # sign of phi' at departure

    def __str__(self):
        return f"q={self.q}:s{self.sign:+d}:d{self.direction:+d}"


@dataclass
class CollisionArc:
    params: Params
    label: ArcLabel
    start: EllipticPoint
    end: EllipticPoint
    v0: tuple[float, float]   # elliptic velocity at departure
    vT: tuple[float, float]   # elliptic velocity at arrival
    duration: float           # tau time of the first return to C
    path: Trajectory
    early_collision: bool
    min_primary_distance: float
    closure_error: float      # Cartesian distance from the endpoint to C

    @property
    def v0_cartesian(self) -> np.ndarray:
        return transform_matrix(self.start) @ np.array(self.v0)

    @property
    def vT_cartesian(self) -> np.ndarray:
        return transform_matrix(self.end) @ np.array(self.vT)

    @property
    def energy(self) -> float:
        return self.params.energy


def initial_velocities(centre: EllipticPoint, beta: float, a1_hat: float,
                       a: float = 1.0) -> tuple[float, float]:
    """Speeds |xi'|, |phi'| of the separated flow at the centre.

    Requires the centre strictly inside the turning ellipse (|xi0| < xi+),
    so the xi component of the velocity never vanishes there.
    """
    xi0, phi0 = centre.xi, centre.phi
    ch = math.cosh(xi0)
    r = ch - beta * a1_hat * ch ** 2 - a1_hat
    # relative floor: roundoff of the cancellation at the turning point
    if r <= 1e-12 * max(1.0, beta * a1_hat * ch ** 2):
        raise PlacementError(
            f"centre xi0={xi0:.6g} lies at/beyond the turning point of the xi"
            " oscillation (outside the bounding ellipse)")
    xi_speed = 2.0 * math.sqrt(a * r)
    phi_speed = 2.0 * math.sqrt(a * (beta * a1_hat * math.cos(phi0) ** 2 + a1_hat))
    return xi_speed, phi_speed


def resonant_params(centre, q, beta: float, a: float = 1.0,
                    tol: float = 1e-12) -> tuple[Params, ResonanceSolution]:
    """Params carrying the resonant a1_hat(beta, q) for a centre position.

    centre may be an EllipticPoint or CartesianPoint.
    """
    sol = solve_resonant_a1(beta, q, a, tol)
    if isinstance(centre, EllipticPoint):
        c_cart = elliptic_to_cartesian(centre)
    else:
        c_cart = centre
    prm = Params(a=a, beta=beta, a1=sol.a1_hat, q=Fraction(q), eps=0.0,
                 centre=c_cart)
    return prm, sol


def build_arc(prm: Params, sign: int, direction: int,
              tol: float = 1e-12) -> CollisionArc:
    """Integrate one collision arc from C until its first return to C.

    The return is detected on crossings of phi = phi0 and phi = -phi0
    (mod 2pi), matching xi against the corresponding representation; both
    elliptic representations of C are the same Cartesian point.  Without an
    early collision the first return lands at the full resonant period
    m*T1 = n*T2; an earlier match sets the early_collision flag.
    """
    if sign not in (-1, 1) or direction not in (-1, 1):
        raise DomainError("sign and direction must each be +1 or -1")
    m, n = prm.q.numerator, prm.q.denominator
    t1 = period_xi(prm.beta, prm.a1, prm.a)
    t2 = period_phi(prm.beta, prm.a1, prm.a)
    t_full = m * t1
    if abs(m * t1 - n * t2) > 1e-6 * t_full:
        raise DomainError(
            f"parameters are not resonant for q={prm.q}: m*T1={m*t1:.12g}"
            f" differs from n*T2={n*t2:.12g}")

    centre = prm.centre_elliptic
    xi0, phi0 = centre.xi, centre.phi
    xi_speed, phi_speed = initial_velocities(centre, prm.beta, prm.a1, prm.a)
    y0 = np.array([xi0, phi0, sign * xi_speed, direction * phi_speed])

    targets = [(phi0, xi0)]
    mirrored = wrap_angle(-phi0)
    if abs(mirrored - phi0) > 1e-12 and abs(abs(mirrored - phi0) - TWO_PI) > 1e-12:
        targets.append((mirrored, -xi0))
    events = [PhiCrossing(t) for t, _ in targets]

    # the endpoint error in Cartesian terms is the global integration error
    # amplified by the map Jacobian (~ sinh|xi0|); integrate a decade tighter
    # than the requested arc tolerance to keep the closure within it
    int_tol = max(0.1 * tol, 1e-14)
    traj = integrate(y0, prm, t_full * (1.0 + 2e-4), tol=int_tol, events=events)

    xi_match = {wrap_angle(t): x for t, x in targets}
    returns = []
    for ev in traj.events:
        if ev.tau <= 1e-6 * t_full:
            continue
        target_phi = wrap_angle(ev.spec.value)
        xi_target = xi_match[target_phi]
        candidates = (xi_target,) if len(targets) == 2 else (xi0, -xi0)
        for xt in candidates:
            if abs(ev.state[0] - xt) < 1e-6:
                returns.append((ev.tau, ev.state))
                break
    if not returns:
        raise DomainError(
            f"no return to the centre found within {t_full*(1+2e-4):.6g} tau"
            " units; parameters are inconsistent")
    duration, y_end = min(returns, key=lambda r: r[0])
    early = duration < t_full * (1.0 - 1e-6)

    path = traj.truncated(duration)
    end = EllipticPoint(float(y_end[0]), float(y_end[1]))
    closure = elliptic_to_cartesian(end).distance_to(prm.centre)

    _, states = path.dense_grid(4096)
    x, y = elliptic_to_xy(states[:, 0], states[:, 1])
    d1 = np.hypot(x - 1.0, y)
    d2 = np.hypot(x + 1.0, y)
    min_primary = float(min(d1.min(), d2.min()))

    return CollisionArc(
        params=prm,
        label=ArcLabel(prm.q, sign, direction),
        start=centre,
        end=end,
        v0=(float(y0[2]), float(y0[3])),
        vT=(float(y_end[2]), float(y_end[3])),
        duration=float(duration),
        path=path,
        early_collision=bool(early),
        min_primary_distance=min_primary,
        closure_error=float(closure),
    )


# ---------------------------------------------------------------------------
# primary-collision exclusion

@functools.lru_cache  # one set per class; a failed validation is not cached
def primary_collision_ratios(q) -> frozenset:
    """Finite set S of travel-time ratios at which primary collisions occur.

    Enumerates j/2 - i*q for 0 <= i < n/2 and j/2 - q*(i' +- 1/2) for
    0 <= i' < (n+1)/2, with 0 <= j <= m, where q = m/n in lowest terms.
    A periodic orbit through C of class q can hit a primary only if one of
    its two ratio values lands in S.
    """
    q = Fraction(q)
    if q <= 0:
        raise DomainError(f"class q must be positive, got {q}")
    m, n = q.numerator, q.denominator
    out = set()
    half = Fraction(1, 2)
    for j in range(m + 1):
        hj = Fraction(j, 2)
        i = 0
        while 2 * i < n:
            out.add(hj - i * q)
            i += 1
        ip = 0
        while 2 * ip < n + 1:
            out.add(hj - q * (ip + half))
            out.add(hj - q * (ip - half))
            ip += 1
    return frozenset(out)


@functools.lru_cache
def _ratio_table(q) -> tuple[tuple[float, Fraction], ...]:
    """(float(s), s) for s in S, in the iteration order of the set itself."""
    return tuple((float(s), s) for s in primary_collision_ratios(q))


@dataclass(frozen=True)
class SafetyReport:
    g_plus: float
    g_minus: float
    safe: bool
    min_separation: float   # distance from {G+, G-} to the nearest S element
    nearest: Fraction
    delta: float
    quad_evaluations: int = 0  # integrand evaluations of the two travel times


def primary_collision_check(prm: Params, delta: float = 1e-4,
                            quad_tol: float = 1e-12) -> SafetyReport:
    """Evaluate the exclusion ratios G+- and compare against the set S.

    G+- = (P +- Q) / T1 with P the phi travel time from the primary axis to
    phi0 and Q the xi travel time from the hyperbola axis to xi0, both for
    the resonant parameters carried by prm.  A centre is reported safe when
    both ratios stay further than delta from every element of S.
    """
    if delta <= 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    beta, a1, a = prm.beta, prm.a1, prm.a
    centre = prm.centre_elliptic
    xi0, phi0 = centre.xi, centre.phi
    ba1 = beta * a1

    def phi_integrand(phi):
        return 1.0 / math.sqrt(ba1 * math.cos(phi) ** 2 + a1)

    def xi_integrand(xi):
        ch = math.cosh(xi)
        r = ch - ba1 * ch ** 2 - a1
        if r <= 0.0:
            raise AccuracyError(
                f"xi travel-time integrand singular at xi={xi:.6g}"
                " (centre too close to the turning ellipse)")
        return 1.0 / math.sqrt(r)

    pref = 0.5 / math.sqrt(a)
    p_quad = adaptive_quadrature(phi_integrand, 0.0, phi0, quad_tol)
    q_quad = adaptive_quadrature(xi_integrand, 0.0, xi0, quad_tol)
    p_val, q_val = pref * p_quad.value, pref * q_quad.value
    t1 = period_xi(beta, a1, a)
    g_plus = (p_val + q_val) / t1
    g_minus = (p_val - q_val) / t1

    best = math.inf
    nearest = Fraction(0)
    for s_float, s in _ratio_table(prm.q):
        for g in (g_plus, g_minus):
            d = abs(g - s_float)
            if d < best:
                best, nearest = d, s
    return SafetyReport(g_plus=g_plus, g_minus=g_minus, safe=best > delta,
                        min_separation=best, nearest=nearest, delta=delta,
                        quad_evaluations=p_quad.evaluations + q_quad.evaluations)


# ---------------------------------------------------------------------------
# nondegeneracy

@dataclass(frozen=True)
class NondegeneracyCertificate:
    det_j: float            # Richardson-extrapolated raw determinant
    det_normalized: float   # after scaling each row to unit max-entry
    fd_step: float
    beta: float
    q: Fraction
    threshold: float
    passed: bool


def nondegeneracy_certificate(beta: float, q, a: float = 1.0,
                              fd_step: float = 1e-6,
                              threshold: float = 1e-6) -> NondegeneracyCertificate:
    """Certify the resonance Jacobian determinant away from zero.

    The Jacobian couples the residual derivatives (dF/dbeta, dF/da1) with
    the energy-constraint row (-2*a*a1, -2*a*beta) at the resonant point.
    Partials use central differences (second-order one-sided in beta at
    beta = 0); a step-halving disagreement beyond 50% flags the step size
    as unusable.
    """
    q = Fraction(q)
    sol = solve_resonant_a1(beta, q, a)
    a1h = sol.a1_hat

    def det_at(h: float) -> tuple[float, float]:
        if beta >= h:
            f_b = (resonance_residual(beta + h, a1h, q, a)
                   - resonance_residual(beta - h, a1h, q, a)) / (2.0 * h)
        else:
            f0 = resonance_residual(beta, a1h, q, a)
            f1 = resonance_residual(beta + h, a1h, q, a)
            f2 = resonance_residual(beta + 2.0 * h, a1h, q, a)
            f_b = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        f_a = (resonance_residual(beta, a1h + h, q, a)
               - resonance_residual(beta, a1h - h, q, a)) / (2.0 * h)
        return f_b, f_a

    fb1, fa1 = det_at(fd_step)
    fb2, fa2 = det_at(0.5 * fd_step)
    f_b = (4.0 * fb2 - fb1) / 3.0
    f_a = (4.0 * fa2 - fa1) / 3.0

    def full_det(fb, fa):
        return fb * (-2.0 * a * beta) - fa * (-2.0 * a * a1h)

    d1 = full_det(fb1, fa1)
    d2 = full_det(fb2, fa2)
    det = full_det(f_b, f_a)
    if abs(d1 - d2) > 0.5 * max(abs(det), 1e-300):
        raise AccuracyError(
            f"finite-difference step {fd_step:.3g} is in the nonlinear regime"
            f" (step-halving disagreement {abs(d1-d2):.3g})",
            best_estimate=det)

    row1 = max(abs(f_b), abs(f_a))
    row2 = max(abs(2.0 * a * a1h), abs(2.0 * a * beta))
    det_norm = det / (row1 * row2) if row1 > 0.0 and row2 > 0.0 else 0.0
    return NondegeneracyCertificate(
        det_j=det, det_normalized=det_norm, fd_step=fd_step, beta=beta, q=q,
        threshold=threshold, passed=abs(det_norm) > threshold)


# ---------------------------------------------------------------------------
# families

def arc_family(prm: Params, tol: float = 1e-12, delta: float = 1e-4,
               check_safety: bool = True) -> list[CollisionArc]:
    """The four labeled arcs at C for one resonant parameter set.

    Ordered [(+,+), (-,-), (+,-), (-,+)]: the first two share one initial
    direction pair at C, the last two the transverse one.  Refuses centres
    that fail the primary-collision exclusion test, and cross-checks the
    verdict against the primary distances the built paths actually attain.
    """
    if check_safety:
        report = primary_collision_check(prm, delta=delta)
        if not report.safe:
            raise UnsafeCentreError(
                f"centre fails primary-collision exclusion for q={prm.q}:"
                f" G+={report.g_plus:.9g}, G-={report.g_minus:.9g} is within"
                f" {report.min_separation:.3g} of ratio {report.nearest}"
                f" (margin {delta:g})",
                g_plus=report.g_plus, g_minus=report.g_minus,
                nearest=report.nearest)
    family = [build_arc(prm, s, d, tol=tol)
              for (s, d) in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    if check_safety:
        grazing = min(arc.min_primary_distance for arc in family)
        if grazing <= 1e-6:
            raise StructuralError(
                "exclusion test declared the centre safe but a built arc"
                f" passes within {grazing:.3g} of a primary")
    return family


def find_admissible_beta(centre, q, a: float = 1.0, beta_start: float = 0.5,
                         delta: float = 1e-4, margin: float = 0.01,
                         max_halvings: int = 60) -> float:
    """Halve beta until the centre is safe and strictly inside the turning
    ellipse (with the given relative margin on cosh(xi0))."""
    q = Fraction(q)
    beta = beta_start
    for _ in range(max_halvings):
        try:
            prm, sol = resonant_params(centre, q, beta, a)
            xi_plus = turning_point_xi(beta, sol.a1_hat)
            c_ell = prm.centre_elliptic
            inside = math.cosh(c_ell.xi) < math.cosh(xi_plus) * (1.0 - margin)
            if inside and primary_collision_check(prm, delta=delta).safe:
                return beta
        except (DomainError, AccuracyError):
            pass
        beta *= 0.5
    raise RangeError(
        f"no admissible beta found for centre {centre} and q={q}"
        f" after {max_halvings} halvings from {beta_start}")
