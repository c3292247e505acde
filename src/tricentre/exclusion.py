"""The primary-collision exclusion test and the resonance certificate.

The exclusion test decides from closed forms alone whether the periodic
orbit through the centre C can hit a primary: the finite ratio set S of
a class q against the two travel-time ratios G+- of C.  Both travel times
are incomplete elliptic integrals F (through Carlson's R_F), so a cell
costs no quadrature and, the resonance solve and its constants being
memoised, no root search or period after the first cell of its (beta, q);
G+- are placed in S by bisection.  With the
finite-difference nondegeneracy certificate and the beta search that
`solve` runs, it makes up the math-only layer behind the `periods`,
`solve` and `check` commands; nothing here imports numpy.  `arcs` builds
on it.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AccuracyError, DomainError, PlacementError, RangeError
from .geometry import EllipticPoint, elliptic_to_cartesian
from .params import Params
from .periods import (ResonanceSolution, period_xi, resonance_residual,
                      solve_resonant_a1, turning_point_xi)
from .special import incomplete_elliptic_f

__all__ = [
    "resonant_params", "SafetyReport", "primary_collision_ratios",
    "primary_collision_check", "NondegeneracyCertificate",
    "nondegeneracy_certificate", "find_admissible_beta",
]

_FD_STEP = 1e-6         # finite-difference step of the certificate
_DET_THRESHOLD = 1e-6   # least |normalized determinant| that passes
_ELLIPSE_MARGIN = 0.01  # admissible beta: relative margin on cosh(xi0)
_MAX_HALVINGS = 60


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
    prm = Params(a=a, beta=beta, a1=sol.a1_hat, q=sol.q, eps=0.0,
                 centre=c_cart)
    return prm, sol


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
def _ratio_table(m: int, n: int) -> tuple[list[float], list[tuple[int, Fraction]]]:
    """S of class m/n sorted by float(s): the floats, and beside each its
    (index in the iteration order of the set, s).  Keyed by the two ints,
    so a lookup hashes no Fraction."""
    ranked = sorted((float(s), i, s)
                    for i, s in enumerate(primary_collision_ratios(Fraction(m, n))))
    return [v for v, _, _ in ranked], [(i, s) for _, i, s in ranked]


def _nearest_ratio(g_plus: float, g_minus: float,
                   q: Fraction) -> tuple[float, Fraction]:
    """The least |g - s| over g in (G+, G-) and s in S, with its s: the
    first minimum of a scan over s in set order, G+ before G- for each s.

    Rounded, |g - s| does not decrease away from the bisect point of g on
    either side, where it is g - s below and s - g above (the same floats
    as abs(g - s)).  So the minimisers for one g form one run around that
    point, in practice one of its two neighbours; min takes the lowest set
    index of the run, and then G+ before G-.
    """
    values, entries = _ratio_table(q.numerator, q.denominator)
    n, found = len(values), []
    for g in (g_plus, g_minus):
        k = bisect.bisect_left(values, g)
        best = min(g - values[k - 1] if k else math.inf,
                   values[k] - g if k < n else math.inf)
        lo = hi = k
        while lo and g - values[lo - 1] == best:
            lo -= 1
        while hi < n and values[hi] - g == best:
            hi += 1
        found.append((best, *min(entries[lo:hi])))
    best, _, nearest = min(found)
    return best, nearest


def _separated_motion(beta: float, a1: float, a: float):
    """Constants (u+, u-, A, w, q_scale) of the separated eps = 0 motion.

    phi: phi'^2 = 4a(a1 + beta a1 cos^2 phi), so dF(phi | beta/(1+beta))/dtau
    = +-w with w = 2 sqrt(a a1 (1 + beta)), and P = F(phi0 | beta/(1+beta))/w.
    xi: t = tanh(xi/2) obeys t'^2 = a(c + b t^2 - A t^4) = a A (u+ - t^2)
    (t^2 - u-) with A = 1 + beta a1 + a1, whose roots are u- < 0 < u+ =
    tanh^2(xi_plus/2); Q = F(theta | u+/u-) / q_scale, q_scale = sqrt(-u- a A).
    """
    ba1 = beta * a1
    c, b, big_a = 1.0 - ba1 - a1, 2.0 * a1 * (1.0 - beta), 1.0 + ba1 + a1
    root = math.sqrt(b * b + 4.0 * big_a * c)
    u_plus, u_minus = (b + root) / (2.0 * big_a), -2.0 * c / (b + root)
    return (u_plus, u_minus, big_a, 2.0 * math.sqrt(a * a1 * (1.0 + beta)),
            math.sqrt(-u_minus * a * big_a))


_CONSTANTS_CACHE_SIZE = 256  # resonances _resonance_constants keeps


@functools.lru_cache(maxsize=_CONSTANTS_CACHE_SIZE)
def _resonance_constants(beta: float, a1: float, a: float):
    """(sqrt(u+), u+/u-, w, q_scale, T1) of the exclusion test, computed
    once per resonance.  beta = -0.0 and 0.0 share an entry: every constant
    is the same at both.  An a1 a few ulps below 1/(1+beta), where k1^2 or
    u- rounds to the separatrix value, has no xi travel time: DomainError.
    """
    t1 = period_xi(beta, a1, a)
    u_plus, u_minus, _, w, q_scale = _separated_motion(beta, a1, a)
    if u_minus == 0.0:
        raise DomainError("xi motion on the separatrix: u- rounds to 0")
    return math.sqrt(u_plus), u_plus / u_minus, w, q_scale, t1


@dataclass(frozen=True)
class SafetyReport:
    g_plus: float
    g_minus: float
    safe: bool
    min_separation: float   # distance from {G+, G-} to the nearest S element
    nearest: Fraction
    delta: float


def primary_collision_check(prm: Params, delta: float = 1e-4) -> SafetyReport:
    """Evaluate the exclusion ratios G+- and compare against the set S.

    G+- = (P +- Q) / T1 with P the phi travel time from the primary axis to
    phi0 and Q the xi travel time from the hyperbola axis to xi0, both for
    the resonant parameters carried by prm.  A centre is reported safe when
    both ratios stay further than delta from every element of S.  A centre
    beyond the turning ellipse has no xi travel time (PlacementError).
    """
    if delta <= 0.0:
        raise DomainError(f"delta must be positive, got {delta}")
    beta, a1, a = prm.beta, prm.a1, prm.a
    centre = prm.centre_elliptic
    xi0, phi0 = centre.xi, centre.phi
    root_u_plus, m_xi, w, q_scale, t1 = _resonance_constants(beta, a1, a)
    p_val = incomplete_elliptic_f(phi0, beta / (1.0 + beta)) / w
    ratio = math.tanh(0.5 * abs(xi0)) / root_u_plus
    if ratio > 1.0:
        raise PlacementError(
            f"centre at xi={xi0:.6g} lies beyond the turning ellipse"
            f" (tanh(|xi|/2) / tanh(xi_plus/2) = {ratio:.6g}): no xi travel time")
    q_val = math.copysign(incomplete_elliptic_f(math.asin(ratio), m_xi)
                          / q_scale, xi0)
    g_plus = (p_val + q_val) / t1
    g_minus = (p_val - q_val) / t1

    best, nearest = _nearest_ratio(g_plus, g_minus, prm.q)
    return SafetyReport(g_plus=g_plus, g_minus=g_minus, safe=best > delta,
                        min_separation=best, nearest=nearest, delta=delta)


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


def nondegeneracy_certificate(beta: float, q,
                              a: float = 1.0) -> NondegeneracyCertificate:
    """Certify the resonance Jacobian determinant away from zero.

    The Jacobian couples the residual derivatives (dF/dbeta, dF/da1) with
    the energy-constraint row (-2*a*a1, -2*a*beta) at the resonant point.
    Partials use central differences of step 1e-6 and its half (second-order
    one-sided in beta at beta = 0); a step-halving disagreement beyond 50%
    flags the step size as unusable.  The certificate passes when the
    row-normalized |det| exceeds 1e-6.
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

    fb1, fa1 = det_at(_FD_STEP)
    fb2, fa2 = det_at(0.5 * _FD_STEP)
    f_b = (4.0 * fb2 - fb1) / 3.0
    f_a = (4.0 * fa2 - fa1) / 3.0

    def full_det(fb, fa):
        return fb * (-2.0 * a * beta) - fa * (-2.0 * a * a1h)

    d1 = full_det(fb1, fa1)
    d2 = full_det(fb2, fa2)
    det = full_det(f_b, f_a)
    if abs(d1 - d2) > 0.5 * max(abs(det), 1e-300):
        raise AccuracyError(
            f"finite-difference step {_FD_STEP:.3g} is in the nonlinear regime"
            f" (step-halving disagreement {abs(d1-d2):.3g})",
            best_estimate=det)

    row1 = max(abs(f_b), abs(f_a))
    row2 = max(abs(2.0 * a * a1h), abs(2.0 * a * beta))
    det_norm = det / (row1 * row2) if row1 > 0.0 and row2 > 0.0 else 0.0
    return NondegeneracyCertificate(
        det_j=det, det_normalized=det_norm, fd_step=_FD_STEP, beta=beta, q=q,
        threshold=_DET_THRESHOLD, passed=abs(det_norm) > _DET_THRESHOLD)


# ---------------------------------------------------------------------------
# admissible beta

def find_admissible_beta(centre, q, a: float = 1.0, beta_start: float = 0.5,
                         delta: float = 1e-4) -> float:
    """Halve beta (at most 60 times) until the centre is safe and inside the
    turning ellipse with cosh(xi0) < 0.99 cosh(xi_plus)."""
    q = Fraction(q)
    beta = beta_start
    for _ in range(_MAX_HALVINGS):
        try:
            prm, sol = resonant_params(centre, q, beta, a)
            xi_plus = turning_point_xi(beta, sol.a1_hat)
            c_ell = prm.centre_elliptic
            inside = (math.cosh(c_ell.xi)
                      < math.cosh(xi_plus) * (1.0 - _ELLIPSE_MARGIN))
            if inside and primary_collision_check(prm, delta=delta).safe:
                return beta
        except DomainError:
            pass
        beta *= 0.5
    raise RangeError(
        f"no admissible beta found for centre {centre} and q={q}"
        f" after {_MAX_HALVINGS} halvings from {beta_start}")
