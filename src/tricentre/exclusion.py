"""The primary-collision exclusion test and the resonance certificate.

The exclusion test decides from closed forms alone whether the periodic
orbit through the centre C can hit a primary: the finite ratio set S of a
class q against the two travel-time ratios G+- of C.  Both travel times
are incomplete elliptic integrals F (through Carlson's R_F), so a cell
costs no quadrature and, the resonance solve and its constants being
memoised, no root search or period after the first cell of its (beta, q);
each of G+- is bisected into a cached float table of S sorted by value,
and only its two neighbours there are compared, as floats.  Of two
elements at the same distance the smaller (the one of lower index) is
reported nearest, and no Fraction is compared.  With the nondegeneracy
certificate, whose Jacobian takes the exact partials of q*T1 - T2 through
K and dK/dm, and the beta search that `solve` runs, it makes up the
math-only layer behind the `periods`, `solve` and `check` commands;
nothing here imports numpy.  `arcs` builds on it.
"""
from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, PlacementError, RangeError
from .geometry import EllipticPoint, _principal_point, elliptic_to_cartesian
from .params import Params, _check_centre
from .periods import (ResonanceSolution, _xi_modulus, period_xi,
                      solve_resonant_a1, turning_point_xi)
from .special import _elliptic_k_and_slope, incomplete_elliptic_f

__all__ = [
    "resonant_params", "SafetyReport", "primary_collision_ratios",
    "primary_collision_check", "NondegeneracyCertificate",
    "nondegeneracy_certificate", "find_admissible_beta",
]

_DET_THRESHOLD = 1e-6   # least |normalized determinant| that passes
_ELLIPSE_MARGIN = 0.01  # admissible beta: relative margin on cosh(xi0)
_MAX_HALVINGS = 60


def resonant_params(centre, q, beta: float) -> tuple[Params, ResonanceSolution]:
    """Params carrying the resonant a1_hat(beta, q) for a centre position.

    centre may be an EllipticPoint or CartesianPoint.
    """
    sol = solve_resonant_a1(beta, q)
    return Params(beta=beta, a1=sol.a1_hat, q=sol.q,
                  centre=_as_cartesian(centre)), sol


def _as_cartesian(centre):
    return (elliptic_to_cartesian(centre) if isinstance(centre, EllipticPoint)
            else centre)


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
def _ratio_table(m: int, n: int) -> tuple[list[float], list[Fraction]]:
    """S of class m/n in increasing order: the float of each element, and
    the elements.  Keyed by the two ints, so a lookup hashes no Fraction."""
    ratios = sorted(primary_collision_ratios(Fraction(m, n)))
    return [float(s) for s in ratios], ratios


def _nearest_ratio(g_plus: float, g_minus: float,
                   q: Fraction) -> tuple[float, Fraction]:
    """The least (|g - s|, s) over g in (G+, G-) and s in S: the smallest
    distance, and at a tie the smaller s.

    Rounded, |g - s| does not decrease away from the bisect point of g on
    either side, so only the two neighbours of that point are compared (S
    holds 0 and 1/2, so a point clamped to [1, len - 1] has both).  The
    table is sorted: at a tie the smaller index is the smaller s.
    """
    values, ratios = _ratio_table(*q.as_integer_ratio())
    best, nearest = math.inf, 0
    for g in (g_plus, g_minus):
        k = bisect.bisect_left(values, g, 1, len(values) - 1)
        for i in (k - 1, k):
            d = abs(g - values[i])
            if d < best or d == best and i < nearest:
                best, nearest = d, i
    return best, ratios[nearest]


def _separated_motion(beta: float, a1: float):
    """Constants (u+, u-, A, w, q_scale) of the separated eps = 0 motion.

    phi: phi'^2 = 4(a1 + beta a1 cos^2 phi), so dF(phi | beta/(1+beta))/dtau
    = +-w with w = 2 sqrt(a1 (1 + beta)), and P = F(phi0 | beta/(1+beta))/w.
    xi: t = tanh(xi/2) obeys t'^2 = c + b t^2 - A t^4 = A (u+ - t^2)
    (t^2 - u-) with A = 1 + beta a1 + a1, whose roots are u- < 0 < u+ =
    tanh^2(xi_plus/2); Q = F(theta | u+/u-) / q_scale, q_scale = sqrt(-u- A).
    """
    ba1 = beta * a1
    c, b, big_a = 1.0 - ba1 - a1, 2.0 * a1 * (1.0 - beta), 1.0 + ba1 + a1
    root = math.sqrt(b * b + 4.0 * big_a * c)
    u_plus, u_minus = (b + root) / (2.0 * big_a), -2.0 * c / (b + root)
    return (u_plus, u_minus, big_a, 2.0 * math.sqrt(a1 * (1.0 + beta)),
            math.sqrt(-u_minus * big_a))


_CONSTANTS_CACHE_SIZE = 256  # resonances _resonance_constants keeps


@functools.lru_cache(maxsize=_CONSTANTS_CACHE_SIZE)
def _resonance_constants(beta: float, a1: float):
    """(sqrt(u+), u+/u-, w, q_scale, T1) of the exclusion test, computed
    once per resonance.  beta = -0.0 and 0.0 share an entry: every constant
    is the same at both.  An a1 a few ulps below 1/(1+beta), where k1^2 or
    u- rounds to the separatrix value, has no xi travel time: DomainError.
    """
    t1 = period_xi(beta, a1)
    u_plus, u_minus, _, w, q_scale = _separated_motion(beta, a1)
    if u_minus == 0.0:
        raise DomainError("xi motion on the separatrix: u- rounds to 0")
    return math.sqrt(u_plus), u_plus / u_minus, w, q_scale, t1


class SafetyReport(NamedTuple):
    g_plus: float
    g_minus: float
    safe: bool
    min_separation: float   # distance from {G+, G-} to the nearest S element
    nearest: Fraction
    delta: float


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < math.inf:
        raise DomainError(f"delta must be positive and finite, got {delta}")


def primary_collision_check(prm: Params, delta: float = 1e-4) -> SafetyReport:
    """Evaluate the exclusion ratios G+- and compare against the set S.

    G+- = (P +- Q) / T1 with P the phi travel time from the primary axis to
    phi0 and Q the xi travel time from the hyperbola axis to xi0, both for
    the resonant parameters carried by prm.  A centre is reported safe when
    both ratios stay further than delta from every element of S.  A centre
    beyond the turning ellipse has no xi travel time (PlacementError).
    """
    _check_delta(delta)
    if prm.centre is None:
        raise DomainError("no perturbing centre configured")
    beta, a1 = prm.beta, prm.a1
    xi0, phi0 = _principal_point(prm.centre)
    root_u_plus, m_xi, w, q_scale, t1 = _resonance_constants(beta, a1)
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

class NondegeneracyCertificate(NamedTuple):
    det_j: float            # determinant of the exact Jacobian
    det_normalized: float   # after scaling each row to unit max-entry
    beta: float
    q: Fraction
    threshold: float
    passed: bool


def nondegeneracy_certificate(beta: float, q) -> NondegeneracyCertificate:
    """Certify the resonance Jacobian determinant away from zero.

    The Jacobian couples the partials (dF/dbeta, dF/da1) of the residual
    F = q*T1 - T2 with the energy-constraint row (-2*a1, -2*beta) at the
    resonant point.  The partials are exact: T1 = 2 sqrt(2) disc^(-1/4)
    K(k1^2) with disc = 1 - 4 beta a1^2 and k1^2 = (a1 (1-beta) +
    sqrt(disc))/(2 sqrt(disc)), and T2 = 2 K(k2^2)/sqrt(a1 (1+beta)) with
    k2^2 = beta/(1+beta), differentiated through dK/dm.  The certificate
    passes when the row-normalized |det| exceeds 1e-6.
    """
    q = Fraction(q)
    a1 = solve_resonant_a1(beta, q).a1_hat
    disc, k1sq = _xi_modulus(beta, a1)
    root = math.sqrt(disc)
    k1, dk1 = _elliptic_k_and_slope(k1sq)
    k2, dk2 = _elliptic_k_and_slope(beta / (1.0 + beta))
    qt1 = float(q) * 2.0 * math.sqrt(2.0) / disc ** 0.25  # q*T1 / K(k1^2)
    t2 = 2.0 / math.sqrt(a1 * (1.0 + beta))               # T2 / K(k2^2)
    # dk1^2/dbeta and dk1^2/da1; d(disc^(-1/4)) / disc^(-1/4) is
    # a1^2/disc dbeta + 2 beta a1/disc da1
    m_b = (1.0 - beta) * a1 ** 3 / root ** 3 - 0.5 * a1 / root
    m_a = 0.5 * (1.0 - beta) / root ** 3
    f_b = (qt1 * (dk1 * m_b + k1 * a1 * a1 / disc)
           - t2 * (dk2 / (1.0 + beta) - 0.5 * k2) / (1.0 + beta))
    f_a = qt1 * (dk1 * m_a + 2.0 * k1 * beta * a1 / disc) + 0.5 * t2 * k2 / a1
    det = 2.0 * (a1 * f_a - beta * f_b)
    row1 = max(abs(f_b), abs(f_a))
    row2 = max(abs(2.0 * a1), abs(2.0 * beta))
    det_norm = det / (row1 * row2) if row1 > 0.0 and row2 > 0.0 else 0.0
    return NondegeneracyCertificate(
        det_j=det, det_normalized=det_norm, beta=beta, q=q,
        threshold=_DET_THRESHOLD, passed=abs(det_norm) > _DET_THRESHOLD)


# ---------------------------------------------------------------------------
# admissible beta

def find_admissible_beta(centre, q, beta_start: float = 0.5,
                         delta: float = 1e-4) -> float:
    """Halve beta (at most 60 times) until the centre is safe and inside the
    turning ellipse with cosh(xi0) < 0.99 cosh(xi_plus).  A centre that no
    beta can admit, one not finite or on a primary, and a margin delta not
    in (0, inf) raise DomainError before the first halving."""
    q = Fraction(q)
    point = _as_cartesian(centre)
    _check_centre(point)
    _check_delta(delta)
    beta = beta_start
    for _ in range(_MAX_HALVINGS):
        try:
            prm, sol = resonant_params(point, q, beta)
            xi_plus = turning_point_xi(beta, sol.a1_hat)
            xi0, _ = _principal_point(prm.centre)
            inside = (math.cosh(xi0)
                      < math.cosh(xi_plus) * (1.0 - _ELLIPSE_MARGIN))
            if inside and primary_collision_check(prm, delta=delta).safe:
                return beta
        except DomainError:
            pass
        beta *= 0.5
    raise RangeError(
        f"no admissible beta found for centre {centre} and q={q}"
        f" after {_MAX_HALVINGS} halvings from {beta_start}")
