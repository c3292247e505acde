"""Closed-form periods of the separated system and the resonance solvers.

For admissible (beta, a1) the xi motion is a double-well oscillation of
period T1 and the phi motion a rotating pendulum of period T2, both given
in closed form through the complete elliptic integral.  A resonance class
q = m/n selects the unique a1_hat(beta, q) with q*T1 = T2, producing a
periodic orbit of energy E = -2*a*beta*a1_hat.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, RangeError
from .special import complete_elliptic_k

__all__ = [
    "ResonanceSolution",
    "modulus_squares", "period_xi", "period_phi",
    "resonance_residual", "solve_resonant_a1", "solve_beta_for_energy",
    "turning_point_xi",
]

_EDGE = 1e-9  # bracket inset from the a1 domain boundary
_BETA_CAP = 0.95  # largest beta the energy bracket of a class may reach


@dataclass(frozen=True)
class ResonanceSolution:
    """Parameters of a q*T1 = T2 resonance at fixed beta.

    residual is the remaining q*T1 - T2 at the returned a1_hat; clamped is
    True when the mathematical root lies closer to the a1 domain boundary
    than float resolution allows (extreme classes), in which case a1_hat is
    the best representable value and residual may exceed the tolerance.
    """

    beta: float
    q: Fraction
    a: float
    a1_hat: float
    t1: float
    t2: float
    residual: float
    clamped: bool = False
    evaluations: int = 0  # residual evaluations of the solve, bracket ends included

    @property
    def energy(self) -> float:
        return -2.0 * self.a * self.beta * self.a1_hat

    @property
    def full_period(self) -> float:
        """Common period m*T1 = n*T2 of the resonant orbit."""
        return self.q.numerator * self.t1


def _check_beta(beta: float):
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta must lie in [0, 1), got {beta}")


def _check_domain(beta: float, a1: float):
    _check_beta(beta)
    if not (0.0 < a1 < 1.0 / (1.0 + beta)):
        raise DomainError(
            f"a1 must lie in (0, 1/(1+beta)) = (0, {1.0/(1.0+beta):.6g}), got {a1}")


def _xi_modulus(beta: float, a1: float) -> tuple[float, float]:
    """Discriminant 1 - 4*beta*a1^2 and squared modulus k1^2 of the xi motion."""
    disc = 1.0 - 4.0 * beta * a1 * a1
    if disc <= 0.0:
        raise DomainError(f"discriminant 1 - 4*beta*a1^2 = {disc} must be positive")
    root = math.sqrt(disc)
    return disc, (a1 * (1.0 - beta) + root) / (2.0 * root)


def modulus_squares(beta: float, a1: float) -> tuple[float, float]:
    """Squared elliptic moduli (k1^2, k2^2) of the two period integrals.

    k1^2 in (1/2, 1) governs the xi oscillation, k2^2 = beta/(1+beta) in
    [0, 1/2) the phi rotation.
    """
    _check_domain(beta, a1)
    _, k1sq = _xi_modulus(beta, a1)
    return k1sq, beta / (1.0 + beta)


def _period_xi_in_a1(beta: float, a: float):
    """a1 -> T1 at fixed (beta, a), for a1 inside the domain."""
    scale = 2.0 * math.sqrt(2.0 / a)

    def t1(a1: float) -> float:
        disc, k1sq = _xi_modulus(beta, a1)
        if k1sq >= 1.0:
            raise DomainError("xi motion on the separatrix: period diverges")
        return scale / disc ** 0.25 * complete_elliptic_k(k1sq)
    return t1


def _period_phi_in_a1(beta: float, a: float):
    """a1 -> T2 at fixed (beta, a), for a1 inside the domain."""
    k_phi = complete_elliptic_k(beta / (1.0 + beta))
    return lambda a1: 2.0 / math.sqrt(a * a1 * (1.0 + beta)) * k_phi


def period_xi(beta: float, a1: float, a: float = 1.0) -> float:
    """Period T1 of the xi oscillation (strictly increasing in a1)."""
    _check_domain(beta, a1)
    return _period_xi_in_a1(beta, a)(a1)


def period_phi(beta: float, a1: float, a: float = 1.0) -> float:
    """Period T2 of the phi rotation (strictly decreasing in a1)."""
    modulus_squares(beta, a1)  # domain and discriminant checks
    return _period_phi_in_a1(beta, a)(a1)


def _residual_in_a1(beta: float, q: Fraction, a: float):
    """a1 -> q*T1 - T2 at fixed (beta, q, a), for a1 inside the domain;
    float(q), 2*sqrt(2/a) and K(k2^2) are computed once, not per a1."""
    qf, t1, t2 = float(q), _period_xi_in_a1(beta, a), _period_phi_in_a1(beta, a)
    return lambda a1: qf * t1(a1) - t2(a1)


def resonance_residual(beta: float, a1: float, q, a: float = 1.0) -> float:
    """q*T1 - T2; strictly increasing in a1, with a sign change on (0, 1/(1+beta))."""
    q = Fraction(q)
    _check_domain(beta, a1)
    return _residual_in_a1(beta, q, a)(a1)


_SOLVE_CACHE_SIZE = 256  # resonances solve_resonant_a1 keeps


def _memoised(solve):
    """solve behind a bounded LRU cache; `cache_info()` reports its use.

    A hit returns what a fresh solve returns: typed=True keeps int and
    float arguments apart, and the sign of beta joins the key because
    -0.0 == 0.0 share a hash.  A call that raises is not cached.
    """
    @functools.lru_cache(maxsize=_SOLVE_CACHE_SIZE, typed=True)
    def cached(sign, beta, *args, **kwargs):
        return solve(beta, *args, **kwargs)

    @functools.wraps(solve)
    def memoised(beta, *args, **kwargs):
        return cached(math.copysign(1.0, beta), beta, *args, **kwargs)
    memoised.cache_info, memoised.cache_clear = cached.cache_info, cached.cache_clear
    return memoised


@_memoised
def solve_resonant_a1(beta: float, q, a: float = 1.0,
                      tol: float = 1e-12) -> ResonanceSolution:
    """Unique a1_hat(beta, q) with q*T1 = T2, by bisection + secant.

    The residual runs from -inf (a1 -> 0, T2 diverges) to +inf
    (a1 -> 1/(1+beta), T1 diverges), and is strictly increasing, so a sign
    change bracket is guaranteed in exact arithmetic.  For extreme classes
    the root can sit closer to a boundary than double precision resolves;
    the solution is then clamped to the representable edge and flagged.
    Solutions are memoised per argument tuple (see _memoised).
    """
    q = Fraction(q)
    if q <= 0:
        raise DomainError(f"class q must be positive, got {q}")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    _check_beta(beta)  # before 1/(1+beta); every a1 tried lies in [lo, hi]
    hi_edge = 1.0 / (1.0 + beta)
    lo, hi = _EDGE * hi_edge, hi_edge * (1.0 - _EDGE)
    residual, calls = _residual_in_a1(beta, q, a), []

    def f(a1: float) -> float:
        calls.append(a1)
        return residual(a1)

    f_lo, f_hi = f(lo), f(hi)
    clamped = False
    if f_lo >= 0.0:
        a1, res, clamped = lo, f_lo, True
    elif f_hi <= 0.0:
        a1, res, clamped = hi, f_hi, True
    else:
        a1, res = _bracketed_root(f, lo, hi, f_lo, f_hi, tol)
    return ResonanceSolution(
        beta=beta, q=q, a=a, a1_hat=a1,
        t1=period_xi(beta, a1, a), t2=period_phi(beta, a1, a),
        residual=res, clamped=clamped, evaluations=len(calls))


def _bracketed_root(f, lo, hi, f_lo, f_hi, tol):
    """Safeguarded secant within a sign-change bracket; |f| <= tol on exit
    unless the bracket collapses to float resolution first.  Every third
    iteration bisects outright, so the bracket shrinks geometrically even
    when secant steps stall near an endpoint."""
    best, res = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    for it in range(200):
        mid = 0.5 * (lo + hi)
        denom = f_hi - f_lo
        if it % 3 == 2 or denom == 0.0:
            cand = mid
        else:
            cand = hi - f_hi * (hi - lo) / denom
            width = hi - lo
            if not (lo + 0.01 * width <= cand <= hi - 0.01 * width):
                cand = mid
        if cand <= lo or cand >= hi:
            break
        f_cand = f(cand)
        if abs(f_cand) <= tol:
            return cand, f_cand
        if (f_cand < 0.0) == (f_lo < 0.0):
            lo, f_lo = cand, f_cand
        else:
            hi, f_hi = cand, f_cand
        best, res = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    return best, res


def solve_beta_for_energy(q, energy: float, a: float = 1.0,
                          tol: float = 1e-12) -> ResonanceSolution:
    """Find beta with energy(beta, q) = -2*a*beta*a1_hat(beta, q) = energy.

    The resonant energy decreases continuously from 0 at beta = 0, so a
    bracket exists whenever |energy| is small enough for the class; a
    RangeError is raised otherwise (beta is capped at 0.95).
    """
    q = Fraction(q)
    if not (energy < 0.0):
        raise DomainError(f"energy must be negative, got {energy}")
    solve = functools.cache(lambda beta: solve_resonant_a1(beta, q, a, tol))

    def gap(beta: float) -> float:
        return solve(beta).energy - energy

    lo = 1e-12
    if gap(lo) <= 0.0:  # |energy| below resolution
        return solve(lo)
    hi = 0.05
    while gap(hi) > 0.0:
        hi = min(hi * 2.0, _BETA_CAP)
        if hi >= _BETA_CAP and gap(_BETA_CAP) > 0.0:
            raise RangeError(
                f"|energy| = {abs(energy):.6g} is out of reach for class {q}"
                f" with beta <= {_BETA_CAP}")
    beta, _ = _bracketed_root(gap, lo, hi, gap(lo), gap(hi),
                              tol * max(1.0, abs(energy)))
    return solve(beta)


def turning_point_xi(beta: float, a1: float) -> float:
    """Positive inversion point xi_plus of the xi oscillation.

    cosh(xi_plus) is the larger root of beta*a1*c^2 - c + a1 = 0; the other
    inversion point is -xi_plus by evenness of the xi potential.  The
    oscillation is unbounded at beta = 0 (domain error).
    """
    _check_domain(beta, a1)
    if beta == 0.0:
        raise DomainError("beta = 0: the xi motion has no finite turning point")
    disc, _ = _xi_modulus(beta, a1)
    cosh_xi = (1.0 + math.sqrt(disc)) / (2.0 * beta * a1)
    return math.acosh(cosh_xi)
