"""Closed-form periods of the separated system and the resonance solvers.

For admissible (beta, a1) the xi motion is a double-well oscillation of
period T1 and the phi motion a rotating pendulum of period T2, both given
in closed form through the complete elliptic integral.  A resonance class
q = m/n selects the unique a1_hat(beta, q) with q*T1 = T2, an orbit of
energy E = -2*beta*a1_hat; a level E fixes a1 = -E/(2*beta), the curve
the energy search runs on.  Every resonance solve stops at
|q*T1 - T2| <= 1e-12, and one bracketed root finder (_bracketed_root)
serves the solves, the energy search and the event roots of `dynamics`.

The primaries' intensity is 1: with tau rescaled by sqrt(a), intensity a
at energy E is intensity 1 at E/a.  `period_xi`'s a takes 1.0 alone.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, RangeError
from .special import complete_elliptic_k

__all__ = [
    "ResonanceSolution",
    "modulus_squares", "period_xi", "period_phi",
    "solve_resonant_a1", "solve_beta_for_energy",
    "turning_point_xi",
]

_EDGE = 1e-9  # bracket inset from the a1 domain boundary
_BETA_CAP = 0.95  # largest beta the energy bracket of a class may reach
_RESONANCE_TOL = 1e-12  # |q*T1 - T2| at which a resonance solve stops
_SOLVE_CACHE_SIZE = 256  # resonances solve_resonant_a1 keeps


class ResonanceSolution(NamedTuple):
    """Parameters of a q*T1 = T2 resonance at fixed beta.

    residual is the remaining q*T1 - T2 at the returned a1_hat; clamped is
    True when the solve stopped above the tolerance.  Either the root lies
    beyond the bracket's edges, inset 1e-9 from the a1 domain (extreme
    classes; a1_hat is then the inset edge, which need not be the best
    float: at q = 1/15, beta = 0.025641025667324 the root is 1.85e-13 from
    the boundary in 1 - a1(1+beta), where the best float's residual is
    1.3e-5, against -0.83 at the edge), or the last bracket holds no float
    strictly inside and neither end meets the tolerance (small classes near
    the separatrix; a1_hat is the trial of least |residual|).
    """

    beta: float
    q: Fraction
    a1_hat: float
    t1: float
    t2: float
    residual: float
    clamped: bool = False
    evaluations: int = 0  # residual evaluations of the solve, bracket ends included

    @property
    def energy(self) -> float:
        return -2.0 * self.beta * self.a1_hat

    @property
    def full_period(self) -> float:
        """Common period m*T1 = n*T2 of the resonant orbit."""
        return self.q.numerator * self.t1


def _check_beta(beta: float):
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta must lie in [0, 1), got {beta}")


def _check_unit_intensity(a: float):
    if a != 1.0:
        raise DomainError(f"the primaries' intensity is fixed at 1, got {a}")


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


def _period_xi(beta: float, a1: float) -> float:
    """T1 at (beta, a1), for a1 inside the domain."""
    disc, k1sq = _xi_modulus(beta, a1)
    if k1sq >= 1.0:
        raise DomainError("xi motion on the separatrix: period diverges")
    return 2.0 * math.sqrt(2.0) / disc ** 0.25 * complete_elliptic_k(k1sq)


def _period_phi_in_a1(beta: float):
    """a1 -> T2 at fixed beta, for a1 inside the domain."""
    k_phi = complete_elliptic_k(beta / (1.0 + beta))
    return lambda a1: 2.0 / math.sqrt(a1 * (1.0 + beta)) * k_phi


def period_xi(beta: float, a1: float, a: float = 1.0) -> float:
    """Period T1 of the xi oscillation (strictly increasing in a1)."""
    _check_unit_intensity(a)
    _check_domain(beta, a1)
    return _period_xi(beta, a1)


def period_phi(beta: float, a1: float) -> float:
    """Period T2 of the phi rotation (strictly decreasing in a1)."""
    modulus_squares(beta, a1)  # domain and discriminant checks
    return _period_phi_in_a1(beta)(a1)


def _residual_in_a1(beta: float, q: Fraction):
    """a1 -> q*T1 - T2 at fixed (beta, q), for a1 inside the domain;
    float(q) and K(k2^2) are computed once, not per a1."""
    qf, t2 = float(q), _period_phi_in_a1(beta)
    return lambda a1: qf * _period_xi(beta, a1) - t2(a1)


def _memoised(solve):
    """solve behind a bounded LRU cache; `cache_info()` reports its use.

    The key holds the class q as its integer pair (m, n), so 1, Fraction(1)
    and Fraction(2, 2) share an entry, each solving as Fraction(q) does,
    and a hit hashes no Fraction.  A hit returns what a fresh solve
    returns: typed=True keeps int and float arguments apart, and the sign
    of beta joins the key because -0.0 == 0.0 share a hash.
    A call that raises is not cached.
    """
    @functools.lru_cache(maxsize=_SOLVE_CACHE_SIZE, typed=True)
    def cached(sign, beta, m, n):
        return solve(beta, Fraction(m, n))

    @functools.wraps(solve)
    def memoised(beta, q):
        try:
            m, n = q.as_integer_ratio()
        except AttributeError:  # a string, say, which Fraction parses
            m, n = Fraction(q).as_integer_ratio()
        return cached(math.copysign(1.0, beta), beta, m, n)
    memoised.cache_info, memoised.cache_clear = cached.cache_info, cached.cache_clear
    return memoised


@_memoised
def solve_resonant_a1(beta: float, q) -> ResonanceSolution:
    """Unique a1_hat(beta, q) with q*T1 = T2, by Illinois false position
    (see _bracketed_root).

    The residual runs from -inf (a1 -> 0, T2 diverges) to +inf
    (a1 -> 1/(1+beta), T1 diverges), and is strictly increasing, so a sign
    change bracket is guaranteed in exact arithmetic.  For extreme classes
    the root can sit closer to a boundary than double precision resolves,
    or between two adjacent floats neither of which meets the tolerance;
    the solution is then flagged clamped (see ResonanceSolution).
    Solutions are memoised per (beta, q) (see _memoised).
    """
    q = Fraction(q)
    if q <= 0:
        raise DomainError(f"class q must be positive, got {q}")
    _check_beta(beta)  # before 1/(1+beta); every a1 tried lies in [lo, hi]
    hi_edge = 1.0 / (1.0 + beta)
    lo, hi = _EDGE * hi_edge, hi_edge * (1.0 - _EDGE)
    residual, calls = _residual_in_a1(beta, q), []

    def f(a1: float) -> float:
        calls.append(a1)
        return residual(a1)

    f_lo, f_hi = f(lo), f(hi)
    if f_lo >= 0.0:
        a1, res, clamped = lo, f_lo, True
    elif f_hi <= 0.0:
        a1, res, clamped = hi, f_hi, True
    else:  # with xtol = 0 the search stops above tolerance only on collapse
        a1, res = _bracketed_root(f, lo, hi, f_lo, f_hi, _RESONANCE_TOL, 0.0)
        clamped = abs(res) > _RESONANCE_TOL
    return ResonanceSolution(
        beta=beta, q=q, a1_hat=a1,
        t1=period_xi(beta, a1), t2=period_phi(beta, a1),
        residual=res, clamped=clamped, evaluations=len(calls))


def _bracketed_root(f, lo, hi, f_lo, f_hi, ftol, xtol):
    """Root of f on the sign-change bracket lo < hi, by Illinois false
    position (Dowell and Jarratt, BIT 11, 1971): the value kept at an end
    that survives two steps in a row is halved, so both ends close in.

    Stops at a trial point with |f| <= ftol, at a bracket no wider than
    xtol*max(1, |lo|, |hi|), or when no float lies strictly inside the
    bracket.  The first secant point that rounds onto an end is replaced by
    the float next to that end, inside the bracket, which ends the search
    when the root lies that close to the end; later ones, by the midpoint,
    so a badly predicted secant cannot crawl in one float at a time.
    Returns the point of least |f| seen, the latest of equals, and f there.
    """
    best, res = (lo, f_lo) if abs(f_lo) < abs(f_hi) else (hi, f_hi)
    lo_negative = f_lo < 0.0
    kept = 0  # the end the last step kept: +1 lo, -1 hi
    probed = False  # whether a float next to an end has been tried
    while hi - lo > xtol * max(1.0, abs(lo), abs(hi)):
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < x < hi:
            if probed:
                x = 0.5 * (lo + hi)
            else:
                x = math.nextafter(lo, hi) if x <= lo else math.nextafter(hi, lo)
                probed = True
            if not lo < x < hi:
                break
        fx = f(x)
        if abs(fx) <= abs(res):
            best, res = x, fx
        if abs(fx) <= ftol:
            break
        if (fx < 0.0) == lo_negative:
            lo, f_lo = x, fx
            if kept == -1:
                f_hi *= 0.5
            kept = -1
        else:
            hi, f_hi = x, fx
            if kept == 1:
                f_lo *= 0.5
            kept = 1
    return best, res


def solve_beta_for_energy(q, energy: float) -> ResonanceSolution:
    """Find beta with energy(beta, q) = -2*beta*a1_hat(beta, q) = energy.

    One bracketed root over beta of R = q*T1 - T2 on the level's curve
    a1 = -energy/(2*beta), one T1 and one K(k2^2) a trial, stops at
    |R| <= 0.5e-12; as dR/da1 > T2/(2*a1) and T2 > pi, the resonance at
    that beta, returned, lies within 1e-12*|energy| of the level.  The
    bracket runs to beta = 0.95 from 1e-12, or from where the curve meets
    the solves' inset a1 edge (the answer for a class clamped there);
    beyond the class's energies at its ends a RangeError is raised.
    """
    q, m = Fraction(q), -energy
    if not (energy < 0.0):
        raise DomainError(f"energy must be negative, got {energy}")
    if q <= 0:
        raise DomainError(f"class q must be positive, got {q}")

    def residual(beta: float) -> float:  # q*T1 - T2 on the level's curve
        return _residual_in_a1(beta, q)(m / (2.0 * beta))

    span = 2.0 * (1.0 - _EDGE) - m  # m/(2*beta) = (1 - _EDGE)/(1 + beta)
    edge = m / span if span > 0.0 else math.inf
    f_cap = residual(_BETA_CAP) if edge < _BETA_CAP else math.inf
    if f_cap > 0.0:
        raise RangeError(f"|energy| = {m:.6g} is out of reach for class {q}"
                         f" with beta <= {_BETA_CAP}")
    lo = max(1e-12, edge)
    f_lo = residual(lo)
    if f_lo < 0.0 and lo > edge:
        raise RangeError(f"|energy| = {m:.6g} is below the reach of class"
                         f" {q}: beta >= {lo:g} gives |energy| >= "
                         f"{abs(solve_resonant_a1(lo, q).energy):.6g}")
    beta = lo if f_lo <= 0.0 else _bracketed_root(
        residual, lo, _BETA_CAP, f_lo, f_cap, 0.5 * _RESONANCE_TOL, 0.0)[0]
    return solve_resonant_a1(beta, q)


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
