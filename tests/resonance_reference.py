"""Reference resonance solves for the oracle tests.

This is the earlier implementation of ``tricentre.periods`` kept verbatim:
the period formulas, ``resonance_residual`` (which rebuilds float(q) and
K(k2^2) and runs the domain checks on every call), the
``solve_resonant_a1`` solver (a secant with a bisection every third step)
and ``solve_beta_for_energy`` (which repeats some of its nested solves).
The production formulas must reproduce these bitwise: the periods, the
moduli and the residual, also at the production root.  The production
root finder iterates differently, so its roots need only agree with the
reference roots to within what the two residuals allow, and its energy
searches to within the search tolerance.

The reference keeps the primaries' intensity a, which the production code
fixes at 1, so that the scaling law (a, E) -> (1, E/a) can be tested
against it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from tricentre.errors import DomainError, RangeError
from tricentre.special import complete_elliptic_k

_EDGE = 1e-9  # bracket inset from the a1 domain boundary


@dataclass(frozen=True)
class ResonanceSolution:
    """A reference resonance at intensity a; E = -2*a*beta*a1_hat."""

    beta: float
    q: Fraction
    a: float
    a1_hat: float
    t1: float
    t2: float
    residual: float
    clamped: bool = False

    @property
    def energy(self) -> float:
        return -2.0 * self.a * self.beta * self.a1_hat


def _check_domain(beta: float, a1: float):
    if not (0.0 <= beta < 1.0):
        raise DomainError(f"beta must lie in [0, 1), got {beta}")
    if not (0.0 < a1 < 1.0 / (1.0 + beta)):
        raise DomainError(
            f"a1 must lie in (0, 1/(1+beta)) = (0, {1.0/(1.0+beta):.6g}), got {a1}")


def modulus_squares(beta: float, a1: float) -> tuple[float, float]:
    """Squared elliptic moduli (k1^2, k2^2) of the two period integrals.

    k1^2 in (1/2, 1) governs the xi oscillation, k2^2 = beta/(1+beta) in
    [0, 1/2) the phi rotation.
    """
    _check_domain(beta, a1)
    disc = 1.0 - 4.0 * beta * a1 * a1
    if disc <= 0.0:
        raise DomainError(f"discriminant 1 - 4*beta*a1^2 = {disc} must be positive")
    root = math.sqrt(disc)
    k1sq = (a1 * (1.0 - beta) + root) / (2.0 * root)
    k2sq = beta / (1.0 + beta)
    return k1sq, k2sq


def period_xi(beta: float, a1: float, a: float = 1.0) -> float:
    """Period T1 of the xi oscillation (strictly increasing in a1)."""
    k1sq, _ = modulus_squares(beta, a1)
    if k1sq >= 1.0:
        raise DomainError("xi motion on the separatrix: period diverges")
    disc = 1.0 - 4.0 * beta * a1 * a1
    return 2.0 * math.sqrt(2.0 / a) / disc ** 0.25 * complete_elliptic_k(k1sq)


def period_phi(beta: float, a1: float, a: float = 1.0) -> float:
    """Period T2 of the phi rotation (strictly decreasing in a1)."""
    _, k2sq = modulus_squares(beta, a1)
    return 2.0 / math.sqrt(a * a1 * (1.0 + beta)) * complete_elliptic_k(k2sq)


def resonance_residual(beta: float, a1: float, q, a: float = 1.0) -> float:
    """q*T1 - T2; strictly increasing in a1, with a sign change on (0, 1/(1+beta))."""
    q = Fraction(q)
    return float(q) * period_xi(beta, a1, a) - period_phi(beta, a1, a)


def solve_resonant_a1(beta: float, q, a: float = 1.0,
                      tol: float = 1e-12) -> ResonanceSolution:
    """Unique a1_hat(beta, q) with q*T1 = T2, by bisection + secant.

    The residual runs from -inf (a1 -> 0, T2 diverges) to +inf
    (a1 -> 1/(1+beta), T1 diverges), and is strictly increasing, so a sign
    change bracket is guaranteed in exact arithmetic.  For extreme classes
    the root can sit closer to a boundary than double precision resolves;
    the solution is then clamped to the representable edge and flagged.
    """
    q = Fraction(q)
    if q <= 0:
        raise DomainError(f"class q must be positive, got {q}")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    hi_edge = 1.0 / (1.0 + beta)
    lo = _EDGE * hi_edge
    hi = hi_edge * (1.0 - _EDGE)
    f_lo = resonance_residual(beta, lo, q, a)
    f_hi = resonance_residual(beta, hi, q, a)

    clamped = False
    if f_lo >= 0.0:
        a1, res, clamped = lo, f_lo, True
    elif f_hi <= 0.0:
        a1, res, clamped = hi, f_hi, True
    else:
        a1, res = _bracketed_root(
            lambda v: resonance_residual(beta, v, q, a), lo, hi, f_lo, f_hi, tol)
    return ResonanceSolution(
        beta=beta, q=q, a=a, a1_hat=a1,
        t1=period_xi(beta, a1, a), t2=period_phi(beta, a1, a),
        residual=res, clamped=clamped)


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
                          tol: float = 1e-12,
                          beta_cap: float = 0.95) -> ResonanceSolution:
    """Find beta with energy(beta, q) = -2*a*beta*a1_hat(beta, q) = energy.

    The resonant energy decreases continuously from 0 at beta = 0, so a
    bracket exists whenever |energy| is small enough for the class; a
    RangeError is raised otherwise.
    """
    q = Fraction(q)
    if not (energy < 0.0):
        raise DomainError(f"energy must be negative, got {energy}")

    def gap(beta: float) -> float:
        return solve_resonant_a1(beta, q, a, tol).energy - energy

    lo = 1e-12
    if gap(lo) <= 0.0:  # |energy| below resolution
        return solve_resonant_a1(lo, q, a, tol)
    hi = 0.05
    while gap(hi) > 0.0:
        hi = min(hi * 2.0, beta_cap)
        if hi >= beta_cap and gap(beta_cap) > 0.0:
            raise RangeError(
                f"|energy| = {abs(energy):.6g} is out of reach for class {q}"
                f" with beta <= {beta_cap}")
    beta, _ = _bracketed_root(gap, lo, hi, gap(lo), gap(hi),
                              tol * max(1.0, abs(energy)))
    return solve_resonant_a1(beta, q, a, tol)
