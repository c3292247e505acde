"""Adaptive Gauss-Kronrod quadrature, kept as a test oracle.

The primary-collision exclusion test once computed its two travel times
with this G7/K15 integrator; it now evaluates them in closed form through
the incomplete elliptic integral F.  The integrator stays here so the tests
can check the closed form against the integrals it replaced.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from tricentre.errors import DomainError


class AccuracyError(Exception):
    """Requested accuracy not reached; carries the best estimate found."""

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float  # absolute
    evaluations: int


# 15-point Kronrod extension of 7-point Gauss on [-1, 1].
_XGK = (
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
)
_WGK = (
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
)
_WG = (
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
)


def _gauss_kronrod(f: Callable[[float], float], lo: float, hi: float):
    """One G7/K15 panel; returns (kronrod, |kronrod - gauss|)."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = f(centre)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for j in range(7):
        x = half * _XGK[j]
        fsum = f(centre - x) + f(centre + x)
        kron += _WGK[j] * fsum
        if j % 2 == 1:
            gauss += _WG[(j - 1) // 2] * fsum
    return half * kron, half * abs(kron - gauss)


def adaptive_quadrature(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
    max_intervals: int = 4096,
) -> QuadratureResult:
    """Globally adaptive Gauss-Kronrod integration of f over [lo, hi].

    Bisects the panel with the worst error estimate until the summed
    estimate drops below max(tol, tol * |value|).  Raises AccuracyError
    (carrying the best estimate) if the interval budget runs out first.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    if lo == hi:
        return QuadratureResult(0.0, 0.0, 1)
    sign = 1.0
    if hi < lo:
        lo, hi = hi, lo
        sign = -1.0

    val, err = _gauss_kronrod(f, lo, hi)
    evals = 15
    # heap of (-err, lo, hi, val, err); worst panel first
    heap = [(-err, lo, hi, val, err)]
    total_val, total_err = val, err
    while total_err > max(tol, tol * abs(total_val)):
        if len(heap) >= max_intervals:
            raise AccuracyError(
                f"quadrature did not converge within {max_intervals} panels"
                f" (error estimate {total_err:.3e})",
                best_estimate=QuadratureResult(sign * total_val, total_err, evals),
            )
        _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:  # interval at float resolution
            raise AccuracyError(
                "quadrature interval collapsed before reaching tolerance"
                f" (error estimate {total_err:.3e})",
                best_estimate=QuadratureResult(sign * total_val, total_err, evals),
            )
        v1, e1 = _gauss_kronrod(f, a, mid)
        v2, e2 = _gauss_kronrod(f, mid, b)
        evals += 30
        total_val += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, b, v2, e2))
    return QuadratureResult(sign * total_val, total_err, evals)
