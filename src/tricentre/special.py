"""Complete and incomplete elliptic integrals of the first kind, math only.

Every closed-form period formula in the library funnels through
:func:`complete_elliptic_k` (the AGM); the travel times of the
primary-collision exclusion test go through :func:`incomplete_elliptic_f`,
which evaluates Carlson's symmetric integral R_F by duplication
(B. C. Carlson, Numer. Algorithms 10, 1995; DLMF 19.36.1).
"""
from __future__ import annotations

import functools
import math

from .errors import DomainError

__all__ = ["complete_elliptic_k", "incomplete_elliptic_f"]


def complete_elliptic_k(m: float) -> float:
    """K as a function of the squared modulus m, via the AGM iteration.

    K(m) = integral_0^1 dv / sqrt((1 - v^2)(1 - m v^2)), with
    K(m) = pi / (2 * agm(1, sqrt(1 - m))).  The iteration converges
    quadratically, so machine precision costs a handful of sqrt calls.
    """
    if not (0.0 <= m < 1.0) or math.isnan(m):
        raise DomainError(f"complete_elliptic_k requires 0 <= m < 1, got m={m!r}"
                          " (the integral diverges as m -> 1)")
    a = 1.0
    b = math.sqrt(1.0 - m)
    # quadratic convergence: machine-epsilon agreement within ~8 iterations
    for _ in range(40):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


# Duplication stops once every normalized difference is below
# (3 * 2^-53)^(1/8), where the series' first omitted (8th-order) term is
# under double-precision rounding.
_RF_SCALE = (3.0 * 2.0 ** -53) ** (-1.0 / 8.0)


def _carlson_rf(x: float, y: float, z: float) -> float:
    """Carlson's R_F(x, y, z) for x, y, z >= 0 with at most one zero.

    Each duplication step quarters the spread of (x, y, z) about their
    mean; the remainder is the degree-7 series of DLMF 19.36.1.
    """
    mean0 = (x + y + z) / 3.0
    dx, dy = mean0 - x, mean0 - y
    spread = _RF_SCALE * max(abs(dx), abs(dy), abs(mean0 - z))
    mean, shrink = mean0, 1.0
    while spread * shrink >= abs(mean):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mean = 0.25 * (mean + lam)
        shrink *= 0.25
    dx, dy = dx * shrink / mean, dy * shrink / mean
    dz = -dx - dy
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 + e3 * (1.0 / 14.0 + 3.0 * e3 / 104.0)
            + e2 * (-0.1 + e2 / 24.0 - 3.0 * e3 / 44.0 - 5.0 * e2 * e2 / 208.0
                    + e2 * e3 / 16.0)) / math.sqrt(mean)


def incomplete_elliptic_f(phi: float, m: float) -> float:
    """F(phi | m) = integral_0^phi dt / sqrt(1 - m sin^2 t), for real phi
    and every m < 1 (negative m included).

    For |phi| <= pi/2, F = sin(phi) * R_F(cos^2 phi, 1 - m sin^2 phi, 1);
    any other phi is first reduced by F(phi + n*pi) = F(phi) + 2n*K(m),
    with K(m) = K(m/(m - 1)) / sqrt(1 - m) for m < 0 (DLMF 19.7.2).
    """
    if not (-math.inf < m < 1.0 and math.isfinite(phi)):
        raise DomainError(f"incomplete_elliptic_f requires finite phi and m < 1,"
                          f" got phi={phi!r}, m={m!r}")
    n = round(phi / math.pi)
    phi -= n * math.pi
    s, c = math.sin(phi), math.cos(phi)
    f = s * _carlson_rf(c * c, 1.0 - m * s * s, 1.0)
    if n:
        f += 2 * n * _quarter_period(m)
    return f


_QUARTER_PERIOD_CACHE_SIZE = 256  # moduli _quarter_period keeps


@functools.lru_cache(maxsize=_QUARTER_PERIOD_CACHE_SIZE)
def _quarter_period(m: float) -> float:
    """K(m) for m < 1, through K(m/(m - 1)) / sqrt(1 - m) when m < 0.

    Memoised: the travel times of one resonance share their modulus
    (-0.0 and 0.0 share an entry, and K is the same at both).
    """
    return (complete_elliptic_k(m) if m >= 0.0
            else complete_elliptic_k(m / (m - 1.0)) / math.sqrt(1.0 - m))
