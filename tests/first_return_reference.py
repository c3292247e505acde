"""Scanned first return of an arc to the centre, the oracle of the
closed form.

`build_arc` once found an arc's return to C by scanning the times at which
phi = +-phi0 (mod 2pi) in increasing order and matching xi there to within
1e-6.  `arcs._first_return` now reads the return off the orbit's
closed-form self-crossings; the tests check it against this scan, bit for
bit, except next to the axis and next to a self-crossing, where the scan's
tolerances decided its return.
"""
from __future__ import annotations

import math

from tricentre.errors import DomainError
from tricentre.geometry import TWO_PI, EllipticPoint
from tricentre.special import complete_elliptic_k


def first_return(path, centre: EllipticPoint, t_full: float) -> float:
    """Earliest tau in (1e-6 t_full, (1 + 2e-4) t_full] at which the path is
    back at C.

    phi = +-phi0 (mod 2pi) exactly when F(phi0) + d*w*tau lies in
    +-F(phi0) + 4K*Z (K of phi's modulus).  At such a time xi must match
    +-xi0 to within 1e-6; for phi0 = 0 or pi, where the two angles
    coincide, either sign of xi0 matches.  The window reaches past m*T1 so
    that it holds n*T2, the full-period return.  Each sign's times are
    tried in increasing order up to its first match.
    """
    xi0, phi0 = centre.xi, centre.phi
    mirrored = EllipticPoint(0.0, -phi0).phi
    one_angle = (abs(mirrored - phi0) <= 1e-12
                 or abs(abs(mirrored - phi0) - TWO_PI) <= 1e-12)
    lo, hi = 1e-6 * t_full, (1.0 + 2e-4) * t_full
    f0, rate = path._f0, path._rate
    step = 4.0 * complete_elliptic_k(path._k2) / abs(rate)  # phi turns 2pi
    first = math.inf
    for s in (1, -1):
        # tau = (s*f0 - f0 + 4K*j) / rate for integer j
        base = (s * f0 - f0) / rate
        targets = (xi0, -xi0) if one_angle else (s * xi0,)
        for j in range(math.floor((lo - base) / step),
                       math.ceil((hi - base) / step) + 1):
            tau = base + j * step
            if tau >= first:
                break
            xi = path.state_at(tau)[0] if lo < tau <= hi else math.inf
            if any(abs(xi - target) < 1e-6 for target in targets):
                first = tau
    if first == math.inf:
        raise DomainError(
            f"no return to the centre found within {hi:.6g} tau units;"
            " parameters are inconsistent")
    return first
