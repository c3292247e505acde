"""Collision arcs through the perturbing centre.

An arc is a fixed-energy solution of the unperturbed separated flow that
starts and ends at the centre C with no interior passage through it.  For
a resonant parameter set the four (sign, direction) velocity choices at C
yield four labeled arcs; when C sits on a self-intersection of the orbit
the arcs end at the first early return instead of the full period.
Nothing here integrates: at eps = 0 both separated motions are Jacobi
elliptic functions of tau, which `SeparatedPath` evaluates through `am`,
with math for a float tau and with numpy, loaded then, for an array.  The
orbit's self-crossings come in closed form too, and an arc returns to C
early exactly when C is one of them.  An arc's closest approach to a
primary is exact: Newton searches on the distance's tau-derivative start
from the closed-form times at which xi = 0 or phi = 0 (mod pi), and from
the arc's ends.

A family is built only for a centre that passes the primary-collision
exclusion test of `exclusion`, and only if no arc of it passes within
1e-6 of a primary.  At beta = 0 the xi motion has no turning point and
the orbit passes through infinity, so no path is built there.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import (DomainError, PlacementError, StructuralError,
                     UnsafeCentreError)
from .exclusion import _separated_motion, primary_collision_check
from .geometry import (EllipticPoint, elliptic_to_cartesian,
                       velocity_to_cartesian)
from .params import Params
from .periods import period_phi, period_xi, turning_point_xi
from .special import complete_elliptic_k, incomplete_elliptic_f

__all__ = [
    "ArcLabel", "CollisionArc", "initial_velocities", "build_arc",
    "arc_family",
]


class ArcLabel(NamedTuple):
    q: Fraction
    sign: int       # sign of xi' at departure
    direction: int  # sign of phi' at departure

    def __str__(self):
        return f"q={self.q}:s{self.sign:+d}:d{self.direction:+d}"


class CollisionArc(NamedTuple):
    params: Params
    label: ArcLabel
    start: EllipticPoint
    end: EllipticPoint
    v0: tuple[float, float]   # elliptic velocity at departure
    vT: tuple[float, float]   # elliptic velocity at arrival
    duration: float           # tau time of the first return to C
    path: SeparatedPath
    early_collision: bool
    min_primary_distance: float
    closure_error: float      # Cartesian distance from the endpoint to C

    @property
    def v0_cartesian(self):
        return velocity_to_cartesian(self.start, self.v0)

    @property
    def vT_cartesian(self):
        return velocity_to_cartesian(self.end, self.vT)

    @property
    def energy(self) -> float:
        return self.params.energy


def initial_velocities(centre: EllipticPoint, beta: float,
                       a1_hat: float) -> tuple[float, float]:
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
    xi_speed = 2.0 * math.sqrt(r)
    phi_speed = 2.0 * math.sqrt(beta * a1_hat * math.cos(phi0) ** 2 + a1_hat)
    return xi_speed, phi_speed


def _landen(m: float) -> tuple[float, tuple[float, ...]]:
    """The scale 2^N a_N and the ratios c_n / a_n, last first, that `am`
    takes for the modulus m: the descending Landen (AGM) sequence a_n, c_n
    of (1, sqrt(1 - m), sqrt(m)) runs until c_N <= 2^-26 a_N, where the
    next correction, c_(N+1)/a ~ (c_N/a)^2 / 4, is below rounding."""
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    ratios = []
    while c > 2.0 ** -26 * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ratios.append(c / a)
    return 2.0 ** len(ratios) * a, tuple(reversed(ratios))


def am(u, landen, lib):
    """Jacobi amplitude am(u | m), for 0 <= m < 1, from m's `_landen`
    sequence: phi_N = 2^N a_N u and phi_(n-1) = (phi_n + arcsin(c_n / a_n
    sin phi_n)) / 2 (Abramowitz and Stegun 16.4; DLMF 22.20), over lib:
    math for a float u, numpy for an array.  sn, cn and dn are sin(am),
    cos(am) and sqrt(1 - m sin^2(am)); am(u | 0) = u."""
    scale, ratios = landen
    phi = scale * u
    for r in ratios:
        phi = 0.5 * (phi + lib.asin(r * lib.sin(phi)))
    return phi


class SeparatedPath:
    """The eps = 0 motion from start with velocity signs (sign, direction),
    in closed form over [0, duration].

    With the constants of `exclusion._separated_motion`, k2^2 = beta/(1+beta),
    m = u+/(u+ - u-) and lam = sqrt(A (u+ - u-)):

        phi = am(F(phi0 | k2^2) + direction*w*tau | k2^2),
        tanh(xi/2) = sqrt(u+) cn(lam*tau + v0 | m),

    with v0 = -sign F(arccos(tanh(xi0/2)/sqrt(u+)) | m), so that xi' has the
    sign of `sign` at tau = 0; both Landen sequences, and K of both moduli,
    are computed once.
    It serves what readers of a collision arc's path use: `taus` (the two
    ends), `state_at` and `dense_grid`; `figdata` samples the two motions
    on their own, once per distinct key.  beta = 0 raises DomainError, as
    `turning_point_xi` does, and so does a beta so small that u+ rounds
    to 1.
    """

    def __init__(self, prm: Params, start: EllipticPoint, sign: int,
                 direction: int, duration: float):
        turning_point_xi(prm.beta, prm.a1)  # refuses beta = 0
        u_plus, u_minus, big_a, w, _ = _separated_motion(prm.beta, prm.a1)
        if u_plus >= 1.0:
            raise DomainError(f"beta = {prm.beta!r} is too small:"
                              " tanh^2(xi_plus/2) rounds to 1")
        self._k2 = prm.beta / (1.0 + prm.beta)
        self._f0 = incomplete_elliptic_f(start.phi, self._k2)
        self._rate = direction * w
        self._m = u_plus / (u_plus - u_minus)
        self._lam = math.sqrt(big_a * (u_plus - u_minus))
        self._root_u = math.sqrt(u_plus)
        self._phi_landen, self._xi_landen = _landen(self._k2), _landen(self._m)
        self._k_phi = complete_elliptic_k(self._k2)
        self._k_xi = complete_elliptic_k(self._m)
        cn0 = math.tanh(0.5 * start.xi) / self._root_u
        if not abs(cn0) <= 1.0:
            raise PlacementError(
                f"start xi={start.xi:.6g} lies beyond the turning ellipse")
        self._v0 = -sign * incomplete_elliptic_f(math.acos(cn0), self._m)
        self.taus = [0.0, float(duration)]
        # the constants each motion reads: equal keys, equal floats
        self._xi_key = ("xi", self._m, self._lam, self._root_u, self._v0)
        self._phi_key = ("phi", self._k2, self._rate, self._f0)

    def _xi_motion(self, t, lib, speed: bool):
        """xi at t over lib, and xi' with it if speed."""
        theta = am(self._lam * t + self._v0, self._xi_landen, lib)
        half = self._root_u * lib.cos(theta)  # tanh(xi/2)
        xi = 2.0 * lib.atanh(half)
        if not speed:
            return xi
        sn = lib.sin(theta)
        return xi, (-2.0 * self._root_u * self._lam * sn
                    * lib.sqrt(1.0 - self._m * sn * sn) / (1.0 - half * half))

    def _phi_motion(self, t, lib, speed: bool):
        """phi at t over lib, and phi' with it if speed."""
        phi = am(self._f0 + self._rate * t, self._phi_landen, lib)
        if not speed:
            return phi
        sp = lib.sin(phi)
        return phi, self._rate * lib.sqrt(1.0 - self._k2 * (sp * sp))

    def _state(self, t, lib) -> tuple:
        """(xi, phi, xi', phi') at t over lib, math for a float t and numpy
        for an array: every state of the path is evaluated here."""
        xi, dxi = self._xi_motion(t, lib, True)
        phi, dphi = self._phi_motion(t, lib, True)
        return xi, phi, dxi, dphi

    def state_at(self, tau):
        """State (xi, phi, xi', phi') at tau: a tuple for a float and a
        list of them for a list, with math; an (..., 4) array for an
        array, with numpy."""
        if isinstance(tau, (float, int)):
            return self._state(tau, math)
        if isinstance(tau, list):
            return [self._state(t, math) for t in tau]
        import numpy as np
        return np.stack(self._state(np.asarray(tau, dtype=float), np), axis=-1)

    def dense_grid(self, n: int = 1024):
        """Uniform tau array with its (n, 4) states, endpoints included."""
        import numpy as np
        t = np.linspace(self.taus[0], self.taus[-1], n)
        return t, self.state_at(t)


def build_arc(prm: Params, sign: int, direction: int) -> CollisionArc:
    """One collision arc from C until its first return to C, in closed form.

    The return comes before the full resonant period m*T1 = n*T2 exactly
    when C is a self-crossing of the periodic orbit (`_first_return`); such
    an early return sets the early_collision flag.  min_primary_distance
    is the exact least distance to a primary (`_closest_primary_approach`).
    """
    if sign not in (-1, 1) or direction not in (-1, 1):
        raise DomainError("sign and direction must each be +1 or -1")
    m, n = prm.q.numerator, prm.q.denominator
    t1 = period_xi(prm.beta, prm.a1)
    t2 = period_phi(prm.beta, prm.a1)
    t_full = m * t1
    if abs(m * t1 - n * t2) > 1e-6 * t_full:
        raise DomainError(
            f"parameters are not resonant for q={prm.q}: m*T1={m*t1:.12g}"
            f" differs from n*T2={n*t2:.12g}")

    centre = prm.centre_elliptic
    xi_speed, phi_speed = initial_velocities(centre, prm.beta, prm.a1)
    path = SeparatedPath(prm, centre, sign, direction, t_full)
    duration = path.taus[-1] = _first_return(path, prm.q, t_full)
    y_end = path.state_at(duration)
    end = EllipticPoint(y_end[0], y_end[1])
    return CollisionArc(
        params=prm, label=ArcLabel(prm.q, sign, direction), start=centre,
        end=end, v0=(sign * xi_speed, direction * phi_speed),
        vT=(y_end[2], y_end[3]), duration=duration, path=path,
        early_collision=duration < t_full * (1.0 - 1e-6),
        min_primary_distance=_closest_primary_approach(path),
        closure_error=elliptic_to_cartesian(end).distance_to(prm.centre))


_RETURN_CUT = 1e-9  # a crossing time this near 0, over the period, is at C


def _first_return(path: SeparatedPath, q: Fraction, period: float) -> float:
    """The tau of the path's first return to C, its start, for the full
    period m*T1 = n*T2.

    The return is early exactly when C is a self-crossing of the orbit: one
    time of a `_self_crossings` pair lies within _RETURN_CUT of the period
    of 0 (mod the period), and the earliest other time of such a pair is
    the return.  Otherwise it is the full period.  The time is snapped to
    the nearest tau at which phi = +-phi0 (mod 2pi), where F(phi0) + w' tau
    lies in +-F(phi0) + 4K*Z (K of phi's modulus), +phi0 on a tie.
    """
    target = min((b for pair in _self_crossings(path, q)
                  for a, b in (pair, pair[::-1])
                  if min(a, period - a) <= _RETURN_CUT * period),
                 default=period)
    step = 4.0 * path._k_phi / abs(path._rate)  # phi turns 2pi
    return min((base + round((target - base) / step) * step
                for base in (0.0, -2.0 * path._f0 / path._rate)),
               key=lambda tau: abs(tau - target))


_APPROACH_TOL = 1e-10      # Newton step, over the duration, that ends a search
# trial steps after which a search is abandoned; one from an end far out,
# xi0 below about 39 while u+ < 1, creeps down about 0.6 in xi a step
_APPROACH_MAX_STEPS = 100


def _closest_primary_approach(path: SeparatedPath) -> float:
    """Least distance over [0, duration] from the path to a primary.

    |z -+ 1| = cosh xi -+ cos phi, so with psi = phi less the nearest
    multiple of pi the distance to the nearer primary is, without
    cancellation, d = 2 sinh^2(xi/2) + 2 sin^2(psi/2).  A passage near a
    primary has xi and psi near 0 at once, so the searches start at the
    times at which xi = 0, lam tau + v0 = (2k + 1) K(m), or psi = 0,
    F(phi0) + w' tau = 2j K(k2^2), and at both ends.  Each is a Newton
    search on d' that runs downhill: its step -d'/|d''|, kept inside
    [0, duration], is taken if it lowers d and halved if not, until it is
    below _APPROACH_TOL of the duration.  d'' takes xi'' = 2 sinh xi
    (1 - 2 beta a1 cosh xi) and phi'' = -4 beta a1 sin phi cos phi from
    the separated equations of motion, with beta a1 = w'^2 k2^2 / 4.
    Returns the least d found; a search still moving after
    _APPROACH_MAX_STEPS trials raises StructuralError.
    """
    duration = path.taus[-1]
    starts = {0.0, duration}
    k_xi, k_phi = path._k_xi, path._k_phi
    # first + rate*tau = j*spacing: xi = 0, then psi = 0
    for first, rate, spacing in ((path._v0 - k_xi, path._lam, 2.0 * k_xi),
                                 (path._f0, path._rate, 2.0 * k_phi)):
        lo, hi = sorted((first / spacing, (first + rate * duration) / spacing))
        starts.update(min(max((j * spacing - first) / rate, 0.0), duration)
                      for j in range(math.ceil(lo), math.floor(hi) + 1))
    beta_a1 = 0.25 * path._rate ** 2 * path._k2
    best = math.inf
    for tau in sorted(starts):
        dist, step = math.inf, 0.0
        for _ in range(_APPROACH_MAX_STEPS):
            trial = tau + step
            xi, phi, dxi, dphi = path._state(trial, math)
            psi = phi - math.pi * round(phi / math.pi)
            d = 2.0 * (math.sinh(0.5 * xi) ** 2 + math.sin(0.5 * psi) ** 2)
            if d < dist:
                sh, ch = math.sinh(xi), math.cosh(xi)
                sp, cp = math.sin(psi), math.cos(psi)
                curvature = (ch * dxi ** 2 + cp * dphi ** 2
                             + 2.0 * sh * sh * (1.0 - 2.0 * beta_a1 * ch)
                             - 4.0 * beta_a1 * cp * sp * sp)
                newton = trial - (sh * dxi + sp * dphi) / abs(curvature)
                step = min(max(newton, 0.0), duration) - trial
                tau, dist, best = trial, d, min(best, d)
            else:
                step = 0.5 * step
            if abs(step) <= _APPROACH_TOL * duration:
                break
        else:
            raise StructuralError(
                "the closest primary approach did not converge in"
                f" {_APPROACH_MAX_STEPS} trial steps")
    return best


def _self_crossings(path: SeparatedPath,
                    q: Fraction) -> list[tuple[float, float]]:
    """The m(2n - 1) time pairs (tau1, tau2), reduced to [0, m T1), at which
    the periodic path of class q = m/n is twice at one Cartesian point.

    With T1 = 4K(m_xi)/lam, T2 = 4K(k2^2)/w and m T1 = n T2 one period, the
    two times meet either at one elliptic point or at its conjugate
    (-xi, -phi).  At one point, tau2 = tau1 + j T2 (1 <= j <= n/2) and, as
    cn(-u) = cn(u), tau1 = k T1/2 - j T2/2 - v0/lam.  At the conjugate, as
    am is odd and cn(u + 2K) = -cn(u), tau1 + tau2 = -2 F(phi0)/w' + j T2
    (w' the signed phi rate) and tau2 - tau1 = (l + 1/2) T1 (0 <= l < m/2).
    The k range when 2j = n, and the j range when 2l + 1 = m, are halved,
    since each pair would otherwise come twice.
    """
    m, n = q.numerator, q.denominator
    t1 = 4.0 * path._k_xi / path._lam
    t2 = 4.0 * path._k_phi / abs(path._rate)
    pairs = []
    for j in range(1, n // 2 + 1):
        for k in range(m if 2 * j == n else 2 * m):
            tau1 = 0.5 * (k * t1 - j * t2) - path._v0 / path._lam
            pairs.append((tau1, tau1 + j * t2))
    for l in range((m + 1) // 2):
        half_gap = 0.5 * (l + 0.5) * t1
        for j in range(n if 2 * l + 1 == m else 2 * n):
            total = j * t2 - 2.0 * path._f0 / path._rate
            pairs.append((0.5 * total - half_gap, 0.5 * total + half_gap))
    period = m * t1
    return [(a % period, b % period) for a, b in pairs]


# ---------------------------------------------------------------------------
# families

def arc_family(prm: Params, delta: float = 1e-4) -> list[CollisionArc]:
    """The four labeled arcs at C for one resonant parameter set.

    Ordered [(+,+), (-,-), (+,-), (-,+)]: the first two share one initial
    direction pair at C, the last two the transverse one.  Refuses centres
    that fail the primary-collision exclusion test, and cross-checks the
    verdict against the primary distances the built paths actually attain.
    """
    report = primary_collision_check(prm, delta=delta)
    if not report.safe:
        raise UnsafeCentreError(
            f"centre fails primary-collision exclusion for q={prm.q}:"
            f" G+={report.g_plus:.9g}, G-={report.g_minus:.9g} is within"
            f" {report.min_separation:.3g} of ratio {report.nearest}"
            f" (margin {delta:g})",
            g_plus=report.g_plus, g_minus=report.g_minus,
            nearest=report.nearest)
    family = [build_arc(prm, s, d)
              for (s, d) in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    grazing = min(arc.min_primary_distance for arc in family)
    if grazing <= 1e-6:
        raise StructuralError(
            "exclusion test declared the centre safe but a built arc"
            f" passes within {grazing:.3g} of a primary")
    return family
