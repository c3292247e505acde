"""Shadowing experiments on the perturbed flow (eps > 0).

A perturbed trajectory segment is matched to a reference collision arc by
two-point shooting between small circles around the perturbing centre: the
unknowns are the angular position on the entry circle and the tau duration,
the speed being eliminated by the fixed-energy constraint.  Each Newton
step costs one integration: the entry-angle column of the Jacobian comes
from a twin start state that `Trajectory.replay` pushes through the steps
of the run it differentiates (internal numerical differentiation), only
when a Newton step reads it; the duration column is the endpoint velocity,
and the steps run at a loose tolerance until the residual is small.  One
trial routine serves both the chord step, which tries the last loose
column once at the first tight step and so saves its replay if that
converges, and every line search, on a fresh column.
Deviation metrics quantify how closely the segment tracks the arc as eps
shrinks; the maximum distance to the arc computes exact distances only
where bounds leave room for the maximum, with the value of the exhaustive
search bit for bit.  The local expansion rate of the return map is the
central difference, across the impact parameter, of the angle at which
the Kepler conic about the centre leaves its neighbourhood: no integration.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .arcs import CollisionArc
from .dynamics import Params, hamiltonian_values, integrate
from .errors import DomainError, IntegrationError
from .geometry import (CartesianPoint, EllipticPoint, cartesian_to_elliptic,
                       elliptic_to_xy, transform_matrix, velocity_to_cartesian)

__all__ = ["ShadowResult", "shoot_segment", "local_expansion_rate"]

_ENTRY_RADIUS_FLOOR = 1e-4  # entry radius max(10 eps, floor)
_SHOOT_TOL = 1e-9           # Newton stop on the Cartesian endpoint residual
_SHOOT_MAX_ITER = 40        # Newton steps over both tolerances
_TIGHT_TOL = 1e-12          # integration tol of the residual that converges
_LOOSE_TOL = 1e-9           # integration tol while the residual is large
_SWITCH_RESIDUAL = 1e-6     # loose residual at which Newton turns tight
_ALPHA_STEP = 1e-7          # entry-angle offset of the twin start state
_IMPACT_OFFSET_FRAC = 0.25  # impact parameter b0, over the entry radius
_IMPACT_STEP_FRAC = 0.05    # its central-difference half step db, likewise
_SEED_POINTS = 4096         # polyline samples of the arc that seed the search
_SEED_BOX = 64              # consecutive samples per box of the seed search
_SEED_BLOCK = 32            # track points per block of the seed search
_SEED_NEAR = 3              # boxes of least gap that bound a block's distances
_GOLDEN_STEPS = 40          # golden-section steps of each refined point
_SCREEN_STEPS = 5           # of them, the steps taken on every point
_FINISH_FIRST = 32          # points of largest bound, finished first


class ShadowResult(NamedTuple):
    eps: float
    max_deviation: float      # sup over the segment of distance to the arc
    min_c_distance: float
    time_defect: float        # |duration - arc duration| in tau
    converged: bool
    entry_radius: float
    residual: float           # final Newton residual (Cartesian)
    n_iterations: int
    alpha: float              # converged entry-circle angle offset
    duration: float
    arrival_state: np.ndarray  # elliptic state at the exit circle
    params: Params
    # residual after each step, and at each tolerance's first run
    residual_history: tuple[float, ...] = ()
    rhs_evals: int = 0        # every run, twin replay and dense output
    loose_integrations: int = 0  # runs at _LOOSE_TOL
    tight_integrations: int = 0  # runs at _TIGHT_TOL
    chord_accepted: bool = False  # the tight pass's chord trial was kept


def _energy_consistent_state(pos: CartesianPoint, direction_cart: np.ndarray,
                             prm: Params) -> np.ndarray:
    """Elliptic state at pos moving along direction_cart on the zero level."""
    ell = cartesian_to_elliptic(pos)[0]
    u = transform_matrix(ell)
    rho = math.cosh(ell.xi) ** 2 - math.cos(ell.phi) ** 2
    d_ell = u.T @ direction_cart / rho  # inverse of the conformal map
    # H = 0 fixes the kinetic term (xi'^2 + phi'^2)/2 to -H at rest
    kinetic = -float(hamiltonian_values(
        np.array([[ell.xi, ell.phi, 0.0, 0.0]]), prm)[0])
    if kinetic <= 0.0:
        raise DomainError("no admissible speed: state outside the Hill region")
    speed = math.sqrt(2.0 * kinetic) / math.hypot(d_ell[0], d_ell[1])
    return np.array([ell.xi, ell.phi, speed * d_ell[0], speed * d_ell[1]])


def _rotate(v: np.ndarray, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _cartesian_track(states: np.ndarray) -> np.ndarray:
    return np.column_stack(elliptic_to_xy(states[:, 0], states[:, 1]))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _nearest_samples(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Index of each point's nearest polyline sample: the first index of the
    least (px - x)^2 + (py - y)^2 over all samples.

    The samples are cut into boxes of _SEED_BOX.  For a block of
    _SEED_BLOCK points, the squared gap between its bounding box and a
    sample box bounds every squared distance between them from below; as
    rounding is monotone, the float gap bounds the float distances too.
    The exact distances to the _SEED_NEAR boxes of least gap bound each
    point's least distance from above, so a box whose gap exceeds the
    largest of these holds no point's nearest sample.  The exact distances
    to the boxes left are taken in sample order, which keeps argmin's
    first-index rule on ties.
    """
    xs = poly[:, 0].reshape(-1, _SEED_BOX)
    ys = poly[:, 1].reshape(-1, _SEED_BOX)
    starts = np.arange(0, len(points), _SEED_BLOCK)

    def gap(boxes, c):
        """Gap along axis c between each block's and each box's extent."""
        block_lo = np.minimum.reduceat(points[:, c], starts)[:, None]
        block_hi = np.maximum.reduceat(points[:, c], starts)[:, None]
        return np.maximum(np.maximum(boxes.min(axis=1) - block_hi,
                                     block_lo - boxes.max(axis=1)), 0.0)

    lower = np.square(gap(xs, 0)) + np.square(gap(ys, 1))
    near = np.argpartition(lower, _SEED_NEAR - 1, axis=1)[:, :_SEED_NEAR]

    def squared_distances(s, boxes):
        d2 = np.subtract(points[s:s + _SEED_BLOCK, :1], xs[boxes].ravel())
        dy = np.subtract(points[s:s + _SEED_BLOCK, 1:], ys[boxes].ravel())
        np.square(d2, out=d2)
        return np.add(d2, np.square(dy, out=dy), out=d2)

    nearest = np.empty(len(points), dtype=np.intp)
    for k, s in enumerate(starts):
        upper = squared_distances(s, near[k]).min(axis=1).max()
        keep = np.flatnonzero(lower[k] <= upper)
        j = np.argmin(squared_distances(s, keep), axis=1)
        nearest[s:s + _SEED_BLOCK] = keep[j // _SEED_BOX] * _SEED_BOX \
            + j % _SEED_BOX
    return nearest


def _deviation_to_arc(points: np.ndarray, arc: CollisionArc) -> float:
    """Max over points of the distance to the continuous reference arc.

    A coarse polyline gives each point's nearest-sample seed
    (`_nearest_samples`); a golden-section refinement on the arc's dense
    output removes the discretization floor (the arc sweeps fast in
    Cartesian terms far from the primaries, where uniform-tau sampling is
    sparse).  Every point that can hold the maximum runs 40 steps, one
    array dense-output query per step for the points refined together.
    A step never raises a point's min(fa, fb), so after _SCREEN_STEPS
    steps on all points each point's value bounds its final one from
    above.  The _FINISH_FIRST points of largest bound are finished first;
    their largest final value bounds the maximum from below, and only the
    points whose bound reaches it are finished after them.  Every
    operation is elementwise, so each value is that of all points refined
    in lockstep, bit for bit, as long as numpy's functions give an element
    the same value in a subset as in the whole array (the oracle test in
    tests/test_shadow.py checks that they do).
    """
    if len(points) == 0:
        return 0.0
    arc_taus, arc_states = arc.path.dense_grid(_SEED_POINTS)
    nearest = _nearest_samples(points, _cartesian_track(arc_states))
    px, py = points[:, 0], points[:, 1]

    def dist_at(tau: np.ndarray, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
        y = arc.path.state_at(tau)
        x, yy = elliptic_to_xy(y[:, 0], y[:, 1])
        return np.hypot(x - qx, yy - qy)

    def golden(bracket, qx, qy, steps):
        a, b, t1, t2, fa, fb = bracket
        for _ in range(steps):
            left = fa < fb
            a, b = np.where(left, a, t1), np.where(left, t2, b)
            t_new = a + np.where(left, 1.0 - _GOLDEN, _GOLDEN) * (b - a)
            f_new = dist_at(t_new, qx, qy)
            t1, t2 = np.where(left, t_new, t2), np.where(left, t1, t_new)
            fa, fb = np.where(left, f_new, fb), np.where(left, fa, f_new)
        return a, b, t1, t2, fa, fb

    def finished(idx: np.ndarray) -> float:
        """The largest final value over the points idx."""
        fa, fb = golden([v[idx] for v in screened], px[idx], py[idx],
                        _GOLDEN_STEPS - _SCREEN_STEPS)[4:]
        return float(np.minimum(fa, fb).max())

    a = arc_taus[np.maximum(nearest - 1, 0)]
    b = arc_taus[np.minimum(nearest + 1, len(arc_taus) - 1)]
    t1, t2 = a + (1.0 - _GOLDEN) * (b - a), a + _GOLDEN * (b - a)
    screened = golden((a, b, t1, t2, dist_at(t1, px, py), dist_at(t2, px, py)),
                      px, py, _SCREEN_STEPS)
    bound = np.minimum(screened[4], screened[5])
    first = np.argsort(bound)[-_FINISH_FIRST:]
    worst = finished(first)
    rest = bound >= worst
    rest[first] = False
    if rest.any():
        worst = max(worst, finished(np.flatnonzero(rest)))
    return worst


def shoot_segment(arc: CollisionArc, eps: float) -> ShadowResult:
    """Match a perturbed segment to a reference arc between centre circles.

    Starts on the entry circle of radius max(10 eps, 1e-4) in the direction
    of the arc's departure velocity (radial outward motion), with speed
    fixed by the energy constraint of the perturbed Hamiltonian, and
    Newton-adjusts the entry angle and the duration (at most 40 steps)
    until the endpoint is within 1e-9 of the exit-circle point where the
    arc comes back in.  Every trial is one integration.  Each Newton step
    pushes a twin start state, 1e-7 further round the circle, through the
    accepted steps of the run it starts from (`Trajectory.replay`), and
    the difference of the two ends is the angle column of the Jacobian;
    rejected trials and the run that ends a tolerance replay nothing.  The
    duration column is the endpoint velocity.  Trials run at tol 1e-9
    until the residual is at most 1e-6, then at tol 1e-12; only a
    tol-1e-12 residual counts as converged.  The first tol-1e-12 step is
    first tried as a chord step: the angle column of the last loose step
    with the new endpoint velocity, and one full trial, kept only if its
    residual is at most 1e-9; otherwise the step replays and searches as
    any other, and the chord trial has cost one integration.  A pass
    stalls on a singular Jacobian or when none of its 10 halved trials
    lowers the residual; a stalled loose pass hands over to tol 1e-12 at
    the first guess again, with no chord step, since the loose map may
    have led away from the root, and a stalled tight pass ends the solve.
    eps = 0 reproduces the arc itself up to the circle-chord offset.
    """
    prm = arc.params.with_eps(eps)  # refuses an eps outside [0, inf)
    r_e = max(10.0 * eps, _ENTRY_RADIUS_FLOOR)
    centre = prm.centre
    c_vec = np.array([centre.x, centre.y])

    v0, v_t = arc.v0_cartesian, arc.vT_cartesian
    u0, u_t = v0 / np.hypot(*v0), v_t / np.hypot(*v_t)
    target = c_vec - r_e * u_t
    # tau spent inside the circles along the unperturbed arc, for the guess
    tau_in, tau_out = r_e / float(np.hypot(*v0)), r_e / float(np.hypot(*v_t))

    rhs_evals = 0
    runs = {_LOOSE_TOL: 0, _TIGHT_TOL: 0}

    def start(alpha):
        direction = _rotate(u0, alpha)
        pos = CartesianPoint(*(c_vec + r_e * direction))
        return _energy_consistent_state(pos, direction, prm)

    def residual(z, tol):
        """Trajectory and endpoint residual at z."""
        nonlocal rhs_evals
        traj = integrate(start(z[0]), prm, z[1], tol)
        rhs_evals += traj.stats.rhs_evals
        runs[tol] += 1
        return traj, _cartesian_track(traj.states[-1:])[0] - target

    def alpha_column(z, traj):
        """d(endpoint)/d(alpha) of the run traj at z, from the twin start
        _ALPHA_STEP further round the circle replayed on its steps."""
        nonlocal rhs_evals
        twin_end, calls = traj.replay(start(z[0] + _ALPHA_STEP))
        rhs_evals += calls
        ends = _cartesian_track(np.array([traj.states[-1], twin_end]))
        return (ends[1] - ends[0]) / _ALPHA_STEP

    def newton_step(column, n, accept):
        """Trials at tol from (z, traj, r): the full Newton step on the
        Jacobian [column, endpoint velocity], then its halvings, n in all,
        less those of no duration.  The first (z, traj, r, norm) whose norm
        passes accept, or None if none does or the Jacobian is singular."""
        end = traj.states[-1]
        # d(endpoint)/dT is the Cartesian velocity at the endpoint
        v_end = velocity_to_cartesian(EllipticPoint(end[0], end[1]), end[2:])
        try:
            step = np.linalg.solve(np.column_stack([column, v_end]), -r)
        except np.linalg.LinAlgError:
            return None
        for k in range(n):
            z_new = z + 0.5 ** k * step
            if z_new[1] > 0.0:
                trial = residual(z_new, tol)
                rn = float(np.hypot(*trial[1]))
                if accept(rn):
                    return z_new, *trial, rn
        return None

    z = z_guess = np.array([0.0, arc.duration - tau_in - tau_out])
    history = []
    n_it = 0
    column = None  # the alpha column of the latest Newton step
    chord_accepted = False
    for tol, goal in ((_LOOSE_TOL, _SWITCH_RESIDUAL), (_TIGHT_TOL, _SHOOT_TOL)):
        traj, r = residual(z, tol)
        rnorm = float(np.hypot(*r))
        history.append(rnorm)
        # a chord step: the tight pass's first step tries the loose pass's
        # last column (None in the loose pass and after a loose stall) with
        # one full trial, kept only if it converges
        chord = column
        while rnorm > goal and n_it < _SHOOT_MAX_ITER:
            n_it += 1
            taken = None
            if chord is not None:
                taken = newton_step(chord, 1, lambda rn: rn <= goal)
                chord, chord_accepted = None, taken is not None
            if taken is None:
                column = alpha_column(z, traj)
                taken = newton_step(column, 10, lambda rn: rn < rnorm)
            if taken is None:  # stalled: singular Jacobian, no better trial
                if tol == _LOOSE_TOL:
                    # the loose map may have led away from the root, and
                    # its column with it
                    z, column = z_guess, None
                break
            z, traj, r, rnorm = taken
            history.append(rnorm)
    converged = rnorm <= _SHOOT_TOL

    evals_before = traj.stats.rhs_evals
    taus, states = traj.dense_grid(1024)
    rhs_evals += traj.stats.rhs_evals - evals_before  # its dense output
    track = _cartesian_track(states)
    min_c = float(np.min(np.hypot(track[:, 0] - centre.x,
                                  track[:, 1] - centre.y)))
    deviation = _deviation_to_arc(track, arc)

    return ShadowResult(
        eps=eps,
        max_deviation=deviation,
        min_c_distance=min_c,
        time_defect=abs(z[1] - arc.duration),
        converged=bool(converged),
        entry_radius=r_e,
        residual=rnorm,
        n_iterations=n_it,
        alpha=float(z[0]),
        duration=float(z[1]),
        arrival_state=traj.states[-1].copy(),
        params=prm,
        residual_history=tuple(history),
        rhs_evals=rhs_evals,
        loose_integrations=runs[_LOOSE_TOL],
        tight_integrations=runs[_TIGHT_TOL],
        chord_accepted=chord_accepted,
    )


def _kepler_exit_angle(offset, velocity, mu: float, radius: float) -> float:
    """Direction of the velocity with which the Kepler conic of strength mu
    through (offset from the centre, physical velocity) leaves the circle
    of the given radius that holds it: at the true anomaly f > 0 with
    cos f = (p/radius - 1)/e.  IntegrationError if it never does (an
    ellipse inside the circle)."""
    (x, y), (vx, vy) = offset, velocity
    h = x * vy - y * vx  # angular momentum, positive anticlockwise
    c = (vx * vx + vy * vy) / mu - 1.0 / math.hypot(x, y)
    d = (x * vx + y * vy) / mu
    ex, ey = c * x - d * vx, c * y - d * vy  # the eccentricity vector
    e = math.hypot(ex, ey)
    e_cos_f = h * h / (mu * radius) - 1.0  # p/radius - 1
    if not abs(e_cos_f) < e:
        raise IntegrationError(
            "near-centre passage did not exit the measurement circle")
    cos_f = e_cos_f / e
    sin_f = math.sqrt(1.0 - cos_f * cos_f)
    # the velocity is along -sin f P + (e + cos f) Q: P along the
    # eccentricity vector, Q a quarter turn on in the sense of the motion
    s = (e + cos_f) * math.copysign(1.0, h)
    return math.atan2(-sin_f * ey + s * ex, -sin_f * ex - s * ey)


def local_expansion_rate(results: Sequence[ShadowResult], eps: float) -> float:
    """Per-passage expansion rate through the centre neighbourhood.

    Takes the arrival state of the first converged segment, offsets it
    across the incoming direction by impact parameters b0 -+ db = (0.25 -+
    0.05) entry radii (energy kept on the zero level), follows each branch
    along the Kepler conic of strength eps about the centre through its
    start state (`_kepler_exit_angle`), reads the direction in which it
    leaves the doubled circle, and returns log |d(theta_out)/d(b)| by
    central differences.  The primaries' field across the disc is left
    out, which moves the rate by about eps from that of the integrated
    passage.  eps must be the segment's own eps, and positive.  The rate
    grows as the centre's attraction strengthens relative to the passage
    distance, i.e. as eps decreases at fixed b/entry_radius.
    """
    if len(results) < 2:
        raise DomainError("need at least 2 consecutive segments")
    if not all(r.converged for r in results[:2]):
        raise DomainError("expansion rate requires converged segments")
    seg = results[0]
    prm = seg.params
    if not (eps > 0.0 and eps == prm.eps):
        raise DomainError(f"eps must be positive and the segment's own"
                          f" {prm.eps!r}, got {eps!r}")
    r_e = seg.entry_radius

    y_arr = seg.arrival_state
    v_cart = velocity_to_cartesian(EllipticPoint(*y_arr[:2]), y_arr[2:])
    v_dir = v_cart / np.hypot(*v_cart)
    normal = np.array([-v_dir[1], v_dir[0]])
    pos0 = _cartesian_track(y_arr[None, :])[0]

    b0 = _IMPACT_OFFSET_FRAC * r_e
    db = _IMPACT_STEP_FRAC * r_e

    def theta_out(b: float) -> float:
        pos = pos0 + b * normal
        y0 = _energy_consistent_state(CartesianPoint(*pos), v_dir, prm)
        rho = math.cosh(y0[0]) ** 2 - math.cos(y0[1]) ** 2
        # the physical velocity is d(x, y)/dtau over dt/dtau = rho
        v = velocity_to_cartesian(EllipticPoint(y0[0], y0[1]), y0[2:]) / rho
        return _kepler_exit_angle(pos - (prm.centre.x, prm.centre.y), v,
                                  eps, 2.0 * r_e)

    th_plus = theta_out(b0 + db)
    th_minus = theta_out(b0 - db)
    dtheta = math.atan2(math.sin(th_plus - th_minus),
                        math.cos(th_plus - th_minus))
    sensitivity = abs(dtheta) / (2.0 * db)
    if sensitivity <= 0.0:
        raise IntegrationError("degenerate zero sensitivity across the passage")
    return math.log(sensitivity)
