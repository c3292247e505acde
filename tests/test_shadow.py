import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from deviation_reference import _deviation_to_arc as reference_deviation
from deviation_reference import (exhaustive_deviation_to_arc,
                                 exhaustive_nearest)
from expansion_reference import integrated_expansion_rate
from tricentre import shadow
from tricentre.arcs import arc_family
from tricentre.dynamics import Params, Trajectory, integrate
from tricentre.errors import DomainError, IntegrationError
from tricentre.exclusion import resonant_params
from tricentre.geometry import (CartesianPoint, EllipticPoint, elliptic_to_xy,
                                velocity_to_cartesian)
from tricentre.periods import turning_point_xi
from tricentre.shadow import (ShadowResult, _deviation_to_arc,
                              _energy_consistent_state, _rotate,
                              local_expansion_rate, shoot_segment)


class TestShootSegment:
    def test_unperturbed_limit_reproduces_arc(self, q1_family):
        res = shoot_segment(q1_family[0], 0.0)
        assert res.converged
        assert res.max_deviation <= 1e-6
        assert res.residual <= 1e-9
        assert res.time_defect <= 1e-4

    def test_small_eps_converges(self, q1_family):
        res = shoot_segment(q1_family[0], 1e-3)
        assert res.converged
        assert res.min_c_distance > 0.0
        assert res.entry_radius == pytest.approx(1e-2)
        assert res.max_deviation < 0.2

    def test_energy_stays_on_level(self, q1_family):
        from tricentre.dynamics import hamiltonian_values
        from tricentre.geometry import CartesianPoint
        res = shoot_segment(q1_family[0], 1e-3)
        # re-run the converged segment and inspect the Hamiltonian residual
        arc = q1_family[0]
        prm = arc.params.with_eps(1e-3)
        from tricentre.shadow import _energy_consistent_state, _rotate
        c_vec = np.array([prm.centre.x, prm.centre.y])
        u0 = arc.v0_cartesian / np.hypot(*arc.v0_cartesian)
        direction = _rotate(u0, res.alpha)
        pos = CartesianPoint(*(c_vec + res.entry_radius * direction))
        y0 = _energy_consistent_state(pos, direction, prm)
        traj = integrate(y0, prm, res.duration, tol=1e-12)
        h = hamiltonian_values(traj.states, prm)
        assert np.max(np.abs(h)) <= 1e-8

    def test_negative_eps_rejected(self, q1_family):
        with pytest.raises(DomainError):
            shoot_segment(q1_family[0], -1e-3)

    def test_newton_history_and_rhs_evals(self, q1_family, monkeypatch,
                                          field_calls):
        runs = []  # (tol, rhs_evals, steps, trajectory) of every run
        replays = []  # (steps, field calls) of every twin replay

        def counting_integrate(*args):
            traj = integrate(*args)
            runs.append((args[3], traj.stats.rhs_evals, traj._steps, traj))
            return traj

        replay = Trajectory.replay

        def counting_replay(traj, state0):
            end, calls = replay(traj, state0)
            replays.append((traj._steps, calls))
            return end, calls

        monkeypatch.setattr(shadow, "integrate", counting_integrate)
        monkeypatch.setattr(Trajectory, "replay", counting_replay)
        res = shoot_segment(q1_family[0], 1e-3)
        hist = res.residual_history
        assert res.converged and res.n_iterations >= 2
        # one twin replay per loose Newton step, on the steps of a loose run
        # of the solve; the one tight step is a chord step on the last
        # loose column, so it replays nothing
        assert len(replays) == res.n_iterations - 1
        assert all(any(steps is r[2] for r in runs
                       if r[0] == shadow._LOOSE_TOL) for steps, _ in replays)
        # the dense output of the returned run, 3 calls per step, is the
        # only one computed
        dense = [r[3].stats.rhs_evals - r[1] for r in runs]
        assert dense[-1] == 3 * runs[-1][3].stats.accepted
        assert not any(dense[:-1])
        assert res.rhs_evals == len(field_calls) == sum(r[1] for r in runs) \
            + sum(calls for _, calls in replays) + dense[-1]
        tols = [r[0] for r in runs]
        n_loose = res.loose_integrations
        assert tols == [shadow._LOOSE_TOL] * n_loose \
            + [shadow._TIGHT_TOL] * res.tight_integrations
        # one integration per Newton step (every full step is taken on this
        # segment), plus the first loose run and the tight run at the switch
        assert len(runs) == res.n_iterations + 2
        assert n_loose >= 2 and res.tight_integrations == 2
        # one residual per run; each tolerance's residuals strictly decrease
        assert len(hist) == len(runs)
        for phase in (hist[:n_loose], hist[n_loose:]):
            assert all(a > b for a, b in zip(phase, phase[1:]))
        assert hist[n_loose - 1] <= shadow._SWITCH_RESIDUAL < hist[n_loose - 2]
        assert hist[-1] == res.residual <= shadow._SHOOT_TOL
        assert res.chord_accepted

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
    def test_chord_step_is_kept_on_the_reference_segments(
            self, q1_family, monkeypatch, eps):
        # the segments of acceptance test 10: the kept chord step is the
        # one Newton step that replays no twin
        log = self._logging_replays(monkeypatch)
        res = shoot_segment(q1_family[0], eps)
        assert res.converged and res.chord_accepted
        assert len(log) == res.n_iterations - 1

    # The segments of acceptance test 10: (n_iterations, rhs_evals,
    # loose_integrations, tight_integrations, chord_accepted), exactly.
    # Any change to the Newton path or to the integrator's steps moves them.
    @pytest.mark.parametrize("eps, path", [
        (1e-2, (6, 19088, 6, 2, True)),
        (1e-3, (5, 19212, 5, 2, True)),
        (1e-4, (4, 18031, 4, 2, True)),
    ])
    def test_newton_path_of_the_reference_segments(self, q1_family, eps,
                                                   path):
        res = shoot_segment(q1_family[0], eps)
        assert (res.n_iterations, res.rhs_evals, res.loose_integrations,
                res.tight_integrations, res.chord_accepted) == path

    def test_loose_stall_restarts_tight_from_the_guess(self, q1_family,
                                                       monkeypatch):
        # a loose map frozen after its first full step never improves
        # again, so the second loose line search stalls away from the
        # first guess; the solve then starts over from that guess, tight
        loose = []

        def frozen_integrate(state0, prm, tau_end, tol):
            if tol == shadow._LOOSE_TOL:
                loose.append((state0, tau_end))
                state0, tau_end = loose[min(len(loose), 2) - 1]
            log.append(tol)
            return integrate(state0, prm, tau_end, tol)

        ref = shoot_segment(q1_family[0], 1e-3)
        monkeypatch.setattr(shadow, "integrate", frozen_integrate)
        log = self._logging_replays(monkeypatch)
        res = shoot_segment(q1_family[0], 1e-3)
        hist = res.residual_history
        # the guess, the full step, its 10 failed trials
        assert res.loose_integrations == 12
        # the stalled pass's column is not reused: no chord trial comes
        # before the first tight step's replay
        assert log[log.index(shadow._TIGHT_TOL) + 1] == "replay"
        assert hist[1] < 0.1 * hist[0]
        # the first tight residual is the guess's again, not the step's
        assert hist[2] == pytest.approx(hist[0], rel=1e-4)
        assert res.converged
        assert res.alpha == pytest.approx(ref.alpha, abs=1e-8)
        assert res.duration == pytest.approx(ref.duration, abs=1e-8)

    @staticmethod
    def _logging_replays(monkeypatch):
        """A list to which shadow's twin replay appends "replay" on every
        call (an integrator may append its runs to it too)."""
        log = []
        replay = Trajectory.replay

        def logging_replay(traj, state0):
            log.append("replay")
            return replay(traj, state0)

        monkeypatch.setattr(Trajectory, "replay", logging_replay)
        return log

    @staticmethod
    def _recording(monkeypatch, log=None):
        """Replace shadow's integrator by one that records (tol, tau_end,
        start state) of every run, and appends its tol to log."""
        runs = []

        def recording_integrate(state0, prm, tau_end, tol):
            runs.append((tol, tau_end, state0.copy()))
            if log is not None:
                log.append(tol)
            return integrate(state0, prm, tau_end, tol)

        monkeypatch.setattr(shadow, "integrate", recording_integrate)
        return runs

    def test_singular_loose_jacobian_restarts_tight_from_the_guess(
            self, q1_family, monkeypatch):
        log = self._logging_replays(monkeypatch)
        runs = self._recording(monkeypatch, log)
        solve = np.linalg.solve

        def singular_once(a, b):
            if len(runs) == 1:  # the first step, from the first loose run
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        res = shoot_segment(q1_family[0], 1e-3)
        # no trial is run; the tight pass starts at the first guess
        assert res.loose_integrations == 1
        assert runs[1][0] == shadow._TIGHT_TOL
        assert runs[1][1] == runs[0][1]
        assert np.array_equal(runs[1][2], runs[0][2])
        # a loose pass that took no step leaves no column for a chord step
        assert log[:4] == [shadow._LOOSE_TOL, "replay", shadow._TIGHT_TOL,
                           "replay"]
        assert res.converged

    def test_loose_budget_out_hands_its_point_to_the_tight_pass(
            self, q1_family, monkeypatch):
        runs = self._recording(monkeypatch)
        monkeypatch.setattr(shadow, "_SHOOT_MAX_ITER", 1)
        res = shoot_segment(q1_family[0], 1e-3)
        hist = res.residual_history
        assert (res.n_iterations, res.loose_integrations,
                res.tight_integrations) == (1, 2, 1)
        # the one loose step is taken but leaves the residual above 1e-6
        assert shadow._SWITCH_RESIDUAL < hist[1] < hist[0]
        # the tight run starts where the loose step ended, not at the guess
        assert runs[2][0] == shadow._TIGHT_TOL
        assert runs[2][1] == runs[1][1] != runs[0][1]
        assert np.array_equal(runs[2][2], runs[1][2])
        assert not res.converged
        assert res.residual == hist[-1] > shadow._SHOOT_TOL

    def test_trial_of_no_duration_runs_no_integration(self, q1_family,
                                                      monkeypatch):
        runs = self._recording(monkeypatch)
        solve = np.linalg.solve

        def shrinking_once(a, b):
            # full, half and quarter steps end at durations -3T, -T and 0
            if len(runs) == 1:
                return np.array([0.0, -4.0 * runs[0][1]])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", shrinking_once)
        res = shoot_segment(q1_family[0], 1e-3)
        assert all(tau_end > 0.0 for _, tau_end, _ in runs)
        # the first run and the 7 trials of positive duration, none better
        assert res.loose_integrations == 1 + 7
        assert res.converged

    def test_tight_stall_returns_the_tight_residual(self, q1_family,
                                                    monkeypatch):
        # a tight map frozen at its first run never improves, so the first
        # tight line search stalls and ends the solve
        tight = []

        def frozen_integrate(state0, prm, tau_end, tol):
            if tol == shadow._TIGHT_TOL:
                tight.append((state0, tau_end))
                state0, tau_end = tight[0]
            return integrate(state0, prm, tau_end, tol)

        monkeypatch.setattr(shadow, "integrate", frozen_integrate)
        res = shoot_segment(q1_family[0], 1e-3)
        hist = res.residual_history
        n_loose = res.loose_integrations
        # the switch run, the chord trial and the 10 failed line-search
        # trials
        assert res.tight_integrations == 12
        assert len(hist) == n_loose + 1
        assert not res.converged
        assert res.residual == hist[-1] > shadow._SHOOT_TOL
        assert res.n_iterations == n_loose

    def test_chord_miss_follows_the_newton_path(self, q2_family,
                                                monkeypatch):
        # q = 2, arc s+1:d+1, eps = 1e-3: the chord step's trial stays
        # above 1e-9, so the solve goes on as if it had not been tried
        tight = []  # the tight runs of the solve under way
        solves = []  # whether each Newton solve of it raised
        solve = np.linalg.solve

        def recording_integrate(state0, prm, tau_end, tol):
            traj = integrate(state0, prm, tau_end, tol)
            if tol == shadow._TIGHT_TOL:
                tight.append(traj)
            return traj

        def counting_solve(a, b):
            # the first solve after the switch run is the chord step's
            solves.append(skip_chord and len(tight) == 1
                          and True not in solves)
            if solves[-1]:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(shadow, "integrate", recording_integrate)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        skip_chord = False
        res = shoot_segment(q2_family[0], 1e-3)
        chord_trial = tight[1]
        # one solve per Newton step, and one for the chord step
        assert len(solves) == res.n_iterations + 1
        tight.clear()
        solves.clear()
        skip_chord = True
        ref = shoot_segment(q2_family[0], 1e-3)
        assert solves.count(True) == 1 and res.converged
        assert not res.chord_accepted
        # the miss costs exactly its one tight run
        assert res.tight_integrations == ref.tight_integrations + 1
        assert res.rhs_evals == ref.rhs_evals + chord_trial.stats.rhs_evals
        for name in ShadowResult._fields:
            if name not in ("rhs_evals", "tight_integrations"):
                a, b = getattr(res, name), getattr(ref, name)
                assert (np.array_equal(a, b) if isinstance(a, np.ndarray)
                        else a == b), name

    # The twin quotient (end(alpha + d) - end(alpha))/d, the twin replayed
    # on the run's steps, is a second-order derivative at the midpoint
    # alpha + d/2.
    # Reference: a central difference about that midpoint from two
    # independent tol-1e-14 runs.  Measured at eps = 1e-2 and 1e-4: 1.5e-7
    # and 1.8e-5 relative at tol 1e-12, 6.3e-7 and 5.1e-5 at tol 1e-9
    # (1.1e-6, 7.7e-6, 5e-7 and 1.4e-4 with the earlier fifth-order pair);
    # the bounds keep a 5x margin.
    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    @pytest.mark.parametrize("tol, bound", [(1e-12, 1e-4), (1e-9, 1e-3)])
    def test_twin_alpha_column_against_central_difference(
            self, q1_family, eps, tol, bound):
        arc = q1_family[0]
        res = shoot_segment(arc, eps)
        prm = arc.params.with_eps(eps)
        c_vec = np.array([prm.centre.x, prm.centre.y])
        u0 = arc.v0_cartesian / np.hypot(*arc.v0_cartesian)

        def start(alpha):
            direction = _rotate(u0, alpha)
            pos = CartesianPoint(*(c_vec + res.entry_radius * direction))
            return _energy_consistent_state(pos, direction, prm)

        def end_xy(state):
            return np.array(elliptic_to_xy(state[0], state[1], math))

        d = shadow._ALPHA_STEP
        traj = integrate(start(res.alpha), prm, res.duration, tol)
        twin_end, _ = traj.replay(start(res.alpha + d))
        column = (end_xy(twin_end) - end_xy(traj.states[-1])) / d
        h = 1e-7
        ends = [end_xy(integrate(start(res.alpha + 0.5 * d + s * h), prm,
                                 res.duration, tol=1e-14).states[-1])
                for s in (1.0, -1.0)]
        reference = (ends[0] - ends[1]) / (2.0 * h)
        assert np.hypot(*(column - reference)) <= bound * np.hypot(*reference)


def _points_near_arc(arc, n, max_offset, seed):
    """n points on the arc's dense output, each moved by up to max_offset."""
    rng = np.random.default_rng(seed)
    taus = rng.uniform(arc.path.taus[0], arc.path.taus[-1], n)
    states = arc.path.state_at(taus)
    x, y = elliptic_to_xy(states[:, 0], states[:, 1])
    r = max_offset * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([x + r * np.cos(theta), y + r * np.sin(theta)])


def _equidistant_point(arc):
    """The midpoint of two consecutive polyline samples that are both its
    nearest, at exactly equal squared distance, across a box edge where
    there is such a pair."""
    _, states = arc.path.dense_grid(shadow._SEED_POINTS)
    poly = shadow._cartesian_track(states)
    mid = 0.5 * (poly[:-1] + poly[1:])
    d2 = [np.square(mid[:, 0] - poly[k:len(mid) + k, 0])
          + np.square(mid[:, 1] - poly[k:len(mid) + k, 1]) for k in (0, 1)]
    ties = np.flatnonzero(d2[0] == d2[1])
    edge = (ties + 1) % shadow._SEED_BOX == 0
    for j in np.concatenate([ties[edge], ties[~edge]]):
        dist = np.square(mid[j, 0] - poly[:, 0]) \
            + np.square(mid[j, 1] - poly[:, 1])
        if dist.min() == dist[j]:
            return mid[j]
    raise AssertionError("no equidistant midpoint on the polyline")


class TestEnergyConsistentState:
    """The start state against the Cartesian energy identity

        |v|^2/2 - 1/|z-1| - 1/|z+1| - eps/|z-C| = E,  v = d(x, y)/dtau / rho,

    which shares no code with the regularized Hamiltonian."""

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
           angle=st.floats(-math.pi, math.pi),
           beta=st.floats(0.01, 0.9), a1_frac=st.floats(0.05, 0.95),
           eps=st.one_of(st.just(0.0), st.floats(1e-6, 0.1)),
           cx=st.floats(-2.0, 2.0), cy=st.floats(-2.0, 2.0))
    def test_cartesian_energy_identity(self, x, y, angle, beta, a1_frac,
                                       eps, cx, cy):
        z, c = complex(x, y), complex(cx, cy)
        assume(min(abs(z - 1.0), abs(z + 1.0), abs(z - c),
                   abs(c - 1.0), abs(c + 1.0)) >= 1e-3)
        prm = Params(beta=beta, a1=a1_frac / (1.0 + beta), eps=eps,
                     centre=CartesianPoint(cx, cy))
        terms = (1.0 / abs(z - 1.0), 1.0 / abs(z + 1.0), eps / abs(z - c))
        scale = max(1.0, abs(prm.energy), *terms)
        assume(prm.energy + sum(terms) > 1e-9 * scale)  # inside the Hill region

        direction = np.array([math.cos(angle), math.sin(angle)])
        y0 = _energy_consistent_state(CartesianPoint(x, y), direction, prm)
        rho = math.cosh(y0[0]) ** 2 - math.cos(y0[1]) ** 2
        v = velocity_to_cartesian(EllipticPoint(y0[0], y0[1]), y0[2:]) / rho
        kinetic = 0.5 * float(v @ v)
        assert abs(kinetic - sum(terms) - prm.energy) \
            <= 1e-10 * max(scale, kinetic)
        assert elliptic_to_xy(y0[0], y0[1], math) == pytest.approx(
            (x, y), rel=1e-12, abs=1e-12)
        assert float(v @ direction) == pytest.approx(
            math.sqrt(2.0 * kinetic), rel=1e-9)


class TestDeviationMetric:
    # The reference refines one point at a time with math's cosh/cos/hypot,
    # the lockstep version all points at once with numpy's, which may differ
    # by an ulp.  A distance is a difference of coordinates of size O(1), so
    # its rounding floor is absolute (a few 1e-16), hence abs as well as rel.
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(n=st.integers(1, 1100), max_offset=st.floats(0.0, 0.5),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1, max_offset=0.5, seed=1)
    @example(n=31, max_offset=0.2, seed=7)
    @example(n=32, max_offset=0.05, seed=8)
    @example(n=33, max_offset=1e-3, seed=9)
    @example(n=255, max_offset=0.1, seed=2)
    @example(n=256, max_offset=0.01, seed=3)
    @example(n=257, max_offset=1e-4, seed=4)
    @example(n=1100, max_offset=0.5, seed=6)
    def test_matches_per_point_reference(self, q1_family, n, max_offset, seed):
        arc = q1_family[0]
        pts = _points_near_arc(arc, n, max_offset, seed)
        assert _deviation_to_arc(pts, arc) == pytest.approx(
            reference_deviation(pts, arc), rel=1e-12, abs=1e-14)

    # The exhaustive oracle takes every squared distance to every sample and
    # refines every point for 40 steps, with the same numpy operations; the
    # pruned search must give the same seeds and the same maximum, bit for
    # bit.  q = 2 arcs cross themselves, so far parts of an arc come near.
    # On points on the arc the final values are rounding noise, unrelated
    # to the bounds, so most points are finished in the second pass.
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(q=st.sampled_from([1, 2]), n=st.integers(0, 1100),
           max_offset=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1),
           extra=st.sampled_from(["none", "duplicated", "equidistant"]))
    @example(q=1, n=0, max_offset=0.1, seed=0, extra="none")
    @example(q=1, n=1, max_offset=0.5, seed=1, extra="none")
    @example(q=2, n=2, max_offset=0.3, seed=2, extra="none")
    @example(q=1, n=3, max_offset=1e-3, seed=3, extra="none")
    @example(q=2, n=4, max_offset=0.05, seed=4, extra="none")
    @example(q=1, n=31, max_offset=0.2, seed=7, extra="none")
    @example(q=2, n=32, max_offset=0.05, seed=8, extra="none")
    @example(q=1, n=33, max_offset=1e-3, seed=9, extra="none")
    @example(q=1, n=40, max_offset=0.01, seed=10, extra="duplicated")
    @example(q=2, n=1100, max_offset=0.5, seed=11, extra="duplicated")
    @example(q=1, n=1100, max_offset=0.0, seed=15, extra="none")
    @example(q=2, n=600, max_offset=0.0, seed=16, extra="duplicated")
    @example(q=1, n=0, max_offset=0.0, seed=12, extra="equidistant")
    @example(q=2, n=0, max_offset=0.0, seed=13, extra="equidistant")
    @example(q=1, n=33, max_offset=1e-4, seed=14, extra="equidistant")
    def test_matches_exhaustive_lockstep_bitwise(self, q1_family, q2_family,
                                                 q, n, max_offset, seed,
                                                 extra):
        arc = (q1_family if q == 1 else q2_family)[0]
        pts = _points_near_arc(arc, n, max_offset, seed)
        if extra == "duplicated":
            pts = np.repeat(pts, 2, axis=0)
        elif extra == "equidistant":
            pts = np.vstack([pts, _equidistant_point(arc)])
        if len(pts):
            _, states = arc.path.dense_grid(shadow._SEED_POINTS)
            poly = shadow._cartesian_track(states)
            assert np.array_equal(shadow._nearest_samples(pts, poly),
                                  exhaustive_nearest(pts, poly))
        assert _deviation_to_arc(pts, arc) \
            == exhaustive_deviation_to_arc(pts, arc)

    def test_points_on_the_arc(self, q1_family):
        arc = q1_family[0]
        _, states = arc.path.dense_grid(777)
        pts = np.column_stack(elliptic_to_xy(states[:, 0], states[:, 1]))
        pts = np.vstack([pts, _points_near_arc(arc, 300, 0.0, 5)])
        assert _deviation_to_arc(pts, arc) <= 1e-9

    def test_empty_points(self, q1_family):
        assert _deviation_to_arc(np.empty((0, 2)), q1_family[0]) == 0.0


class TestExpansionRate:
    def test_positive_at_fixed_eps(self, q1_family):
        res = shoot_segment(q1_family[0], 1e-3)
        rate = local_expansion_rate([res, res], 1e-3)
        assert np.isfinite(rate)
        # sensitivity grows with the centre attraction: strongly expanding
        assert rate > 1.0

    def test_needs_two_converged_segments(self, q1_family):
        res = shoot_segment(q1_family[0], 1e-3)
        with pytest.raises(DomainError):
            local_expansion_rate([res], 1e-3)
        bad = shoot_segment(q1_family[0], 1e-3)._replace(converged=False)
        with pytest.raises(DomainError):
            local_expansion_rate([bad, res], 1e-3)

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 0.0, -1e-3, math.nan])
    def test_refuses_an_eps_not_the_segments_own(self, q1_family, eps):
        # the segment was shot at eps = 1e-3: another eps would pair its
        # arrival state with a centre of another strength
        res = shoot_segment(q1_family[0], 1e-3)
        with pytest.raises(DomainError, match="segment's own"):
            local_expansion_rate([res, res], eps)

    def test_refuses_eps_zero_on_its_own_segment(self, q1_family):
        # the conic's strength is eps: at 0 there is no passage to measure
        res = shoot_segment(q1_family[0], 0.0)
        assert res.converged
        with pytest.raises(DomainError, match="positive"):
            local_expansion_rate([res, res], 0.0)

    def test_integrates_nothing(self, q1_family, monkeypatch, field_calls):
        res = shoot_segment(q1_family[0], 1e-3)
        field_calls.clear()
        runs = []

        def counting_integrate(*args, **kwargs):
            runs.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(shadow, "integrate", counting_integrate)
        assert local_expansion_rate([res, res], 1e-3) > 1.0
        assert (runs, field_calls) == ([], [])


@pytest.fixture(scope="module")
def rate_segments(q1_family, q1_solution):
    """(eps, segment) of acceptance test 10's arc at its three eps, and of
    q = 1 at (xi+/2, 0), arcs 0 and 3, at eps = 1e-3."""
    beta = 1.0 / 7.0
    xi_plus = turning_point_xi(beta, q1_solution.a1_hat)
    prm, _ = resonant_params(EllipticPoint(0.5 * xi_plus, 0.0), 1, beta)
    half = arc_family(prm)
    return [(eps, shoot_segment(q1_family[0], eps))
            for eps in (1e-2, 1e-3, 1e-4)] + \
        [(1e-3, shoot_segment(half[k], 1e-3)) for k in (0, 3)]


def test_kepler_rate_is_the_integrated_rate_to_order_eps(rate_segments):
    """The conic leaves out the primaries' field across the disc, a gap
    linear in eps: -0.50, -0.55 and -0.56 eps on test 10's arc, and up to
    5.5 eps at (xi+/2, 0)."""
    gaps = []
    for eps, res in rate_segments:
        assert res.converged
        gap = local_expansion_rate([res, res], eps) \
            - integrated_expansion_rate([res, res], eps)
        assert abs(gap) <= 8.0 * eps, (eps, gap)
        gaps.append(abs(gap))
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4]), np.log(gaps[:3]), 1)[0]
    assert 0.9 <= slope <= 1.1


def _integrated_kepler_exit_angle(offset, velocity, mu, radius):
    """The exit angle of the Kepler problem integrated by scipy's DOP853
    to its first outward crossing of the circle."""
    def rhs(t, y):
        r3 = math.hypot(y[0], y[1]) ** 3
        return [y[2], y[3], -mu * y[0] / r3, -mu * y[1] / r3]

    def leaves(t, y):
        return math.hypot(y[0], y[1]) - radius
    leaves.terminal, leaves.direction = True, 1.0
    sol = solve_ivp(rhs, (0.0, 1e3), [*offset, *velocity], method="DOP853",
                    rtol=1e-12, atol=1e-12, events=leaves)
    (exit_state,) = sol.y_events[0]
    return math.atan2(exit_state[3], exit_state[2])


def _kepler_start(mu, radius, r_frac, theta, psi, sense, k):
    """Start at radius r_frac*radius and angle theta, moving at psi from
    the outward radial in the given sense, with speed^2 = k * 2 mu/r (a
    hyperbola for k > 1, an ellipse below); its (offset, velocity,
    periapsis, apoapsis)."""
    r = r_frac * radius
    v = math.sqrt(k * 2.0 * mu / r)
    offset = (r * math.cos(theta), r * math.sin(theta))
    heading = theta + sense * psi
    velocity = (v * math.cos(heading), v * math.sin(heading))
    p = (r * v * math.sin(psi)) ** 2 / mu
    e = math.sqrt(max(0.0, 1.0 + 2.0 * (k - 1.0) * p / r))
    return offset, velocity, p / (1.0 + e), \
        p / (1.0 - e) if e < 1.0 else math.inf


KEPLER_STARTS = dict(
    mu=st.floats(1e-3, 1.0), r_frac=st.floats(0.2, 0.95),
    theta=st.floats(-math.pi, math.pi), psi=st.floats(0.0, math.pi),
    sense=st.sampled_from([-1, 1]))


class TestKeplerExit:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.one_of(st.floats(0.3, 0.99), st.floats(1.01, 4.0)),
           **KEPLER_STARTS)
    @example(mu=1.0, r_frac=0.5, theta=0.3, psi=1.2, sense=1, k=0.8)
    @example(mu=1e-3, r_frac=0.5, theta=0.3, psi=2.5, sense=-1, k=2.0)
    def test_matches_the_integrated_conic(self, mu, r_frac, theta, psi,
                                          sense, k):
        radius = 1.0
        offset, velocity, peri, apo = _kepler_start(mu, radius, r_frac,
                                                    theta, psi, sense, k)
        # a close periapsis or a grazing exit would test the integrator
        assume(peri >= 0.05 * radius and apo >= 1.1 * radius)
        angle = shadow._kepler_exit_angle(offset, velocity, mu, radius)
        reference = _integrated_kepler_exit_angle(offset, velocity, mu,
                                                  radius)
        assert abs(math.remainder(angle - reference, 2.0 * math.pi)) <= 1e-8

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.floats(0.05, 0.9), **KEPLER_STARTS)
    def test_an_ellipse_inside_the_circle_does_not_exit(
            self, mu, r_frac, theta, psi, sense, k):
        radius = 1.0
        offset, velocity, _, apo = _kepler_start(mu, radius, r_frac, theta,
                                                 psi, sense, k)
        assume(apo < radius)
        with pytest.raises(IntegrationError, match="did not exit"):
            shadow._kepler_exit_angle(offset, velocity, mu, radius)
