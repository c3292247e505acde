import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deviation_reference import _deviation_to_arc as reference_deviation
from tricentre import shadow
from tricentre.dynamics import Params, integrate
from tricentre.errors import DomainError
from tricentre.geometry import (CartesianPoint, EllipticPoint, elliptic_to_xy,
                                velocity_to_cartesian)
from tricentre.shadow import (_deviation_to_arc, _energy_consistent_state,
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

    def test_newton_history_and_rhs_evals(self, q1_family, monkeypatch):
        counted = []

        def counting_integrate(*args, **kwargs):
            traj = integrate(*args, **kwargs)
            counted.append(traj.stats.rhs_evals)
            return traj

        monkeypatch.setattr(shadow, "integrate", counting_integrate)
        res = shoot_segment(q1_family[0], 1e-3)
        hist = res.residual_history
        assert res.converged and res.n_iterations >= 2
        assert len(hist) == res.n_iterations + 1
        assert all(a > b for a, b in zip(hist, hist[1:]))
        assert hist[-1] == res.residual
        # one trial integration plus the finite-difference alpha column per
        # step; the duration column is the endpoint velocity, no integration
        assert len(counted) >= 1 + 2 * res.n_iterations
        assert res.rhs_evals == sum(counted)


def _points_near_arc(arc, n, max_offset, seed):
    """n points on the arc's dense output, each moved by up to max_offset."""
    rng = np.random.default_rng(seed)
    taus = rng.uniform(arc.path.taus[0], arc.path.taus[-1], n)
    states = arc.path.state_at(taus)
    x, y = elliptic_to_xy(states[:, 0], states[:, 1])
    r = max_offset * np.sqrt(rng.uniform(0.0, 1.0, n))
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.column_stack([x + r * np.cos(theta), y + r * np.sin(theta)])


class TestEnergyConsistentState:
    """The start state against the Cartesian energy identity

        |v|^2/2 - a/|z-1| - a/|z+1| - eps/|z-C| = E,  v = d(x, y)/dtau / rho,

    which shares no code with the regularized Hamiltonian."""

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(-3.0, 3.0), y=st.floats(-3.0, 3.0),
           angle=st.floats(-math.pi, math.pi), a=st.floats(0.5, 2.0),
           beta=st.floats(0.01, 0.9), a1_frac=st.floats(0.05, 0.95),
           eps=st.one_of(st.just(0.0), st.floats(1e-6, 0.1)),
           cx=st.floats(-2.0, 2.0), cy=st.floats(-2.0, 2.0))
    def test_cartesian_energy_identity(self, x, y, angle, a, beta, a1_frac,
                                       eps, cx, cy):
        z, c = complex(x, y), complex(cx, cy)
        assume(min(abs(z - 1.0), abs(z + 1.0), abs(z - c),
                   abs(c - 1.0), abs(c + 1.0)) >= 1e-3)
        prm = Params(a=a, beta=beta, a1=a1_frac / (1.0 + beta), eps=eps,
                     centre=CartesianPoint(cx, cy))
        terms = (a / abs(z - 1.0), a / abs(z + 1.0), eps / abs(z - c))
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
    @example(n=255, max_offset=0.1, seed=2)
    @example(n=256, max_offset=0.01, seed=3)
    @example(n=257, max_offset=1e-4, seed=4)
    @example(n=1100, max_offset=0.5, seed=6)
    def test_matches_per_point_reference(self, q1_family, n, max_offset, seed):
        arc = q1_family[0]
        pts = _points_near_arc(arc, n, max_offset, seed)
        assert _deviation_to_arc(pts, arc) == pytest.approx(
            reference_deviation(pts, arc), rel=1e-12, abs=1e-14)

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
        bad = shoot_segment(q1_family[0], 1e-3)
        bad.converged = False
        with pytest.raises(DomainError):
            local_expansion_rate([bad, res], 1e-3)
