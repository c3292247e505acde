import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tricentre import _kernels, dynamics, trajectory_to_csv
from event_specs import CentreProximity, XiCrossing
from tricentre.dynamics import (Params, PhiCrossing, hamiltonian_values,
                                integrate, trajectory_to_json)
from tricentre.errors import DomainError, IntegrationError
from tricentre.geometry import CartesianPoint, elliptic_to_xy
from tricentre.periods import period_phi, period_xi, solve_resonant_a1
from tricentre.shadow import _energy_consistent_state
from tricentre.special import incomplete_elliptic_f
from verlet_check import integrate_symplectic


def separated_state(beta, a1, xi=0.0, phi=0.3, s_xi=1, s_phi=1):
    """State on the separated-system solution (zero Hamiltonian level)."""
    r = math.cosh(xi) - beta * a1 * math.cosh(xi) ** 2 - a1
    assert r > 0.0
    return np.array([
        xi, phi,
        s_xi * 2.0 * math.sqrt(r),
        s_phi * 2.0 * math.sqrt(beta * a1 * math.cos(phi) ** 2 + a1),
    ])


def hamiltonian(y, prm):
    """The one Hamiltonian, hamiltonian_values, at a single state."""
    return float(hamiltonian_values(np.asarray(y, dtype=float)[None, :], prm)[0])


def field(y, prm):
    """The one vector field, _kernels.field, at a single state."""
    rhs = _kernels.field(prm.energy, prm.eps, *dynamics._centre_xy(prm))
    return np.array(rhs(*(float(v) for v in y)))


class TestHamiltonian:
    def test_zero_on_separated_solutions(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            beta = rng.uniform(0.01, 0.6)
            a1 = rng.uniform(0.05, 0.95 / (1.0 + beta))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            y = separated_state(beta, a1, phi=phi)
            prm = Params(beta=beta, a1=a1)
            assert abs(hamiltonian(y, prm)) <= 1e-12

    def test_zero_at_turning_point(self):
        beta, a1 = 0.2, 0.4
        cosh_xi = (1.0 + math.sqrt(1.0 - 4.0 * beta * a1 * a1)) / (2.0 * beta * a1)
        xi_plus = math.acosh(cosh_xi)
        phi = 1.1
        phi_speed = 2.0 * math.sqrt(beta * a1 * math.cos(phi) ** 2 + a1)
        prm = Params(beta=beta, a1=a1)
        val = hamiltonian([xi_plus, phi, 0.0, phi_speed], prm)
        assert abs(val) <= 1e-11

    def test_boundary_a1_rejected(self):
        # a1 = 0 would need xi'^2/4 = 1 - a1*(1+beta) -> 1, but sits on the
        # domain boundary and is refused
        with pytest.raises(DomainError):
            Params(beta=0.0, a1=0.0)


class TestVectorField:
    def test_axis_accelerations_vanish(self):
        prm = Params(beta=0.2, a1=0.3)
        for phi in (0.0, math.pi / 2.0):
            out = field([0.0, phi, 0.7, 0.9], prm)
            assert out[2] == pytest.approx(0.0, abs=1e-15)  # sinh(0) = 0
            assert out[3] == pytest.approx(0.0, abs=1e-15)  # sin(2 phi) = 0

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    def test_gradient_check_against_hamiltonian(self, eps):
        rng = np.random.default_rng(5)
        centre = CartesianPoint(0.37, 0.21)
        prm = Params(beta=0.2, a1=0.4, eps=eps, centre=centre)
        h = 1e-6
        worst = 0.0
        for _ in range(1000):
            y = rng.uniform([-2.0, 0.0, -2.0, -2.0], [2.0, 2.0 * math.pi, 2.0, 2.0])
            f = field(y, prm)
            grad = np.empty(4)
            for i in range(4):
                yp, ym = y.copy(), y.copy()
                yp[i] += h
                ym[i] -= h
                grad[i] = (hamiltonian(yp, prm)
                           - hamiltonian(ym, prm)) / (2.0 * h)
            expect = np.array([grad[2], grad[3], -grad[0], -grad[1]])
            worst = max(worst, float(np.max(np.abs(f - expect)
                                            / (1.0 + np.abs(expect)))))
        assert worst <= 1e-6


class TestIntegrate:
    def test_energy_conserved_over_ten_periods(self):
        beta, a1 = 1.0 / 7.0, 0.3
        prm = Params(beta=beta, a1=a1)
        t1 = period_xi(beta, a1)
        traj = integrate(separated_state(beta, a1), prm, 10.0 * t1, tol=1e-13)
        assert traj.energy_drift <= 1e-10

    def test_energy_drift_long_span(self):
        prm = Params(beta=0.25, a1=0.35)
        traj = integrate(separated_state(0.25, 0.35), prm, 100.0, tol=1e-12)
        assert traj.energy_drift <= 1e-9

    def test_angular_period_cross_check(self):
        beta, a1 = 0.2, 0.4
        prm = Params(beta=beta, a1=a1)
        t2 = period_phi(beta, a1)
        y0 = separated_state(beta, a1, phi=0.0)
        traj = integrate(y0, prm, 2.2 * t2, tol=1e-12, events=[PhiCrossing(0.0)])
        times = [e.tau for e in traj.events if e.kind == "phi_crossing"]
        assert len(times) >= 2
        assert times[0] == pytest.approx(t2, rel=1e-8)
        assert times[1] - times[0] == pytest.approx(t2, rel=1e-8)

    def test_zero_length(self):
        prm = Params(beta=0.2, a1=0.3)
        traj = integrate(separated_state(0.2, 0.3), prm, 0.0, tol=1e-12)
        assert len(traj.taus) == 1
        assert traj.events == []

    @pytest.mark.parametrize("bad", [
        {"tau_end": math.nan}, {"tau_end": math.inf}, {"tau_end": -math.inf},
        {"tol": math.nan}, {"tol": math.inf},
        {"state0": [math.nan, 0.3, 1.2, 1.1]},
        {"state0": [0.0, 0.3, math.inf, 1.1]},
    ])
    def test_non_finite_input_is_a_domain_error(self, bad):
        args = {"state0": separated_state(0.2, 0.3),
                "prm": Params(beta=0.2, a1=0.3),
                "tau_end": 1.0, "tol": 1e-10}
        with pytest.raises(DomainError):
            integrate(**{**args, **bad})

    def test_separated_subsystem_energies_conserved(self):
        beta, a1 = 0.15, 0.45
        prm = Params(beta=beta, a1=a1)
        rng = np.random.default_rng(17)
        y0 = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0, 6.28),
                       rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)])
        traj = integrate(y0, prm, 30.0, tol=1e-12)
        xi, phi, pxi, pphi = (traj.states[:, i] for i in range(4))
        e_xi = pxi ** 2 / 4.0 - np.cosh(xi) + beta * a1 * np.cosh(xi) ** 2 + a1
        e_phi = pphi ** 2 / 4.0 - beta * a1 * np.cos(phi) ** 2 - a1
        assert np.max(np.abs(e_xi - e_xi[0])) <= 1e-9
        assert np.max(np.abs(e_phi - e_phi[0])) <= 1e-9

    def test_reversibility(self):
        beta, a1 = 1.0 / 7.0, 0.3
        prm = Params(beta=beta, a1=a1)
        tol = 1e-12
        y0 = separated_state(beta, a1)
        fw = integrate(y0, prm, 1.0, tol=tol)
        yb = fw.states[-1].copy()
        yb[2:] *= -1.0
        bw = integrate(yb, prm, 1.0, tol=tol)
        yr = bw.states[-1].copy()
        yr[2:] *= -1.0
        assert np.max(np.abs(yr - y0)) <= 10.0 * tol

    def test_dense_output_matches_samples(self):
        prm = Params(beta=0.2, a1=0.3)
        traj = integrate(separated_state(0.2, 0.3), prm, 5.0, tol=1e-12)
        mid = len(traj.taus) // 2
        assert np.allclose(traj.state_at(traj.taus[mid]), traj.states[mid],
                           atol=1e-12)

    def test_xi_crossing_direction_filter(self):
        beta, a1 = 0.2, 0.3
        prm = Params(beta=beta, a1=a1)
        t1 = period_xi(beta, a1)
        y0 = separated_state(beta, a1)  # starts at xi = 0 moving up
        traj = integrate(y0, prm, 2.1 * t1, tol=1e-12,
                         events=[XiCrossing(0.0, direction=+1)])
        ups = [e.tau for e in traj.events]
        assert len(ups) == 2
        assert ups[0] == pytest.approx(t1, rel=1e-8)

    def test_exclusion_ball_refusal(self):
        # aim straight at the perturbing centre: the integration must refuse
        centre = CartesianPoint(math.cosh(0.4), 0.0)
        prm = Params(beta=0.2, a1=0.3, eps=1e-2, centre=centre)
        y0 = np.array([0.0, 0.0, 1.2, 0.0])  # moves along the x-axis into C
        with pytest.raises(IntegrationError):
            integrate(y0, prm, 5.0, tol=1e-10)

    def test_centre_proximity_entry_events(self):
        # eps = 0: the orbit passes straight through the circle around C,
        # and the direction filter keeps the entry but not the exit
        prm = Params(beta=1.0 / 7.0, a1=0.2,
                     centre=CartesianPoint(0.0, 1.5))
        y0 = _energy_consistent_state(CartesianPoint(0.0, 1.2), (0, 1), prm)
        spec = CentreProximity(radius=0.1, direction=-1)
        traj = integrate(y0, prm, 0.3, tol=1e-11, events=[spec])
        hits = [e for e in traj.events if e.kind == "centre_proximity"]
        assert len(hits) == 1
        assert traj.tau_final == 0.3
        x, y = elliptic_to_xy(hits[0].state[0], hits[0].state[1], math)
        assert math.hypot(x, y - 1.5) == pytest.approx(0.1, abs=1e-9)

    def test_centre_proximity_without_a_centre_refused(self):
        # with no centre to measure from, the origin would stand in for it
        # and this run would report 3 crossings of |z| = 1
        prm = Params(beta=0.2, a1=0.3)
        spec = CentreProximity(1.0, direction=0)
        with pytest.raises(DomainError, match="perturbing centre"):
            integrate([0.0, 0.3, 1.2, 1.1], prm, 5.0, tol=1e-10,
                      events=[spec])

    def test_nonterminal_event_then_failure_raises(self, monkeypatch):
        beta, a1 = 0.2, 0.3
        prm = Params(beta=beta, a1=a1)
        t1 = period_xi(beta, a1)
        spec = XiCrossing(0.0, direction=-1)
        monkeypatch.setattr(dynamics, "MAX_STEPS", 300)
        with pytest.raises(IntegrationError, match="budget"):
            integrate(separated_state(beta, a1), prm, 3.0 * t1, tol=1e-12,
                      events=[spec])

    def test_symplectic_cross_check(self):
        beta, a1 = 1.0 / 7.0, 0.3
        prm = Params(beta=beta, a1=a1)
        y0 = separated_state(beta, a1)
        ref = integrate(y0, prm, 20.0, tol=1e-12)
        ver = integrate_symplectic(y0, prm, 20.0, dt=1e-4)
        assert ver.energy_drift <= 1e-6
        assert np.max(np.abs(ver.states[-1] - ref.states[-1])) <= 1e-5


class TestPhiCrossingHalfAngle:
    """At eps = 0 phi is monotone, F(phi | k2^2) = F(phi0 | k2^2) +- w tau,
    so phi reaches value + 2 pi k at a closed-form time."""

    @given(beta=st.floats(0.05, 0.6), a1_frac=st.floats(0.1, 0.9),
           phi0=st.floats(0.0, 2.0 * math.pi),
           value=st.floats(-2.0 * math.pi, 4.0 * math.pi),
           s_phi=st.sampled_from([1, -1]))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_crossings_at_value_mod_two_pi_only(self, beta, a1_frac, phi0,
                                                value, s_phi):
        a1 = a1_frac / (1.0 + beta)
        prm = Params(beta=beta, a1=a1)
        k2 = beta / (1.0 + beta)
        w = 2.0 * math.sqrt(a1 * (1.0 + beta))
        tau_end = 2.5 * period_phi(beta, a1)
        f0 = incomplete_elliptic_f(phi0, k2)
        want = []
        for k in range(-4, 6):
            tau = (incomplete_elliptic_f(value + 2.0 * math.pi * k, k2) - f0) \
                / (s_phi * w)
            assume(abs(tau) > 1e-6 and abs(tau - tau_end) > 1e-6)
            if 0.0 < tau < tau_end:
                want.append(tau)
        y0 = separated_state(beta, a1, phi=phi0, s_phi=s_phi)
        traj = integrate(y0, prm, tau_end, tol=1e-12,
                         events=[PhiCrossing(value)])
        got = [e.tau for e in traj.events]
        assert len(got) == len(want)
        assert np.max(np.abs(np.array(got) - sorted(want)), initial=0.0) <= 1e-9
        for e in traj.events:  # never at value + pi
            assert math.cos(e.state[1] - value) > 0.999


@pytest.fixture(scope="module")
def spans():
    """One forward and one backward run, each with three events."""
    prm = Params(beta=0.2, a1=0.3)
    y0 = separated_state(0.2, 0.3)
    events = [PhiCrossing(1.0), PhiCrossing(2.5), XiCrossing(0.0)]
    return {end: integrate(y0, prm, end, tol=1e-10, events=events)
            for end in (5.0, -5.0)}


class TestRootOnScanPoint:
    """A root where g is exactly zero on a scan point flips no scan cell."""

    def test_crossing_value_taken_from_a_sample(self, spans):
        y0, prm = separated_state(0.2, 0.3), Params(beta=0.2, a1=0.3)
        v = spans[5.0].states[11, 0]  # xi rising at sample 11
        taus = [round(e.tau, 12) for e in
                integrate(y0, prm, 5.0, tol=1e-10,
                          events=[XiCrossing(v)]).events]
        assert taus == [1.015704761246, 1.832967047845]
        rising = integrate(y0, prm, 5.0, tol=1e-10,
                           events=[XiCrossing(v, direction=1)])
        assert [round(e.tau, 12) for e in rising.events] == [1.015704761246]
        assert rising.events[0].state[0] == v
        falling = integrate(y0, prm, 5.0, tol=1e-10,
                            events=[XiCrossing(v, direction=-1)])
        assert [round(e.tau, 12) for e in falling.events] == [1.832967047845]

    @given(end=st.sampled_from([5.0, -5.0]), where=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_every_sample_crossing_is_reported_once(self, spans, end, where):
        traj = spans[end]
        i = 1 + int(where * (len(traj.taus) - 3))
        assume(abs(traj.states[i, 2]) > 0.1)  # a crossing, not a turning point
        run = integrate(separated_state(0.2, 0.3), traj.params, end,
                        tol=1e-10, events=[XiCrossing(traj.states[i, 0])])
        near = [e.tau for e in run.events if abs(e.tau - traj.taus[i]) < 1e-6]
        assert len(near) == 1
        assert abs(near[0] - traj.taus[i]) <= 1e-11  # refinement tolerance


# The q = 1 orbit through phi = 0.3 with PhiCrossing(+-0.3) over 5.25
# periods.  Over exactly 5, the last crossing of phi = 0.3 (at 5 T2) lies
# 4e-15 inside the span (5 T1 is one ulp of T1 longer), well below the
# 1e-13 error of the integrated phi, so whether it counts is a coin flip.
_REFERENCE_PERIODS = 5.25


def test_refinement_cost_on_the_reference_orbit(q1_solution):
    """At most 8 scalar g evaluations per refined event on the reference
    orbit."""
    calls = []

    class CountedCrossing(PhiCrossing):
        def g(self, states, prm):
            calls.append(states.ndim)
            return super().g(states, prm)
    beta, a1, phi0 = q1_solution.beta, q1_solution.a1_hat, 0.3
    prm = Params(beta=beta, a1=a1, q=Fraction(1))
    traj = integrate(separated_state(beta, a1, phi=phi0), prm,
                     _REFERENCE_PERIODS * q1_solution.t1, tol=1e-12,
                     events=[CountedCrossing(phi0), CountedCrossing(-phi0)])
    assert len(traj.events) >= 10
    assert calls.count(1) <= 8 * len(traj.events)


def test_reference_orbit_crossings_in_closed_form(q1_solution):
    """Every crossing of phi = +-0.3 on the reference orbit is found once,
    at the closed-form time: phi is monotone at eps = 0, with
    F(phi | k2^2) = F(0.3 | k2^2) + w tau.  The steps are about 5 times
    those of a fifth-order pair, and the scan still takes 8 points each."""
    beta, a1, phi0 = q1_solution.beta, q1_solution.a1_hat, 0.3
    prm = Params(beta=beta, a1=a1, q=Fraction(1))
    span = _REFERENCE_PERIODS * q1_solution.t1
    k2 = beta / (1.0 + beta)
    w = 2.0 * math.sqrt(a1 * (1.0 + beta))
    f0 = incomplete_elliptic_f(phi0, k2)
    want = sorted(tau for value in (phi0, -phi0) for k in range(7)
                  if 0.0 < (tau := (incomplete_elliptic_f(
                      value + 2.0 * math.pi * k, k2) - f0) / w) < span)
    traj = integrate(separated_state(beta, a1, phi=phi0), prm, span,
                     tol=1e-12, events=[PhiCrossing(phi0), PhiCrossing(-phi0)])
    assert len(want) == 10
    assert len(traj.events) == len(want)
    assert np.max(np.abs([e.tau for e in traj.events] - np.array(want))) \
        <= 1e-9
    assert traj.stats.accepted < 200 * _REFERENCE_PERIODS


class TestDenseOutputInClosedForm:
    """At eps = 0 the dense output at each step's midpoint, where it is
    farthest from the samples, adds at most 10 tol to the larger error of
    the step's two samples against the closed-form path, for each arc of
    the q = 1 family and tol 1e-9 and 1e-12.  The samples' own (global)
    error reaches 100-400 tol over an arc, with this pair and with the
    fifth-order one before it."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_step_midpoints(self, q1_family, tol):
        for arc in q1_family:
            path = arc.path
            traj = integrate(path.state_at(0.0), arc.params, arc.duration,
                             tol=tol)
            at_samples = np.abs(traj.states - path.state_at(traj.taus))
            ends = np.maximum(at_samples[:-1], at_samples[1:])
            mid = 0.5 * (traj.taus[:-1] + traj.taus[1:])
            exact = path.state_at(mid)
            err = np.abs(traj.state_at(mid) - exact)
            assert np.all(err <= ends + 10.0 * tol * (1.0 + np.abs(exact))), \
                (arc.label, (err - ends).max())


class TestExport(object):
    def test_csv_columns_and_json_events(self, tmp_path):
        beta, a1 = 0.2, 0.3
        prm = Params(beta=beta, a1=a1)
        traj = integrate(separated_state(beta, a1), prm, 4.0, tol=1e-11,
                         events=[PhiCrossing(1.0)])
        csv_path = tmp_path / "traj.csv"
        json_path = tmp_path / "traj.json"
        trajectory_to_csv(traj, csv_path)
        trajectory_to_json(traj, json_path)
        header = csv_path.read_text().splitlines()[0].split(",")
        assert header == ["tau", "xi", "phi", "xi_prime", "phi_prime",
                          "t_physical", "x", "y"]
        import json as _json
        doc = _json.loads(json_path.read_text())
        assert doc["events"] and doc["events"][0]["kind"] == "phi_crossing"
        assert doc["energy_drift"] <= 1e-9


def test_params_validation():
    with pytest.raises(DomainError):
        Params(a=-1.0)
    with pytest.raises(DomainError):
        Params(beta=1.0)
    with pytest.raises(DomainError):
        Params(beta=0.5, a1=0.7)  # above 1/(1+beta)
    with pytest.raises(DomainError):
        Params(eps=1e-3)  # perturbation without a centre
    with pytest.raises(DomainError):
        Params(eps=1e-3, centre=CartesianPoint(1.0, 0.0))  # centre at primary
    prm = Params(beta=0.5, a1=0.5, q=Fraction(3, 2))
    assert prm.energy == pytest.approx(-2.0 * 0.5 * 0.5)
    assert type(Params(q=3).q) is Fraction and Params(q=3).q == 3


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
def test_params_refuses_eps_outside_zero_to_inf(eps):
    centre = CartesianPoint(0.5, 0.5)
    with pytest.raises(DomainError, match="eps must be finite and >= 0"):
        Params(beta=0.2, a1=0.3, eps=eps, centre=centre)
    assert Params(beta=0.2, a1=0.3, centre=centre).with_eps(0.0).eps == 0.0


@pytest.mark.parametrize("q", [1.5, "3/2", 1.0, None, 0, -2, Fraction(-1, 2)],
                         ids=repr)
def test_params_refuses_q_not_a_positive_int_or_fraction(q):
    # a float was stored as given, and the exclusion test then failed on
    # it with AttributeError; a string failed the comparison with TypeError
    with pytest.raises(DomainError, match="positive int or Fraction"):
        Params(beta=0.2, a1=0.3, q=q)


@pytest.mark.parametrize("a", [2.0, 0.5, 0.0, -1.0, math.nan, math.inf])
def test_intensity_slots_take_only_one(a):
    """Params.a and period_xi's third parameter stay for callers that pass
    them; the primaries' intensity is fixed at 1."""
    prm = Params(a=1.0, beta=0.2, a1=0.3)
    assert prm.a == 1.0 and prm == Params(beta=0.2, a1=0.3)
    assert period_xi(0.2, 0.3, 1.0) == period_xi(0.2, 0.3)
    with pytest.raises(DomainError, match="intensity is fixed at 1"):
        Params(a=a, beta=0.2, a1=0.3)
    with pytest.raises(DomainError, match="intensity is fixed at 1"):
        period_xi(0.2, 0.3, a)


@pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.3, math.nan),
                                  (math.inf, 0.0), (0.3, -math.inf)])
def test_params_refuses_a_non_finite_centre(x, y):
    with pytest.raises(DomainError, match="perturbing centre must be finite"):
        Params(beta=0.2, a1=0.3, centre=CartesianPoint(x, y))


def _bench_orbit_args(tau_end_factor=1.0, max_steps=10_000_000):
    """Kernel arguments for the plain q = 1 resonant orbit over 5 periods."""
    beta, phi0 = 1.0 / 7.0, 0.3
    sol = solve_resonant_a1(beta, 1)
    y0 = separated_state(beta, sol.a1_hat, phi=phi0)
    span = 5.0 * sol.t1
    return (y0, tau_end_factor * span, 1e-12, max_steps,
            -2.0 * beta * sol.a1_hat, 0.0, 0.0, 0.0, 0.0)


def _centre_dive_args(r_min):
    """Straight fall along the x-axis into a centre at (cosh 0.4, 0)."""
    y0 = np.array([0.0, 0.0, 1.2, 0.0])
    return (y0, 5.0, 1e-10, 2_000_000, -2.0 * 0.2 * 0.3, 1e-2,
            math.cosh(0.4), 0.0, r_min)


def _shooting_span_args(family, eps=1e-3, span=None):
    """eps > 0 over 90% of the reference arc, or over the given span:
    runs the step-cap branch."""
    arc = family[0]
    prm = arc.params
    y0 = arc.path.state_at(0.05 * arc.duration)
    span = 0.9 * arc.duration if span is None else span
    return (y0, span, 1e-11, 2_000_000, prm.energy, eps,
            prm.centre.x, prm.centre.y, 0.01 * eps)


class TestKernelOracle:
    """The float loop against the numpy-indexed reference loop, exactly."""

    @pytest.mark.parametrize("case", ["bench_orbit", "negative_span",
                                      "shooting_span", "shooting_span_1e-2",
                                      "shooting_span_1e-4", "short_span",
                                      "zero_span"])
    def test_bitwise_equal_to_reference(self, case, q1_family):
        from dop853_reference import (DENSE_STAGES, STATUS_OK,
                                      dense_reference, dop853_reference)
        args = {
            "bench_orbit": lambda: _bench_orbit_args(),
            "negative_span": lambda: _bench_orbit_args(tau_end_factor=-1.0),
            "shooting_span": lambda: _shooting_span_args(q1_family),
            "shooting_span_1e-2": lambda: _shooting_span_args(q1_family,
                                                              eps=1e-2),
            "shooting_span_1e-4": lambda: _shooting_span_args(q1_family,
                                                              eps=1e-4),
            # shorter than the steps the controller would take
            "short_span": lambda: _shooting_span_args(q1_family, span=1e-3),
            "zero_span": lambda: _shooting_span_args(q1_family, span=0.0),
        }[case]()
        T, Y, KS, stats, steps = _kernels.dop853_core(*args)
        status, n, want_T, want_Y, K, want_steps = dop853_reference(*args)
        assert status == STATUS_OK
        assert stats.accepted == n
        got = [T, Y, KS, np.frombuffer(steps)]
        want = [want_T, want_Y, K[:, DENSE_STAGES], want_steps]
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.dtype == np.float64 and g.flags.c_contiguous
            assert np.array_equal(g, w)
        # the dense coefficients sum in another order, so the step
        # midpoints agree to rounding
        energy, eps, cx, cy = args[4:8]
        dense, calls = _kernels.dop853_dense(Y, KS, steps, energy, eps, cx, cy)
        ref = dense_reference(Y, K, steps, _kernels.field(energy, eps, cx, cy))
        assert calls == _kernels.DENSE_CALLS * n
        mid = [Y[:-1] + 0.5 * (f[:, 0] + 0.5 * (f[:, 1] + 0.5 * (f[:, 2]
               + 0.5 * (f[:, 3] + 0.5 * (f[:, 4] + 0.5 * (f[:, 5]
                                                     + 0.5 * f[:, 6]))))))
               for f in (dense, ref)]
        assert np.all(np.abs(mid[0] - mid[1]) <= 1e-14 * (1.0 + np.abs(Y[1:])))

    @pytest.mark.parametrize("case", ["exclusion_ball", "max_steps",
                                      "underflow"])
    def test_fails_where_the_reference_fails(self, case):
        import dop853_reference as ref
        args, status, message = {
            "exclusion_ball": (_centre_dive_args(1e-4),
                               ref.STATUS_ENTERED_EXCLUSION_BALL,
                               "exclusion ball of radius 0.0001"),
            "max_steps": (_bench_orbit_args(max_steps=5),
                          ref.STATUS_MAX_STEPS, "step budget 5 exhausted"),
            "underflow": (_centre_dive_args(0.0), ref.STATUS_STEP_UNDERFLOW,
                          "step size underflow"),
        }[case]
        want_status, n, T, *_ = ref.dop853_reference(*args)
        assert want_status == status
        # the message names the tau of the reference's last accepted step
        tau = re.escape(f"{T[n]:.6g}")
        with pytest.raises(IntegrationError,
                           match=f"{message}.* at tau={tau}(?![0-9])"):
            _kernels.dop853_core(*args)

    def test_endpoint_against_scipy_dop853(self):
        from scipy.integrate import solve_ivp
        y0, span = _bench_orbit_args()[:2]
        prm = Params(beta=1.0 / 7.0,
                     a1=solve_resonant_a1(1.0 / 7.0, 1).a1_hat)
        traj = integrate(y0, prm, span, tol=1e-12)
        ref = solve_ivp(lambda t, y: field(y, prm), (0.0, span), y0,
                        method="DOP853", rtol=1e-13, atol=1e-13)
        assert ref.success
        assert np.max(np.abs(traj.states[-1] - ref.y[:, -1])) <= 2e-9


class TestStepStats:
    def test_counts_match_samples(self, field_calls):
        prm = Params(beta=0.2, a1=0.3)
        traj = integrate(separated_state(0.2, 0.3), prm, 5.0, tol=1e-12)
        st = traj.stats
        assert st.accepted == len(traj.taus) - 1
        assert st.rejected > 0
        # 12 field calls per accepted step, 11 per rejected one
        assert st.rhs_evals == len(field_calls) \
            == 1 + 12 * st.accepted + 11 * st.rejected
        h = np.abs(np.diff(traj.taus))
        assert st.h_min == pytest.approx(h.min(), rel=1e-12)
        assert st.h_max == pytest.approx(h.max(), rel=1e-12)

    def test_dense_output_is_counted_once(self, field_calls):
        prm = Params(beta=0.2, a1=0.3)
        traj = integrate(separated_state(0.2, 0.3), prm, 5.0, tol=1e-12)
        run_calls = len(field_calls)
        assert traj.stats.rhs_evals == run_calls
        traj.state_at(2.5)
        traj.dense_grid(100)
        # three extra stages per step, on the first query only
        assert len(field_calls) == run_calls + 3 * traj.stats.accepted
        assert traj.stats.rhs_evals == len(field_calls)

    def test_zero_length_run_has_no_steps(self):
        prm = Params(beta=0.2, a1=0.3)
        traj = integrate(separated_state(0.2, 0.3), prm, 0.0, tol=1e-12)
        assert traj.stats == (0, 0, 0, 0.0, 0.0)


class TestReplay:
    """A second start state replayed on a run's accepted steps."""

    @staticmethod
    def _cases(q1_family):
        """(start, params, span, tol): the four runs, forward and backward."""
        arc = q1_family[0]
        prm = Params(beta=0.2, a1=0.3)
        cases = []
        for sign in (1.0, -1.0):
            # the arc leaves the centre at tau = 0 and comes back at its end
            y0 = arc.path.state_at((0.5 - 0.45 * sign) * arc.duration)
            cases += [(separated_state(0.2, 0.3), prm, sign * 5.0, 1e-12),
                      (separated_state(0.2, 0.3), prm, -sign * 5.0, 1e-9),
                      (y0, arc.params.with_eps(1e-3),
                       sign * 0.9 * arc.duration, 1e-12),
                      (y0, arc.params.with_eps(1e-4),
                       sign * 0.9 * arc.duration, 1e-9)]
        return cases

    def test_replay_of_the_start_state_ends_on_the_run(self, q1_family):
        for y0, prm, span, tol in self._cases(q1_family):
            traj = integrate(y0, prm, span, tol)
            steps = traj._steps
            # the steps as taken: summed in order, they give the run's taus
            assert len(steps) == traj.stats.accepted
            assert np.array_equal(np.cumsum(steps), traj.taus[1:])
            end, _ = traj.replay(y0)
            assert np.array_equal(np.array(end), traj.states[-1])

    def test_replay_costs_one_field_call_per_stage(self, q1_family,
                                                   field_calls):
        for y0, prm, span, tol in self._cases(q1_family):
            field_calls.clear()
            traj = integrate(y0, prm, span, tol)
            st = traj.stats
            assert st.rhs_evals == len(field_calls) \
                == 1 + 12 * st.accepted + 11 * st.rejected
            field_calls.clear()
            _, calls = traj.replay(y0 + np.array([0.0, 1e-6, 0.0, 0.0]))
            assert calls == len(field_calls) == 1 + 12 * st.accepted

    def test_zero_span_replays_nothing(self):
        prm = Params(beta=0.2, a1=0.3)
        y0 = separated_state(0.2, 0.3)
        traj = integrate(y0, prm, 0.0, 1e-12)
        steps = traj._steps
        assert len(steps) == 0
        assert traj.stats.rhs_evals == 0
        assert traj.replay(2.0 * y0) == (tuple(2.0 * y0), 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("xi, match", [(800.0, "overflowed"),
                                           (math.nan, "ended non-finite")])
    def test_runaway_twin_is_an_integration_error(self, xi, match):
        # sinh(800) overflows a float; a NaN start runs through to the end
        prm = Params(beta=0.2, a1=0.3)
        y0 = separated_state(0.2, 0.3)
        traj = integrate(y0, prm, 1.0, 1e-9)
        with pytest.raises(IntegrationError, match=match):
            traj.replay((xi, *y0[1:]))


class TestIntegrationErrors:
    def test_step_budget_exhausted(self, monkeypatch):
        prm = Params(beta=0.2, a1=0.3)
        monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
        with pytest.raises(IntegrationError, match="step budget 5"):
            integrate(separated_state(0.2, 0.3), prm, 5.0, tol=1e-12)

    def test_step_underflow_without_exclusion_ball(self, monkeypatch):
        centre = CartesianPoint(math.cosh(0.4), 0.0)
        prm = Params(beta=0.2, a1=0.3, eps=1e-2, centre=centre)
        monkeypatch.setattr(dynamics, "EXCLUSION_RADIUS_FRAC", 0.0)
        with pytest.raises(IntegrationError, match="underflow"):
            integrate(np.array([0.0, 0.0, 1.2, 0.0]), prm, 5.0, tol=1e-10)
