import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tricentre import _kernels, dynamics
from tricentre.dynamics import (CentreProximity, Params, PhiCrossing,
                                XiCrossing, hamiltonian_values, integrate,
                                trajectory_to_csv, trajectory_to_json)
from tricentre.errors import DomainError, IntegrationError
from tricentre.geometry import CartesianPoint, elliptic_to_xy
from tricentre.periods import period_phi, period_xi, solve_resonant_a1
from tricentre.shadow import _energy_consistent_state
from tricentre.special import incomplete_elliptic_f
from verlet_check import integrate_symplectic


def separated_state(beta, a1, a=1.0, xi=0.0, phi=0.3, s_xi=1, s_phi=1):
    """State on the separated-system solution (zero Hamiltonian level)."""
    r = math.cosh(xi) - beta * a1 * math.cosh(xi) ** 2 - a1
    assert r > 0.0
    return np.array([
        xi, phi,
        s_xi * 2.0 * math.sqrt(a * r),
        s_phi * 2.0 * math.sqrt(a * (beta * a1 * math.cos(phi) ** 2 + a1)),
    ])


def hamiltonian(y, prm):
    """The one Hamiltonian, hamiltonian_values, at a single state."""
    return float(hamiltonian_values(np.asarray(y, dtype=float)[None, :], prm)[0])


def field(y, prm):
    """The one vector field, _kernels.field, at a single state."""
    rhs = _kernels.field(prm.a, prm.energy, prm.eps, *dynamics._centre_xy(prm))
    return np.array(rhs(*(float(v) for v in y)))


class TestHamiltonian:
    def test_zero_on_separated_solutions(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            beta = rng.uniform(0.01, 0.6)
            a1 = rng.uniform(0.05, 0.95 / (1.0 + beta))
            phi = rng.uniform(0.0, 2.0 * math.pi)
            y = separated_state(beta, a1, phi=phi)
            prm = Params(a=1.0, beta=beta, a1=a1)
            assert abs(hamiltonian(y, prm)) <= 1e-12

    def test_zero_at_turning_point(self):
        beta, a1, a = 0.2, 0.4, 1.0
        cosh_xi = (1.0 + math.sqrt(1.0 - 4.0 * beta * a1 * a1)) / (2.0 * beta * a1)
        xi_plus = math.acosh(cosh_xi)
        phi = 1.1
        phi_speed = 2.0 * math.sqrt(a * (beta * a1 * math.cos(phi) ** 2 + a1))
        prm = Params(a=a, beta=beta, a1=a1)
        val = hamiltonian([xi_plus, phi, 0.0, phi_speed], prm)
        assert abs(val) <= 1e-11

    def test_boundary_a1_rejected(self):
        # a1 = 0 would need xi'^2/4 = 1 - a1*(1+beta) -> 1, but sits on the
        # domain boundary and is refused
        with pytest.raises(DomainError):
            Params(a=1.0, beta=0.0, a1=0.0)


class TestVectorField:
    def test_axis_accelerations_vanish(self):
        prm = Params(a=1.0, beta=0.2, a1=0.3)
        for phi in (0.0, math.pi / 2.0):
            out = field([0.0, phi, 0.7, 0.9], prm)
            assert out[2] == pytest.approx(0.0, abs=1e-15)  # sinh(0) = 0
            assert out[3] == pytest.approx(0.0, abs=1e-15)  # sin(2 phi) = 0

    @pytest.mark.parametrize("eps", [0.0, 1e-2])
    def test_gradient_check_against_hamiltonian(self, eps):
        rng = np.random.default_rng(5)
        centre = CartesianPoint(0.37, 0.21)
        prm = Params(a=1.0, beta=0.2, a1=0.4, eps=eps, centre=centre)
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
        prm = Params(a=1.0, beta=beta, a1=a1)
        t1 = period_xi(beta, a1)
        traj = integrate(separated_state(beta, a1), prm, 10.0 * t1, tol=1e-13)
        assert traj.energy_drift <= 1e-10

    def test_energy_drift_long_span(self):
        prm = Params(a=1.0, beta=0.25, a1=0.35)
        traj = integrate(separated_state(0.25, 0.35), prm, 100.0, tol=1e-12)
        assert traj.energy_drift <= 1e-9

    def test_angular_period_cross_check(self):
        beta, a1 = 0.2, 0.4
        prm = Params(a=1.0, beta=beta, a1=a1)
        t2 = period_phi(beta, a1)
        y0 = separated_state(beta, a1, phi=0.0)
        traj = integrate(y0, prm, 2.2 * t2, tol=1e-12, events=[PhiCrossing(0.0)])
        times = [e.tau for e in traj.events if e.kind == "phi_crossing"]
        assert len(times) >= 2
        assert times[0] == pytest.approx(t2, rel=1e-8)
        assert times[1] - times[0] == pytest.approx(t2, rel=1e-8)

    def test_zero_length(self):
        prm = Params(a=1.0, beta=0.2, a1=0.3)
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
                "prm": Params(a=1.0, beta=0.2, a1=0.3),
                "tau_end": 1.0, "tol": 1e-10}
        with pytest.raises(DomainError):
            integrate(**{**args, **bad})

    def test_separated_subsystem_energies_conserved(self):
        beta, a1 = 0.15, 0.45
        prm = Params(a=1.0, beta=beta, a1=a1)
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
        prm = Params(a=1.0, beta=beta, a1=a1)
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
        prm = Params(a=1.0, beta=0.2, a1=0.3)
        traj = integrate(separated_state(0.2, 0.3), prm, 5.0, tol=1e-12)
        mid = len(traj.taus) // 2
        assert np.allclose(traj.state_at(traj.taus[mid]), traj.states[mid],
                           atol=1e-12)

    def test_xi_crossing_direction_filter(self):
        beta, a1 = 0.2, 0.3
        prm = Params(a=1.0, beta=beta, a1=a1)
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
        prm = Params(a=1.0, beta=0.2, a1=0.3, eps=1e-2, centre=centre)
        y0 = np.array([0.0, 0.0, 1.2, 0.0])  # moves along the x-axis into C
        with pytest.raises(IntegrationError):
            integrate(y0, prm, 5.0, tol=1e-10)

    def test_centre_proximity_entry_events(self):
        # eps = 0: the orbit passes straight through the circle around C,
        # and the direction filter keeps the entry but not the exit
        prm = Params(a=1.0, beta=1.0 / 7.0, a1=0.2,
                     centre=CartesianPoint(0.0, 1.5))
        y0 = _energy_consistent_state(CartesianPoint(0.0, 1.2), (0, 1), prm)
        spec = CentreProximity(radius=0.1, direction=-1)
        traj = integrate(y0, prm, 0.3, tol=1e-11, events=[spec])
        hits = [e for e in traj.events if e.kind == "centre_proximity"]
        assert len(hits) == 1
        assert traj.tau_final == 0.3
        x, y = elliptic_to_xy(hits[0].state[0], hits[0].state[1], math)
        assert math.hypot(x, y - 1.5) == pytest.approx(0.1, abs=1e-9)

    def test_nonterminal_event_then_failure_raises(self, monkeypatch):
        beta, a1 = 0.2, 0.3
        prm = Params(a=1.0, beta=beta, a1=a1)
        t1 = period_xi(beta, a1)
        spec = XiCrossing(0.0, direction=-1)
        monkeypatch.setattr(dynamics, "MAX_STEPS", 1000)
        with pytest.raises(IntegrationError, match="budget"):
            integrate(separated_state(beta, a1), prm, 3.0 * t1, tol=1e-12,
                      events=[spec])

    def test_symplectic_cross_check(self):
        beta, a1 = 1.0 / 7.0, 0.3
        prm = Params(a=1.0, beta=beta, a1=a1)
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
        prm = Params(a=1.0, beta=beta, a1=a1)
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
    prm = Params(a=1.0, beta=0.2, a1=0.3)
    y0 = separated_state(0.2, 0.3)
    events = [PhiCrossing(1.0), PhiCrossing(2.5), XiCrossing(0.0)]
    return {end: integrate(y0, prm, end, events=events)
            for end in (5.0, -5.0)}


class TestRootOnScanPoint:
    """A root where g is exactly zero on a scan point flips no scan cell."""

    def test_crossing_value_taken_from_a_sample(self, spans):
        y0, prm = separated_state(0.2, 0.3), Params(beta=0.2, a1=0.3)
        v = spans[5.0].states[40, 0]
        taus = [round(e.tau, 12) for e in
                integrate(y0, prm, 5.0, events=[XiCrossing(v)]).events]
        assert taus == [1.015872104866, 1.832799704184]
        rising = integrate(y0, prm, 5.0, events=[XiCrossing(v, direction=1)])
        assert [round(e.tau, 12) for e in rising.events] == [1.015872104866]
        assert rising.events[0].state[0] == v
        falling = integrate(y0, prm, 5.0, events=[XiCrossing(v, direction=-1)])
        assert [round(e.tau, 12) for e in falling.events] == [1.832799704184]

    @given(end=st.sampled_from([5.0, -5.0]), where=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_every_sample_crossing_is_reported_once(self, spans, end, where):
        traj = spans[end]
        i = 1 + int(where * (len(traj.taus) - 3))
        assume(abs(traj.states[i, 2]) > 0.1)  # a crossing, not a turning point
        run = integrate(separated_state(0.2, 0.3), traj.params, end,
                        events=[XiCrossing(traj.states[i, 0])])
        near = [e.tau for e in run.events if abs(e.tau - traj.taus[i]) < 1e-6]
        assert len(near) == 1
        assert abs(near[0] - traj.taus[i]) <= 1e-11  # refinement tolerance


class TestExport(object):
    def test_csv_columns_and_json_events(self, tmp_path):
        beta, a1 = 0.2, 0.3
        prm = Params(a=1.0, beta=beta, a1=a1)
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
    return (y0, 0.0, tau_end_factor * span, 1e-12, 1e-12, 0.0, span,
            max_steps, 1.0, -2.0 * beta * sol.a1_hat, 0.0, 0.0, 0.0, 0.0)


def _centre_dive_args(r_min):
    """Straight fall along the x-axis into a centre at (cosh 0.4, 0)."""
    y0 = np.array([0.0, 0.0, 1.2, 0.0])
    return (y0, 0.0, 5.0, 1e-10, 1e-10, 0.0, 5.0, 2_000_000,
            1.0, -2.0 * 0.2 * 0.3, 1e-2, math.cosh(0.4), 0.0, r_min)


def _shooting_span_args(family, eps=1e-3, span=None):
    """eps > 0 over 90% of the reference arc, or over the given span:
    runs the step-cap branch."""
    arc = family[0]
    prm = arc.params
    y0 = arc.path.state_at(0.05 * arc.duration)
    span = 0.9 * arc.duration if span is None else span
    return (y0, 0.0, span, 1e-11, 1e-11, 0.0, span, 2_000_000,
            prm.a, prm.energy, eps, prm.centre.x, prm.centre.y, 0.01 * eps)


def _kernel_args(old):
    """The reference loop's argument tuple without the arguments that
    dopri5_core fixes: tau0 = 0, atol = rtol, h_init = 0, h_max = span."""
    y0, tau0, tau1, rtol, atol, h_init, h_max, *rest = old
    assert tau0 == 0.0 and atol == rtol and h_init == 0.0
    assert h_max == abs(tau1)
    return (y0, tau1, rtol, *rest)


class TestKernelOracle:
    """The float loop against the earlier numpy-indexed loop, exactly."""

    @pytest.mark.parametrize("case", ["bench_orbit", "negative_span",
                                      "shooting_span", "shooting_span_1e-2",
                                      "shooting_span_1e-4", "short_span",
                                      "zero_span", "exclusion_ball",
                                      "max_steps", "underflow"])
    def test_bitwise_equal_to_reference(self, case, q1_family):
        from dopri5_reference import _dopri5_core_py
        args, status = {
            "bench_orbit": lambda: (_bench_orbit_args(), _kernels.STATUS_OK),
            "negative_span": lambda: (_bench_orbit_args(tau_end_factor=-1.0),
                                      _kernels.STATUS_OK),
            "shooting_span": lambda: (_shooting_span_args(q1_family),
                                      _kernels.STATUS_OK),
            "shooting_span_1e-2": lambda: (
                _shooting_span_args(q1_family, eps=1e-2), _kernels.STATUS_OK),
            "shooting_span_1e-4": lambda: (
                _shooting_span_args(q1_family, eps=1e-4), _kernels.STATUS_OK),
            # shorter than the steps the controller would take
            "short_span": lambda: (_shooting_span_args(q1_family, span=1e-3),
                                   _kernels.STATUS_OK),
            "zero_span": lambda: (_shooting_span_args(q1_family, span=0.0),
                                  _kernels.STATUS_OK),
            "exclusion_ball": lambda: (_centre_dive_args(1e-4),
                                       _kernels.STATUS_ENTERED_EXCLUSION_BALL),
            "max_steps": lambda: (_bench_orbit_args(max_steps=5),
                                  _kernels.STATUS_MAX_STEPS),
            "underflow": lambda: (_centre_dive_args(0.0),
                                  _kernels.STATUS_STEP_UNDERFLOW),
        }[case]()
        got = _kernels.dopri5_core(*_kernel_args(args))
        want = _dopri5_core_py(*args)
        assert got[0] == want[0] == status
        assert got[1] == want[1]
        for g, w in zip(got[2:5], want[2:5]):
            assert g.shape == w.shape
            assert g.dtype == np.float64 and g.flags.c_contiguous
            assert np.array_equal(g, w)

    def test_endpoint_against_scipy_dop853(self):
        from scipy.integrate import solve_ivp
        y0, _, span = _bench_orbit_args()[:3]
        prm = Params(a=1.0, beta=1.0 / 7.0,
                     a1=solve_resonant_a1(1.0 / 7.0, 1).a1_hat)
        traj = integrate(y0, prm, span, tol=1e-12)
        ref = solve_ivp(lambda t, y: field(y, prm), (0.0, span), y0,
                        method="DOP853", rtol=1e-13, atol=1e-13)
        assert ref.success
        assert np.max(np.abs(traj.states[-1] - ref.y[:, -1])) <= 2e-9


class TestStepStats:
    def test_counts_match_samples(self):
        prm = Params(a=1.0, beta=0.2, a1=0.3)
        traj = integrate(separated_state(0.2, 0.3), prm, 5.0, tol=1e-12)
        st = traj.stats
        assert st.accepted == len(traj.taus) - 1
        assert st.rhs_evals == 1 + 6 * (st.accepted + st.rejected)
        h = np.abs(np.diff(traj.taus))
        assert st.h_min == pytest.approx(h.min(), rel=1e-12)
        assert st.h_max == pytest.approx(h.max(), rel=1e-12)

    def test_zero_length_run_has_no_steps(self):
        prm = Params(a=1.0, beta=0.2, a1=0.3)
        traj = integrate(separated_state(0.2, 0.3), prm, 0.0, tol=1e-12)
        assert traj.stats == (0, 0, 0, 0.0, 0.0)


class TestIntegrationErrors:
    def test_step_budget_exhausted(self, monkeypatch):
        prm = Params(a=1.0, beta=0.2, a1=0.3)
        monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
        with pytest.raises(IntegrationError, match="step budget 5"):
            integrate(separated_state(0.2, 0.3), prm, 5.0, tol=1e-12)

    def test_step_underflow_without_exclusion_ball(self, monkeypatch):
        centre = CartesianPoint(math.cosh(0.4), 0.0)
        prm = Params(a=1.0, beta=0.2, a1=0.3, eps=1e-2, centre=centre)
        monkeypatch.setattr(dynamics, "EXCLUSION_RADIUS_FRAC", 0.0)
        with pytest.raises(IntegrationError, match="underflow"):
            integrate(np.array([0.0, 0.0, 1.2, 0.0]), prm, 5.0, tol=1e-10)
