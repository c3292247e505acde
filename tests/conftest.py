import math
from fractions import Fraction

import numpy as np
import pytest

import arc_reference
from tricentre import _kernels
from tricentre.arcs import arc_family
from tricentre.exclusion import resonant_params
from tricentre.dynamics import PhiCrossing, Params, integrate
from tricentre.geometry import EllipticPoint
from tricentre.periods import solve_resonant_a1, turning_point_xi

BETA_REF = 1.0 / 7.0


@pytest.fixture(autouse=True)
def _fresh_solve_cache():
    """Every test starts with an empty resonance cache, so that call and
    cache counts do not depend on which tests ran before."""
    solve_resonant_a1.cache_clear()


@pytest.fixture
def field_calls(monkeypatch):
    """A list that grows by one on every call of a `_kernels.field` rhs."""
    calls = []
    real_field = _kernels.field

    def counting_field(*args):
        rhs = real_field(*args)

        def counted(*y):
            calls.append(1)
            return rhs(*y)
        return counted

    monkeypatch.setattr(_kernels, "field", counting_field)
    return calls


@pytest.fixture(scope="session")
def q1_solution():
    return solve_resonant_a1(BETA_REF, 1)


@pytest.fixture(scope="session")
def q2_solution():
    return solve_resonant_a1(BETA_REF, 2)


@pytest.fixture(scope="session")
def q1_family(q1_solution):
    """Four arcs through the off-axis reference centre (2/3 xi+, 0)."""
    xi_plus = turning_point_xi(BETA_REF, q1_solution.a1_hat)
    prm, _ = resonant_params(EllipticPoint(2.0 / 3.0 * xi_plus, 0.0), 1, BETA_REF)
    return arc_family(prm)


@pytest.fixture(scope="session")
def q2_family(q2_solution):
    xi_plus = turning_point_xi(BETA_REF, q2_solution.a1_hat)
    prm, _ = resonant_params(EllipticPoint(2.0 / 3.0 * xi_plus, 0.0), 2, BETA_REF)
    return arc_family(prm)


@pytest.fixture(scope="session")
def yaxis_family(q1_solution):
    """Early-collision family: centre on the y-axis (phi0 = pi/2)."""
    xi_plus = turning_point_xi(BETA_REF, q1_solution.a1_hat)
    prm, _ = resonant_params(EllipticPoint(0.5 * xi_plus, math.pi / 2.0), 1, BETA_REF)
    return arc_family(prm)


@pytest.fixture(scope="session")
def q3_2_family():
    """Fractional class q = 3/2 at the off-axis centre (0.55 xi+, 0.9)."""
    sol = solve_resonant_a1(BETA_REF, Fraction(3, 2))
    xi_plus = turning_point_xi(BETA_REF, sol.a1_hat)
    prm, _ = resonant_params(EllipticPoint(0.55 * xi_plus, 0.9),
                             Fraction(3, 2), BETA_REF)
    return arc_family(prm)


def direct_arcs(family, tol=1e-12):
    """Every arc of a family integrated on its own by the reference
    `arc_reference.build_arc` (DOP853 and a PhiCrossing return search),
    in order."""
    return [arc_reference.build_arc(arc.params, arc.label.sign,
                                    arc.label.direction, tol=tol)
            for arc in family]


@pytest.fixture(scope="session")
def q1_direct(q1_family):
    return direct_arcs(q1_family)


@pytest.fixture(scope="session")
def yaxis_direct(yaxis_family):
    return direct_arcs(yaxis_family)


def primary_visit_times(beta, q, n_periods=1.5):
    """Times and angles of primary passages for the orbit seeded at (0, 0).

    Returns (times, phis, full_period): event times where the orbit sits at
    a primary (|xi| below tolerance at a phi = 0 or pi crossing).
    """
    q = Fraction(q)
    sol = solve_resonant_a1(beta, q)
    t_full = sol.q.numerator * sol.t1
    prm = Params(beta=beta, a1=sol.a1_hat, q=q)
    xi_speed = 2.0 * math.sqrt(1.0 - beta * sol.a1_hat - sol.a1_hat)
    phi_speed = 2.0 * math.sqrt(beta * sol.a1_hat + sol.a1_hat)
    y0 = np.array([0.0, 0.0, xi_speed, phi_speed])
    events = [PhiCrossing(0.0), PhiCrossing(math.pi)]
    traj = integrate(y0, prm, n_periods * t_full, tol=1e-12, events=events)
    times, phis = [], []
    for ev in traj.events:
        if abs(ev.state[0]) < 1e-6 and ev.tau > 1e-9:
            times.append(ev.tau)
            phis.append(ev.spec.value)
    return np.array(times), np.array(phis), t_full
