"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are fixed here, not calibrated elsewhere.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import BETA_REF, primary_visit_times
from event_specs import XiCrossing
from test_special import elliptic_k_tanh_sinh
from tricentre.exclusion import (nondegeneracy_certificate,
                                 primary_collision_check,
                                 primary_collision_ratios, resonant_params)
from tricentre.chains import build_graph, count_periodic_chains, entropy_estimate
from tricentre.cli import main as cli_main
from tricentre.dynamics import Params, PhiCrossing, integrate
from tricentre.geometry import EllipticPoint
from tricentre.periods import (period_phi, period_xi, solve_resonant_a1,
                               turning_point_xi)
from tricentre.shadow import local_expansion_rate, shoot_segment
from tricentre.special import complete_elliptic_k

F = Fraction


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_01_elliptic_agm_vs_quadrature():
    oracle = elliptic_k_tanh_sinh(0.5)
    agm = complete_elliptic_k(0.5)
    assert abs(agm - oracle) <= 1e-10
    complete_elliptic_k(0.3)  # warm
    t0 = time.perf_counter()
    reps = 200
    for _ in range(reps):
        complete_elliptic_k(0.5)
    per_call = (time.perf_counter() - t0) / reps
    assert per_call < 1e-3
    _report(1, f"K(1/2) AGM vs defining-integral quadrature diff "
               f"{abs(agm - oracle):.2e} <= 1e-10; {per_call*1e6:.1f} us/call")


def test_02_period_formulas_vs_ode():
    # warm the compiled integrator outside the timed budget
    warm = Params(beta=0.1, a1=0.1)
    integrate(np.array([0.0, 0.3, 1.0, 1.0]), warm, 0.1, tol=1e-10)
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.05, 0.1, BETA_REF, 0.3, 0.5):
        for a1 in (0.1, 0.3, 0.5):
            prm = Params(beta=beta, a1=a1)
            t1 = period_xi(beta, a1)
            t2 = period_phi(beta, a1)
            phi0 = 0.3
            r = math.cosh(0.0) - beta * a1 - a1
            y0 = np.array([
                0.0, phi0, 2.0 * math.sqrt(r),
                2.0 * math.sqrt(beta * a1 * math.cos(phi0) ** 2 + a1)])
            span = 1.05 * max(t1, t2)
            traj = integrate(y0, prm, span, tol=1e-12,
                             events=[XiCrossing(0.0, direction=+1),
                                     PhiCrossing(phi0)])
            t1_num = next(e.tau for e in traj.events
                          if e.kind == "xi_crossing")
            t2_num = next(e.tau for e in traj.events
                          if e.kind == "phi_crossing")
            worst = max(worst, abs(t1_num - t1) / t1, abs(t2_num - t2) / t2)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    _report(2, f"5x3 grid: worst period mismatch {worst:.2e} <= 1e-8"
               f" in {elapsed:.2f}s < 10s")


def test_03_beta_zero_closed_forms():
    for a1 in (1.0 / 9.0, 0.25):
        assert abs(period_phi(0.0, a1)
                   - math.pi / math.sqrt(a1)) <= 1e-12
    limit = 4.0 / math.sqrt(2.0) * complete_elliptic_k(0.5)
    assert abs(period_xi(0.0, 1e-8, 1.0) - limit) <= 1e-6
    _report(3, "T2(0, a1) = pi/sqrt(a*a1) to 1e-12; T1 small-a1 limit to 1e-6")


def test_04_resonance_solver():
    qs = [F(1, 3), F(1, 2), F(1), F(2), F(3)]
    for beta in (0.0, BETA_REF):
        sols = [solve_resonant_a1(beta, q) for q in qs]
        vals = [s.a1_hat for s in sols]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(abs(s.residual) <= 1e-12 for s in sols)
        edge = 1.0 / (1.0 + beta)
        assert solve_resonant_a1(beta, F(1, 64)).a1_hat > 0.99 * edge
        assert solve_resonant_a1(beta, F(64)).a1_hat < 1e-3
    _report(4, "a1_hat strictly decreasing in q, |residual| <= 1e-12,"
               " endpoint trends confirmed at q = 1/64 and 64")


def test_05_arc_closure(q1_family, q2_family, q1_solution, q2_solution):
    for family, sol in ((q1_family, q1_solution), (q2_family, q2_solution)):
        m = sol.q.numerator
        n = sol.q.denominator
        t_full = m * sol.t1
        assert abs(m * sol.t1 - n * sol.t2) <= 1e-8 * t_full
        assert len(family) == 4
        for arc in family:
            assert arc.closure_error <= 1e-8
            assert abs(arc.duration - t_full) <= 1e-8 * t_full
    _report(5, "q in {1, 2} at (2/3 xi+, 0), beta = 1/7: all 8 arcs close"
               " to 1e-8 with duration m*T1 = n*T2 to 1e-8 relative")


def test_06_primary_visit_parity():
    # q = 1 (n odd): both primaries, half-period spacing
    times, phis, t_full = primary_visit_times(BETA_REF, 1)
    assert abs(times[0] - 0.5 * t_full) <= 1e-8 * t_full
    assert abs(times[1] - t_full) <= 1e-8 * t_full
    assert phis[0] == pytest.approx(math.pi) and phis[1] == pytest.approx(0.0)
    # q = 2 = 2/1 (n odd): both primaries
    times, phis, t_full = primary_visit_times(BETA_REF, 2)
    assert abs(times[0] - 0.5 * t_full) <= 1e-8 * t_full
    assert phis[0] == pytest.approx(math.pi)
    # q = 1/2 (n even): one primary, twice per period
    times, phis, t_full = primary_visit_times(BETA_REF, F(1, 2))
    assert abs(times[0] - 0.5 * t_full) <= 1e-8 * t_full
    assert abs(times[1] - t_full) <= 1e-8 * t_full
    assert np.allclose(phis[:2], 0.0)
    _report(6, "primary-visit parity verified for q = 1, 2, 1/2"
               " with 1e-8 time tolerance")


def test_07_ratio_set_and_safety():
    assert primary_collision_ratios(1) == {F(-1, 2), F(0), F(1, 2), F(1)}
    # axis positions are safe at small beta
    beta = 1e-3
    prm, _ = resonant_params(EllipticPoint(0.0, 2.0), 1, beta)
    assert primary_collision_check(prm).safe
    sol = solve_resonant_a1(beta, 1)
    xi_p = turning_point_xi(beta, sol.a1_hat)
    prm, _ = resonant_params(EllipticPoint(0.4 * xi_p, math.pi / 2), 1, beta)
    assert primary_collision_check(prm).safe
    # positive control: sample the orbit seeded at a primary
    solr = solve_resonant_a1(BETA_REF, 1)
    prm0 = Params(beta=BETA_REF, a1=solr.a1_hat, q=F(1))
    vxi = 2.0 * math.sqrt(1.0 - BETA_REF * solr.a1_hat - solr.a1_hat)
    vphi = 2.0 * math.sqrt(BETA_REF * solr.a1_hat + solr.a1_hat)
    traj = integrate(np.array([0.0, 0.0, vxi, vphi]), prm0, 0.8 * solr.t1,
                     tol=1e-12)
    worst = 0.0
    for frac in (0.3, 0.55, 0.7):
        y = traj.state_at(frac * 0.8 * solr.t1)
        prm, _ = resonant_params(EllipticPoint(float(y[0]), float(y[1])),
                                 1, BETA_REF)
        report = primary_collision_check(prm)
        worst = max(worst, report.min_separation)
    assert worst <= 1e-8
    _report(7, f"S(1) exact; axis positions safe; positive-control ratios"
               f" within {worst:.1e} of S")


def test_08_nondegeneracy():
    for beta in (0.0, 1.0 / 14.0, BETA_REF):
        for q in (1, 2):
            cert = nondegeneracy_certificate(beta, q)
            assert abs(cert.det_normalized) > 1e-6
    _report(8, "row-normalized |det| > 1e-6 on {0, 1/14, 1/7} x {1, 2}")


def test_09_symbolic_dynamics(q1_family, yaxis_family):
    g_i = build_graph(q1_family)
    for n in range(1, 13):
        expect = 2 ** (n + 1) if n % 2 == 0 else 0
        assert count_periodic_chains(g_i, n) == expect
    g_ii = build_graph(yaxis_family)
    for n in range(1, 13):
        assert count_periodic_chains(g_ii, n) == 2 ** (n + 1)
    for g in (g_i, g_ii):
        assert abs(entropy_estimate(g) - math.log(2.0)) <= 1e-9
    _report(9, "exact periodic-chain counts to n = 12 and entropy"
               " log 2 +- 1e-9 for both alphabet cases")


def test_10_shadow_scaling(q1_family):
    t0 = time.perf_counter()
    arc = q1_family[0]
    eps_values = (1e-2, 1e-3, 1e-4)
    results = {}
    for eps in eps_values:
        res = shoot_segment(arc, eps)
        assert res.converged
        results[eps] = res
    devs = [results[e].max_deviation for e in eps_values]
    assert devs[0] > devs[1] > devs[2]  # shrinks monotonically with eps
    slope = np.polyfit(np.log(eps_values), np.log(devs), 1)[0]
    assert 0.7 <= slope <= 1.3
    ratios = [results[e].min_c_distance / e for e in eps_values]
    assert min(ratios) >= 1.0
    rates = [local_expansion_rate([results[e], results[e]], e)
             for e in eps_values]
    assert rates[0] < rates[1] < rates[2]  # grows as eps decreases
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(10, f"deviation slope {slope:.3f} in [0.7, 1.3];"
                f" min dist/eps >= {min(ratios):.1f};"
                f" expansion rates {['%.2f' % r for r in rates]} increasing;"
                f" {elapsed:.1f}s < 300s")


def test_11_figure_data(tmp_path, capsys):
    rc = cli_main(["figs", "1", "--out", str(tmp_path), "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    import json
    doc = json.loads(out)
    # locate the minimum as the bisected root of the potential slope
    # (value-based minimization cannot beat sqrt(eps) on a flat minimum)
    energy = doc["energy"]

    def slope(xi):  # unit primary intensity
        return 2.0 * math.sinh(xi) * (abs(energy) * math.cosh(xi) - 1.0)

    lo, hi = 0.5, 2.5
    assert slope(lo) < 0.0 < slope(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    xi_star = 0.5 * (lo + hi)
    assert abs(math.cosh(xi_star) - 2.0) <= 1e-10
    assert abs(doc["cosh_minima"] - 2.0) <= 1e-10
    # the emitted curve's discrete minimum sits on the same well
    csv_rows = (tmp_path / doc["csv"]).read_text().splitlines()[1:]
    data = np.array([[float(v) for v in row.split(",")] for row in csv_rows])
    i_min = int(np.argmin(data[np.abs(data[:, 0] - xi_star) < 1.0, 1]))
    xi_grid = data[np.abs(data[:, 0] - xi_star) < 1.0, 0]
    assert abs(xi_grid[i_min] - xi_star) <= 2.0 * (xi_grid[1] - xi_grid[0])
    rc = cli_main(["figs", "3", "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    n_orbit = len(list(tmp_path.glob("fig3_*_orbit_*.csv")))
    n_coll = len(list(tmp_path.glob("fig3_*_colliding_*.csv")))
    assert (n_orbit, n_coll) == (18, 2)
    _report(11, "potential minima at cosh(xi) = 2 within 1e-10;"
                " family portrait emits 18 + 2 orbit files")
