import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arc_reference
from conftest import BETA_REF, direct_arcs, primary_visit_times
from quadrature_reference import adaptive_quadrature
from tricentre import exclusion, special
from tricentre.arcs import am, arc_family, build_arc, initial_velocities
from tricentre.exclusion import (find_admissible_beta,
                                 nondegeneracy_certificate,
                                 primary_collision_check,
                                 primary_collision_ratios, resonant_params)
from tricentre.dynamics import Params, integrate
from tricentre.errors import (AccuracyError, DomainError, PlacementError,
                             UnsafeCentreError)
from tricentre.figdata import orbit_family_portrait
from tricentre.geometry import EllipticPoint, elliptic_to_cartesian
from tricentre.periods import period_xi, solve_resonant_a1, turning_point_xi

F = Fraction


def _support(arc, n=800):
    _, s = arc.path.dense_grid(n)
    return np.column_stack([np.cosh(s[:, 0]) * np.cos(s[:, 1]),
                            np.sinh(s[:, 0]) * np.sin(s[:, 1])])


def _one_sided_hausdorff(a, b):
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(max(np.max(np.min(d2, axis=1)),
                             np.max(np.min(d2, axis=0)))))


def _unit(v):
    return v / np.hypot(*v)


def _assert_matches_integrated(arc, ref):
    """A closed-form arc against the DOPRI5 reference arc: the same label
    and early_collision, duration within 1e-10*T, states on 2,000 points
    within 1e-8, and unit Cartesian velocities at both ends within 1e-9."""
    assert arc.label == ref.label
    assert arc.early_collision == ref.early_collision
    assert abs(arc.duration - ref.duration) <= 1e-10 * ref.duration
    taus = np.linspace(0.0, min(arc.duration, ref.duration), 2000)
    assert np.max(np.abs(arc.path.state_at(taus)
                         - ref.path.state_at(taus))) <= 1e-8
    for got, want in ((arc.v0_cartesian, ref.v0_cartesian),
                      (arc.vT_cartesian, ref.vT_cartesian)):
        assert np.max(np.abs(_unit(got) - _unit(want))) <= 1e-9


class TestInitialVelocities:
    def test_on_axis_between_primaries(self):
        beta, a1 = 0.2, 0.3
        vxi, _ = initial_velocities(EllipticPoint(0.0, 1.0), beta, a1, 1.0)
        assert vxi == pytest.approx(2.0 * math.sqrt(1.0 - a1 * (1.0 + beta)),
                                    rel=1e-14)

    def test_on_y_axis(self):
        beta, a1 = 0.2, 0.3
        _, vphi = initial_velocities(EllipticPoint(0.7, math.pi / 2.0),
                                     beta, a1, 1.0)
        assert vphi == pytest.approx(2.0 * math.sqrt(a1), rel=1e-14)

    def test_turning_point_rejected(self):
        beta, a1 = 0.2, 0.3
        xi_p = turning_point_xi(beta, a1)
        with pytest.raises(PlacementError):
            initial_velocities(EllipticPoint(xi_p, 0.5), beta, a1, 1.0)


class TestBuildArc:
    def test_generic_full_period(self, q1_family, q1_solution):
        t_full = q1_solution.t1  # m = n = 1
        for arc in q1_family:
            assert not arc.early_collision
            assert arc.duration == pytest.approx(t_full, rel=1e-8)
            assert arc.closure_error <= 1e-8
            assert arc.min_primary_distance > 0.1

    def test_early_collision_on_y_axis(self, yaxis_family, q1_solution):
        t_full = q1_solution.t1
        for arc in yaxis_family:
            assert arc.early_collision
            assert arc.duration == pytest.approx(0.5 * t_full, rel=1e-8)
            assert arc.closure_error <= 1e-8

    def test_early_family_shares_support(self, yaxis_direct):
        # the two xi'-sign choices at fixed rotation sense trace the same
        # Cartesian point set (autointersecting unique orbit); each arc is
        # integrated on its own, not derived from the other by reversal
        by_label = {arc.label: arc for arc in yaxis_direct}
        a = _support(by_label[(F(1), 1, 1)])
        b = _support(by_label[(F(1), -1, 1)])
        assert _one_sided_hausdorff(a, b) <= 1e-2

    def test_reversal_same_support_transverse_pair_distinct(self, q1_direct):
        # full velocity reversal retraces one orbit; the transverse pair is
        # a genuinely different curve.  Every arc is integrated on its own.
        tracks = [_support(arc) for arc in q1_direct]
        # ordering: (+,+), (-,-), (+,-), (-,+)
        assert _one_sided_hausdorff(tracks[0], tracks[1]) <= 1e-2
        assert _one_sided_hausdorff(tracks[2], tracks[3]) <= 1e-2
        assert _one_sided_hausdorff(tracks[0], tracks[2]) > 1.0

    def test_no_interior_centre_passage(self, q1_family):
        for arc in q1_family:
            taus, states = arc.path.dense_grid(2000)
            x = np.cosh(states[:, 0]) * np.cos(states[:, 1])
            y = np.sinh(states[:, 0]) * np.sin(states[:, 1])
            d = np.hypot(x - arc.params.centre.x, y - arc.params.centre.y)
            interior = (taus > 0.02 * arc.duration) \
            	 & (taus < 0.98 * arc.duration)
            assert np.min(d[interior]) > 1e-3

    def test_half_period_mirror_symmetry(self, q1_family):
        # q = 1 paths map (x, y) -> (-x, y) under a half-period shift
        arc = q1_family[0]
        taus, states = arc.path.dense_grid(512)
        half = 0.5 * arc.duration
        inside = taus <= half
        shifted = arc.path.state_at(taus[inside] + half)
        x0 = np.cosh(states[inside, 0]) * np.cos(states[inside, 1])
        y0 = np.sinh(states[inside, 0]) * np.sin(states[inside, 1])
        x1 = np.cosh(shifted[:, 0]) * np.cos(shifted[:, 1])
        y1 = np.sinh(shifted[:, 0]) * np.sin(shifted[:, 1])
        assert np.max(np.abs(x1 + x0)) <= 1e-8
        assert np.max(np.abs(y1 - y0)) <= 1e-8

    def test_nonresonant_params_rejected(self):
        prm = Params(a=1.0, beta=0.2, a1=0.3, q=F(1),
                     centre=elliptic_to_cartesian(EllipticPoint(0.5, 0.0)))
        with pytest.raises(DomainError):
            build_arc(prm, 1, 1)

    @pytest.mark.parametrize("q", [F(1, 2), F(3, 2), F(2, 3)])
    def test_fractional_classes_close(self, q):
        # multi-revolution returns: n > 1 or m > 1 in lowest terms
        sol = solve_resonant_a1(BETA_REF, q)
        xi_p = turning_point_xi(BETA_REF, sol.a1_hat)
        prm, _ = resonant_params(EllipticPoint(0.55 * xi_p, 0.9), q, BETA_REF)
        arc = build_arc(prm, 1, 1)
        t_full = sol.full_period
        assert not arc.early_collision
        assert arc.duration == pytest.approx(t_full, rel=1e-8)
        assert arc.closure_error <= 1e-8


class TestRatioSet:
    def test_class_one(self):
        assert primary_collision_ratios(1) == {F(-1, 2), F(0), F(1, 2), F(1)}

    def test_class_two(self):
        # j/2 - i*q for i < 1/2 plus j/2 -+ q(i' +- 1/2) for i' < 1
        expect = {F(0), F(1, 2), F(1),
                  F(-1), F(-1, 2), F(3, 2), F(2)}
        assert primary_collision_ratios(2) == expect

    def test_class_half(self):
        s = primary_collision_ratios(F(1, 2))
        assert F(0) in s and F(1, 4) in s

    def test_finite_size_bound(self):
        for q in (F(1), F(2), F(1, 2), F(3, 5), F(7, 3)):
            m, n = q.numerator, q.denominator
            bound = (math.ceil(n / 2) + n + 1) * (m + 1) * 2
            assert len(primary_collision_ratios(q)) <= bound


class TestPrimaryCollisionCheck:
    def test_axis_centre_between_primaries_safe(self):
        beta = 1e-3
        prm, _ = resonant_params(EllipticPoint(0.0, 2.0), 1, beta)
        report = primary_collision_check(prm)
        assert report.safe
        assert report.g_plus == pytest.approx(report.g_minus, abs=1e-12)

    def test_y_axis_centre_safe(self):
        beta = 1e-3
        sol = solve_resonant_a1(beta, 1)
        xi_p = turning_point_xi(beta, sol.a1_hat)
        prm, _ = resonant_params(EllipticPoint(0.3 * xi_p, math.pi / 2.0),
                                 1, beta)
        assert primary_collision_check(prm).safe

    def test_positive_control_on_colliding_orbit(self):
        # points sampled from the orbit seeded at a primary must land in S
        beta = BETA_REF
        sol = solve_resonant_a1(beta, 1)
        prm0 = Params(a=1.0, beta=beta, a1=sol.a1_hat, q=F(1))
        vxi = 2.0 * math.sqrt(1.0 - beta * sol.a1_hat - sol.a1_hat)
        vphi = 2.0 * math.sqrt(beta * sol.a1_hat + sol.a1_hat)
        traj = integrate(np.array([0.0, 0.0, vxi, vphi]), prm0,
                         0.8 * sol.t1, tol=1e-12)
        for frac in (0.23, 0.41, 0.57):
            y = traj.state_at(frac * 0.8 * sol.t1)
            centre = EllipticPoint(float(y[0]), float(y[1]))
            prm, _ = resonant_params(centre, 1, beta)
            report = primary_collision_check(prm)
            assert not report.safe
            assert report.min_separation <= 1e-9

    def test_unsafe_centre_refused_by_family(self):
        beta = BETA_REF
        sol = solve_resonant_a1(beta, 1)
        prm0 = Params(a=1.0, beta=beta, a1=sol.a1_hat, q=F(1))
        vxi = 2.0 * math.sqrt(1.0 - beta * sol.a1_hat - sol.a1_hat)
        vphi = 2.0 * math.sqrt(beta * sol.a1_hat + sol.a1_hat)
        traj = integrate(np.array([0.0, 0.0, vxi, vphi]), prm0,
                         0.5 * sol.t1, tol=1e-12)
        y = traj.state_at(0.31 * 0.5 * sol.t1)
        prm, _ = resonant_params(EllipticPoint(float(y[0]), float(y[1])),
                                 1, beta)
        with pytest.raises(UnsafeCentreError):
            arc_family(prm)


class TestParity:
    def test_class_one_visits_both_primaries(self):
        times, phis, t_full = primary_visit_times(BETA_REF, 1)
        assert len(times) >= 2
        # half-period spacing, alternating primaries
        assert times[0] == pytest.approx(0.5 * t_full, rel=1e-8)
        assert times[1] == pytest.approx(t_full, rel=1e-8)
        assert phis[0] == pytest.approx(math.pi)
        assert phis[1] == pytest.approx(0.0)

    def test_class_two_visits_both(self):
        times, phis, t_full = primary_visit_times(BETA_REF, 2)
        assert times[0] == pytest.approx(0.5 * t_full, rel=1e-8)
        assert phis[0] == pytest.approx(math.pi)

    def test_class_half_revisits_one(self):
        times, phis, t_full = primary_visit_times(BETA_REF, F(1, 2))
        assert times[0] == pytest.approx(0.5 * t_full, rel=1e-8)
        assert times[1] == pytest.approx(t_full, rel=1e-8)
        # n even: always the same primary (phi = 0 mod 2pi)
        assert np.allclose(phis[:2], 0.0)


class TestNondegeneracy:
    def test_beta_zero_positive_determinant(self):
        cert = nondegeneracy_certificate(0.0, 1)
        # second row is (-2a*a1, 0): det = 2a*a1 * dF/da1 > 0
        assert cert.det_j > 0.0
        assert cert.passed

    def test_normalization_bounded(self):
        cert = nondegeneracy_certificate(BETA_REF, 1)
        assert abs(cert.det_normalized) <= 2.0  # rows scaled to unit max-entry
        assert abs(cert.det_normalized) > 1e-6

    def test_reference_grid(self):
        for beta in (0.0, 1.0 / 14.0, BETA_REF):
            for q in (1, 2):
                assert nondegeneracy_certificate(beta, q).passed


class TestFamilies:
    def test_four_arcs_two_transverse_pairs(self, q1_family):
        assert len(q1_family) == 4
        dirs = [arc.v0_cartesian / np.hypot(*arc.v0_cartesian)
                for arc in q1_family]
        # ordering (+,+), (-,-), (+,-), (-,+): first pair anti-parallel,
        # second pair anti-parallel, pairs mutually transverse
        assert np.allclose(dirs[0], -dirs[1], atol=1e-12)
        assert np.allclose(dirs[2], -dirs[3], atol=1e-12)
        cross = abs(dirs[0][0] * dirs[2][1] - dirs[0][1] * dirs[2][0])
        assert cross > 1e-3

    def test_reversal_partner_exists(self, q1_direct):
        # on independently integrated arcs, not on a family whose arcs are
        # reversals of each other by construction
        for arc in q1_direct:
            v_rev = -arc.vT_cartesian
            matches = [
                other for other in q1_direct
                if np.allclose(
                    other.v0_cartesian / np.hypot(*other.v0_cartesian),
                    v_rev / np.hypot(*v_rev), atol=1e-9)
            ]
            assert len(matches) == 1
            assert matches[0].duration == pytest.approx(arc.duration, rel=1e-9)

    @pytest.mark.parametrize("name", ["q1_family", "q2_family",
                                      "yaxis_family", "q3_2_family"])
    def test_derived_arcs_match_direct_integration(self, name, request):
        # every arc of a family comes from the closed form; each agrees with
        # its own DOPRI5 integration by the reference builder
        family = request.getfixturevalue(name)
        assert [(arc.label.sign, arc.label.direction) for arc in family] \
            == [(1, 1), (-1, -1), (1, -1), (-1, 1)]
        for arc, ref in zip(family, direct_arcs(family)):
            _assert_matches_integrated(arc, ref)
            assert arc.closure_error <= 1e-9

    def test_admissible_beta_halving(self):
        beta = find_admissible_beta(EllipticPoint(0.6, 0.4), 1,
                                    beta_start=0.5)
        assert 0.0 < beta <= 0.5
        prm, sol = resonant_params(EllipticPoint(0.6, 0.4), 1, beta)
        assert primary_collision_check(prm).safe

    def test_no_admissible_beta_for_segment_limit_point(self):
        # phi0 nearly at the far primary keeps the angular ratio pinned to
        # 1/2 for every beta, so halving can never succeed
        from tricentre.errors import RangeError
        centre = EllipticPoint(0.0, math.pi - 1e-9)
        with pytest.raises(RangeError):
            find_admissible_beta(centre, 1, beta_start=0.5)

    def test_grazing_arc_contradicts_safety_verdict(self, monkeypatch):
        # if a built path grazes a primary despite a safe verdict, the
        # family builder must flag the inconsistency
        import tricentre.arcs as arcs_mod
        from tricentre.errors import StructuralError
        prm, _ = resonant_params(EllipticPoint(2.58, 0.0), 1, BETA_REF)
        real_build = arcs_mod.build_arc

        def grazing(prm, s, d):
            arc = real_build(prm, s, d)
            arc.min_primary_distance = 1e-9
            return arc

        monkeypatch.setattr(arcs_mod, "build_arc", grazing)
        with pytest.raises(StructuralError):
            arc_family(prm)


class TestClosedForm:
    """Closed-form arcs and the Jacobi amplitude behind them."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(beta=st.floats(0.02, 0.5),
           q=st.sampled_from((F(1), F(2), F(1, 2), F(3, 2), F(2, 3))),
           u=st.floats(0.02, 0.9),
           phi0=st.one_of(st.sampled_from((0.0, math.pi, math.pi / 2.0)),
                          st.floats(0.0, 2.0 * math.pi)),
           sign=st.sampled_from((1, -1)), direction=st.sampled_from((1, -1)))
    def test_matches_integrated_reference(self, beta, q, u, phi0, sign,
                                          direction):
        sol = solve_resonant_a1(beta, q)
        xi_p = turning_point_xi(beta, sol.a1_hat)
        prm, _ = resonant_params(EllipticPoint(u * xi_p, phi0), q, beta)
        assume(primary_collision_check(prm).safe)
        _assert_matches_integrated(
            build_arc(prm, sign, direction),
            arc_reference.build_arc(prm, sign, direction))

    @pytest.mark.parametrize("m", [0.05 * k for k in range(20)]
                             + [0.99, 1.0 - 1e-6])
    def test_jacobi_functions_match_scipy(self, m):
        from scipy.special import ellipj
        u = np.linspace(-30.0, 30.0, 6001)
        sn, cn, dn, ph = ellipj(u, m)
        theta = am(u, m)
        assert np.max(np.abs(theta - ph)) <= 1e-14
        assert np.max(np.abs(np.sin(theta) - sn)) <= 2e-13
        assert np.max(np.abs(np.cos(theta) - cn)) <= 2e-13
        assert np.max(np.abs(np.sqrt(1.0 - m * np.sin(theta) ** 2) - dn)) \
            <= 2e-13

    def test_amplitude_of_modulus_zero_is_the_argument(self):
        u = np.array([-30.0, -1e-300, 0.0, 0.3, 29.5])
        assert am(u, 0.0).tobytes() == u.tobytes()
        assert am(0.7, 0.0) == 0.7


class TestClosedFormEdges:
    """Edges of the closed form; the suite turns RuntimeWarnings into
    errors, and so do these tests on their own."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_colliding_pair_starts_at_the_primary(self):
        sol = solve_resonant_a1(BETA_REF, 1)
        vxi, vphi = initial_velocities(EllipticPoint(0.0, 0.0), BETA_REF,
                                       sol.a1_hat)
        tracks = [t for t in orbit_family_portrait() if t.colliding]
        assert [t.name for t in tracks] == ["colliding_0", "colliding_1"]
        for track, sign in zip(tracks, (1, -1)):
            assert np.all(np.isfinite(track.states))
            assert np.allclose(track.states[0], [0.0, 0.0, sign * vxi, vphi],
                               rtol=0.0, atol=1e-14)
            assert math.hypot(track.x[0] - 1.0, track.y[0]) <= 1e-14

    def test_centre_next_to_the_turning_ellipse(self):
        sol = solve_resonant_a1(BETA_REF, 1)
        xi_p = turning_point_xi(BETA_REF, sol.a1_hat)
        prm, _ = resonant_params(EllipticPoint(0.999 * xi_p, 0.4), 1, BETA_REF)
        for sign, direction in ((1, 1), (-1, 1)):
            arc = build_arc(prm, sign, direction)
            _assert_matches_integrated(
                arc, arc_reference.build_arc(prm, sign, direction))
            assert arc.closure_error <= 1e-9
            _, states = arc.path.dense_grid(4096)
            assert np.max(np.abs(states[:, 0])) <= xi_p

    def test_beta_zero(self):
        # u+ = 1: the xi motion has no turning point and the eps = 0 orbit
        # passes through infinity, so no path is built at beta = 0
        prm, _ = resonant_params(EllipticPoint(0.5, 0.7), 1, 0.0)
        # the closed-form check runs and passes, so arc_family gets to a path
        assert primary_collision_check(prm).safe
        message = "no finite turning point"
        with pytest.raises(DomainError, match=message):
            build_arc(prm, 1, 1)
        with pytest.raises(DomainError, match=message):
            arc_family(prm)
        with pytest.raises(DomainError, match=message):
            orbit_family_portrait(beta=0.0)


# ---------------------------------------------------------------------------
# exclusion test against a straightforward scan

EXCLUSION_CLASSES = (F(1), F(2), F(3), F(1, 2), F(3, 2))


def _reference_check(prm, delta=1e-4, quad_tol=1e-12):
    """The exclusion test written out directly: adaptive quadrature of the
    two travel-time integrands (how `primary_collision_check` computed them
    before the closed form), and a scan over a freshly built ratio set in
    its iteration order, converting each element with float(s)."""
    beta, a1, a = prm.beta, prm.a1, prm.a
    centre = prm.centre_elliptic
    xi0, phi0 = centre.xi, centre.phi

    def phi_integrand(phi):
        return 1.0 / math.sqrt(beta * a1 * math.cos(phi) ** 2 + a1)

    def xi_integrand(xi):
        r = math.cosh(xi) - beta * a1 * math.cosh(xi) ** 2 - a1
        if r <= 0.0:
            raise AccuracyError("singular")
        return 1.0 / math.sqrt(r)

    pref = 0.5 / math.sqrt(a)
    p_val = pref * adaptive_quadrature(phi_integrand, 0.0, phi0, quad_tol).value
    q_val = pref * adaptive_quadrature(xi_integrand, 0.0, xi0, quad_tol).value
    t1 = period_xi(beta, a1, a)
    g_plus = (p_val + q_val) / t1
    g_minus = (p_val - q_val) / t1
    best, nearest = math.inf, F(0)
    for s in primary_collision_ratios.__wrapped__(prm.q):  # uncached build
        for g in (g_plus, g_minus):
            d = abs(g - float(s))
            if d < best:
                best, nearest = d, s
    return g_plus, g_minus, best > delta, best, nearest


def _assert_matches_reference(report, prm, tol):
    """G+- and the separation within tol of the quadrature oracle; the
    verdict and the nearest element equal to its own."""
    g_plus, g_minus, safe, best, nearest = _reference_check(prm)
    assert abs(report.g_plus - g_plus) <= tol
    assert abs(report.g_minus - g_minus) <= tol
    assert abs(report.min_separation - best) <= tol
    assert (report.safe, report.nearest) == (safe, nearest)


def _centre_params(q, beta, u, phi0):
    sol = solve_resonant_a1(beta, q)
    xi0 = u * turning_point_xi(beta, sol.a1_hat)
    prm, _ = resonant_params(EllipticPoint(xi0, phi0), q, beta)
    return prm


def _mpmath_ratios(prm):
    """G+- from 40-digit quadrature of the defining integrals and a
    40-digit T1, at the exact float parameters of prm."""
    import mpmath
    with mpmath.workdps(40):
        beta, a1, a = (mpmath.mpf(v) for v in (prm.beta, prm.a1, prm.a))
        centre = prm.centre_elliptic
        xi0, phi0 = mpmath.mpf(centre.xi), mpmath.mpf(centre.phi)
        p_val = mpmath.quad(
            lambda p: 1 / mpmath.sqrt(beta * a1 * mpmath.cos(p) ** 2 + a1),
            mpmath.linspace(0, phi0, 5))
        q_val = mpmath.quad(
            lambda x: 1 / mpmath.sqrt(mpmath.cosh(x)
                                      - beta * a1 * mpmath.cosh(x) ** 2 - a1),
            [0, xi0])
        disc = 1 - 4 * beta * a1 * a1
        k1sq = (a1 * (1 - beta) + mpmath.sqrt(disc)) / (2 * mpmath.sqrt(disc))
        t1 = 2 * mpmath.sqrt(2 / a) / disc ** mpmath.mpf(0.25) * mpmath.ellipk(k1sq)
        pref = 1 / (2 * mpmath.sqrt(a))
        return (float(pref * (p_val + q_val) / t1),
                float(pref * (p_val - q_val) / t1))


class TestExclusionOracle:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(q=st.sampled_from(EXCLUSION_CLASSES),
           beta=st.sampled_from((0.05, BETA_REF, 0.25)),
           u=st.floats(0.02, 0.9),
           phi0=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
    def test_matches_reference_scan(self, q, beta, u, phi0):
        prm = _centre_params(q, beta, u, phi0)
        _assert_matches_reference(primary_collision_check(prm), prm, 1e-13)

    @pytest.mark.parametrize("q", [F(1, 2), F(3, 2)], ids=str)
    def test_axis_tie_keeps_first_minimum(self, q):
        # phi0 = 0: G- = -G+, so s and -s lie at exactly the same distance
        prm = _centre_params(q, BETA_REF, 0.5, 0.0)
        report = primary_collision_check(prm)
        assert report.g_minus == -report.g_plus
        mirror = -report.nearest
        assert report.nearest != 0 and mirror in primary_collision_ratios(q)
        assert min(abs(report.g_plus - float(mirror)),
                   abs(report.g_minus - float(mirror))) == report.min_separation
        _assert_matches_reference(report, prm, 1e-13)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(q=st.sampled_from(EXCLUSION_CLASSES),
           beta=st.sampled_from((0.05, BETA_REF, 0.25, 0.6)),
           u=st.floats(0.02, 0.999),
           phi0=st.floats(-math.pi, math.pi))
    def test_closed_form_matches_mpmath(self, q, beta, u, phi0):
        prm = _centre_params(q, beta, u, phi0)
        report = primary_collision_check(prm)
        g_plus, g_minus = _mpmath_ratios(prm)
        assert abs(report.g_plus - g_plus) <= 5e-15
        assert abs(report.g_minus - g_minus) <= 5e-15

    # a1 within two ulps of 1/(1+beta): u- rounds to 0 on both, and k1^2
    # to 1 on the first, so there is no xi travel time
    @pytest.mark.parametrize("beta, a1", [
        (0.2548139567136823, 0.7969308873635483),
        (0.6168350679456506, 0.6184922753256454)])
    @pytest.mark.parametrize("xi0", [0.3, 9.0], ids=["inside", "beyond"])
    def test_separatrix_by_rounding_is_a_domain_error(self, beta, a1, xi0):
        prm = Params(beta=beta, a1=a1,
                     centre=elliptic_to_cartesian(EllipticPoint(xi0, 0.7)))
        with pytest.raises(DomainError, match="separatrix"):
            primary_collision_check(prm)

    def test_beyond_turning_ellipse_has_no_travel_time(self):
        with pytest.raises(PlacementError, match="beyond the turning ellipse"):
            primary_collision_check(_centre_params(F(1), BETA_REF, 1.01, 0.7))
        report = primary_collision_check(
            _centre_params(F(1), BETA_REF, 1.0 - 1e-9, 0.7))
        assert math.isfinite(report.g_plus) and math.isfinite(report.g_minus)


class TestRatioSetCache:
    @pytest.mark.parametrize("q", [F(1), F(2), F(3), F(1, 2), F(3, 2), F(7, 3),
                                   F(1, 64)], ids=str)
    def test_same_set_as_enumeration(self, q):
        m, n = q.numerator, q.denominator
        half = F(1, 2)
        expect = {F(j, 2) - i * q for j in range(m + 1)
                  for i in range(n) if 2 * i < n}
        expect |= {F(j, 2) - q * (ip + sign * half) for j in range(m + 1)
                   for ip in range(n + 1) if 2 * ip < n + 1
                   for sign in (1, -1)}
        assert primary_collision_ratios(q) == expect
        assert primary_collision_ratios(int(q) if n == 1 else q) == expect

    @pytest.mark.parametrize("q", EXCLUSION_CLASSES, ids=str)
    def test_cached_set_keeps_build_order(self, q):
        fresh = primary_collision_ratios.__wrapped__(q)
        assert list(primary_collision_ratios(q)) == list(fresh)
        values, entries = exclusion._ratio_table(q.numerator, q.denominator)
        assert values == sorted(values) == [float(s) for _, s in entries]
        assert [s for _, s in sorted(entries)] == list(fresh)

    def test_validates_on_every_call(self):
        for bad in (0, F(-1, 2), -3):
            for _ in range(2):
                with pytest.raises(DomainError):
                    primary_collision_ratios(bad)


def _scan_nearest(g_plus, g_minus, q):
    """The first minimum of |g - float(s)| over s in set order, G+ before
    G- for each s: the scan the sorted-table bisect replaces."""
    best, nearest = math.inf, F(0)
    for s in primary_collision_ratios(q):
        for g in (g_plus, g_minus):
            d = abs(g - float(s))
            if d < best:
                best, nearest = d, s
    return best, nearest


@st.composite
def _ratio_probes(draw):
    """A class and (G+, G-) at elements of S, at midpoints of neighbouring
    elements, beyond either end or anywhere between; G- may mirror G+
    about 0 or equal it."""
    q = draw(st.sampled_from(EXCLUSION_CLASSES + (F(7, 3), F(1, 64))))
    values = sorted(float(s) for s in primary_collision_ratios(q))
    span = values[-1] - values[0]

    def point():
        k = draw(st.integers(0, len(values) - 1))
        return draw(st.sampled_from((
            values[k],
            0.5 * (values[k] + values[min(k + 1, len(values) - 1)]),
            values[0] - draw(st.floats(0.0, span)),
            values[-1] + draw(st.floats(0.0, span)),
            draw(st.floats(values[0], values[-1])),
        )))

    g_plus = point()
    g_minus = draw(st.sampled_from((-g_plus, g_plus, point())))
    return q, g_plus, g_minus


class TestNearestRatio:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(probe=_ratio_probes())
    def test_bisect_equals_first_minimum_scan(self, probe):
        q, g_plus, g_minus = probe
        best, nearest = exclusion._nearest_ratio(g_plus, g_minus, q)
        want_best, want_nearest = _scan_nearest(g_plus, g_minus, q)
        assert repr(best) == repr(want_best)
        assert nearest == want_nearest

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(q=st.sampled_from(EXCLUSION_CLASSES),
           beta=st.sampled_from((0.05, BETA_REF, 0.25)),
           u=st.floats(0.02, 0.99),
           phi0=st.sampled_from((0.0, math.pi, 2.0)) | st.floats(-7.0, 7.0))
    def test_cold_caches_give_the_warm_report(self, q, beta, u, phi0):
        prm = _centre_params(q, beta, u, phi0)
        warm = primary_collision_check(prm)
        for cached in (exclusion._resonance_constants, exclusion._ratio_table,
                       special._quarter_period):
            cached.cache_clear()
        assert repr(primary_collision_check(prm)) == repr(warm)
