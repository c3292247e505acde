import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import approach_reference
import arc_reference
import exclusion_reference
import figdata_reference
import first_return_reference
import nondegeneracy_reference
from conftest import BETA_REF, direct_arcs, primary_visit_times
from quadrature_reference import AccuracyError, adaptive_quadrature
from tricentre import exclusion, special
from tricentre.arcs import (SeparatedPath, _landen, _self_crossings, am,
                            arc_family, build_arc, initial_velocities)
from tricentre.exclusion import (find_admissible_beta,
                                 nondegeneracy_certificate,
                                 primary_collision_check,
                                 primary_collision_ratios, resonant_params)
from tricentre.dynamics import Params, integrate
from tricentre.errors import (DomainError, PlacementError, RangeError,
                             StructuralError, UnsafeCentreError)
from tricentre.figdata import orbit_family_portrait
from tricentre.geometry import (CartesianPoint, EllipticPoint,
                                elliptic_to_cartesian)
from tricentre.periods import (modulus_squares, period_xi,
                               solve_beta_for_energy, solve_resonant_a1,
                               turning_point_xi)

F = Fraction
CLASSES = st.builds(F, st.integers(1, 16), st.integers(1, 16))


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
    """A closed-form arc against the DOP853 reference arc: the same label
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
        vxi, _ = initial_velocities(EllipticPoint(0.0, 1.0), beta, a1)
        assert vxi == pytest.approx(2.0 * math.sqrt(1.0 - a1 * (1.0 + beta)),
                                    rel=1e-14)

    def test_on_y_axis(self):
        beta, a1 = 0.2, 0.3
        _, vphi = initial_velocities(EllipticPoint(0.7, math.pi / 2.0),
                                     beta, a1)
        assert vphi == pytest.approx(2.0 * math.sqrt(a1), rel=1e-14)

    def test_turning_point_rejected(self):
        beta, a1 = 0.2, 0.3
        xi_p = turning_point_xi(beta, a1)
        with pytest.raises(PlacementError):
            initial_velocities(EllipticPoint(xi_p, 0.5), beta, a1)


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
        prm = Params(beta=0.2, a1=0.3, q=F(1),
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


def _primary_orbit(periods):
    """The q = 1 orbit at beta = 1/7 seeded at the primary (1, 0), over
    the given number of xi periods T1: every point of it is an unsafe
    centre for that resonance."""
    sol = solve_resonant_a1(BETA_REF, 1)
    prm0 = Params(beta=BETA_REF, a1=sol.a1_hat, q=F(1))
    vxi = 2.0 * math.sqrt(1.0 - BETA_REF * sol.a1_hat - sol.a1_hat)
    vphi = 2.0 * math.sqrt(BETA_REF * sol.a1_hat + sol.a1_hat)
    return integrate(np.array([0.0, 0.0, vxi, vphi]), prm0, periods * sol.t1,
                     tol=1e-12)


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
        traj = _primary_orbit(0.8)
        for frac in (0.23, 0.41, 0.57):
            y = traj.state_at(frac * traj.tau_final)
            centre = EllipticPoint(float(y[0]), float(y[1]))
            prm, _ = resonant_params(centre, 1, BETA_REF)
            report = primary_collision_check(prm)
            assert not report.safe
            assert report.min_separation <= 1e-9

    def test_unsafe_centre_refused_by_family(self):
        traj = _primary_orbit(0.5)
        y = traj.state_at(0.31 * traj.tau_final)
        prm, _ = resonant_params(EllipticPoint(float(y[0]), float(y[1])),
                                 1, BETA_REF)
        with pytest.raises(UnsafeCentreError):
            arc_family(prm)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -1.0])
    def test_margin_outside_zero_to_inf_refused(self, monkeypatch, delta):
        centre = EllipticPoint(0.0, 2.0)
        prm, _ = resonant_params(centre, 1, 1e-3)
        with pytest.raises(DomainError, match="delta must be positive and finite"):
            primary_collision_check(prm, delta=delta)
        # the beta search refuses it before its first halving, not with a
        # RangeError after 60 of them
        calls = []
        monkeypatch.setattr(exclusion, "resonant_params",
                            lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="delta must be positive and finite"):
            find_admissible_beta(centre, 1, delta=delta)
        assert calls == []

    def test_no_centre_refused_before_the_first_halving(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exclusion, "resonant_params",
                            lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="no perturbing centre"):
            find_admissible_beta(None, 1)
        assert calls == []


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

    # Near the separatrix the determinant is ill-conditioned in a1: with
    # d = 1 - k1^2 its relative condition number is about 1/d, so any
    # double evaluation at a1 misses the exact value by some eps/d.  The
    # 1e-12 bound holds for d >= 1e-2, and 64 eps/d nearer (at most 16 eps/d
    # measured).
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(beta=st.floats(0.0, 0.95), q=CLASSES)
    @example(beta=0.0, q=F(1))
    @example(beta=0.1956881382396182, q=F(1, 15))  # clamped, d ~ 1e-9
    def test_determinant_against_mpmath(self, beta, q):
        a1 = solve_resonant_a1(beta, q).a1_hat
        want = _mpmath_determinant(beta, q, a1)
        d = 1.0 - modulus_squares(beta, a1)[0]
        bound = 1e-12 if d >= 1e-2 else 64.0 * 2.0 ** -52 / d
        got = nondegeneracy_certificate(beta, q).det_j
        assert abs(got - want) <= bound * abs(want)

    # the finite-difference oracle's error is rounding, about eps*|F|/h ~
    # 1e-9 relative (at most 2.1e-9 measured), where d >= 1e-2; nearer the
    # separatrix its steps leave the domain or its truncation error grows
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(beta=st.one_of(st.floats(0.0, 0.95), st.floats(0.0, 1e-5)),
           q=CLASSES)
    def test_determinant_against_finite_differences(self, beta, q):
        a1 = solve_resonant_a1(beta, q).a1_hat
        assume(1.0 - modulus_squares(beta, a1)[0] >= 1e-2)
        want = nondegeneracy_reference.nondegeneracy_certificate(beta, q)
        got = nondegeneracy_certificate(beta, q)
        assert abs(got.det_j - want.det_j) <= 1e-7 * abs(want.det_j)
        assert got.passed == want.passed


def _mpmath_determinant(beta: float, q: Fraction, a1: float) -> float:
    """det [[dF/dbeta, dF/da1], [-2 a1, -2 beta]] of F = q*T1 - T2 at 40
    digits, the partials by mpmath.diff of the closed forms."""
    with mpmath.workdps(40):
        b0, a0 = mpmath.mpf(beta), mpmath.mpf(a1)
        qm = mpmath.mpf(q.numerator) / q.denominator

        def residual(b, a):
            root = mpmath.sqrt(1 - 4 * b * a * a)
            t1 = (2 * mpmath.sqrt(2) / mpmath.sqrt(root)
                  * mpmath.ellipk((a * (1 - b) + root) / (2 * root)))
            t2 = 2 / mpmath.sqrt(a * (1 + b)) * mpmath.ellipk(b / (1 + b))
            return qm * t1 - t2
        f_b = mpmath.diff(residual, (b0, a0), (1, 0))
        f_a = mpmath.diff(residual, (b0, a0), (0, 1))
        return float(2 * (a0 * f_a - b0 * f_b))


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
        # its own DOP853 integration by the reference builder
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

    def test_no_admissible_beta_for_segment_limit_point(self, monkeypatch):
        # phi0 nearly at the far primary keeps the angular ratio pinned to
        # 1/2 for every beta, so halving can never succeed: every one of
        # the 60 halvings reaches the exclusion test and comes back unsafe.
        # (At pi - 1e-9 the centre rounds onto the primary (-1, 0), which
        # is refused before any halving.)
        import tricentre.exclusion as exclusion
        from tricentre.errors import RangeError
        verdicts = []
        check = exclusion.primary_collision_check

        def recording(prm, **kwargs):
            report = check(prm, **kwargs)
            verdicts.append(report.safe)
            return report

        monkeypatch.setattr(exclusion, "primary_collision_check", recording)
        centre = EllipticPoint(0.0, math.pi - 1e-5)
        with pytest.raises(RangeError):
            find_admissible_beta(centre, 1, beta_start=0.5)
        assert verdicts == [False] * 60

    def test_grazing_arc_contradicts_safety_verdict(self, monkeypatch):
        # if a built path grazes a primary despite a safe verdict, the
        # family builder must flag the inconsistency
        import tricentre.arcs as arcs_mod
        from tricentre.errors import StructuralError
        prm, _ = resonant_params(EllipticPoint(2.58, 0.0), 1, BETA_REF)
        real_build = arcs_mod.build_arc

        def grazing(prm, s, d):
            return real_build(prm, s, d)._replace(min_primary_distance=1e-9)

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
        theta = am(u, _landen(m), np)
        assert np.max(np.abs(theta - ph)) <= 1e-14
        assert np.max(np.abs(np.sin(theta) - sn)) <= 2e-13
        assert np.max(np.abs(np.cos(theta) - cn)) <= 2e-13
        assert np.max(np.abs(np.sqrt(1.0 - m * np.sin(theta) ** 2) - dn)) \
            <= 2e-13

    def test_amplitude_of_modulus_zero_is_the_argument(self):
        u = np.array([-30.0, -1e-300, 0.0, 0.3, 29.5])
        assert am(u, _landen(0.0), np).tobytes() == u.tobytes()
        assert am(0.7, _landen(0.0), math) == 0.7


class TestScalarPath:
    """`SeparatedPath.state_at` evaluates a float with math and an array
    with numpy: the two agree to rounding."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(beta=st.one_of(st.floats(0.02, 0.5), st.floats(1e-12, 1e-6)),
           q=st.sampled_from((F(1), F(2), F(3, 2), F(1, 3))),
           u=st.floats(0.02, 0.95),
           phi0=st.one_of(st.sampled_from((0.0, math.pi, math.pi / 2.0)),
                          st.floats(0.0, 2.0 * math.pi)),
           sign=st.sampled_from((1, -1)), direction=st.sampled_from((1, -1)),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @example(beta=BETA_REF, q=F(1), u=0.5, phi0=math.pi / 2.0, sign=1,
             direction=1, fractions=[0.0, 0.5, 1.0])  # an early return
    @example(beta=1e-12, q=F(1, 3), u=0.9, phi0=0.0, sign=-1, direction=-1,
             fractions=[0.0, 0.37, 1.0])
    def test_float_matches_array(self, beta, q, u, phi0, sign, direction,
                                 fractions):
        sol = solve_resonant_a1(beta, q)
        xi_p = turning_point_xi(beta, sol.a1_hat)
        prm, _ = resonant_params(EllipticPoint(u * xi_p, phi0), q, beta)
        assume(primary_collision_check(prm).safe)
        path = build_arc(prm, sign, direction).path
        for tau in (f * path.taus[-1] for f in fractions):
            got = path.state_at(tau)
            want = path.state_at(np.array([tau]))[0]
            assert type(got) is tuple and len(got) == 4
            assert all(type(v) is float for v in got)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-14 * max(1.0, abs(w))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(beta=st.one_of(st.floats(0.02, 0.5), st.floats(1e-12, 1e-6)),
           q=st.sampled_from((F(1), F(2), F(3, 2), F(1, 3))),
           u=st.floats(0.0, 0.95),
           phi0=st.one_of(st.sampled_from((0.0, math.pi, math.pi / 2.0)),
                          st.floats(0.0, 2.0 * math.pi)),
           sign=st.sampled_from((1, -1)), direction=st.sampled_from((1, -1)),
           fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    def test_motions_compose_the_one_piece_state(self, beta, q, u, phi0, sign,
                                                 direction, fractions):
        # the two separated motions give the state of the formula written in
        # one piece bit for bit, with math and with numpy, and a position
        # sampled without its speed is the state's position
        sol = solve_resonant_a1(beta, q)
        start = EllipticPoint(u * turning_point_xi(beta, sol.a1_hat), phi0)
        path = SeparatedPath(Params(beta=beta, a1=sol.a1_hat, q=sol.q), start,
                             sign, direction, sol.full_period)
        taus = [f * sol.full_period for f in fractions]
        for tau in taus:
            want = np.array(figdata_reference.state(path, tau, math))
            assert np.array(path.state_at(tau)).tobytes() == want.tobytes()
            assert np.array([path._xi_motion(tau, math, False),
                             path._phi_motion(tau, math, False)]).tobytes() \
                == want[:2].tobytes()
        arr = np.array(taus)
        want = np.stack(figdata_reference.state(path, arr, np), axis=-1)
        assert path.state_at(arr).tobytes() == want.tobytes()

    def test_list_is_the_floats(self, q1_family):
        path = q1_family[2].path
        taus = [0.0, 0.3, 1.7, path.taus[-1]]
        assert path.state_at(taus) == [path.state_at(t) for t in taus]


class TestClosestApproach:
    """`min_primary_distance` against the dense sampled search of
    `approach_reference`, refined by golden section: within 1e-9
    relative, and never above the 4,096-sample value of the grid it
    replaced (beyond 1e-12 relative, rounding)."""

    @staticmethod
    def _assert_matches_oracle(arc):
        got = arc.min_primary_distance
        want = approach_reference.refined_approach(arc.path)
        assert abs(got - want) <= 1e-9 * want
        assert got <= (1.0 + 1e-12) * approach_reference.sampled_approach(
            arc.path, 4096)

    @pytest.mark.parametrize("name", ["q1_family", "q2_family",
                                      "yaxis_family", "q3_2_family"])
    def test_fixture_families(self, name, request):
        for arc in request.getfixturevalue(name):
            self._assert_matches_oracle(arc)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(beta=st.one_of(st.floats(0.02, 0.5), st.floats(1e-12, 1e-6)),
           q=st.sampled_from((F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3),
                              F(5, 3), F(1, 3))),
           u=st.floats(0.02, 0.95),
           phi0=st.one_of(st.sampled_from((0.0, math.pi, math.pi / 2.0)),
                          st.floats(0.0, 2.0 * math.pi)),
           sign=st.sampled_from((1, -1)), direction=st.sampled_from((1, -1)))
    @example(beta=BETA_REF, q=F(1), u=0.5, phi0=math.pi / 2.0, sign=1,
             direction=1)  # an early return
    @example(beta=1e-9, q=F(2), u=0.3, phi0=0.0, sign=-1, direction=1)
    # next to the segment between the primaries, where undamped steps from
    # the start cycle through 3.26, 1.46 and 0 without end
    @example(beta=0.5490272469335536, q=F(1, 3), u=0.006723550905130544,
             phi0=1.815150979788275, sign=1, direction=1)
    def test_drawn_arcs(self, beta, q, u, phi0, sign, direction):
        sol = solve_resonant_a1(beta, q)
        xi_p = turning_point_xi(beta, sol.a1_hat)
        prm, _ = resonant_params(EllipticPoint(u * xi_p, phi0), q, beta)
        assume(primary_collision_check(prm).safe)
        self._assert_matches_oracle(build_arc(prm, sign, direction))

    # safe at delta = 1e-4, yet an arc misses a primary by less than 1e-6;
    # 4,096 samples of the last overstate its miss beyond the 1e-6 cutoff,
    # so that family was built while the samples judged it
    @pytest.mark.parametrize("centre, q, energy, miss, sampled", [
        (CartesianPoint(1e-3, 1e-3), F(2), -1e-11, 2.1945e-7, 2.211e-7),
        (CartesianPoint(1.1945, -0.7314), F(3, 2), -0.05, 2.6194e-7,
         9.476e-7),
        (CartesianPoint(-2.0140, -0.0259), F(1, 3), -0.05, 6.8439e-8,
         4.365e-7),
        (CartesianPoint(1.1941, -0.7314), F(3, 2), -0.05, 1.6931e-7,
         1.167e-6),
    ])
    def test_grazing_arcs_refused(self, centre, q, energy, miss, sampled):
        prm, _ = resonant_params(centre, q,
                                 solve_beta_for_energy(q, energy).beta)
        assert primary_collision_check(prm).safe
        arcs = [build_arc(prm, s, d)
                for s, d in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
        closest = min(arcs, key=lambda arc: arc.min_primary_distance)
        assert closest.min_primary_distance == pytest.approx(miss, rel=5e-5)
        assert approach_reference.sampled_approach(closest.path, 4096) == \
            pytest.approx(sampled, rel=5e-4)
        self._assert_matches_oracle(closest)
        with pytest.raises(StructuralError, match="passes within"):
            arc_family(prm)

    def test_unconverged_search_raises(self, monkeypatch, q1_family):
        import tricentre.arcs as arcs_mod
        monkeypatch.setattr(arcs_mod, "_APPROACH_MAX_STEPS", 1)
        with pytest.raises(StructuralError, match="did not converge"):
            arcs_mod._closest_primary_approach(q1_family[0].path)


LABELS = ((1, 1), (-1, -1), (1, -1), (-1, 1))
RETURN_CLASSES = (F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3), F(5, 2),
                  F(5, 3), F(1, 3))


def _crossing_offset(arc):
    """The least distance of a `_self_crossings` time of the arc's path
    from 0 (mod the period), over the period."""
    path, q = arc.path, arc.params.q
    period = q.numerator * (4.0 * path._k_xi / path._lam)
    return min(min(t, period - t) for pair in _self_crossings(path, q)
               for t in pair) / period


def _compare_with_scan(arcs):
    """Each arc's return against the scan of `first_return_reference`: the
    same duration, bit for bit, and the same early_collision.  Each arc's
    crossing offset lies more than 1e3 times away from the 1e-9 cut: below
    1e-12 on an early arc, above 1e-6 on the others.  Returns the number of
    arcs on which the scan found no return."""
    missed = 0
    for arc in arcs:
        offset = _crossing_offset(arc)
        assert offset <= 1e-12 if arc.early_collision else offset >= 1e-6
        prm = arc.params
        t_full = prm.q.numerator * period_xi(prm.beta, prm.a1)
        try:
            want = first_return_reference.first_return(
                arc.path, prm.centre_elliptic, t_full)
        except DomainError:
            missed += 1
            continue
        assert arc.duration.hex() == want.hex()
        assert arc.early_collision == (want < t_full * (1.0 - 1e-6))
    return missed


class TestFirstReturn:
    """An arc's return read off the orbit's closed-form self-crossings
    against the old scan of the phi = +-phi0 times, which matched xi there
    to within 1e-6."""

    def test_seeded_draws(self):
        # generic centres, centres on both axes and on the segment xi = 0
        rng = random.Random(2026)
        arcs = []
        while len(arcs) < 600:
            q = rng.choice(RETURN_CLASSES)
            try:
                beta = solve_beta_for_energy(
                    q, rng.choice((-0.05, -0.02, -0.2, -1e-6))).beta
            except RangeError:  # the energy is out of the class's reach
                continue
            kind = rng.choice(("generic", "x", "y", "segment"))
            u = 0.0 if kind == "segment" else rng.uniform(0.0, 0.97)
            phi0 = {"x": rng.choice((0.0, math.pi)),
                    "y": rng.choice((0.5 * math.pi, 1.5 * math.pi)),
                    }.get(kind, rng.uniform(0.0, 2.0 * math.pi))
            prm = _centre_params(q, beta, u, phi0)
            if primary_collision_check(prm).safe:
                arcs += [build_arc(prm, s, d) for s, d in LABELS]
        assert 100 <= sum(arc.early_collision for arc in arcs) <= 500
        assert _compare_with_scan(arcs) == 0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(beta=st.one_of(st.floats(0.02, 0.5), st.floats(1e-12, 1e-6)),
           q=st.sampled_from(RETURN_CLASSES),
           u=st.one_of(st.just(0.0), st.floats(0.02, 0.97)),
           phi0=st.one_of(st.sampled_from((0.0, math.pi, 0.5 * math.pi,
                                           1.5 * math.pi)),
                          st.floats(0.0, 2.0 * math.pi)))
    @example(beta=BETA_REF, q=F(1), u=0.5, phi0=math.pi / 2.0)  # early
    def test_drawn_centres(self, beta, q, u, phi0):
        assume(u > 0.0 or abs(math.sin(phi0)) > 1e-3)  # not at a primary
        # next to the axis, where the times of phi = phi0 and of phi = -phi0
        # nearly meet, and next to a self-crossing, the scan's tolerances
        # decide its return (the two tests below)
        assume(not 0.0 < abs(math.remainder(phi0, math.pi)) < 1e-6)
        prm = _centre_params(q, beta, u, phi0)
        assume(primary_collision_check(prm).safe)
        arcs = [build_arc(prm, s, d) for s, d in LABELS]
        assume(not any(1e-12 < _crossing_offset(arc) < 1e-6 for arc in arcs))
        _compare_with_scan(arcs)  # every arc built, where the scan missed too

    @pytest.mark.parametrize("phi0, miss", [(7.989307938561241e-07, 9.4e-7),
                                            (1e-7, 1.2e-7), (2e-8, 2.3e-8)])
    def test_centre_near_a_crossing(self, phi0, miss):
        # C is about phi0 from the point where the q = 1/2 orbit crosses the
        # axis: the scan's 1e-6 match of xi took that crossing for a return,
        # and its arc ended `miss` away from C; the arc runs its full period
        prm = _centre_params(F(1, 2), 0.5, 0.5, phi0)
        arc = build_arc(prm, 1, 1)
        assert not arc.early_collision and arc.closure_error <= 1e-14
        assert 1e-9 < _crossing_offset(arc) < 1e-6
        t_full = period_xi(prm.beta, prm.a1)
        scanned = first_return_reference.first_return(
            arc.path, prm.centre_elliptic, t_full)
        assert scanned < 0.5 * arc.duration
        xi, phi, _, _ = arc.path.state_at(scanned)
        end = elliptic_to_cartesian(EllipticPoint(xi, phi))
        assert end.distance_to(prm.centre) == pytest.approx(miss, rel=0.05)

    @pytest.mark.parametrize("phi0", [1e-15, 1e-13, 2.0 * math.pi - 1e-13,
                                      6.283185307179585])
    def test_centre_next_to_the_axis(self, phi0):
        # within 1e-12 of phi = 0 the scan matched xi to either sign of xi0
        # at both representations' phi times, and took the earlier of two
        # times about 2 phi0 / w' apart; the return is the full period,
        # the time at which phi = phi0
        prm = _centre_params(F(1), 0.5, 0.5, phi0)
        t_full = period_xi(prm.beta, prm.a1)
        scanned = []
        for s, d in LABELS:
            arc = build_arc(prm, s, d)
            path = arc.path
            assert not arc.early_collision
            assert arc.duration == 4.0 * path._k_phi / abs(path._rate)
            scanned.append(first_return_reference.first_return(
                path, prm.centre_elliptic, t_full))
            assert scanned[-1] == pytest.approx(arc.duration, rel=1e-12)
        assert min(scanned) < arc.duration

    def test_far_centres_at_tiny_beta(self):
        # xi at a return time is good to about e^xi0 * 1e-16 only, so the
        # scan's 1e-6 match of xi misses some returns of centres far out;
        # every family builds, and its closure error is that of the state
        # formula, below 1e-4 cosh(xi0)
        rng = random.Random(7)
        missed = 0
        for _ in range(400):
            beta = 10.0 ** rng.uniform(-12.0, -6.0)
            q = rng.choice((F(1), F(2), F(1, 2), F(3, 2)))
            prm = _centre_params(q, beta, rng.uniform(0.5, 0.97),
                                 rng.uniform(0.0, 2.0 * math.pi))
            if primary_collision_check(prm).safe:
                family = arc_family(prm)
                missed += _compare_with_scan(family)
                bound = 1e-4 * math.cosh(prm.centre_elliptic.xi)
                assert max(arc.closure_error for arc in family) <= bound
        assert missed > 0


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
        prm = Params(beta=BETA_REF, a1=sol.a1_hat, q=sol.q)
        for track, sign in zip(tracks, (1, -1)):
            # the figure writes positions; the speeds are the sampled path's
            path = SeparatedPath(prm, EllipticPoint(0.0, 0.0), sign, 1,
                                 sol.full_period)
            states = np.array(path.state_at(list(track.taus)))
            assert np.all(np.isfinite(states))
            assert states[:, :2].tobytes() == \
                np.column_stack([track.xi, track.phi]).tobytes()
            assert np.allclose(states[0], [0.0, 0.0, sign * vxi, vphi],
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
    before the closed form), and the least (|g - float(s)|, s) over a
    freshly built ratio set: the smaller s at a tie."""
    beta, a1 = prm.beta, prm.a1
    centre = prm.centre_elliptic
    xi0, phi0 = centre.xi, centre.phi

    def phi_integrand(phi):
        return 1.0 / math.sqrt(beta * a1 * math.cos(phi) ** 2 + a1)

    def xi_integrand(xi):
        r = math.cosh(xi) - beta * a1 * math.cosh(xi) ** 2 - a1
        if r <= 0.0:
            raise AccuracyError("singular")
        return 1.0 / math.sqrt(r)

    pref = 0.5
    p_val = pref * adaptive_quadrature(phi_integrand, 0.0, phi0, quad_tol).value
    q_val = pref * adaptive_quadrature(xi_integrand, 0.0, xi0, quad_tol).value
    t1 = period_xi(beta, a1)
    g_plus = (p_val + q_val) / t1
    g_minus = (p_val - q_val) / t1
    best, nearest = min((abs(g - float(s)), s)  # uncached build of S
                        for s in primary_collision_ratios.__wrapped__(prm.q)
                        for g in (g_plus, g_minus))
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
        beta, a1 = mpmath.mpf(prm.beta), mpmath.mpf(prm.a1)
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
        t1 = 2 * mpmath.sqrt(2) / disc ** mpmath.mpf(0.25) * mpmath.ellipk(k1sq)
        return (float((p_val + q_val) / (2 * t1)),
                float((p_val - q_val) / (2 * t1)))


class TestExclusionOracle:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(q=st.sampled_from(EXCLUSION_CLASSES),
           beta=st.sampled_from((0.05, BETA_REF, 0.25)),
           u=st.floats(0.02, 0.9),
           phi0=st.one_of(st.just(0.0), st.floats(-math.pi, math.pi)))
    def test_matches_reference_scan(self, q, beta, u, phi0):
        prm = _centre_params(q, beta, u, phi0)
        _assert_matches_reference(primary_collision_check(prm), prm, 1e-13)

    @pytest.mark.parametrize("q", [F(1, 2), F(3, 2), F(1, 3)], ids=str)
    def test_axis_tie_keeps_first_minimum(self, q):
        # phi0 = 0: G- = -G+, so s and -s lie at exactly the same distance,
        # and the first minimum in sorted S is the negative one
        prm = _centre_params(q, BETA_REF, 0.5, 0.0)
        report = primary_collision_check(prm)
        assert report.g_minus == -report.g_plus
        mirror = -report.nearest
        assert report.nearest < 0 and mirror in primary_collision_ratios(q)
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
        # the exclusion test's table is S in increasing order, with floats
        values, ratios = exclusion._ratio_table(q.numerator, q.denominator)
        assert ratios == sorted(fresh)
        assert values == [float(s) for s in ratios] == sorted(values)

    def test_validates_on_every_call(self):
        for bad in (0, F(-1, 2), -3):
            for _ in range(2):
                with pytest.raises(DomainError):
                    primary_collision_ratios(bad)


def _scan_nearest(g_plus, g_minus, q):
    """The first minimum of |g - float(s)| over s in increasing order, by
    brute force: the least (|g - float(s)|, s) over all of S and both g."""
    return min((abs(g - float(s)), s) for s in primary_collision_ratios(q)
               for g in (g_plus, g_minus))


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


# ---------------------------------------------------------------------------
# the exclusion cell against the earlier one, bit for bit

CELL_CLASSES = (F(1), F(2), F(3), F(1, 2))  # the safety_map workload's
CELL_BETAS = (0.05, BETA_REF, 0.25)


def _primary_orbit_centres(n):
    """n points of _primary_orbit: unsafe centres at beta = 1/7, q = 1,
    some of them beyond other turning ellipses."""
    traj = _primary_orbit(0.8)
    states = (traj.state_at((k + 0.5) / n * traj.tau_final) for k in range(n))
    return [EllipticPoint(float(y[0]), float(y[1])) for y in states]


def _cell_centres():
    """Seeded centres inside and beyond the turning ellipses, both signs of
    xi0, phi0 on the axis (0 and pi), points of the orbit through a
    primary, and Cartesian points: on the segment between the primaries,
    on a primary, not finite, and none at all."""
    rng = random.Random(26)
    xi_max = min(turning_point_xi(b, solve_resonant_a1(b, q).a1_hat)
                 for b in CELL_BETAS for q in CELL_CLASSES)
    centres = [EllipticPoint(rng.uniform(-1.1, 1.1) * xi_max,
                             rng.uniform(-math.pi, math.pi)) for _ in range(48)]
    centres += [EllipticPoint(sign * rng.uniform(0.02, 0.9) * xi_max, phi0)
                for phi0 in (0.0, math.pi) for sign in (1, -1)
                for _ in range(3)]
    centres += _primary_orbit_centres(8)
    centres += [CartesianPoint(0.25, 0.0), CartesianPoint(0.0, 0.1),
                CartesianPoint(-1.0, 0.0), CartesianPoint(math.nan, 0.0),
                None]
    return centres


def _outcome(function, *args):
    """repr of what function returns, or the error class it raises."""
    try:
        return repr(function(*args))
    except Exception as exc:  # the class is what is compared
        return type(exc)


def _cell(module, centre, q, beta, delta):
    prm, _ = module.resonant_params(centre, q, beta)
    return prm, module.primary_collision_check(prm, delta)


class TestCellMatchesReference:
    """The cell of `resonant_params` and `primary_collision_check` returns
    the earlier cell's Params and SafetyReport bit for bit (repr), or
    raises the same error class; so does `find_admissible_beta`, but for
    no centre at all, which it refuses with DomainError."""

    @pytest.mark.parametrize("delta", [1e-4, 0.05])
    def test_every_cell_bitwise(self, delta):
        outcomes = {}
        for centre in _cell_centres():
            for beta in CELL_BETAS:
                for q in CELL_CLASSES:
                    ours = _outcome(_cell, exclusion, centre, q, beta,
                                    delta)
                    assert ours == _outcome(_cell, exclusion_reference, centre,
                                            q, beta, delta), (centre, q, beta)
                    outcomes[repr(centre), q, beta] = ours
        # the draw reaches safe reports, every point of the primary orbit
        # is unsafe at its own resonance, and both error paths are taken
        assert any("safe=True" in o for o in outcomes.values()
                   if isinstance(o, str))
        for centre in _primary_orbit_centres(8):
            assert "safe=False" in outcomes[repr(centre), F(1), BETA_REF]
        assert {PlacementError, DomainError} <= set(outcomes.values())

    def test_admissible_beta_bitwise(self):
        betas = set()
        for centre in _cell_centres():
            for q in (F(1), F(2), F(1, 2)):
                ours = _outcome(find_admissible_beta, centre, q)
                if centre is None:  # the earlier search raised AttributeError
                    assert ours is DomainError
                    continue
                assert ours == _outcome(exclusion_reference.find_admissible_beta,
                                        centre, q), (centre, q)
                betas.add(ours)
        assert {"0.5", "0.25", "0.125"} <= betas  # some centres need halving
