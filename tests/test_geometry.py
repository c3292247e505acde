import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricentre.errors import SingularityError
from tricentre.geometry import (TWO_PI, CartesianPoint, EllipticPoint,
                                cartesian_to_elliptic, elliptic_to_cartesian,
                                elliptic_to_xy, physical_time_of, transform_matrix,
                                velocity_to_cartesian)


class TestForwardMap:
    def test_primaries(self):
        p1 = elliptic_to_cartesian(EllipticPoint(0.0, 0.0))
        assert (p1.x, p1.y) == (1.0, 0.0)
        p2 = elliptic_to_cartesian(EllipticPoint(0.0, math.pi))
        assert p2.x == pytest.approx(-1.0, abs=1e-15)
        assert p2.y == pytest.approx(0.0, abs=1e-15)

    def test_imaginary_axis(self):
        for xi in (0.5, 1.0, -2.0):
            p = elliptic_to_cartesian(EllipticPoint(xi, math.pi / 2.0))
            assert p.x == pytest.approx(0.0, abs=1e-15)
            assert p.y == pytest.approx(math.sinh(xi), rel=1e-15)

    def test_array_form_matches_point_form(self):
        rng = np.random.default_rng(11)
        xi = rng.uniform(-3.0, 3.0, 200)
        phi = rng.uniform(0.0, TWO_PI, 200)
        x, y = elliptic_to_xy(xi, phi)
        for i in range(len(xi)):
            p = elliptic_to_cartesian(EllipticPoint(xi[i], phi[i]))
            assert x[i] == pytest.approx(p.x, rel=1e-14, abs=1e-14)
            assert y[i] == pytest.approx(p.y, rel=1e-14, abs=1e-14)


class TestInverseMap:
    def test_ramification_point(self):
        e1, e2 = cartesian_to_elliptic(CartesianPoint(1.0, 0.0))
        assert abs(e1.xi) < 1e-12 and abs(e2.xi) < 1e-12
        assert min(e1.phi, TWO_PI - e1.phi) < 1e-6

    def test_positive_y_axis(self):
        s = 1.7
        e1, e2 = cartesian_to_elliptic(CartesianPoint(0.0, s))
        xi = math.asinh(s)
        assert e1.xi == pytest.approx(xi, rel=1e-14)
        assert e1.phi == pytest.approx(math.pi / 2.0, rel=1e-14)
        assert e2.xi == pytest.approx(-xi, rel=1e-14)
        assert e2.phi == pytest.approx(3.0 * math.pi / 2.0, rel=1e-14)

    def test_forward_inverse_example(self):
        p = CartesianPoint(math.cosh(1.0) * math.cos(1.0),
                           math.sinh(1.0) * math.sin(1.0))
        e1, e2 = cartesian_to_elliptic(p)
        assert (e1.xi, e1.phi) == pytest.approx((1.0, 1.0), rel=1e-12)
        assert (e2.xi, e2.phi) == pytest.approx((-1.0, TWO_PI - 1.0), rel=1e-12)

    def test_round_trip_random_points(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-5.0, 5.0, size=(10_000, 2))
        for x, y in pts:
            for rep in cartesian_to_elliptic(CartesianPoint(x, y)):
                back = elliptic_to_cartesian(rep)
                assert math.hypot(back.x - x, back.y - y) <= 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=st.floats(-20.0, 20.0), y=st.floats(-20.0, 20.0))
    def test_round_trip_property(self, x, y):
        for rep in cartesian_to_elliptic(CartesianPoint(x, y)):
            back = elliptic_to_cartesian(rep)
            assert math.hypot(back.x - x, back.y - y) <= 1e-12

    def test_representations_are_identified(self):
        p = EllipticPoint(0.8, 2.3)
        a, b = elliptic_to_cartesian(p), elliptic_to_cartesian(p.conjugate)
        assert a.distance_to(b) <= 1e-15
        assert a.distance_to(elliptic_to_cartesian(EllipticPoint(0.8, 2.4))) > 0.05


class TestVelocityTransform:
    def test_antisymmetry_under_representation_swap(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            xi, phi = rng.uniform(-2, 2), rng.uniform(0, TWO_PI)
            v = rng.uniform(-1, 1, 2)
            u1 = velocity_to_cartesian(EllipticPoint(xi, phi), v)
            u2 = velocity_to_cartesian(EllipticPoint(-xi, -phi), v)
            assert np.allclose(u2, -u1, atol=1e-13)

    def test_determinant_identity(self):
        # det = sinh^2 cos^2 + cosh^2 sin^2, which expands to
        # cosh^2(xi) - cos^2(phi); checked against direct evaluation
        rng = np.random.default_rng(13)
        for _ in range(500):
            xi, phi = rng.uniform(-2, 2), rng.uniform(0, TWO_PI)
            sh, ch = math.sinh(xi), math.cosh(xi)
            sp, cp = math.sin(phi), math.cos(phi)
            direct = (sh * cp) * (sh * cp) + (ch * sp) * (ch * sp)
            det = np.linalg.det(transform_matrix(EllipticPoint(xi, phi)))
            expect = ch * ch - cp * cp
            assert det == pytest.approx(expect, abs=1e-12)
            assert direct == pytest.approx(expect, abs=1e-12)

    def test_singular_at_primary(self):
        u = transform_matrix(EllipticPoint(0.0, 0.0))
        assert np.all(u == 0.0)
        with pytest.raises(SingularityError):
            velocity_to_cartesian(EllipticPoint(0.0, 0.0), (1.0, 0.0))


class TestPhysicalTime:
    def test_chain_rule_against_trajectory(self):
        # d(x, y)/dt from finite differences of the sampled path matches the
        # transformed elliptic velocity divided by the time-map factor
        from tricentre.dynamics import Params, integrate
        prm = Params(beta=0.2, a1=0.3)
        y0 = np.array([0.1, 0.4, 1.1, 1.3])
        traj = integrate(y0, prm, 2.0, tol=1e-12)
        taus, states = traj.dense_grid(4001)
        t = physical_time_of(taus, states[:, 0], states[:, 1])
        x = np.cosh(states[:, 0]) * np.cos(states[:, 1])
        y = np.sinh(states[:, 0]) * np.sin(states[:, 1])
        mid = len(taus) // 2
        dxdt_fd = (x[mid + 1] - x[mid - 1]) / (t[mid + 1] - t[mid - 1])
        dydt_fd = (y[mid + 1] - y[mid - 1]) / (t[mid + 1] - t[mid - 1])
        s = states[mid]
        rho = math.cosh(s[0]) ** 2 - math.cos(s[1]) ** 2
        v_cart = velocity_to_cartesian(EllipticPoint(s[0], s[1]), s[2:]) / rho
        assert dxdt_fd == pytest.approx(v_cart[0], abs=1e-5)
        assert dydt_fd == pytest.approx(v_cart[1], abs=1e-5)

    def test_constant_trajectory(self):
        taus = np.linspace(0.0, 3.0, 50)
        xis = np.full_like(taus, 1.0)
        phis = np.full_like(taus, math.pi / 2.0)
        t = physical_time_of(taus, xis, phis)
        assert t[0] == 0.0
        assert t[-1] == pytest.approx(3.0 * math.cosh(1.0) ** 2, rel=1e-14)

    def test_monotone(self):
        taus = np.linspace(0.0, 2.0, 100)
        xis = 0.3 * np.sin(taus)
        phis = 1.0 + taus
        t = physical_time_of(taus, xis, phis)
        assert np.all(np.diff(t) > 0.0)

    def test_sample_at_primary_rejected(self):
        taus = np.array([0.0, 1.0])
        with pytest.raises(SingularityError):
            physical_time_of(taus, np.zeros(2), np.zeros(2))


def test_wrap_angle():
    """EllipticPoint stores phi reduced to [0, 2pi)."""
    def wrapped(phi):
        return EllipticPoint(0.0, phi).phi

    assert wrapped(TWO_PI) == 0.0
    assert wrapped(-0.5) == pytest.approx(TWO_PI - 0.5, rel=1e-15)
    assert wrapped(7.0) == pytest.approx(7.0 - TWO_PI, rel=1e-14)
