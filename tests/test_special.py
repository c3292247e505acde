import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ellipk, ellipkinc, elliprd, elliprf

from quadrature_reference import AccuracyError, adaptive_quadrature
from tricentre.errors import DomainError
from tricentre.special import (_carlson_rf, _elliptic_k_and_slope,
                               complete_elliptic_k, incomplete_elliptic_f)

# Independent oracle value for K(m = 1/2), frozen from the tanh-sinh
# quadrature of the defining integral (cross-checked against
# Gamma(1/4)^2 / (4 sqrt(pi)) = 1.8540746773013719...).
K_HALF = 1.8540746773013719


def elliptic_k_tanh_sinh(m, tmax=4.0, levels=12):
    """Defining-integral oracle, independent of the AGM path.

    Double-exponential substitution v = (1 + tanh(pi/2 sinh t))/2 handles
    the inverse-square-root endpoint singularity at v = 1; 1 - v is formed
    without cancellation.
    """
    def term(t):
        s = 0.5 * math.pi * math.sinh(t)
        e2s = math.exp(-2.0 * s)
        v = 1.0 / (1.0 + e2s)
        one_minus_v = e2s / (1.0 + e2s)
        w = 0.5 * math.pi * math.cosh(t) * 2.0 * e2s / (1.0 + e2s) ** 2
        return w / math.sqrt(one_minus_v * (1.0 + v) * (1.0 - m * v * v))

    h = 1.0
    total = term(0.0)
    k = 1
    while k * h <= tmax:
        total += term(k * h) + term(-k * h)
        k += 1
    total *= h
    prev = total
    for _ in range(1, levels):
        h /= 2.0
        add = 0.0
        k = 1
        while k * h <= tmax:
            add += term(k * h) + term(-k * h)
            k += 2
        total = 0.5 * prev + h * add
        if abs(total - prev) < 1e-15 * abs(total):
            break
        prev = total
    return total


class TestCompleteEllipticK:
    def test_zero_modulus(self):
        assert complete_elliptic_k(0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)

    def test_half_pinned_by_oracle(self):
        # the oracle reproduces the frozen constant, then the AGM matches it
        assert elliptic_k_tanh_sinh(0.5) == pytest.approx(K_HALF, abs=5e-15)
        assert complete_elliptic_k(0.5) == pytest.approx(K_HALF, rel=1e-14)

    def test_near_one_finite_and_large(self):
        val = complete_elliptic_k(0.999999)
        assert math.isfinite(val) and val > 7.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            complete_elliptic_k(1.0)
        with pytest.raises(DomainError):
            complete_elliptic_k(-0.1)
        with pytest.raises(DomainError):
            complete_elliptic_k(float("nan"))

    @pytest.mark.parametrize("m", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_agm_vs_defining_integral(self, m):
        assert complete_elliptic_k(m) == pytest.approx(
            elliptic_k_tanh_sinh(m), abs=1e-10)

    def test_strictly_increasing(self):
        grid = [i / 32.0 for i in range(32)]
        vals = [complete_elliptic_k(m) for m in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestEllipticKAndSlope:
    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(m=st.floats(0.0, 1.0, exclude_max=True))
    @example(m=0.0)
    @example(m=5e-324)
    @example(m=1.0 - 2.0 ** -53)
    def test_k_bitwise_complete_elliptic_k(self, m):
        assert _elliptic_k_and_slope(m)[0].hex() == complete_elliptic_k(m).hex()

    # scipy's (E - (1-m) K)/(2m(1-m)) with E - (1-m) K written as m (K - D),
    # D = (K - E)/m = R_D(0, 1-m, 1)/3 (DLMF 19.25.1): E - (1-m) K itself
    # loses eps/m to cancellation at small m
    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(m=st.floats(0.0, 0.99, exclude_min=True))
    @example(m=5e-324)
    @example(m=1e-8)
    @example(m=0.99)
    def test_slope_against_scipy(self, m):
        want = (ellipk(m) - elliprd(0.0, 1.0 - m, 1.0) / 3.0) / (2.0 * (1.0 - m))
        assert abs(_elliptic_k_and_slope(m)[1] - want) <= 1e-12 * want

    def test_slope_at_zero(self):
        assert _elliptic_k_and_slope(0.0) == (math.pi / 2.0, math.pi / 8.0)


class TestAdaptiveQuadrature:
    def test_constant(self):
        res = adaptive_quadrature(lambda _x: 1.0, 0.0, 2.0 * math.pi, 1e-12)
        assert res.value == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert res.error_estimate >= 0.0
        assert res.evaluations >= 1

    def test_cosine(self):
        res = adaptive_quadrature(math.cos, 0.0, math.pi / 2.0, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_angular_travel_time_integrand(self):
        # beta = 0, a1 = 1/4: the integrand is the constant 2
        beta, a1 = 0.0, 0.25
        res = adaptive_quadrature(
            lambda phi: 1.0 / math.sqrt(beta * a1 * math.cos(phi) ** 2 + a1),
            0.0, math.pi / 2.0, 1e-12)
        assert res.value == pytest.approx(math.pi, abs=1e-12)

    def test_reversed_interval_flips_sign(self):
        fwd = adaptive_quadrature(math.cos, 0.0, 1.0, 1e-12)
        rev = adaptive_quadrature(math.cos, 1.0, 0.0, 1e-12)
        assert rev.value == pytest.approx(-fwd.value, abs=1e-14)

    def test_zero_length(self):
        res = adaptive_quadrature(math.cos, 0.3, 0.3, 1e-12)
        assert res.value == 0.0

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            adaptive_quadrature(math.cos, 0.0, 1.0, 0.0)

    def test_nonconvergence_carries_best_estimate(self):
        with pytest.raises(AccuracyError) as err:
            adaptive_quadrature(lambda v: 1.0 / math.sqrt(max(1.0 - v, 1e-300)),
                                0.0, 1.0, 1e-13, max_intervals=8)
        best = err.value.best_estimate
        assert best is not None
        assert best.value == pytest.approx(2.0, abs=0.2)


class TestIncompleteEllipticF:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(phi=st.floats(-2.0 * math.pi, 2.0 * math.pi),
           m=st.floats(-60.0, 0.5))
    @example(phi=math.pi / 2.0, m=0.0)
    @example(phi=-2.0 * math.pi, m=-60.0)
    @example(phi=1.5 * math.pi, m=0.5)
    def test_matches_scipy(self, phi, m):
        # covers the reduction by multiples of pi and negative m
        ref = float(ellipkinc(phi, m))
        assert abs(incomplete_elliptic_f(phi, m) - ref) <= 4e-15 * max(1.0, abs(ref))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=st.floats(0.0, 10.0), y=st.floats(1e-3, 100.0),
           z=st.floats(1e-3, 2.0))
    def test_carlson_rf_matches_scipy(self, x, y, z):
        ref = float(elliprf(x, y, z))
        assert abs(_carlson_rf(x, y, z) - ref) <= 2e-15 * ref

    @pytest.mark.parametrize("m", [-30.0, -1.0, 0.0, 0.3, 0.9])
    def test_quarter_period_and_oddness(self, m):
        k = float(ellipk(m))
        assert incomplete_elliptic_f(math.pi / 2.0, m) == pytest.approx(k, rel=2e-15)
        for phi in (0.4, 2.0, 5.5):
            assert (incomplete_elliptic_f(-phi, m)
                    == -incomplete_elliptic_f(phi, m))
            assert (incomplete_elliptic_f(phi + math.pi, m)
                    - incomplete_elliptic_f(phi, m)) == pytest.approx(2.0 * k, rel=1e-14)
        assert incomplete_elliptic_f(0.0, m) == 0.0

    @pytest.mark.parametrize("phi, m", [(0.3, 1.0), (0.3, 1.5), (0.3, math.nan),
                                        (0.3, -math.inf), (math.inf, 0.2),
                                        (math.nan, 0.2)])
    def test_domain_errors(self, phi, m):
        with pytest.raises(DomainError):
            incomplete_elliptic_f(phi, m)
