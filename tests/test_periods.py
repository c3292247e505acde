import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import resonance_reference as ref
from tricentre import periods
from tricentre.errors import DomainError, RangeError
from tricentre.periods import (ResonanceSolution, modulus_squares, period_phi,
                               period_xi, solve_beta_for_energy,
                               solve_resonant_a1, turning_point_xi)
from tricentre.special import complete_elliptic_k

# frozen from an independent plain-bisection oracle on the beta = 0 residual
# (4/sqrt(2)) K((a1+1)/2) = pi/sqrt(a1), run to the float resolution limit
A1_HAT_0_1 = 0.3051189659361163
CLASSES = st.builds(Fraction, st.integers(1, 16), st.integers(1, 16))


def resonance_residual(beta: float, a1: float, q) -> float:
    """q*T1 - T2 as the resonance solve evaluates it, domain checked."""
    periods._check_domain(beta, a1)
    return periods._residual_in_a1(beta, Fraction(q))(a1)


class TestModuli:
    def test_angular_modulus(self):
        _, k2 = modulus_squares(1.0 / 7.0, 0.25)
        assert k2 == pytest.approx(1.0 / 8.0, abs=1e-15)

    def test_beta_zero(self):
        for a1 in (0.1, 0.5, 0.9):
            k1, k2 = modulus_squares(0.0, a1)
            assert k1 == pytest.approx((a1 + 1.0) / 2.0, abs=1e-15)
            assert k2 == 0.0

    def test_small_a1_limit(self):
        k1, _ = modulus_squares(0.0, 1e-10)
        assert k1 == pytest.approx(0.5, abs=1e-9)

    def test_ranges(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            beta = rng.uniform(0.0, 0.9)
            a1 = rng.uniform(1e-3, 0.999 / (1.0 + beta))
            k1, k2 = modulus_squares(beta, a1)
            assert 0.5 < k1 < 1.0
            assert 0.0 <= k2 < 0.5


class TestPeriods:
    def test_angular_closed_form_beta_zero(self):
        for a1 in (1.0 / 9.0, 0.25):
            assert period_phi(0.0, a1) == pytest.approx(
                math.pi / math.sqrt(a1), abs=1e-12)

    def test_xi_period_small_a1_limit(self):
        limit = 4.0 / math.sqrt(2.0) * complete_elliptic_k(0.5)
        assert period_xi(0.0, 1e-8) == pytest.approx(limit, abs=1e-6)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(beta=st.floats(0.0, 0.95), u=st.floats(1e-6, 1.0 - 1e-6),
           q=CLASSES, a=st.floats(0.5, 3.0))
    def test_intensity_scaling(self, beta, u, q, a):
        """The law that fixes the primaries' intensity at 1: with tau
        rescaled by sqrt(a), intensity a at energy E is intensity 1 at E/a.
        The reference, which keeps a, must give periods sqrt(a) times
        shorter, a resonant a1_hat that solves the intensity-1 resonance,
        and an energy a times larger."""
        a1 = u / (1.0 + beta)
        # the two sides differ by at most 9.5 roundings of 2^-53 relative
        # (6 in the reference with its sqrt(a) factor, 3.5 here): 2-5 ulp
        bound = 10 * 2.0 ** -53
        for mine, theirs in ((period_xi, ref.period_xi),
                             (period_phi, ref.period_phi)):
            try:
                want = mine(beta, a1)
            except DomainError:
                continue  # on the separatrix: k1^2 rounds to 1
            assert abs(theirs(beta, a1, a) * math.sqrt(a) - want) \
                <= bound * want
        sol = solve_resonant_a1(beta, q)
        other = ref.solve_resonant_a1(beta, q, a, periods._RESONANCE_TOL)
        # the reference residual is sqrt(a) times smaller, to the rounding
        # of q*T1 and T2
        assert abs(resonance_residual(beta, other.a1_hat, q)) <= (
            math.sqrt(a) * abs(other.residual)
            + bound * (float(q) * other.t1 + other.t2) * math.sqrt(a))
        assert abs(other.energy / a - sol.energy) <= (
            2.0 * beta * abs(other.a1_hat - sol.a1_hat)
            + 4 * math.ulp(sol.energy))  # four roundings, subnormals too

    def test_monotonicity_in_a1(self):
        beta = 0.3
        grid = np.linspace(0.05, 0.99 / (1.0 + beta), 20)
        t1s = [period_xi(beta, a1) for a1 in grid]
        t2s = [period_phi(beta, a1) for a1 in grid]
        assert all(a < b for a, b in zip(t1s, t1s[1:]))
        assert all(a > b for a, b in zip(t2s, t2s[1:]))

    def test_separatrix_boundary_rejected(self):
        beta = 0.25
        with pytest.raises(DomainError):
            period_xi(beta, 1.0 / (1.0 + beta))


class TestResidual:
    def test_zero_at_solution(self):
        sol = solve_resonant_a1(0.2, Fraction(3, 2))
        assert abs(resonance_residual(0.2, sol.a1_hat, Fraction(3, 2))) <= 1e-12

    def test_divergence_at_edges(self):
        beta = 0.1
        assert resonance_residual(beta, 1e-7, 1) < -100.0
        hi = (1.0 / (1.0 + beta)) * (1.0 - 1e-12)
        assert resonance_residual(beta, hi, 1) > 1.0

    def test_strictly_increasing_in_a1(self):
        rng = np.random.default_rng(31)
        h = 1e-7
        for _ in range(100):
            beta = rng.uniform(0.0, 0.8)
            a1 = rng.uniform(0.05, 0.95 / (1.0 + beta))
            q = Fraction(rng.integers(1, 4), rng.integers(1, 4))
            slope = (resonance_residual(beta, a1 + h, q)
                     - resonance_residual(beta, a1 - h, q)) / (2.0 * h)
            assert slope > 0.0


class TestResonanceSolve:
    def test_pinned_value_beta_zero(self):
        sol = solve_resonant_a1(0.0, 1)
        assert sol.a1_hat == pytest.approx(A1_HAT_0_1, abs=1e-12)
        assert abs(sol.residual) <= 1e-12
        assert not sol.clamped

    @pytest.mark.parametrize("beta", [0.0, 1.0 / 7.0])
    def test_strictly_decreasing_in_q(self, beta):
        qs = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
        vals = [solve_resonant_a1(beta, q).a1_hat for q in qs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_endpoint_trends(self):
        beta = 1.0 / 7.0
        edge = 1.0 / (1.0 + beta)
        low_q = solve_resonant_a1(beta, Fraction(1, 64))
        high_q = solve_resonant_a1(beta, Fraction(64))
        assert low_q.a1_hat > 0.99 * edge
        assert high_q.a1_hat < 1e-3

    def test_smooth_extension_to_beta_zero(self):
        for a1 in (0.2, 0.4, 0.6):
            f0 = resonance_residual(0.0, a1, 1)
            f1 = resonance_residual(1e-8, a1, 1)
            assert abs(f1 - f0) <= 1e-6

    def test_beta_zero_solutions_interior(self):
        for q in (Fraction(1, 3), Fraction(1, 2), 1, 2, 3):
            sol = solve_resonant_a1(0.0, q)
            assert 0.0 < sol.a1_hat < 1.0

    def test_resonance_property(self):
        sol = solve_resonant_a1(0.3, Fraction(2, 3))
        assert Fraction(2, 3) * sol.t1 == pytest.approx(sol.t2, rel=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            solve_resonant_a1(0.2, Fraction(-1, 2))


class TestBetaForEnergy:
    def test_round_trip(self):
        sol = solve_resonant_a1(0.2, 1)
        back = solve_beta_for_energy(1, sol.energy)
        assert back.beta == pytest.approx(0.2, abs=1e-10)

    def test_small_energy_small_beta(self):
        sol = solve_beta_for_energy(1, -1e-6)
        assert 0.0 < sol.beta < 1e-4

    def test_energy_increases_with_class(self):
        # at fixed beta the energy is less negative for larger q
        beta = 0.2
        e1 = solve_resonant_a1(beta, 1).energy
        e2 = solve_resonant_a1(beta, 2).energy
        assert e2 > e1

    def test_out_of_range(self):
        with pytest.raises(RangeError):
            solve_beta_for_energy(2, -5.0)
        with pytest.raises(DomainError):
            solve_beta_for_energy(1, 0.5)


class TestPeriodsVsOde:
    def test_five_by_five_grid(self):
        from event_specs import XiCrossing
        from tricentre.dynamics import Params, PhiCrossing, integrate
        worst = 0.0
        phi0 = 0.3
        for beta in (0.05, 0.1, 1.0 / 7.0, 0.3, 0.5):
            for a1 in (0.05, 0.1, 0.2, 0.35, 0.5):
                prm = Params(beta=beta, a1=a1)
                t1 = period_xi(beta, a1)
                t2 = period_phi(beta, a1)
                y0 = np.array([
                    0.0, phi0, 2.0 * math.sqrt(1.0 - beta * a1 - a1),
                    2.0 * math.sqrt(beta * a1 * math.cos(phi0) ** 2 + a1)])
                traj = integrate(y0, prm, 1.05 * max(t1, t2), tol=1e-12,
                                 events=[XiCrossing(0.0, direction=+1),
                                         PhiCrossing(phi0)])
                t1_num = next(e.tau for e in traj.events
                              if e.kind == "xi_crossing")
                t2_num = next(e.tau for e in traj.events
                              if e.kind == "phi_crossing")
                worst = max(worst, abs(t1_num - t1) / t1,
                            abs(t2_num - t2) / t2)
        assert worst <= 1e-8


class TestTurningPoint:
    def test_speed_vanishes_at_turning_point(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            beta = rng.uniform(0.05, 0.8)
            a1 = rng.uniform(0.05, 0.95 / (1.0 + beta))
            xi_p = turning_point_xi(beta, a1)
            r = math.cosh(xi_p) - beta * a1 * math.cosh(xi_p) ** 2 - a1
            assert abs(r) <= 1e-12

    def test_grows_as_beta_shrinks(self):
        vals = []
        for beta in (1.0 / 7.0, 1.0 / 14.0, 1.0 / 28.0):
            sol = solve_resonant_a1(beta, 1)
            vals.append(math.cosh(turning_point_xi(beta, sol.a1_hat)))
        assert vals[0] < vals[1] < vals[2]

    def test_beta_zero_unbounded(self):
        with pytest.raises(DomainError):
            turning_point_xi(0.0, 0.3)


def test_solution_metadata():
    sol = solve_resonant_a1(0.25, Fraction(3, 2))
    assert isinstance(sol, ResonanceSolution)
    assert sol.energy == pytest.approx(-2.0 * 0.25 * sol.a1_hat)
    assert sol.full_period == pytest.approx(3 * sol.t1)


# ---------------------------------------------------------------------------
# oracle: the earlier implementation, kept in tests/resonance_reference.py

ORACLE_BETAS = (0.0, 1e-12, 0.05, 1.0 / 7.0, 0.3, 0.6, 0.99)
ORACLE_CLASSES = (Fraction(1, 64), Fraction(1, 9), Fraction(1, 2), Fraction(1),
                  Fraction(2), Fraction(3), Fraction(7, 2), Fraction(64))


def _bits(x):
    """Floats by their exact bits (signed zeros and NaNs included)."""
    return x.hex() if isinstance(x, float) else x


def _fields(sol) -> dict:
    return {name: _bits(getattr(sol, name))
            for name in sol._fields if name != "evaluations"}


def _count_residual_calls(monkeypatch) -> list:
    """Wrap the residual every solve builds; returns the a1 it is called at."""
    calls = []
    build = periods._residual_in_a1

    def counting_build(*args):
        residual = build(*args)

        def counted(a1):
            calls.append(a1)
            return residual(a1)
        return counted
    monkeypatch.setattr(periods, "_residual_in_a1", counting_build)
    return calls


def _collapsed(sol) -> bool:
    """No float meets the tolerance: stepping one float at a time from
    a1_hat towards the root, the residual changes sign within 8 steps and
    misses the tolerance at every float up to and across the change."""
    toward = math.inf if sol.residual < 0.0 else -math.inf
    a1, r = sol.a1_hat, sol.residual
    for _ in range(8):
        if abs(r) <= periods._RESONANCE_TOL:
            return False
        if (r < 0.0) != (sol.residual < 0.0):
            return True
        a1 = math.nextafter(a1, toward)
        r = resonance_residual(sol.beta, a1, sol.q)
    return False


_FLAT_ULPS = 8  # widest gap, in float spacings, a flat residual may leave


def _assert_same_root(sol, other, a=1.0):
    """The two roots agree to within what their residuals allow on a
    residual of slope `slope`, plus one float spacing: where the residual
    rounds to zero on two adjacent floats, either is a root.  other may
    solve at intensity a, where the residual carries a factor 1/sqrt(a).

    Next to the a1 domain edge the residual is flat at float resolution,
    and two equally good roots can lie a few floats apart.  A wider gap,
    of at most _FLAT_ULPS spacings, passes when no float between the roots
    has a larger unit-intensity residual than the larger of the roots'
    own."""
    if sol.a1_hat == other.a1_hat:
        return
    beta, q, a1 = sol.beta, sol.q, sol.a1_hat
    h = min(1e-6 * a1, 0.5 * (1.0 / (1.0 + beta) - a1))
    slope = (ref.resonance_residual(beta, a1 + h, q)
             - ref.resonance_residual(beta, a1 - h, q)) / (2 * h)
    allowed = 1.001 * (abs(sol.residual)
                       + abs(other.residual) * math.sqrt(a)) + 1e-14
    if abs(a1 - other.a1_hat) <= allowed / slope + math.ulp(a1):
        return
    lo, hi = sorted((a1, other.a1_hat))
    worst = max(abs(ref.resonance_residual(beta, x, q)) for x in (lo, hi))
    x = math.nextafter(lo, hi)
    for _ in range(_FLAT_ULPS):
        if x == hi:
            return
        assert abs(ref.resonance_residual(beta, x, q)) <= worst, x
        x = math.nextafter(x, hi)
    pytest.fail(f"roots {a1!r} and {other.a1_hat!r} are more than"
                f" {_FLAT_ULPS} spacings apart, beyond the slope allowance")


def _assert_like_reference(monkeypatch, beta, q):
    """The solve against the reference solver: the same root within the
    residuals' allowance, the reference formulas at the new root bitwise,
    the same clamped flag unless the collapse rule sets it, and one
    evaluation per residual call."""
    calls = _count_residual_calls(monkeypatch)
    sol = solve_resonant_a1(beta, q)
    assert sol.evaluations == len(calls)
    expect = ref.solve_resonant_a1(beta, q, 1.0, periods._RESONANCE_TOL)
    _assert_same_root(sol, expect)
    a1 = sol.a1_hat
    assert _bits(sol.t1) == _bits(ref.period_xi(beta, a1))
    assert _bits(sol.t2) == _bits(ref.period_phi(beta, a1))
    assert _bits(sol.residual) == _bits(ref.resonance_residual(beta, a1, q))
    assert sol.clamped == (expect.clamped or _collapsed(sol))
    assert sol.clamped or abs(sol.residual) <= periods._RESONANCE_TOL
    return sol


def _record_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records its positional args."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestResonanceOracle:
    @pytest.mark.parametrize("q", ORACLE_CLASSES, ids=str)
    @pytest.mark.parametrize("beta", ORACLE_BETAS)
    def test_solve_bitwise_equal_to_reference(self, monkeypatch, beta, q):
        # the formulas at the root are bitwise the reference's; the root
        # agrees within tolerance, since the iteration is not the reference's
        _assert_like_reference(monkeypatch, beta, q)

    # a and tol are the reference's: the solve runs at intensity 1 and the
    # one resonance tolerance
    @pytest.mark.parametrize("a, tol", [(0.5, 1e-12), (2.5, 1e-10),
                                        (1.0, 1e-14), (3.0, 1e-8)])
    @pytest.mark.parametrize("beta, q", [(0.0, Fraction(2, 3)),
                                         (0.2, Fraction(5)),
                                         (0.9, Fraction(1, 3)),
                                         (0.0, Fraction(1, 6))])
    def test_other_intensity_and_tolerance(self, monkeypatch, beta, q, a,
                                           tol):
        sol = _assert_like_reference(monkeypatch, beta, q)
        # at another intensity and tolerance the reference finds the same
        # root too: a1_hat does not depend on a
        _assert_same_root(sol, ref.solve_resonant_a1(beta, q, a, tol), a)

    @pytest.mark.parametrize("beta", [1.0, 1.5, -0.1, math.nan])
    def test_bad_beta_raises_like_reference(self, beta):
        with pytest.raises(DomainError) as expect:
            ref.solve_resonant_a1(beta, 1)
        with pytest.raises(DomainError) as got:
            solve_resonant_a1(beta, 1)
        assert str(got.value) == str(expect.value)

    # a1 one or two ulps below 1/(1+beta), where k1^2 rounds to 1
    @pytest.mark.parametrize("beta, a1", [
        (0.2548139567136823, 0.7969308873635483),
        (0.09376572718746067, 0.914272567829884),
        (0.028319129045484302, 0.972460758294197)])
    def test_separatrix_by_rounding_raises_like_reference(self, beta, a1):
        assert modulus_squares(beta, a1)[0] == 1.0
        for f in (ref.period_xi, period_xi,
                  lambda b, x: ref.resonance_residual(b, x, 1),
                  lambda b, x: resonance_residual(b, x, 1)):
            with pytest.raises(DomainError, match="separatrix"):
                f(beta, a1)

    def test_grid_covers_a_clamped_class(self):
        sol = solve_resonant_a1(0.0, Fraction(1, 64))
        assert sol.clamped
        assert sol.evaluations == 2  # the two bracket ends, no iteration

    def test_evaluations_reference_orbit(self):
        assert solve_resonant_a1(1.0 / 7.0, 1).evaluations == 25

    # unclamped classes of the oracle grid
    @pytest.mark.parametrize("beta, q", [
        (0.0, Fraction(3)), (0.05, Fraction(1, 2)), (1.0 / 7.0, Fraction(1)),
        (1.0 / 7.0, Fraction(3)), (0.6, Fraction(1, 9)), (0.6, Fraction(1)),
        (0.99, Fraction(1, 9)), (0.99, Fraction(1, 2))])
    def test_root_against_mpmath(self, beta, q):
        """An mpmath root of q*T1 - T2 at 30 digits lies within
        (|residual| + c)/slope of a1_hat; c = 1e-13 allows for the rounding
        of the double residual, whose periods are of size 1 to 100."""
        sol = solve_resonant_a1(beta, q)
        assert not sol.clamped
        with mpmath.workdps(30):
            b = mpmath.mpf(beta)
            qm = mpmath.mpf(q.numerator) / q.denominator
            k_phi = mpmath.ellipk(b / (1 + b))

            def residual(a1):
                root = mpmath.sqrt(1 - 4 * b * a1 * a1)
                k1sq = (a1 * (1 - b) + root) / (2 * root)
                t1 = (2 * mpmath.sqrt(2) / mpmath.sqrt(root)
                      * mpmath.ellipk(k1sq))
                return qm * t1 - 2 / mpmath.sqrt(a1 * (1 + b)) * k_phi
            start = mpmath.mpf(sol.a1_hat)  # secant from two nearby points
            root = mpmath.findroot(residual, (start, start * (1 + 1e-12)))
            assert abs(residual(root)) < mpmath.mpf(10) ** -25
            gap = abs(root - sol.a1_hat) * mpmath.diff(residual, root)
        assert gap <= abs(sol.residual) + 1e-13

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(beta=st.floats(0.0, 1.2), u=st.floats(0.0, 1.2), q=CLASSES)
    @example(beta=0.99, u=1.0 - 1e-15, q=Fraction(1))
    @example(beta=0.99, u=1.0, q=Fraction(1))
    @example(beta=1.0, u=0.5, q=Fraction(1))
    @example(beta=0.0, u=0.0, q=Fraction(1))
    @example(beta=1e-12, u=1e-12, q=Fraction(1, 64))
    def test_residual_bitwise_equal_to_reference(self, beta, u, q):
        # a1 = u/(1+beta): u >= 1 lies at or beyond the domain edge
        a1 = u / (1.0 + beta)
        try:
            expect = ref.resonance_residual(beta, a1, q)
        except DomainError:
            with pytest.raises(DomainError):
                resonance_residual(beta, a1, q)
            return
        assert _bits(resonance_residual(beta, a1, q)) == _bits(expect)

    @pytest.mark.parametrize("beta, a1", [(0.2, 0.3), (0.99, 0.5), (0.0, 0.9)])
    def test_periods_bitwise_equal_to_reference(self, beta, a1):
        assert _bits(period_xi(beta, a1)) == _bits(ref.period_xi(beta, a1))
        assert _bits(period_phi(beta, a1)) == _bits(ref.period_phi(beta, a1))
        assert modulus_squares(beta, a1) == ref.modulus_squares(beta, a1)


class TestResonanceProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(beta=st.floats(0.0, 0.99), u=st.floats(1e-6, 1.0 - 1e-6),
           v=st.floats(1e-6, 1.0 - 1e-6), q=CLASSES)
    def test_residual_strictly_increasing(self, beta, u, v, q):
        lo, hi = sorted((u, v))
        assume(hi - lo >= 1e-7)
        edge = 1.0 / (1.0 + beta)
        assert (resonance_residual(beta, lo * edge, q)
                < resonance_residual(beta, hi * edge, q))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(beta=st.floats(0.0, 0.95), q=CLASSES)
    # adjacent floats straddle the root, and neither meets the tolerance
    @example(beta=0.5052337143141371, q=Fraction(1, 15))
    @example(beta=0.03510188396706286, q=Fraction(1, 7))
    # the root lies within a float of a bracket end (36 and 35 evaluations
    # when every secant point there fell back to the midpoint)
    @example(beta=0.5737620629202244, q=Fraction(1, 10))
    @example(beta=0.9007342774397756, q=Fraction(1, 15))
    def test_solve_meets_tolerance_or_is_clamped(self, beta, q):
        sol = solve_resonant_a1(beta, q)
        assert sol.clamped or abs(sol.residual) <= periods._RESONANCE_TOL
        if abs(sol.residual) > periods._RESONANCE_TOL:
            assert _collapsed(sol)
        assert sol.evaluations <= 32
        assert 0.0 < sol.a1_hat < 1.0 / (1.0 + beta)
        assert _bits(sol.residual) == _bits(
            resonance_residual(beta, sol.a1_hat, q))


class TestBetaForEnergyOracle:
    @pytest.mark.parametrize("q, energy", [
        (1, -0.05), (2, -0.05), (3, -0.05), (Fraction(1, 2), -0.05),
        (1, -1e-6), (2, -0.1), (1, -0.3)])
    def test_bitwise_equal_to_reference(self, q, energy):
        """The energy meets the search tolerance, beta agrees with the
        reference's to within that tolerance over |dE/dbeta|, and the result
        is the plain resonance at its beta, bitwise.  (The two energy gaps
        alone do not bound the beta gap: each energy carries the a1 error
        of its own resonance solve.)"""
        sol = solve_beta_for_energy(q, energy)
        expect = ref.solve_beta_for_energy(q, energy)
        tol = periods._RESONANCE_TOL * max(1.0, abs(energy))
        assert abs(sol.energy - energy) <= tol
        if sol.beta != expect.beta:
            h = 1e-6 * sol.beta
            slope = (solve_resonant_a1(sol.beta + h, q).energy
                     - solve_resonant_a1(sol.beta - h, q).energy) / (2 * h)
            assert abs(sol.beta - expect.beta) * abs(slope) <= tol
        fresh = solve_resonant_a1.__wrapped__(sol.beta, q)
        assert _fields(sol) == _fields(fresh)

    def test_out_of_range_like_reference(self):
        with pytest.raises(RangeError):
            ref.solve_beta_for_energy(2, -5.0)
        with pytest.raises(RangeError):
            solve_beta_for_energy(2, -5.0)

    @pytest.mark.parametrize("q, floor", [(1, "6.10238e-13"),
                                          (2, "1.72251e-13")])
    def test_below_reach_refused(self, q, floor):
        # the reference answers with the beta = 1e-12 resonance instead
        assert ref.solve_beta_for_energy(q, -1e-30).beta == 1e-12
        with pytest.raises(RangeError,
                           match=re.escape(f"gives |energy| >= {floor}")):
            solve_beta_for_energy(q, -1e-30)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("energy", [-1e-11, -1e-9])
    def test_gap_relative_to_a_small_energy(self, q, energy):
        assert abs(solve_beta_for_energy(q, energy).energy - energy) \
            <= periods._RESONANCE_TOL * abs(energy)

    @pytest.mark.parametrize("q, energy, in_reach", [
        (2, -0.05, True), (1, -0.3, True), (1, -1e-30, False),
        (2, -5.0, False)])
    def test_each_nested_solve_made_once(self, monkeypatch, q, energy,
                                         in_reach):
        # the search may ask for a beta again; the solve's LRU answers it
        solve_resonant_a1.cache_clear()
        calls = _record_calls(monkeypatch, periods, "solve_resonant_a1")
        try:
            solve_beta_for_energy(q, energy)
        except RangeError:
            assert not in_reach
        else:
            assert in_reach
        betas = [c[0] for c in calls]
        assert solve_resonant_a1.cache_info().misses == len(set(betas))

    @pytest.mark.parametrize("q", [1, 2])
    def test_nested_solves_at_the_reference_energy(self, q):
        solve_resonant_a1.cache_clear()
        solve_beta_for_energy(q, -0.05)
        assert solve_resonant_a1.cache_info().misses <= 12


class TestSolveCache:
    @staticmethod
    def _typed_fields(sol) -> dict:
        return {name: (type(getattr(sol, name)), _bits(getattr(sol, name)))
                for name in sol._fields}

    @pytest.mark.parametrize("q", [1, Fraction(1), 2, Fraction(3, 2)], ids=repr)
    @pytest.mark.parametrize("beta", [0, 0.0, -0.0, 0.2, 1.0 / 7.0], ids=repr)
    def test_hit_equals_fresh_solve(self, beta, q):
        fresh = self._typed_fields(solve_resonant_a1.__wrapped__(beta, q))
        # fill the cache with every key equal to (beta, q) first: a beta of
        # another type or zero sign must not serve this call; the class is
        # keyed by its integer pair, so q and Fraction(q) share an entry
        betas = [b for b in (0, 0.0, -0.0) if b == beta] or [beta]
        classes = [Fraction(q), int(q)] if Fraction(q).denominator == 1 else [q]
        for b in betas:
            for c in classes:
                solve_resonant_a1(b, c)
        info = solve_resonant_a1.cache_info()
        assert info.currsize == len(betas)
        assert self._typed_fields(solve_resonant_a1(beta, q)) == fresh
        assert solve_resonant_a1.cache_info().hits == info.hits + 1

    def test_equal_classes_share_one_entry(self):
        classes = (1, Fraction(1), Fraction(2, 2))
        results = [solve_resonant_a1(1.0 / 7.0, q) for q in classes]
        info = solve_resonant_a1.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        solve_resonant_a1.cache_clear()
        fresh = self._typed_fields(solve_resonant_a1(1.0 / 7.0, 1))
        assert all(self._typed_fields(r) == fresh for r in results)

    def test_failure_is_not_cached(self):
        for _ in range(3):
            with pytest.raises(DomainError):
                solve_resonant_a1(-1, 1)
        info = solve_resonant_a1.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 3, 0)

    def test_map_over_one_resonance_solves_once(self):
        from tricentre.exclusion import primary_collision_check, resonant_params
        from tricentre.geometry import EllipticPoint
        xi_max = 0.9 * turning_point_xi(0.25, solve_resonant_a1.__wrapped__(
            0.25, Fraction(2)).a1_hat)
        for i in range(500):
            centre = EllipticPoint(xi_max * (i + 1) / 500, 0.0123 * i)
            prm, _ = resonant_params(centre, Fraction(2), 0.25)
            primary_collision_check(prm)
        info = solve_resonant_a1.cache_info()
        assert (info.misses, info.hits) == (1, 499)
