import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import figdata_reference
import tricentre.exclusion
import tricentre.figdata
import tricentre.periods
from intersections_reference import polyline_self_intersections
from tricentre.arcs import SeparatedPath, _self_crossings
from tricentre.cli import main
from tricentre.errors import DomainError
from tricentre.exclusion import resonant_params
from tricentre.figdata import orbit_bundle_through, orbit_family_portrait
from tricentre.geometry import EllipticPoint, elliptic_to_xy
from tricentre.params import Params
from tricentre.periods import solve_resonant_a1, turning_point_xi

CLASSES = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2),
           Fraction(2, 3), Fraction(3)]


def _crossing_count(q: Fraction) -> int:
    return q.numerator * (2 * q.denominator - 1)


def _sampled_crossings(path: SeparatedPath, n_samples: int):
    _, states = path.dense_grid(n_samples)
    return polyline_self_intersections(*elliptic_to_xy(states[:, 0],
                                                       states[:, 1]))


def _farthest_match(points, oracle) -> float:
    """Largest distance from a point to its nearest oracle point."""
    gaps = np.array(points)[:, None, :] - np.array(oracle)[None, :, :]
    return float(np.hypot(gaps[..., 0], gaps[..., 1]).min(axis=1).max())


class TestSelfCrossings:
    @pytest.mark.parametrize("q", CLASSES, ids=str)
    def test_count_matches_the_sampled_oracle(self, q):
        for track in orbit_bundle_through(q=q):
            assert len(track.crossings) == _crossing_count(q)
            assert len(polyline_self_intersections(track.x, track.y)) == \
                _crossing_count(q)

    @pytest.mark.parametrize("q", CLASSES, ids=str)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(exponent=st.floats(-6.0, math.log10(0.95)),
           depth=st.floats(0.05, 0.95),
           phi0=st.floats(0.0, 2.0 * math.pi), sign=st.sampled_from([-1, 1]),
           direction=st.sampled_from([-1, 1]))
    def test_each_pair_meets_at_one_point(self, q, exponent, depth, phi0,
                                          sign, direction):
        # depth > 0 keeps the start off the primaries, where the orbit
        # retraces itself; -xi with -phi is the same point anyway
        beta = 10.0 ** exponent
        sol = solve_resonant_a1(beta, q)
        start = EllipticPoint(depth * turning_point_xi(beta, sol.a1_hat),
                              phi0)
        path = SeparatedPath(Params(beta=beta, a1=sol.a1_hat, q=q), start,
                             sign, direction, sol.full_period)
        pairs = np.array(_self_crossings(path, q))
        t = sol.full_period
        assert pairs.shape == (_crossing_count(q), 2)
        # reduced modulo the path's own period, equal to t within rounding
        assert np.all((0.0 <= pairs) & (pairs <= (1.0 + 1e-12) * t))
        states = path.state_at(pairs)
        x, y = elliptic_to_xy(states[..., 0], states[..., 1])
        # rounding in the coordinates grows with cosh(xi), up to ~1/beta
        scale = np.maximum(1.0, np.hypot(x[:, 0], y[:, 0]))
        assert np.all(np.hypot(x[:, 0] - x[:, 1], y[:, 0] - y[:, 1])
                      <= 1e-9 * scale)

        def apart(a, b):  # distance of times on the circle of length t
            d = np.abs(a - b) % t
            return np.minimum(d, t - d)

        # no pair comes twice, in either order
        p, r = pairs[:, None, :], pairs[None, :, :]
        same = np.maximum(apart(p[..., 0], r[..., 0]),
                          apart(p[..., 1], r[..., 1]))
        swapped = np.maximum(apart(p[..., 0], r[..., 1]),
                             apart(p[..., 1], r[..., 0]))
        others = ~np.eye(len(pairs), dtype=bool)
        assert np.all(np.minimum(same, swapped)[others] > 1e-9 * t)

    @pytest.mark.parametrize("q", [1, 2])
    def test_sampled_oracle_converges_to_it(self, q):
        # the oracle's segment-chord error is second order in the spacing
        sol = solve_resonant_a1(1.0 / 7.0, q)
        centre = EllipticPoint(
            2.0 / 3.0 * turning_point_xi(1.0 / 7.0, sol.a1_hat), 0.0)
        prm = Params(beta=1.0 / 7.0, a1=sol.a1_hat, q=sol.q)
        for track, sign in zip(orbit_bundle_through(q=q), (1, -1)):
            path = SeparatedPath(prm, centre, sign, 1, sol.full_period)
            coarse, fine = (_sampled_crossings(path, n) for n in (2000, 4000))
            assert len(coarse) == len(fine) == len(track.crossings)
            assert _farthest_match(track.crossings, fine) <= \
                0.3 * _farthest_match(track.crossings, coarse)


class TestOrbitBundle:
    def test_one_resonance_solve(self, monkeypatch):
        calls = []
        solve = tricentre.periods.solve_resonant_a1

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        for module in (tricentre.figdata, tricentre.exclusion,
                       tricentre.periods):
            monkeypatch.setattr(module, "solve_resonant_a1", counted)
        orbit_bundle_through(q=1, beta=1.0 / 7.0)
        assert len(calls) == 1

    def test_tiny_beta_is_a_domain_error(self):
        # u+ = tanh^2(xi_plus/2) rounds to 1, so no xi near xi_plus has a
        # finite tanh^-1: refused, not sampled as inf and nan
        with pytest.raises(DomainError, match="beta = 1e-300"):
            orbit_bundle_through(q=2, beta=1e-300)


def _assert_same_files(argv, out, want: dict) -> None:
    """One command writes into out exactly the files of want, {name: text},
    byte for byte; a mismatch names the file and its first differing line
    (pytest's own diff of two such texts takes minutes)."""
    assert main([*argv, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(want)
    for name, text in want.items():
        got = (out / name).read_bytes().decode()
        if got != text:
            lines = got.splitlines(True), text.splitlines(True)
            k = next((k for k, (a, b) in enumerate(zip(*lines)) if a != b),
                     min(map(len, lines)))
            pytest.fail(f"{name} differs from line {k}: "
                        f"{lines[0][k:k + 1]!r} != {lines[1][k:k + 1]!r}")


class TestPerPointOracle:
    """Every figure and arc file, byte for byte, against the per-point
    evaluation with row-by-row formatting of `figdata_reference`."""

    @pytest.mark.parametrize("beta", [1.0 / 7.0, 0.3])
    @pytest.mark.parametrize("which", [3, 4, 5, 6])
    def test_figure_files(self, tmp_path, capsys, which, beta):
        _assert_same_files(["figs", str(which), f"--beta={beta!r}"],
                           tmp_path, figdata_reference.figure_files(which,
                                                                    beta))

    def test_arc_files_at_the_reference_centre(self, tmp_path, capsys):
        # acceptance test 9's centre (2/3 xi_plus, 0), beta = 1/7, q = 1
        beta = 1.0 / 7.0
        xi = 2.0 / 3.0 * turning_point_xi(beta,
                                          solve_resonant_a1(beta, 1).a1_hat)
        prm, sol = resonant_params(EllipticPoint(xi, 0.0), 1, beta)
        _assert_same_files(["arcs", "--q", "1", f"--beta={beta!r}",
                            f"--centre-elliptic={xi!r},0"], tmp_path,
                           figdata_reference.arcs_files(prm, sol))


class TestSharedMotions:
    def _count_motion_points(self, monkeypatch) -> dict:
        counts = {}
        for name in ("_xi_motion", "_phi_motion"):
            inner = getattr(SeparatedPath, name)

            def counted(path, t, lib, speed, inner=inner, name=name):
                counts[name] = counts.get(name, 0) + np.size(t)
                return inner(path, t, lib, speed)
            monkeypatch.setattr(SeparatedPath, name, counted)
        return counts

    def test_portrait_samples_each_motion_once(self, monkeypatch):
        # 19 tracks start at xi = 0 with xi' > 0 and share one xi motion;
        # the colliding pair shares one phi motion
        counts = self._count_motion_points(monkeypatch)
        tracks = orbit_family_portrait()
        assert counts == {"_xi_motion": 2 * 2000, "_phi_motion": 19 * 2000}
        assert len({id(tr.taus) for tr in tracks}) == 1
        assert len({id(tr.xi) for tr in tracks}) == 2
        assert len({id(tr.phi) for tr in tracks}) == 19

    def test_bundle_samples_each_motion_once(self, monkeypatch):
        # two xi motions, one phi motion, and each track's two crossing
        # states, one for each of the m(2n - 1) = 2 pairs of q = 2
        counts = self._count_motion_points(monkeypatch)
        tracks = orbit_bundle_through(q=2)
        assert counts == {"_xi_motion": 2 * 4000 + 4,
                          "_phi_motion": 4000 + 4}
        assert tracks[0].phi is tracks[1].phi
        assert tracks[0].xi is not tracks[1].xi
