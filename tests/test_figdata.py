import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricentre.exclusion
import tricentre.figdata
import tricentre.periods
from intersections_reference import \
    polyline_self_intersections as reference_intersections
from tricentre.errors import DomainError
from tricentre.figdata import (_merge_near_duplicates, orbit_bundle_through,
                               polyline_self_intersections)

SIZES = [1, 2, 3, 31, 32, 33, 64, 65, 4000]


def _bits(crossings):
    return [(x.hex(), y.hex()) for x, y in crossings]


def _polyline(kind: str, n: int, seed: int):
    """A drifting random walk with uneven steps or a Lissajous curve sampled
    at uneven parameter values; both cross themselves often.  The drift
    keeps a 4,000-step walk near 1,200 crossings instead of 3,800, which
    the quadratic merge of the reference takes seconds over."""
    rng = np.random.default_rng(seed)
    if kind == "walk":
        steps = rng.normal(size=(2, n)) * rng.exponential(size=n)
        return np.cumsum(steps[0] + 0.2), np.cumsum(steps[1])
    t = np.sort(rng.uniform(0.0, 30.0, size=n))
    fx, fy = rng.uniform(1.0, 5.0, size=2)
    return 2.0 * np.sin(fx * t + 0.3), 1.5 * np.sin(fy * t)


def _contact_across_block_gap():
    """Segments 31 and 64 meet only through rounding, across a box gap.

    Segment 31 runs from (-1000, 0) to (0.5, 0); segment 64 is vertical at
    x0, one ulp right of 0.5.  They do not touch, but x0 - (-1000) rounds
    to 0.5 - (-1000), so the computed t is exactly 1 and the pair reads as
    a crossing at (0.5, 0).  The boxes of blocks 0 (segments 0-31) and 2
    (segments 64-95) are disjoint by that one ulp; block 1 takes the path
    around.
    """
    x0 = math.nextafter(0.5, 1.0)
    pts = [(-1000.0 + 3.0 * k, -40.0 - k) for k in range(31)]
    pts += [(-1000.0, 0.0), (0.5, 0.0), (-5.0, -20.0)]
    pts += [(5.0, -20.0 + 50.0 * k / 28.0) for k in range(29)]
    pts += [(x0, 20.0), (x0, 1.0), (x0, -1.0)]
    pts += [(x0 + 0.1 * k, -1.0 - 0.2 * k) for k in range(1, 32)]
    xy = np.array(pts)
    return xy[:, 0], xy[:, 1]


class TestSelfIntersectionOracle:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["walk", "lissajous"]),
           n=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, kind, n, seed):
        x, y = _polyline(kind, n, seed)
        assert _bits(polyline_self_intersections(x, y)) == \
            _bits(reference_intersections(x, y))

    @pytest.mark.parametrize("n", SIZES)
    def test_every_size(self, n):
        for kind in ("walk", "lissajous"):
            x, y = _polyline(kind, n, seed=n)
            assert _bits(polyline_self_intersections(x, y)) == \
                _bits(reference_intersections(x, y))

    @pytest.mark.parametrize("q", [1, 2])
    def test_orbit_bundle_tracks(self, q):
        for track in orbit_bundle_through(q=q):
            got = polyline_self_intersections(track.x, track.y)
            assert got, "every bundle track crosses itself"
            assert _bits(got) == _bits(reference_intersections(track.x,
                                                               track.y))

    def test_rounding_contact_across_block_gap(self):
        x, y = _contact_across_block_gap()
        assert len(x) == 97  # three blocks of 32 segments
        assert x[:33].max() < x[64:].min()
        want = reference_intersections(x, y)
        assert want == [(0.5, 0.0)]
        assert _bits(polyline_self_intersections(x, y)) == _bits(want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 5, 31, 32, 33, 99])
    def test_non_finite_sample(self, bad, at):
        # the block holding the sample keeps its other crossings
        x, y = _polyline("lissajous", 100, seed=at)
        x[at] = bad
        with np.errstate(all="ignore"):
            assert _bits(polyline_self_intersections(x, y)) == \
                _bits(reference_intersections(x, y))

    def test_empty_and_single_point(self):
        for x in (np.zeros(0), np.zeros(1)):
            assert polyline_self_intersections(x, x) == []

    def test_thousands_of_crossings(self):
        # without drift the walk keeps coming back across itself
        rng = np.random.default_rng(5)
        steps = rng.normal(size=(2, 4000)) * rng.exponential(size=4000)
        x, y = np.cumsum(steps[0]), np.cumsum(steps[1])
        got = polyline_self_intersections(x, y)
        assert len(got) > 3000
        assert _bits(got) == _bits(reference_intersections(x, y))


class TestNearDuplicateMerge:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4),
                              st.floats(-1.5e-3, 1.5e-3),
                              st.floats(-1.5e-3, 1.5e-3)), max_size=300))
    def test_clustered_points_keep_the_plain_scan(self, offsets):
        # points crowd the lattice of multiples of 1e-3
        pts = [(k * 1e-3 + dx, m * 1e-3 + dy) for k, m, dx, dy in offsets]
        merged = _merge_near_duplicates(pts)

        def dist(p, m):
            return math.hypot(p[0] - m[0], p[1] - m[1])

        # the kept points are pairwise more than 1e-3 apart ...
        assert all(dist(p, m) > 1e-3
                   for i, p in enumerate(merged) for m in merged[:i])
        # ... and come in input order, and every other point lies within
        # 1e-3 of a point kept before it
        j = 0
        for p in pts:
            if j < len(merged) and p is merged[j]:
                j += 1
            else:
                assert any(dist(p, m) <= 1e-3 for m in merged[:j])
        assert j == len(merged)

    def test_exactly_radius_apart_merges(self):
        assert _merge_near_duplicates([(0.0, 0.0), (1e-3, 0.0)]) == \
            [(0.0, 0.0)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e13])
    def test_non_finite_or_huge_coordinate(self, bad):
        pts = [(0.0, 0.0), (bad, 0.0), (5e-4, 0.0), (0.0, bad), (2e-3, 1e-4),
               (bad, bad), (3e-3, 0.0)]
        # a NaN distance is not above the radius, so a point with a NaN
        # coordinate is dropped once a point is kept; an infinite one is
        if math.isnan(bad):
            want = [pts[0], pts[4], pts[6]]
        else:
            want = [p for i, p in enumerate(pts) if i != 2]
        assert _bits(_merge_near_duplicates(pts)) == _bits(want)


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
