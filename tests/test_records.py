"""Contracts of the package's records: immutable, validated on every
construction path, and printed as the dataclasses they replaced printed.

The repr oracle is a dataclass made here with the record's name and fields
(`dataclasses.make_dataclass`): the text that names output files
(`str(centre)` in the parameter hash) must not move.
"""
import copy
import dataclasses
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricentre.arcs import ArcLabel, build_arc
from tricentre.chains import ChainGraph, CollisionChain
from tricentre.dynamics import EventRecord, PhiCrossing
from tricentre.errors import DomainError, StructuralError
from tricentre.exclusion import (nondegeneracy_certificate,
                                 primary_collision_check, resonant_params)
from tricentre.figdata import OrbitTrack
from tricentre.geometry import TWO_PI, CartesianPoint, EllipticPoint
from tricentre.params import Params, _check_centre
from tricentre.periods import solve_resonant_a1
from tricentre.shadow import ShadowResult

F = Fraction
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ANY_FLOAT = st.floats()
CLASSES = st.builds(F, st.integers(1, 12), st.integers(1, 12))
LABEL = ArcLabel(F(1), 1, -1)
# one whole family, in pairs (sign*direction +1, then -1), whose arcs may
# not precede their own pair: the graph of a family with no early return
FAMILY = [ArcLabel(F(1), 1, 1), ArcLabel(F(1), -1, -1), LABEL,
          ArcLabel(F(1), -1, 1)]
OWN_PAIR_FORBIDDEN = np.kron(np.array([[False, True], [True, False]]),
                             np.ones((2, 2), dtype=bool))


def _fields(record) -> tuple:
    """Field names and values as the replaced dataclass held them."""
    if isinstance(record, CollisionChain):
        return ("labels",), (record.labels,)
    return record._fields, tuple(record)


def _dataclass_text(record) -> tuple[str, str]:
    names, values = _fields(record)
    twin = dataclasses.make_dataclass(type(record).__name__, names)(*values)
    return repr(twin), str(twin)


@pytest.fixture(scope="module")
def records():
    """One instance of every record of the package."""
    prm, _ = resonant_params(EllipticPoint(0.4, 0.7), 1, 1.0 / 7.0)
    arc = build_arc(prm, 1, 1)
    graph = ChainGraph(nodes=FAMILY, adjacency=OWN_PAIR_FORBIDDEN)
    xs = np.linspace(0.0, 1.0, 3)
    return [
        CartesianPoint(0.25, -0.5), EllipticPoint(0.4, 7.0), prm,
        solve_resonant_a1(1.0 / 7.0, F(3, 2)),
        primary_collision_check(prm), nondegeneracy_certificate(0.2, 2),
        arc, graph, CollisionChain((LABEL, LABEL)),
        PhiCrossing(0.5),
        EventRecord("phi_crossing", 1.5, xs, PhiCrossing(0.0)),
        ShadowResult(1e-3, 0.04, 1e-3, 1e-9, True, 1e-2, 1e-10, 4, 1e-5,
                     3.0, xs, prm, residual_history=(1e-3, 1e-10)),
        OrbitTrack("orbit_pos", xs, xs, xs, xs, xs, False, [(0.0, 0.5)]),
    ]


class TestImmutable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pick=st.integers(0, 10 ** 6), value=st.one_of(ANY_FLOAT, st.none(),
                                                          st.text()))
    def test_assigning_a_field_raises(self, records, pick, value):
        record = records[pick % len(records)]
        before = repr(record)
        for name in _fields(record)[0]:
            with pytest.raises(AttributeError):
                setattr(record, name, value)
        assert repr(record) == before

    def test_no_record_takes_new_attributes(self, records):
        for record in records:
            with pytest.raises(AttributeError):
                record.extra = 1.0


def test_every_record_copies_and_pickles(records):
    def text(record):  # an arc's path prints its address
        return re.sub(r" at 0x[0-9a-f]+", "", repr(record))

    for record in records:
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and text(twin) == text(record)


class TestText:
    def test_every_record_prints_as_its_dataclass(self, records):
        for record in records:
            assert (repr(record), str(record)) == _dataclass_text(record)

    def test_event_specs_keep_their_fixed_fields(self):
        assert str(PhiCrossing(0.5)) == \
            "PhiCrossing(value=0.5, kind='phi_crossing', direction=0)"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=ANY_FLOAT, y=ANY_FLOAT)
    def test_cartesian_point(self, x, y):
        point = CartesianPoint(x, y)
        assert (repr(point), str(point)) == _dataclass_text(point)
        assert str(point) == f"CartesianPoint(x={x!r}, y={y!r})"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(xi=FINITE, phi=FINITE)
    def test_elliptic_point(self, xi, phi):
        point = EllipticPoint(xi, phi)
        assert str(point) == f"EllipticPoint(xi={xi!r}, phi={EllipticPoint(0.0, phi).phi!r})"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(beta=st.floats(0.0, 0.99), frac=st.floats(1e-6, 0.999), q=CLASSES,
           eps=st.floats(0.0, 1.0), x=st.floats(-5.0, 5.0),
           y=st.floats(0.01, 5.0))
    def test_params(self, beta, frac, q, eps, x, y):
        a1 = frac / (1.0 + beta)
        prm = Params(beta=beta, a1=a1, q=q, eps=eps, centre=CartesianPoint(x, y))
        assert (repr(prm), str(prm)) == _dataclass_text(prm)
        assert str(prm) == (f"Params(a=1.0, beta={beta!r}, a1={a1!r},"
                            f" q={q!r}, eps={eps!r},"
                            f" centre=CartesianPoint(x={x!r}, y={y!r}))")


def _every_path(**bad):
    """The ways to construct a Params that holds the fields of bad on the
    reference instance: keyword, positional, _make, _replace and, for eps,
    with_eps."""
    base = Params(beta=0.2, a1=0.3, q=F(2), eps=0.0,
                  centre=CartesianPoint(0.3, 0.4))
    fields = {**base._asdict(), **bad}
    paths = [lambda: Params(**fields), lambda: Params(*fields.values()),
             lambda: Params._make(fields.values()),
             lambda: base._replace(**bad)]
    if set(bad) == {"eps"}:
        paths.append(lambda: base.with_eps(bad["eps"]))
    return paths


class TestParamsRefuses:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(eps=st.one_of(st.just(math.nan), st.just(math.inf),
                         st.floats(max_value=-1e-300)))
    def test_bad_eps(self, eps):
        for build in _every_path(eps=eps):
            with pytest.raises(DomainError):
                build()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(beta=st.one_of(ANY_FLOAT, st.floats(0.0, 0.99)), a1=ANY_FLOAT)
    def test_out_of_domain_beta_or_a1(self, beta, a1):
        inside = (0.0 <= beta < 1.0 and 0.0 < a1 < 1.0 / (1.0 + beta))
        for build in _every_path(beta=beta, a1=a1):
            if inside:
                assert (build().beta, build().a1) == (beta, a1)
            else:
                with pytest.raises(DomainError):
                    build()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(q=st.one_of(st.integers(max_value=0),
                       st.builds(F, st.integers(max_value=0), st.integers(1, 9)),
                       st.floats(0.5, 3.0), st.text(max_size=3)))
    def test_non_positive_or_untyped_q(self, q):
        for build in _every_path(q=q):
            with pytest.raises(DomainError):
                build()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(side=st.sampled_from((-1.0, 1.0)), dx=st.floats(-7e-13, 7e-13),
           dy=st.floats(-7e-13, 7e-13))
    def test_centre_on_a_primary(self, side, dx, dy):
        for build in _every_path(centre=CartesianPoint(side + dx, dy)):
            with pytest.raises(DomainError, match="primary"):
                build()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(x=st.one_of(st.floats(-1.0 - 3e-12, -1.0 + 3e-12),
                       st.floats(1.0 - 3e-12, 1.0 + 3e-12), ANY_FLOAT),
           y=st.one_of(st.floats(-3e-12, 3e-12), ANY_FLOAT))
    def test_centre_refused_where_the_centre_check_refuses(self, x, y):
        # Params tests the distance to the nearer primary, and leaves the
        # messages and the edge cases to _check_centre
        centre = CartesianPoint(x, y)
        try:
            _check_centre(centre)
        except DomainError:
            with pytest.raises(DomainError):
                Params(beta=0.2, a1=0.3, centre=centre)
        else:
            assert Params(beta=0.2, a1=0.3, centre=centre).centre is centre

    @pytest.mark.parametrize("centre", [CartesianPoint(math.nan, 0.0),
                                        CartesianPoint(0.0, -math.inf)])
    def test_centre_not_finite(self, centre):
        for build in _every_path(centre=centre):
            with pytest.raises(DomainError, match="finite"):
                build()

    def test_int_class_becomes_a_fraction(self):
        for build in _every_path(q=3):
            q = build().q
            assert type(q) is Fraction and q == 3

    def test_a_is_fixed_and_keyword_built(self):
        # the benchmark builds Params(a=1.0, beta=..., a1=..., q=...)
        assert Params(a=1.0, beta=0.1, a1=0.2, q=F(1)).a == 1.0
        for build in _every_path(a=2.0):
            with pytest.raises(DomainError, match="intensity"):
                build()


class TestEllipticPhi:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(xi=FINITE, phi=FINITE)
    def test_phi_wrapped_on_every_path(self, xi, phi):
        point = EllipticPoint(xi, phi)
        for p in (point, EllipticPoint(0.0, 0.0)._replace(phi=phi),
                  EllipticPoint._make((xi, phi)), point.conjugate):
            assert 0.0 <= p.phi < TWO_PI
        assert point.phi == EllipticPoint(0.0, phi).phi


def test_graph_shape_checked_on_every_path():
    # the shape first, then the pair law: whole families, each arc
    # forbidding exactly the two arcs of one pair
    graph = ChainGraph(FAMILY, OWN_PAIR_FORBIDDEN)
    ones = np.ones((4, 4), dtype=bool)
    for build in (lambda: ChainGraph(FAMILY, ones[:3, :3]),
                  lambda: graph._replace(nodes=FAMILY[:1]),
                  lambda: graph._replace(adjacency=ones),
                  lambda: ChainGraph._make((FAMILY[:2], ones[:2, :2]))):
        with pytest.raises(StructuralError):
            build()


def test_graph_pair_cycles_derived_on_every_path():
    # each pair forbids itself: pi is the identity on the family's two
    # pairs; with the other pair forbidden, pi swaps them
    graph = ChainGraph(FAMILY, OWN_PAIR_FORBIDDEN)
    assert graph.pair_cycles == (1, 1)
    swapped = ~OWN_PAIR_FORBIDDEN
    for build in (lambda: ChainGraph(FAMILY, swapped),
                  lambda: graph._replace(adjacency=swapped),
                  lambda: ChainGraph._make((FAMILY, swapped, (1, 1)))):
        assert build().pair_cycles == (2,)
    assert graph._replace(pair_cycles=(2,)).pair_cycles == (1, 1)
    for twin in (copy.deepcopy(graph), pickle.loads(pickle.dumps(graph))):
        assert twin.pair_cycles == (1, 1)


def test_chain_is_its_word():
    chain = CollisionChain((LABEL, ArcLabel(F(1), -1, 1)))
    assert len(chain) == 2 and chain.labels == tuple(chain)
    assert chain[0] == LABEL
