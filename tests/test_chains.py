import functools
import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tricentre import chains
from tricentre.chains import (ChainGraph, CollisionChain, assemble_chain,
                              build_alphabet, build_graph,
                              count_periodic_chains, entropy_estimate)
from tricentre.errors import DomainError, RangeError, StructuralError
from tricentre.geometry import EllipticPoint

F = Fraction

CASE_I_ORDER = [(F(1), 1, 1), (F(1), -1, -1), (F(1), 1, -1), (F(1), -1, 1)]


def reordered_adjacency(graph, order):
    idx = [graph.nodes.index(lb) for lb in order]
    return graph.adjacency[np.ix_(idx, idx)].astype(int)


def admissible(graph, labels):
    """True when the graph has an edge between every two consecutive labels."""
    return all(graph.adjacency[graph.nodes.index(a), graph.nodes.index(b)]
               for a, b in zip(labels, labels[1:]))


def brute_force_closed_walks(adj, n):
    """Independent oracle: DFS enumeration of closed walks of length n."""
    size = len(adj)
    count = 0

    def walk(start, node, depth):
        nonlocal count
        if depth == n:
            count += int(bool(adj[node][start]))
            return
        for nxt in range(size):
            if adj[node][nxt]:
                walk(start, nxt, depth + 1)

    for s in range(size):
        walk(s, s, 1)
    return count


def charpoly(adj):
    """Exact characteristic polynomial det(x I - A), highest degree first.

    Faddeev-LeVerrier over Python ints: M_k = A M_{k-1} + c_{k-1} I and
    c_k = -trace(A M_k) / k, each division exact for an integer matrix.
    """
    size = len(adj)
    m = [[0] * size for _ in range(size)]
    coeffs = [1]
    for k in range(1, size + 1):
        m = [[sum(adj[i][l] * m[l][j] for l in range(size))
              + (coeffs[-1] if i == j else 0) for j in range(size)]
             for i in range(size)]
        trace = sum(adj[i][l] * m[l][i] for i in range(size)
                    for l in range(size))
        coeffs.append(-trace // k)
    return coeffs


def _poly_divmod(a, b):
    """Quotient and remainder of a by b, coefficients highest first."""
    q, r = [], list(a)
    while len(r) >= len(b):
        f = r[0] / b[0]
        q.append(f)
        r = [x - f * y for x, y in zip(r, b + [0] * (len(r) - len(b)))][1:]
    while r and r[0] == 0:
        r = r[1:]
    return q, r


def squarefree(p):
    """p / gcd(p, p') over the rationals: the roots of p, each simple."""
    p = [Fraction(c) for c in p]
    g, r = p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
    while r:
        g, r = r, _poly_divmod(g, r)[1]
    return _poly_divmod(p, g)[0]


def oracle_entropy(adj):
    """log max(rho, 1) from the exact characteristic polynomial, or None
    when the graph is nilpotent (characteristic polynomial x^N)."""
    return _entropy_of_charpoly(tuple(charpoly(adj)))


@functools.lru_cache(maxsize=None)
def _entropy_of_charpoly(p):
    if not any(p[1:]):
        return None
    with mpmath.workdps(30):
        q = [mpmath.mpf(c.numerator) / c.denominator for c in squarefree(p)]
        roots = mpmath.polyroots(q, maxsteps=200, extraprec=60)
        return float(mpmath.log(max(max(abs(r) for r in roots), 1)))


def check_entropy_against_oracle(adj, tol):
    g = ChainGraph(nodes=[(F(1), 1, k) for k in range(len(adj))],
                   adjacency=adj)
    want = oracle_entropy(adj.astype(int).tolist())
    if want is None:
        with pytest.warns(UserWarning, match="nilpotent"):
            assert entropy_estimate(g) == 0.0
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(entropy_estimate(g) - want) <= tol


class TestAlphabet:
    def test_single_class(self):
        arcs = build_alphabet(EllipticPoint(0.6, 0.0), [1], -0.05)
        assert len(arcs) == 4
        assert len({round(a.params.a1, 14) for a in arcs}) == 1

    def test_two_classes_distinct_velocity_components(self):
        arcs = build_alphabet(EllipticPoint(0.6, 0.0), [1, 2], -0.05)
        assert len(arcs) == 8
        assert all(abs(a.energy + 0.05) <= 1e-10 for a in arcs)
        # the classes carry distinct a1, so the (|xi'|, |phi'|) splits differ;
        # the total speed is fixed by the energy at the shared point
        comp = {q: {(round(abs(a.v0[0]), 12), round(abs(a.v0[1]), 12))
                    for a in arcs if a.label.q == q}
                for q in (F(1), F(2))}
        assert comp[F(1)].isdisjoint(comp[F(2)])
        speeds = {float(np.hypot(*a.v0)) for a in arcs}
        assert max(speeds) - min(speeds) <= 1e-10

    def test_unreachable_energy_refused(self):
        with pytest.raises(RangeError):
            build_alphabet(EllipticPoint(0.6, 0.0), [2], -5.0)

    def test_empty_classes_rejected(self):
        with pytest.raises(DomainError):
            build_alphabet(EllipticPoint(0.6, 0.0), [], -0.05)


class TestGraph:
    def test_case_i_block_antidiagonal(self, q1_family):
        g = build_graph(q1_family)
        adj = reordered_adjacency(g, CASE_I_ORDER)
        j = np.ones((2, 2), dtype=int)
        z = np.zeros((2, 2), dtype=int)
        expect = np.block([[z, j], [j, z]])
        assert np.array_equal(adj, expect)

    def test_case_ii_block_diagonal(self, yaxis_family):
        g = build_graph(yaxis_family)
        adj = reordered_adjacency(g, CASE_I_ORDER)
        j = np.ones((2, 2), dtype=int)
        z = np.zeros((2, 2), dtype=int)
        expect = np.block([[j, z], [z, j]])
        assert np.array_equal(adj, expect)

    def test_two_class_graph_strongly_connected(self):
        arcs = build_alphabet(EllipticPoint(0.6, 0.0), [1, 2], -0.05)
        g = build_graph(arcs)
        # every node reaches every other within a few steps
        reach = np.linalg.matrix_power(
            g.adjacency.astype(np.int64) + np.eye(8, dtype=np.int64), 8)
        assert np.all(reach > 0)

    def test_mixed_energy_rejected(self, q1_family, q2_family):
        with pytest.raises(DomainError):
            build_graph([q1_family[0], q2_family[0]])


class TestCounts:
    def test_case_i_exact(self, q1_family):
        g = build_graph(q1_family)
        for n in range(1, 13):
            expect = 2 ** (n + 1) if n % 2 == 0 else 0
            assert count_periodic_chains(g, n) == expect

    def test_case_ii_exact(self, yaxis_family):
        g = build_graph(yaxis_family)
        for n in range(1, 13):
            assert count_periodic_chains(g, n) == 2 ** (n + 1)

    def test_matches_brute_force_enumeration(self, q1_family):
        g = build_graph(q1_family)
        adj = g.adjacency.astype(int).tolist()
        for n in range(1, 9):
            assert count_periodic_chains(g, n) == brute_force_closed_walks(adj, n)

    def test_brute_force_on_random_graph(self):
        rng = np.random.default_rng(19)
        adj = (rng.random((6, 6)) < 0.4)
        g = ChainGraph(nodes=[(F(1), 1, k) for k in range(6)],
                       adjacency=adj)
        for n in range(1, 8):
            assert count_periodic_chains(g, n) == \
                brute_force_closed_walks(adj.astype(int).tolist(), n)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(adj=st.integers(1, 12).flatmap(
        lambda k: hnp.arrays(np.bool_, (k, k))))
    def test_trace_of_matrix_power(self, adj):
        g = ChainGraph(nodes=[(F(1), 1, k) for k in range(len(adj))],
                       adjacency=adj)
        a = adj.astype(np.int64)
        for n in range(1, 9):
            assert count_periodic_chains(g, n) == \
                int(np.trace(np.linalg.matrix_power(a, n)))

    def test_count_beyond_int64_is_exact(self):
        g = ChainGraph(nodes=[(F(1), 1, k) for k in range(12)],
                       adjacency=np.ones((12, 12), dtype=bool))
        assert count_periodic_chains(g, 40) == 12 ** 40

    def test_bad_period(self, q1_family):
        with pytest.raises(DomainError):
            count_periodic_chains(build_graph(q1_family), 0)


class TestEntropy:
    def test_case_i_log_two(self, q1_family):
        assert entropy_estimate(build_graph(q1_family)) == pytest.approx(
            math.log(2.0), abs=1e-9)

    def test_case_ii_log_two(self, yaxis_family):
        assert entropy_estimate(build_graph(yaxis_family)) == pytest.approx(
            math.log(2.0), abs=1e-9)

    def test_edgeless_graph_warns_zero(self):
        g = ChainGraph(nodes=[(F(1), 1, 1), (F(1), -1, 1)],
                       adjacency=np.zeros((2, 2), dtype=bool))
        with pytest.warns(UserWarning):
            assert entropy_estimate(g) == 0.0

    def test_graph_with_a_cycle_skips_the_nilpotency_power(self, monkeypatch):
        # its spectral radius is >= 1, so only eigvals is needed
        calls = []
        power = chains._adjacency_power
        monkeypatch.setattr(chains, "_adjacency_power",
                            lambda g, n: calls.append(n) or power(g, n))
        adj = np.triu(np.ones((32, 32), dtype=bool), k=1)
        adj[31, 0] = True  # closes a 32-cycle through every node
        g = ChainGraph(nodes=[(F(1), 1, k) for k in range(32)], adjacency=adj)
        assert entropy_estimate(g) > 0.0
        assert calls == []

    def test_lower_bound_for_safe_alphabet(self, q2_family):
        assert entropy_estimate(build_graph(q2_family)) >= math.log(2.0) - 1e-9

    @pytest.mark.parametrize("size", [2, 3])
    def test_every_small_graph_against_oracle(self, size):
        for bits in itertools.product((False, True), repeat=size * size):
            check_entropy_against_oracle(
                np.array(bits, dtype=bool).reshape(size, size), 1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(adj=st.integers(4, 12).flatmap(
        lambda k: hnp.arrays(np.bool_, (k, k))))
    def test_random_graph_against_oracle(self, adj):
        check_entropy_against_oracle(adj, 1e-12)

    @pytest.mark.parametrize("adj", [
        [[1, 1, 1, 0, 0], [0, 1, 0, 0, 1], [1, 1, 0, 0, 0], [0, 1, 0, 1, 0],
         [0, 1, 0, 0, 0]],
        [[1, 0, 0, 1, 0], [0, 0, 1, 0, 1], [0, 1, 1, 0, 1], [1, 0, 0, 0, 0],
         [1, 0, 0, 0, 1]],
    ])
    def test_defective_spectral_radius(self, adj):
        # charpoly (x^2 - x - 1)^2 (x - 1): two components share the root
        # phi^2, and eigvals of the whole matrix misses it by 2e-8 and 4e-9
        assert charpoly(adj) == [1, -3, 1, 3, -1, -1]
        check_entropy_against_oracle(np.array(adj, dtype=bool), 1e-12)

    def test_alphabet_graphs_against_oracle(self, q1_family, yaxis_family,
                                            q2_family):
        for family in (q1_family, yaxis_family, q2_family):
            check_entropy_against_oracle(build_graph(family).adjacency, 1e-12)

    @pytest.mark.parametrize("copies", [2, 3])
    @pytest.mark.parametrize("block", [
        np.ones((2, 2), dtype=bool),
        np.block([[np.zeros((2, 2)), np.ones((2, 2))],
                  [np.ones((2, 2)), np.zeros((2, 2))]]).astype(bool),
    ])
    def test_chained_log_two_blocks(self, block, copies):
        # block-triangular: one edge from each copy into the next, so the
        # spectral radius 2 is a defective eigenvalue of multiplicity copies
        m = len(block)
        adj = np.zeros((copies * m, copies * m), dtype=bool)
        for i in range(copies):
            adj[i * m:(i + 1) * m, i * m:(i + 1) * m] = block
            if i + 1 < copies:
                adj[i * m, (i + 1) * m] = True
        g = ChainGraph(nodes=[(F(1), 1, k) for k in range(len(adj))],
                       adjacency=adj)
        assert entropy_estimate(g) == pytest.approx(math.log(2.0), abs=1e-12)


class TestChainAssembly:
    def test_constant_word_alternates_pairs(self, q1_family):
        g = build_graph(q1_family)
        chain = assemble_chain(g, [1], 6)
        assert len(chain) == 6
        assert admissible(g, chain.labels)
        # case i: consecutive arcs always come from opposite direction pairs
        pair = {(1, 1): 0, (-1, -1): 0, (1, -1): 1, (-1, 1): 1}
        ids = [pair[(lb.sign, lb.direction)] for lb in chain.labels]
        assert all(a != b for a, b in zip(ids, ids[1:]))

    def test_alternating_word(self):
        arcs = build_alphabet(EllipticPoint(0.6, 0.0), [1, 2], -0.05)
        g = build_graph(arcs)
        chain = assemble_chain(g, [1, 2], 6)
        assert [lb.q for lb in chain.labels] == [F(1), F(2)] * 3
        assert admissible(g, chain.labels)

    def test_single_arc_chain(self, q1_family):
        g = build_graph(q1_family)
        chain = assemble_chain(g, [1], 1)
        assert len(chain) == 1

    def test_impossible_word_raises(self, q1_family):
        # restricting to one parallel pair leaves no admissible transition
        sub = [arc for arc in q1_family
               if (arc.label.sign, arc.label.direction) in ((1, 1), (-1, -1))]
        g = build_graph(sub)
        with pytest.raises(StructuralError):
            assemble_chain(g, [1], 2)

    def test_unknown_class_rejected(self, q1_family):
        g = build_graph(q1_family)
        with pytest.raises(DomainError):
            assemble_chain(g, [3], 2)


def test_chain_admissibility_check(q1_family):
    g = build_graph(q1_family)
    bad = CollisionChain((g.nodes[0], g.nodes[1]))  # parallel pair, no edge
    assert not admissible(g, bad.labels)
