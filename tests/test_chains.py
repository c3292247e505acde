import functools
import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricentre.arcs import ArcLabel
from tricentre.chains import (ChainGraph, CollisionChain, assemble_chain,
                              build_alphabet, build_graph,
                              count_periodic_chains, entropy_estimate)
from tricentre.errors import (DomainError, RangeError, StructuralError,
                              UnsafeCentreError)
from tricentre.geometry import CartesianPoint, EllipticPoint

F = Fraction

# one family in pairs: sign*direction +1 (arcs 0, 1), then -1 (arcs 2, 3)
CASE_I_ORDER = [(F(1), 1, 1), (F(1), -1, -1), (F(1), 1, -1), (F(1), -1, 1)]
CLASS_POOL = [F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3)]
AXES = [0.0, math.pi / 2.0, math.pi, 1.5 * math.pi]  # on-axis: early returns


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
    successors = [[j for j in range(size) if adj[i][j]] for i in range(size)]
    count = 0

    def walk(start, node, depth):
        nonlocal count
        if depth == n:
            count += int(bool(adj[node][start]))
            return
        for nxt in successors[node]:
            walk(start, nxt, depth + 1)

    for s in range(size):
        walk(s, s, 1)
    return count


def int_power_trace(adj, n):
    """trace(A^n) over Python ints, by n - 1 row-times-column products."""
    a = np.asarray(adj).astype(int).tolist()
    columns = list(zip(*a))
    power = a
    for _ in range(n - 1):
        power = [[sum(x * y for x, y in zip(row, col)) for col in columns]
                 for row in power]
    return sum(power[i][i] for i in range(len(power)))


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
    """log of the spectral radius, from the roots of the exact
    characteristic polynomial."""
    return _entropy_of_charpoly(tuple(charpoly(adj)))


@functools.lru_cache(maxsize=None)
def _entropy_of_charpoly(p):
    with mpmath.workdps(30):
        q = [mpmath.mpf(c.numerator) / c.denominator for c in squarefree(p)]
        roots = mpmath.polyroots(q, maxsteps=200, extraprec=60)
        return float(mpmath.log(max(abs(r) for r in roots)))


def check_entropy_against_oracle(graph, tol):
    entropy = entropy_estimate(graph)
    assert entropy == math.log(graph.n_nodes - 2)
    assert abs(entropy - oracle_entropy(graph.adjacency.astype(int).tolist())) \
        <= tol


def pair_map(graph):
    """The pair whose two arcs the arcs of each pair (q, sign*direction)
    may not precede, read from the zeros of the rows."""
    pairs = [(lb.q, lb.sign * lb.direction) for lb in graph.nodes]
    pi = {}
    for pair, row in zip(pairs, graph.adjacency):
        zeros = [pairs[j] for j in np.flatnonzero(~row)]
        assert len(zeros) == 2 and zeros[0] == zeros[1]
        assert pi.setdefault(pair, zeros[0]) == zeros[0]
    return pi


def law_graph(classes, perm):
    """The graph over whole families of the classes in which the arcs of
    pair k may not precede those of pair perm[k]; each class lists its
    arcs in CASE_I_ORDER, so pairs 2c and 2c + 1 belong to class c."""
    nodes = [ArcLabel(F(q), s, d) for q in classes
             for _, s, d in CASE_I_ORDER]
    adj = np.ones((len(nodes), len(nodes)), dtype=bool)
    for i in range(len(nodes)):
        adj[i, 2 * perm[i // 2]:2 * perm[i // 2] + 2] = False
    return ChainGraph(nodes, adj)


def alphabet_graph(xi, phi, classes, energy=-0.05):
    """The graph of the alphabet at the centre (xi, phi), or None when
    there is none: an unsafe centre or an unreachable energy."""
    try:
        arcs = build_alphabet(EllipticPoint(xi, phi), classes, energy)
    except (DomainError, UnsafeCentreError):
        return None
    return build_graph(arcs)


@pytest.fixture(scope="module")
def seeded_graphs():
    """30 alphabets of one to three classes at E = -0.05, half of the
    centres on a symmetry axis."""
    rng = random.Random(3)
    graphs = []
    while len(graphs) < 30:
        classes = rng.sample(CLASS_POOL, rng.randint(1, 3))
        phi = (rng.choice(AXES) if rng.random() < 0.5
               else rng.uniform(0.0, 2.0 * math.pi))
        graph = alphabet_graph(rng.uniform(0.05, 1.2), phi, classes)
        if graph is not None:
            graphs.append(graph)
    return graphs


DRAWN_GRAPHS = st.builds(
    alphabet_graph, xi=st.floats(0.05, 1.2),
    phi=st.one_of(st.sampled_from(AXES), st.floats(0.0, 2.0 * math.pi)),
    classes=st.lists(st.sampled_from(CLASS_POOL), min_size=1, max_size=3,
                     unique=True),
    energy=st.sampled_from([-0.05, -0.02, -0.2]),
).filter(lambda graph: graph is not None)


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

    def test_tiny_energy_compared_relatively(self):
        centre = CartesianPoint(0.3, 0.5)
        arcs = build_alphabet(centre, [1, 2], -1e-11)
        assert all(abs(a.energy + 1e-11) <= 1e-23 for a in arcs)
        build_graph(arcs)
        # 1e-5 apart relatively, though only 1e-16 in absolute terms
        other = build_alphabet(centre, [2], -1.00001e-11)
        with pytest.raises(DomainError, match="common energy"):
            build_graph(arcs[:4] + other)

    @pytest.mark.parametrize("nodes, forbidden", [
        (CASE_I_ORDER, []),
        (CASE_I_ORDER, [(0, 0), (0, 2), (1, 0), (1, 1), (2, 2), (2, 3),
                        (3, 2), (3, 3)]),
        (CASE_I_ORDER, [(0, 0), (0, 1), (1, 2), (1, 3), (2, 2), (2, 3),
                        (3, 2), (3, 3)]),
        (CASE_I_ORDER, [(i, j) for i in range(4) for j in (0, 1)]),
        ([(F(1), 1, k) for k in range(4)],
         [(i, j) for i in range(4) for j in range(4) if i // 2 == j // 2]),
        (CASE_I_ORDER[:3] + CASE_I_ORDER[:1],
         [(i, j) for i in range(4) for j in range(4) if i // 2 == j // 2]),
    ], ids=["no-edge-missing", "two-pairs-in-a-row", "pair-arcs-disagree",
            "not-a-permutation", "not-a-family", "repeated-label"])
    def test_hand_built_graph_off_the_pair_law_refused(self, nodes,
                                                        forbidden):
        adj = np.ones((4, 4), dtype=bool)
        for i, j in forbidden:
            adj[i, j] = False
        with pytest.raises(StructuralError):
            ChainGraph([ArcLabel(*lb) for lb in nodes], adj)


class TestPairLaw:
    """Every arc forbids exactly the two arcs of one pair, the same for both
    arcs of a pair, and the forbidden pairs are a permutation: A = J - M."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(graph=DRAWN_GRAPHS)
    def test_rows_sum_to_n_minus_two(self, graph):
        n = graph.n_nodes
        assert n % 4 == 0
        assert np.all(graph.adjacency.sum(axis=1) == n - 2)
        pi = pair_map(graph)
        assert len(pi) == n // 2 and sorted(pi.values()) == sorted(pi)

    def test_seeded_draws_cover_early_returns(self, seeded_graphs):
        moved = [g for g in seeded_graphs
                 if any(a != b for a, b in pair_map(g).items())]
        assert len(moved) >= 6
        assert {g.n_nodes for g in moved} == {4, 8, 12}
        assert {g.n_nodes for g in seeded_graphs} == {4, 8, 12}

    def test_greedy_chain_on_every_word(self, seeded_graphs):
        for g in seeded_graphs:
            classes = sorted({lb.q for lb in g.nodes})
            for word in itertools.permutations(classes):
                chain = assemble_chain(g, word, 3 * len(word) + 1)
                assert [lb.q for lb in chain.labels] == \
                    [word[i % len(word)] for i in range(len(chain))]
                assert admissible(g, chain.labels)


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

    def test_brute_force_on_random_graph(self, seeded_graphs):
        # up to n = 8, or while the walks enumerated stay below 150,000:
        # n <= 6 for two classes and n <= 5 for three
        for g in seeded_graphs:
            size = g.n_nodes
            adj = g.adjacency.astype(int).tolist()
            for n in range(1, 9):
                if size * (size - 2) ** (n - 1) > 150_000:
                    break
                assert count_periodic_chains(g, n) == \
                    brute_force_closed_walks(adj, n)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graph=DRAWN_GRAPHS)
    def test_trace_of_matrix_power(self, graph):
        a = graph.adjacency.astype(np.int64)
        for n in range(1, 13):
            assert count_periodic_chains(graph, n) == \
                int(np.trace(np.linalg.matrix_power(a, n)))

    @pytest.mark.parametrize("size", [2, 3])
    def test_every_small_law_graph_against_matrix_power(self, size):
        # alphabets show only fixed pairs and swaps; these pair maps have
        # cycles of every length up to 2 * size
        for perm in itertools.permutations(range(2 * size)):
            g = law_graph(CLASS_POOL[:size], perm)
            a = g.adjacency.astype(np.int64)
            for n in range(1, 13):
                assert count_periodic_chains(g, n) == \
                    int(np.trace(np.linalg.matrix_power(a, n)))

    def test_count_beyond_int64_is_exact(self):
        # three classes on the y-axis; classes 1 and 3 return early
        g = alphabet_graph(1.08, math.pi / 2.0, [1, 2, 3])
        assert sum(a != b for a, b in pair_map(g).items()) == 4
        count = count_periodic_chains(g, 40)
        assert count > 2 ** 63
        assert count == int_power_trace(g.adjacency, 40)

    def test_bad_period(self, q1_family):
        with pytest.raises(DomainError):
            count_periodic_chains(build_graph(q1_family), 0)


class TestEntropy:
    def test_case_i_log_two(self, q1_family):
        assert entropy_estimate(build_graph(q1_family)) == math.log(2.0)

    def test_case_ii_log_two(self, yaxis_family):
        assert entropy_estimate(build_graph(yaxis_family)) == math.log(2.0)

    def test_lower_bound_for_safe_alphabet(self, q2_family):
        assert entropy_estimate(build_graph(q2_family)) >= math.log(2.0)

    @pytest.mark.parametrize("size", [2, 3])
    def test_every_small_graph_against_oracle(self, size):
        # every graph the pair law admits over size classes: one per
        # permutation of the 2 * size pairs
        for perm in itertools.permutations(range(2 * size)):
            check_entropy_against_oracle(
                law_graph(CLASS_POOL[:size], perm), 1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(graph=DRAWN_GRAPHS)
    def test_random_graph_against_oracle(self, graph):
        check_entropy_against_oracle(graph, 1e-12)

    def test_alphabet_graphs_against_oracle(self, q1_family, yaxis_family,
                                            q2_family):
        for family in (q1_family, yaxis_family, q2_family):
            check_entropy_against_oracle(build_graph(family), 1e-12)


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
        # one parallel pair alone would leave no admissible transition; a
        # half family breaks the pair law, so its graph is refused
        sub = [arc for arc in q1_family
               if (arc.label.sign, arc.label.direction) in ((1, 1), (-1, -1))]
        with pytest.raises(StructuralError, match="whole arc families"):
            assemble_chain(build_graph(sub), [1], 2)

    def test_unknown_class_rejected(self, q1_family):
        g = build_graph(q1_family)
        with pytest.raises(DomainError):
            assemble_chain(g, [3], 2)


def test_chain_admissibility_check(q1_family):
    g = build_graph(q1_family)
    bad = CollisionChain((g.nodes[0], g.nodes[1]))  # parallel pair, no edge
    assert not admissible(g, bad.labels)
