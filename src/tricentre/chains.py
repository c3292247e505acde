"""Equal-energy arc alphabets, the direction-change graph and its dynamics.

Chains of arcs are admissible when consecutive velocities at C are not
parallel (up to sign); the admissibility graph is a topological Markov
chain.  The two arcs of a pair (q, sign*direction) depart along one line,
and every arrival is parallel to exactly one pair, which it may not
precede: the adjacency is J - M, where M maps each pair p to the pair
pi(p) that its arrivals forbid, and pi is a permutation (`ChainGraph`
checks this law).  The periodic-chain counts trace(A^n) are then
(N-2)^n + (-2)^n (#fix(pi^n) - 1) over Python ints, and the rows all sum
to N-2, so the spectral radius is N-2 and the entropy log(N-2).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .arcs import ArcLabel, CollisionArc, arc_family
from .errors import DomainError, StructuralError, UnsafeCentreError
from .exclusion import resonant_params
from .periods import solve_beta_for_energy

__all__ = [
    "ChainGraph", "CollisionChain",
    "build_alphabet", "build_graph", "count_periodic_chains",
    "entropy_estimate", "assemble_chain",
]

_PARALLEL_TOL = 1e-6       # least |cross product| of non-parallel unit vectors


def _pair_cycles(nodes: Sequence[ArcLabel],
                 adjacency: np.ndarray) -> tuple[int, ...]:
    """The cycle lengths, in increasing order, of pi: the map taking each
    pair (q, sign*direction) to the pair whose two arcs its arcs may not
    precede.

    Raises StructuralError unless the law holds: the nodes are whole
    families (the four labels (q, +-1, +-1) of each class), each row's
    zeros are exactly the two arcs of one pair, both arcs of a pair forbid
    the same pair, and pi is a permutation.
    """
    pairs = [(q, sign * direction) for q, sign, direction in nodes]
    classes = {q for q, _ in pairs}
    if not nodes or len(nodes) != 4 * len(classes) or set(nodes) != {
            (q, s, d) for q in classes for s in (1, -1) for d in (1, -1)}:
        raise StructuralError("the nodes are not whole arc families")
    pi: dict = {}
    for pair, row in zip(pairs, adjacency.tolist()):
        forbidden = [pairs[j] for j, edge in enumerate(row) if not edge]
        if (len(forbidden) != 2 or forbidden[0] != forbidden[1]
                or pi.setdefault(pair, forbidden[0]) != forbidden[0]):
            raise StructuralError(
                f"the arcs of pair {pair} do not forbid exactly one pair")
    if len(set(pi.values())) != len(pi):
        raise StructuralError("the forbidden pairs are not a permutation")
    lengths = []
    while pi:
        pair, length = next(iter(pi)), 0
        while pair in pi:
            pair, length = pi.pop(pair), length + 1
        lengths.append(length)
    return tuple(sorted(lengths))


class ChainGraph(NamedTuple("ChainGraph", [("nodes", list[ArcLabel]),
                                           ("adjacency", np.ndarray),
                                           ("pair_cycles", tuple[int, ...])])):
    """Direction-change admissibility graph over whole arc families;
    adjacency[i, j], a bool, says whether arc j may follow arc i.  Every
    construction path checks the pair law of `_pair_cycles` and derives
    pair_cycles, the cycle lengths of pi, from it; it is never passed."""

    __slots__ = ()
    __getnewargs__ = lambda self: self[:2]  # for copy and pickle

    def __new__(cls, nodes: list[ArcLabel], adjacency: np.ndarray):
        if adjacency.shape != (len(nodes), len(nodes)):
            raise StructuralError("adjacency shape does not match node count")
        return tuple.__new__(cls, (nodes, adjacency,
                                   _pair_cycles(nodes, adjacency)))

    # _replace too; a replaced pair_cycles is derived again
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:2]))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def to_json_dict(self) -> dict:
        return {
            "nodes": [str(lb) for lb in self.nodes],
            "edges": {str(self.nodes[i]):
                      [str(self.nodes[j]) for j in np.nonzero(row)[0]]
                      for i, row in enumerate(self.adjacency)},
        }


class CollisionChain(tuple):
    """A finite admissible word in the graph (periodic when closed)."""

    __slots__ = ()

    labels = property(tuple)  # its arc labels, as a plain tuple

    def __repr__(self):
        return f"CollisionChain(labels={self.labels!r})"


def build_alphabet(centre, classes: Sequence, energy: float,
                   delta: float = 1e-4) -> list[CollisionArc]:
    """Four arcs per class, all sharing the requested energy.

    For each class q the per-class beta_q solves energy(beta_q, q) = energy;
    every class must pass the primary-collision exclusion test, otherwise
    the whole alphabet is refused naming the failing class.
    """
    if not classes:
        raise DomainError("the class set must be nonempty")
    arcs: list[CollisionArc] = []
    for q in classes:
        q = Fraction(q)
        sol = solve_beta_for_energy(q, energy)
        prm, _ = resonant_params(centre, q, sol.beta)
        try:
            arcs.extend(arc_family(prm, delta=delta))
        except UnsafeCentreError as exc:
            raise UnsafeCentreError(
                f"class {q} fails the safety test at energy {energy}: {exc}",
                g_plus=exc.g_plus, g_minus=exc.g_minus,
                nearest=exc.nearest) from exc
    return arcs


def _unit(v: np.ndarray) -> np.ndarray:
    s = math.hypot(v[0], v[1])
    if s == 0.0:
        raise StructuralError("zero velocity at the centre")
    return v / s


def build_graph(arcs: Sequence[CollisionArc]) -> ChainGraph:
    """Adjacency by the direction-change predicate.

    Edge (k, k') present iff the arrival velocity of k is not parallel (up
    to sign) to the departure velocity of k', tested on normalized Cartesian
    velocities via the cross-product magnitude (parallel below 1e-6).
    """
    if not arcs:
        raise DomainError("cannot build a graph from an empty arc set")
    energies = [arc.energy for arc in arcs]
    if max(energies) - min(energies) > 1e-8 * abs(energies[0]):
        raise DomainError("arcs do not share a common energy")
    labels = [arc.label for arc in arcs]
    if len(set(labels)) != len(labels):
        raise DomainError("duplicate arc labels in the alphabet")
    arrivals = [_unit(arc.vT_cartesian) for arc in arcs]
    departures = [_unit(arc.v0_cartesian) for arc in arcs]
    n = len(arcs)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            cross = abs(arrivals[i][0] * departures[j][1]
                        - arrivals[i][1] * departures[j][0])
            adj[i, j] = cross > _PARALLEL_TOL
    return ChainGraph(nodes=labels, adjacency=adj)


def count_periodic_chains(graph: ChainGraph, n: int) -> int:
    """Number of periodic chains of period n, trace(A^n) for A = J - M:
    J and M commute, so it is (N-2)^n + (-2)^n (#fix(pi^n) - 1), exact.
    A cycle of pi of length L gives pi^n L fixed pairs if L divides n."""
    if n < 1:
        raise DomainError(f"period must be >= 1, got {n}")
    fixed = sum(length for length in graph.pair_cycles if n % length == 0)
    return (graph.n_nodes - 2) ** n + (-2) ** n * (fixed - 1)


def entropy_estimate(graph: ChainGraph) -> float:
    """log of the adjacency spectral radius: every row sums to N - 2, and a
    nonnegative matrix with constant row sums has that sum as its spectral
    radius, so log(N - 2), at least log 2."""
    return math.log(graph.n_nodes - 2)


def assemble_chain(graph: ChainGraph, word: Sequence, length: int) -> CollisionChain:
    """A chain of the given length whose classes follow the word cyclically.

    Each position takes the first arc of its class that may follow the
    previous one; one always may, since an arc forbids only the two arcs
    of one pair and every class has four.
    """
    if length < 1:
        raise DomainError(f"length must be >= 1, got {length}")
    if not word:
        raise DomainError("word must be nonempty")
    word = [Fraction(w) for w in word]
    by_class: dict = {}
    for i, lb in enumerate(graph.nodes):
        by_class.setdefault(lb.q, []).append(i)
    for q in word[:length]:
        if q not in by_class:
            raise DomainError(f"no arcs of class {q} in the graph")
    path: list[int] = []
    for pos in range(length):
        path.append(next(j for j in by_class[word[pos % len(word)]]
                         if not path or graph.adjacency[path[-1], j]))
    return CollisionChain(tuple(graph.nodes[j] for j in path))
