"""Equal-energy arc alphabets, the direction-change graph and its dynamics.

Chains of arcs are admissible when consecutive velocities at C are not
parallel (up to sign); the admissibility graph is a topological Markov
chain.  Its periodic-path counts trace(A^n), an exact integer matrix power,
and its spectral radius, from np.linalg.eigvals on each strongly connected
component, give the number of periodic chains and the topological entropy.
"""
from __future__ import annotations

import math
import warnings
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


class ChainGraph(NamedTuple("ChainGraph", [("nodes", list[ArcLabel]),
                                           ("adjacency", np.ndarray)])):
    """Direction-change admissibility graph over a set of labeled arcs;
    adjacency[i, j], a bool, says whether arc j may follow arc i."""

    __slots__ = ()

    def __new__(cls, nodes: list[ArcLabel], adjacency: np.ndarray):
        if adjacency.shape != (len(nodes), len(nodes)):
            raise StructuralError("adjacency shape does not match node count")
        return tuple.__new__(cls, (nodes, adjacency))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace too

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


def _adjacency_power(graph: ChainGraph, n: int) -> np.ndarray:
    """A^n over Python ints (object dtype): exact, no overflow."""
    return np.linalg.matrix_power(graph.adjacency.astype(int).astype(object), n)


def count_periodic_chains(graph: ChainGraph, n: int) -> int:
    """Number of periodic chains of period n: trace(A^n), exact integers."""
    if n < 1:
        raise DomainError(f"period must be >= 1, got {n}")
    return int(np.trace(_adjacency_power(graph, n)))


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Node indices of each strongly connected component of adj.

    Nodes i and j share a component when each reaches the other.  The
    reachability matrix is I + A raised to a power of two at least N by
    boolean squaring (numpy's bool matmul is OR over AND).
    """
    reach = adj.astype(bool) | np.eye(len(adj), dtype=bool)
    for _ in range(len(adj).bit_length()):
        reach = reach @ reach
    mutual = reach & reach.T
    # row i marks the component of i; keep it once, at its first node
    return [np.flatnonzero(row) for i, row in enumerate(mutual)
            if row.argmax() == i]


def entropy_estimate(graph: ChainGraph) -> float:
    """log of the adjacency spectral radius, from np.linalg.eigvals.

    The spectrum of A is the union of the spectra of its strongly connected
    components, and each component's spectral radius is a simple
    (Perron) eigenvalue, which eigvals resolves to rounding; a root that
    is defective in A as a whole would cost it about the square root of
    the machine epsilon.  A graph with a cycle has spectral radius at
    least 1, so a computed radius below 1 is either a nilpotent adjacency
    (A^N = 0 for N nodes: no cycles at all), which yields entropy 0 with a
    warning, or rounding of a root at 1; the exact integer test A^N = 0
    tells them apart, and the radius is clamped at 1.
    """
    n = graph.n_nodes
    if n == 0:
        raise DomainError("empty graph")
    adj = graph.adjacency.astype(float)
    rho = max(float(np.max(np.abs(np.linalg.eigvals(adj[np.ix_(c, c)]))))
              for c in _components(graph.adjacency))
    if rho < 1.0 and not _adjacency_power(graph, n).any():
        warnings.warn("adjacency is nilpotent: no periodic chains exist",
                      stacklevel=2)
        return 0.0
    return math.log(max(rho, 1.0))


def assemble_chain(graph: ChainGraph, word: Sequence, length: int) -> CollisionChain:
    """A chain of the given length whose classes follow the word cyclically.

    Depth-first search over arcs of the prescribed class at each position;
    raises StructuralError when no admissible assignment exists.
    """
    if length < 1:
        raise DomainError(f"length must be >= 1, got {length}")
    if not word:
        raise DomainError("word must be nonempty")
    word = [Fraction(w) for w in word]
    classes = [word[i % len(word)] for i in range(length)]
    by_class: dict = {}
    for i, lb in enumerate(graph.nodes):
        by_class.setdefault(lb.q, []).append(i)
    for q in classes:
        if q not in by_class:
            raise DomainError(f"no arcs of class {q} in the graph")

    idx_path: list[int] = []

    def extend(pos: int) -> bool:
        if pos == length:
            return True
        for j in by_class[classes[pos]]:
            if idx_path and not graph.adjacency[idx_path[-1], j]:
                continue
            idx_path.append(j)
            if extend(pos + 1):
                return True
            idx_path.pop()
        return False

    if not extend(0):
        raise StructuralError(
            f"no admissible chain of length {length} realizes the word"
            f" {[str(w) for w in word]}")
    return CollisionChain(tuple(graph.nodes[j] for j in idx_path))
