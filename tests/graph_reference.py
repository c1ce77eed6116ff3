"""The tuple-and-set graph code that ``Graph``'s CSR arrays replaced.

``from_edges`` is the set loop that built each node's ascending tuple of
neighbours, and ``ReferenceGraph.components`` the breadth-first search
over those tuples. ``indptr`` and ``indices`` flatten the tuples the way
``Graph.csr()`` did, so the tests hold the array forms to these with
``==``.
"""

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReferenceGraph:
    adjacency: tuple
    edge_count: int
    directed_pairs: tuple | None = None

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def indptr(self):
        indptr = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum([len(a) for a in self.adjacency], out=indptr[1:])
        return indptr

    @property
    def indices(self):
        return np.fromiter(itertools.chain.from_iterable(self.adjacency), dtype=np.int64)

    def components(self) -> list:
        """Connected components as lists of node indices, ascending."""
        n = self.node_count
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            frontier = [start]
            while frontier:
                u = frontier.pop()
                for w in self.adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        frontier.append(w)
            comp.sort()
            out.append(comp)
        return out


def from_edges(node_count: int, edges, directed_pairs=None) -> ReferenceGraph:
    """Build from an iterable of index pairs; dedups and symmetrizes."""
    adj = [set() for _ in range(node_count)]
    kept = 0
    for u, v in edges:
        if u == v:
            continue
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise ValueError(f"edge ({u}, {v}) outside [0, {node_count})")
        if v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            kept += 1
    return ReferenceGraph(
        adjacency=tuple(tuple(sorted(a)) for a in adj),
        edge_count=kept,
        directed_pairs=tuple(directed_pairs) if directed_pairs is not None else None,
    )
