"""Graphlet templates and the exhaustive orbit-census oracle.

The 30 connected graphlets on 2-5 nodes carry 73 node orbits (0-72) in
the standard enumeration. Each template below lists its edges over
positions 0..k-1 and the orbit id of every position. The oracle counts
orbits by enumerating every connected induced subgraph of size 2-5
(ESU-style expansion, each subset visited exactly once), classifying it
against the templates by isomorphism, and crediting each member node's
orbit. It is deliberately independent of the optimized counter so the
two can be tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np


@dataclass(frozen=True)
class GraphletTemplate:
    name: str
    edges: tuple
    orbits: tuple

    @property
    def size(self) -> int:
        return len(self.orbits)


def _complete(k):
    return tuple((i, j) for i in range(k) for j in range(i + 1, k))


def _complement(k, missing):
    miss = {tuple(sorted(e)) for e in missing}
    return tuple(e for e in _complete(k) if e not in miss)


# Positions are arbitrary; orbit ids per position follow the standard
# 0..72 enumeration (orbit 0 = degree, 72 = the 5-clique).
GRAPHLETS = (
    GraphletTemplate("edge", ((0, 1),), (0, 0)),
    GraphletTemplate("path3", ((0, 1), (1, 2)), (1, 2, 1)),
    GraphletTemplate("triangle", _complete(3), (3, 3, 3)),
    GraphletTemplate("path4", ((0, 1), (1, 2), (2, 3)), (4, 5, 5, 4)),
    GraphletTemplate("claw", ((0, 3), (1, 3), (2, 3)), (6, 6, 6, 7)),
    GraphletTemplate("cycle4", ((0, 1), (1, 2), (2, 3), (0, 3)), (8, 8, 8, 8)),
    GraphletTemplate("paw", ((0, 3), (1, 2), (1, 3), (2, 3)), (9, 10, 10, 11)),
    GraphletTemplate(
        "diamond", ((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), (12, 12, 13, 13)
    ),
    GraphletTemplate("k4", _complete(4), (14, 14, 14, 14)),
    GraphletTemplate(
        "path5", ((0, 1), (1, 2), (2, 3), (3, 4)), (15, 16, 17, 16, 15)
    ),
    # center 3 holds leaves 1,2 and the two-step leg 3-4-0
    GraphletTemplate("fork", ((0, 4), (3, 4), (1, 3), (2, 3)), (18, 19, 19, 21, 20)),
    GraphletTemplate(
        "star4", ((0, 4), (1, 4), (2, 4), (3, 4)), (22, 22, 22, 22, 23)
    ),
    # triangle {2,3,4}, pendants 0 on 2 and 1 on 3
    GraphletTemplate(
        "bull", ((0, 2), (1, 3), (2, 3), (2, 4), (3, 4)), (24, 24, 26, 26, 25)
    ),
    # triangle {2,3,4}, tail 4-1-0
    GraphletTemplate(
        "tadpole", ((0, 1), (1, 4), (2, 3), (2, 4), (3, 4)), (27, 28, 29, 29, 30)
    ),
    # triangle {2,3,4}, both pendants on 4
    GraphletTemplate(
        "cricket", ((0, 4), (1, 4), (2, 3), (2, 4), (3, 4)), (31, 31, 32, 32, 33)
    ),
    GraphletTemplate(
        "cycle5", ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)), (34, 34, 34, 34, 34)
    ),
    # square {1,2,3,4} with pendant 0 on 1; 3 sits opposite the holder
    GraphletTemplate(
        "banner", ((1, 2), (2, 3), (3, 4), (1, 4), (0, 1)), (35, 38, 37, 36, 37)
    ),
    # diamond {1,2,3,4} (degree-3 pair {3,4}) with pendant 0 on 4
    GraphletTemplate(
        "dart", ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (0, 4)), (39, 40, 40, 41, 42)
    ),
    GraphletTemplate(
        "bowtie", ((0, 1), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)), (43, 43, 43, 43, 44)
    ),
    # diamond {1,2,3,4} (degree-3 pair {3,4}) with pendant 0 on degree-2 node 1
    GraphletTemplate(
        "kite", ((1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (0, 1)), (45, 47, 46, 48, 48)
    ),
    GraphletTemplate(
        "k23", ((0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)), (49, 49, 49, 50, 50)
    ),
    # square {1,2,3,4} with roof apex 0 over side (1,2)
    GraphletTemplate(
        "house", ((1, 2), (2, 3), (3, 4), (1, 4), (0, 1), (0, 2)), (52, 53, 53, 51, 51)
    ),
    GraphletTemplate(
        "k5_minus_triangle", _complement(5, ((0, 1), (0, 2), (1, 2))), (54, 54, 54, 55, 55)
    ),
    # K4 on {1,2,3,4} with pendant 0 on 4
    GraphletTemplate(
        "k4_pendant",
        ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (0, 4)),
        (56, 57, 57, 57, 58),
    ),
    # path 0-1-2-3 plus apex 4 adjacent to everything
    GraphletTemplate(
        "gem",
        ((0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)),
        (59, 60, 60, 59, 61),
    ),
    # complement is the path 0-1-2 plus the edge (3,4)
    GraphletTemplate(
        "k5_minus_path3_edge", _complement(5, ((0, 1), (1, 2), (3, 4))), (64, 62, 64, 63, 63)
    ),
    # complement is the path 0-1-2
    GraphletTemplate(
        "k5_minus_path3", _complement(5, ((0, 1), (1, 2))), (66, 65, 66, 67, 67)
    ),
    # complement is two disjoint edges
    GraphletTemplate(
        "k5_minus_matching", _complement(5, ((0, 1), (2, 3))), (68, 68, 68, 68, 69)
    ),
    GraphletTemplate("k5_minus_edge", _complement(5, ((0, 1),)), (70, 70, 71, 71, 71)),
    GraphletTemplate("k5", _complete(5), (72, 72, 72, 72, 72)),
)

ORBIT_COUNT = 73


class OracleLimitError(ValueError):
    """Graph exceeds the brute-force oracle's node cap."""


def _pairs(k):
    return list(combinations(range(k), 2))


def _connected(k, edge_set):
    if k == 1:
        return True
    adj = [[] for _ in range(k)]
    for a, b in edge_set:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == k


def _degree_seq(k, edge_set):
    deg = [0] * k
    for a, b in edge_set:
        deg[a] += 1
        deg[b] += 1
    return deg


def _match_orbits(k, edge_set, template):
    """Orbit per position if the labeled graph matches the template."""
    tset = {tuple(sorted(e)) for e in template.edges}
    if len(tset) != len(edge_set):
        return None
    gdeg = _degree_seq(k, edge_set)
    tdeg = _degree_seq(k, template.edges)
    if sorted(gdeg) != sorted(tdeg):
        return None
    for perm in permutations(range(k)):
        if any(gdeg[i] != tdeg[perm[i]] for i in range(k)):
            continue
        if all(tuple(sorted((perm[a], perm[b]))) in tset for a, b in edge_set):
            return tuple(template.orbits[perm[i]] for i in range(k))
    return None


_LOOKUP = None


def _orbit_lookup():
    """code -> orbit-per-position tables for every labeled graph size 2-5.

    The code packs the upper-triangle adjacency of the subgraph's nodes in
    ascending-pair order; disconnected codes map to None.
    """
    global _LOOKUP
    if _LOOKUP is not None:
        return _LOOKUP
    lookup = {}
    for k in (2, 3, 4, 5):
        pairs = _pairs(k)
        templates = [t for t in GRAPHLETS if t.size == k]
        table = [None] * (1 << len(pairs))
        for code in range(1 << len(pairs)):
            edge_set = [pairs[i] for i in range(len(pairs)) if code >> i & 1]
            if not _connected(k, edge_set):
                continue
            assigned = None
            for t in templates:
                assigned = _match_orbits(k, edge_set, t)
                if assigned is not None:
                    break
            if assigned is None:
                raise AssertionError(f"unclassified connected graph k={k} code={code}")
            table[code] = assigned
        lookup[k] = table
    _LOOKUP = lookup
    return lookup


def count_orbits_bruteforce(graph, max_nodes: int = 300):
    """Exact orbit census by induced-subgraph enumeration.

    Contract-identical to the optimized counter; quadratic-to-worse in
    local density, so it is capped at ``max_nodes`` nodes.
    """
    from .orbits import OrbitMatrix

    n = graph.node_count
    if n > max_nodes:
        raise OracleLimitError(
            f"graph has {n} nodes, oracle is capped at {max_nodes}"
        )
    lookup = _orbit_lookup()
    look2, look3, look4, look5 = lookup[2], lookup[3], lookup[4], lookup[5]
    tables = (None, None, look2, look3, look4, look5)

    adjacency = graph.adjacency
    adj_mask = [0] * n
    for v in range(n):
        m = 0
        for w in adjacency[v]:
            m |= 1 << w
        adj_mask[v] = m

    counts = [[0] * ORBIT_COUNT for _ in range(n)]

    def emit(sub):
        size = len(sub)
        nodes = sorted(sub)
        code = 0
        bit = 1
        for i in range(size):
            mi = adj_mask[nodes[i]]
            for j in range(i + 1, size):
                if mi >> nodes[j] & 1:
                    code |= bit
                bit <<= 1
        orbs = tables[size][code]
        for i in range(size):
            counts[nodes[i]][orbs[i]] += 1

    def extend(sub, ext, nbr_mask, root):
        if len(sub) >= 2:
            emit(sub)
        if len(sub) == 5:
            return
        while ext:
            w = ext.pop()
            grown = [
                u for u in adjacency[w] if u > root and not (nbr_mask >> u) & 1
            ]
            extend(
                sub + [w],
                ext + grown,
                nbr_mask | adj_mask[w] | (1 << w),
                root,
            )

    for root in range(n):
        seed_ext = [w for w in adjacency[root] if w > root]
        extend([root], seed_ext, adj_mask[root] | (1 << root), root)

    return OrbitMatrix(counts=np.array(counts, dtype=np.int64))
