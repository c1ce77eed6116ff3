"""The node-by-node Rao-Stirling loops that ``diversity`` replaced.

``rao_stirling`` scores one node: it walks the node's neighbours in the
chosen direction, counts the labelled ones per discipline in the order the
disciplines first appear, and adds p_a * p_b * d_ab over the ordered pairs
a != b, a outer and b inner. ``diversity_report`` calls it for every node,
as ``build_diversity_report`` did. ``cocitation_matrix`` is the edge loop
that built the co-occurrence matrix of ``discipline_distance``'s
``cocitation_cosine`` mode, and ``cocitation_cosine`` takes its distances
pair by pair. The tests hold the array pass to these bits, compared with
``==``.
"""

import numpy as np

from orbitroles.diversity import (
    DIRECTIONS,
    PAIR_COUNTINGS,
    DisciplineDistanceMatrix,
    DiversityError,
)


def direction_index(graph):
    """(citers, cited) adjacency derived from the as-read edge order.

    A recorded pair (u, v) reads as 'u cites v': u is one of v's citing
    papers, v one of u's cited papers.
    """
    if graph.directed_pairs is None:
        return None
    citing = [[] for _ in range(graph.node_count)]
    cited = [[] for _ in range(graph.node_count)]
    for u, v in graph.directed_pairs:
        citing[v].append(u)
        cited[u].append(v)
    return citing, cited


def neighbors_for(graph, node, direction, dir_index):
    if direction == "all":
        return graph.adjacency[node]
    if dir_index is None:
        raise DiversityError(
            "graph carries no direction information; use direction='all'"
        )
    citing, cited = dir_index
    return citing[node] if direction == "citing" else cited[node]


def rao_stirling(node, graph, table, dmat, direction="citing", pair_counting="ordered", dir_index=None):
    """IDR of one node and its labelled neighbour count; None when it has
    no labelled neighbours. 'unordered' halves the ordered double sum."""
    if direction not in DIRECTIONS:
        raise DiversityError(f"unknown direction {direction!r}")
    if pair_counting not in PAIR_COUNTINGS:
        raise DiversityError(f"unknown pair_counting {pair_counting!r}")
    if dir_index is None and direction != "all":
        dir_index = direction_index(graph)
    counts: dict = {}
    used = 0
    for w in neighbors_for(graph, node, direction, dir_index):
        cat = table.categories[w]
        if cat is None:
            continue
        counts[cat] = counts.get(cat, 0) + 1
        used += 1
    if used == 0:
        return None, 0
    props = [(dmat.disciplines.index(cat), c / used) for cat, c in counts.items()]
    total = 0.0
    for i, pi in props:
        for j, pj in props:
            if i != j:
                total += pi * pj * dmat.d[i, j]
    if pair_counting == "unordered":
        total /= 2.0
    return total, used


def diversity_report(graph, table, dmat, direction="citing", pair_counting="ordered"):
    """(idr, neighbors_used) of every node, one ``rao_stirling`` call each;
    NaN marks an absent score."""
    n = graph.node_count
    idr = np.full(n, np.nan)
    used = np.zeros(n, dtype=np.int64)
    dir_index = direction_index(graph) if direction != "all" else None
    for v in range(n):
        score, cnt = rao_stirling(v, graph, table, dmat, direction, pair_counting, dir_index)
        used[v] = cnt
        if score is not None:
            idr[v] = score
    return idr, used


def cocitation_matrix(table, graph, names):
    """Discipline co-occurrence counts: each undirected edge between two
    labelled nodes adds 1 to both of its (discipline, discipline) cells."""
    index = {name: i for i, name in enumerate(names)}
    k = len(names)
    co = np.zeros((k, k))
    for u, v in graph.edges():
        cu, cv = table.categories[u], table.categories[v]
        if cu is None or cv is None:
            continue
        iu, iv = index[cu], index[cv]
        co[iu, iv] += 1
        co[iv, iu] += 1
    return co


def cocitation_cosine(table, graph):
    """``discipline_distance(table, graph, 'cocitation_cosine')``, one
    discipline pair at a time."""
    names = sorted({c for c in table.categories if c is not None})
    k = len(names)
    co = cocitation_matrix(table, graph, names)
    norms = np.linalg.norm(co, axis=1)
    d = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            if norms[i] == 0 or norms[j] == 0:
                dist = 1.0
            else:
                cos = float(co[i] @ co[j] / (norms[i] * norms[j]))
                dist = min(1.0, max(0.0, 1.0 - cos))
            d[i, j] = d[j, i] = dist
    return DisciplineDistanceMatrix(disciplines=names, d=d)
