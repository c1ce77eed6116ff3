"""Shared helpers for the test suite: small graph builders, NMI, readings
of effect curves and binned IDR tables, and a check that no worker process
is left."""

import itertools
import os
from bisect import bisect_left

import numpy as np
import pytest

from orbitroles.graph import Graph


def er_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def complete_graph(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    return Graph.from_edges(leaves + 1, [(i, leaves) for i in range(leaves)])


def ba_graph(n, m, seed):
    """Preferential attachment: each new node links to m distinct nodes
    drawn with probability proportional to degree, so early nodes become
    hubs."""
    rng = np.random.default_rng(seed)
    edges = [(0, j) for j in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets = set()
        while len(targets) < m:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        edges += [(t, source) for t in sorted(targets)]
        repeated += sorted(targets) + [source] * m
    return Graph.from_edges(n, edges)


def has_edge(graph, u, v):
    row = graph.adjacency[u]
    i = bisect_left(row, v)
    return i < len(row) and row[i] == v


def triangle_count(graph):
    """Independent triangle enumeration over node triples."""
    count = 0
    for u in range(graph.node_count):
        for v in graph.adjacency[u]:
            if v <= u:
                continue
            for w in graph.adjacency[v]:
                if w > v and has_edge(graph, u, w):
                    count += 1
    return count


def nmi(a, b):
    """Normalized mutual information between two labelings."""
    a = np.asarray(a)
    b = np.asarray(b)
    n = a.size
    ua, ub = np.unique(a), np.unique(b)
    info = 0.0
    for x in ua:
        ax = a == x
        px = ax.sum() / n
        for y in ub:
            pxy = (ax & (b == y)).sum() / n
            if pxy > 0:
                info += pxy * np.log(pxy / (px * ((b == y).sum() / n)))

    def entropy(z):
        _, counts = np.unique(z, return_counts=True)
        p = counts / n
        return float(-(p * np.log(p)).sum())

    denom = np.sqrt(entropy(a) * entropy(b))
    return info / denom if denom > 0 else 1.0


def step_location(curve):
    """Grid midpoint of an effect curve's largest jump."""
    i = int(np.abs(np.diff(curve.values)).argmax())
    return float(0.5 * (curve.grid[i] + curve.grid[i + 1]))


def bin_medians(binned, bin_index):
    """Median IDR of each role with values in one bin of a binned table."""
    return {
        role: float(np.median(values))
        for b, _lo, _hi, role, values, _inc in binned.rows
        if b == bin_index and values
    }


def permute_graph(graph, perm):
    """Relabel nodes by perm (new index = perm[old index])."""
    edges = [(perm[u], perm[v]) for u, v in graph.edges()]
    return Graph.from_edges(graph.node_count, edges)


def assert_no_children():
    # raises when this process has no child at all, live or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
