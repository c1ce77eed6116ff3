"""Rao-Stirling interdisciplinarity from neighbor discipline labels.

A node's IDR is D = sum over ordered pairs a != b of p_a * p_b * d_ab,
where p is the discipline distribution of its labeled neighbors (in a
chosen citation direction) and d is a discipline distance matrix. With
uniform distances this is exactly the Simpson diversity 1 - sum p_a^2.
Nodes without labeled neighbors get no score (absent, not zero).

``build_diversity_report`` scores every node in one array pass. Each
node's disciplines are ordered by their first appearance among its
neighbors; the terms p_a * p_b * d_ab run over the ordered pairs with a
outer and b inner, and one ``np.bincount`` adds each node's terms one
after the other from 0.0, so every IDR has the same bits on every input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import write_csv


# the allowed values of ``build_diversity_report``'s direction and
# pair_counting and of ``discipline_distance``'s mode
DIRECTIONS = ("citing", "cited", "all")
PAIR_COUNTINGS = ("ordered", "unordered")
DISTANCES = ("uniform", "cocitation_cosine")


class DiversityError(ValueError):
    pass


@dataclass
class DisciplineDistanceMatrix:
    disciplines: list
    d: np.ndarray

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=np.float64)
        k = len(self.disciplines)
        if self.d.shape != (k, k):
            raise DiversityError("distance matrix shape mismatch")
        if not np.allclose(self.d, self.d.T):
            raise DiversityError("distance matrix must be symmetric")
        if np.any(np.abs(np.diag(self.d)) > 1e-12):
            raise DiversityError("distance matrix diagonal must be zero")
        if self.d.min() < -1e-12 or self.d.max() > 1 + 1e-12:
            raise DiversityError("distances must lie in [0, 1]")


def _codes(categories, names) -> np.ndarray:
    """Each node's index in ``names``, -1 for an unlabeled node."""
    index = {name: i for i, name in enumerate(names)}
    missing = sorted({c for c in categories if c is not None} - index.keys())
    if missing:
        raise DiversityError(f"distance matrix lacks discipline {missing[0]!r}")
    return np.fromiter(
        (-1 if c is None else index[c] for c in categories), dtype=np.int64, count=len(categories)
    )


def _direction_pairs(graph, direction):
    """(node, neighbor) arrays of ``direction``, by ascending node. A node's
    neighbors keep their order: ascending for 'all', and the as-read order
    of the recorded pairs (u, v), read 'u cites v', for 'citing' (the u
    that cite a node v) and 'cited' (the v that a node u cites)."""
    if direction == "all":
        return np.repeat(np.arange(graph.node_count), graph.degrees()), graph.indices
    if graph.directed_pairs is None:
        raise DiversityError("graph carries no direction information; use direction='all'")
    node, nbr = graph.directed_pairs.T[::-1] if direction == "citing" else graph.directed_pairs.T
    order = np.argsort(node, kind="stable")
    return node[order], nbr[order]


def discipline_distance(table, graph, mode: str = "uniform") -> DisciplineDistanceMatrix:
    """Distance matrix over the disciplines present in the table.

    uniform: d = 1 off-diagonal (IDR becomes Simpson diversity).
    cocitation_cosine: d[i][j] = 1 - cosine of the discipline
    co-occurrence vectors, where vector c_i counts edges incident to
    discipline-i nodes by the discipline on the other endpoint. The
    counts are integers, so ``co @ co.T`` is exact on any BLAS kernel.
    """
    if mode not in DISTANCES:
        raise DiversityError(f"unknown distance mode {mode!r}")
    names = sorted({c for c in table.categories if c is not None})
    if len(names) < 2:
        raise DiversityError(f"need >= 2 disciplines, found {len(names)}")
    k = len(names)
    if mode == "uniform":
        d = np.ones((k, k)) - np.eye(k)
        return DisciplineDistanceMatrix(disciplines=names, d=d)

    # each edge is counted from both of its endpoints
    codes = _codes(table.categories, names)
    node, nbr = _direction_pairs(graph, "all")
    a, b = codes[node], codes[nbr]
    both = (a >= 0) & (b >= 0)
    co = np.bincount(a[both] * k + b[both], minlength=k * k).reshape(k, k).astype(np.float64)
    norms = np.linalg.norm(co, axis=1)
    empty = norms == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (co @ co.T) / np.outer(norms, norms)
    d = np.where(empty[:, None] | empty[None, :], 1.0, np.clip(1.0 - cos, 0.0, 1.0))
    np.fill_diagonal(d, 0.0)
    return DisciplineDistanceMatrix(disciplines=names, d=d)


@dataclass
class DiversityReport:
    """Per-node IDR with degree and role; NaN marks an absent score."""

    idr: np.ndarray
    degree: np.ndarray
    role: np.ndarray
    neighbors_used: np.ndarray
    direction: str

    def to_csv(self, path, table) -> None:
        header = ["id", "idr", "degree", "role", "neighbors_used", "direction"]
        columns = (self.idr, self.degree, self.role, self.neighbors_used)
        rows = [(*row, self.direction) for row in zip(*(c.tolist() for c in columns))]
        write_csv(path, header, rows, nodes=table)


def build_diversity_report(
    graph,
    table,
    dmat: DisciplineDistanceMatrix,
    roles,
    direction: str = "citing",
    pair_counting: str = "ordered",
) -> DiversityReport:
    """IDR of every node. Proportions renormalize over labeled neighbors
    only. 'ordered' counts each discipline pair twice, matching the
    double-sum definition; 'unordered' halves it."""
    labels = np.asarray(getattr(roles, "labels", roles), dtype=np.int64)
    n = graph.node_count
    if labels.shape[0] != n or len(table) != n:
        raise DiversityError("graph, table and roles are misaligned")
    if direction not in DIRECTIONS:
        raise DiversityError(f"unknown direction {direction!r}")
    if pair_counting not in PAIR_COUNTINGS:
        raise DiversityError(f"unknown pair_counting {pair_counting!r}")
    codes = _codes(table.categories, dmat.disciplines)
    node, nbr = _direction_pairs(graph, direction)
    disc = codes[nbr]
    labeled = disc >= 0
    node, disc = node[labeled], disc[labeled]
    used = np.bincount(node, minlength=n)

    # one entry per (node, discipline), in order of first appearance
    k = len(dmat.disciplines)
    keys, first, count = np.unique(node * k + disc, return_index=True, return_counts=True)
    order = np.argsort(first)
    owner, disc = np.divmod(keys[order], k)
    p = count[order] / used[owner]
    # entry a pairs with every other entry b of its node, a outer, b inner:
    # a's run of ``size`` slots holds its node's entries from ``start`` on
    per_node = np.bincount(owner, minlength=n)
    size, start = per_node[owner], (np.cumsum(per_node) - per_node)[owner]
    a = np.repeat(np.arange(owner.size), size)
    b = np.arange(a.size) + np.repeat(start - (np.cumsum(size) - size), size)
    other = a != b
    a, b = a[other], b[other]
    total = np.bincount(owner[a], weights=p[a] * p[b] * dmat.d[disc[a], disc[b]], minlength=n)
    if pair_counting == "unordered":
        total = total / 2.0
    return DiversityReport(
        idr=np.where(used > 0, total, np.nan),
        degree=graph.degrees(),
        role=labels,
        neighbors_used=used,
        direction=direction,
    )


@dataclass
class BinnedIDRTable:
    """Log-degree bins of IDR values per role, Fig-style boxplot input."""

    rows: list  # (bin, lo, hi, role, values list, included)
    bin_edges: np.ndarray
    included_bins: list
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        rows = []
        for b, lo, hi, role, values, inc in self.rows:
            if values:
                stats = (np.median(values), *np.percentile(values, [25, 75]))
            else:
                stats = (np.nan,) * 3
            rows.append((b, lo, hi, role, len(values), inc, *stats))
        header = ["bin", "lo", "hi", "role", "count", "included", "median", "q1", "q3"]
        write_csv(path, header, rows)

    def values_to_csv(self, path) -> None:
        """Long-format values file for box plots."""
        rows = [(b, role, v) for b, _lo, _hi, role, values, _inc in self.rows for v in values]
        write_csv(path, ["bin", "role", "idr"], rows)


def binned_idr_report(
    report: DiversityReport,
    roles,
    bins: int = 10,
    min_per_role: int = 50,
) -> BinnedIDRTable:
    """Equal-width natural-log-degree bins of IDR values per role.

    Degree-0 nodes and nodes without an IDR score are excluded (counted in
    metadata). A bin is included only when every role contributes more
    than ``min_per_role`` scored nodes to it.
    """
    labels = np.asarray(getattr(roles, "labels", roles), dtype=np.int64)
    if labels.shape[0] != report.idr.shape[0]:
        raise DiversityError("report and roles are misaligned")
    if bins < 1:
        raise DiversityError("bins must be >= 1")

    degree = report.degree
    has_idr = ~np.isnan(report.idr)
    eligible = (degree > 0) & has_idr
    if not eligible.any():
        raise DiversityError("no nodes with positive degree and an IDR score")

    logdeg = np.log(degree[eligible].astype(np.float64))
    lo, hi = float(logdeg.min()), float(logdeg.max())
    if hi == lo:
        edges = np.array([lo, lo])
    else:
        edges = np.linspace(lo, hi, bins + 1)
    which = np.clip(np.searchsorted(edges, logdeg, side="right") - 1, 0, max(len(edges) - 2, 0))

    all_roles = np.unique(labels)
    idx_eligible = np.flatnonzero(eligible)
    rows = []
    included_bins = []
    n_bins = max(len(edges) - 1, 1)
    for b in range(n_bins):
        members = idx_eligible[which == b]
        counts = {
            int(r): int((labels[members] == r).sum()) for r in all_roles
        }
        inc = all(c > min_per_role for c in counts.values())
        if inc:
            included_bins.append(b)
        for r in all_roles:
            vals = report.idr[members[labels[members] == r]].tolist()
            rows.append((b, float(edges[b]), float(edges[min(b + 1, len(edges) - 1)]), int(r), vals, inc))
    return BinnedIDRTable(
        rows=rows,
        bin_edges=edges,
        included_bins=included_bins,
        meta={
            "excluded_degree0": int((degree == 0).sum()),
            "excluded_no_idr": int(((degree > 0) & ~has_idr).sum()),
            "log_base": "e",
            "min_per_role": min_per_role,
        },
    )
