"""Rao-Stirling interdisciplinarity from neighbor discipline labels.

A node's IDR is D = sum over ordered pairs i != j of p_i * p_j * d_ij,
where p is the discipline distribution of its labeled neighbors (in a
chosen citation direction) and d is a discipline distance matrix. With
uniform distances this is exactly the Simpson diversity 1 - sum p_i^2.
Nodes without labeled neighbors get no score (absent, not zero).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


# the allowed values of ``rao_stirling``'s direction and pair_counting and
# of ``discipline_distance``'s mode
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

    def index_of(self, name: str) -> int:
        return self.disciplines.index(name)


def discipline_distance(table, graph, mode: str = "uniform") -> DisciplineDistanceMatrix:
    """Distance matrix over the disciplines present in the table.

    uniform: d = 1 off-diagonal (IDR becomes Simpson diversity).
    cocitation_cosine: d[i][j] = 1 - cosine of the discipline
    co-occurrence vectors, where vector c_i counts edges incident to
    discipline-i nodes by the discipline on the other endpoint.
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

    index = {name: i for i, name in enumerate(names)}
    co = np.zeros((k, k))
    for u, v in graph.edges():
        cu, cv = table.categories[u], table.categories[v]
        if cu is None or cv is None:
            continue
        iu, iv = index[cu], index[cv]
        co[iu, iv] += 1
        co[iv, iu] += 1
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


def _direction_index(graph):
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


def _neighbors_for(graph, node, direction, dir_index):
    if direction == "all":
        return graph.adjacency[node]
    if dir_index is None:
        raise DiversityError(
            "graph carries no direction information; use direction='all'"
        )
    citing, cited = dir_index
    return citing[node] if direction == "citing" else cited[node]


def rao_stirling(
    node: int,
    graph,
    table,
    dmat: DisciplineDistanceMatrix,
    direction: str = "citing",
    pair_counting: str = "ordered",
    _dir_index=None,
):
    """IDR of one node, or None when it has no labeled neighbors.

    Proportions renormalize over labeled neighbors only. 'ordered' counts
    each discipline pair twice, matching the double-sum definition;
    'unordered' halves it.
    """
    if direction not in DIRECTIONS:
        raise DiversityError(f"unknown direction {direction!r}")
    if pair_counting not in PAIR_COUNTINGS:
        raise DiversityError(f"unknown pair_counting {pair_counting!r}")
    dir_index = _dir_index
    if dir_index is None and direction != "all":
        dir_index = _direction_index(graph)
    neighbors = _neighbors_for(graph, node, direction, dir_index)
    counts: dict = {}
    used = 0
    for w in neighbors:
        cat = table.categories[w]
        if cat is None:
            continue
        counts[cat] = counts.get(cat, 0) + 1
        used += 1
    if used == 0:
        return None, 0
    props = [(dmat.index_of(cat), c / used) for cat, c in counts.items()]
    total = 0.0
    for i, pi in props:
        for j, pj in props:
            if i != j:
                total += pi * pj * dmat.d[i, j]
    if pair_counting == "unordered":
        total /= 2.0
    return total, used


@dataclass
class DiversityReport:
    """Per-node IDR with degree and role; NaN marks an absent score."""

    idr: np.ndarray
    degree: np.ndarray
    role: np.ndarray
    neighbors_used: np.ndarray
    direction: str

    def to_csv(self, path, table) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "idr", "degree", "role", "neighbors_used", "direction"])
            for i, ext in enumerate(table.external_ids):
                val = "" if math.isnan(self.idr[i]) else repr(float(self.idr[i]))
                writer.writerow(
                    [
                        ext,
                        val,
                        int(self.degree[i]),
                        int(self.role[i]),
                        int(self.neighbors_used[i]),
                        self.direction,
                    ]
                )


def build_diversity_report(
    graph,
    table,
    dmat: DisciplineDistanceMatrix,
    roles,
    direction: str = "citing",
    pair_counting: str = "ordered",
) -> DiversityReport:
    labels = np.asarray(getattr(roles, "labels", roles), dtype=np.int64)
    n = graph.node_count
    if labels.shape[0] != n or len(table) != n:
        raise DiversityError("graph, table and roles are misaligned")
    idr = np.full(n, np.nan)
    used = np.zeros(n, dtype=np.int64)
    dir_index = _direction_index(graph) if direction != "all" else None
    for v in range(n):
        score, cnt = rao_stirling(
            v, graph, table, dmat, direction, pair_counting, _dir_index=dir_index
        )
        used[v] = cnt
        if score is not None:
            idr[v] = score
    return DiversityReport(
        idr=idr,
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

    def medians(self, bin_index: int) -> dict:
        out = {}
        for b, _lo, _hi, role, values, _inc in self.rows:
            if b == bin_index and values:
                out[role] = float(np.median(values))
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["bin", "lo", "hi", "role", "count", "included", "median", "q1", "q3"])
            for b, lo, hi, role, values, inc in self.rows:
                if values:
                    med = repr(float(np.median(values)))
                    q1 = repr(float(np.percentile(values, 25)))
                    q3 = repr(float(np.percentile(values, 75)))
                else:
                    med = q1 = q3 = ""
                writer.writerow(
                    [b, repr(float(lo)), repr(float(hi)), role, len(values), str(bool(inc)).lower(), med, q1, q3]
                )

    def values_to_csv(self, path) -> None:
        """Long-format values file for box plots."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["bin", "role", "idr"])
            for b, _lo, _hi, role, values, _inc in self.rows:
                for v in values:
                    writer.writerow([b, role, repr(float(v))])


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
