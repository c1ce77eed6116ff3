"""K-means role candidates and orbit-space silhouette validation.

Candidate roles are k-means clusterings of an embedding space; their
validity is judged where interpretation happens, in the graphlet space,
by the silhouette score over log-transformed orbit vectors. The sweep
emits one row per (method, k) for plotting; candidate selection stays
manual. It first runs k-means for every cell, dealt over ``threads``
forked worker processes (``workers.map_shares``; by default one per usable
CPU, and each holds its own cells' working memory), and then scores all
the labellings in one ``silhouette_in_orbit_space`` pass over the
orbit-space distances, which are shared by every cell because they depend
on neither the method nor k. Every cell is scored on the same nodes: all
of them up to ``sample_cap``, beyond it one seeded node sample, so the
comparison across k and methods is paired. The
pass computes distances only among the distinct log-orbit rows: nodes of
repeated structures share a row (the planted-many bench graph at seed 7:
2,600 nodes, 79 distinct rows), and each node reads its row's sums. The
pipeline takes its chosen-k roles from the sweep's cells.

Each k-means assignment step screens the distances with one BLAS matrix
product and computes exact distances only for the rows whose nearest
centroid the product's rounding could change, so the labels are those of
the exact evaluation whatever kernel the BLAS uses (see ``_nearest``).
Nodes with the same embedding row are the same point, so the k-means++
seeding and each assignment step run over the distinct rows only
(``EmbeddingMatrix.distinct``, computed once per embedding before the
cells are dealt), and each node reads its row's result; the draws of the
seeding are still over nodes. The centroid and WCSS update runs over all
rows, in node order, and those sums fix the bits (the planted-many bench
graph at seed 7: 2,600 nodes, 611 distinct GraphWave rows and 86 RolX).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import distinct_rows, read_node_rows, write_csv
from .seeds import derive_seed
from .workers import map_shares


class ClusteringError(ValueError):
    pass


@dataclass
class RoleAssignment:
    """Per-node cluster label in [0, k); a candidate role set."""

    labels: np.ndarray
    k: int
    method_tag: str
    seed: int
    degenerate: bool = False
    k_effective: int = 0
    inertia: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.min(initial=0) < 0 or (
            self.labels.size and self.labels.max() >= self.k
        ):
            raise ClusteringError("labels outside [0, k)")
        if not self.k_effective:
            self.k_effective = int(np.unique(self.labels).size)


def _kmeans_pp_init(U, inverse, k, rng):
    """k-means++ seeds for the rows ``U[inverse]``, one per node, from the
    distinct rows ``U`` alone. The draws are over nodes: each node's
    squared distance to its nearest seed is its row's, read through
    ``inverse`` for the total and the cumulative sum, so the seeds are
    those of the same loop over every node's row."""
    n = inverse.size
    centroids = np.empty((k, U.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = U[inverse[first]]
    d2 = ((U - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        node_d2 = d2[inverse]
        total = node_d2.sum()
        if total <= 0:
            idx = int(rng.integers(0, n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(node_d2), r))
            idx = min(idx, n - 1)
        centroids[j] = U[inverse[idx]]
        d2 = np.minimum(d2, ((U - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _nearest(X, x_sq, centroids):
    """Each row's nearest centroid, as the first argmin of the exact
    distances ``((x - c) ** 2).sum()``; also returns the rows that had to
    compute them.

    The screen takes every distance from one GEMM, g = |x|^2 - 2 x.c + |c|^2.
    In any summation order, both g and the exact form lie within
    gamma_(d+2) (|x| + |c|)^2 of the true squared distance (Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1), with gamma_m ~ m eps / 2.
    The slack s = 4 (d + 4) eps (|x| + |c|)^2 is more than four times their
    sum, so the exact argmin j* has g_j* - s_j* <= min_j (g_j + s_j): it is a
    candidate. A row with one candidate takes it; a row with several (near
    ties, or a point far from the origin relative to its spread) or none
    (non-finite g) takes the exact argmin over all centroids. The labels
    therefore do not depend on how the BLAS rounds X @ C^T.
    """
    c_sq = (centroids**2).sum(axis=1)
    g = X @ centroids.T
    g *= -2.0
    g += x_sq[:, None]
    g += c_sq[None, :]
    slack = np.sqrt(x_sq)[:, None] + np.sqrt(c_sq)[None, :]
    slack **= 2
    slack *= 4 * (X.shape[1] + 4) * np.finfo(float).eps
    upper = (g + slack).min(axis=1)
    g -= slack
    candidate = g <= upper[:, None]
    labels = candidate.argmax(axis=1)
    recheck = np.flatnonzero(candidate.sum(axis=1) != 1)
    if recheck.size:
        d2 = ((X[recheck, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels[recheck] = d2.argmin(axis=1)
    return labels, recheck


def kmeans(
    embedding,
    k: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> RoleAssignment:
    """Lloyd's algorithm with k-means++ init, deterministic per seed.

    Nodes with the same row (the same bytes; ``embedding.distinct``) are
    the same point, so the seeding and every assignment step run over the
    u distinct rows only, and each node reads its row's result. Each
    assignment step is ``_nearest``: a GEMM screen settles every row whose
    nearest centroid is clear by more than a floating-point error bound,
    and only the remaining rows compute exact distances, so labels and
    WCSS are those of the exact n x k x d evaluation, bit for bit.
    ``meta["rechecked_rows"]`` counts the nodes whose rows were rechecked,
    over all iterations, ``meta["distinct_rows"]`` is u, and
    ``meta["stopped_at_max_iter"]`` holds whether the run ended at
    ``max_iter`` iterations with no stop rule met. The centroid
    and WCSS update runs over all n rows: it reads each cluster as one
    contiguous slice of the rows sorted stably by label, which sums the
    members in the same order as a boolean mask would.

    Empty clusters are re-seeded to the point currently farthest from its
    centroid; a cluster still empty at convergence marks the run
    degenerate with k_effective < k. The run also stops when the iteration
    after a re-seed does not lower the WCSS: with fewer distinct rows than
    k the re-seeded centroid lands on a row that another centroid already
    holds, the same or another cluster empties, and the re-seed would
    repeat to ``max_iter`` at a constant WCSS. The within-cluster sum of
    squares is checked to be non-increasing on every run.
    """
    X = embedding.vectors
    n = X.shape[0]
    if k < 2:
        raise ClusteringError("k must be >= 2")
    if k > n:
        raise ClusteringError(f"k={k} exceeds {n} points")

    first, inverse = embedding.distinct
    U = X if first.size == n else X[first]
    weight = np.bincount(inverse, minlength=first.size)  # the nodes of each row
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(U, inverse, k, rng)
    u_sq = (U**2).sum(axis=1)
    labels = np.zeros(n, dtype=np.int64)
    wcss_prev = np.inf
    trajectory = []
    rechecked = 0
    reseeded = False  # whether the previous iteration re-seeded a cluster
    capped = True  # until a stop rule fires before max_iter

    for _ in range(max_iter):
        nearest, recheck = _nearest(U, u_sq, centroids)
        rechecked += int(weight[recheck].sum())
        labels = nearest[inverse]
        point_d2 = None  # each point's distance, needed only to re-seed

        order = np.argsort(labels, kind="stable")
        Xs = X[order]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=k))))
        wcss = 0.0
        new_centroids = centroids.copy()
        for j in range(k):
            lo, hi = bounds[j], bounds[j + 1]
            if hi > lo:
                new_centroids[j] = Xs[lo:hi].mean(axis=0)
                wcss += float(((Xs[lo:hi] - new_centroids[j]) ** 2).sum())
            else:
                # re-seed an empty centroid to the point farthest from its
                # current centroid; labels stay as assigned
                if point_d2 is None:
                    point_d2 = ((U - centroids[nearest]) ** 2).sum(axis=1)[inverse]
                far = int(point_d2.argmax())
                new_centroids[j] = X[far]
                point_d2[far] = 0.0
        trajectory.append(wcss)
        if wcss > wcss_prev * (1 + 1e-9) + 1e-12:
            raise AssertionError(
                f"k-means objective increased: {wcss_prev} -> {wcss}"
            )
        move = float(np.abs(new_centroids - centroids).max())
        centroids = new_centroids
        if move < tol or (reseeded and wcss >= wcss_prev):
            capped = False
            break
        reseeded = point_d2 is not None
        wcss_prev = wcss

    counts = np.bincount(labels, minlength=k)
    k_eff = int((counts > 0).sum())
    return RoleAssignment(
        labels=labels,
        k=k,
        method_tag=embedding.method_tag,
        seed=seed,
        degenerate=k_eff < k,
        k_effective=k_eff,
        inertia=trajectory[-1] if trajectory else 0.0,
        meta={
            "wcss_trajectory": trajectory,
            "rechecked_rows": rechecked,
            "distinct_rows": int(first.size),
            "stopped_at_max_iter": capped,
        },
    )


def _distance_block(X, sq_norms, start, stop, out):
    """Euclidean distances from rows start:stop of X to every row, written
    into ``out``; the same floating-point operations, in the same order, as
    sqrt(max(|b|^2 - 2 b.x + |x|^2, 0))."""
    block = X[start:stop]
    np.matmul(block, X.T, out=out)
    out *= -2.0
    out += (block**2).sum(axis=1)[:, None]
    out += sq_norms[None, :]
    np.maximum(out, 0.0, out=out)
    np.sqrt(out, out=out)
    return out


def _mean_silhouettes(X, label_sets):
    """Mean silhouette of every labelling in ``label_sets`` over the rows of
    X, and the number of distinct rows of X.

    Nodes that hold the same row of X (the same bytes) are the same point,
    so the distances are computed only among the u distinct rows, in row
    blocks, and shared by all labellings. Each labelling's per-cluster
    distance sums are one product of a block with ``weights``, the u x
    (populated clusters) matrix that counts, for each distinct row, its
    nodes in each cluster. A node reads its distinct row's sums from that
    row's block, so only one block of sums is held at a time. A row's
    distance to itself is set to 0: the GEMM form leaves a rounding
    residual of about sqrt(eps) |x| there, whose bits depend on the BLAS
    kernel. Copies of a row are one distinct row, so they too are at
    distance 0, as in exact arithmetic. With no repeated row, ``weights``
    is the nodes' indicator matrix and the scores are those of the n x n
    pass, bit for bit. Singleton clusters contribute 0 by convention, as
    does a node whose a and b are both 0. Every labelling needs two
    populated clusters.
    """
    n = X.shape[0]
    first, inverse = distinct_rows(X)
    u = first.size
    U = X if u == n else X[first]
    own_col = []  # per labelling: each node's column in the stacked clusters
    sizes = []  # per labelling: member count of each populated cluster
    offsets = []  # per labelling: its first column
    width = 0
    for labels in label_sets:
        _, inv, counts = np.unique(labels, return_inverse=True, return_counts=True)
        offsets.append(width)
        own_col.append(inv + width)
        sizes.append(counts)
        width += counts.size
    own_col = np.array(own_col)
    sizes = np.concatenate(sizes).astype(float)
    cells = (inverse * width + own_col).ravel()
    # unit weights give float counts, with no int64 copy of the matrix
    weights = np.bincount(cells, np.ones(cells.size), u * width).reshape(u, width)
    sq_norms = (U**2).sum(axis=1)
    chunk = max(1, min(u, 2_000_000 // u))
    buf = np.empty((chunk, u))
    scores = np.zeros((len(own_col), n))
    for start in range(0, u, chunk):
        stop = min(u, start + chunk)
        block = _distance_block(U, sq_norms, start, stop, buf[: stop - start])
        own_row = np.arange(stop - start)
        block[own_row, own_row + start] = 0.0
        # the nodes whose distinct row lies in this block read its sums
        nodes = np.flatnonzero((inverse >= start) & (inverse < stop))
        sums = (block @ weights)[inverse[nodes] - start]
        own = own_col[:, nodes].T
        own_size = sizes[own]
        a = np.take_along_axis(sums, own, axis=1) / np.maximum(own_size - 1, 1)
        means = sums / sizes
        np.put_along_axis(means, own, np.inf, axis=1)
        b = np.minimum.reduceat(means, offsets, axis=1)
        denom = np.maximum(a, b)
        scores[:, nodes] = np.divide(
            b - a,
            denom,
            out=np.zeros_like(denom),
            where=(own_size > 1) & (denom != 0),
        ).T
    return scores.mean(axis=1), u


def silhouette_in_orbit_space(
    assignments,
    orbit_features,
    sample_cap: int = 20000,
    seed: int = 0,
):
    """Mean silhouette of each of ``assignments`` (``RoleAssignment``s of
    the same nodes) measured on log-orbit vectors, and the number of
    distinct rows scored over (``_mean_silhouettes``).

    Every labelling is scored on the same nodes: all of them up to
    ``sample_cap``, beyond that one seeded uniform sample of that size, so
    the scores of different labellings are a paired comparison. Singleton
    clusters contribute 0 by convention. A labelling with fewer than two
    populated clusters among the scored nodes is an error.
    """
    X = orbit_features.values
    n = X.shape[0]
    keep = slice(None)
    if n > sample_cap:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(n, size=sample_cap, replace=False))
        X = X[keep]
    label_sets = []
    for a in assignments:
        if a.labels.shape[0] != n:
            raise ClusteringError(
                f"{a.method_tag} k={a.k}: assignment and orbit features are misaligned"
            )
        labels = a.labels[keep]
        if np.unique(labels).size < 2:
            raise ClusteringError(
                f"{a.method_tag} k={a.k}: silhouette needs at least two populated "
                f"clusters among the {labels.size} scored nodes"
            )
        label_sets.append(labels)
    return _mean_silhouettes(X, label_sets)


@dataclass
class SilhouetteSweep:
    """Rows of (method_tag, k, silhouette, sampled) for plotting, the
    k-means assignment of each cell keyed by (method_tag, k), the wall
    seconds of each worker's share of the k-means cells, and the number of
    distinct orbit rows the silhouette scored over."""

    rows: list
    assignments: dict = field(default_factory=dict)
    worker_seconds: list = field(default_factory=list)
    distinct_rows: int = 0

    def to_csv(self, path) -> None:
        write_csv(path, ["method", "k", "silhouette", "sampled"], self.rows)


def assignment_seed(seed: int, method_tag: str, k: int) -> int:
    """The per-(method, k) k-means seed used by sweep and pipeline."""
    return derive_seed(seed, "kmeans", method_tag, k)


def roles_to_csv(assignment: RoleAssignment, table, path) -> None:
    """``# method=<tag> k=<k> seed=<seed> degenerate=<bool>``, the header
    ``id,role`` and each node's label."""
    a = assignment
    meta = {"method": a.method_tag, "k": a.k, "seed": a.seed, "degenerate": a.degenerate}
    write_csv(path, ["id", "role"], a.labels[:, None], meta, table)


def roles_from_csv(path, table=None):
    """Read a roles CSV with ``graph.read_node_rows``; returns
    (RoleAssignment, external ids). No id may repeat."""
    meta, header, ids, rows = read_node_rows(path, int, ClusteringError, table)
    if header != ["id", "role"]:
        raise ClusteringError(f"{path}: expected header id,role")
    if not rows:
        raise ClusteringError(f"{path}: no role rows")
    labels = np.array(rows, dtype=np.int64).ravel()
    assignment = RoleAssignment(
        labels=labels,
        k=int(meta.get("k", labels.max() + 1)),
        method_tag=meta.get("method", "imported"),
        seed=int(meta.get("seed", 0)),
    )
    return assignment, ids


def sweep(
    embeddings,
    k_range,
    orbit_features,
    seed: int = 0,
    sample_cap: int = 20000,
    threads: int = 1,
) -> SilhouetteSweep:
    """Run k-means plus orbit-space silhouette for each (method, k); the
    result keeps each cell's assignment.

    The k-means cells are independent pure computations. ``threads`` is
    the number of worker processes they are dealt over (the parent runs one
    share, forked workers the others); they are collected by index, so the
    emitted table is identical whatever the count. The orbit-space
    distances depend on neither the method nor k, so one
    ``silhouette_in_orbit_space`` call scores every cell's labelling on the
    same nodes: all of them up to ``sample_cap``, beyond that one sample
    drawn from ``derive_seed(seed, "silhouette")``.
    """
    embeddings = list(embeddings)
    if not embeddings:
        raise ClusteringError("no embeddings supplied")
    ks = list(k_range)
    if not ks:
        raise ClusteringError("empty k range")
    sampled = orbit_features.node_count > sample_cap

    jobs = [(emb, k) for emb in embeddings for k in ks]
    # each embedding's distinct rows, once, before the workers fork
    for emb in embeddings:
        emb.distinct

    def cell(job):
        emb, k = job
        return kmeans(emb, k, seed=assignment_seed(seed, emb.method_tag, k))

    assignments, seconds = map_shares(cell, jobs, threads)
    scores, distinct = silhouette_in_orbit_space(
        assignments, orbit_features, sample_cap=sample_cap, seed=derive_seed(seed, "silhouette")
    )
    rows = [
        (emb.method_tag, k, score, sampled)
        for (emb, k), score in zip(jobs, scores.tolist())
    ]
    cells = {(emb.method_tag, k): a for (emb, k), a in zip(jobs, assignments)}
    return SilhouetteSweep(
        rows=rows, assignments=cells, worker_seconds=seconds, distinct_rows=distinct
    )
