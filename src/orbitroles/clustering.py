"""K-means role candidates and orbit-space silhouette validation.

Candidate roles are k-means clusterings of an embedding space; their
validity is judged where interpretation happens, in the graphlet space,
by the silhouette score over log-transformed orbit vectors. The sweep
emits one row per (method, k) for plotting; candidate selection stays
manual. It first runs k-means for every cell, dealt over ``threads``
forked worker processes (``workers.map_shares``; by default one per usable
CPU, and each holds its own cells' working memory), and then scores all
the labellings in one pass over the orbit-space distances, which are
shared by every cell because they depend on neither the method nor k. The
pipeline takes its chosen-k roles from the sweep's cells.

Each k-means assignment step screens the distances with one BLAS matrix
product and computes exact distances only for the rows whose nearest
centroid the product's rounding could change, so the labels are those of
the exact evaluation whatever kernel the BLAS uses (see ``_nearest``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

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


def _kmeans_pp_init(X, k, rng):
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = X[first]
    d2 = ((X - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(0, n))
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, n - 1)
        centroids[j] = X[idx]
        d2 = np.minimum(d2, ((X - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _nearest(X, x_sq, centroids):
    """Each row's nearest centroid, as the first argmin of the exact
    distances ``((x - c) ** 2).sum()``; also returns how many rows had to
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
    return labels, int(recheck.size)


def kmeans(
    embedding,
    k: int,
    seed: int = 0,
    max_iter: int = 300,
    tol: float = 1e-6,
) -> RoleAssignment:
    """Lloyd's algorithm with k-means++ init, deterministic per seed.

    Each assignment step is ``_nearest``: a GEMM screen settles every row
    whose nearest centroid is clear by more than a floating-point error
    bound, and only the remaining rows compute exact distances, so labels
    and WCSS are those of the exact n x k x d evaluation, bit for bit.
    ``meta["rechecked_rows"]`` counts those rows over all iterations. The
    centroid and WCSS update reads each cluster as one contiguous slice of
    the rows sorted stably by label, which sums the members in the same
    order as a boolean mask would.

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

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, k, rng)
    x_sq = (X**2).sum(axis=1)
    labels = np.zeros(n, dtype=np.int64)
    wcss_prev = np.inf
    trajectory = []
    rechecked = 0
    reseeded = False  # whether the previous iteration re-seeded a cluster

    for _ in range(max_iter):
        labels, count = _nearest(X, x_sq, centroids)
        rechecked += count
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
                    point_d2 = ((X - centroids[labels]) ** 2).sum(axis=1)
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
        meta={"wcss_trajectory": trajectory, "rechecked_rows": rechecked},
    )


def _scoring_input(X, labels, sample_cap, seed):
    """Check one labelling against X; beyond ``sample_cap`` rows, draw its
    seeded uniform node sample. Returns the (X, labels) to score."""
    if X.shape[0] != labels.shape[0]:
        raise ClusteringError("assignment and orbit features are misaligned")
    if np.unique(labels).size < 2:
        raise ClusteringError("silhouette needs at least two populated clusters")
    n = X.shape[0]
    if n <= sample_cap:
        return X, labels
    rng = np.random.default_rng(seed)
    keep = np.sort(rng.choice(n, size=sample_cap, replace=False))
    labels = labels[keep]
    if np.unique(labels).size < 2:
        raise ClusteringError("sampled nodes fall in a single cluster")
    return X[keep], labels


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


def _mean_silhouettes(X, label_sets) -> np.ndarray:
    """Mean silhouette of every labelling in ``label_sets`` over the rows of X.

    The pairwise distances are computed once, in row blocks, and shared by
    all labellings: each labelling's per-cluster distance sums are one
    product of the block with its n x (populated clusters) indicator matrix.
    Singleton clusters contribute 0 by convention, as does a node whose a
    and b are both 0. Every labelling needs two populated clusters.
    """
    n = X.shape[0]
    own_col = []  # per labelling: each node's column in the stacked indicator
    sizes = []  # per labelling: member count of each populated cluster
    offsets = []  # per labelling: its first column
    width = 0
    for labels in label_sets:
        _, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
        offsets.append(width)
        own_col.append(inverse + width)
        sizes.append(counts)
        width += counts.size
    own_col = np.array(own_col)
    sizes = np.concatenate(sizes).astype(float)
    one_hot = np.zeros((n, sizes.size))
    one_hot[np.arange(n)[None, :], own_col] = 1.0

    sq_norms = (X**2).sum(axis=1)
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    buf = np.empty((chunk, n))
    scores = np.zeros((len(own_col), n))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        d = _distance_block(X, sq_norms, start, stop, buf[: stop - start])
        sums = d @ one_hot
        own = own_col[:, start:stop].T
        own_size = sizes[own]
        a = np.take_along_axis(sums, own, axis=1) / np.maximum(own_size - 1, 1)
        means = sums / sizes
        np.put_along_axis(means, own, np.inf, axis=1)
        b = np.minimum.reduceat(means, offsets, axis=1)
        denom = np.maximum(a, b)
        scores[:, start:stop] = np.divide(
            b - a,
            denom,
            out=np.zeros_like(denom),
            where=(own_size > 1) & (denom != 0),
        ).T
    return scores.mean(axis=1)


def silhouette_in_orbit_space(
    assignment: RoleAssignment,
    orbit_features,
    sample_cap: int = 20000,
    seed: int = 0,
) -> float:
    """Mean silhouette of the roles measured on log-orbit vectors.

    Exact (all pairwise Euclidean distances) up to ``sample_cap`` nodes;
    beyond that a seeded uniform node sample of that size is scored.
    Singleton clusters contribute 0 by convention. All nodes in one
    cluster is an error.
    """
    X, labels = _scoring_input(
        orbit_features.values, assignment.labels, sample_cap, seed
    )
    return float(_mean_silhouettes(X, [labels])[0])


@dataclass
class SilhouetteSweep:
    """Rows of (method_tag, k, silhouette, sampled) for plotting, the
    k-means assignment of each cell keyed by (method_tag, k), and the wall
    seconds of each worker's share of the k-means cells."""

    rows: list
    assignments: dict = field(default_factory=dict)
    worker_seconds: list = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["method", "k", "silhouette", "sampled"])
            for method, k, score, sampled in self.rows:
                writer.writerow([method, k, repr(float(score)), str(bool(sampled)).lower()])

    def best_k(self, method: str) -> int:
        cand = [(s, k) for m, k, s, _ in self.rows if m == method]
        if not cand:
            raise ClusteringError(f"no sweep rows for method {method!r}")
        return max(cand)[1]


def assignment_seed(seed: int, method_tag: str, k: int) -> int:
    """The per-(method, k) k-means seed used by sweep and pipeline."""
    return derive_seed(seed, "kmeans", method_tag, k)


def roles_to_csv(assignment: RoleAssignment, table, path) -> None:
    if assignment.labels.shape[0] != len(table):
        raise ClusteringError("assignment and node table are misaligned")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# method={assignment.method_tag} k={assignment.k} "
            f"seed={assignment.seed} degenerate={str(assignment.degenerate).lower()}\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "role"])
        for i, ext in enumerate(table.external_ids):
            writer.writerow([ext, int(assignment.labels[i])])


def roles_from_csv(path, table=None):
    """Read a roles CSV; returns (RoleAssignment, external ids)."""
    meta = {}
    ids = []
    labels = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header_seen = False
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                for part in line[1:].split():
                    if "=" in part:
                        key, val = part.split("=", 1)
                        meta[key] = val
                continue
            cells = next(csv.reader([line]))
            if not header_seen:
                if cells[:2] != ["id", "role"]:
                    raise ClusteringError(f"{path}: expected header id,role")
                header_seen = True
                continue
            ids.append(cells[0])
            labels.append(int(cells[1]))
    if not ids:
        raise ClusteringError(f"{path}: no role rows")
    labels = np.array(labels, dtype=np.int64)
    if table is not None:
        index = {x: i for i, x in enumerate(ids)}
        missing = [x for x in table.external_ids if x not in index]
        if missing:
            raise ClusteringError(f"{path}: missing roles for ids {missing[:10]}")
        labels = labels[[index[x] for x in table.external_ids]]
        ids = list(table.external_ids)
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
    emitted table is identical whatever the count. In exact mode
    (at most ``sample_cap`` nodes) the orbit-space distances depend on
    neither the method nor k, so one pass over them scores every cell's
    labelling. Beyond ``sample_cap`` each cell scores its own seeded node
    sample.
    """
    embeddings = list(embeddings)
    if not embeddings:
        raise ClusteringError("no embeddings supplied")
    ks = list(k_range)
    if not ks:
        raise ClusteringError("empty k range")
    sampled = orbit_features.node_count > sample_cap

    jobs = [(emb, k) for emb in embeddings for k in ks]

    def cell(job):
        emb, k = job
        return kmeans(emb, k, seed=assignment_seed(seed, emb.method_tag, k))

    assignments, seconds = map_shares(cell, jobs, threads)

    X = orbit_features.values
    # lazy, so that sampled mode holds one cell's sample at a time
    inputs = (
        _scoring_input(
            X,
            assignment.labels,
            sample_cap,
            derive_seed(seed, "silhouette", emb.method_tag, k),
        )
        for assignment, (emb, k) in zip(assignments, jobs)
    )
    if sampled:
        scores = [float(_mean_silhouettes(Xs, [labels])[0]) for Xs, labels in inputs]
    else:
        scores = _mean_silhouettes(X, [labels for _, labels in inputs]).tolist()
    rows = [
        (emb.method_tag, k, score, sampled) for (emb, k), score in zip(jobs, scores)
    ]
    cells = {(emb.method_tag, k): a for (emb, k), a in zip(jobs, assignments)}
    return SilhouetteSweep(rows=rows, assignments=cells, worker_seconds=seconds)
