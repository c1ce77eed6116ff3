"""The k-means loop that ``clustering.kmeans`` replaced.

It seeds with k-means++ over every node's row (``kmeans_pp_init_rows``),
computes every point-to-centroid distance exactly from an n x k x d
broadcast and gathers each cluster's members with a boolean mask; the
tests hold the BLAS-screened loop over the distinct rows to its labels,
WCSS trajectory and degeneracy, compared with ``==``. It shares one rule
with ``clustering.kmeans``: a run stops when the iteration after a
re-seed does not lower the WCSS.

``roles_to_csv_rows`` is the row-by-row ``csv.writer`` loop that
``clustering.roles_to_csv`` replaced with ``graph.write_node_rows``.

``mean_silhouettes_one_hot`` scores every labelling over all n x n
orbit-space distances, with an n x (stacked clusters) indicator matrix;
``clustering._mean_silhouettes`` scores over the distinct rows only, and
the tests hold it to these bits, compared with ``==``, on inputs with no
repeated row.
"""

import csv

import numpy as np

from orbitroles.clustering import ClusteringError, RoleAssignment, _distance_block


def kmeans_pp_init_rows(X, k, rng):
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


def kmeans_broadcast(embedding, k, seed=0, max_iter=300, tol=1e-6):
    X = embedding.vectors
    n = X.shape[0]
    if k < 2:
        raise ClusteringError("k must be >= 2")
    if k > n:
        raise ClusteringError(f"k={k} exceeds {n} points")

    rng = np.random.default_rng(seed)
    centroids = kmeans_pp_init_rows(X, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    wcss_prev = np.inf
    trajectory = []
    reseeded = False

    for _ in range(max_iter):
        d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        point_d2 = d2[np.arange(n), labels]

        wcss = 0.0
        new_centroids = centroids.copy()
        emptied = False
        for j in range(k):
            members = labels == j
            if members.any():
                new_centroids[j] = X[members].mean(axis=0)
                wcss += float(((X[members] - new_centroids[j]) ** 2).sum())
            else:
                emptied = True
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
        reseeded = emptied
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
        meta={"wcss_trajectory": trajectory},
    )


def roles_to_csv_rows(assignment, table, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f"# method={assignment.method_tag} k={assignment.k} "
            f"seed={assignment.seed} degenerate={str(assignment.degenerate).lower()}\n"
        )
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "role"])
        for i, ext in enumerate(table.external_ids):
            writer.writerow([ext, int(assignment.labels[i])])


def mean_silhouettes_one_hot(X, label_sets):
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
        own_row = np.arange(stop - start)
        d[own_row, own_row + start] = 0.0
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
