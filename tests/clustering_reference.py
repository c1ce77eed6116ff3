"""The k-means loop that ``clustering.kmeans`` replaced.

It computes every point-to-centroid distance exactly from an n x k x d
broadcast and gathers each cluster's members with a boolean mask; the
tests hold the BLAS-screened loop to its labels, WCSS trajectory and
degeneracy, compared with ``==``. It shares one rule with
``clustering.kmeans``: a run stops when the iteration after a re-seed does
not lower the WCSS.
"""

import numpy as np

from orbitroles.clustering import ClusteringError, RoleAssignment, _kmeans_pp_init


def kmeans_broadcast(embedding, k, seed=0, max_iter=300, tol=1e-6):
    X = embedding.vectors
    n = X.shape[0]
    if k < 2:
        raise ClusteringError("k must be >= 2")
    if k > n:
        raise ClusteringError(f"k={k} exceeds {n} points")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(X, k, rng)
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
