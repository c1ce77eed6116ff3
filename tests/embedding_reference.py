"""The GraphWave loop, the ReFeX feature counter and the embedding CSV
writer that ``orbitroles.embeddings`` replaced.

``graphwave_exact`` evaluates exp(i t psi) afresh at every point, with a
k x k complex exponential per point; the tests hold the rotation
recurrence to it by a tolerance. ``embedding_to_csv_rows`` writes every
row through ``csv.writer``; the tests hold the joined writer to its bytes.
``initial_loadings_per_row`` seeds RolX's NMF row by row; the tests hold the
per-key draw to its bits. ``refex_features_bitmask`` counts the ReFeX base
features over per-node neighbour bitmasks and sums neighbours node by node;
the tests hold the census-based features to its bits.
"""

import csv

import numpy as np

from orbitroles.embeddings import (
    DEFAULT_SAMPLE_POINTS,
    DEFAULT_SCALES,
    DEFAULT_T_MAX,
    EmbeddingMatrix,
    RefexFeatureMatrix,
    _component_laplacian,
    _heat_kernel_exact,
    _pearson,
)
from orbitroles.seeds import derive_seed


def graphwave_exact(
    graph, scales=DEFAULT_SCALES, sample_points=DEFAULT_SAMPLE_POINTS, t_max=DEFAULT_T_MAX
):
    """``graphwave_embed`` without its checks: same keywords, same layout."""
    scales = tuple(float(s) for s in scales)
    width = 2 * len(scales) * sample_points
    ts = np.linspace(0.0, t_max, sample_points)
    out = np.zeros((graph.node_count, width), dtype=np.float64)
    for comp in graph.components():
        idx = np.array(comp)
        eig = np.linalg.eigh(_component_laplacian(graph, comp))
        col = 0
        for s in scales:
            psi = _heat_kernel_exact(eig, s)
            for t in ts:
                phase = np.exp(1j * t * psi)
                char = phase.mean(axis=0)  # over coefficient rows, 1/|C| norm
                out[idx, col] = char.real
                out[idx, col + 1] = char.imag
                col += 2
    return EmbeddingMatrix(
        vectors=out,
        method_tag="graphwave",
        meta={"scales": scales, "sample_points": sample_points, "t_max": t_max},
    )


def embedding_to_csv_rows(embedding, table, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# method={embedding.method_tag}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"e{i}" for i in range(embedding.d)])
        for i, ext in enumerate(table.external_ids):
            writer.writerow([ext] + [repr(float(v)) for v in embedding.vectors[i]])


def initial_loadings_per_row(F, rank, seed):
    """The NMF loading rows as ``_nmf_multiplicative`` first drew them: one
    derived seed and one generator per row of F."""
    G = np.empty((F.shape[0], rank))
    for i in range(F.shape[0]):
        key = np.round(F[i], 9).tobytes().hex()
        row_rng = np.random.default_rng(derive_seed(seed, "loading-row", key))
        G[i] = 1.0 - row_rng.random(rank)
    return G


def refex_features_bitmask(graph, depth=2, dedup_threshold=0.99):
    """``refex_features`` without the census: egonet edges counted from
    Python big-int neighbour bitmasks, neighbour sums added node by node."""
    n = graph.node_count
    adjacency = graph.adjacency
    masks = []
    for v in range(n):
        m = 1 << v
        for w in adjacency[v]:
            m |= 1 << w
        masks.append(m)

    deg = graph.degrees().astype(np.float64)
    internal = np.zeros(n)
    boundary = np.zeros(n)
    for v in range(n):
        ego = masks[v]
        inside = 0
        outside = 0
        for u in [v] + list(adjacency[v]):
            k = bin(masks[u] & ego).count("1") - 1  # drop u itself
            inside += k
            outside += len(adjacency[u]) - k
        internal[v] = inside / 2
        boundary[v] = outside

    cols = [deg, internal, boundary]
    names = ["degree", "ego_internal", "ego_boundary"]
    prev_gen = list(range(len(cols)))
    reached = 0
    for gen in range(1, depth + 1):
        new_cols = []
        new_names = []
        for ci in prev_gen:
            base = cols[ci]
            agg_sum = np.zeros(n)
            for v in range(n):
                if adjacency[v]:
                    agg_sum[v] = sum(base[w] for w in adjacency[v])
            agg_mean = np.where(deg > 0, agg_sum / np.maximum(deg, 1), 0.0)
            new_cols += [agg_mean, agg_sum]
            new_names += [f"mean_{names[ci]}", f"sum_{names[ci]}"]
        kept = []
        for col, name in zip(new_cols, new_names):
            if any(abs(_pearson(col, cols[j])) > dedup_threshold for j in range(len(cols))):
                continue
            cols.append(col)
            names.append(name)
            kept.append(len(cols) - 1)
        if not kept:
            break
        prev_gen = kept
        reached = gen
    return RefexFeatureMatrix(
        features=np.column_stack(cols), generation=reached, column_names=names
    )
