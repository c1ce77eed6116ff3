"""The GraphWave loops, the ReFeX feature counter, the pruning and the
embedding CSV writer that ``orbitroles.embeddings`` replaced.

``graphwave_exact`` evaluates exp(i t psi) afresh at every point, with a
k x k complex exponential per point; the tests hold the rotation
recurrence to it by a tolerance. ``graphwave_per_component`` runs the
rotation once for every component, repeated or not, on a Laplacian filled
entry by entry (``component_laplacian``); the tests hold the one
computation per distinct component to its bits. ``embedding_to_csv_rows``
writes every row through ``csv.writer``; the tests hold the shared row
writer to its bytes. ``initial_loadings_per_row`` seeds RolX's NMF row by
row; the tests hold the per-key draw to its bits.
``nmf_multiplicative_rows`` runs RolX's multiplicative updates over every
row of F, repeated or not; the tests hold the iteration over the distinct
rows to its bits where no row repeats, and to 1e-10 where rows repeat.
``refex_features_bitmask`` counts the ReFeX base features over per-node
neighbour bitmasks, sums neighbours node by node and prunes with one
``np.corrcoef`` per pair of columns (``pearson``); the tests hold the
census-based features and the one correlation matrix per generation to
its bits. ``characteristic_column_blocks`` walks psi in blocks of columns;
the tests hold the row-block walk of ``_characteristic`` to its bits.
"""

import csv

import numpy as np

from orbitroles.embeddings import (
    DEFAULT_SAMPLE_POINTS,
    DEFAULT_SCALES,
    DEFAULT_T_MAX,
    EmbeddingMatrix,
    RefexFeatureMatrix,
    _characteristic,
    _heat_kernel_exact,
)
from orbitroles.seeds import derive_seed


def component_laplacian(graph, comp):
    k = len(comp)
    pos = {v: i for i, v in enumerate(comp)}
    lap = np.zeros((k, k), dtype=np.float64)
    for v in comp:
        i = pos[v]
        lap[i, i] = len(graph.adjacency[v])
        for w in graph.adjacency[v]:
            lap[i, pos[w]] = -1.0
    return lap


def graphwave_per_component(
    graph, scales=DEFAULT_SCALES, sample_points=DEFAULT_SAMPLE_POINTS, t_max=DEFAULT_T_MAX
):
    """``graphwave_embed`` without its checks, one eigendecomposition and
    one set of characteristic sums for every component."""
    scales = tuple(float(s) for s in scales)
    width = 2 * len(scales) * sample_points
    step = np.linspace(0.0, t_max, sample_points)[1]
    out = np.zeros((graph.node_count, width), dtype=np.float64)
    for comp in graph.components():
        k = len(comp)
        eig = np.linalg.eigh(component_laplacian(graph, comp))
        sums = np.empty((k, len(scales), sample_points, 2))
        for i, s in enumerate(scales):
            _characteristic(_heat_kernel_exact(eig, s), step, sums[:, i])
        out[comp] = sums.reshape(k, width) * (1.0 / k)
    return out


def graphwave_exact(
    graph, scales=DEFAULT_SCALES, sample_points=DEFAULT_SAMPLE_POINTS, t_max=DEFAULT_T_MAX
):
    """``graphwave_embed`` without its checks: same keywords, same layout,
    and the same component counts in the meta."""
    scales = tuple(float(s) for s in scales)
    width = 2 * len(scales) * sample_points
    ts = np.linspace(0.0, t_max, sample_points)
    out = np.zeros((graph.node_count, width), dtype=np.float64)
    components = graph.components()
    laplacians = set()
    for comp in components:
        idx = np.array(comp)
        lap = component_laplacian(graph, comp)
        laplacians.add((len(comp), lap.tobytes()))
        eig = np.linalg.eigh(lap)
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
        meta={
            "scales": scales,
            "sample_points": sample_points,
            "t_max": t_max,
            "components": len(components),
            "distinct_components": len(laplacians),
        },
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


def nmf_multiplicative_rows(F, rank, seed, max_iter, tol):
    """``_nmf_multiplicative`` over all n rows of F, each with its own
    loading row; returns (G, H, errors, converged)."""
    eps = 1e-12
    G = initial_loadings_per_row(F, rank, seed)
    H = 1.0 - np.random.default_rng(derive_seed(seed, "basis")).random((rank, F.shape[1]))
    errors = [float(np.linalg.norm(F - G @ H))]
    converged = False
    for _ in range(max_iter):
        H *= (G.T @ F) / (G.T @ G @ H + eps)
        G *= (F @ H.T) / (G @ H @ H.T + eps)
        err = float(np.linalg.norm(F - G @ H))
        errors.append(err)
        prev = errors[-2]
        if prev > 0 and (prev - err) / prev < tol:
            converged = True
            break
    return G, H, errors, converged


def pearson(u, v):
    su, sv = u.std(), v.std()
    if su == 0.0 and sv == 0.0:
        return 1.0  # two constants are duplicates
    if su == 0.0 or sv == 0.0:
        return 0.0
    return float(np.corrcoef(u, v)[0, 1])


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
            if any(abs(pearson(col, cols[j])) > dedup_threshold for j in range(len(cols))):
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


def characteristic_column_blocks(psi, step, sums, block_cells=1 << 15):
    """``_characteristic`` as it walked psi in blocks of columns, before it
    walked blocks of rows, with its rotation as it is now: one complex
    multiply of the phase by exp(i step psi) per point."""
    k, points = psi.shape[0], sums.shape[1]
    width = max(1, block_cells // k)
    for j0 in range(0, k, width):
        arg = step * psi[:, j0 : j0 + width]
        rot = np.cos(arg) + 1j * np.sin(arg)
        z = np.ones_like(rot)
        block = sums[j0 : j0 + width]
        for j in range(points):
            if j:
                z *= rot
            total = z.sum(axis=0)
            block[:, j, 0] = total.real
            block[:, j, 1] = total.imag
