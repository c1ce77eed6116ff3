"""Structural role embeddings.

GraphWave (Donnat et al., KDD 2018): exact heat-kernel wavelets from the
graph Laplacian, summarized per node by the empirical characteristic
function of its wavelet coefficients at evenly spaced evaluation points.
Deterministic, seed-free; processed per connected component (the heat
kernel is block-diagonal), with one eigendecomposition per component
shared by every scale and the characteristic function normalized by
component size. Each distinct component is computed once: components are
keyed by their size and local edge list (``Graph.copies``, computed once
per graph and shared with the census), and a component whose key came
before copies that component's rows. Its Laplacian would be the same
bytes, so the copied rows are the bits it would compute. A citation graph
of many small components repeats few structures (the planted-many bench
graph at seed 7: 173 components, 22 distinct).

The points are t_j = j * step, so exp(i t_j psi) = exp(i step psi)^j: the
characteristic function takes one cos and one sin per wavelet coefficient
(the step), held as one complex rotation r = cos + i sin, and each
further point multiplies the running complex phase by it, z <- z * r. psi
is walked in row blocks of at most ``_BLOCK_CELLS`` cells (or one row), so
the working memory beyond psi is O(block + points * k), not k x k. Each
column's sum runs over the rows in order, carried from one block to the
next, so the sums do not depend on the block height.

numpy's complex multiply is (c cos - s sin, c sin + s cos). On CPUs with
FMA (x86-64-v3 and newer) numpy dispatches a fused loop, which rounds each
product of a pair once instead of twice; with the dispatch held to the
baseline (``NPY_DISABLE_CPU_FEATURES``) it equals the separate multiplies
and adds bit for bit. The two differ by rounding only: at most 8.9e-16 in
an embedding value on the ba-hub bench graph and 1.1e-15 on planted-many
(seed 7). Against exact evaluation of each exp(i t_j psi) the rounding
error grows with j. On the 25-node graph of test_embeddings.py (a
20-node ER component, a triangle and two singletons; t_max 100), up to
6.1e-15 was seen in an embedding value at 32 points and 2.3e-14 at 1000,
fused or not, as four separate real multiplies and adds give
(tests/embedding_reference.py keeps the exact form, and the tests hold
the two within 1e-12). The t = 0 point is the same to the bit.

RolX: recursive structural features (ReFeX) factorized by non-negative
matrix factorization with multiplicative updates; a node's embedding is
its L1-normalized loading row. ReFeX's base features are census orbits:
degree is orbit 0, egonet internal edges orbits 0 + 3, boundary edges orbit 1.
The factorization runs over the distinct ReFeX rows, each weighted by its
node count, and copies each row's loadings to its nodes: the same
iteration as over all rows, up to rounding, and with no repeated row the
same bits (the planted-many bench graph at seed 7: 2,600 rows, 86
distinct).

Struc2Vec/Role2Vec and any other external method enter the pipeline only
through ``import_embedding``.

``embedding_to_csv`` writes every embedding, native or imported, as a
per-node CSV of ``graph``, and ``import_embedding`` reads one back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .graph import distinct_rows, read_node_rows, write_csv
from .seeds import derive_seed

DEFAULT_SCALES = (0.5, 1.5)
DEFAULT_SAMPLE_POINTS = 32
DEFAULT_T_MAX = 100.0
DEFAULT_ROLX_RANK = 4


class EmbeddingError(ValueError):
    """Invalid embedding parameters or input files."""


@dataclass
class EmbeddingMatrix:
    """N x d real node vectors tagged with the producing method."""

    vectors: np.ndarray
    method_tag: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise EmbeddingError("embedding must be a 2-d matrix")
        if not np.isfinite(self.vectors).all():
            raise EmbeddingError("embedding contains NaN or Inf")

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    @property
    def node_count(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def distinct(self) -> tuple:
        """``graph.distinct_rows`` of the vectors, computed once for every
        k-means run over them."""
        return distinct_rows(self.vectors)


@dataclass
class RefexFeatureMatrix:
    """Recursive structural features: base + neighbor aggregates."""

    features: np.ndarray
    generation: int
    column_names: list


def _laplacian(k, flat):
    """The dense k x k Laplacian of a component of k nodes whose edges are
    ``Graph.local_edges``: the -1 entries at those flat positions."""
    lap = np.zeros(k * k)
    lap[flat] = -1.0
    lap[:: k + 1] = np.bincount(flat // k, minlength=k)
    return lap.reshape(k, k)


def _heat_kernel_exact(eig, scale):
    """Heat kernel from ``np.linalg.eigh(lap)``, shared by every scale."""
    eigval, eigvec = eig
    return (eigvec * np.exp(-scale * eigval)) @ eigvec.T


# Cells per row block of psi in ``_characteristic``. Its block arrays (the
# complex phase and rotation, two planes each, step * psi and the
# temporary of its cos) take about 6 * 8 * 2**15 bytes = 1.5 MB whatever
# the component size; on BA graphs of n = 800 and 2,000 blocks of 2**14
# and 2**16 cells both ran slower.
_BLOCK_CELLS = 1 << 15


# the methods ``[embed] methods`` may name; any other method enters through
# ``import_embedding``
NATIVE_METHODS = ("graphwave", "rolx")


def sampling_problems(sample_points, t_max) -> list:
    """Why GraphWave's evaluation points are unusable, if they are: with
    fewer than two points or a zero span every node gets the same
    constant vector, and with no points no vector at all."""
    problems = []
    if sample_points < 2:
        problems.append(f"sample_points {sample_points} < 2")
    if not (math.isfinite(t_max) and t_max > 0):
        problems.append(f"t_max {t_max} is not positive and finite")
    return problems


def _characteristic(psi, step, sums):
    """Column sums of cos and sin of t_j * psi at t_j = j * step.

    Fills ``sums[v, j] = (sum_u cos(t_j psi[u, v]), sum_u sin(...))`` for
    the points j < ``sums.shape[1]``. psi is walked in blocks of h rows;
    each block's phase z (complex, in rows 1..h of one buffer) is rotated
    by r = exp(i step psi) from one point to the next with one complex
    multiply. Each point's column sums over the earlier blocks are carried
    into row 0 of the buffer, so that the sum over the block's rows
    continues the one sequential sum over u = 0..k-1.
    """
    k, points = psi.shape[0], sums.shape[1]
    h = min(k, max(1, _BLOCK_CELLS // k))
    buf = np.empty((h + 1, k), dtype=np.complex128)
    rot = np.empty((h, k), dtype=np.complex128)
    # (point, column): a reduce into a strided view of sums is several
    # times slower than into a contiguous row
    acc = np.empty((points, k), dtype=np.complex128)
    for r0 in range(0, k, h):
        rows = min(h, k - r0)
        z, r = buf[1 : rows + 1], rot[:rows]
        sd = step * psi[r0 : r0 + rows]
        # copied from contiguous cos and sin, the loops the tests' reference runs
        r.real = np.cos(sd)
        r.imag = np.sin(sd, out=sd)
        z[:] = 1.0
        # the first block starts each point's sums; the others carry them in
        terms = buf[: rows + 1] if r0 else z
        for j in range(points):
            if j:
                z *= r
            if r0:
                buf[0] = acc[j]
            np.add.reduce(terms, axis=0, out=acc[j])
    sums[:] = acc.view(np.float64).reshape(points, k, 2).transpose(1, 0, 2)


def estimate_graphwave_memory_mb(
    graph, scales=DEFAULT_SCALES, sample_points: int = DEFAULT_SAMPLE_POINTS
) -> float:
    """Upper bound on the working set of ``graphwave_embed``, in MB. Components
    are embedded one at a time, so the k x k matrices are the largest one's:
    five while ``eigh`` runs (``_laplacian``'s, LAPACK's copy, 2k^2 + 6k + 1
    doubles of workspace, the eigenvectors), two beside ``_characteristic``'s
    block arrays: the complex phase and rotation (two planes each), step *
    psi and its cos, six planes of min(k^2, ``_BLOCK_CELLS``) cells. Add the
    output and the complex sums, per node and CSR entry the component lists
    and keys, and 64 kB."""
    k, n = max(map(len, graph.copies[0]), default=0), graph.node_count
    width = 2 * len(scales) * sample_points
    cells = 5 * k * k + 6 * min(k * k, _BLOCK_CELLS) + (12 + 2 * sample_points + width) * k
    return (8 * (cells + n * width) + 250 * n + 50 * graph.indices.size + 2**16) / 1e6


def graphwave_embed(
    graph,
    scales=DEFAULT_SCALES,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    t_max: float = DEFAULT_T_MAX,
) -> EmbeddingMatrix:
    """Heat-wavelet characteristic-function embedding.

    The width is 2 * len(scales) * sample_points (real and imaginary part
    per evaluation point): 128 with the defaults (2 scales, 32 points). ``sample_points``
    must be at least 2 and ``t_max`` positive and finite.

    Each point's phase is the previous one's times exp(i step psi) (see
    the module docstring), over row blocks of at most ``_BLOCK_CELLS``
    cells of psi; the values differ from exact evaluation of every
    exp(i t psi) by rounding only, a few 1e-15 at the default 32 points.
    ``meta`` counts the ``components`` and the ``distinct_components``,
    the ones computed; the others copy rows.
    """
    scales = tuple(float(s) for s in scales)
    if not scales or any(s <= 0 for s in scales):
        raise EmbeddingError("scales must be positive reals")
    problems = sampling_problems(sample_points, t_max)
    if problems:
        raise EmbeddingError("; ".join(problems))
    width = 2 * len(scales) * sample_points

    step = np.linspace(0.0, t_max, sample_points)[1]
    out = np.zeros((graph.node_count, width), dtype=np.float64)
    components, first = graph.copies
    for i, comp in enumerate(components):
        if first[i] != i:
            # the same Laplacian bytes: the rows it would compute, bit for bit
            out[comp] = out[components[first[i]]]
            continue
        k = len(comp)
        eig = np.linalg.eigh(_laplacian(k, graph.local_edges(comp)))
        # node x scale x point x (real, imaginary)
        sums = np.empty((k, len(scales), sample_points, 2))
        for i, s in enumerate(scales):
            _characteristic(_heat_kernel_exact(eig, s), step, sums[:, i])
        # mean over coefficient rows as sum * (1/k), the way numpy's
        # complex mean divides
        out[comp] = sums.reshape(k, width) * (1.0 / k)
    return EmbeddingMatrix(
        vectors=out,
        method_tag="graphwave",
        meta={
            "scales": scales,
            "sample_points": sample_points,
            "t_max": t_max,
            "components": len(components),
            "distinct_components": sum(f == i for i, f in enumerate(first)),
        },
    )


_DEDUP_THRESHOLD = 0.99  # |Pearson r| above which a new ReFeX column is pruned


def _abs_correlations(cols):
    """|Pearson r| between every two of ``cols`` from one correlation
    matrix. Two constant columns count as r = 1 (duplicates), a constant
    against a non-constant one as r = 0."""
    constant = np.array([c.std() == 0.0 for c in cols])
    r = np.zeros((len(cols), len(cols)))
    r[np.ix_(constant, constant)] = 1.0
    varying = np.flatnonzero(~constant)
    if varying.size:
        r[np.ix_(varying, varying)] = np.abs(np.corrcoef(np.array([cols[i] for i in varying])))
    return r


def refex_features(graph, orbits, depth: int = 2) -> RefexFeatureMatrix:
    """Base structural features plus recursive neighbor aggregates.

    Base: degree, egonet internal edge count and egonet boundary edge
    count, read off the orbit census ``orbits`` of ``graph`` as orbits 0,
    0 + 3 and 1. Each generation appends the mean and sum over neighbors of
    the previous generation's retained columns, pruning near-duplicates by
    absolute Pearson correlation. A node's neighbor sum adds its neighbors
    in ascending order, as one ``bincount`` over the CSR entries does.
    """
    if orbits.node_count != graph.node_count:
        raise EmbeddingError(f"{orbits.node_count} census rows for {graph.node_count} nodes")
    deg, indices = graph.degrees(), graph.indices
    rows = np.repeat(np.arange(graph.node_count), deg)
    o = orbits.counts
    cols = [
        o[:, 0].astype(np.float64),
        (o[:, 0] + o[:, 3]).astype(np.float64),
        o[:, 1].astype(np.float64),
    ]
    names = ["degree", "ego_internal", "ego_boundary"]
    prev_gen = list(range(len(cols)))
    reached = 0

    for gen in range(1, depth + 1):
        new_cols = []
        new_names = []
        for ci in prev_gen:
            agg_sum = np.bincount(rows, weights=cols[ci][indices], minlength=graph.node_count)
            new_cols += [agg_sum / np.maximum(deg, 1), agg_sum]
            new_names += [f"mean_{names[ci]}", f"sum_{names[ci]}"]
        # a new column is pruned when it nearly duplicates a kept one, old
        # or of this generation
        r = _abs_correlations(cols + new_cols)
        against = list(range(len(cols)))  # the kept columns' rows of r
        kept = []
        for i, (col, name) in enumerate(zip(new_cols, new_names), start=len(cols)):
            if (r[i, against] > _DEDUP_THRESHOLD).any():
                continue
            against.append(i)
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


def _nmf_multiplicative(F, rank, seed, max_iter, tol):
    """F ~ G @ H with non-negative factors; returns (G, H, errors,
    converged, u), u being the distinct rows of F iterated over.

    Loading rows are initialized uniform(0, 1] from a seed derived from the
    row's feature content, so relabeling nodes permutes the factorization
    exactly and structurally identical nodes share an initialization.

    Rows of F with the same bytes (``graph.distinct_rows``) start equal and
    get equal updates, so the updates run over the u distinct rows F_u
    alone, each weighted by its node count w: H's update reads
    G.T @ (w * F_u) and (w * G).T @ G, the error is
    ||sqrt(w) * (F_u - G @ H)||, and each node reads its row's loadings at
    the end. That is the iteration over all n rows in exact arithmetic, and
    in floating point it differs by rounding only. With no repeated row
    (u == n) there are no weights, and the operations are those of the
    iteration over F itself, bit for bit.
    """
    n, f = F.shape
    eps = 1e-12
    first, inverse = distinct_rows(F)
    if first.size < n:
        Fu = F[first]
        w = np.bincount(inverse)[:, None].astype(np.float64)  # node counts
        wF, sw = w * Fu, np.sqrt(w)
    else:
        # not the weighted path with unit weights: numpy computes G.T @ G
        # with a symmetric rank-k product and (w * G).T @ G with a general
        # one, and the two round differently (not bit-equal on an 800 x 4
        # G), so unit weights would change RolX's CSV of a graph that
        # repeats no ReFeX row
        Fu, w, wF, sw = F, None, F, None
    # quantize before hashing: neighbor-sum rounding noise must not change
    # the seed under node relabeling, so rows that differ by such noise
    # draw the same loadings. -0.0 and 0.0 stay apart, as in the key.
    G = np.empty((first.size, rank))
    for j, row in enumerate(np.round(Fu, 9)):
        row_rng = np.random.default_rng(derive_seed(seed, "loading-row", row.tobytes().hex()))
        G[j] = 1.0 - row_rng.random(rank)
    H = 1.0 - np.random.default_rng(derive_seed(seed, "basis")).random((rank, f))

    def error():
        residual = Fu - G @ H
        return float(np.linalg.norm(residual if sw is None else sw * residual))

    errors = [error()]
    converged = False
    for _ in range(max_iter):
        wG = G if w is None else w * G
        H *= (G.T @ wF) / (wG.T @ G @ H + eps)
        G *= (Fu @ H.T) / (G @ H @ H.T + eps)
        err = error()
        errors.append(err)
        prev = errors[-2]
        if prev > 0 and (prev - err) / prev < tol:
            converged = True
            break
    return (G if w is None else G[inverse]), H, errors, converged, int(first.size)


def rolx_embed(
    graph,
    orbits,
    rank: int = DEFAULT_ROLX_RANK,
    refex_depth: int = 2,
    seed: int = 0,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> EmbeddingMatrix:
    """ReFeX features of ``graph`` and its orbit census ``orbits``,
    factorized by seeded multiplicative-update NMF.

    The factorization runs over the ``meta['distinct_rows']`` distinct
    ReFeX rows, each weighted by its node count. Rows of the returned
    matrix are the loading rows of G normalized to unit L1 (all-zero rows
    stay zero). Non-convergence after ``max_iter`` returns the last iterate
    with ``meta['converged'] = False``.
    """
    if rank < 2:
        raise EmbeddingError("rank must be >= 2")
    refex = refex_features(graph, orbits, depth=refex_depth)
    F = refex.features
    if rank > F.shape[1]:
        raise EmbeddingError(
            f"rank {rank} exceeds the {F.shape[1]} retained ReFeX features"
        )
    G, H, errors, converged, distinct = _nmf_multiplicative(F, rank, seed, max_iter, tol)
    row_sums = G.sum(axis=1, keepdims=True)
    vectors = np.divide(G, row_sums, out=np.zeros_like(G), where=row_sums > 0)
    return EmbeddingMatrix(
        vectors=vectors,
        method_tag="rolx",
        meta={
            "rank": rank,
            "refex_depth": refex_depth,
            "refex_generation": refex.generation,
            "refex_features": F.shape[1],
            "seed": seed,
            "nmf_errors": errors,
            "converged": converged,
            "distinct_rows": distinct,
            "factors": (G, H),
        },
    )


def embedding_to_csv(embedding: EmbeddingMatrix, table, path) -> None:
    """``# method=<tag>``, the header ``id,e0,...`` and each node's row."""
    header = ["id"] + [f"e{i}" for i in range(embedding.d)]
    write_csv(path, header, embedding.vectors, {"method": embedding.method_tag}, table)


def import_embedding(path, table) -> EmbeddingMatrix:
    """Load an external embedding CSV and align rows to the node table.

    Expected layout: optional ``# method=<tag>`` comment, then a header
    ``id,e0,...,e{d-1}``, read by ``graph.read_node_rows``. Every graph
    node must be present, and no id may repeat. The tag is the comment's,
    else the file's stem.
    """
    meta, header, _, rows = read_node_rows(path, float, EmbeddingError, table)
    vectors = np.array(rows, dtype=np.float64).reshape(len(rows), len(header) - 1)
    return EmbeddingMatrix(vectors=vectors, method_tag=meta.get("method", Path(path).stem))
