"""Structural role embeddings.

GraphWave (Donnat et al., KDD 2018): exact heat-kernel wavelets from the
graph Laplacian, summarized per node by the empirical characteristic
function of its wavelet coefficients at evenly spaced evaluation points.
Deterministic, seed-free; processed per connected component (the heat
kernel is block-diagonal), with one eigendecomposition per component
shared by every scale and the characteristic function normalized by
component size.

The points are t_j = j * step, so exp(i t_j psi) = exp(i step psi)^j: the
characteristic function takes one cos and one sin per wavelet coefficient
(the step), and each further point is a rotation of the running phase,
(c, s) <- (c cos - s sin, c sin + s cos). psi is walked in column blocks
of at most ``_BLOCK_CELLS`` cells, so the working memory beyond psi is
O(k * block width), not k x k. Against exact evaluation of each
exp(i t_j psi) the rounding error grows with j: up to 1.4e-15 was seen at
32 points and 7.4e-15 at 1000 (tests/embedding_reference.py keeps the
exact form, and the tests hold the two within 1e-12). The t = 0 point is
the same to the bit.

RolX: recursive structural features (ReFeX) factorized by non-negative
matrix factorization with multiplicative updates; a node's embedding is
its L1-normalized loading row.

Struc2Vec/Role2Vec and any other external method enter the pipeline only
through ``import_embedding``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

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


@dataclass
class RefexFeatureMatrix:
    """Recursive structural features: base + neighbor aggregates."""

    features: np.ndarray
    generation: int
    column_names: list


def _component_laplacian(graph, comp):
    k = len(comp)
    pos = {v: i for i, v in enumerate(comp)}
    lap = np.zeros((k, k), dtype=np.float64)
    for v in comp:
        i = pos[v]
        lap[i, i] = graph.degree(v)
        for w in graph.adjacency[v]:
            lap[i, pos[w]] = -1.0
    return lap


def _heat_kernel_exact(eig, scale):
    """Heat kernel from ``np.linalg.eigh(lap)``, shared by every scale."""
    eigval, eigvec = eig
    return (eigvec * np.exp(-scale * eigval)) @ eigvec.T


# Cells per column block of psi in ``_characteristic``. Its seven block
# arrays (step angle, its cos and sin, running phase, two products) take
# 7 * 8 * 2**15 bytes = 1.75 MB whatever the component size; on BA graphs
# of n = 800 wider and narrower blocks both ran slower.
_BLOCK_CELLS = 1 << 15


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
    the points j < ``sums.shape[1]``, rotating the phase of each block of
    columns by exp(i step psi) from one point to the next.
    """
    k, points = psi.shape[0], sums.shape[1]
    width = max(1, _BLOCK_CELLS // k)
    for j0 in range(0, k, width):
        arg = step * psi[:, j0 : j0 + width]
        cd, sd = np.cos(arg), np.sin(arg)
        c, s = np.ones_like(arg), np.zeros_like(arg)
        c_sd, s_sd = np.empty_like(arg), np.empty_like(arg)
        block = sums[j0 : j0 + width]
        for j in range(points):
            if j:
                np.multiply(c, sd, out=c_sd)
                np.multiply(s, sd, out=s_sd)
                c *= cd
                c -= s_sd
                s *= cd
                s += c_sd
            c.sum(axis=0, out=block[:, j, 0])
            s.sum(axis=0, out=block[:, j, 1])


def graphwave_embed(
    graph,
    scales=DEFAULT_SCALES,
    sample_points: int = DEFAULT_SAMPLE_POINTS,
    d: int | None = None,
    t_max: float = DEFAULT_T_MAX,
) -> EmbeddingMatrix:
    """Heat-wavelet characteristic-function embedding.

    The width is 2 * len(scales) * sample_points (real and imaginary part
    per evaluation point); passing ``d`` asserts that identity. With the
    defaults (2 scales, 32 points) the width is 128. ``sample_points``
    must be at least 2 and ``t_max`` positive and finite.

    Each point's phase is the previous one's rotated by exp(i step psi)
    (see the module docstring), over blocks of at most ``_BLOCK_CELLS``
    cells of psi; the values differ from exact evaluation of every
    exp(i t psi) by rounding only, about 1e-15 at the default 32 points.
    """
    scales = tuple(float(s) for s in scales)
    if not scales or any(s <= 0 for s in scales):
        raise EmbeddingError("scales must be positive reals")
    problems = sampling_problems(sample_points, t_max)
    if problems:
        raise EmbeddingError("; ".join(problems))
    width = 2 * len(scales) * sample_points
    if d is not None and d != width:
        raise EmbeddingError(
            f"d={d} inconsistent with 2 x {len(scales)} scales x "
            f"{sample_points} sample points = {width}"
        )

    step = np.linspace(0.0, t_max, sample_points)[1]
    out = np.zeros((graph.node_count, width), dtype=np.float64)
    for comp in graph.components():
        k = len(comp)
        eig = np.linalg.eigh(_component_laplacian(graph, comp))
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
        },
    )


def _pearson(u, v):
    su, sv = u.std(), v.std()
    if su == 0.0 and sv == 0.0:
        return 1.0  # two constants are duplicates
    if su == 0.0 or sv == 0.0:
        return 0.0
    return float(np.corrcoef(u, v)[0, 1])


def refex_features(
    graph, depth: int = 2, dedup_threshold: float = 0.99
) -> RefexFeatureMatrix:
    """Base structural features plus recursive neighbor aggregates.

    Base: degree, egonet internal edge count, egonet boundary edge count.
    Each generation appends the mean and sum over neighbors of the previous
    generation's retained columns, pruning near-duplicates by absolute
    Pearson correlation.
    """
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
        members = [v] + list(adjacency[v])
        for u in members:
            du = len(adjacency[u])
            k = bin(masks[u] & ego).count("1") - 1  # drop u itself
            inside += k
            outside += du - k
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
            with np.errstate(invalid="ignore"):
                agg_mean = np.where(deg > 0, agg_sum / np.maximum(deg, 1), 0.0)
            new_cols.append(agg_mean)
            new_names.append(f"mean_{names[ci]}")
            new_cols.append(agg_sum)
            new_names.append(f"sum_{names[ci]}")
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


def _nmf_multiplicative(F, rank, seed, max_iter, tol):
    """F ~ G @ H with non-negative factors; returns (G, H, errors, converged).

    Loading rows are initialized uniform(0, 1] from a seed derived from the
    row's feature content, so relabeling nodes permutes the factorization
    exactly and structurally identical nodes share an initialization. Each
    distinct row key draws once and is copied to its rows.
    """
    n, f = F.shape
    eps = 1e-12
    # quantize before hashing: neighbor-sum rounding noise must not change
    # the seed under node relabeling. Rows are grouped by their bytes, the
    # key itself, so -0.0 and 0.0 stay apart as they do in the key.
    rounded = np.ascontiguousarray(np.round(F, 9))
    keys, inverse = np.unique(
        rounded.view(np.dtype((np.void, rounded.itemsize * f))).ravel(), return_inverse=True
    )
    drawn = np.empty((keys.size, rank))
    for j, key in enumerate(keys):
        row_rng = np.random.default_rng(derive_seed(seed, "loading-row", key.tobytes().hex()))
        drawn[j] = 1.0 - row_rng.random(rank)
    G = drawn[inverse.ravel()]
    H = 1.0 - np.random.default_rng(derive_seed(seed, "basis")).random((rank, f))
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


def rolx_embed(
    graph,
    rank: int = DEFAULT_ROLX_RANK,
    refex_depth: int = 2,
    seed: int = 0,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> EmbeddingMatrix:
    """ReFeX features factorized by seeded multiplicative-update NMF.

    Rows of the returned matrix are the loading rows of G normalized to
    unit L1 (all-zero rows stay zero). Non-convergence after ``max_iter``
    returns the best iterate with ``meta['converged'] = False``.
    """
    if rank < 2:
        raise EmbeddingError("rank must be >= 2")
    refex = refex_features(graph, depth=refex_depth)
    F = refex.features
    if rank > F.shape[1]:
        raise EmbeddingError(
            f"rank {rank} exceeds the {F.shape[1]} retained ReFeX features"
        )
    G, H, errors, converged = _nmf_multiplicative(F, rank, seed, max_iter, tol)
    row_sums = G.sum(axis=1, keepdims=True)
    vectors = np.divide(G, row_sums, out=np.zeros_like(G), where=row_sums > 0)
    return EmbeddingMatrix(
        vectors=vectors,
        method_tag="rolx",
        meta={
            "rank": rank,
            "refex_depth": refex_depth,
            "refex_generation": refex.generation,
            "seed": seed,
            "nmf_errors": errors,
            "converged": converged,
            "factors": (G, H),
        },
    )


def embedding_to_csv(embedding: EmbeddingMatrix, table, path) -> None:
    if embedding.node_count != len(table):
        raise EmbeddingError("embedding and node table are misaligned")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# method={embedding.method_tag}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id"] + [f"e{i}" for i in range(embedding.d)])
        cells = _id_cells(table.external_ids)
        fh.write(
            "".join(
                f"{cell},{','.join(map(repr, row))}\n"
                for cell, row in zip(cells, embedding.vectors.tolist())
            )
        )


def _id_cells(ids) -> list:
    """Each id as ``csv.writer`` writes it as the first of several fields
    of a row: an empty id stays unquoted there, while alone in a row it
    would be written as ``""``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for ext in ids:
        buf.seek(0)
        buf.truncate()
        writer.writerow((ext, ""))
        cells.append(buf.getvalue()[:-2])
    return cells


def import_embedding(path, table, method_tag: str | None = None) -> EmbeddingMatrix:
    """Load an external embedding CSV and align rows to the node table.

    Expected layout: optional ``# method=<tag>`` comment, then a header
    ``id,e0,...,e{d-1}``. Every graph node must be present.
    """
    tag = method_tag
    rows = {}
    d = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("method=") and tag is None:
                    tag = body.split("=", 1)[1].strip()
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
                if not header or header[0] != "id":
                    raise EmbeddingError(f"{path}: first column must be 'id'")
                d = len(header) - 1
                if d < 1:
                    raise EmbeddingError(f"{path}: no embedding columns")
                continue
            if len(cells) != d + 1:
                raise EmbeddingError(
                    f"{path}:{lineno}: expected {d + 1} cells, got {len(cells)}"
                )
            try:
                vec = [float(c) for c in cells[1:]]
            except ValueError as exc:
                raise EmbeddingError(f"{path}:{lineno}: non-numeric cell ({exc})") from None
            rows[cells[0]] = vec
    if header is None:
        raise EmbeddingError(f"{path}: empty embedding file")

    missing = [x for x in table.external_ids if x not in rows]
    if missing:
        raise EmbeddingError(f"{path}: missing embeddings for ids {missing[:10]}")
    vectors = np.array([rows[x] for x in table.external_ids], dtype=np.float64)
    if tag is None:
        import os

        tag = os.path.splitext(os.path.basename(str(path)))[0]
    return EmbeddingMatrix(vectors=vectors, method_tag=tag)
