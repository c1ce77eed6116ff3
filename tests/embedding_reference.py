"""The GraphWave loop and the embedding CSV writer that
``orbitroles.embeddings`` replaced.

``graphwave_exact`` evaluates exp(i t psi) afresh at every point, with a
k x k complex exponential per point; the tests hold the rotation
recurrence to it by a tolerance. ``embedding_to_csv_rows`` writes every
row through ``csv.writer``; the tests hold the joined writer to its bytes.
"""

import csv

import numpy as np

from orbitroles.embeddings import (
    DEFAULT_SAMPLE_POINTS,
    DEFAULT_SCALES,
    DEFAULT_T_MAX,
    EmbeddingMatrix,
    _component_laplacian,
    _heat_kernel_exact,
)


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
