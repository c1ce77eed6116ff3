"""In-memory spans around the public functions of each orbitroles module.

The wrappers are installed from the benchmark's own code by replacing
module and class attributes; the program's source is not changed. Each
span records its name, start, end, parent span and run id. A wrapper's
``after`` hook reads counters off the call's arguments and result once
the span has ended.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # dicts: id, name, start, end, parent, run
        self.stack = []
        self.counters = defaultdict(float)

    def wrap(self, name, fn, after=None, rss=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            if rss:
                span["rss_before_mb"] = _maxrss_mb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if rss:
                span["rss_after_mb"] = _maxrss_mb()
            if after is not None:
                after(self, span, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr, name, after=None, rss=False):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after, rss))

    def add(self, key, value):
        self.counters[key] += value


# --- counter hooks: (tracer, span, args, kwargs, result) -------------------


def _after_estimate(tr, span, args, kwargs, result):
    tr.add("orbits.estimate_mb", float(result))


def _after_graphwave(tr, span, args, kwargs, result):
    graph = args[0]
    sizes = [len(c) for c in graph.components()]
    tr.add("embeddings.graphwave_components", len(sizes))
    tr.counters["embeddings.graphwave_max_component"] = max(sizes)
    tr.add("embeddings.graphwave_cubic_work", float(sum(k**3 for k in sizes)))


def _after_refex(tr, span, args, kwargs, result):
    tr.add("embeddings.refex_features_kept", result.features.shape[1])


def _after_rolx(tr, span, args, kwargs, result):
    tr.add("embeddings.nmf_iters", len(result.meta["nmf_errors"]) - 1)
    tr.add("embeddings.nmf_converged", int(bool(result.meta["converged"])))


def _after_kmeans(tr, span, args, kwargs, result):
    parent = tr.spans[span["parent"]]["name"] if span["parent"] is not None else None
    if parent == "clustering.sweep":
        tr.add("clustering.kmeans_iters", len(result.meta["wcss_trajectory"]))
        tr.add("clustering.degenerate_cells", int(result.degenerate))


def _after_silhouette(tr, span, args, kwargs, result):
    n = args[1].values.shape[0]
    cap = kwargs.get("sample_cap", args[2] if len(args) > 2 else 20000)
    scored = min(n, cap)
    tr.add("clustering.silhouette_pairs", float(scored * scored))
    tr.add("clustering.silhouette_sampled", int(n > cap))


def _after_train(tr, span, args, kwargs, result):
    tr.add("surrogate.tree_nodes", sum(len(t.feature) for t in result.trees))
    tr.counters["surrogate.features_used"] = len(result.features_used())


def _after_predict(tr, span, args, kwargs, result):
    model, X = args[0], args[1]
    rows = getattr(X, "values", X).shape[0] * len(model.trees)
    for sid in reversed(tr.stack):
        name = tr.spans[sid]["name"]
        if name == "surrogate.importance":
            tr.add("surrogate.importance_tree_rows", rows)
            return
        if name == "surrogate.effect":
            tr.add("surrogate.effect_tree_rows", rows)
            return


def _after_diversity(tr, span, args, kwargs, result):
    tr.add("diversity.nodes_scored", int((result.idr == result.idr).sum()))


# --- installation -------------------------------------------------------------

# (name imported by cli, span name, counter hook, record rss)
_CLI_NAMES = [
    ("load_edge_list", "graph.load", None, False),
    ("load_node_table", "graph.load", None, False),
    ("count_orbits", "orbits.count", None, True),
    ("log_transform", "orbits.log_transform", None, False),
    ("orbit3_threshold", "orbits.threshold", None, False),
    ("graphwave_embed", "embeddings.graphwave", _after_graphwave, True),
    ("rolx_embed", "embeddings.rolx", _after_rolx, False),
    ("sweep", "clustering.sweep", None, False),
    ("kmeans", "clustering.kmeans", _after_kmeans, False),
    ("train_surrogate", "surrogate.fit", _after_train, False),
    ("permutation_importance", "surrogate.importance", None, False),
    ("effect_curve", "surrogate.effect", None, False),
    ("discipline_distance", "diversity.distance", None, False),
    ("build_diversity_report", "diversity.report", _after_diversity, False),
    ("binned_idr_report", "diversity.binned", None, False),
    ("orbits_to_csv", "io.write", None, False),
    ("embedding_to_csv", "io.write", None, False),
    ("roles_to_csv", "io.write", None, False),
    ("write_effect_curves", "io.write", None, False),
]


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points the pipeline calls."""
    from orbitroles import cli, clustering, embeddings, orbits, surrogate
    from orbitroles.clustering import SilhouetteSweep
    from orbitroles.diversity import BinnedIDRTable, DiversityReport
    from orbitroles.manifest import RunManifest

    for attr, name, hook, rss in _CLI_NAMES:
        tracer.patch(cli, attr, name, hook, rss)
    # module globals that other functions look up at call time
    tracer.patch(clustering, "kmeans", "clustering.kmeans", _after_kmeans)
    tracer.patch(
        clustering, "silhouette_in_orbit_space", "clustering.silhouette", _after_silhouette
    )
    tracer.patch(embeddings, "refex_features", "embeddings.refex", _after_refex)
    tracer.patch(orbits, "estimate_census_memory_mb", "orbits.estimate", _after_estimate)
    tracer.patch(surrogate.SurrogateForest, "predict_proba", "surrogate.predict", _after_predict)
    for cls, attr in (
        (SilhouetteSweep, "to_csv"),
        (surrogate.ImportanceReport, "to_csv"),
        (DiversityReport, "to_csv"),
        (BinnedIDRTable, "to_csv"),
        (BinnedIDRTable, "values_to_csv"),
        (RunManifest, "write"),
    ):
        tracer.patch(cls, attr, "io.write")


# --- per-layer metrics ----------------------------------------------------------


def layer_metrics(tracer: Tracer, pipeline_s: float, window: tuple) -> dict:
    """Per-layer values (name -> number) from the spans of one traced run."""
    spans = [s for s in tracer.spans if window[0] <= s["start"] and s["end"] <= window[1]]
    children = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        total[s["name"]] += dur
        calls[s["name"]] += 1
        self_time[s["name"]] += dur - children[s["id"]]

    def first(name, key):
        # the rss readings of the first span called ``name``
        return next((s[key] for s in spans if s["name"] == name), 0.0)

    sweep_cells = [
        s
        for s in spans
        if s["name"] == "clustering.kmeans"
        and s["parent"] is not None
        and tracer.spans[s["parent"]]["name"] == "clustering.sweep"
    ]
    kmeans_in_sweep = sum(s["end"] - s["start"] for s in sweep_cells)
    census_growth = first("orbits.count", "rss_after_mb") - first("orbits.count", "rss_before_mb")
    c = tracer.counters
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    return {
        "graph.load_s": total["graph.load"],
        "orbits.count_s": total["orbits.count"],
        "orbits.estimate_mb": c["orbits.estimate_mb"],
        "orbits.rss_growth_mb": census_growth,
        # ru_maxrss has 1 KiB resolution; a census that stays below the
        # earlier peak reads as growth of one KiB
        "orbits.guard_ratio": c["orbits.estimate_mb"] / max(census_growth, 1 / 1024),
        "embeddings.graphwave_s": total["embeddings.graphwave"],
        "embeddings.graphwave_rss_growth_mb": first("embeddings.graphwave", "rss_after_mb")
        - first("embeddings.graphwave", "rss_before_mb"),
        "embeddings.graphwave_components": c["embeddings.graphwave_components"],
        "embeddings.graphwave_max_component": c["embeddings.graphwave_max_component"],
        "embeddings.graphwave_cubic_work": c["embeddings.graphwave_cubic_work"],
        "embeddings.rolx_s": total["embeddings.rolx"],
        "embeddings.refex_s": total["embeddings.refex"],
        "embeddings.refex_features_kept": c["embeddings.refex_features_kept"],
        "embeddings.nmf_iters": c["embeddings.nmf_iters"],
        "embeddings.nmf_converged": c["embeddings.nmf_converged"],
        "clustering.sweep_s": total["clustering.sweep"],
        "clustering.sweep_self_s": self_time["clustering.sweep"],
        "clustering.silhouette_s": total["clustering.silhouette"],
        "clustering.silhouette_calls": calls["clustering.silhouette"],
        "clustering.silhouette_pairs": c["clustering.silhouette_pairs"],
        "clustering.silhouette_sampled": c["clustering.silhouette_sampled"],
        "clustering.kmeans_s": kmeans_in_sweep,
        "clustering.kmeans_calls": len(sweep_cells),
        "clustering.kmeans_iters": c["clustering.kmeans_iters"],
        "clustering.degenerate_cells": c["clustering.degenerate_cells"],
        "clustering.assign_s": total["clustering.kmeans"] - kmeans_in_sweep,
        "surrogate.fit_s": total["surrogate.fit"],
        "surrogate.tree_nodes": c["surrogate.tree_nodes"],
        "surrogate.features_used": c["surrogate.features_used"],
        "surrogate.importance_s": total["surrogate.importance"],
        "surrogate.importance_tree_rows": c["surrogate.importance_tree_rows"],
        "surrogate.effect_s": total["surrogate.effect"],
        "surrogate.effect_curves": calls["surrogate.effect"],
        "surrogate.effect_tree_rows": c["surrogate.effect_tree_rows"],
        "diversity.idr_s": total["diversity.distance"]
        + total["diversity.report"]
        + total["diversity.binned"],
        "diversity.nodes_scored": c["diversity.nodes_scored"],
        "io.write_s": total["io.write"],
        "trace.pipeline_s": pipeline_s,
        "trace.unattributed_s": pipeline_s - top,
        "trace.covered_share": top / pipeline_s,
    }
