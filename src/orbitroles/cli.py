"""Command-line workflow: census, embed, cluster, validate, explain, idr,
generate, and the end-to-end pipeline.

Each stage is one function: ``_census``, ``_features`` (log-orbit
features), ``_embed``, ``_validate``, ``_cluster``, ``_explain_roles`` and
``_idr``. Each writes its CSVs and adds them to the manifest it is passed.
``pipeline`` calls them in order, and every staged command calls the same
function with its flags folded into the config, so a staged chain with
the pipeline's seed and config writes the pipeline's CSVs byte for byte.

Every command but ``generate`` runs through ``_run``, so each checks its
settings in stage ``config`` (``config.validate_config``) and writes its
outputs and one manifest of one layout into --out: ``parameters`` holds
``inputs`` (name -> absolute path of each input file, digested in
``input_digests``) and ``config`` (the resolved config, its
``import_paths`` absolute), plus what the stages add, and
``metrics["stages"]`` the wall seconds of each stage. ``pipeline
--from-manifest`` replays ``inputs`` and ``config`` from any directory. A
failing command of any kind leaves a FAILED marker naming the stage, no
manifest but the one it replays, and its partial outputs; the next run into
the directory removes the marker.

An embedding imported through ``[embed] import_paths`` (or given to
``validate`` with ``--embedding``) is known by the tag of its CSV, which
names its output files and its roles. Imported tags must differ from
each other and from the native ``embed.methods``; a clash fails stage
``embed`` before any imported CSV is written.

``threads`` (``--threads``, ``ORBITROLES_THREADS``) is the number of worker
processes, by default the CPUs this process may run on (see ``workers``).
With two or more, GraphWave runs on a forked worker while the parent counts
orbits and runs RolX (unless its estimated working set and the census's
exceed ``memory_budget_mb`` together: then it runs inline, after them), and
the sweep's k-means cells are dealt over the workers. GraphWave's CSV is
written in one place, a writer task that ``_graphwave_lane`` starts once
the parent has the embedding: a forked worker at the lowest CPU priority
when the lane forked, otherwise the parent at the join. Every command
joins the write last (``pipeline`` after idr, staged ``embed`` after
``_embed``); a run that fails before then leaves no GraphWave CSV. The
CSVs are the same for every count. Memory adds up over the lanes that run
at once. ``metrics["stages"]`` also holds
the wall seconds of each worker task and of GraphWave's CSV write
(``embed/graphwave-write``, which at low priority includes time spent
waiting for a CPU), ``metrics["workers"]`` the worker count,
``metrics["census"]`` the census's estimated working set, components and
distinct components, its blocks of roots and the largest one's cells, and
the minor page faults and system seconds of the call, ``metrics["rolx"]``
the NMF iterations and convergence, the ReFeX features and generation of
RolX and the distinct ReFeX rows that the NMF iterated over,
``metrics["graphwave"]`` GraphWave's estimated working set, whether it
forked, and its components and distinct components, ``metrics["kmeans"]``
each sweep cell's iterations, whether it stopped at ``max_iter``, its
degeneracy and its embedding's distinct rows, and
``metrics["silhouette"]`` the nodes that the sweep's silhouette scored
(every node, or one shared sample of ``cluster.sample_cap``), their
distinct log-orbit rows and whether they were sampled."""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import partial
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .clustering import (
    assignment_seed,
    kmeans,
    roles_from_csv,
    roles_to_csv,
    sweep,
)
from .config import SECTIONS, config_from_dict, load_config, validate_config
from .diversity import (
    DIRECTIONS,
    DISTANCES,
    PAIR_COUNTINGS,
    binned_idr_report,
    build_diversity_report,
    discipline_distance,
)
from .embeddings import (
    NATIVE_METHODS,
    EmbeddingError,
    embedding_to_csv,
    estimate_graphwave_memory_mb,
    graphwave_embed,
    import_embedding,
    rolx_embed,
)
from .graph import (
    NodeTable,
    load_edge_list,
    load_node_table,
    write_csv,
    write_edge_list,
    write_node_table,
)
from .manifest import MANIFEST_NAME, RunManifest, load_manifest
from .orbits import (
    count_orbits,
    estimate_census_memory_mb,
    log_transform,
    orbits_from_csv,
    orbits_to_csv,
)
from .planted import (
    barbell_template,
    chain_template,
    clique_template,
    generate_planted_graph,
    star_template,
)
from .seeds import derive_seed
from .surrogate import (
    EFFECT_KINDS,
    effect_curve,
    orbit3_threshold,
    permutation_importance,
    train_surrogate,
    write_effect_curves,
)
from .workers import Task, resolve_threads


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def _out_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_inputs(paths):
    """The graph and node table of the inputs ``paths`` (``graph`` and,
    when given, ``labels``)."""
    table = load_node_table(paths["labels"]) if "labels" in paths else None
    return load_edge_list(paths["graph"], table=table)


# --- stages: each writes its CSVs into ``out`` and lists them in ``manifest``


def _census(graph, table, cfg, out, manifest):
    """The orbit census of ``graph``, written to ``orbits.csv``. Its
    counters go to ``metrics["census"]``: the guard's estimate, the
    components and the distinct ones counted, the blocks of roots
    (``count_orbits``), and the minor page faults and system seconds of
    this process during the call."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    orbits = count_orbits(graph, memory_budget_mb=cfg.memory_budget_mb)
    after = resource.getrusage(resource.RUSAGE_SELF)
    manifest.metrics["census"] = {
        **orbits.meta,
        "minor_faults": after.ru_minflt - before.ru_minflt,
        "system_s": after.ru_stime - before.ru_stime,
    }
    orbits_to_csv(orbits, table, out / "orbits.csv")
    manifest.add_output(out / "orbits.csv")
    manifest.parameters["component_count"] = orbits.meta["components"]
    return orbits


def _features(orbits, cfg, manifest):
    """The log-orbit space that ``validate`` scores and ``explain`` fits;
    ``drop_orbit0`` zeroes orbit 0 (degree) in it."""
    features = log_transform(orbits)
    if cfg.drop_orbit0:
        features.values[:, 0] = 0.0
        manifest.note("orbit 0 neutralized in the feature space")
    manifest.parameters["validation_feature_space"] = (
        "log1p-orbit" + ("-no-degree" if cfg.drop_orbit0 else "")
    )
    return features


@contextmanager
def _graphwave_lane(graph, table, cfg, out, manifest, census):
    """For the length of a ``with`` block, a function that returns
    GraphWave's embedding, for ``_embed`` to call once: forked at once when
    the lane forks (two or more workers, and see below), otherwise run
    inline when called. The call records the embedding's seconds
    (``metrics["stages"]["embed/graphwave"]``) and components and starts
    the embedding's CSV writer, the only code that writes it: a forked
    ``Task`` at nice 19 when the lane forks, otherwise an inline one at the
    block's end. The block's end joins the writer, so a command leaves the
    block last, and records its wall time as ``metrics["stages"]
    ["embed/graphwave-write"]``; at low priority that includes time spent
    waiting for a CPU. An error inside the block kills and reaps both tasks
    and removes the CSV, whole or cut short. GraphWave's estimated working
    set is first checked, in the parent, against ``memory_budget_mb`` and
    recorded in ``metrics["graphwave"]``; the estimate keys the components
    (``Graph.copies``), so a forked lane inherits the keys and the census
    reads the same ones. When the caller runs the census beside the lane
    (``census``) and the two estimates together exceed the budget, the lane
    and its writer run inline instead, after the census;
    ``metrics["graphwave"]["forked"]`` records whether they forked."""
    ec, budget = cfg.embed, cfg.memory_budget_mb
    wave = "graphwave" in ec.methods
    fork = cfg.threads > 1 and wave
    if wave:
        est = estimate_graphwave_memory_mb(graph, ec.graphwave_scales, ec.sample_points)
        if est > budget:
            raise EmbeddingError(
                f"estimated GraphWave working set {est:.1f} MB exceeds the "
                f"{budget:g} MB budget; [embed] methods = rolx with [explain] method = "
                "rolx skips GraphWave, and a larger [pipeline] memory_budget_mb runs it"
            )
        # two lanes that do not fit the budget side by side run one after the other
        fork = fork and not (census and est + estimate_census_memory_mb(graph) > budget)
        manifest.metrics["graphwave"] = {"estimate_mb": est, "forked": fork}
    embed = partial(
        graphwave_embed,
        graph,
        scales=ec.graphwave_scales,
        sample_points=ec.sample_points,
        t_max=ec.t_max,
    )
    path, writer = out / "embedding_graphwave.csv", None

    def embedding():
        nonlocal writer
        emb = lane.result()
        manifest.metrics.setdefault("stages", {})["embed/graphwave"] = lane.seconds
        for key in ("components", "distinct_components"):
            manifest.metrics["graphwave"][key] = emb.meta[key]

        def write():
            if fork:
                os.nice(19)  # the writer's own process; an inline one is the parent
            embedding_to_csv(emb, table, path)

        writer = Task(write, fork)
        return emb

    with Task(embed, fork) as lane:
        try:
            yield embedding
            if writer is not None:
                writer.result()
                manifest.metrics["stages"]["embed/graphwave-write"] = writer.seconds
        except BaseException:
            if writer is not None:
                writer.cancel()  # before the unlink, so that no write follows it
            if wave:
                path.unlink(missing_ok=True)
            raise


def _imported(paths, table, native=()):
    """The embeddings of the CSVs ``paths``. A tag names an embedding's
    CSVs and its roles, so each must differ from the other imports' and
    from the native methods ``native``."""
    owner = {m: f"native method {m!r}" for m in native}
    embeddings = []
    for path in paths:
        emb = import_embedding(path, table)
        if emb.method_tag in owner:
            raise EmbeddingError(
                f"imported embedding {path} has tag {emb.method_tag!r}, "
                f"as has {owner[emb.method_tag]}"
            )
        owner[emb.method_tag] = f"imported embedding {path}"
        embeddings.append(emb)
    return embeddings


def _embed(graph, table, cfg, out, manifest, graphwave, orbits):
    """The embeddings of ``embed.methods`` in their order, then the
    imported ones. GraphWave's comes from ``graphwave`` (the function of
    ``_graphwave_lane``, which writes its CSV); RolX runs here first,
    beside a forked lane, on the census ``orbits``, and leaves its NMF and
    ReFeX counters in ``metrics["rolx"]``. Every embedding but GraphWave's
    is written to its CSV here."""
    ec, native = cfg.embed, {}
    if "rolx" in ec.methods:
        emb = native["rolx"] = rolx_embed(
            graph,
            orbits,
            rank=ec.rolx_rank,
            refex_depth=ec.refex_depth,
            seed=derive_seed(cfg.seed, "rolx"),
        )
        embedding_to_csv(emb, table, out / "embedding_rolx.csv")
        meta = emb.meta
        manifest.metrics["rolx"] = {
            "nmf_iterations": len(meta["nmf_errors"]) - 1,
            "nmf_converged": meta["converged"],
            "refex_features": meta["refex_features"],
            "refex_generation": meta["refex_generation"],
            "distinct_rows": meta["distinct_rows"],
        }
    if "graphwave" in ec.methods:
        native["graphwave"] = graphwave()
    imported = _imported(ec.import_paths, table, ec.methods)
    for emb in imported:
        embedding_to_csv(emb, table, out / f"embedding_{emb.method_tag}.csv")
    embeddings = [native[m] for m in ec.methods] + imported
    for emb in embeddings:
        manifest.add_output(out / f"embedding_{emb.method_tag}.csv")
    return embeddings


def _validate(embeddings, features, cfg, out, manifest):
    result = sweep(
        embeddings,
        range(cfg.cluster.k_min, cfg.cluster.k_max + 1),
        features,
        seed=cfg.seed,
        sample_cap=cfg.cluster.sample_cap,
        threads=cfg.threads,
    )
    result.to_csv(out / "sweep.csv")
    manifest.add_output(out / "sweep.csv")
    stages = manifest.metrics.setdefault("stages", {})
    for i, seconds in enumerate(result.worker_seconds):
        stages[f"validate/kmeans-{i}"] = seconds
    manifest.metrics["kmeans"] = {
        f"{method}:{k}": {
            "iterations": len(a.meta["wcss_trajectory"]),
            "stopped_at_max_iter": a.meta["stopped_at_max_iter"],
            "degenerate": a.degenerate,
            "distinct_rows": a.meta["distinct_rows"],
        }
        for (method, k), a in result.assignments.items()
    }
    n, cap = features.node_count, cfg.cluster.sample_cap
    manifest.metrics["silhouette"] = {
        "rows": min(n, cap),
        "distinct_rows": result.distinct_rows,
        "sampled": n > cap,
    }
    return result


def _cluster(embeddings, table, cfg, out, manifest, swept=None):
    """k-means roles at ``cluster.chosen_k`` for each embedding, keyed by
    its method. A sweep over the same embeddings and seed (``swept``)
    already holds them; otherwise k-means runs here with the sweep's seed."""
    k = cfg.cluster.chosen_k
    cells = swept.assignments if swept is not None else {}
    assignments = {}
    for emb in embeddings:
        assignment = cells.get((emb.method_tag, k))
        if assignment is None:
            assignment = kmeans(emb, k, seed=assignment_seed(cfg.seed, emb.method_tag, k))
        path = out / f"roles_{emb.method_tag}.csv"
        roles_to_csv(assignment, table, path)
        manifest.add_output(path)
        assignments[emb.method_tag] = assignment
    return assignments


def _explain_roles(features, orbits, roles, cfg, out, manifest):
    """Surrogate, importance and effect curves of one role assignment, for
    each population: every node (suffix ``""``), then with
    ``explain.keep_roles`` the kept roles' nodes (``_subpop``), of which two
    roles or more must be populated. A population's rows are cut from the
    features and labels once, and an effect orbit constant among them is
    skipped with a note that the sub-population prefixes ``sub-population: ``.
    Each population writes ``importance<suffix>.csv`` and
    ``effects<suffix>.csv`` and its counters ``metrics["explain<suffix>"]``.
    Seeds derive from the roles' method, the sub-population's under ``-sub``
    labels. Returns the whole population's model and importance report."""
    ex, seed, method = cfg.explain, cfg.seed, roles.method_tag
    threshold = orbit3_threshold(orbits)
    populations, fitted = {"": slice(None)}, {}
    if ex.keep_roles:
        populations["_subpop"] = np.isin(roles.labels, list(ex.keep_roles))
    for suffix, rows in populations.items():
        X, y = features.values[rows], roles.labels[rows]
        sub, note = ("-sub", "sub-population: ") if suffix else ("", "")
        if suffix and np.unique(y).size < 2:
            raise ValueError(
                f"need at least 2 populated roles after filtering, got {np.unique(y).size}"
            )
        model = train_surrogate(
            X, y, trees=ex.trees, seed=derive_seed(seed, "surrogate" + sub, method)
        )
        report = permutation_importance(
            model,
            X,
            y,
            repeats=ex.importance_repeats,
            seed=derive_seed(seed, "importance" + sub, method),
        )
        report.to_csv(out / f"importance{suffix}.csv")
        curves, skipped = [], []
        for orbit in ex.effect_orbits:
            col = X[:, orbit]
            if col.min() == col.max():
                manifest.note(f"{note}orbit {orbit} constant; effect curve skipped")
                skipped.append(orbit)
                continue
            curves += effect_curve(model, X, orbit, bins=ex.ale_bins, kind=ex.effect_kind)
        write_effect_curves(curves, threshold, out / f"effects{suffix}.csv")
        manifest.add_output(out / f"importance{suffix}.csv")
        manifest.add_output(out / f"effects{suffix}.csv")
        manifest.metrics[f"explain{suffix}"] = {
            "holdout_accuracy": model.holdout_accuracy,
            "tree_nodes": model.nodes.feature.size,
            "fit_rounds": model.fit_rounds,
            "features_used": len(model.features_used()),
            "importance_cells": report.meta["cells"],
            "skipped_curves": skipped,
        }
        fitted[suffix] = model, report
    model, report = fitted[""]
    manifest.parameters["surrogate_holdout_accuracy"] = model.holdout_accuracy
    return model, report


def _idr(graph, table, roles, cfg, out, manifest):
    ic = cfg.idr
    dmat = discipline_distance(table, graph, mode=ic.distance)
    diversity = build_diversity_report(
        graph, table, dmat, roles, direction=ic.direction, pair_counting=ic.pair_counting
    )
    diversity.to_csv(out / "diversity.csv", table)
    binned = binned_idr_report(diversity, roles, bins=ic.bins, min_per_role=ic.min_per_role)
    binned.to_csv(out / "idr_bins.csv")
    binned.values_to_csv(out / "idr_values.csv")
    for name in ("diversity.csv", "idr_bins.csv", "idr_values.csv"):
        manifest.add_output(out / name)
    manifest.parameters["included_bins"] = binned.included_bins
    return binned


class _Stages:
    """A run's current stage, and the wall seconds spent in each."""

    def __init__(self):
        self.name, self.seconds, self._since = "config", {}, time.perf_counter()

    def split(self) -> None:
        """Add the time since the last split to the current stage."""
        now = time.perf_counter()
        self.seconds[self.name] = self.seconds.get(self.name, 0.0) + now - self._since
        self._since = now

    def enter(self, name) -> None:
        self.split()
        self.name = name


def _pick(obj, args):
    """``obj`` (the config or one of its sections) with each field that a
    command-line flag of the same name sets: a given flag wins, an unset
    one (None) keeps the config file's value. A repeated flag's list
    becomes the field's tuple."""
    given = {}
    for f in fields(obj):
        value = getattr(args, f.name, None)
        if value is not None:
            given[f.name] = tuple(value) if isinstance(value, list) else value
    return replace(obj, **given)


def _with_flags(cfg, args):
    """``cfg`` with the command's flags folded into every section."""
    cfg = _pick(cfg, args)
    return replace(cfg, **{name: _pick(getattr(cfg, name), args) for name in SECTIONS})


def _run(command, args, inputs, body, imports=False) -> int:
    """Run ``command``: the bookkeeping of every command but ``generate``.

    It makes ``--out`` and removes a FAILED marker left there. In stage
    ``config`` it reads the config file, or the config and inputs that
    ``--from-manifest`` recorded, folds in the flags and checks the result
    with ``validate_config`` for ``command``, so a bad setting fails there
    for every command. It resolves the worker count, and makes the paths of
    ``[embed] import_paths`` and of the input files ``inputs`` (name ->
    path or None) absolute; with ``imports`` the imported CSVs are inputs
    too. In stage ``load`` the manifest starts with ``parameters``
    ``inputs`` and ``config``, a digest of every input and the worker
    count in ``metrics["workers"]``. ``body(cfg,
    paths, out, manifest, stage)`` runs the stages, entering each with
    ``stage.enter``, and returns the summary line. Then the stage seconds
    go to ``metrics["stages"]``, the manifest is written, and the notes
    and the summary are printed. Any error removes a manifest left in
    ``--out``, unless it is the one ``--from-manifest`` replays, leaves
    ``FAILED`` (``stage=<name>``, ``error=<message>``) and is raised as a
    StageError."""
    out = _out_dir(args.out)
    (out / "FAILED").unlink(missing_ok=True)
    stage = _Stages()
    try:
        if getattr(args, "from_manifest", None):
            recorded = load_manifest(args.from_manifest)["parameters"]
            cfg, inputs = config_from_dict(recorded["config"]), recorded["inputs"]
        else:
            cfg = load_config(args.config)
        cfg = _with_flags(cfg, args)
        validate_config(cfg, command)
        ec = cfg.embed
        cfg = replace(
            cfg,
            threads=resolve_threads(cfg.threads),
            embed=replace(ec, import_paths=tuple(map(os.path.abspath, ec.import_paths))),
        )
        if imports:
            imported = enumerate(cfg.embed.import_paths)
            inputs = {**inputs, **{f"import{i}": path for i, path in imported}}
        paths = {name: os.path.abspath(p) for name, p in inputs.items() if p is not None}
        stage.enter("load")
        manifest = RunManifest.start(
            command, {"inputs": paths, "config": cfg.to_dict()}, seed=cfg.seed, inputs=paths
        )
        manifest.metrics["workers"] = cfg.threads
        summary = body(cfg, paths, out, manifest, stage)
        stage.split()
        manifest.metrics.setdefault("stages", {}).update(stage.seconds)
        manifest.write(out)
    except Exception as exc:
        # an earlier run's manifest must not sit beside this run's marker,
        # unless it is the one that --from-manifest replays: that is the
        # record to mend and replay again
        stale, source = out / MANIFEST_NAME, getattr(args, "from_manifest", None)
        if stale.exists() and not (
            source and os.path.exists(source) and os.path.samefile(stale, source)
        ):
            stale.unlink()
        (out / "FAILED").write_text(f"stage={stage.name}\nerror={exc}\n", encoding="utf-8")
        raise StageError(stage.name, exc) from exc
    for message in manifest.notes:
        print(f"{command}: {message}", file=sys.stderr)
    print(f"{command}: {summary}")
    return 0


# --- commands ---------------------------------------------------------------


def _cmd_census(args) -> int:
    def body(cfg, paths, out, manifest, stage):
        graph, table = _load_inputs(paths)
        stage.enter("census")
        _census(graph, table, cfg, out, manifest)
        return f"{graph.node_count} nodes -> {out / 'orbits.csv'}"

    return _run("census", args, {"graph": args.graph, "labels": args.labels}, body)


# ``generate``'s templates: each one's builder and the flags it is built
# from, in its argument order, with their least values
_TEMPLATES = {
    "barbell": (barbell_template, {"clique_size": 3, "chain_len": 3}),
    "chain": (chain_template, {"length": 2}),
    "clique": (clique_template, {"clique_size": 3}),
    "star": (star_template, {"length": 2}),
}


def _cmd_generate(args) -> int:
    build, flags = _TEMPLATES[args.template]
    least = {**flags, "copies": 1, "noise_edges": 0, "disciplines": 1}
    for name, low in least.items():
        if getattr(args, name) < low:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be at least {low}, got {getattr(args, name)}")
    tpl = build(*(getattr(args, name) for name in flags))
    planted = generate_planted_graph(
        [tpl], copies=args.copies, noise_edges=args.noise_edges, seed=args.seed
    )
    out = _out_dir(args.out)
    ids = [f"n{i}" for i in range(planted.graph.node_count)]

    categories = [None] * planted.graph.node_count
    if args.label_mode == "clique-side":
        # each side of each copy takes the next discipline, cycling
        pool = [f"disc{i:02d}" for i in range(args.disciplines)]
        n_sides = max(tpl.sides) + 1
        categories = [
            pool[(copy * n_sides + side) % len(pool)]
            for copy in range(args.copies)
            for side in tpl.sides
        ]

    table = NodeTable(external_ids=ids, categories=categories)
    write_edge_list(planted.graph, table, out / "edges.txt")
    write_node_table(table, out / "nodes.csv")
    roles = [(code, planted.role_names[code]) for code in planted.true_role.tolist()]
    write_csv(out / "roles.csv", ["id", "true_role", "role_name"], roles, nodes=table)

    manifest = RunManifest.start(
        "generate",
        {
            "template": tpl.name,
            "copies": args.copies,
            "noise_edges": args.noise_edges,
            "label_mode": args.label_mode,
        },
        seed=args.seed,
        inputs={},
    )
    for name in ("edges.txt", "nodes.csv", "roles.csv"):
        manifest.add_output(out / name)
    manifest.write(out)
    print(
        f"generated {planted.graph.node_count} nodes / "
        f"{planted.graph.edge_count} edges ({tpl.name} x {args.copies}) -> {out}"
    )
    return 0


def _cmd_embed(args) -> int:
    def body(cfg, paths, out, manifest, stage):
        graph, table = _load_inputs(paths)
        stage.enter("embed")
        # RolX's census, beside the GraphWave lane; only ``census`` writes it
        rolx = "rolx" in cfg.embed.methods
        with _graphwave_lane(graph, table, cfg, out, manifest, census=rolx) as graphwave:
            orbits = count_orbits(graph, memory_budget_mb=cfg.memory_budget_mb) if rolx else None
            embeddings = _embed(graph, table, cfg, out, manifest, graphwave, orbits)
        widths = ", ".join(f"{emb.method_tag} d={emb.d}" for emb in embeddings)
        return f"{widths} -> {out}"

    inputs = {"graph": args.graph, "labels": args.labels}
    return _run("embed", args, inputs, body, imports=True)


def _cmd_cluster(args) -> int:
    def body(cfg, paths, out, manifest, stage):
        graph, table = _load_inputs(paths)
        emb = import_embedding(paths["embedding"], table)
        stage.enter("cluster")
        (assignment,) = _cluster([emb], table, cfg, out, manifest).values()
        return (
            f"k={assignment.k} k_effective={assignment.k_effective} "
            f"-> {out / f'roles_{emb.method_tag}.csv'}"
        )

    inputs = {"graph": args.graph, "labels": args.labels, "embedding": args.embedding}
    return _run("cluster", args, inputs, body)


def _cmd_validate(args) -> int:
    names = [f"embedding{i}" for i in range(len(args.embedding))]

    def body(cfg, paths, out, manifest, stage):
        graph, table = _load_inputs(paths)
        orbits, _ = orbits_from_csv(paths["orbits"], table)
        embeddings = _imported([paths[name] for name in names], table)
        stage.enter("validate")
        result = _validate(embeddings, _features(orbits, cfg, manifest), cfg, out, manifest)
        return f"{len(result.rows)} rows -> {out / 'sweep.csv'}"

    inputs = {"graph": args.graph, "labels": args.labels, "orbits": args.orbits}
    inputs.update(zip(names, args.embedding))
    return _run("validate", args, inputs, body)


def _cmd_explain(args) -> int:
    def body(cfg, paths, out, manifest, stage):
        orbits, orbit_ids = orbits_from_csv(paths["orbits"])
        roles, role_ids = roles_from_csv(paths["roles"])
        if orbit_ids != role_ids:
            pairs = zip_longest(orbit_ids, role_ids, fillvalue="<missing>")
            mismatched = [(a, b) for a, b in pairs if a != b]
            raise ValueError(f"orbit/role id mismatch; first differences: {mismatched[:10]}")
        # the roles' count bounds explain.keep_roles
        stage.enter("config")
        validate_config(cfg, "explain", roles_k=roles.k)
        stage.enter("explain")
        features = _features(orbits, cfg, manifest)
        # the roles CSV names the embedding it came from; the seeds derive
        # from it as in the pipeline
        model, report = _explain_roles(features, orbits, roles, cfg, out, manifest)
        return f"accuracy={model.holdout_accuracy:.3f} top={report.formatted(3)} -> {out}"

    return _run("explain", args, {"orbits": args.orbits, "roles": args.roles}, body)


def _cmd_idr(args) -> int:
    def body(cfg, paths, out, manifest, stage):
        graph, table = _load_inputs(paths)
        roles, _ = roles_from_csv(paths["roles"], table)
        stage.enter("idr")
        binned = _idr(graph, table, roles, cfg, out, manifest)
        return f"{len(binned.included_bins)} included bin(s) -> {out}"

    inputs = {"graph": args.graph, "labels": args.labels, "roles": args.roles}
    return _run("idr", args, inputs, body)


def _cmd_pipeline(args) -> int:
    def body(cfg, paths, out, manifest, stage):
        if "graph" not in paths:
            raise ValueError("pipeline requires a graph (positional or --from-manifest)")
        graph, table = _load_inputs(paths)

        # GraphWave's lane runs beside the census, features and RolX, and
        # its writer beside the later stages
        stage.enter("embed")
        with _graphwave_lane(graph, table, cfg, out, manifest, census=True) as graphwave:
            stage.enter("census")
            orbits = _census(graph, table, cfg, out, manifest)
            features = _features(orbits, cfg, manifest)
            stage.enter("embed")
            embeddings = _embed(graph, table, cfg, out, manifest, graphwave, orbits)

            stage.enter("validate")
            swept = _validate(embeddings, features, cfg, out, manifest)

            stage.enter("cluster")
            # stage config kept chosen_k inside the swept k range
            assignments = _cluster(embeddings, table, cfg, out, manifest, swept)

            stage.enter("explain")
            roles = assignments.get(cfg.explain.method)
            if roles is None:
                raise ValueError(f"explain.method {cfg.explain.method!r} not among embeddings")
            _explain_roles(features, orbits, roles, cfg, out, manifest)

            stage.enter("idr")
            if len({c for c in table.categories if c is not None}) >= 2:
                _idr(graph, table, roles, cfg, out, manifest)
            else:
                manifest.note("idr stage skipped: fewer than 2 disciplines")
            # the block's end joins GraphWave's CSV write
            stage.enter("embed")
        return f"ok ({len(manifest.outputs)} outputs) -> {out}"

    inputs = {"graph": args.graph, "labels": args.labels}
    return _run("pipeline", args, inputs, body, imports=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitroles",
        description="Structural role discovery with graphlet-orbit explanations.",
    )
    # a flag that overrides a config value has that field's name as its
    # dest; _with_flags folds it in by name
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, labels=True, config=True):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if config:
            p.add_argument("--config", default=None, help="INI config file")
        if labels:
            p.add_argument("--labels", default=None, help="node table CSV")

    p = sub.add_parser("census", help="orbit census of an edge list")
    p.add_argument("graph")
    p.add_argument("--memory-budget-mb", type=float, default=None)
    common(p)

    p = sub.add_parser("generate", help="planted-role synthetic corpus")
    p.add_argument("--template", default="barbell", choices=sorted(_TEMPLATES))
    p.add_argument("--clique-size", type=int, default=5)
    p.add_argument("--chain-len", type=int, default=3)
    p.add_argument("--length", type=int, default=4, help="chain/star size")
    p.add_argument("--copies", type=int, default=20)
    p.add_argument("--noise-edges", type=int, default=0)
    p.add_argument("--label-mode", default="none", choices=["none", "clique-side"])
    p.add_argument("--disciplines", type=int, default=4)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("embed", help="native embeddings of a graph")
    p.add_argument("graph")
    p.add_argument(
        "--method", action="append", default=None, dest="methods", choices=NATIVE_METHODS
    )
    common(p)

    p = sub.add_parser("cluster", help="k-means roles from an embedding CSV")
    p.add_argument("graph")
    p.add_argument("--embedding", required=True)
    p.add_argument("--k", type=int, required=True, dest="chosen_k")
    common(p)

    p = sub.add_parser("validate", help="silhouette sweep in orbit space")
    p.add_argument("graph")
    p.add_argument("--orbits", required=True)
    p.add_argument("--embedding", action="append", required=True)
    p.add_argument("--k-min", type=int, default=None)
    p.add_argument("--k-max", type=int, default=None)
    common(p)

    p = sub.add_parser("explain", help="surrogate importance and effect curves")
    p.add_argument("--orbits", required=True)
    p.add_argument("--roles", required=True)
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None, dest="importance_repeats")
    p.add_argument("--bins", type=int, default=None, dest="ale_bins")
    p.add_argument("--kind", default=None, choices=EFFECT_KINDS, dest="effect_kind")
    p.add_argument("--orbit", action="append", type=int, default=None, dest="effect_orbits")
    p.add_argument("--keep-roles", type=int, nargs="*", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="INI config file")

    p = sub.add_parser("idr", help="Rao-Stirling interdisciplinarity report")
    p.add_argument("graph")
    p.add_argument("--roles", required=True)
    p.add_argument("--direction", default=None, choices=DIRECTIONS)
    p.add_argument("--distance", default=None, choices=DISTANCES)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--min-per-role", type=int, default=None)
    p.add_argument("--pair-counting", default=None, choices=PAIR_COUNTINGS)
    common(p)

    p = sub.add_parser("pipeline", help="end-to-end workflow")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--from-manifest", default=None)
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes (default: ORBITROLES_THREADS, else the usable CPUs)",
    )
    common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "census": _cmd_census,
        "generate": _cmd_generate,
        "embed": _cmd_embed,
        "cluster": _cmd_cluster,
        "validate": _cmd_validate,
        "explain": _cmd_explain,
        "idr": _cmd_idr,
        "pipeline": _cmd_pipeline,
    }
    try:
        return handlers[args.command](args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
