"""Command-line workflow: census, embed, cluster, validate, explain, idr,
generate, and the end-to-end pipeline.

Each stage is one function: ``_census``, ``_features`` (log-orbit
features), ``_embed``, ``_validate``, ``_cluster``, ``_explain_roles`` and
``_idr``. Each writes its CSVs and adds them to the manifest it is passed.
``run_pipeline`` calls them in order, and every staged command calls the
same function with its flags folded into the config, so a staged chain
with the pipeline's seed and config writes the pipeline's CSVs byte for
byte. Every command writes its outputs plus one manifest into --out; a
failing pipeline stage leaves a FAILED marker naming the stage and keeps
partial outputs.

``threads`` (``--threads``, ``ORBITROLES_THREADS``) is the number of worker
processes, by default the CPUs this process may run on (see ``workers``).
With two or more, GraphWave and its CSV run on a forked worker while the
parent counts orbits and runs RolX, and the sweep's k-means cells are dealt
over the workers; the CSVs are the same for every count. Memory adds up
over the lanes that run at once. The manifest's ``metrics["stages"]`` holds
the wall seconds of each stage and of each worker task, and
``metrics["workers"]`` the worker count."""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .clustering import (
    assignment_seed,
    kmeans,
    roles_from_csv,
    roles_to_csv,
    sweep,
)
from .config import (
    SECTIONS,
    config_from_dict,
    explain_problems,
    load_config,
    validate_config,
)
from .diversity import (
    binned_idr_report,
    build_diversity_report,
    discipline_distance,
)
from .embeddings import (
    embedding_to_csv,
    graphwave_embed,
    import_embedding,
    rolx_embed,
)
from .graph import load_edge_list, load_node_table, write_edge_list, write_node_table
from .manifest import RunManifest, load_manifest
from .orbits import count_orbits, log_transform, orbits_from_csv, orbits_to_csv
from .planted import (
    BUILTIN_TEMPLATES,
    barbell_template,
    chain_template,
    clique_template,
    generate_planted_graph,
    star_template,
)
from .seeds import derive_seed
from .surrogate import (
    effect_curve,
    orbit3_threshold,
    permutation_importance,
    refit_on_subpopulation,
    train_surrogate,
    write_effect_curves,
)
from .graph import NodeTable
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


def _load_inputs(graph_path, labels_path):
    table0 = load_node_table(labels_path) if labels_path else None
    graph, table = load_edge_list(graph_path, "create", table=table0)
    return graph, table


# --- stages: each writes its CSVs into ``out`` and lists them in ``manifest``


def _census(graph, table, cfg, out, manifest):
    orbits = count_orbits(graph, memory_budget_mb=cfg.memory_budget_mb)
    orbits_to_csv(orbits, table, out / "orbits.csv")
    manifest.add_output(out / "orbits.csv")
    manifest.parameters["component_count"] = len(graph.components())
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


def _native_embedding(graph, table, cfg, out, method):
    """One native embedding of ``graph``, written to its CSV in ``out``."""
    ec = cfg.embed
    if method == "graphwave":
        emb = graphwave_embed(
            graph,
            scales=ec.graphwave_scales,
            sample_points=ec.sample_points,
            t_max=ec.t_max,
        )
    elif method == "rolx":
        emb = rolx_embed(
            graph,
            rank=ec.rolx_rank,
            refex_depth=ec.refex_depth,
            seed=derive_seed(cfg.seed, "rolx"),
        )
    else:
        raise ValueError(
            f"unknown native method {method!r}; external methods enter "
            "via [embed] import_paths"
        )
    embedding_to_csv(emb, table, out / f"embedding_{emb.method_tag}.csv")
    return emb


def _workers(cfg, manifest) -> int:
    """The worker count that ``cfg.threads`` resolves to, recorded in the
    manifest."""
    manifest.metrics["workers"] = workers = resolve_threads(cfg.threads)
    return workers


def _graphwave_lane(graph, table, cfg, out, manifest) -> Task:
    """GraphWave and its CSV as the task that ``_embed`` joins: forked now
    when there are two or more workers, otherwise run inline when joined.
    Use it as a context manager, so that a failure before the join kills
    and reaps the worker."""
    fork = _workers(cfg, manifest) > 1 and "graphwave" in cfg.embed.methods
    return Task(partial(_native_embedding, graph, table, cfg, out, "graphwave"), fork)


def _embed(graph, table, cfg, out, manifest, lane):
    """The embeddings of ``embed.methods`` in their order, then the
    imported ones, each written to its CSV. GraphWave is the result of
    ``lane`` (``_graphwave_lane``); the other native methods run here
    first, beside a forked lane."""
    ec = cfg.embed
    native = {
        m: _native_embedding(graph, table, cfg, out, m) for m in ec.methods if m != "graphwave"
    }
    if "graphwave" in ec.methods:
        native["graphwave"] = lane.result()
        manifest.metrics.setdefault("stages", {})["embed/graphwave"] = lane.seconds
    imported = [import_embedding(path, table) for path in ec.import_paths]
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
        threads=_workers(cfg, manifest),
    )
    result.to_csv(out / "sweep.csv")
    manifest.add_output(out / "sweep.csv")
    stages = manifest.metrics.setdefault("stages", {})
    for i, seconds in enumerate(result.worker_seconds):
        stages[f"validate/kmeans-{i}"] = seconds
    manifest.metrics["kmeans"] = {
        f"{method}:{k}": {
            "iterations": len(a.meta["wcss_trajectory"]),
            "degenerate": a.degenerate,
        }
        for (method, k), a in result.assignments.items()
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


def _effect_curves(model, features, ex, note):
    """Effect curves of ``explain.effect_orbits`` for every class; an orbit
    that is constant in ``features`` is skipped and passed to ``note``.
    Returns the curves and the skipped orbits."""
    curves, skipped = [], []
    for orbit in ex.effect_orbits:
        col = features.values[:, orbit]
        if col.min() == col.max():
            note(f"orbit {orbit} constant; effect curve skipped")
            skipped.append(orbit)
            continue
        for cls in model.class_labels:
            curves.append(
                effect_curve(
                    model,
                    features,
                    orbit=orbit,
                    class_id=int(cls),
                    bins=ex.ale_bins,
                    kind=ex.effect_kind,
                )
            )
    return curves, skipped


def _explain_metrics(model, report, skipped):
    return {
        "holdout_accuracy": model.holdout_accuracy,
        "tree_nodes": sum(len(tree.feature) for tree in model.trees),
        "features_used": len(model.features_used()),
        "importance_cells": report.meta["cells"],
        "skipped_curves": skipped,
    }


def _explain_roles(features, orbits, roles, cfg, out, manifest):
    """Surrogate, importance and effect curves of one role assignment, plus
    the sub-population refit when ``explain.keep_roles`` is set. Every seed
    derives from the method that made the roles. Returns the model and its
    importance report."""
    ex, seed, method = cfg.explain, cfg.seed, roles.method_tag
    model = train_surrogate(
        features, roles, trees=ex.trees, seed=derive_seed(seed, "surrogate", method)
    )
    report = permutation_importance(
        model,
        features,
        roles,
        repeats=ex.importance_repeats,
        seed=derive_seed(seed, "importance", method),
    )
    written = [out / "importance.csv", out / "effects.csv"]
    report.to_csv(written[0])
    threshold = orbit3_threshold(orbits)
    curves, skipped = _effect_curves(model, features, ex, manifest.note)
    write_effect_curves(curves, threshold, written[1])
    manifest.metrics["explain"] = _explain_metrics(model, report, skipped)

    if ex.keep_roles:
        sub = refit_on_subpopulation(
            features,
            roles,
            keep_roles=ex.keep_roles,
            trees=ex.trees,
            seed=derive_seed(seed, "surrogate-sub", method),
        )
        mask = np.isin(roles.labels, list(ex.keep_roles))
        sub_features = type(features)(values=features.values[mask])
        sub_report = permutation_importance(
            sub,
            sub_features,
            roles.labels[mask],
            repeats=ex.importance_repeats,
            seed=derive_seed(seed, "importance-sub", method),
        )
        written += [out / "importance_subpop.csv", out / "effects_subpop.csv"]
        sub_report.to_csv(written[2])
        curves, skipped = _effect_curves(
            sub, sub_features, ex, lambda text: manifest.note(f"sub-population: {text}")
        )
        write_effect_curves(curves, threshold, written[3])
        manifest.metrics["explain_subpop"] = _explain_metrics(sub, sub_report, skipped)
    for path in written:
        manifest.add_output(path)
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
    """The pipeline's current stage, and the wall seconds spent in each."""

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


def run_pipeline(graph_path, labels_path, cfg, out_dir) -> RunManifest:
    out = _out_dir(out_dir)
    # a marker left by an earlier failed run into the same directory would
    # otherwise outlive this run
    (out / "FAILED").unlink(missing_ok=True)
    inputs = {"graph": graph_path}
    if labels_path:
        inputs["labels"] = labels_path
    stage = _Stages()
    try:
        validate_config(cfg)
        cfg = replace(cfg, threads=resolve_threads(cfg.threads))
        stage.enter("load")
        manifest = RunManifest.start(
            command="pipeline",
            parameters={
                "graph_path": str(graph_path),
                "labels_path": str(labels_path) if labels_path else None,
                "config": cfg.to_dict(),
            },
            seed=cfg.seed,
            inputs=inputs,
        )
        graph, table = _load_inputs(graph_path, labels_path)

        # GraphWave's lane runs beside the census, features and RolX
        stage.enter("embed")
        with _graphwave_lane(graph, table, cfg, out, manifest) as lane:
            stage.enter("census")
            orbits = _census(graph, table, cfg, out, manifest)
            features = _features(orbits, cfg, manifest)
            stage.enter("embed")
            embeddings = _embed(graph, table, cfg, out, manifest, lane)

        stage.enter("validate")
        swept = _validate(embeddings, features, cfg, out, manifest)

        stage.enter("cluster")
        # validate_config keeps chosen_k inside the swept k range
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

        stage.split()
        manifest.metrics.setdefault("stages", {}).update(stage.seconds)
        manifest.write(out)
        return manifest
    except Exception as exc:
        marker = out / "FAILED"
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(f"stage={stage.name}\nerror={exc}\n")
        raise StageError(stage.name, exc) from exc


# --- staged commands --------------------------------------------------------


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


def _start(command, cfg, inputs):
    """A staged command's manifest: its resolved config and input files."""
    inputs = {name: path for name, path in inputs.items() if path is not None}
    return RunManifest.start(
        command,
        {"inputs": {name: str(path) for name, path in inputs.items()}, "config": cfg.to_dict()},
        seed=cfg.seed,
        inputs=inputs,
    )


def _finish(manifest, out, summary) -> int:
    manifest.write(out)
    for message in manifest.notes:
        print(f"{manifest.command}: {message}", file=sys.stderr)
    print(f"{manifest.command}: {summary}")
    return 0


def _cmd_census(args) -> int:
    out = _out_dir(args.out)
    cfg = _with_flags(load_config(args.config), args)
    graph, table = _load_inputs(args.graph, args.labels)
    manifest = _start("census", cfg, {"graph": args.graph, "labels": args.labels})
    _census(graph, table, cfg, out, manifest)
    return _finish(manifest, out, f"{graph.node_count} nodes -> {out / 'orbits.csv'}")


def _cmd_generate(args) -> int:
    out = _out_dir(args.out)
    maker = BUILTIN_TEMPLATES.get(args.template)
    if maker is None:
        raise ValueError(
            f"unknown template {args.template!r}; choose from {sorted(BUILTIN_TEMPLATES)}"
        )
    if args.template == "barbell":
        tpl = barbell_template(args.clique_size, args.chain_len)
    elif args.template == "chain":
        tpl = chain_template(args.length)
    elif args.template == "star":
        tpl = star_template(args.length)
    else:
        tpl = clique_template(args.clique_size)

    planted = generate_planted_graph(
        [tpl], copies=args.copies, noise_edges=args.noise_edges, seed=args.seed
    )
    ids = [f"n{i}" for i in range(planted.graph.node_count)]

    categories = [None] * planted.graph.node_count
    if args.label_mode == "clique-side":
        pool = [f"disc{i:02d}" for i in range(args.disciplines)]
        size = tpl.size
        for copy in range(args.copies):
            base = copy * size
            if args.template == "barbell":
                left = pool[(2 * copy) % len(pool)]
                right = pool[(2 * copy + 1) % len(pool)]
                half = args.clique_size
                for pos in range(size):
                    # clique A and the chain carry the left label, clique B the right
                    in_b = half <= pos < 2 * half
                    categories[base + pos] = right if in_b else left
            else:
                side = pool[copy % len(pool)]
                for pos in range(size):
                    categories[base + pos] = side

    table = NodeTable(external_ids=ids, categories=categories)
    write_edge_list(planted.graph, table, out / "edges.txt")
    write_node_table(table, out / "nodes.csv")
    with open(out / "roles.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,true_role,role_name\n")
        for i, ext in enumerate(ids):
            code = int(planted.true_role[i])
            fh.write(f"{ext},{code},{planted.role_names[code]}\n")

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
    out = _out_dir(args.out)
    cfg = _with_flags(load_config(args.config), args)
    graph, table = _load_inputs(args.graph, args.labels)
    manifest = _start("embed", cfg, {"graph": args.graph, "labels": args.labels})
    with _graphwave_lane(graph, table, cfg, out, manifest) as lane:
        embeddings = _embed(graph, table, cfg, out, manifest, lane)
    widths = ", ".join(f"{emb.method_tag} d={emb.d}" for emb in embeddings)
    return _finish(manifest, out, f"{widths} -> {out}")


def _cmd_cluster(args) -> int:
    out = _out_dir(args.out)
    cfg = _with_flags(load_config(args.config), args)
    graph, table = _load_inputs(args.graph, args.labels)
    emb = import_embedding(args.embedding, table)
    manifest = _start(
        "cluster",
        cfg,
        {"graph": args.graph, "labels": args.labels, "embedding": args.embedding},
    )
    (assignment,) = _cluster([emb], table, cfg, out, manifest).values()
    return _finish(
        manifest,
        out,
        f"k={assignment.k} k_effective={assignment.k_effective} "
        f"-> {out / f'roles_{emb.method_tag}.csv'}",
    )


def _cmd_validate(args) -> int:
    out = _out_dir(args.out)
    cfg = _with_flags(load_config(args.config), args)
    graph, table = _load_inputs(args.graph, args.labels)
    orbits, _ = orbits_from_csv(args.orbits, table)
    embeddings = [import_embedding(p, table) for p in args.embedding]
    manifest = _start(
        "validate",
        cfg,
        {
            "graph": args.graph,
            "labels": args.labels,
            "orbits": args.orbits,
            **{f"embedding{i}": p for i, p in enumerate(args.embedding)},
        },
    )
    result = _validate(embeddings, _features(orbits, cfg, manifest), cfg, out, manifest)
    return _finish(manifest, out, f"{len(result.rows)} rows -> {out / 'sweep.csv'}")


def _cmd_explain(args) -> int:
    out = _out_dir(args.out)
    cfg = _with_flags(load_config(args.config), args)
    problems = explain_problems(cfg.explain)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    orbits, orbit_ids = orbits_from_csv(args.orbits)
    roles, role_ids = roles_from_csv(args.roles)
    if orbit_ids != role_ids:
        mismatched = [
            (a, b) for a, b in zip(orbit_ids, role_ids) if a != b
        ] + [(a, "<missing>") for a in orbit_ids[len(role_ids):]] + [
            ("<missing>", b) for b in role_ids[len(orbit_ids):]
        ]
        raise ValueError(
            f"orbit/role id mismatch; first differences: {mismatched[:10]}"
        )
    manifest = _start("explain", cfg, {"orbits": args.orbits, "roles": args.roles})
    features = _features(orbits, cfg, manifest)
    # the roles CSV names the embedding it came from; the seeds derive
    # from it as in the pipeline
    model, report = _explain_roles(features, orbits, roles, cfg, out, manifest)
    return _finish(
        manifest,
        out,
        f"accuracy={model.holdout_accuracy:.3f} top={report.formatted(3)} -> {out}",
    )


def _cmd_idr(args) -> int:
    out = _out_dir(args.out)
    cfg = _with_flags(load_config(args.config), args)
    graph, table = _load_inputs(args.graph, args.labels)
    roles, _ = roles_from_csv(args.roles, table)
    manifest = _start(
        "idr", cfg, {"graph": args.graph, "labels": args.labels, "roles": args.roles}
    )
    binned = _idr(graph, table, roles, cfg, out, manifest)
    return _finish(manifest, out, f"{len(binned.included_bins)} included bin(s) -> {out}")


def _cmd_pipeline(args) -> int:
    if args.from_manifest:
        params = load_manifest(args.from_manifest)["parameters"]
        cfg = config_from_dict(params["config"])
        graph_path = params["graph_path"]
        labels_path = params["labels_path"]
    else:
        cfg = load_config(args.config)
        graph_path = args.graph
        labels_path = args.labels
    if graph_path is None:
        raise ValueError("pipeline requires a graph (positional or --from-manifest)")
    cfg = _with_flags(cfg, args)
    manifest = run_pipeline(graph_path, labels_path, cfg, args.out)
    print(f"pipeline: ok ({len(manifest.outputs)} outputs) -> {args.out}")
    return 0


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
    p.add_argument("--template", default="barbell", choices=sorted(BUILTIN_TEMPLATES))
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
    p.add_argument("--method", action="append", default=None, dest="methods")
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
    p.add_argument("--kind", default=None, choices=["ALE", "PDP"], dest="effect_kind")
    p.add_argument("--orbit", action="append", type=int, default=None, dest="effect_orbits")
    p.add_argument("--keep-roles", type=int, nargs="*", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="INI config file")

    p = sub.add_parser("idr", help="Rao-Stirling interdisciplinarity report")
    p.add_argument("graph")
    p.add_argument("--roles", required=True)
    p.add_argument("--direction", default=None, choices=["citing", "cited", "all"])
    p.add_argument("--distance", default=None, choices=["uniform", "cocitation_cosine"])
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--min-per-role", type=int, default=None)
    p.add_argument("--pair-counting", default=None, choices=["ordered", "unordered"])
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
