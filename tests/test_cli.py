import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import orbitroles
from orbitroles.cli import main
from orbitroles.graphlets import count_orbits_bruteforce
from orbitroles.graph import load_edge_list
from orbitroles.orbits import orbits_from_csv

from util import assert_no_children, er_graph


def run(*argv):
    return main([str(a) for a in argv])


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return path


BARBELL_CFG = """
[pipeline]
seed = 42
[embed]
methods = graphwave,rolx
rolx_rank = 3
[cluster]
k_min = 2
k_max = 5
chosen_k = 3
[explain]
method = graphwave
trees = 40
importance_repeats = 2
effect_orbits = 0,17,28
[idr]
direction = all
bins = 4
min_per_role = 3
"""


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run(
        "generate", "--template", "barbell", "--clique-size", 5, "--chain-len", 3,
        "--copies", 12, "--label-mode", "clique-side", "--seed", 11, "--out", out,
    )
    assert code == 0
    return out


class TestCensus:
    def test_triangle_edge_list(self, tmp_path):
        graph_file = tmp_path / "k3.txt"
        graph_file.write_text("a b\nb c\na c\n")
        code = run("census", graph_file, "--out", tmp_path / "out")
        assert code == 0
        matrix, ids = orbits_from_csv(tmp_path / "out" / "orbits.csv")
        assert ids == ["a", "b", "c"]
        for row in matrix.counts:
            assert row[0] == 2 and row[3] == 1 and row.sum() == 3

    def test_missing_file_names_path(self, tmp_path, capsys):
        code = run("census", tmp_path / "nope.txt", "--out", tmp_path / "out")
        assert code != 0
        assert "nope.txt" in capsys.readouterr().err

    def test_census_matches_oracle(self, tmp_path):
        g = er_graph(60, 0.06, 9)
        lines = [f"n{u} n{v}" for u, v in g.edges()]
        graph_file = tmp_path / "er.txt"
        graph_file.write_text("\n".join(lines) + "\n")
        assert run("census", graph_file, "--out", tmp_path / "out") == 0
        graph, table = load_edge_list(graph_file)
        matrix, _ = orbits_from_csv(tmp_path / "out" / "orbits.csv", table)
        oracle = count_orbits_bruteforce(graph)
        assert np.array_equal(matrix.counts, oracle.counts)


class TestGenerate:
    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            assert run(
                "generate", "--template", "chain", "--length", 4, "--copies", 5,
                "--noise-edges", 3, "--seed", 7, "--out", tmp_path / sub,
            ) == 0
        assert (tmp_path / "a" / "edges.txt").read_bytes() == (
            tmp_path / "b" / "edges.txt"
        ).read_bytes()

    def test_roles_file_layout(self, corpus):
        with open(corpus / "roles.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["id"] == "n0"
        assert {r["role_name"] for r in rows} == {
            "clique-member", "clique-attachment", "bridge-center",
        }


@pytest.fixture(scope="module")
def run_dir(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = write_config(out / "cfg.ini", BARBELL_CFG)
    code = run(
        "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
        "--config", cfg, "--out", out / "r1",
    )
    assert code == 0
    return out / "r1"


@pytest.fixture(scope="module")
def census_and_roles(tmp_path_factory):
    # a synthetic orbit table whose only informative column is orbit 0:
    # real orbit matrices are too redundant to isolate one column's
    # importance (degree leaks into most other counts)
    out = tmp_path_factory.mktemp("explain_inputs")
    rng = np.random.default_rng(0)
    n = 400
    counts = rng.poisson(3.0, size=(n, 73)).astype(int)
    counts[:, 0] = rng.integers(1, 60, size=n)
    orbits_path = out / "orbits.csv"
    with open(orbits_path, "w") as fh:
        fh.write("id," + ",".join(f"o{i}" for i in range(73)) + "\n")
        for i in range(n):
            fh.write(f"n{i}," + ",".join(str(v) for v in counts[i]) + "\n")
    cut = float(np.median(counts[:, 0]))
    with open(out / "roles.csv", "w") as fh:
        fh.write("# method=threshold k=2 seed=0\nid,role\n")
        for i in range(n):
            fh.write(f"n{i},{1 if counts[i][0] > cut else 0}\n")
    return orbits_path, out / "roles.csv"


class TestPipeline:
    def test_outputs_present(self, run_dir):
        expected = {
            "orbits.csv", "sweep.csv", "importance.csv", "effects.csv",
            "embedding_graphwave.csv", "embedding_rolx.csv",
            "roles_graphwave.csv", "roles_rolx.csv", "diversity.csv",
            "idr_bins.csv", "idr_values.csv", "manifest.json",
        }
        assert expected.issubset({p.name for p in run_dir.iterdir()})
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert manifest["parameters"]["config"]["seed"] == 42

    def test_sweep_rows_two_methods(self, run_dir):
        lines = (run_dir / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 4  # header + 2 methods x k in [2,5]

    def test_effects_carry_annotation(self, run_dir):
        last = (run_dir / "effects.csv").read_text().strip().split("\n")[-1]
        assert last.startswith("annotation,,orbit3_threshold,")

    def test_rerun_byte_identical(self, corpus, run_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--out", tmp_path / "r2",
        ) == 0
        for name in [p.name for p in run_dir.iterdir() if p.suffix == ".csv"]:
            assert (run_dir / name).read_bytes() == (
                tmp_path / "r2" / name
            ).read_bytes(), name

    def test_rerun_from_manifest(self, run_dir, tmp_path):
        assert run(
            "pipeline", "--from-manifest", run_dir / "manifest.json",
            "--out", tmp_path / "r3",
        ) == 0
        assert (run_dir / "orbits.csv").read_bytes() == (
            tmp_path / "r3" / "orbits.csv"
        ).read_bytes()

    def test_failure_names_stage_and_marks(self, tmp_path, capsys):
        code = run("pipeline", tmp_path / "missing.txt", "--out", tmp_path / "out")
        assert code != 0
        assert "load" in capsys.readouterr().err
        marker = (tmp_path / "out" / "FAILED").read_text()
        assert "stage=load" in marker

    def test_good_run_clears_stale_failed_marker(self, corpus, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline", tmp_path / "missing.txt", "--out", out) != 0
        assert (out / "FAILED").exists()
        cfg = write_config(
            tmp_path / "cfg.ini",
            BARBELL_CFG.replace("trees = 40", "trees = 5"),
        )
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--out", out,
        ) == 0
        assert not (out / "FAILED").exists()

    def test_explain_method_must_exist(self, corpus, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.ini",
            BARBELL_CFG.replace("method = graphwave", "method = role2vec"),
        )
        code = run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--out", tmp_path / "out",
        )
        assert code != 0
        assert "explain" in capsys.readouterr().err


class TestExplainCommand:
    def test_orbit0_roles_rank_orbit0_first(self, census_and_roles, tmp_path):
        orbits_path, roles_path = census_and_roles
        out = tmp_path / "out"
        assert run(
            "explain", "--orbits", orbits_path, "--roles", roles_path,
            "--trees", 40, "--repeats", 3, "--orbit", 0, "--out", out, "--seed", 1,
        ) == 0
        with open(out / "importance.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["orbit"] == "0"
        assert float(rows[0]["mean"]) > 0.1

    def test_keep_roles_writes_subpopulation_outputs(self, census_and_roles, tmp_path):
        orbits_path, roles_path = census_and_roles
        out = tmp_path / "out"
        assert run(
            "explain", "--orbits", orbits_path, "--roles", roles_path,
            "--trees", 20, "--repeats", 2, "--orbit", 0,
            "--keep-roles", 0, 1, "--out", out, "--seed", 1,
        ) == 0
        assert (out / "importance_subpop.csv").exists()
        assert (out / "effects_subpop.csv").exists()

    def test_permuted_labels_near_zero_importance(self, census_and_roles, tmp_path):
        orbits_path, roles_path = census_and_roles
        shuffled_path = tmp_path / "shuffled.csv"
        lines = roles_path.read_text().strip().split("\n")
        header, rows = lines[:2], lines[2:]
        ids = [r.split(",")[0] for r in rows]
        labels = [r.split(",")[1] for r in rows]
        rng = np.random.default_rng(3)
        labels = [labels[i] for i in rng.permutation(len(labels))]
        shuffled_path.write_text(
            "\n".join(header + [f"{i},{l}" for i, l in zip(ids, labels)]) + "\n"
        )
        out = tmp_path / "out"
        assert run(
            "explain", "--orbits", orbits_path, "--roles", shuffled_path,
            "--trees", 40, "--repeats", 3, "--orbit", 0, "--out", out, "--seed", 1,
        ) == 0
        with open(out / "importance.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(abs(float(r["mean"])) < 0.1 for r in rows)

    def test_orbit_out_of_range_rejected_before_outputs(
        self, census_and_roles, tmp_path, capsys
    ):
        orbits_path, roles_path = census_and_roles
        out = tmp_path / "out"
        code = run(
            "explain", "--orbits", orbits_path, "--roles", roles_path,
            "--trees", 5, "--orbit", 73, "--out", out,
        )
        assert code != 0
        assert "invalid config: explain.effect_orbits [73] outside 0..72" in (
            capsys.readouterr().err
        )
        assert not (out / "importance.csv").exists()

    @pytest.mark.parametrize(
        "flag, message",
        [("--trees", "explain.trees 0 < 1"), ("--repeats", "explain.importance_repeats 0 < 1")],
    )
    def test_zero_trees_or_repeats_rejected_before_outputs(
        self, census_and_roles, tmp_path, capsys, flag, message
    ):
        orbits_path, roles_path = census_and_roles
        out = tmp_path / "out"
        code = run(
            "explain", "--orbits", orbits_path, "--roles", roles_path,
            "--trees", 5, flag, 0, "--out", out,
        )
        assert code != 0
        assert f"invalid config: {message}" in capsys.readouterr().err
        assert not (out / "importance.csv").exists()

    def test_id_mismatch_lists_first_ten(self, census_and_roles, tmp_path, capsys):
        orbits_path, _ = census_and_roles
        bad_roles = tmp_path / "bad.csv"
        bad_roles.write_text(
            "id,role\n" + "".join(f"x{i},0\n" for i in range(60)) + "x60,1\n"
        )
        code = run(
            "explain", "--orbits", orbits_path, "--roles", bad_roles,
            "--out", tmp_path / "out",
        )
        assert code != 0
        err = capsys.readouterr().err
        assert "mismatch" in err
        assert err.count("x") <= 25  # first 10 pairs, not the full list


class TestIdrCommand:
    def test_idr_outputs(self, corpus, tmp_path):
        out = tmp_path / "out"
        # true roles as the role assignment
        roles_path = tmp_path / "roles.csv"
        with open(corpus / "roles.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(roles_path, "w") as fh:
            fh.write("# method=true k=3 seed=0\nid,role\n")
            for r in rows:
                fh.write(f"{r['id']},{r['true_role']}\n")
        assert run(
            "idr", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--roles", roles_path, "--direction", "all", "--bins", 3,
            "--min-per-role", 2, "--out", out,
        ) == 0
        assert (out / "diversity.csv").exists()
        assert (out / "idr_bins.csv").exists()
        assert (out / "idr_values.csv").exists()


class TestValidateAndCluster:
    def test_embed_cluster_validate_chain(self, corpus, tmp_path):
        out = tmp_path / "emb"
        assert run(
            "embed", corpus / "edges.txt", "--method", "graphwave", "--out", out,
        ) == 0
        emb_path = out / "embedding_graphwave.csv"
        assert emb_path.exists()

        cl_out = tmp_path / "cl"
        assert run(
            "cluster", corpus / "edges.txt", "--embedding", emb_path,
            "--k", 3, "--seed", 5, "--out", cl_out,
        ) == 0
        assert (cl_out / "roles_graphwave.csv").exists()

        assert run("census", corpus / "edges.txt", "--out", tmp_path / "cen") == 0
        val_out = tmp_path / "val"
        assert run(
            "validate", corpus / "edges.txt",
            "--orbits", tmp_path / "cen" / "orbits.csv",
            "--embedding", emb_path, "--k-min", 2, "--k-max", 4, "--out", val_out,
        ) == 0
        lines = (val_out / "sweep.csv").read_text().strip().split("\n")
        assert len(lines) == 4

    def test_cluster_on_pipeline_embedding_byte_identical(self, corpus, run_dir, tmp_path):
        # k-means seeded by (seed, method, k) in both paths
        out = tmp_path / "cl"
        assert run(
            "cluster", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--embedding", run_dir / "embedding_graphwave.csv", "--k", 3,
            "--config", run_dir.parent / "cfg.ini", "--out", out,
        ) == 0
        staged = (out / "roles_graphwave.csv").read_bytes()
        assert staged == (run_dir / "roles_graphwave.csv").read_bytes()


class TestStagedExplainMatchesPipeline:
    def test_explain_on_pipeline_outputs_byte_identical(self, corpus, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.ini",
            BARBELL_CFG.replace("trees = 40", "trees = 8\nkeep_roles = 0,1"),
        )
        pipe = tmp_path / "pipe"
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--out", pipe,
        ) == 0
        staged = tmp_path / "staged"
        assert run(
            "explain", "--orbits", pipe / "orbits.csv",
            "--roles", pipe / "roles_graphwave.csv", "--config", cfg, "--out", staged,
        ) == 0
        for name in (
            "importance.csv", "effects.csv", "importance_subpop.csv", "effects_subpop.csv",
        ):
            assert (staged / name).read_bytes() == (pipe / name).read_bytes(), name


@pytest.mark.parametrize("drop_orbit0", ["false", "true"])
def test_staged_chain_matches_pipeline(corpus, tmp_path, drop_orbit0):
    # every staged command calls the pipeline's stage function, so the
    # chain census -> embed -> validate -> cluster -> explain -> idr with
    # the same seed and config writes the same CSVs
    cfg = write_config(
        tmp_path / "cfg.ini",
        BARBELL_CFG.replace("trees = 40", "trees = 8").replace(
            "seed = 42", f"seed = 42\ndrop_orbit0 = {drop_orbit0}"
        ),
    )
    graph = corpus / "edges.txt"
    common = ("--labels", corpus / "nodes.csv", "--config", cfg, "--seed", 5)
    pipe, staged = tmp_path / "pipe", tmp_path / "staged"
    assert run("pipeline", graph, *common, "--out", pipe) == 0

    assert run("census", graph, *common, "--out", staged) == 0
    assert run("embed", graph, *common, "--out", staged) == 0
    embeddings = [staged / f"embedding_{m}.csv" for m in ("graphwave", "rolx")]
    assert run(
        "validate", graph, *common, "--orbits", staged / "orbits.csv",
        "--embedding", embeddings[0], "--embedding", embeddings[1], "--out", staged,
    ) == 0
    for path in embeddings:
        assert run(
            "cluster", graph, *common, "--embedding", path, "--k", 3, "--out", staged,
        ) == 0
    roles = staged / "roles_graphwave.csv"
    assert run(
        "explain", "--orbits", staged / "orbits.csv", "--roles", roles,
        "--config", cfg, "--seed", 5, "--out", staged,
    ) == 0
    assert run("idr", graph, *common, "--roles", roles, "--out", staged) == 0

    names = sorted(p.name for p in pipe.glob("*.csv"))
    assert names == sorted(p.name for p in staged.glob("*.csv"))
    assert len(names) == 11
    for name in names:
        assert (staged / name).read_bytes() == (pipe / name).read_bytes(), name


def test_cli_import_leaves_scipy_out(tmp_path):
    src = str(Path(orbitroles.__file__).resolve().parents[1])
    probe = "import sys, orbitroles.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": src, "PATH": ""},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


class TestConfigCheckedBeforeCensus:
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("method = graphwave", "method = nosuch", "explain.method 'nosuch'"),
            ("effect_orbits = 0,17,28", "effect_orbits = 0,73", "effect_orbits [73]"),
            ("chosen_k = 3", "chosen_k = 6", "chosen_k 6 outside [2, 5]"),
            ("rolx_rank = 3", "rolx_rank = 3\nsample_points = 0", "embed.sample_points 0 < 2"),
            ("rolx_rank = 3", "rolx_rank = 3\nsample_points = 1", "embed.sample_points 1 < 2"),
            ("rolx_rank = 3", "rolx_rank = 3\nt_max = 0", "embed.t_max 0.0 is not positive"),
            ("rolx_rank = 3", "rolx_rank = 3\nt_max = -1", "embed.t_max -1.0 is not positive"),
            ("rolx_rank = 3", "rolx_rank = 3\nt_max = inf", "embed.t_max inf is not positive"),
            ("rolx_rank = 3", "rolx_rank = 3\nt_max = nan", "embed.t_max nan is not positive"),
            ("k_min = 2", "k_min = 1", "cluster.k_min 1 < 2"),
            ("trees = 40", "trees = 0", "explain.trees 0 < 1"),
            (
                "importance_repeats = 2",
                "importance_repeats = 0",
                "explain.importance_repeats 0 < 1",
            ),
        ],
    )
    def test_bad_config_fails_without_outputs(self, corpus, tmp_path, capsys, old, new, message):
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG.replace(old, new))
        out = tmp_path / "out"
        code = run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--out", out,
        )
        assert code != 0
        assert message in capsys.readouterr().err
        assert "stage=config" in (out / "FAILED").read_text()
        assert not (out / "orbits.csv").exists()


def test_pipeline_runs_one_kmeans_per_sweep_cell(corpus, tmp_path, monkeypatch):
    # the roles at chosen_k come from the sweep's cell, not a second run
    import orbitroles.cli
    import orbitroles.clustering

    log = tmp_path / "calls.txt"

    def counting(original):
        def wrapper(*args, **kwargs):
            # a file, not a list: the sweep's forked workers append to it too
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{args[1]}\n")
            return original(*args, **kwargs)

        return wrapper

    for module in (orbitroles.clustering, orbitroles.cli):
        monkeypatch.setattr(module, "kmeans", counting(module.kmeans))
    cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
    assert run(
        "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
        "--config", cfg, "--out", tmp_path / "out",
    ) == 0
    calls = [int(k) for k in log.read_text(encoding="utf-8").split()]
    assert sorted(calls) == sorted([2, 3, 4, 5] * 2)  # 2 methods x k in [2, 5]


def test_manifest_metrics_hold_kmeans_cells(corpus, run_dir):
    from clustering_reference import kmeans_broadcast

    from orbitroles.clustering import assignment_seed
    from orbitroles.embeddings import import_embedding
    from orbitroles.graph import load_node_table

    metrics = json.loads((run_dir / "manifest.json").read_text())["metrics"]
    cells = metrics["kmeans"]
    assert sorted(cells) == sorted(f"{m}:{k}" for m in ("graphwave", "rolx") for k in range(2, 6))
    table = load_node_table(corpus / "nodes.csv")
    for method in ("graphwave", "rolx"):
        emb = import_embedding(run_dir / f"embedding_{method}.csv", table)
        for k in range(2, 6):
            want = kmeans_broadcast(emb, k, seed=assignment_seed(42, method, k))
            assert cells[f"{method}:{k}"] == {
                "iterations": len(want.meta["wcss_trajectory"]),
                "degenerate": want.degenerate,
            }


BA_CFG = """
[pipeline]
seed = 5
[cluster]
k_min = 2
k_max = 6
chosen_k = 4
[explain]
trees = 10
importance_repeats = 2
effect_orbits = 0,27
"""


@pytest.mark.parametrize("graph", ["barbell", "ba"])
def test_graphwave_rotation_keeps_downstream_outputs(corpus, tmp_path, monkeypatch, graph):
    # the rotation moves GraphWave values by rounding only: the roles, the
    # sweep and the explanations built on them keep their bytes
    import orbitroles.cli

    from embedding_reference import graphwave_exact
    from util import ba_graph

    if graph == "barbell":
        argv = [corpus / "edges.txt", "--labels", corpus / "nodes.csv"]
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
    else:
        edges = tmp_path / "ba.txt"
        edges.write_text("".join(f"n{u} n{v}\n" for u, v in ba_graph(300, 4, 8).edges()))
        argv = [edges]
        cfg = write_config(tmp_path / "cfg.ini", BA_CFG)
    assert run("pipeline", *argv, "--config", cfg, "--out", tmp_path / "new") == 0
    monkeypatch.setattr(orbitroles.cli, "graphwave_embed", graphwave_exact)
    assert run("pipeline", *argv, "--config", cfg, "--out", tmp_path / "exact") == 0
    new_emb, exact_emb = (
        np.loadtxt(tmp_path / run_dir / "embedding_graphwave.csv", delimiter=",",
                   skiprows=2, usecols=range(1, 129))
        for run_dir in ("new", "exact")
    )
    assert 0.0 < np.abs(new_emb - exact_emb).max() <= 1e-12
    for name in ("roles_graphwave.csv", "sweep.csv", "importance.csv", "effects.csv"):
        new = (tmp_path / "new" / name).read_bytes()
        assert new == (tmp_path / "exact" / name).read_bytes(), name


def test_default_rolx_rank_runs_on_ba_graph(tmp_path):
    # preferential attachment, n=150, m=3: no rolx_rank in the config
    rng = np.random.default_rng(4)
    edges, repeated = [(0, j) for j in range(1, 4)], [0] * 3 + [1, 2, 3]
    for source in range(4, 150):
        targets = set()
        while len(targets) < 3:
            targets.add(repeated[int(rng.integers(len(repeated)))])
        edges += [(t, source) for t in sorted(targets)]
        repeated += sorted(targets) + [source] * 3
    graph_file = tmp_path / "ba.txt"
    graph_file.write_text("".join(f"n{u} n{v}\n" for u, v in edges))
    cfg = write_config(
        tmp_path / "cfg.ini",
        "[cluster]\nk_min = 2\nk_max = 4\nchosen_k = 3\n"
        "[explain]\ntrees = 5\nimportance_repeats = 1\neffect_orbits = 0\n",
    )
    out = tmp_path / "out"
    assert run("pipeline", graph_file, "--config", cfg, "--out", out) == 0
    assert (out / "roles_rolx.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["config"]["embed"]["rolx_rank"] == 4


class TestExplainMetrics:
    KEYS = {"holdout_accuracy", "tree_nodes", "features_used", "importance_cells", "skipped_curves"}

    def test_subpopulation_skipped_curve_noted(self, corpus, tmp_path):
        # clique members and clique attachments all sit in one K5, so the
        # triangle orbit 3 is constant within them but not in the corpus
        census = tmp_path / "census"
        assert run("census", corpus / "edges.txt", "--out", census) == 0
        counts, ids = orbits_from_csv(census / "orbits.csv")
        with open(corpus / "roles.csv") as fh:
            truth = {row["id"]: int(row["true_role"]) for row in csv.DictReader(fh)}
        labels = np.array([truth[i] for i in ids])
        keep = np.isin(labels, [0, 1])
        assert np.ptp(counts.counts[keep, 3]) == 0 and np.ptp(counts.counts[:, 3]) > 0
        assert np.ptp(counts.counts[keep, 0]) > 0
        roles_path = tmp_path / "roles.csv"
        roles_path.write_text(
            "# method=truth k=3 seed=0\nid,role\n"
            + "".join(f"{i},{label}\n" for i, label in zip(ids, labels))
        )
        cfg = write_config(
            tmp_path / "cfg.ini",
            BARBELL_CFG.replace("trees = 40", "trees = 8\nkeep_roles = 0,1").replace(
                "effect_orbits = 0,17,28", "effect_orbits = 0,3"
            ),
        )
        out = tmp_path / "out"
        assert run(
            "explain", "--orbits", census / "orbits.csv", "--roles", roles_path,
            "--config", cfg, "--out", out,
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["notes"] == ["sub-population: orbit 3 constant; effect curve skipped"]
        assert manifest["metrics"]["explain"]["skipped_curves"] == []
        assert manifest["metrics"]["explain_subpop"]["skipped_curves"] == [3]
        with open(out / "effects_subpop.csv") as fh:
            orbits = {row["orbit"] for row in csv.DictReader(fh)}
        assert orbits == {"0", "annotation"}

    def test_metrics_keys_and_csvs_equal_reference(self, corpus, tmp_path, monkeypatch):
        # the pipeline with the reference split search and the whole-forest
        # importance patched in writes the same bytes
        from surrogate_reference import grow_tree
        from test_surrogate import reference_importance

        from orbitroles import cli, surrogate

        cfg = write_config(
            tmp_path / "cfg.ini", BARBELL_CFG.replace("trees = 40", "trees = 8\nkeep_roles = 0,1")
        )
        args = ("pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv", "--config", cfg)
        assert run(*args, "--out", tmp_path / "fast") == 0

        def reference_report(model, features, roles, repeats, seed):
            labels = getattr(roles, "labels", roles)
            rows, baseline = reference_importance(model, features, labels, repeats, seed)
            return surrogate.ImportanceReport(
                rows, baseline, repeats, {"cells": repeats * len(model.features_used())}
            )

        def reference_grow(X, ranks, y_idx, n_classes, rows, min_leaf, rng):
            return grow_tree(X, y_idx, n_classes, rows, min_leaf, rng)

        monkeypatch.setattr(surrogate, "_grow_tree", reference_grow)
        monkeypatch.setattr(cli, "permutation_importance", reference_report)
        assert run(*args, "--out", tmp_path / "reference") == 0

        fast = sorted(p.name for p in (tmp_path / "fast").glob("*.csv"))
        assert "importance_subpop.csv" in fast and len(fast) == 13
        for name in fast:
            assert (tmp_path / "fast" / name).read_bytes() == (
                tmp_path / "reference" / name
            ).read_bytes(), name
        metrics = {
            tag: json.loads((tmp_path / tag / "manifest.json").read_text())["metrics"]
            for tag in ("fast", "reference")
        }
        for key in ("explain", "explain_subpop"):
            assert set(metrics["fast"][key]) == self.KEYS
            assert metrics["fast"][key] == metrics["reference"][key]
            assert metrics["fast"][key]["tree_nodes"] > 8
            assert 0 < metrics["fast"][key]["importance_cells"] <= 73 * 2
        assert metrics["fast"]["explain"]["holdout_accuracy"] == json.loads(
            (tmp_path / "fast" / "manifest.json").read_text()
        )["parameters"]["surrogate_holdout_accuracy"]


def _ba_edges(path):
    from util import ba_graph

    path.write_text("".join(f"n{u} n{v}\n" for u, v in ba_graph(400, 4, 8).edges()))
    return path


class TestWorkers:
    """The forked lanes: the same CSVs for every worker count, errors that
    name the right stage, and no process left behind."""

    @pytest.mark.parametrize("graph", ["barbell", "ba"])
    def test_csvs_same_for_every_worker_count(self, corpus, tmp_path, graph):
        if graph == "barbell":
            graph_file, text = corpus / "edges.txt", BARBELL_CFG
            labels = ("--labels", corpus / "nodes.csv")
        else:
            graph_file, text, labels = _ba_edges(tmp_path / "ba.txt"), BA_CFG, ()
        runs = {}
        for threads in (1, 2, 3):
            out = tmp_path / f"pipe{threads}"
            cfg = write_config(
                tmp_path / f"cfg{threads}.ini",
                text.replace("[pipeline]\n", f"[pipeline]\nthreads = {threads}\n"),
            )
            assert run("pipeline", graph_file, *labels, "--config", cfg, "--out", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["metrics"]["workers"] == threads
            # the staged commands that use workers: embed and validate
            staged = tmp_path / f"staged{threads}"
            common = (*labels, "--config", cfg, "--out", staged)
            assert run("embed", graph_file, *common) == 0
            embeddings = [staged / f"embedding_{m}.csv" for m in ("graphwave", "rolx")]
            assert run(
                "validate", graph_file, *common, "--orbits", out / "orbits.csv",
                "--embedding", embeddings[0], "--embedding", embeddings[1],
            ) == 0
            runs[threads] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
            for path in staged.glob("*.csv"):
                assert path.read_bytes() == runs[threads][path.name], (threads, path.name)
        assert len(runs[1]) == (11 if graph == "barbell" else 8)
        assert runs[2] == runs[1] and runs[3] == runs[1]
        assert_no_children()

    def test_manifest_stage_timings(self, corpus, tmp_path):
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG.replace("seed = 42", "seed = 42\nthreads = 2"))
        out = tmp_path / "out"
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--out", out,
        ) == 0
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        assert metrics["workers"] == 2
        stages = metrics["stages"]
        assert set(stages) == {
            "config", "load", "census", "embed", "validate", "cluster", "explain", "idr",
            "embed/graphwave", "validate/kmeans-0", "validate/kmeans-1",
        }
        assert all(isinstance(v, float) and v >= 0.0 for v in stages.values())

    def test_graphwave_error_in_worker_marks_embed(self, corpus, tmp_path, monkeypatch, capsys):
        import orbitroles.cli

        parent = os.getpid()

        def failing(*args, **kwargs):
            raise ValueError(f"graphwave failed in {'parent' if os.getpid() == parent else 'worker'}")

        monkeypatch.setattr(orbitroles.cli, "graphwave_embed", failing)
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        out = tmp_path / "out"
        code = run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--threads", 2, "--out", out,
        )
        assert code == 2
        assert "stage 'embed' failed" in capsys.readouterr().err
        marker = (out / "FAILED").read_text()
        assert marker == "stage=embed\nerror=graphwave failed in worker\n"
        assert (out / "orbits.csv").exists() and (out / "embedding_rolx.csv").exists()
        assert_no_children()

    def test_census_error_reaps_running_worker(self, corpus, tmp_path, monkeypatch):
        import orbitroles.cli

        def slow(*args, **kwargs):
            time.sleep(60)

        def failing(*args, **kwargs):
            raise ValueError("census failed")

        monkeypatch.setattr(orbitroles.cli, "graphwave_embed", slow)
        monkeypatch.setattr(orbitroles.cli, "count_orbits", failing)
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        out = tmp_path / "out"
        start = time.monotonic()
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--threads", 2, "--out", out,
        ) == 2
        assert time.monotonic() - start < 30
        assert (out / "FAILED").read_text() == "stage=census\nerror=census failed\n"
        assert_no_children()

    @pytest.mark.parametrize("where", ["census", "sweep"])
    def test_interrupt_leaves_no_process(self, corpus, tmp_path, monkeypatch, where):
        import orbitroles.cli
        import orbitroles.clustering

        parent = os.getpid()

        def interrupted(*args, **kwargs):
            # Ctrl-C in the parent while the workers are still busy
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        if where == "census":
            monkeypatch.setattr(orbitroles.cli, "graphwave_embed", interrupted)
            monkeypatch.setattr(orbitroles.cli, "count_orbits", interrupted)
        else:
            monkeypatch.setattr(orbitroles.clustering, "kmeans", interrupted)
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run(
                "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
                "--config", cfg, "--threads", 3, "--out", tmp_path / "out",
            )
        assert time.monotonic() - start < 30
        assert_no_children()


def test_cli_import_loads_no_process_pool(tmp_path):
    # forking needs neither: they would only add to the set-up time
    src = str(Path(orbitroles.__file__).resolve().parents[1])
    probe = (
        "import sys, orbitroles.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": src, "PATH": ""},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
