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
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err
        assert (tmp_path / "out" / "FAILED").read_text().startswith("stage=load\nerror=")

    def test_failure_removes_earlier_manifest(self, tmp_path):
        # the first run's manifest would describe the failed one
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("a b\nb c\na c\n")
        out = tmp_path / "out"
        assert run("census", graph_file, "--out", out) == 0
        assert (out / "manifest.json").exists()
        assert run("census", tmp_path / "missing.txt", "--out", out) == 2
        assert (out / "FAILED").read_text().startswith("stage=load\nerror=")
        assert not (out / "manifest.json").exists()

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

    def test_roles_and_nodes_bytes(self, tmp_path):
        assert run(
            "generate", "--template", "star", "--length", 2, "--copies", 2,
            "--label-mode", "clique-side", "--disciplines", 3, "--out", tmp_path,
        ) == 0
        assert (tmp_path / "roles.csv").read_bytes() == (
            b"id,true_role,role_name\n"
            b"n0,0,star-leaf\nn1,0,star-leaf\nn2,1,star-center\n"
            b"n3,0,star-leaf\nn4,0,star-leaf\nn5,1,star-center\n"
        )
        assert (tmp_path / "nodes.csv").read_bytes() == (
            b"id,category\n"
            b"n0,disc00\nn1,disc00\nn2,disc00\nn3,disc01\nn4,disc01\nn5,disc01\n"
        )

    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                ["--template", "barbell", "--clique-size", 4, "--chain-len", 5],
                "00dc5e7bb9a982a1366977fba1334f752895a65c99a2ab1ea1188526a09b6f15",
            ),
            (
                ["--template", "chain", "--length", 3],
                "b1d158ee4873278611ee7239d59d3f648235a6528a8dbe42dba28a0dd2d4540d",
            ),
            (
                ["--template", "clique", "--clique-size", 5],
                "6305962046e92cd9f6caa6586a5bdd4af2b03f9c72ad17784036301e3f3d7161",
            ),
            (
                ["--template", "star", "--length", 3],
                "446edc790bb40f6b633cb0fbfcc049f3159be35cee5b744127a393a577cc56bb",
            ),
            # the benchmark's planted-many corpus
            (
                ["--template", "barbell", "--clique-size", 5, "--chain-len", 5,
                 "--copies", 200, "--disciplines", 4],
                "2be27b4aae649f5e93fd5667a3d3b657add474f0f2cac387fed78bb9b8c7d8c9",
            ),
        ],
    )
    def test_clique_side_labels_golden(self, tmp_path, flags, digest):
        # the labels cycle through fewer disciplines than copies (or sides);
        # a case's own --copies and --disciplines come later and win
        import hashlib

        assert run(
            "generate", "--copies", 7, "--disciplines", 3, *flags,
            "--label-mode", "clique-side", "--out", tmp_path,
        ) == 0
        assert hashlib.sha256((tmp_path / "nodes.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("disciplines", [0, -2])
    def test_disciplines_below_one_rejected(self, tmp_path, capsys, disciplines):
        # the labels cycle through the disciplines: none is a modulo by zero
        out = tmp_path / "out"
        code = run(
            "generate", "--label-mode", "clique-side", "--disciplines", disciplines,
            "--copies", 2, "--out", out,
        )
        assert code == 1
        assert f"--disciplines must be at least 1, got {disciplines}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--copies", 0], "--copies must be at least 1, got 0"),
            (["--noise-edges", -1], "--noise-edges must be at least 0, got -1"),
            (["--template", "chain", "--length", 1], "--length must be at least 2, got 1"),
            (["--template", "star", "--length", 1], "--length must be at least 2, got 1"),
            (["--clique-size", 2], "--clique-size must be at least 3, got 2"),
            (["--template", "clique", "--clique-size", 2], "--clique-size must be at least 3, got 2"),
            (["--chain-len", 2], "--chain-len must be at least 3, got 2"),
        ],
    )
    def test_bad_flag_named_before_out_is_made(self, tmp_path, capsys, flags, named):
        out = tmp_path / "out"
        assert run("generate", *flags, "--out", out) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


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

    def test_rerun_from_manifest_into_its_own_directory(self, run_dir, tmp_path):
        # the manifest being replayed is the one that the replay replaces
        replay = tmp_path / "replay"
        assert run("pipeline", "--from-manifest", run_dir / "manifest.json", "--out", replay) == 0
        assert run("pipeline", "--from-manifest", replay / "manifest.json", "--out", replay) == 0
        assert (replay / "manifest.json").exists() and not (replay / "FAILED").exists()
        for path in run_dir.glob("*.csv"):
            assert (replay / path.name).read_bytes() == path.read_bytes(), path.name

    @pytest.mark.parametrize(
        "stage, spoil",
        [
            ("config", lambda params, tmp: params.pop("inputs")),
            ("load", lambda params, tmp: params["inputs"].update(graph=str(tmp / "moved.txt"))),
        ],
        ids=["older-layout", "moved-input"],
    )
    def test_failed_replay_into_its_own_directory_keeps_manifest(
        self, run_dir, tmp_path, stage, spoil
    ):
        # the replayed manifest is the record to mend and replay again
        replay = tmp_path / "replay"
        replay.mkdir()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        spoil(manifest["parameters"], tmp_path)
        (replay / "manifest.json").write_text(json.dumps(manifest))
        before = (replay / "manifest.json").read_bytes()
        assert run("pipeline", "--from-manifest", replay / "manifest.json", "--out", replay) == 2
        assert (replay / "FAILED").read_text().startswith(f"stage={stage}\nerror=")
        assert (replay / "manifest.json").read_bytes() == before

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            # a string "false" was once replayed as is, and was truthy
            ("pipeline", "drop_orbit0", "false",
             "[pipeline] drop_orbit0: 'false' is not a bool (JSON true or false)"),
            ("cluster", "k_min", "2", "[cluster] k_min: '2' is not an integer"),
            ("cluster", "k_max", True, "[cluster] k_max: True is not an integer"),
            ("explain", "effect_orbits", [0, "17"],
             "[explain] effect_orbits: '17' is not an integer"),
            ("embed", "methods", "rolx", "[embed] methods: 'rolx' is not a list"),
        ],
    )
    def test_edited_manifest_value_of_another_type_fails_config(
        self, run_dir, tmp_path, capsys, section, key, value, message
    ):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        config = manifest["parameters"]["config"]
        (config if section == "pipeline" else config[section])[key] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert run("pipeline", "--from-manifest", edited, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert (out / "FAILED").read_text() == f"stage=config\nerror={message}\n"
        assert not list(out.glob("*.csv"))

    def test_edited_manifest_replays_its_values(self, run_dir, tmp_path):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest["parameters"]["config"]["drop_orbit0"] = True
        manifest["parameters"]["config"]["memory_budget_mb"] = 4000
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert run("pipeline", "--from-manifest", edited, "--out", out) == 0
        replayed = json.loads((out / "manifest.json").read_text())["parameters"]
        assert replayed["config"]["drop_orbit0"] is True
        assert replayed["config"]["memory_budget_mb"] == 4000.0
        assert replayed["validation_feature_space"] == "log1p-orbit-no-degree"

    def test_failure_names_stage_and_marks(self, tmp_path, capsys):
        code = run("pipeline", tmp_path / "missing.txt", "--out", tmp_path / "out")
        assert code != 0
        assert "load" in capsys.readouterr().err
        marker = (tmp_path / "out" / "FAILED").read_text()
        assert "stage=load" in marker

    @pytest.mark.parametrize("command", ["pipeline", "census"])
    def test_good_run_clears_stale_failed_marker(self, corpus, tmp_path, command):
        out = tmp_path / "out"
        assert run("pipeline", tmp_path / "missing.txt", "--out", out) != 0
        assert (out / "FAILED").exists()
        cfg = write_config(
            tmp_path / "cfg.ini",
            BARBELL_CFG.replace("trees = 40", "trees = 5"),
        )
        assert run(
            command, corpus / "edges.txt", "--labels", corpus / "nodes.csv",
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

    @pytest.mark.parametrize(
        "keep, message",
        [
            ((0, 5), "explain.keep_roles [5] outside [0, 2)"),
            ((1,), "explain.keep_roles [1] has < 2 distinct roles"),
        ],
    )
    def test_bad_keep_roles_rejected_before_outputs(
        self, census_and_roles, tmp_path, capsys, keep, message
    ):
        # the roles CSV says k=2: its roles are 0 and 1
        orbits_path, roles_path = census_and_roles
        out = tmp_path / "out"
        code = run(
            "explain", "--orbits", orbits_path, "--roles", roles_path,
            "--trees", 5, "--keep-roles", *keep, "--out", out,
        )
        assert code != 0
        assert f"invalid config: {message}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["FAILED"]
        assert (out / "FAILED").read_text().startswith("stage=config\nerror=invalid config: ")

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


    def test_cluster_reads_pipeline_embedding_with_hash_id(self, tmp_path):
        # '#d' is an isolated node of the node table (an edge list cannot
        # name it), and a row, not a comment, of the embedding CSV the
        # pipeline writes
        graph = tmp_path / "g.txt"
        graph.write_text("a b\nb c\nc a\nc d\nd e\ne f\nf d\n", encoding="utf-8")
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id\na\nb\nc\n#d\nd\ne\nf\n", encoding="utf-8")
        cfg = write_config(
            tmp_path / "cfg.ini",
            "[pipeline]\nseed = 3\n[embed]\nmethods = graphwave\n"
            "[cluster]\nk_min = 2\nk_max = 3\nchosen_k = 2\n"
            "[explain]\ntrees = 4\nimportance_repeats = 1\neffect_orbits = 0\n",
        )
        pipe = tmp_path / "pipe"
        assert run("pipeline", graph, "--labels", nodes, "--config", cfg, "--out", pipe) == 0
        out = tmp_path / "cl"
        assert run(
            "cluster", graph, "--labels", nodes, "--embedding", pipe / "embedding_graphwave.csv",
            "--k", 2, "--config", cfg, "--out", out,
        ) == 0
        staged = (out / "roles_graphwave.csv").read_bytes()
        assert staged == (pipe / "roles_graphwave.csv").read_bytes()
        assert b"\n#d," in staged


class TestImportedEmbeddings:
    """``[embed] import_paths`` through ``pipeline``, and the same files
    through staged ``validate``. An imported embedding is known by its tag,
    which names its CSVs and its roles."""

    def _retagged(self, run_dir, path, tag):
        # the pipeline's RolX embedding under another tag
        lines = (run_dir / "embedding_rolx.csv").read_text().split("\n")
        path.write_text("\n".join([f"# method={tag}"] + lines[1:]))
        return path

    def _pipeline(self, corpus, tmp_path, *imports):
        cfg = write_config(
            tmp_path / "imports.ini",
            BARBELL_CFG.replace(
                "rolx_rank = 3", "rolx_rank = 3\nimport_paths = " + ",".join(map(str, imports))
            ),
        )
        out = tmp_path / "out"
        code = run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--out", out,
        )
        return code, out, cfg

    def test_distinct_tag_adds_its_outputs_only(self, corpus, run_dir, tmp_path):
        other = self._retagged(run_dir, tmp_path / "other.csv", "cmp")
        code, out, cfg = self._pipeline(corpus, tmp_path, other)
        assert code == 0
        assert (out / "embedding_cmp.csv").read_bytes() == other.read_bytes()
        assert (out / "roles_cmp.csv").exists()
        native = {p.name for p in run_dir.glob("*.csv")} - {"sweep.csv"}
        assert {p.name for p in out.glob("*.csv")} == native | {
            "sweep.csv", "embedding_cmp.csv", "roles_cmp.csv",
        }
        for name in native:
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [r for r in rows if not r.startswith("cmp,")] == (
            (run_dir / "sweep.csv").read_text().splitlines()
        )
        assert [r.split(",")[1] for r in rows if r.startswith("cmp,")] == ["2", "3", "4", "5"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["outputs"]) == len(set(manifest["outputs"]))
        staged = tmp_path / "staged"
        assert run(
            "validate", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--orbits", out / "orbits.csv",
            "--embedding", out / "embedding_graphwave.csv",
            "--embedding", out / "embedding_rolx.csv",
            "--embedding", other, "--config", cfg, "--out", staged,
        ) == 0
        assert (staged / "sweep.csv").read_bytes() == (out / "sweep.csv").read_bytes()

    def test_tag_of_a_native_method_fails_embed(self, corpus, run_dir, tmp_path):
        other = self._retagged(run_dir, tmp_path / "other.csv", "graphwave")
        code, out, _ = self._pipeline(corpus, tmp_path, other)
        assert code == 2
        assert (out / "FAILED").read_text() == (
            f"stage=embed\nerror=imported embedding {other} has tag 'graphwave', "
            "as has native method 'graphwave'\n"
        )
        # the native CSVs written before the check stand, neither the import
        # nor GraphWave's own CSV (removed with its lane) is under
        # GraphWave's name, and no later stage ran
        for name in ("embedding_rolx.csv", "orbits.csv"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name
        assert not (out / "embedding_graphwave.csv").exists()
        assert not (out / "sweep.csv").exists()

    def test_tag_of_another_import_fails(self, corpus, run_dir, tmp_path, capsys):
        first = self._retagged(run_dir, tmp_path / "a.csv", "cmp")
        second = self._retagged(run_dir, tmp_path / "b.csv", "cmp")
        clash = f"imported embedding {second} has tag 'cmp', as has imported embedding {first}"
        code, out, cfg = self._pipeline(corpus, tmp_path, first, second)
        assert code == 2
        assert (out / "FAILED").read_text() == f"stage=embed\nerror={clash}\n"
        assert not (out / "embedding_cmp.csv").exists()
        capsys.readouterr()
        staged = tmp_path / "staged"
        assert run(
            "validate", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--orbits", run_dir / "orbits.csv", "--embedding", first, "--embedding", second,
            "--config", cfg, "--out", staged,
        ) == 2
        assert clash in capsys.readouterr().err
        assert (staged / "FAILED").read_text() == f"stage=load\nerror={clash}\n"
        assert not (staged / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["pipeline", "embed"])
    def test_imports_are_digested_inputs(self, corpus, run_dir, tmp_path, command):
        from orbitroles.manifest import file_digest

        other = self._retagged(run_dir, tmp_path / "cmp.csv", "cmp")
        cfg = write_config(
            tmp_path / "imports.ini",
            BARBELL_CFG.replace("trees = 40", "trees = 4").replace(
                "rolx_rank = 3", f"rolx_rank = 3\nimport_paths = {other}"
            ),
        )
        digests = []
        for edit in ("", "\n"):
            other.write_text(other.read_text() + edit)
            out = tmp_path / f"out{len(digests)}"
            assert run(
                command, corpus / "edges.txt", "--labels", corpus / "nodes.csv",
                "--config", cfg, "--out", out,
            ) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["parameters"]["inputs"]["import0"] == str(other)
            assert manifest["input_digests"]["import0"] == file_digest(other)
            digests.append(manifest["input_digests"]["import0"])
        assert digests[0] != digests[1]

    def test_replay_from_another_directory(self, corpus, run_dir, tmp_path, monkeypatch):
        # the manifest records absolute input and import paths, so the
        # replay of a run given relative ones reads the same files
        (tmp_path / "corpus").mkdir()
        for name in ("edges.txt", "nodes.csv"):
            (tmp_path / "corpus" / name).write_bytes((corpus / name).read_bytes())
        self._retagged(run_dir, tmp_path / "cmp.csv", "cmp")
        write_config(
            tmp_path / "cfg.ini",
            BARBELL_CFG.replace("trees = 40", "trees = 8").replace(
                "rolx_rank = 3", "rolx_rank = 3\nimport_paths = cmp.csv"
            ),
        )
        monkeypatch.chdir(tmp_path)
        assert run(
            "pipeline", "corpus/edges.txt", "--labels", "corpus/nodes.csv",
            "--config", "cfg.ini", "--out", "first",
        ) == 0
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run("pipeline", "--from-manifest", "../first/manifest.json", "--out", "replay") == 0
        first = {p.name: p.read_bytes() for p in (tmp_path / "first").glob("*.csv")}
        assert "embedding_cmp.csv" in first and len(first) == 13
        replay = tmp_path / "elsewhere" / "replay"
        assert {p.name: p.read_bytes() for p in replay.glob("*.csv")} == first


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

    def staged_run(command, *argv):
        # every command writes one manifest layout and its stage timings
        assert run(command, *argv, "--out", staged) == 0
        manifest = json.loads((staged / "manifest.json").read_text())
        inputs = manifest["parameters"]["inputs"]
        assert set(manifest["input_digests"]) == set(inputs)
        assert all(os.path.isabs(path) for path in inputs.values())
        assert manifest["parameters"]["config"]["seed"] == 5
        assert set(manifest["metrics"]["stages"]) >= {"config", "load", command}

    staged_run("census", graph, *common)
    staged_run("embed", graph, *common)
    embeddings = [staged / f"embedding_{m}.csv" for m in ("graphwave", "rolx")]
    staged_run(
        "validate", graph, *common, "--orbits", staged / "orbits.csv",
        "--embedding", embeddings[0], "--embedding", embeddings[1],
    )
    for path in embeddings:
        staged_run("cluster", graph, *common, "--embedding", path, "--k", 3)
    roles = staged / "roles_graphwave.csv"
    staged_run(
        "explain", "--orbits", staged / "orbits.csv", "--roles", roles,
        "--config", cfg, "--seed", 5,
    )
    staged_run("idr", graph, *common, "--roles", roles)

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
            ("methods = graphwave,rolx", "methods = rolx,graphwave,rolx", "embed.methods ['rolx']"),
            ("effect_orbits = 0,17,28", "effect_orbits = 0,73", "effect_orbits [73]"),
            ("chosen_k = 3", "chosen_k = 6", "chosen_k 6 outside [2, 5]"),
            ("rolx_rank = 3", "rolx_rank = 3\nsample_points = 0", "embed.sample_points 0 < 2"),
            ("rolx_rank = 3", "rolx_rank = 3\nsample_points = 1", "embed.sample_points 1 < 2"),
            ("rolx_rank = 3", "rolx_rank = 3\nt_max = 0", "embed.t_max 0.0 is not positive"),
            ("rolx_rank = 3", "rolx_rank = 3\nt_max = -1", "embed.t_max -1.0 is not positive"),
            ("rolx_rank = 3", "rolx_rank = 3\nt_max = inf", "embed.t_max inf is not positive"),
            ("rolx_rank = 3", "rolx_rank = 3\nt_max = nan", "embed.t_max nan is not positive"),
            ("k_min = 2", "k_min = 1", "cluster.k_min 1 < 2"),
            ("chosen_k = 3", "chosen_k = 3\nsample_cap = 1", "cluster.sample_cap 1 < 2"),
            (
                "effect_orbits = 0,17,28",
                "effect_orbits = 0,17,28\nkeep_roles = 7,8",
                "explain.keep_roles [7, 8] outside [0, 3)",
            ),
            (
                "effect_orbits = 0,17,28",
                "effect_orbits = 0,17,28\nkeep_roles = 1",
                "explain.keep_roles [1] has < 2 distinct roles",
            ),
            (
                "effect_orbits = 0,17,28",
                "effect_orbits = 0,17,28\nkeep_roles = 2,2",
                "explain.keep_roles [2, 2] has < 2 distinct roles",
            ),
            ("trees = 40", "trees = 0", "explain.trees 0 < 1"),
            (
                "importance_repeats = 2",
                "importance_repeats = 0",
                "explain.importance_repeats 0 < 1",
            ),
            (
                "effect_orbits = 0,17,28",
                "effect_orbits = 0,17,28\neffect_kind = pdp",
                "explain.effect_kind 'pdp' not among ['ALE', 'PDP']",
            ),
            (
                "effect_orbits = 0,17,28",
                "effect_orbits = 0,17,28\nale_bins = 1",
                "explain.ale_bins 1 < 2",
            ),
            (
                "methods = graphwave,rolx",
                "methods = graphwave,struc2vec",
                "embed.methods ['struc2vec'] not among ['graphwave', 'rolx']",
            ),
            ("rolx_rank = 3", "rolx_rank = 1", "embed.rolx_rank 1 < 2"),
            (
                "rolx_rank = 3",
                "rolx_rank = 3\ngraphwave_scales = 5.0,0",
                "embed.graphwave_scales [5.0, 0.0] not all > 0",
            ),
            (
                "rolx_rank = 3",
                "rolx_rank = 3\ngraphwave_scales = -1",
                "embed.graphwave_scales [-1.0] not all > 0",
            ),
            (
                "direction = all",
                "direction = citng",
                "idr.direction 'citng' not among ['citing', 'cited', 'all']",
            ),
            (
                "direction = all",
                "direction = all\ndistance = cosine",
                "idr.distance 'cosine' not among ['uniform', 'cocitation_cosine']",
            ),
            (
                "direction = all",
                "direction = all\npair_counting = both",
                "idr.pair_counting 'both' not among ['ordered', 'unordered']",
            ),
            # a value that does not cast names its key
            (
                "seed = 42",
                "seed = 42\nthreads = two",
                "[pipeline] threads: invalid literal for int() with base 10: 'two'",
            ),
            (
                "k_min = 2",
                "k_min = 2.5",
                "[cluster] k_min: invalid literal for int() with base 10: '2.5'",
            ),
            (
                "seed = 42",
                "seed = 42\ndrop_orbit0 = treu",
                "[pipeline] drop_orbit0: 'treu' is not 1/true/yes/on or 0/false/no/off",
            ),
            ("bins = 4", "bins = 0", "idr.bins 0 < 1"),
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
        marker = (out / "FAILED").read_text()
        assert marker.startswith("stage=config\nerror=") and message in marker
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("command", ["pipeline", "census"])
    def test_threads_environment_not_an_integer_fails_config(
        self, corpus, tmp_path, capsys, monkeypatch, command
    ):
        # as ``threads = two`` in a config file does
        monkeypatch.setenv("ORBITROLES_THREADS", "many")
        out = tmp_path / "out"
        code = run(command, corpus / "edges.txt", "--labels", corpus / "nodes.csv", "--out", out)
        assert code == 2
        message = "ORBITROLES_THREADS: invalid literal for int() with base 10: 'many'"
        assert message in capsys.readouterr().err
        assert (out / "FAILED").read_text() == f"stage=config\nerror={message}\n"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "methods, message",
        [
            ("rolx,rolx", "embed.methods ['rolx'] repeated"),
            ("foo", "embed.methods ['foo'] not among ['graphwave', 'rolx']"),
        ],
    )
    def test_staged_embed_checks_methods(self, corpus, tmp_path, capsys, methods, message):
        # as the pipeline does: a repeated method would list its CSV twice
        cfg = write_config(tmp_path / "cfg.ini", f"[embed]\nmethods = {methods}\n")
        out = tmp_path / "out"
        code = run(
            "embed", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--out", out,
        )
        assert code == 2
        assert message in capsys.readouterr().err
        marker = (out / "FAILED").read_text()
        assert marker.startswith("stage=config\nerror=invalid config: ") and message in marker
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "setting, message",
        [("sample_cap = 1", "cluster.sample_cap 1 < 2"), ("k_min = 1", "cluster.k_min 1 < 2")],
    )
    def test_staged_validate_checks_sweep_values(
        self, corpus, run_dir, tmp_path, capsys, setting, message
    ):
        # chosen_k, which validate does not read, is not checked
        cfg = write_config(tmp_path / "cfg.ini", f"[cluster]\nchosen_k = 99\n{setting}\n")
        out = tmp_path / "out"
        code = run(
            "validate", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--orbits", run_dir / "orbits.csv", "--embedding", run_dir / "embedding_rolx.csv",
            "--config", cfg, "--out", out,
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert (out / "FAILED").read_text() == f"stage=config\nerror=invalid config: {message}\n"
        assert not list(out.glob("*.csv"))
        # chosen_k alone leaves validate to run
        cfg.write_text("[cluster]\nk_max = 3\nchosen_k = 99\n", encoding="utf-8")
        assert run(
            "validate", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--orbits", run_dir / "orbits.csv", "--embedding", run_dir / "embedding_rolx.csv",
            "--config", cfg, "--out", out,
        ) == 0

    @pytest.mark.parametrize(
        "command, flags, ini, message",
        [
            ("validate", ["--k-min", 5, "--k-max", 3], "", "cluster.k_max 3 < cluster.k_min 5"),
            ("cluster", ["--k", 1], "", "cluster.chosen_k 1 < 2"),
            ("idr", [], "[idr]\nbins = 0\n", "idr.bins 0 < 1"),
            (
                "idr",
                [],
                "[idr]\ndirection = sideways\n",
                "idr.direction 'sideways' not among ['citing', 'cited', 'all']",
            ),
            ("explain", ["--trees", 0], "", "explain.trees 0 < 1"),
            ("embed", [], "[embed]\nrolx_rank = 1\n", "embed.rolx_rank 1 < 2"),
            # a field that census does not read: the file is valid or not as a whole
            ("census", [], "[explain]\nale_bins = 1\n", "explain.ale_bins 1 < 2"),
        ],
    )
    def test_every_command_checks_its_settings_in_config(
        self, corpus, run_dir, tmp_path, capsys, command, flags, ini, message
    ):
        inputs = {
            "census": [corpus / "edges.txt"],
            "embed": [corpus / "edges.txt"],
            "validate": [
                corpus / "edges.txt", "--orbits", run_dir / "orbits.csv",
                "--embedding", run_dir / "embedding_rolx.csv",
            ],
            "cluster": [
                corpus / "edges.txt", "--embedding", run_dir / "embedding_rolx.csv"
            ],
            "explain": [
                "--orbits", run_dir / "orbits.csv", "--roles", run_dir / "roles_graphwave.csv"
            ],
            "idr": [corpus / "edges.txt", "--roles", run_dir / "roles_graphwave.csv"],
        }[command]
        labels = [] if command == "explain" else ["--labels", corpus / "nodes.csv"]
        cfg = write_config(tmp_path / "cfg.ini", ini)
        out = tmp_path / "out"
        code = run(command, *inputs, *labels, *flags, "--config", cfg, "--out", out)
        assert code == 2
        assert f"invalid config: {message}" in capsys.readouterr().err
        assert (out / "FAILED").read_text() == f"stage=config\nerror=invalid config: {message}\n"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--orbits", "o.csv", "--roles", "r.csv", "--kind", "pdp"],
            ["idr", "g.txt", "--roles", "r.csv", "--direction", "citng"],
            ["idr", "g.txt", "--roles", "r.csv", "--distance", "cosine"],
            ["idr", "g.txt", "--roles", "r.csv", "--pair-counting", "both"],
            ["embed", "g.txt", "--method", "struc2vec"],
        ],
    )
    def test_bad_choice_flag_rejected_by_parser(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", tmp_path / "out")
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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


def test_pipeline_counts_orbits_once(corpus, tmp_path, monkeypatch):
    # RolX reads its base features off the census the pipeline already holds
    import orbitroles.cli

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].node_count)
        return original(*args, **kwargs)

    original = orbitroles.cli.count_orbits
    monkeypatch.setattr(orbitroles.cli, "count_orbits", counting)
    cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG.replace("trees = 40", "trees = 4"))
    assert run(
        "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
        "--config", cfg, "--threads", 1, "--out", tmp_path / "out",
    ) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["pipeline", "embed"])
def test_manifest_metrics_hold_rolx_counters(corpus, tmp_path, command):
    # the counters are those of a direct rolx_embed call on the same census
    from orbitroles.embeddings import rolx_embed
    from orbitroles.orbits import count_orbits
    from orbitroles.seeds import derive_seed

    cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG.replace("trees = 40", "trees = 4"))
    out = tmp_path / "out"
    assert run(
        command, corpus / "edges.txt", "--labels", corpus / "nodes.csv",
        "--config", cfg, "--out", out,
    ) == 0
    graph, _ = load_edge_list(corpus / "edges.txt")
    meta = rolx_embed(
        graph, count_orbits(graph), rank=3, refex_depth=2, seed=derive_seed(42, "rolx")
    ).meta
    metrics = json.loads((out / "manifest.json").read_text())["metrics"]
    assert metrics["rolx"] == {
        "nmf_iterations": len(meta["nmf_errors"]) - 1,
        "nmf_converged": meta["converged"],
        "refex_features": meta["factors"][1].shape[1],
        "refex_generation": meta["refex_generation"],
        "distinct_rows": meta["distinct_rows"],
    }
    # the barbell corpus repeats ReFeX rows: the NMF iterates over fewer
    assert metrics["rolx"]["distinct_rows"] < graph.node_count
    assert command == "pipeline" or not (out / "orbits.csv").exists()


@pytest.mark.parametrize("command", ["pipeline", "census"])
def test_manifest_metrics_hold_census_counters(corpus, tmp_path, command):
    from orbitroles.orbits import estimate_census_memory_mb
    from orbitroles.workers import resolve_threads

    cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG.replace("trees = 40", "trees = 4"))
    out = tmp_path / "out"
    assert run(
        command, corpus / "edges.txt", "--labels", corpus / "nodes.csv",
        "--config", cfg, "--out", out,
    ) == 0
    metrics = json.loads((out / "manifest.json").read_text())["metrics"]
    # every command records the worker count, one that forks none too
    assert metrics["workers"] == resolve_threads()
    census = metrics["census"]
    assert set(census) == {
        "estimate_mb", "components", "distinct_components", "blocks",
        "largest_block_cells", "largest_rows_cells", "minor_faults", "system_s",
    }
    graph, _ = load_edge_list(corpus / "edges.txt")
    assert census["estimate_mb"] == estimate_census_memory_mb(graph)
    # 12 copies of one 11-node barbell: one is counted, in one block of roots
    assert (census["components"], census["distinct_components"]) == (12, 1)
    assert census["blocks"] == 1
    assert 0 < census["largest_block_cells"] <= 1 << 19
    assert 0 < census["largest_rows_cells"] <= 11 * 12
    assert isinstance(census["minor_faults"], int) and census["minor_faults"] >= 0
    assert isinstance(census["system_s"], float) and census["system_s"] >= 0.0


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", ["pipeline", "embed"])
def test_manifest_metrics_hold_graphwave_and_sampled(corpus, tmp_path, command, threads):
    # the GraphWave counts travel back from a forked lane as from an inline
    # one; the corpus is 12 copies of one barbell, 132 nodes, so the sweep
    # samples with two workers (cap 100) and not with one
    from orbitroles.embeddings import estimate_graphwave_memory_mb, graphwave_embed

    cap = 100 if threads == 2 else 20000
    cfg = write_config(
        tmp_path / "cfg.ini",
        BARBELL_CFG.replace("trees = 40", "trees = 4")
        .replace("[pipeline]\n", f"[pipeline]\nthreads = {threads}\n")
        .replace("[cluster]\n", f"[cluster]\nsample_cap = {cap}\n"),
    )
    out = tmp_path / "out"
    assert run(
        command, corpus / "edges.txt", "--labels", corpus / "nodes.csv",
        "--config", cfg, "--out", out,
    ) == 0
    metrics = json.loads((out / "manifest.json").read_text())["metrics"]
    assert metrics["workers"] == threads
    graph, _ = load_edge_list(corpus / "edges.txt")
    meta = graphwave_embed(graph).meta
    counts = {k: meta[k] for k in ("components", "distinct_components")}
    assert counts == {"components": 12, "distinct_components": 1}
    assert metrics["graphwave"] == {
        "estimate_mb": estimate_graphwave_memory_mb(graph), "forked": threads == 2, **counts
    }
    if command == "pipeline":
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(metrics["kmeans"]) == 8
        assert {row["sampled"] for row in rows} == {"true" if threads == 2 else "false"}
        # every cell is scored over the distinct log-orbit rows of the same
        # nodes: all 132, or the one sample of 100 drawn from the shared seed
        from orbitroles.orbits import log_transform, orbits_from_csv
        from orbitroles.seeds import derive_seed

        features = log_transform(orbits_from_csv(out / "orbits.csv")[0]).values
        n = features.shape[0]
        if threads == 2:
            rng = np.random.default_rng(derive_seed(42, "silhouette"))
            features = features[rng.choice(n, size=cap, replace=False)]
        distinct = np.unique(features, axis=0).shape[0]
        assert 1 < distinct < features.shape[0]
        assert metrics["silhouette"] == {
            "rows": features.shape[0], "distinct_rows": distinct, "sampled": threads == 2,
        }
    assert_no_children()


GRAPHWAVE_ADVICE = (
    "[embed] methods = rolx with [explain] method = rolx skips GraphWave, "
    "and a larger [pipeline] memory_budget_mb runs it"
)


class TestGraphWaveBudget:
    """GraphWave's estimated working set is checked against
    ``memory_budget_mb`` in stage embed, before the lane forks and so
    before the census runs beside it."""

    def _config(self, tmp_path, methods):
        return write_config(
            tmp_path / "cfg.ini",
            BARBELL_CFG.replace("[pipeline]\n", "[pipeline]\nmemory_budget_mb = 0.1\nthreads = 2\n")
            .replace("methods = graphwave,rolx", f"methods = {methods}"),
        )

    def test_pipeline_fails_in_embed_before_the_census(self, corpus, tmp_path):
        out = tmp_path / "out"
        code = run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", self._config(tmp_path, "graphwave,rolx"), "--out", out,
        )
        assert code == 2
        marker = (out / "FAILED").read_text()
        assert marker.startswith("stage=embed\nerror=estimated GraphWave working set ")
        assert marker.endswith(f"exceeds the 0.1 MB budget; {GRAPHWAVE_ADVICE}\n")
        assert not list(out.glob("*.csv"))
        assert_no_children()

    def test_advice_followed_literally_completes(self, corpus, tmp_path, capsys):
        import configparser
        import re

        # a budget between the census's estimate (0.19 MB) and GraphWave's
        # (0.29 MB), so that skipping GraphWave lets the run complete
        cfg = write_config(
            tmp_path / "cfg.ini",
            BARBELL_CFG.replace("[pipeline]\n", "[pipeline]\nmemory_budget_mb = 0.25\n"),
        )
        args = ["--labels", corpus / "nodes.csv", "--config", cfg, "--out", tmp_path / "out"]
        assert run("pipeline", corpus / "edges.txt", *args) == 2
        advice = capsys.readouterr().err.split("budget; ")[1].split(" skips GraphWave")[0]
        settings = re.findall(r"\[(\w+)\] (\w+) = (\w+)", advice)
        assert settings == [("embed", "methods", "rolx"), ("explain", "method", "rolx")]
        parser = configparser.ConfigParser()
        parser.read(cfg)
        for section, key, value in settings:
            parser[section][key] = value
        with open(cfg, "w") as fh:
            parser.write(fh)
        assert run("pipeline", corpus / "edges.txt", *args) == 0
        assert not (tmp_path / "out" / "FAILED").exists()
        assert_no_children()

    @pytest.fixture(scope="class")
    def side_by_side(self, tmp_path_factory):
        """The pipeline on a BA graph of n=2,000 under a 170-MB budget: a
        function of the thread count that returns the exit code and the
        output directory, running the pipeline once per count."""
        from util import ba_graph

        root = tmp_path_factory.mktemp("side_by_side")
        graph_file = root / "ba.txt"
        graph_file.write_text(
            "".join(f"n{u} n{v}\n" for u, v in ba_graph(2000, 4, 7).edges())
        )
        runs = {}

        def pipeline(threads):
            if threads not in runs:
                cfg = write_config(
                    root / f"cfg{threads}.ini",
                    BA_CFG.replace(
                        "[pipeline]\n",
                        f"[pipeline]\nmemory_budget_mb = 170\nthreads = {threads}\n",
                    )
                    .replace("k_max = 6\nchosen_k = 4", "k_max = 3\nchosen_k = 3")
                    .replace("trees = 10", "trees = 2")
                    .replace("effect_orbits = 0,27", "effect_orbits = 0"),
                )
                out = root / f"out{threads}"
                runs[threads] = run("pipeline", graph_file, "--config", cfg, "--out", out), out
            return runs[threads]

        return pipeline

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lanes_side_by_side_checked_together(self, side_by_side, threads):
        # GraphWave's estimate (168.2 MB) and the census's (26.1 MB) each fit
        # the budget, but not side by side: two workers run them one after
        # the other, as one does, and write the same CSVs
        code, out = side_by_side(threads)
        assert code == 0 and not (out / "FAILED").exists()
        metrics = json.loads((out / "manifest.json").read_text())["metrics"]
        wave, census = metrics["graphwave"]["estimate_mb"], metrics["census"]["estimate_mb"]
        assert wave < 170 and census < 170 < wave + census
        assert metrics["workers"] == threads and metrics["graphwave"]["forked"] is False
        _, serial = side_by_side(1)
        names = sorted(p.name for p in serial.glob("*.csv"))
        assert names and sorted(p.name for p in out.glob("*.csv")) == names
        for name in names:
            assert (out / name).read_bytes() == (serial / name).read_bytes(), name
        assert_no_children()

    def test_staged_embed_fails_without_outputs(self, corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            "embed", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", self._config(tmp_path, "graphwave"), "--out", out,
        )
        assert code == 2
        assert f"0.1 MB budget; {GRAPHWAVE_ADVICE}" in capsys.readouterr().err
        assert (out / "FAILED").read_text().startswith("stage=embed\nerror=estimated GraphWave")
        assert not list(out.glob("*.csv"))
        assert_no_children()


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
            # every cell stops well before max_iter (300)
            assert cells[f"{method}:{k}"] == {
                "iterations": len(want.meta["wcss_trajectory"]),
                "stopped_at_max_iter": False,
                "degenerate": want.degenerate,
                "distinct_rows": len({row.tobytes() for row in emb.vectors}),
            }


def test_manifest_metrics_mark_kmeans_cells_at_max_iter(corpus, run_dir, tmp_path, monkeypatch):
    # with k-means held to one iteration, each cell reads as the direct
    # call with max_iter=1 says it stopped
    from functools import partial

    import orbitroles.clustering
    from orbitroles.clustering import assignment_seed
    from orbitroles.embeddings import import_embedding
    from orbitroles.graph import load_node_table

    one = partial(orbitroles.clustering.kmeans, max_iter=1)
    monkeypatch.setattr(orbitroles.clustering, "kmeans", one)
    out = tmp_path / "out"
    assert run(
        "validate", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
        "--orbits", run_dir / "orbits.csv",
        "--embedding", run_dir / "embedding_graphwave.csv",
        "--embedding", run_dir / "embedding_rolx.csv",
        "--config", run_dir.parent / "cfg.ini", "--out", out,
    ) == 0
    cells = json.loads((out / "manifest.json").read_text())["metrics"]["kmeans"]
    table = load_node_table(corpus / "nodes.csv")
    for method in ("graphwave", "rolx"):
        emb = import_embedding(run_dir / f"embedding_{method}.csv", table)
        for k in range(2, 6):
            want = one(emb, k, seed=assignment_seed(42, method, k)).meta
            assert cells[f"{method}:{k}"]["iterations"] == 1
            assert cells[f"{method}:{k}"]["stopped_at_max_iter"] == want["stopped_at_max_iter"]
    assert any(cell["stopped_at_max_iter"] for cell in cells.values())


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
    KEYS = {
        "holdout_accuracy",
        "tree_nodes",
        "fit_rounds",
        "features_used",
        "importance_cells",
        "skipped_curves",
    }

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
        # the pipeline with the reference split search, its trees grown one
        # at a time, and the whole-forest importance patched in writes the
        # same bytes and counts as many rounds as its longest tree searches
        from surrogate_reference import CountingRng, grow_tree, pack_trees
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

        def reference_grow(X, ranks, y_idx, n_classes, boots, rngs, min_leaf):
            counting = [CountingRng(rng) for rng in rngs]
            trees = [
                grow_tree(X, y_idx, n_classes, rows, min_leaf, rng)
                for rows, rng in zip(boots, counting)
            ]
            return pack_trees(trees), max(rng.searches for rng in counting)

        monkeypatch.setattr(surrogate, "_grow_forest", reference_grow)
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
            assert 0 < metrics["fast"][key]["fit_rounds"] < metrics["fast"][key]["tree_nodes"]
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
            "embed/graphwave", "embed/graphwave-write", "validate/kmeans-0", "validate/kmeans-1",
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

    def test_lane_write_that_stalls_is_waited_for(self, corpus, run_dir, tmp_path, monkeypatch):
        # the join after idr waits for a lane write that stalls; nothing
        # cuts it short
        import orbitroles.cli

        parent, write = os.getpid(), orbitroles.cli.embedding_to_csv

        def stalling_write(emb, table, path):
            if os.getpid() != parent:
                path.write_text("partial")
                time.sleep(1.0)
            write(emb, table, path)

        monkeypatch.setattr(orbitroles.cli, "embedding_to_csv", stalling_write)
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        out = tmp_path / "out"
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--threads", 2, "--out", out,
        ) == 0
        stages = json.loads((out / "manifest.json").read_text())["metrics"]["stages"]
        assert stages["embed/graphwave-write"] >= 0.9
        for path in run_dir.glob("*.csv"):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        assert_no_children()

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("where, patched", [("validate", "sweep"), ("explain", "train_surrogate")])
    def test_failure_while_lane_writes_leaves_no_csv(
        self, corpus, run_dir, tmp_path, monkeypatch, threads, where, patched
    ):
        # a forked lane is killed mid-write and its partial CSV removed; an
        # inline one has not written yet
        import orbitroles.cli

        parent, write, mark = os.getpid(), orbitroles.cli.embedding_to_csv, tmp_path / "stalled"

        def stalling_write(emb, table, path):
            if os.getpid() != parent:
                path.write_text("partial")
                mark.touch()
                time.sleep(60)
            write(emb, table, path)

        def failing(*args, **kwargs):
            deadline = time.monotonic() + 30
            while threads > 1 and not mark.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ValueError(f"{where} failed")

        monkeypatch.setattr(orbitroles.cli, "embedding_to_csv", stalling_write)
        monkeypatch.setattr(orbitroles.cli, patched, failing)
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        out = tmp_path / "out"
        start = time.monotonic()
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--threads", threads, "--out", out,
        ) == 2
        assert time.monotonic() - start < 30
        assert mark.exists() == (threads > 1)
        assert (out / "FAILED").read_text() == f"stage={where}\nerror={where} failed\n"
        left = {p.name for p in out.iterdir()} - {"FAILED"}
        assert "embedding_graphwave.csv" not in left
        assert left <= {p.name for p in run_dir.glob("*.csv")}, left
        assert_no_children()

    def test_explain_error_kills_running_writer(self, corpus, tmp_path, monkeypatch):
        # GraphWave's lane writes its CSV beside explain; explain failing
        # while the lane writes kills and reaps it
        import orbitroles.cli

        parent, write = os.getpid(), orbitroles.cli.embedding_to_csv

        def slow_write(emb, table, path):
            if os.getpid() != parent:
                time.sleep(60)
            write(emb, table, path)

        def failing(*args, **kwargs):
            raise ValueError("explain failed")

        monkeypatch.setattr(orbitroles.cli, "embedding_to_csv", slow_write)
        monkeypatch.setattr(orbitroles.cli, "train_surrogate", failing)
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        out = tmp_path / "out"
        start = time.monotonic()
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--threads", 2, "--out", out,
        ) == 2
        assert time.monotonic() - start < 30
        assert (out / "FAILED").read_text() == "stage=explain\nerror=explain failed\n"
        assert not (out / "embedding_graphwave.csv").exists()
        assert_no_children()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_writer_error_marks_embed(self, corpus, run_dir, tmp_path, monkeypatch, threads):
        # the write joined after idr fails the run in stage embed, and an
        # earlier run's manifest does not stay beside the marker
        import orbitroles.cli

        write = orbitroles.cli.embedding_to_csv

        def failing_write(emb, table, path):
            if emb.method_tag == "graphwave":
                raise OSError("no space left for GraphWave")
            write(emb, table, path)

        monkeypatch.setattr(orbitroles.cli, "embedding_to_csv", failing_write)
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_bytes((run_dir / "manifest.json").read_bytes())
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--threads", threads, "--out", out,
        ) == 2
        assert (out / "FAILED").read_text() == "stage=embed\nerror=no space left for GraphWave\n"
        assert not (out / "manifest.json").exists()
        # the stages before the join ran to the end
        assert (out / "idr_values.csv").exists() and (out / "importance.csv").exists()
        assert not (out / "embedding_graphwave.csv").exists()
        assert_no_children()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_writer_niceness(self, corpus, run_dir, tmp_path, monkeypatch, threads):
        # a forked writer runs at the lowest priority and the parent keeps
        # its own; an inline writer is the parent and is not reniced
        import orbitroles.cli

        parent, niceness = os.getpid(), os.nice(0)
        write, mark = orbitroles.cli.embedding_to_csv, tmp_path / "writer"

        def recording_write(emb, table, path):
            if emb.method_tag == "graphwave":
                mark.write_text(f"{os.getpid() == parent} {os.nice(0)}")
            write(emb, table, path)

        monkeypatch.setattr(orbitroles.cli, "embedding_to_csv", recording_write)
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        out = tmp_path / "out"
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--threads", threads, "--out", out,
        ) == 0
        assert mark.read_text() == (f"True {niceness}" if threads == 1 else "False 19")
        assert os.nice(0) == niceness
        for path in run_dir.glob("*.csv"):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
        assert_no_children()

    def test_no_process_starts_a_thread(self, corpus, run_dir, tmp_path, monkeypatch):
        # the patch holds in the forked workers too, and a worker that
        # raised would fail the run
        import threading

        def refuse(thread):
            raise RuntimeError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = write_config(tmp_path / "cfg.ini", BARBELL_CFG)
        out = tmp_path / "out"
        assert run(
            "pipeline", corpus / "edges.txt", "--labels", corpus / "nodes.csv",
            "--config", cfg, "--threads", 2, "--out", out,
        ) == 0
        for path in run_dir.glob("*.csv"):
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name
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
