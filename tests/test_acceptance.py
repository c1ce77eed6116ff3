"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Expected values marked as derived are computed by
independent in-test oracles (enumeration, hand formulas), never copied
from the implementation under test.
"""

import time

import numpy as np
import pytest

from orbitroles.cli import main as cli_main
from orbitroles.clustering import RoleAssignment, kmeans, silhouette_in_orbit_space
from orbitroles.diversity import (
    binned_idr_report,
    build_diversity_report,
    discipline_distance,
)
from orbitroles.embeddings import graphwave_embed, rolx_embed
from orbitroles.graph import Graph, NodeTable
from orbitroles.graphlets import count_orbits_bruteforce
from orbitroles.orbits import LogOrbitMatrix, count_orbits, log_transform
from orbitroles.planted import barbell_template, generate_planted_graph
from orbitroles.surrogate import (
    effect_curve,
    orbit3_threshold,
    permutation_importance,
    train_surrogate,
)

from util import (
    bin_medians,
    complete_graph,
    cycle_graph,
    er_graph,
    nmi,
    path_graph,
    star_graph,
    step_location,
    triangle_count,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def ten_node_barbell():
    """Two 5-cliques joined by a single edge between nodes 4 and 5."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(5 + i, 5 + j) for i in range(5) for j in range(i + 1, 5)]
    edges.append((4, 5))
    return Graph.from_edges(10, edges)


@pytest.fixture(scope="module")
def oracle_graph_suite():
    graphs = []
    for i in range(10):
        graphs.append((f"er200-0.02-{i}", er_graph(200, 0.02, 100 + i)))
    for i in range(10):
        graphs.append((f"er120-0.05-{i}", er_graph(120, 0.05, 200 + i)))
    for i in range(10):
        graphs.append((f"er80-0.10-{i}", er_graph(80, 0.10, 300 + i)))
    graphs += [
        ("k5", complete_graph(5)),
        ("c4", cycle_graph(4)),
        ("p4", path_graph(4)),
        ("star3", star_graph(3)),
        ("star7", star_graph(7)),
        ("barbell10", ten_node_barbell()),
        ("barbell-corpus", generate_planted_graph([barbell_template(5, 3)], 4, seed=0).graph),
    ]
    return graphs


def test_c01_orbit_oracle_equivalence(oracle_graph_suite):
    start = time.perf_counter()
    mismatches = []
    for name, g in oracle_graph_suite:
        fast = count_orbits(g).counts
        slow = count_orbits_bruteforce(g).counts
        if not np.array_equal(fast, slow):
            mismatches.append(name)
    elapsed = time.perf_counter() - start
    report(
        "1 orbit-oracle-equivalence",
        not mismatches and elapsed < 60.0,
        f"({len(oracle_graph_suite)} graphs, {elapsed:.1f}s, mismatches={mismatches})",
    )


def test_c02_orbit_identities(oracle_graph_suite):
    bad = []
    for name, g in oracle_graph_suite:
        counts = count_orbits(g).counts
        if counts[:, 0].sum() != 2 * g.edge_count:
            bad.append((name, "degree"))
        if counts[:, 3].sum() != 3 * triangle_count(g):
            bad.append((name, "triangle"))
        if counts[:, 1].sum() != 2 * counts[:, 2].sum():
            bad.append((name, "path"))
    report("2 orbit-identities", not bad, f"(violations={bad})")


def test_c03_graphwave_automorphism_invariance():
    worst = 0.0

    def spread(graph, classes):
        nonlocal worst
        emb = graphwave_embed(graph).vectors
        for cls in classes:
            rows = emb[list(cls)]
            worst = max(worst, float(np.abs(rows - rows[0]).max()))

    spread(star_graph(3), [[0, 1, 2]])
    spread(ten_node_barbell(), [[0, 1, 2, 3, 6, 7, 8, 9], [4, 5]])
    two_k5 = Graph.from_edges(
        10,
        [(i, j) for i in range(5) for j in range(i + 1, 5)]
        + [(5 + i, 5 + j) for i in range(5) for j in range(i + 1, 5)],
    )
    spread(two_k5, [list(range(10))])
    report("3 graphwave-automorphism-invariance", worst < 1e-9, f"(max spread {worst:.2e})")


def test_c04_role_recovery():
    start = time.perf_counter()
    planted = generate_planted_graph([barbell_template(5, 3)], copies=20, noise_edges=0, seed=7)
    gw = graphwave_embed(planted.graph)
    gw_nmi = nmi(kmeans(gw, 3, seed=1).labels, planted.true_role)
    rx = rolx_embed(planted.graph, count_orbits(planted.graph), rank=3, seed=3)
    rx_nmi = nmi(kmeans(rx, 3, seed=1).labels, planted.true_role)
    elapsed = time.perf_counter() - start
    report(
        "4 role-recovery",
        gw_nmi >= 0.9 and rx_nmi >= 0.7 and elapsed < 120.0,
        f"(graphwave NMI {gw_nmi:.3f}, rolx NMI {rx_nmi:.3f}, {elapsed:.1f}s)",
    )


def test_c05_silhouette_sanity():
    # hand oracle over the 4-point example
    pts = np.array([(0.0, 0.0), (0.0, 1.0), (10.0, 10.0), (10.0, 11.0)])
    labels = np.array([0, 0, 1, 1])
    scores = []
    for i in range(4):
        own = [j for j in range(4) if labels[j] == labels[i] and j != i]
        a = np.mean([np.linalg.norm(pts[i] - pts[j]) for j in own])
        b = np.mean([np.linalg.norm(pts[i] - pts[j]) for j in range(4) if labels[j] != labels[i]])
        scores.append((b - a) / max(a, b))
    hand = float(np.mean(scores))

    values = np.zeros((4, 73))
    values[:, :2] = pts
    got = silhouette_in_orbit_space(
        [RoleAssignment(labels=labels, k=2, method_tag="t", seed=0)],
        LogOrbitMatrix(values=values),
    )[0][0]
    exact_ok = abs(got - hand) < 1e-6 and abs(hand - 0.93) < 0.01

    drifts = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        noise = np.zeros((300, 73))
        noise[:, :5] = rng.normal(size=(300, 5))
        random_labels = rng.integers(0, 3, size=300)
        score = silhouette_in_orbit_space(
            [RoleAssignment(labels=random_labels, k=3, method_tag="t", seed=0)],
            LogOrbitMatrix(values=noise),
        )[0][0]
        drifts.append(abs(score))
    random_ok = max(drifts) < 0.1
    report(
        "5 silhouette-sanity",
        exact_ok and random_ok,
        f"(4-point {got:.7f} vs hand {hand:.7f}; max |random| {max(drifts):.3f})",
    )


def _signal_features(n, seed):
    rng = np.random.default_rng(seed)
    values = np.log1p(rng.poisson(3.0, size=(n, 73)).astype(float))
    values[:, 0] = np.log1p(rng.integers(1, 60, size=n).astype(float))
    return LogOrbitMatrix(values=values)


def test_c06_surrogate_fidelity():
    features = _signal_features(600, 1)
    labels = (features.values[:, 0] > np.median(features.values[:, 0])).astype(int)
    model = train_surrogate(features, labels, trees=80, seed=2)
    importance = permutation_importance(model, features, labels, repeats=5, seed=3)
    separable_ok = model.holdout_accuracy >= 0.99 and importance.rows[0][0] == 0

    noise = _signal_features(1500, 4)
    random_labels = np.random.default_rng(5).integers(0, 4, size=1500)
    chance_model = train_surrogate(noise, random_labels, trees=40, seed=6)
    chance_ok = abs(chance_model.holdout_accuracy - 0.25) <= 0.05
    report(
        "6 surrogate-fidelity",
        separable_ok and chance_ok,
        f"(separable acc {model.holdout_accuracy:.3f}, top orbit "
        f"{importance.rows[0][0]}; random acc {chance_model.holdout_accuracy:.3f})",
    )


def test_c07_ale_correctness():
    rng = np.random.default_rng(7)
    n, cut, feature = 800, 1.2, 5
    values = np.log1p(rng.poisson(2.0, size=(n, 73)).astype(float))
    values[:, feature] = rng.uniform(0, 3, size=n)
    values[:, 20] = 0.7  # constant during training -> never split on
    labels = (values[:, feature] > cut).astype(int)
    features = LogOrbitMatrix(values=values)
    model = train_surrogate(features, labels, trees=40, seed=8)

    curve = effect_curve(model, features, orbit=feature, bins=16)[1]  # class 1
    step_ok = abs(step_location(curve) - cut) <= np.diff(curve.grid).max()
    centering = abs(float((curve.bin_population * curve.values).sum()))
    centering_ok = centering <= 1e-9

    eval_values = values.copy()
    eval_values[:, 20] = rng.uniform(0, 2, size=n)
    unused_curve = effect_curve(model, LogOrbitMatrix(values=eval_values), 20)[1]
    unused_ok = 20 not in model.features_used() and np.abs(unused_curve.values).max() <= 1e-12
    report(
        "7 ale-correctness",
        step_ok and centering_ok and unused_ok,
        f"(step at {step_location(curve):.3f} vs cut {cut}, centering {centering:.1e}, "
        f"unused max {np.abs(unused_curve.values).max():.1e})",
    )


def test_c08_rao_stirling_exactness():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 7))
        counts = rng.integers(1, 7, size=k)
        cats = []
        for i, c in enumerate(counts):
            cats.extend([f"D{i}"] * int(c))
        graph = star_graph(len(cats))
        table = NodeTable(
            external_ids=[f"v{i}" for i in range(len(cats) + 1)],
            categories=cats + [None],
        )
        dmat = discipline_distance(table, graph)
        roles = np.zeros(len(cats) + 1, dtype=int)
        score = build_diversity_report(graph, table, dmat, roles, direction="all").idr[len(cats)]
        p = counts / counts.sum()
        worst = max(worst, abs(score - (1.0 - float((p * p).sum()))))

    graph = star_graph(4)
    table = NodeTable(
        external_ids=[f"v{i}" for i in range(5)],
        categories=["A", "A", "B", "C", None],
    )
    dmat = discipline_distance(table, graph)
    quarter = build_diversity_report(graph, table, dmat, np.zeros(5, dtype=int), direction="all").idr[4]
    report(
        "8 rao-stirling-exactness",
        worst < 1e-12 and quarter == 0.625,
        f"(simpson deviation {worst:.1e}, (0.5,0.25,0.25) -> {quarter})",
    )


def test_c09_ale_threshold_analogue():
    # confirm via the oracle which orbit index is the free end of the
    # chain hanging off a clique (tadpole tail tip)
    tadpole = Graph.from_edges(5, [(0, 1), (1, 4), (2, 3), (2, 4), (3, 4)])
    oracle_counts = count_orbits_bruteforce(tadpole).counts
    tail_tip = [v for v in range(5) if tadpole.degrees()[v] == 1][0]
    five_node_orbits = np.flatnonzero(oracle_counts[tail_tip][15:]) + 15
    chain_orbit = int(five_node_orbits[0])
    index_ok = chain_orbit == 27

    # a corpus whose bridge-centers sit two steps from each clique: their
    # tail-tip count doubles the largest single-community triangle count
    planted = generate_planted_graph([barbell_template(5, 5)], copies=20, noise_edges=0, seed=7)
    orbits = count_orbits(planted.graph)
    features = log_transform(orbits)
    emb = graphwave_embed(planted.graph)
    assignment = kmeans(emb, 4, seed=2)
    centers = np.flatnonzero(planted.true_role == planted.role_names.index("bridge-center"))
    cluster_ids, counts = np.unique(assignment.labels[centers], return_counts=True)
    bridge_cluster = int(cluster_ids[counts.argmax()])
    purity = counts.max() / centers.size

    model = train_surrogate(features, assignment, trees=100, seed=3)
    threshold = orbit3_threshold(orbits)
    curves = effect_curve(model, features, orbit=chain_orbit, bins=32)
    (curve,) = [c for c in curves if c.class_id == bridge_cluster]
    below = curve.values[curve.grid <= threshold]
    above = curve.values[curve.grid > threshold]
    crossing_ok = below.size > 0 and above.size > 0 and (below <= 0).all() and (above > 0).all()
    report(
        "9 ale-threshold-analogue",
        index_ok and purity == 1.0 and crossing_ok,
        f"(chain orbit {chain_orbit}, cluster purity {purity:.2f}, "
        f"threshold {threshold:.3f}, grid {np.round(curve.grid, 3).tolist()}, "
        f"values {np.round(curve.values, 4).tolist()})",
    )


def test_c10_idr_bridge_analogue():
    copies = 40
    planted = generate_planted_graph(
        [barbell_template(5, 3)], copies=copies, noise_edges=400, seed=5
    )
    cats = []
    for copy in range(copies):
        left = f"D{(2 * copy) % 4}"
        right = f"D{(2 * copy + 1) % 4}"
        for pos in range(11):
            cats.append(right if 5 <= pos < 10 else left)
    table = NodeTable(
        external_ids=[f"v{i}" for i in range(planted.graph.node_count)],
        categories=cats,
    )
    dmat = discipline_distance(table, planted.graph)
    diversity = build_diversity_report(
        planted.graph, table, dmat, planted.true_role, direction="all"
    )
    binned = binned_idr_report(diversity, planted.true_role, bins=3, min_per_role=5)
    bridge = planted.role_names.index("bridge-center")
    member = planted.role_names.index("clique-member")
    strict = all(
        bin_medians(binned, b)[bridge] > bin_medians(binned, b)[member]
        for b in binned.included_bins
    )
    report(
        "10 idr-bridge-analogue",
        bool(binned.included_bins) and strict,
        f"(included bins {binned.included_bins}, medians "
        f"{[{r: round(v, 3) for r, v in bin_medians(binned, b).items()} for b in binned.included_bins]})",
    )


def test_c11_pipeline_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli_main([
        "generate", "--template", "barbell", "--clique-size", "5", "--chain-len", "3",
        "--copies", "10", "--label-mode", "clique-side", "--seed", "11",
        "--out", str(corpus),
    ]) == 0
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[pipeline]\nseed = 42\n"
        "[embed]\nmethods = graphwave,rolx\nrolx_rank = 3\n"
        "[cluster]\nk_min = 2\nk_max = 5\nchosen_k = 3\n"
        "[explain]\nmethod = graphwave\ntrees = 40\nimportance_repeats = 2\n"
        "effect_orbits = 0,17,28\n"
        "[idr]\ndirection = all\nbins = 4\nmin_per_role = 3\n"
    )
    for sub in ("r1", "r2"):
        assert cli_main([
            "pipeline", str(corpus / "edges.txt"), "--labels", str(corpus / "nodes.csv"),
            "--config", str(cfg), "--out", str(tmp_path / sub),
        ]) == 0
    csvs = sorted(p.name for p in (tmp_path / "r1").iterdir() if p.suffix == ".csv")
    diffs = [
        name
        for name in csvs
        if (tmp_path / "r1" / name).read_bytes() != (tmp_path / "r2" / name).read_bytes()
    ]
    report("11 pipeline-determinism", len(csvs) >= 10 and not diffs, f"({len(csvs)} CSVs, diffs={diffs})")
