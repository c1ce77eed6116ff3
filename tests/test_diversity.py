import numpy as np
import pytest

from orbitroles.diversity import (
    DISTANCES,
    DIRECTIONS,
    PAIR_COUNTINGS,
    DisciplineDistanceMatrix,
    DiversityError,
    binned_idr_report,
    build_diversity_report,
    discipline_distance,
)
from orbitroles.graph import Graph, NodeTable
from orbitroles.planted import barbell_template, generate_planted_graph

import diversity_reference as reference
from util import bin_medians, star_graph


def star_with_labels(leaf_categories):
    """Star graph whose leaves carry the given discipline labels."""
    n = len(leaf_categories)
    graph = star_graph(n)
    table = NodeTable(
        external_ids=[f"v{i}" for i in range(n + 1)],
        categories=list(leaf_categories) + [None],
    )
    return graph, table


class TestDisciplineDistance:
    def test_uniform_off_diagonal_ones(self):
        graph, table = star_with_labels(["A", "B", "C"])
        dmat = discipline_distance(table, graph, mode="uniform")
        assert dmat.disciplines == ["A", "B", "C"]
        off = dmat.d[~np.eye(3, dtype=bool)]
        assert np.all(off == 1.0)
        assert np.all(np.diag(dmat.d) == 0.0)

    def test_fewer_than_two_disciplines_rejected(self):
        graph, table = star_with_labels(["A", "A"])
        with pytest.raises(DiversityError, match="2 disciplines"):
            discipline_distance(table, graph)

    def test_identical_cociting_disciplines_distance_zero(self):
        # A and C each connect only to B nodes: identical co-occurrence rows
        edges = [(0, 1), (2, 3)]
        graph = Graph.from_edges(4, edges)
        table = NodeTable(
            external_ids=["a", "b1", "c", "b2"],
            categories=["A", "B", "C", "B"],
        )
        dmat = discipline_distance(table, graph, mode="cocitation_cosine")
        assert dmat.d[dmat.disciplines.index("A"), dmat.disciplines.index("C")] == pytest.approx(0.0, abs=1e-12)

    def test_cocitation_hand_computed(self):
        # corpus: A-B edge, C-B edge, A-A edge. co-occurrence rows:
        #   A: [2(A-A counts twice per endpoint? no: symmetric add], ...]
        # build by hand below and compare
        edges = [(0, 1), (2, 3), (4, 5)]
        graph = Graph.from_edges(6, edges)
        table = NodeTable(
            external_ids=list("uvwxyz"),
            categories=["A", "B", "C", "B", "A", "A"],
        )
        # hand co-occurrence: edge(A,B): co[A][B]+=1 co[B][A]+=1;
        # edge(C,B): co[C][B]+=1 co[B][C]+=1; edge(A,A): co[A][A]+=2
        co = {
            "A": {"A": 2.0, "B": 1.0, "C": 0.0},
            "B": {"A": 1.0, "B": 0.0, "C": 1.0},
            "C": {"A": 0.0, "B": 1.0, "C": 0.0},
        }

        def cosine(x, y):
            vx = np.array([x[k] for k in "ABC"])
            vy = np.array([y[k] for k in "ABC"])
            return float(vx @ vy / (np.linalg.norm(vx) * np.linalg.norm(vy)))

        dmat = discipline_distance(table, graph, mode="cocitation_cosine")
        for a, b in [("A", "B"), ("A", "C"), ("B", "C")]:
            expected = 1.0 - cosine(co[a], co[b])
            assert dmat.d[dmat.disciplines.index(a), dmat.disciplines.index(b)] == pytest.approx(
                expected, abs=1e-12
            )


def node_score(graph, table, dmat, node, direction="all", pair_counting="ordered"):
    """One node's (idr, neighbors_used) from the report of every node."""
    report = build_diversity_report(
        graph, table, dmat, np.zeros(graph.node_count, dtype=int), direction, pair_counting
    )
    return report.idr[node], report.neighbors_used[node]


class TestRaoStirling:
    def test_single_discipline_zero(self):
        graph, table = star_with_labels(["A", "A", "A", "B"])
        dmat = discipline_distance(table, graph)
        center = 4
        # all of leaf 3's neighbors (just the center) are unlabeled: absent
        score, used = node_score(graph, table, dmat, center)
        assert used == 4
        assert score == pytest.approx(2 * (0.75 * 0.25), abs=1e-12)

    def test_half_half_gives_half(self):
        graph, table = star_with_labels(["A", "B"])
        dmat = discipline_distance(table, graph)
        score, used = node_score(graph, table, dmat, 2)
        assert used == 2
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_quarter_split_hand_value(self):
        # proportions (0.5, 0.25, 0.25): D = 2*(0.125 + 0.125 + 0.0625) = 0.625
        graph, table = star_with_labels(["A", "A", "B", "C"])
        dmat = discipline_distance(table, graph)
        score, _ = node_score(graph, table, dmat, 4)
        assert score == pytest.approx(0.625, abs=1e-15)

    def test_unordered_halves(self):
        graph, table = star_with_labels(["A", "B"])
        dmat = discipline_distance(table, graph)
        ordered, _ = node_score(graph, table, dmat, 2)
        unordered, _ = node_score(graph, table, dmat, 2, pair_counting="unordered")
        assert unordered == pytest.approx(ordered / 2, abs=1e-15)

    def test_absent_when_no_labeled_neighbors(self):
        graph, table = star_with_labels(["A", "B"])
        dmat = discipline_distance(table, graph)
        score, used = node_score(graph, table, dmat, 0)
        assert np.isnan(score) and used == 0

    def test_unlabeled_neighbors_excluded_from_proportions(self):
        graph, table = star_with_labels(["A", "B", None, None])
        dmat = discipline_distance(table, graph)
        score, used = node_score(graph, table, dmat, 4)
        assert used == 2
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_simpson_identity_uniform_distances(self):
        # 100 random proportion vectors realized as star neighborhoods
        rng = np.random.default_rng(0)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            counts = rng.integers(1, 6, size=k)
            cats = []
            for i, c in enumerate(counts):
                cats.extend([f"D{i}"] * int(c))
            graph, table = star_with_labels(cats)
            dmat = discipline_distance(table, graph)
            score, _ = node_score(graph, table, dmat, len(cats))
            p = counts / counts.sum()
            assert score == pytest.approx(1.0 - float((p * p).sum()), abs=1e-12)

    def test_scale_invariance_under_neighborhood_duplication(self):
        # doubling every neighbor count leaves the proportions, and hence
        # the diversity, unchanged
        graph1, table1 = star_with_labels(["A", "B", "B"])
        graph2, table2 = star_with_labels(["A", "B", "B"] * 2)
        dmat1 = discipline_distance(table1, graph1)
        dmat2 = discipline_distance(table2, graph2)
        d1, _ = node_score(graph1, table1, dmat1, 3)
        d2, _ = node_score(graph2, table2, dmat2, 6)
        assert d1 == pytest.approx(d2, abs=1e-15)

    def test_discipline_label_permutation_symmetry(self):
        graph, table = star_with_labels(["A", "A", "B", "C", "C"])
        dmat = discipline_distance(table, graph)
        baseline, _ = node_score(graph, table, dmat, 5)
        swap = {"A": "C", "B": "A", "C": "B"}
        table2 = NodeTable(
            external_ids=table.external_ids,
            categories=[swap[c] if c else None for c in table.categories],
        )
        dmat2 = discipline_distance(table2, graph)
        permuted, _ = node_score(graph, table2, dmat2, 5)
        assert permuted == pytest.approx(baseline, abs=1e-15)

    def test_directions_use_edge_orientation(self, tmp_path):
        from orbitroles.graph import load_edge_list

        path = tmp_path / "g.txt"
        # a cites b; c cites b: b's citing papers are {a, c}
        path.write_text("a b\nc b\n")
        graph, table = load_edge_list(path)
        table = NodeTable(
            external_ids=table.external_ids, categories=["A", "B", "C"]
        )
        dmat = discipline_distance(table, graph)
        b = 1
        citing_score, used = node_score(graph, table, dmat, b, direction="citing")
        assert used == 2 and citing_score == pytest.approx(0.5)
        cited_score, used_cited = node_score(graph, table, dmat, b, direction="cited")
        assert np.isnan(cited_score) and used_cited == 0
        a_cited, used_a = node_score(graph, table, dmat, 0, direction="cited")
        assert used_a == 1 and a_cited == 0.0

    def test_direction_without_info_rejected(self):
        planted = generate_planted_graph([barbell_template(5, 3)], 2, seed=0)
        table = NodeTable(
            external_ids=[f"v{i}" for i in range(planted.graph.node_count)],
            categories=["A", "B"] * (planted.graph.node_count // 2),
        )
        dmat = discipline_distance(table, planted.graph)
        with pytest.raises(DiversityError, match="direction"):
            node_score(planted.graph, table, dmat, 0, direction="citing")


def random_citation_graph(rng):
    """A random graph with as-read citation pairs, some of them citing
    both ways, and a random labelling with >= 2 disciplines and some
    unlabeled nodes."""
    n = int(rng.integers(2, 40))
    m = int(rng.integers(1, 4 * n))
    pairs = []
    for u, v in rng.integers(0, n, size=(m, 2)).tolist():
        if u != v and (u, v) not in pairs:
            pairs.append((u, v))
    graph = Graph.from_edges(n, pairs, directed_pairs=pairs)
    names = [f"D{i}" for i in range(int(rng.integers(2, 7)))]
    cats = [names[i] for i in rng.integers(0, len(names), size=n)]
    cats[:2] = names[:2]
    for i in np.flatnonzero(rng.random(n) < 0.2):
        cats[i] = None
    order = rng.permutation(n)
    table = NodeTable(
        external_ids=[f"v{i}" for i in range(n)], categories=[cats[i] for i in order]
    )
    return graph, table


class TestArrayPassEqualsReference:
    def test_fuzz_every_setting(self):
        # the node-by-node loop's bits, for every direction, pair counting
        # and distance: the array pass adds each node's terms in the same
        # order (first appearance, a outer, b inner)
        rng = np.random.default_rng(20221)
        for _ in range(40):
            graph, table = random_citation_graph(rng)
            cosine = discipline_distance(table, graph, mode="cocitation_cosine")
            assert np.array_equal(cosine.d, reference.cocitation_cosine(table, graph).d)
            roles = np.zeros(graph.node_count, dtype=int)
            for distance in DISTANCES:
                dmat = discipline_distance(table, graph, mode=distance)
                for direction in DIRECTIONS:
                    for counting in PAIR_COUNTINGS:
                        report = build_diversity_report(
                            graph, table, dmat, roles, direction, counting
                        )
                        idr, used = reference.diversity_report(
                            graph, table, dmat, direction, counting
                        )
                        assert np.array_equal(report.idr, idr, equal_nan=True)
                        assert np.array_equal(report.neighbors_used, used)

    def test_fuzz_random_distances(self):
        # a distance matrix with distinct entries makes every term's order
        # show in the sum
        rng = np.random.default_rng(5)
        for _ in range(40):
            graph, table = random_citation_graph(rng)
            names = sorted({c for c in table.categories if c is not None})
            d = np.triu(rng.random((len(names), len(names))), 1)
            dmat = DisciplineDistanceMatrix(disciplines=names, d=d + d.T)
            report = build_diversity_report(
                graph, table, dmat, np.zeros(graph.node_count, dtype=int), "citing"
            )
            idr, used = reference.diversity_report(graph, table, dmat, "citing")
            assert np.array_equal(report.idr, idr, equal_nan=True)
            assert np.array_equal(report.neighbors_used, used)

    def test_discipline_missing_from_matrix_named(self):
        graph, table = star_with_labels(["A", "B", "C"])
        dmat = DisciplineDistanceMatrix(disciplines=["A", "B"], d=[[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DiversityError, match="'C'"):
            build_diversity_report(graph, table, dmat, np.zeros(4, dtype=int), direction="all")


def corpus_with_bridge_mixing(copies=30, noise=0, seed=0):
    """Barbell corpus where each copy's two cliques carry different labels."""
    planted = generate_planted_graph([barbell_template(5, 3)], copies, noise, seed)
    size = 11
    cats = []
    for copy in range(copies):
        left = f"D{(2 * copy) % 4}"
        right = f"D{(2 * copy + 1) % 4}"
        for pos in range(size):
            cats.append(right if 5 <= pos < 10 else left)
    table = NodeTable(
        external_ids=[f"v{i}" for i in range(planted.graph.node_count)],
        categories=cats,
    )
    return planted, table


class TestDiversityReport:
    def test_report_values_and_absence(self):
        planted, table = corpus_with_bridge_mixing(copies=4)
        dmat = discipline_distance(table, planted.graph)
        report = build_diversity_report(
            planted.graph, table, dmat, planted.true_role, direction="all"
        )
        names = planted.role_names
        bridge = planted.true_role == names.index("bridge-center")
        member = planted.true_role == names.index("clique-member")
        assert np.all(report.idr[bridge] == 0.5)
        assert np.all(report.idr[member] == 0.0)

    def test_csv_blank_for_absent(self, tmp_path):
        graph, table = star_with_labels(["A", "B"])
        dmat = discipline_distance(table, graph)
        report = build_diversity_report(graph, table, dmat, np.zeros(3, dtype=int), direction="all")
        path = tmp_path / "div.csv"
        report.to_csv(path, table)
        lines = path.read_text().strip().split("\n")
        assert lines[1].startswith("v0,,")  # leaf: no labeled neighbors


class TestBinnedReport:
    def test_same_degree_single_populated_bin(self):
        graph, table = star_with_labels(["A", "B", "A", "B"])
        # score the leaves: give each leaf a labeled neighborhood through
        # the center? leaves have only the unlabeled center: score absent.
        # Use the uniform clique corpus instead: all nodes same degree.
        planted, table = corpus_with_bridge_mixing(copies=3)
        dmat = discipline_distance(table, planted.graph)
        report = build_diversity_report(
            planted.graph, table, dmat, planted.true_role, direction="all"
        )
        member_code = planted.role_names.index("clique-member")
        members = np.flatnonzero(planted.true_role == member_code)
        sub_report = build_diversity_report(
            planted.graph, table, dmat, planted.true_role, direction="all"
        )
        # restrict to a single degree class by masking others' idr
        mask = np.ones(planted.graph.node_count, dtype=bool)
        mask[members] = False
        sub_report.idr[mask] = np.nan
        binned = binned_idr_report(sub_report, planted.true_role, bins=5, min_per_role=0)
        populated = {b for b, _lo, _hi, _r, vals, _inc in binned.rows if vals}
        assert len(populated) == 1

    def test_included_requires_every_role_above_minimum(self):
        planted, table = corpus_with_bridge_mixing(copies=30)
        dmat = discipline_distance(table, planted.graph)
        report = build_diversity_report(
            planted.graph, table, dmat, planted.true_role, direction="all"
        )
        # per copy: 8 members, 2 attachments, 1 bridge; over 30 copies the
        # bridge role has 30 nodes: with min_per_role=50 nothing is included,
        # with 20 the bridge-degree bin is the only sticking point
        binned = binned_idr_report(report, planted.true_role, bins=10, min_per_role=50)
        assert binned.included_bins == []
        for _b, _lo, _hi, _role, _vals, inc in binned.rows:
            assert inc is False

    def test_bin_edges_monotone_and_cover(self):
        planted, table = corpus_with_bridge_mixing(copies=10, noise=40, seed=3)
        dmat = discipline_distance(table, planted.graph)
        report = build_diversity_report(
            planted.graph, table, dmat, planted.true_role, direction="all"
        )
        binned = binned_idr_report(report, planted.true_role, bins=10, min_per_role=1)
        edges = binned.bin_edges
        assert np.all(np.diff(edges) > 0)
        logdeg = np.log(report.degree[report.degree > 0])
        assert edges[0] <= logdeg.min() and edges[-1] >= logdeg.max()

    def test_degree_zero_excluded_and_counted(self):
        graph = Graph.from_edges(4, [(0, 1)])
        table = NodeTable(
            external_ids=["a", "b", "c", "d"], categories=["A", "B", "A", "B"]
        )
        dmat = discipline_distance(table, graph)
        report = build_diversity_report(graph, table, dmat, np.zeros(4, dtype=int), direction="all")
        with pytest.raises(DiversityError):
            # only degree-0 or unscored nodes would remain with a bad filter;
            # here nodes a,b have scores so the call succeeds
            binned_idr_report(
                type(report)(
                    idr=np.full(4, np.nan),
                    degree=report.degree,
                    role=report.role,
                    neighbors_used=report.neighbors_used,
                    direction="all",
                ),
                np.zeros(4, dtype=int),
            )
        binned = binned_idr_report(report, np.zeros(4, dtype=int), bins=3, min_per_role=0)
        assert binned.meta["excluded_degree0"] == 2

    def test_bridge_median_exceeds_clique_median(self):
        planted, table = corpus_with_bridge_mixing(copies=40, noise=400, seed=5)
        dmat = discipline_distance(table, planted.graph)
        report = build_diversity_report(
            planted.graph, table, dmat, planted.true_role, direction="all"
        )
        binned = binned_idr_report(report, planted.true_role, bins=3, min_per_role=5)
        names = planted.role_names
        bridge_code = names.index("bridge-center")
        member_code = names.index("clique-member")
        assert binned.included_bins, "need at least one included bin"
        for b in binned.included_bins:
            med = bin_medians(binned, b)
            assert med[bridge_code] > med[member_code]
