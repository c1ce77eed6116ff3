import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitroles import orbits as orbits_module
from orbitroles.graph import Graph, NodeTable
from orbitroles.graphlets import (
    GRAPHLETS,
    ORBIT_COUNT,
    OracleLimitError,
    _match_orbits,
    _orbit_lookup,
    count_orbits_bruteforce,
)
from orbitroles.orbits import (
    OrbitCensusError,
    OrbitMatrix,
    count_orbits,
    estimate_census_memory_mb,
    log_transform,
    orbit_header,
    orbits_from_csv,
    orbits_to_csv,
)
from orbitroles.planted import barbell_template, generate_planted_graph

from orbit_reference import count_orbits_per_node
from util import (
    ba_graph,
    complete_graph,
    cycle_graph,
    er_graph,
    has_edge,
    path_graph,
    permute_graph,
    star_graph,
    triangle_count,
)


class TestTemplateTable:
    def test_every_orbit_appears_exactly_once(self):
        seen = []
        for tpl in GRAPHLETS:
            seen.extend(set(tpl.orbits))
        assert sorted(seen) == list(range(ORBIT_COUNT))

    def test_template_count_by_size(self):
        sizes = [t.size for t in GRAPHLETS]
        assert sizes.count(2) == 1
        assert sizes.count(3) == 2
        assert sizes.count(4) == 6
        assert sizes.count(5) == 21

    def test_orbits_constant_on_automorphism_classes(self):
        # every self-isomorphism of a template must preserve orbit ids
        for tpl in GRAPHLETS:
            k = tpl.size
            edge_set = [tuple(sorted(e)) for e in tpl.edges]
            tset = set(edge_set)
            for perm in itertools.permutations(range(k)):
                if all(tuple(sorted((perm[a], perm[b]))) in tset for a, b in edge_set):
                    for i in range(k):
                        assert tpl.orbits[i] == tpl.orbits[perm[i]], tpl.name

    def test_distinct_positions_distinct_orbits(self):
        # non-equivalent positions inside one graphlet get different ids
        for tpl in GRAPHLETS:
            k = tpl.size
            edge_set = [tuple(sorted(e)) for e in tpl.edges]
            tset = set(edge_set)
            equivalent = {i: {i} for i in range(k)}
            for perm in itertools.permutations(range(k)):
                if all(tuple(sorted((perm[a], perm[b]))) in tset for a, b in edge_set):
                    for i in range(k):
                        equivalent[i].add(perm[i])
            for i in range(k):
                for j in range(k):
                    if j not in equivalent[i]:
                        assert tpl.orbits[i] != tpl.orbits[j], tpl.name

    def test_lookup_classifies_every_connected_graph(self):
        lookup = _orbit_lookup()
        # 21 connected graphs on 5 labeled-vertex... count distinct codes
        assert sum(1 for t in lookup[5] if t is not None) > 0
        assert lookup[2][1] == (0, 0)

    def test_templates_are_mutually_non_isomorphic(self):
        for a, b in itertools.combinations(GRAPHLETS, 2):
            if a.size != b.size:
                continue
            edge_set = [tuple(sorted(e)) for e in a.edges]
            assert _match_orbits(a.size, edge_set, b) is None

    def test_named_positions(self):
        def orbit_of_position(template_name, position):
            (template,) = [t for t in GRAPHLETS if t.name == template_name]
            return template.orbits[position]

        assert orbit_of_position("tadpole", 0) == 27  # free end of the tail
        assert orbit_of_position("tadpole", 4) == 30  # triangle node with tail
        assert orbit_of_position("path5", 2) == 17
        assert orbit_of_position("fork", 0) == 18
        assert orbit_of_position("k5", 0) == 72


class TestSmallGraphExamples:
    def test_triangle(self):
        counts = count_orbits(complete_graph(3)).counts
        for v in range(3):
            expected = np.zeros(ORBIT_COUNT, dtype=np.int64)
            expected[0] = 2
            expected[3] = 1
            assert np.array_equal(counts[v], expected)

    def test_path3(self):
        counts = count_orbits(path_graph(3)).counts
        for v in (0, 2):
            assert counts[v][0] == 1 and counts[v][1] == 1
        assert counts[1][0] == 2 and counts[1][2] == 1
        assert counts.sum() == counts[:, :3].sum()  # nothing else

    def test_k5(self):
        counts = count_orbits(complete_graph(5)).counts
        oracle = count_orbits_bruteforce(complete_graph(5)).counts
        assert np.array_equal(counts, oracle)
        chain_star_orbits = [1, 2, 4, 5, 6, 7] + list(range(15, 24))
        for v in range(5):
            assert counts[v][0] == 4
            assert counts[v][3] == 6
            assert counts[v][72] == 1
            assert all(counts[v][o] == 0 for o in chain_star_orbits)

    def test_three_star_orbits_fixed_by_oracle(self):
        g = star_graph(3)
        counts = count_orbits(g).counts
        oracle = count_orbits_bruteforce(g).counts
        assert np.array_equal(counts, oracle)
        center = 3
        assert counts[center][0] == 3
        assert counts[center][7] == 1  # claw center
        assert counts[center][2] == 3  # middle of each leaf-pair path
        for leaf in range(3):
            assert counts[leaf][6] == 1  # claw leaf
            assert counts[leaf][1] == 2  # end of the two through-center paths

    def test_c4_single_induced_cycle(self):
        counts = count_orbits(cycle_graph(4)).counts
        oracle = count_orbits_bruteforce(cycle_graph(4)).counts
        assert np.array_equal(counts, oracle)
        for v in range(4):
            assert counts[v][0] == 2
            assert counts[v][8] == 1

    def test_empty_graph_all_zero(self):
        g = Graph.from_edges(4, [])
        assert count_orbits(g).counts.sum() == 0
        assert count_orbits_bruteforce(g).counts.sum() == 0

    def test_isolated_nodes_keep_zero_rows(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2)])
        counts = count_orbits(g).counts
        assert counts[3].sum() == 0 and counts[4].sum() == 0
        assert counts[0][3] == 1


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "n,p,seed",
        [(40, 0.1, 0), (60, 0.05, 1), (80, 0.05, 2), (50, 0.12, 3), (30, 0.2, 4)],
    )
    def test_random_graph_agreement(self, n, p, seed):
        g = er_graph(n, p, seed)
        assert np.array_equal(count_orbits(g).counts, count_orbits_bruteforce(g).counts)

    def test_barbell_agreement(self):
        from orbitroles.planted import barbell_template, generate_planted_graph

        g = generate_planted_graph([barbell_template(5, 3)], 4, seed=0).graph
        assert np.array_equal(count_orbits(g).counts, count_orbits_bruteforce(g).counts)

    def test_oracle_node_cap(self):
        g = er_graph(30, 0.1, 0)
        with pytest.raises(OracleLimitError, match="capped"):
            count_orbits_bruteforce(g, max_nodes=10)


def barbell_corpus(copies, noise_edges, seed):
    return generate_planted_graph(
        [barbell_template(5, 5)], copies, noise_edges=noise_edges, seed=seed
    ).graph


def scattered_graph():
    """A 5-clique, an 8-cycle, a dense random piece and a path, with
    isolated nodes between them."""
    edges = list(itertools.combinations(range(5), 2))
    edges += [(10 + i, 10 + (i + 1) % 8) for i in range(8)]
    edges += [(30 + u, 30 + v) for u, v in er_graph(20, 0.3, 5).edges()]
    edges += [(50 + i, 51 + i) for i in range(4)]
    return Graph.from_edges(60, edges)


class TestGoldenAgainstPerNodeCounter:
    """Exact equality with the per-node counter kept in the tests, on
    graphs beyond the oracle's reach, with the default block cap and with
    a cap small enough to split the roots into many blocks."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ba_graph(400, 4, 1),
            # the hubs shuffled among the other nodes, so that blocks of
            # roots hold hubs and leaves together and end among the hubs
            lambda: permute_graph(ba_graph(300, 6, 2), np.random.default_rng(0).permutation(300)),
            lambda: barbell_corpus(30, 20, 3),
            scattered_graph,
            lambda: complete_graph(8),
        ],
        ids=["ba400-m4", "ba300-m6-hubs-shuffled", "barbell-noise", "isolated-components", "k8"],
    )
    def test_equal_counts(self, make, monkeypatch):
        g = make()
        expected = count_orbits_per_node(g)
        assert np.array_equal(count_orbits(g).counts, expected)

        blocks = []
        count_block = orbits_module._count_block
        monkeypatch.setattr(orbits_module, "_BLOCK_CELLS", 4096)
        monkeypatch.setattr(
            orbits_module,
            "_count_block",
            lambda b, o: (blocks.append((b.x0, b.x1)), count_block(b, o)),
        )
        assert np.array_equal(count_orbits(g).counts, expected)
        assert len(blocks) >= 3

    def test_wide_blocks_halved(self, monkeypatch):
        # each root of a cycle has 8 3-walks, so a block by work alone holds
        # 4096 // 64 roots, and its rows over the 68 nodes they reach (64 x
        # 69 cells) exceed the cap: it is halved
        g = cycle_graph(600)
        expected = count_orbits_per_node(g)
        blocks = []
        count_block = orbits_module._count_block
        monkeypatch.setattr(orbits_module, "_BLOCK_CELLS", 4096)
        monkeypatch.setattr(
            orbits_module,
            "_count_block",
            lambda b, o: (blocks.append((b.x0, b.x1, b.pos.size)), count_block(b, o)),
        )
        assert np.array_equal(count_orbits(g).counts, expected)
        assert [x0 for x0, _, _ in blocks] == [0] + [x1 for _, x1, _ in blocks[:-1]]
        assert blocks[-1][1] == 600
        assert max(x1 - x0 for x0, x1, _ in blocks) < 4096 // 64
        assert max(cells for _, _, cells in blocks) <= 4096


def disjoint_union():
    """Components placed at random node indices, each copy's nodes in the
    order of its template, so that the copies share a key: four copies of
    a 10-node ER graph, three of a 5-node path, three of a paw, three
    pairs and five isolated nodes; one more copy of the ER graph with its
    nodes in another order, which is isomorphic but keyed apart; and a
    40-node BA component with hubs. Returns the graph and its components
    as (template index, nodes) pairs."""
    paw = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    pieces = [(er_graph(10, 0.35, 0), True)] * 4 + [(path_graph(5), True)] * 3
    pieces += [(paw, True)] * 3 + [(Graph.from_edges(2, [(0, 1)]), True)] * 3
    pieces += [(Graph.from_edges(1, []), True)] * 5
    pieces += [(er_graph(10, 0.35, 0), False), (ba_graph(40, 3, 2), True)]
    n = sum(piece.node_count for piece, _ in pieces)
    slots = np.random.default_rng(4).permutation(n)
    edges, placed, start = [], [], 0
    for piece, in_order in pieces:
        where = slots[start : start + piece.node_count]
        where = np.sort(where) if in_order else where
        start += piece.node_count
        edges += [(where[u], where[v]) for u, v in piece.edges()]
        placed.append(where)
    return Graph.from_edges(n, edges), placed


class TestDistinctComponents:
    """The census counts each distinct component once and copies its rows
    to every copy: the counts of each component counted alone, and of the
    oracle, with the default block cap and with one that splits the roots
    of the distinct part into many blocks."""

    @pytest.mark.parametrize("cells", [None, 4096])
    def test_equal_to_each_component_alone_and_the_oracle(self, cells, monkeypatch):
        if cells is not None:
            monkeypatch.setattr(orbits_module, "_BLOCK_CELLS", cells)
        g, placed = disjoint_union()
        got = count_orbits(g)
        assert (got.meta["components"], got.meta["distinct_components"]) == (20, 7)
        assert cells is None or got.meta["blocks"] >= 3
        assert np.array_equal(got.counts, count_orbits_bruteforce(g).counts)
        for nodes in placed:
            local = {v: i for i, v in enumerate(sorted(nodes.tolist()))}
            alone = Graph.from_edges(
                len(local),
                [(local[u], local[v]) for u, v in g.edges() if u in local and v in local],
            )
            assert np.array_equal(got.counts[np.sort(nodes)], count_orbits(alone).counts)

    def test_counts_the_distinct_part_only(self, monkeypatch):
        g, _ = disjoint_union()
        counted = []
        tables = orbits_module._Tables
        monkeypatch.setattr(
            orbits_module, "_Tables", lambda graph: (counted.append(graph), tables(graph))[1]
        )
        count_orbits(g)
        (sub,) = counted
        assert sub.node_count == 10 + 5 + 4 + 2 + 1 + 10 + 40 < g.node_count
        assert sub.edge_count < g.edge_count

    def test_no_repeats_counts_the_graph_itself(self, monkeypatch):
        g = ba_graph(60, 3, 1)
        counted = []
        tables = orbits_module._Tables
        monkeypatch.setattr(
            orbits_module, "_Tables", lambda graph: (counted.append(graph), tables(graph))[1]
        )
        meta = count_orbits(g).meta
        assert counted == [g]
        assert (meta["components"], meta["distinct_components"]) == (1, 1)


class TestInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orbit_sum_identities(self, seed):
        g = er_graph(70, 0.08, seed)
        counts = count_orbits(g).counts
        assert counts[:, 0].sum() == 2 * g.edge_count
        assert counts[:, 3].sum() == 3 * triangle_count(g)
        assert counts[:, 1].sum() == 2 * counts[:, 2].sum()

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_isomorphism_invariance(self, seed):
        rng = np.random.default_rng(seed)
        g = er_graph(20, 0.2, seed)
        perm = rng.permutation(20)
        counts = count_orbits(g).counts
        permuted_counts = count_orbits(permute_graph(g, perm)).counts
        assert np.array_equal(permuted_counts[perm], counts)

    def test_edge_addition_bumps_only_endpoint_degrees(self):
        g = er_graph(25, 0.15, 5)
        non_edges = [
            (u, v)
            for u in range(25)
            for v in range(u + 1, 25)
            if not has_edge(g, u, v)
        ]
        u, v = non_edges[0]
        g2 = Graph.from_edges(25, list(g.edges()) + [(u, v)])
        before = count_orbits(g).counts[:, 0]
        after = count_orbits(g2).counts[:, 0]
        delta = after - before
        assert delta[u] == 1 and delta[v] == 1
        assert delta.sum() == 2

    def test_determinism(self):
        g = er_graph(40, 0.1, 7)
        assert np.array_equal(count_orbits(g).counts, count_orbits(g).counts)


class TestLogTransform:
    def test_zero_maps_to_zero(self):
        g = Graph.from_edges(3, [(0, 1)])
        logm = log_transform(count_orbits(g))
        assert logm.values[2].sum() == 0.0

    def test_count_one_maps_to_log2(self):
        logm = log_transform(count_orbits(complete_graph(3)))
        assert logm.values[0][3] == pytest.approx(math.log(2), abs=1e-12)

    def test_elementwise_against_scalar_oracle(self):
        counts = count_orbits(complete_graph(5))
        logm = log_transform(counts)
        for v in range(5):
            for o in range(ORBIT_COUNT):
                assert logm.values[v][o] == pytest.approx(
                    math.log1p(counts.counts[v][o]), abs=0.0
                )


class TestResourceLimits:
    def test_memory_budget_estimate_positive(self):
        g = er_graph(50, 0.2, 0)
        assert estimate_census_memory_mb(g) > 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ba_graph(800, 4, 7),
            lambda: barbell_corpus(200, 27, 7),
            # 1,000 small components: the estimate once charged each root a
            # row of all 13,000 nodes
            lambda: barbell_corpus(1000, 135, 7),
        ],
        ids=["ba800-hubs", "barbell-corpus", "barbell-corpus-13k"],
    )
    def test_estimate_bounds_traced_peak(self, make):
        g = make()
        estimate = estimate_census_memory_mb(g)
        tracemalloc.start()
        try:
            count_orbits(g)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= estimate <= 4 * peak

    def test_budget_exceeded_reports_estimate(self):
        g = er_graph(100, 0.3, 0)
        with pytest.raises(OrbitCensusError, match="MB"):
            count_orbits(g, memory_budget_mb=0.001)

    def test_budget_message_below_one_mb(self):
        # a sub-MB budget and estimate read as themselves, not as "0 MB"
        g = er_graph(20, 0.2, 0)
        assert 0.15 < estimate_census_memory_mb(g) < 0.25
        with pytest.raises(OrbitCensusError) as info:
            count_orbits(g, memory_budget_mb=0.1)
        assert str(info.value) == "estimated census working set 0.2 MB exceeds the 0.1 MB budget"


class TestOrbitCsv:
    def test_round_trip(self, tmp_path):
        g = er_graph(20, 0.2, 2)
        table = NodeTable(external_ids=[f"v{i}" for i in range(20)])
        matrix = count_orbits(g)
        path = tmp_path / "orbits.csv"
        orbits_to_csv(matrix, table, path)
        back, ids = orbits_from_csv(path, table)
        assert np.array_equal(back.counts, matrix.counts)
        assert ids == table.external_ids

    def test_missing_id_rejected(self, tmp_path):
        g = er_graph(5, 0.5, 2)
        table = NodeTable(external_ids=[f"v{i}" for i in range(5)])
        path = tmp_path / "orbits.csv"
        orbits_to_csv(count_orbits(g), table, path)
        bigger = NodeTable(external_ids=[f"v{i}" for i in range(6)])
        with pytest.raises(ValueError, match="v5"):
            orbits_from_csv(path, bigger)

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "orbits.csv"
        zeros = "," + ",".join(["0"] * 73)
        ones = ",1" + ",0" * 72
        path.write_text(",".join(orbit_header()) + f"\na{zeros}\nb{zeros}\na{ones}\n")
        table = NodeTable(external_ids=["a", "b"])
        with pytest.raises(ValueError, match=r"orbits\.csv:4: repeated id 'a'"):
            orbits_from_csv(path, table)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,x\na,1\n")
        with pytest.raises(ValueError, match="header"):
            orbits_from_csv(path)

    @pytest.mark.parametrize("graph", ["scattered", "barbells", "empty"])
    def test_bytes_equal_row_by_row_csv_writer(self, tmp_path, graph):
        # repeated rows (isolated nodes, barbell copies) are formatted once;
        # ids that csv.writer quotes keep their quoting
        from orbit_reference import orbits_to_csv_rows

        if graph == "empty":
            matrix, ids = OrbitMatrix(counts=np.zeros((0, ORBIT_COUNT))), []
        else:
            g = (
                scattered_graph()
                if graph == "scattered"
                else generate_planted_graph([barbell_template(5, 3)], 6, seed=2).graph
            )
            matrix = count_orbits(g)
            ids = [f"v{i}" for i in range(g.node_count)]
            ids[:4] = ["", "a,b", 'q"x', " s"]
        table = NodeTable(external_ids=ids)
        orbits_to_csv(matrix, table, tmp_path / "new.csv")
        orbits_to_csv_rows(matrix, table, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
