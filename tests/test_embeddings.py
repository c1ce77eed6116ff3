import numpy as np
import pytest

from orbitroles.embeddings import (
    EmbeddingError,
    EmbeddingMatrix,
    embedding_to_csv,
    estimate_graphwave_memory_mb,
    graphwave_embed,
    import_embedding,
    refex_features,
    rolx_embed,
)
from orbitroles.graph import Graph, NodeTable
from orbitroles.orbits import count_orbits
from orbitroles.planted import barbell_template, generate_planted_graph

from util import ba_graph, complete_graph, cycle_graph, er_graph, permute_graph, star_graph


class TestGraphWave:
    def test_star_leaves_identical(self):
        emb = graphwave_embed(star_graph(4))
        leaves = emb.vectors[:4]
        assert np.abs(leaves - leaves[0]).max() < 1e-9

    def test_disjoint_cliques_match_across_components(self):
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(5 + i, 5 + j) for i in range(5) for j in range(i + 1, 5)]
        g = Graph.from_edges(10, edges)
        emb = graphwave_embed(g)
        assert np.abs(emb.vectors[:5] - emb.vectors[5:]).max() < 1e-9

    def test_default_width_is_128(self):
        emb = graphwave_embed(er_graph(12, 0.3, 0))
        assert emb.d == 128
        assert emb.method_tag == "graphwave"

    def test_bad_scales_rejected(self):
        with pytest.raises(EmbeddingError, match="positive"):
            graphwave_embed(er_graph(8, 0.4, 0), scales=(0.5, -1.0))

    def test_permutation_equivariance(self):
        g = er_graph(15, 0.25, 3)
        perm = np.random.default_rng(0).permutation(15)
        emb = graphwave_embed(g)
        emb_p = graphwave_embed(permute_graph(g, perm))
        assert np.abs(emb_p.vectors[perm] - emb.vectors).max() < 1e-9

    def test_one_decomposition_per_component_equals_one_per_scale(self, monkeypatch):
        # reference: eigh of the component Laplacian again for every scale
        from orbitroles import embeddings

        from embedding_reference import component_laplacian

        triangle = [(9, 10), (10, 11), (9, 11)]
        g = Graph.from_edges(12, list(er_graph(9, 0.4, 5).edges()) + triangle)
        assert len(g.components()) >= 2
        scales = (0.5, 1.5, 3.0)
        seen = []
        characteristic = embeddings._characteristic

        def record(psi, step, sums):
            seen.append(psi.copy())
            characteristic(psi, step, sums)

        monkeypatch.setattr(embeddings, "_characteristic", record)
        graphwave_embed(g, scales=scales, sample_points=8)
        expected = []
        for comp in g.components():
            lap = component_laplacian(g, comp)
            for s in scales:
                eigval, eigvec = np.linalg.eigh(lap)
                expected.append((eigvec * np.exp(-s * eigval)) @ eigvec.T)
        assert len(seen) == len(expected)
        for psi, ref in zip(seen, expected):
            assert np.array_equal(psi, ref)

    @pytest.mark.parametrize(
        "scales, points, t_max, block_cells",
        [
            ((0.5, 1.5, 3.0), 8, 100.0, None),
            ((0.5, 1.5), 2, 100.0, None),
            ((0.5, 1.5), 256, 100.0, None),
            ((0.5,), 1000, 100.0, None),
            ((0.5, 1.5), 32, 1000.0, None),
            ((0.5, 1.5, 3.0), 32, 100.0, 64),  # several row blocks
        ],
    )
    def test_rotation_matches_exact_evaluation(
        self, monkeypatch, scales, points, t_max, block_cells
    ):
        from orbitroles import embeddings

        from embedding_reference import graphwave_exact

        if block_cells is not None:
            monkeypatch.setattr(embeddings, "_BLOCK_CELLS", block_cells)
        # a 20-node component, a triangle and two singletons
        triangle = [(20, 21), (21, 22), (20, 22)]
        g = Graph.from_edges(25, list(er_graph(20, 0.25, 2).edges()) + triangle)
        sizes = sorted(len(c) for c in g.components())
        assert sizes == [1, 1, 3, 20]
        got = graphwave_embed(g, scales=scales, sample_points=points, t_max=t_max)
        ref = graphwave_exact(g, scales=scales, sample_points=points, t_max=t_max)
        assert np.allclose(got.vectors, ref.vectors, rtol=0.0, atol=1e-12)
        t0 = np.arange(len(scales))[:, None] * 2 * points + np.array([0, 1])
        assert np.array_equal(got.vectors[:, t0], ref.vectors[:, t0])

    @pytest.mark.parametrize(
        "block_cells",
        [
            1 << 15,  # one block
            5 * 30,  # six blocks of 5 rows
            7 * 30,  # blocks of 7 rows and a last one of 2
            1,  # one row per block
        ],
    )
    @pytest.mark.parametrize("points, t_max", [(32, 100.0), (7, 1000.0)])
    def test_row_blocks_bit_equal_to_column_blocks(self, monkeypatch, block_cells, points, t_max):
        from orbitroles import embeddings

        from embedding_reference import characteristic_column_blocks
        from util import ba_graph

        g = ba_graph(30, 3, 4)
        lap = np.diag(g.degrees().astype(float))
        for u, v in g.edges():
            lap[u, v] = lap[v, u] = -1.0
        psi = embeddings._heat_kernel_exact(np.linalg.eigh(lap), 0.5)
        step = np.linspace(0.0, t_max, points)[1]
        want = np.empty((30, points, 2))
        characteristic_column_blocks(psi, step, want)
        monkeypatch.setattr(embeddings, "_BLOCK_CELLS", block_cells)
        got = np.empty((30, points, 2))
        embeddings._characteristic(psi, step, got)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "points, t_max, message",
        [
            (0, 100.0, "sample_points 0 < 2"),
            (1, 100.0, "sample_points 1 < 2"),
            (32, 0.0, "t_max 0.0 is not positive"),
            (32, -5.0, "t_max -5.0 is not positive"),
            (32, float("inf"), "t_max inf is not positive and finite"),
            (32, float("nan"), "t_max nan is not positive and finite"),
        ],
    )
    def test_unusable_sampling_rejected(self, points, t_max, message):
        with pytest.raises(EmbeddingError, match=message):
            graphwave_embed(er_graph(8, 0.4, 0), sample_points=points, t_max=t_max)

    def test_memory_peak_within_six_dense_matrices(self):
        import tracemalloc

        from util import ba_graph

        g = ba_graph(600, 4, 3)
        k = g.node_count
        assert len(g.components()) == 1
        tracemalloc.start()
        try:
            graphwave_embed(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * k * k * 8

    @pytest.mark.parametrize(
        "name", ["ba-hub", "planted-many", "isolated", "pairs", "single-edge"]
    )
    def test_estimate_bounds_traced_peak(self, name):
        # one BA component of 800 nodes, where the k x k matrices dominate;
        # many small components; nodes alone, each its own component
        import tracemalloc

        g = {
            "isolated": lambda: Graph.from_edges(3000, [(0, 1)]),
            "pairs": lambda: Graph.from_edges(3000, [(i, i + 1) for i in range(0, 3000, 2)]),
            "single-edge": lambda: Graph.from_edges(2, [(0, 1)]),
        }.get(name, lambda: bench_graph(name))()
        estimate = estimate_graphwave_memory_mb(g)
        tracemalloc.start()
        try:
            graphwave_embed(g)
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
        assert peak <= estimate

    def test_estimate_grows_with_the_largest_component(self):
        # the k x k terms are those of the largest component, not of N
        one = estimate_graphwave_memory_mb(Graph.from_edges(400, [(i, i + 1) for i in range(399)]))
        many = estimate_graphwave_memory_mb(
            Graph.from_edges(400, [(i, i + 1) for i in range(399) if i % 20 != 19])
        )
        assert one > 5 * 8 * 400**2 / 1e6 > 5 * many

    def test_repeat_runs_identical(self):
        g = er_graph(20, 0.2, 4)
        a = graphwave_embed(g)
        b = graphwave_embed(g)
        assert np.abs(a.vectors - b.vectors).max() <= 1e-12

    def test_no_nan_on_disconnected_graph(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3)])
        emb = graphwave_embed(g)
        assert np.isfinite(emb.vectors).all()


def repeated_components():
    """Three interleaved copies of one 6-node shape (nodes 3i, 3i + 1 and
    3i + 2 are node i of each copy), the same shape with its nodes in
    another order, four singletons, three pairs and a 20-node component."""
    shape = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5)]
    edges = [(3 * u + c, 3 * v + c) for c in range(3) for u, v in shape]
    order = [5, 3, 0, 4, 1, 2]
    edges += [(18 + order[u], 18 + order[v]) for u, v in shape]
    edges += [(28, 29), (30, 31), (32, 33)]
    edges += [(34 + u, 34 + v) for u, v in ba_graph(20, 2, 1).edges()]
    return Graph.from_edges(54, edges)


class TestDistinctComponents:
    """One computation per distinct component key: the rows of a per-
    component loop, bit for bit, from one eigh per key."""

    def test_bit_equal_to_per_component_loop(self):
        from embedding_reference import graphwave_per_component

        g = repeated_components()
        for scales, points in [((0.5, 1.5), 32), ((0.3, 1.0, 2.0), 5)]:
            got = graphwave_embed(g, scales=scales, sample_points=points)
            want = graphwave_per_component(g, scales=scales, sample_points=points)
            assert np.array_equal(got.vectors, want)
        # the copies share rows; the reordered shape is computed on its own
        assert np.array_equal(got.vectors[0:18:3], got.vectors[2:18:3])
        assert not np.array_equal(got.vectors[0:18:3], got.vectors[18:24])

    def test_one_eigh_per_distinct_key(self, monkeypatch):
        g = repeated_components()
        calls = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        emb = graphwave_embed(g)
        # the shape twice (as copied and as reordered), a singleton, a
        # pair and the 20-node component
        assert sorted(calls) == [1, 2, 6, 6, 20]
        assert emb.meta["components"] == 12
        assert emb.meta["distinct_components"] == 5

    def test_key_names_the_laplacian(self):
        # (size, flat positions of the Laplacian's -1 entries): the key and
        # the Laplacian determine each other
        from orbitroles.embeddings import _laplacian

        from embedding_reference import component_laplacian

        g = repeated_components()
        for comp in g.components():
            k, flat = len(comp), g.local_edges(comp)
            lap = component_laplacian(g, comp)
            assert flat.dtype == np.int64
            assert np.array_equal(flat, np.flatnonzero(lap == -1.0))
            assert _laplacian(k, flat).tobytes() == lap.tobytes()


class TestRefex:
    def test_base_features(self):
        g = star_graph(3)
        refex = refex_features(g, count_orbits(g), depth=0)
        deg, internal, boundary = refex.features[:, :3].T
        assert deg[3] == 3
        assert internal[3] == 3  # star egonet of the center has its 3 edges
        assert internal[0] == 1 and boundary[0] == 2

    def test_triangle_egonet(self):
        refex = refex_features(complete_graph(3), count_orbits(complete_graph(3)), depth=0)
        assert list(refex.features[0][:3]) == [2, 3, 0]

    def test_recursion_appends_and_prunes(self):
        g = er_graph(25, 0.2, 5)
        shallow = refex_features(g, count_orbits(g), depth=0)
        deep = refex_features(g, count_orbits(g), depth=2)
        assert deep.features.shape[1] >= shallow.features.shape[1]
        assert len(set(deep.column_names)) == len(deep.column_names)
        # regular structure prunes aggregates of constant columns entirely
        ring = refex_features(cycle_graph(10), count_orbits(cycle_graph(10)), depth=2)
        assert ring.features.shape[1] == 3
        assert ring.generation == 0


def _refex_corpus(name):
    from test_orbits import scattered_graph

    return {
        "ba": lambda: ba_graph(400, 4, 3),
        "noisy-barbell": lambda: generate_planted_graph(
            [barbell_template(5, 3)], 12, noise_edges=10, seed=3
        ).graph,
        "scattered": scattered_graph,
        "k8": lambda: complete_graph(8),
        "star": lambda: star_graph(6),
    }[name]()


def bench_graph(name):
    """The seed-7 input graph of a benchmark workload, built as
    ``perfbench/workloads.py`` builds it."""
    if name == "planted-many":
        return generate_planted_graph([barbell_template(5, 5)], 200, noise_edges=27, seed=7).graph
    import importlib.util
    import sys
    from pathlib import Path

    module = "perfbench_workloads"
    if module not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(module, path)
        # registered before it runs: its dataclasses look their module up
        sys.modules[module] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[module])
    return Graph.from_edges(800, sys.modules[module].ba_edges(800, 4, 7))


class TestRefexReference:
    """Census base features and bincount neighbour sums against the
    bitmask counter and node-by-node sums they replaced: the same bits."""

    @pytest.mark.parametrize("name", ["ba", "noisy-barbell", "scattered", "k8", "star"])
    def test_equal_to_bitmask_reference(self, name):
        from embedding_reference import refex_features_bitmask

        g = _refex_corpus(name)
        orbits = count_orbits(g)
        for depth in range(4):
            got = refex_features(g, orbits, depth=depth)
            want = refex_features_bitmask(g, depth=depth)
            assert np.array_equal(got.features, want.features), depth
            assert got.column_names == want.column_names
            assert got.generation == want.generation

    @pytest.mark.parametrize("name", ["ba-hub", "planted-many"])
    def test_pruning_unchanged_on_bench_inputs(self, name):
        # one correlation matrix per generation keeps the columns that one
        # np.corrcoef per pair of columns kept
        from embedding_reference import refex_features_bitmask

        g = bench_graph(name)
        got = refex_features(g, count_orbits(g), depth=2)
        want = refex_features_bitmask(g, depth=2)
        assert got.column_names == want.column_names
        assert got.generation == want.generation
        assert np.array_equal(got.features, want.features)

    def test_peak_memory_linear_in_nodes_and_edges(self):
        # the bitmasks took N^2 / 8 bytes and the node loops Python floats:
        # 13 MB here, against under 4 MB for the CSR arrays and the columns
        import tracemalloc

        g = ba_graph(10_000, 4, 0)
        orbits = count_orbits(g)
        tracemalloc.start()
        try:
            refex_features(g, orbits, depth=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * (g.node_count + 2 * g.edge_count)

    def test_census_of_another_graph_rejected(self):
        with pytest.raises(EmbeddingError, match="9 census rows for 8 nodes"):
            refex_features(cycle_graph(8), count_orbits(cycle_graph(9)))


class TestRolx:
    def test_regular_graph_rows_identical(self):
        emb = rolx_embed(cycle_graph(12), count_orbits(cycle_graph(12)), rank=2, seed=0)
        assert np.abs(emb.vectors - emb.vectors[0]).max() < 1e-8

    def test_nmf_error_non_increasing(self):
        emb = rolx_embed(er_graph(30, 0.15, 2), count_orbits(er_graph(30, 0.15, 2)), rank=4, seed=1)
        errors = emb.meta["nmf_errors"]
        assert len(errors) >= 2
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev * (1 + 1e-10) + 1e-12

    def test_factors_non_negative(self):
        emb = rolx_embed(er_graph(30, 0.15, 2), count_orbits(er_graph(30, 0.15, 2)), rank=4, seed=1)
        G, H = emb.meta["factors"]
        assert G.min() >= 0
        assert H.min() >= 0

    def test_seed_bit_stable(self):
        g = er_graph(20, 0.2, 3)
        a = rolx_embed(g, count_orbits(g), rank=3, seed=9)
        b = rolx_embed(g, count_orbits(g), rank=3, seed=9)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rank_exceeding_features_rejected(self):
        with pytest.raises(EmbeddingError, match="rank"):
            rolx_embed(cycle_graph(8), count_orbits(cycle_graph(8)), rank=10, seed=0)

    def test_rank_below_two_rejected(self):
        with pytest.raises(EmbeddingError, match="rank"):
            rolx_embed(cycle_graph(8), count_orbits(cycle_graph(8)), rank=1, seed=0)

    def test_rows_l1_normalized(self):
        emb = rolx_embed(er_graph(25, 0.2, 4), count_orbits(er_graph(25, 0.2, 4)), rank=3, seed=2)
        sums = emb.vectors.sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0)

    def test_barbell_bridge_uses_distinct_factor(self):
        # bridge-center nodes must load on a different dominant factor than
        # clique members when rank matches the planted role count
        planted = generate_planted_graph([barbell_template(5, 3)], 10, seed=0)
        emb = rolx_embed(planted.graph, count_orbits(planted.graph), rank=3, seed=0)
        names = planted.role_names
        member = np.flatnonzero(planted.true_role == names.index("clique-member"))
        bridge = np.flatnonzero(planted.true_role == names.index("bridge-center"))
        member_factor = set(np.argmax(emb.vectors[member], axis=1).tolist())
        bridge_factor = set(np.argmax(emb.vectors[bridge], axis=1).tolist())
        assert member_factor.isdisjoint(bridge_factor)

    def test_permutation_equivariance(self):
        g = er_graph(18, 0.25, 6)
        perm = np.random.default_rng(1).permutation(18)
        ref = refex_features(g, count_orbits(g)).features
        ref_p = refex_features(
            permute_graph(g, perm), count_orbits(permute_graph(g, perm))
        ).features
        assert np.allclose(ref_p[perm], ref)
        # row-content-seeded NMF init makes the full embedding equivariant
        # up to float summation order
        emb = rolx_embed(g, count_orbits(g), rank=3, seed=5)
        emb_p = rolx_embed(
            permute_graph(g, perm), count_orbits(permute_graph(g, perm)), rank=3, seed=5
        )
        assert np.allclose(emb_p.vectors[perm], emb.vectors, atol=1e-9)

    @pytest.mark.parametrize("graph", ["barbell", "ba"])
    def test_per_key_loadings_equal_per_row_draws(self, graph):
        # one draw per distinct ReFeX row, copied to its rows, gives the
        # bits of one draw per row; the barbell repeats rows, BA n=400 not
        from embedding_reference import initial_loadings_per_row

        from orbitroles.embeddings import _nmf_multiplicative

        g = {
            "barbell": lambda: generate_planted_graph([barbell_template(5, 3)], 12, seed=0).graph,
            "ba": lambda: ba_graph(400, 4, 3),
        }[graph]()
        F = refex_features(g, count_orbits(g)).features
        distinct = np.unique(np.round(F, 9), axis=0).shape[0]
        assert (distinct < F.shape[0]) == (graph == "barbell")
        for rank, seed in ((3, 0), (4, 7)):
            G0, *_ = _nmf_multiplicative(F, rank, seed, max_iter=0, tol=1e-6)
            assert np.array_equal(G0, initial_loadings_per_row(F, rank, seed))


    @pytest.mark.parametrize("tol", [1e-6, 1e-3])
    @pytest.mark.parametrize("rank,seed", [(3, 0), (4, 7)])
    def test_distinct_rows_bit_equal_to_all_rows_without_repeats(self, rank, seed, tol):
        # BA n=400 repeats no ReFeX row: no weights, the row loop's bits
        from embedding_reference import nmf_multiplicative_rows

        from orbitroles.embeddings import _nmf_multiplicative

        g = ba_graph(400, 4, 3)
        F = refex_features(g, count_orbits(g)).features
        G, H, errors, converged, distinct = _nmf_multiplicative(F, rank, seed, 500, tol)
        G_ref, H_ref, errors_ref, converged_ref = nmf_multiplicative_rows(F, rank, seed, 500, tol)
        assert distinct == F.shape[0]
        assert np.array_equal(G, G_ref) and np.array_equal(H, H_ref)
        assert errors == errors_ref and converged == converged_ref

    @pytest.mark.parametrize("tol", [1e-6, 1e-3])
    @pytest.mark.parametrize("noise", [0, 5])
    @pytest.mark.parametrize("rank,seed", [(3, 0), (4, 7)])
    def test_distinct_rows_agree_with_all_rows_on_repeats(self, rank, seed, noise, tol):
        # weighted distinct rows are the row loop in exact arithmetic: the
        # same iterations and stop, loadings apart by rounding only
        from embedding_reference import nmf_multiplicative_rows

        from orbitroles.embeddings import _nmf_multiplicative

        g = generate_planted_graph([barbell_template(5, 3)], 24, noise_edges=noise, seed=0).graph
        F = refex_features(g, count_orbits(g)).features
        G, H, errors, converged, distinct = _nmf_multiplicative(F, rank, seed, 500, tol)
        G_ref, H_ref, errors_ref, converged_ref = nmf_multiplicative_rows(F, rank, seed, 500, tol)
        assert distinct == len({row.tobytes() for row in F}) < F.shape[0]
        assert len(errors) == len(errors_ref) and converged == converged_ref
        assert np.abs(G - G_ref).max() <= 1e-10
        assert np.abs(H - H_ref).max() <= 1e-10 * np.abs(H_ref).max()
        assert np.allclose(errors, errors_ref, rtol=1e-10, atol=0)

    def test_meta_counts_distinct_rows(self):
        planted = generate_planted_graph([barbell_template(5, 3)], 12, seed=0)
        emb = rolx_embed(planted.graph, count_orbits(planted.graph), rank=3, seed=0)
        F = refex_features(planted.graph, count_orbits(planted.graph)).features
        assert emb.meta["distinct_rows"] == len({row.tobytes() for row in F}) < F.shape[0]


class TestImport:
    def _table(self, n):
        return NodeTable(external_ids=[f"v{i}" for i in range(n)])

    def test_round_trip(self, tmp_path):
        g = er_graph(10, 0.3, 0)
        table = self._table(10)
        emb = graphwave_embed(g, scales=(0.5,), sample_points=4)
        path = tmp_path / "emb.csv"
        embedding_to_csv(emb, table, path)
        back = import_embedding(path, table)
        assert np.array_equal(back.vectors, emb.vectors)
        assert back.method_tag == "graphwave"

    def test_writer_bytes_equal_row_by_row_csv_writer(self, tmp_path):
        from embedding_reference import embedding_to_csv_rows

        table = NodeTable(external_ids=["", "a,b", 'q"x', "v3", " s"])
        vectors = np.array(
            [
                [-0.0, 1e-300, 123456789.0],
                [0.1, -2.5e-17, 1.0],
                [np.pi, -np.e, 0.0],
                [1e300, -1e-5, 2.0 / 3.0],
                [5e-324, 1e16, -123456789.0],
            ]
        )
        emb = EmbeddingMatrix(vectors=vectors, method_tag="graphwave")
        embedding_to_csv(emb, table, tmp_path / "new.csv")
        embedding_to_csv_rows(emb, table, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert (tmp_path / "new.csv").read_text().splitlines()[2].startswith(",-0.0,1e-300,")

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [0.0, 1.0]],  # differ by sign only
            [[np.nan, np.inf], [-np.inf, 5e-324], ["payload", np.inf], [np.nan, np.inf]],
            [[0.5], [0.5], [-0.0], [1e-300]],  # d = 1
            [],
        ],
        ids=["signed-zeros", "non-finite", "one-column", "no-rows"],
    )
    def test_shared_writer_bytes_equal_row_by_row_csv_writer(self, tmp_path, rows):
        # grouped by bytes, each row still writes as its own repr: -0.0
        # stays apart from 0.0 and a NaN with a payload from plain NaN
        from types import SimpleNamespace

        from embedding_reference import embedding_to_csv_rows

        payload_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        vectors = np.array(
            [[payload_nan if v == "payload" else v for v in row] for row in rows],
            dtype=np.float64,
        ).reshape(len(rows), -1 if rows else 3)
        ids = ["", "a,b", 'q"x', "v3"][: len(rows)]
        # a stand-in for EmbeddingMatrix, which refuses NaN and inf
        emb = SimpleNamespace(
            vectors=vectors, method_tag="graphwave", node_count=len(rows), d=vectors.shape[1]
        )
        table = NodeTable(external_ids=ids)
        embedding_to_csv(emb, table, tmp_path / "new.csv")
        embedding_to_csv_rows(emb, table, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_missing_node_named(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,e0\nv0,1.0\n")
        with pytest.raises(EmbeddingError, match="v1"):
            import_embedding(path, self._table(2))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,e0\nv0,oops\nv1,2.0\n")
        with pytest.raises(EmbeddingError, match="non-numeric"):
            import_embedding(path, self._table(2))

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,e0,e1\nv0,1.0,2.0\nv1,3.0\n")
        with pytest.raises(EmbeddingError, match="expected 3 cells"):
            import_embedding(path, self._table(2))

    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,e0\na,1.0\nb,2.0\na,9.0\n")
        table = NodeTable(external_ids=["a", "b"])
        with pytest.raises(EmbeddingError, match=r"emb\.csv:4: repeated id 'a'"):
            import_embedding(path, table)

    def test_method_tag_from_comment(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("# method=struc2vec\nid,e0,e1\nv0,1.0,2.0\nv1,3.0,4.0\n")
        emb = import_embedding(path, self._table(2))
        assert emb.method_tag == "struc2vec"
        assert emb.d == 2

    def test_imported_embedding_clusters_downstream(self, tmp_path):
        # an external embedding is a first-class citizen for clustering
        from orbitroles.clustering import kmeans

        path = tmp_path / "emb.csv"
        rows = ["# method=struc2vec", "id,e0,e1"]
        for i in range(6):
            rows.append(f"v{i},{float(i // 3 * 10)},{float(i // 3 * 10)}")
        path.write_text("\n".join(rows) + "\n")
        emb = import_embedding(path, self._table(6))
        labels = kmeans(emb, 2, seed=0).labels
        assert len(set(labels[:3].tolist())) == 1
        assert len(set(labels[3:].tolist())) == 1
        assert labels[0] != labels[3]
