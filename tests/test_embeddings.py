import numpy as np
import pytest

from orbitroles.embeddings import (
    EmbeddingError,
    EmbeddingMatrix,
    embedding_to_csv,
    graphwave_embed,
    import_embedding,
    refex_features,
    rolx_embed,
)
from orbitroles.graph import Graph, NodeTable
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

    def test_width_assertion(self):
        g = er_graph(8, 0.4, 0)
        assert graphwave_embed(g, d=128).d == 128
        with pytest.raises(EmbeddingError, match="inconsistent"):
            graphwave_embed(g, d=100)

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
            lap = embeddings._component_laplacian(g, comp)
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
            ((0.5, 1.5, 3.0), 32, 100.0, 64),  # several column blocks
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

    def test_repeat_runs_identical(self):
        g = er_graph(20, 0.2, 4)
        a = graphwave_embed(g)
        b = graphwave_embed(g)
        assert np.abs(a.vectors - b.vectors).max() <= 1e-12

    def test_no_nan_on_disconnected_graph(self):
        g = Graph.from_edges(6, [(0, 1), (2, 3)])
        emb = graphwave_embed(g)
        assert np.isfinite(emb.vectors).all()


class TestRefex:
    def test_base_features(self):
        g = star_graph(3)
        refex = refex_features(g, depth=0)
        deg, internal, boundary = refex.features[:, :3].T
        assert deg[3] == 3
        assert internal[3] == 3  # star egonet of the center has its 3 edges
        assert internal[0] == 1 and boundary[0] == 2

    def test_triangle_egonet(self):
        refex = refex_features(complete_graph(3), depth=0)
        assert list(refex.features[0][:3]) == [2, 3, 0]

    def test_recursion_appends_and_prunes(self):
        g = er_graph(25, 0.2, 5)
        shallow = refex_features(g, depth=0)
        deep = refex_features(g, depth=2)
        assert deep.features.shape[1] >= shallow.features.shape[1]
        assert len(set(deep.column_names)) == len(deep.column_names)
        # regular structure prunes aggregates of constant columns entirely
        ring = refex_features(cycle_graph(10), depth=2)
        assert ring.features.shape[1] == 3
        assert ring.generation == 0


class TestRolx:
    def test_regular_graph_rows_identical(self):
        emb = rolx_embed(cycle_graph(12), rank=2, seed=0)
        assert np.abs(emb.vectors - emb.vectors[0]).max() < 1e-8

    def test_nmf_error_non_increasing(self):
        emb = rolx_embed(er_graph(30, 0.15, 2), rank=4, seed=1)
        errors = emb.meta["nmf_errors"]
        assert len(errors) >= 2
        for prev, cur in zip(errors, errors[1:]):
            assert cur <= prev * (1 + 1e-10) + 1e-12

    def test_factors_non_negative(self):
        emb = rolx_embed(er_graph(30, 0.15, 2), rank=4, seed=1)
        G, H = emb.meta["factors"]
        assert G.min() >= 0
        assert H.min() >= 0

    def test_seed_bit_stable(self):
        g = er_graph(20, 0.2, 3)
        a = rolx_embed(g, rank=3, seed=9)
        b = rolx_embed(g, rank=3, seed=9)
        assert np.array_equal(a.vectors, b.vectors)

    def test_rank_exceeding_features_rejected(self):
        with pytest.raises(EmbeddingError, match="rank"):
            rolx_embed(cycle_graph(8), rank=10, seed=0)

    def test_rank_below_two_rejected(self):
        with pytest.raises(EmbeddingError, match="rank"):
            rolx_embed(cycle_graph(8), rank=1, seed=0)

    def test_rows_l1_normalized(self):
        emb = rolx_embed(er_graph(25, 0.2, 4), rank=3, seed=2)
        sums = emb.vectors.sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0)

    def test_barbell_bridge_uses_distinct_factor(self):
        # bridge-center nodes must load on a different dominant factor than
        # clique members when rank matches the planted role count
        planted = generate_planted_graph([barbell_template(5, 3)], 10, seed=0)
        emb = rolx_embed(planted.graph, rank=3, seed=0)
        names = planted.role_names
        member = np.flatnonzero(planted.true_role == names.index("clique-member"))
        bridge = np.flatnonzero(planted.true_role == names.index("bridge-center"))
        member_factor = set(np.argmax(emb.vectors[member], axis=1).tolist())
        bridge_factor = set(np.argmax(emb.vectors[bridge], axis=1).tolist())
        assert member_factor.isdisjoint(bridge_factor)

    def test_permutation_equivariance(self):
        g = er_graph(18, 0.25, 6)
        perm = np.random.default_rng(1).permutation(18)
        ref = refex_features(g).features
        ref_p = refex_features(permute_graph(g, perm)).features
        assert np.allclose(ref_p[perm], ref)
        # row-content-seeded NMF init makes the full embedding equivariant
        # up to float summation order
        emb = rolx_embed(g, rank=3, seed=5)
        emb_p = rolx_embed(permute_graph(g, perm), rank=3, seed=5)
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
        F = refex_features(g).features
        distinct = np.unique(np.round(F, 9), axis=0).shape[0]
        assert (distinct < F.shape[0]) == (graph == "barbell")
        for rank, seed in ((3, 0), (4, 7)):
            G0, *_ = _nmf_multiplicative(F, rank, seed, max_iter=0, tol=1e-6)
            assert np.array_equal(G0, initial_loadings_per_row(F, rank, seed))


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
