import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitroles.clustering import (
    ClusteringError,
    RoleAssignment,
    _distance_block,
    _mean_silhouettes,
    assignment_seed,
    kmeans,
    roles_from_csv,
    roles_to_csv,
    silhouette_in_orbit_space,
    sweep,
)
from orbitroles.embeddings import EmbeddingMatrix
from orbitroles.graph import NodeTable
from orbitroles.orbits import LogOrbitMatrix, count_orbits, log_transform
from orbitroles.planted import barbell_template, generate_planted_graph
from orbitroles.seeds import derive_seed

from clustering_reference import kmeans_broadcast, mean_silhouettes_one_hot, roles_to_csv_rows
from util import ba_graph, nmi


def emb(points, tag="test"):
    return EmbeddingMatrix(vectors=np.asarray(points, dtype=float), method_tag=tag)


def orbit_features(points):
    """Pad arbitrary 2-d points into a 73-wide log-orbit-shaped matrix."""
    points = np.asarray(points, dtype=float)
    values = np.zeros((points.shape[0], 73))
    values[:, : points.shape[1]] = np.abs(points)
    return LogOrbitMatrix(values=values)


class TestKmeans:
    def test_two_separated_clouds(self):
        rng = np.random.default_rng(0)
        a = rng.normal((0, 0), 0.1, size=(40, 2))
        b = rng.normal((10, 10), 0.1, size=(40, 2))
        assignment = kmeans(emb(np.vstack([a, b])), 2, seed=1)
        labels = assignment.labels
        assert len(set(labels[:40].tolist())) == 1
        assert len(set(labels[40:].tolist())) == 1
        assert labels[0] != labels[40]
        # centroid recovery within 0.1
        for target in [(0, 0), (10, 10)]:
            members = np.abs(
                np.vstack([a, b]) - np.asarray(target)
            ).max(axis=1) < 1.0
            centroid = np.vstack([a, b])[members & (labels == labels[np.flatnonzero(members)[0]])].mean(axis=0)
            assert np.abs(centroid - np.asarray(target)).max() < 0.1

    def test_identical_points_degenerate(self):
        assignment = kmeans(emb(np.ones((12, 3))), 2, seed=0)
        assert assignment.degenerate
        assert assignment.k_effective == 1
        assert len(set(assignment.labels.tolist())) == 1

    def test_wcss_trajectory_non_increasing(self):
        rng = np.random.default_rng(2)
        assignment = kmeans(emb(rng.normal(size=(100, 4))), 5, seed=3)
        traj = assignment.meta["wcss_trajectory"]
        for prev, cur in zip(traj, traj[1:]):
            assert cur <= prev * (1 + 1e-9) + 1e-12

    def test_seed_stability(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 3))
        a = kmeans(emb(X), 4, seed=11)
        b = kmeans(emb(X), 4, seed=11)
        assert np.array_equal(a.labels, b.labels)

    def test_k_bounds(self):
        X = np.zeros((5, 2))
        with pytest.raises(ClusteringError):
            kmeans(emb(X), 1, seed=0)
        with pytest.raises(ClusteringError):
            kmeans(emb(X), 6, seed=0)

    def test_labels_within_range(self):
        rng = np.random.default_rng(5)
        assignment = kmeans(emb(rng.normal(size=(30, 2))), 3, seed=0)
        assert assignment.labels.min() >= 0
        assert assignment.labels.max() < 3

    def test_reseed_cycle_stops(self):
        # 6 distinct rows, k > 6: each re-seeded centroid lands on a row
        # another centroid holds, so a cluster empties on every iteration
        # at a constant WCSS; the run used to take all 300 iterations
        X = np.repeat(np.random.default_rng(1).normal(size=(6, 4)), 20, axis=0)
        for k in range(7, 20):
            assignment = kmeans(emb(X), k, seed=1)
            assert len(assignment.meta["wcss_trajectory"]) < 300
            assert assignment.degenerate and assignment.k_effective == 6
            assert not assignment.meta["stopped_at_max_iter"]
        assert kmeans(emb(X), 6, seed=1).k_effective == 6

    def test_stop_at_max_iter_recorded(self):
        # a run whose stop rule fires on its last allowed iteration has not
        # stopped at the cap; one iteration fewer has
        X = emb(np.random.default_rng(6).normal(size=(200, 3)))
        free = kmeans(X, 6, seed=2)
        iters = len(free.meta["wcss_trajectory"])
        assert iters > 2 and not free.meta["stopped_at_max_iter"]
        assert not kmeans(X, 6, seed=2, max_iter=iters).meta["stopped_at_max_iter"]
        capped = kmeans(X, 6, seed=2, max_iter=iters - 1)
        assert capped.meta["stopped_at_max_iter"]
        assert capped.meta["wcss_trajectory"] == free.meta["wcss_trajectory"][:-1]


def assert_same_run(got, want):
    assert np.array_equal(got.labels, want.labels)
    assert got.meta["wcss_trajectory"] == want.meta["wcss_trajectory"]
    assert got.degenerate == want.degenerate
    assert got.k_effective == want.k_effective


@pytest.fixture(scope="module")
def reference_embeddings():
    """GraphWave and RolX embeddings of a BA graph and a barbell corpus."""
    from orbitroles.embeddings import graphwave_embed, rolx_embed

    graphs = {
        "ba": ba_graph(300, 4, 3),
        "barbell": generate_planted_graph([barbell_template(5, 3)], 12, seed=0).graph,
    }
    out = {}
    for name, graph in graphs.items():
        out[f"{name}-graphwave"] = graphwave_embed(graph)
        out[f"{name}-rolx"] = rolx_embed(graph, count_orbits(graph), rank=4, seed=1)
    return out


class TestKmeansReference:
    """The GEMM screen against the exact n x k x d loop it replaced: equal
    labels, WCSS trajectories and degeneracy, whichever way the BLAS
    rounds X @ C^T."""

    @pytest.mark.parametrize(
        "name", ["ba-graphwave", "ba-rolx", "barbell-graphwave", "barbell-rolx"]
    )
    def test_embeddings_all_k(self, reference_embeddings, name):
        e = reference_embeddings[name]
        for k in range(2, 20):
            assert_same_run(kmeans(e, k, seed=k), kmeans_broadcast(e, k, seed=k))

    @pytest.mark.parametrize(
        "case", ["offset-1e6", "offset-1e3", "repeated-points", "integer-grid"]
    )
    def test_near_ties_are_rechecked(self, reference_embeddings, case):
        # inputs whose GEMM distances cannot separate some rows: a large
        # common offset (every row, or some), tied centroids from repeated
        # points, and equidistant grid points
        gw = reference_embeddings["ba-graphwave"].vectors
        X = {
            "offset-1e6": gw + 1e6,
            "offset-1e3": gw + 1e3,
            "repeated-points": np.repeat(
                np.random.default_rng(0).normal(size=(6, 4)), 20, axis=0
            ),
            "integer-grid": np.array([(i, j) for i in range(10) for j in range(10)], float),
        }[case]
        rechecked = 0
        for k in range(2, 20):
            got = kmeans(emb(X), k, seed=k)
            assert_same_run(got, kmeans_broadcast(emb(X), k, seed=k))
            steps = len(got.meta["wcss_trajectory"])
            assert 0 <= got.meta["rechecked_rows"] <= steps * X.shape[0]
            if case == "offset-1e6":
                assert got.meta["rechecked_rows"] == steps * X.shape[0]
            rechecked += got.meta["rechecked_rows"]
        assert rechecked > 0

    @pytest.mark.parametrize("method", ["graphwave", "rolx"])
    def test_planted_corpus_with_repeated_rows(self, method):
        # 30 barbells and two noise edges: most nodes share their row with
        # nodes of other copies, and the seeding and assignment run over
        # the distinct rows only. RolX has 11 of them, so at k = 12..19
        # empty clusters are re-seeded onto rows other centroids hold
        from orbitroles.embeddings import graphwave_embed, rolx_embed

        g = generate_planted_graph([barbell_template(5, 5)], 30, noise_edges=2, seed=0).graph
        e = (
            graphwave_embed(g)
            if method == "graphwave"
            else rolx_embed(g, count_orbits(g), rank=4, seed=1)
        )
        runs = {k: kmeans(e, k, seed=k) for k in range(2, 20)}
        for k, got in runs.items():
            assert_same_run(got, kmeans_broadcast(e, k, seed=k))
            assert got.meta["distinct_rows"] == len({row.tobytes() for row in e.vectors})
        assert runs[2].meta["distinct_rows"] < g.node_count // 5
        if method == "rolx":
            assert [k for k, got in runs.items() if got.degenerate] == list(range(12, 20))

    def test_empty_cluster_reseed(self):
        got = kmeans(emb(np.ones((12, 3))), 2, seed=0)
        assert_same_run(got, kmeans_broadcast(emb(np.ones((12, 3))), 2, seed=0))
        assert got.degenerate

    def test_separated_rows_skip_the_recheck(self, reference_embeddings):
        got = kmeans(reference_embeddings["ba-graphwave"], 8, seed=8)
        assert got.meta["rechecked_rows"] == 0


class TestSilhouette:
    def hand_silhouette(self, points, labels):
        """Direct evaluation of the definition, for 4-point style cases."""
        points = np.asarray(points, float)
        n = len(points)
        scores = []
        for i in range(n):
            own = [j for j in range(n) if labels[j] == labels[i] and j != i]
            if not own:
                scores.append(0.0)
                continue
            a = np.mean([np.linalg.norm(points[i] - points[j]) for j in own])
            b = min(
                np.mean(
                    [
                        np.linalg.norm(points[i] - points[j])
                        for j in range(n)
                        if labels[j] == other
                    ]
                )
                for other in set(labels)
                if other != labels[i]
            )
            scores.append((b - a) / max(a, b))
        return float(np.mean(scores))

    def test_hand_computed_four_points(self):
        pts = [(0.0, 0.0), (0.0, 1.0), (10.0, 10.0), (10.0, 11.0)]
        labels = np.array([0, 0, 1, 1])
        expected = self.hand_silhouette(pts, labels)
        assert expected == pytest.approx(0.9292895427118657, abs=1e-6)
        assignment = RoleAssignment(labels=labels, k=2, method_tag="t", seed=0)
        got = silhouette_in_orbit_space([assignment], orbit_features(pts))[0][0]
        assert got == pytest.approx(expected, abs=1e-6)

    def test_random_labels_near_zero(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(300, 5))
        labels = rng.integers(0, 3, size=300)
        assignment = RoleAssignment(labels=labels, k=3, method_tag="t", seed=0)
        score = silhouette_in_orbit_space([assignment], orbit_features(pts))[0][0]
        assert abs(score) < 0.1

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_bounds(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(30, 3))
        labels = rng.integers(0, k, size=30)
        if np.unique(labels).size < 2:
            return
        assignment = RoleAssignment(
            labels=labels, k=int(labels.max()) + 1, method_tag="t", seed=0
        )
        score = silhouette_in_orbit_space([assignment], orbit_features(pts))[0][0]
        assert -1.0 <= score <= 1.0

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(40, 3))
        labels = rng.integers(0, 3, size=40)
        labels[:3] = [0, 1, 2]
        a = RoleAssignment(labels=labels, k=3, method_tag="t", seed=0)
        swapped = np.array([{0: 2, 1: 0, 2: 1}[int(x)] for x in labels])
        b = RoleAssignment(labels=swapped, k=3, method_tag="t", seed=0)
        sa = silhouette_in_orbit_space([a], orbit_features(pts))[0][0]
        sb = silhouette_in_orbit_space([b], orbit_features(pts))[0][0]
        assert sa == pytest.approx(sb, abs=1e-12)

    def test_singleton_cluster_contributes_zero(self):
        pts = [(0.0, 0.0), (0.0, 0.1), (5.0, 5.0)]
        labels = np.array([0, 0, 1])
        assignment = RoleAssignment(labels=labels, k=2, method_tag="t", seed=0)
        score = silhouette_in_orbit_space([assignment], orbit_features(pts))[0][0]
        expected = self.hand_silhouette(pts, labels)
        assert score == pytest.approx(expected, abs=1e-12)

    def test_single_cluster_rejected(self):
        assignment = RoleAssignment(
            labels=np.zeros(5, dtype=int), k=1, method_tag="t", seed=0
        )
        with pytest.raises(ClusteringError, match="two populated"):
            silhouette_in_orbit_space([assignment], orbit_features(np.zeros((5, 2))))

    def test_misaligned_rejected(self):
        assignment = RoleAssignment(labels=np.array([0, 1]), k=2, method_tag="t", seed=0)
        with pytest.raises(ClusteringError, match="misaligned"):
            silhouette_in_orbit_space([assignment], orbit_features(np.zeros((3, 2))))

    def test_sampled_path_deterministic(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(120, 3))
        labels = rng.integers(0, 2, size=120)
        assignment = RoleAssignment(labels=labels, k=2, method_tag="t", seed=0)
        a = silhouette_in_orbit_space([assignment], orbit_features(pts), sample_cap=60, seed=5)[0][0]
        b = silhouette_in_orbit_space([assignment], orbit_features(pts), sample_cap=60, seed=5)[0][0]
        assert a == b
        assert -1.0 <= a <= 1.0

    def test_single_cluster_in_sample_names_the_assignment(self):
        # the second labelling's other cluster holds one node, outside the
        # sample: among the scored nodes it has one populated cluster
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(100, 3))
        keep = np.random.default_rng(5).choice(100, size=10, replace=False)
        lone = int(np.setdiff1d(np.arange(100), keep)[0])
        good = RoleAssignment(labels=np.arange(100) % 2, k=2, method_tag="m0", seed=0)
        labels = np.zeros(100, dtype=int)
        labels[lone] = 2
        bad = RoleAssignment(labels=labels, k=3, method_tag="m1", seed=0)
        with pytest.raises(ClusteringError, match="m1 k=3: .*two populated"):
            silhouette_in_orbit_space([good, bad], orbit_features(pts), sample_cap=10, seed=5)


def loop_silhouette(X, labels, sample_cap=20000, seed=0):
    """The per-row loop silhouette that the shared-pass scorer replaced;
    kept as the reference it must agree with."""
    n = X.shape[0]
    if n > sample_cap:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(n, size=sample_cap, replace=False))
        X = X[keep]
        labels = labels[keep]
        n = sample_cap
    present = np.unique(labels)
    members = {int(c): np.flatnonzero(labels == c) for c in present}
    scores = np.zeros(n)
    chunk = max(1, min(n, 2_000_000 // max(n, 1)))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        block = X[start:stop]
        d = np.sqrt(
            np.maximum(
                (block**2).sum(axis=1)[:, None]
                - 2 * block @ X.T
                + (X**2).sum(axis=1)[None, :],
                0.0,
            )
        )
        own_row = np.arange(stop - start)
        d[own_row, own_row + start] = 0.0
        for row, v in enumerate(range(start, stop)):
            own = int(labels[v])
            own_idx = members[own]
            if own_idx.size == 1:
                scores[v] = 0.0
                continue
            a = d[row, own_idx].sum() / (own_idx.size - 1)
            b = min(
                d[row, members[other]].mean()
                for other in members
                if other != own
            )
            denom = max(a, b)
            scores[v] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())


class TestSilhouetteReference:
    """The shared-pass scorer against the per-row loop, within 1e-12."""

    def check(self, values, labels, k, sample_cap=20000, seed=0):
        feats = LogOrbitMatrix(values=np.asarray(values, dtype=float))
        labels = np.asarray(labels, dtype=np.int64)
        assignment = RoleAssignment(labels=labels, k=k, method_tag="t", seed=0)
        got = silhouette_in_orbit_space(
            [assignment], feats, sample_cap=sample_cap, seed=seed
        )[0][0]
        want = loop_silhouette(feats.values, labels, sample_cap, seed)
        assert abs(got - want) <= 1e-12, (got, want)
        return got

    def test_several_row_blocks(self):
        # 2_000_000 // 1500 = 1333 rows per block: two blocks
        rng = np.random.default_rng(10)
        values = np.log1p(rng.poisson(3.0, size=(1500, 73)))
        labels = rng.integers(0, 5, size=1500)
        self.check(values, labels, 5)

    def test_singleton_clusters(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(60, 73))
        labels = rng.integers(0, 3, size=60)
        labels[[5, 17]] = [3, 4]
        self.check(values, labels, 5)

    def test_duplicate_points(self):
        # whole clusters of identical points: a = b = 0 for nodes of the
        # two coincident clusters, and a = 0 < b for the third
        values = np.zeros((30, 73))
        values[20:, :4] = [1.0, 2.0, 0.0, 3.0]
        labels = np.repeat([0, 1, 2], 10)
        score = self.check(values, labels, 3)
        assert score == pytest.approx(1 / 3, abs=1e-12)

    def test_labels_with_gaps(self):
        # a degenerate k-means leaves clusters 1, 3 and 4 empty
        rng = np.random.default_rng(12)
        values = rng.normal(size=(90, 73))
        labels = rng.choice([0, 2, 5], size=90)
        self.check(values, labels, 6)

    def test_sampled_path(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=(400, 73))
        labels = rng.integers(0, 4, size=400)
        self.check(values, labels, 4, sample_cap=150, seed=21)

    def test_distance_block_bit_identical(self):
        rng = np.random.default_rng(14)
        X = np.log1p(rng.poisson(2.0, size=(300, 73)).astype(float))
        X[:50] = rng.normal(size=(50, 73))
        sq = (X**2).sum(axis=1)
        out = np.empty((120, 300))
        for start, stop in [(0, 120), (120, 240), (240, 300)]:
            block = X[start:stop]
            want = np.sqrt(
                np.maximum(
                    (block**2).sum(axis=1)[:, None]
                    - 2 * block @ X.T
                    + (X**2).sum(axis=1)[None, :],
                    0.0,
                )
            )
            got = _distance_block(X, sq, start, stop, out[: stop - start])
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sample_cap", [20000, 50])
    def test_sweep_equals_call_per_cell(self, sample_cap):
        rng = np.random.default_rng(15)
        embeddings = [emb(rng.normal(size=(80, 3)), tag=f"m{i}") for i in range(2)]
        feats = orbit_features(rng.normal(size=(80, 6)))
        result = sweep(embeddings, range(2, 7), feats, seed=4, sample_cap=sample_cap)
        assert len(result.rows) == 10
        for (method, k, score, sampled), (e, kk) in zip(
            result.rows, [(e, kk) for e in embeddings for kk in range(2, 7)]
        ):
            assert (method, k, sampled) == (e.method_tag, kk, sample_cap < 80)
            assignment = kmeans(e, k, seed=assignment_seed(4, method, k))
            # every cell is scored on the one sample of the shared seed
            one = silhouette_in_orbit_space(
                [assignment],
                feats,
                sample_cap=sample_cap,
                seed=derive_seed(4, "silhouette"),
            )[0][0]
            assert abs(score - one) <= 1e-12


class TestSilhouetteReferenceDistinctRows:
    """The pass over the distinct rows of X: the bits of the n x n one-hot
    pass when no row repeats, the per-row loop's value when rows repeat."""

    @pytest.mark.parametrize("case", ["several_row_blocks", "labels_with_gaps", "singletons"])
    def test_no_repeated_row_bit_equal_to_one_hot_pass(self, case):
        rng = np.random.default_rng(31)
        if case == "several_row_blocks":
            # 2_000_000 // 1500 = 1333 rows per block: two blocks
            X = np.log1p(rng.poisson(3.0, size=(1500, 73)).astype(float))
            label_sets = [rng.integers(0, k, size=1500) for k in (2, 5, 9)]
        elif case == "labels_with_gaps":
            X = rng.normal(size=(90, 73))
            label_sets = [rng.choice([0, 2, 5], size=90), rng.choice([1, 4], size=90)]
        else:
            X = rng.normal(size=(60, 73))
            labels = rng.integers(0, 3, size=60)
            labels[[5, 17]] = [3, 4]
            label_sets = [labels, np.minimum(np.arange(60), 40)]
        got, distinct = _mean_silhouettes(X, label_sets)
        assert distinct == X.shape[0]
        assert np.array_equal(got, mean_silhouettes_one_hot(X, label_sets))

    @staticmethod
    def repeated(rng, n, distinct):
        """n rows drawn from ``distinct`` rows of orbit counts, and each
        node's row index."""
        base = rng.poisson(2.0, size=(distinct, 73)).astype(float)
        which = rng.integers(0, distinct, size=n)
        return base[which], which

    @pytest.mark.parametrize(
        "case", ["split_copies", "cluster_of_one_row", "singletons", "several_row_blocks"]
    )
    def test_repeated_rows_match_loop(self, case):
        # Rows of small integers keep the GEMM form exact: every product,
        # norm and squared distance is an integer below 2**53, so copies of
        # a row are at distance 0 and each pair's distance has the same bits
        # in both passes. They differ only in the order of the sums, by a
        # few ulps of each a and b; a count off by one copy moves the mean
        # by about 1e-3. (On log rows, copies are about sqrt(eps) |x| apart
        # in the GEMM form, and the loop adds that once per copy.)
        rng = np.random.default_rng(32)
        X, which = self.repeated(rng, 400, 12)
        if case == "several_row_blocks":
            # 1,500 distinct rows: two blocks of 2_000_000 // 1500 = 1333
            X = np.vstack([rng.integers(0, 20, size=(1500, 73)).astype(float), X])
            labels = rng.integers(0, 4, size=1900)
        elif case == "split_copies":
            labels = rng.integers(0, 4, size=400)
        elif case == "cluster_of_one_row":
            labels = np.where(which == 0, 3, which % 3)
        else:
            X = np.vstack([X, rng.integers(0, 20, size=(2, 73)).astype(float)])
            labels = np.concatenate([which % 4, [4, 5]])
        got, distinct = _mean_silhouettes(X, [labels])
        assert distinct == np.unique(X, axis=0).shape[0] < X.shape[0]
        assert abs(got[0] - loop_silhouette(X, labels)) <= 1e-12

    def test_copies_of_a_row_at_distance_zero(self):
        # each cluster holds three copies of one row: a = 0 and b > 0 for
        # every node, so every score is exactly 1, whatever rounding the
        # GEMM form leaves on a row's distance to itself (up to 3e-7 on
        # some of these rows)
        rng = np.random.default_rng(35)
        base = rng.normal(size=(40, 73))
        labels = np.repeat(np.arange(40), 3)
        X = base[labels]
        got, distinct = _mean_silhouettes(X, [labels])
        assert distinct == 40
        assert got[0] == 1.0
        assignment = RoleAssignment(labels=labels, k=40, method_tag="t", seed=0)
        assert silhouette_in_orbit_space([assignment], LogOrbitMatrix(values=X))[0][0] == 1.0

    @pytest.mark.parametrize("sample_cap, want", [(20000, 9), (50, None)])
    def test_sweep_reports_distinct_rows_of_exact_pass(self, sample_cap, want):
        # None: the distinct rows among the nodes of the shared sample
        rng = np.random.default_rng(34)
        X, _ = self.repeated(rng, 80, 9)
        assert np.unique(X, axis=0).shape[0] == 9
        embeddings = [emb(rng.normal(size=(80, 3)))]
        result = sweep(embeddings, range(2, 4), LogOrbitMatrix(values=X), sample_cap=sample_cap)
        if want is None:
            keep = np.random.default_rng(derive_seed(0, "silhouette")).choice(
                80, size=sample_cap, replace=False
            )
            want = np.unique(X[keep], axis=0).shape[0]
        assert result.distinct_rows == want


class TestSweep:
    def test_row_count_small(self):
        rng = np.random.default_rng(1)
        e = emb(rng.normal(size=(20, 2)), tag="m0")
        result = sweep([e], range(2, 5), orbit_features(rng.normal(size=(20, 2))))
        assert len(result.rows) == 3

    def test_row_count_four_methods_full_range(self):
        rng = np.random.default_rng(2)
        embeddings = [emb(rng.normal(size=(25, 2)), tag=f"m{i}") for i in range(4)]
        result = sweep(
            embeddings, range(2, 20), orbit_features(rng.normal(size=(25, 2)))
        )
        assert len(result.rows) == 72

    def test_planted_argmax_k_matches_role_count(self):
        from orbitroles.embeddings import graphwave_embed

        planted = generate_planted_graph([barbell_template(5, 3)], 8, seed=0)
        features = log_transform(count_orbits(planted.graph))
        gw = graphwave_embed(planted.graph)
        result = sweep([gw], range(2, 7), features, seed=3)
        assert max((s, k) for m, k, s, _ in result.rows if m == "graphwave")[1] == 3
        assignment = kmeans(gw, 3, seed=1)
        assert nmi(assignment.labels, planted.true_role) >= 0.9

    def test_cells_keep_their_assignments(self):
        rng = np.random.default_rng(8)
        embeddings = [emb(rng.normal(size=(30, 3)), tag=f"m{i}") for i in range(2)]
        result = sweep(embeddings, range(2, 5), orbit_features(rng.normal(size=(30, 2))), seed=6)
        assert sorted(result.assignments) == [(m, k) for m in ("m0", "m1") for k in (2, 3, 4)]
        for e in embeddings:
            for k in range(2, 5):
                alone = kmeans(e, k, seed=assignment_seed(6, e.method_tag, k))
                assert_same_run(result.assignments[e.method_tag, k], alone)

    def test_rows_deterministic(self):
        rng = np.random.default_rng(3)
        e = emb(rng.normal(size=(20, 2)), tag="m0")
        feats = orbit_features(rng.normal(size=(20, 2)))
        assert sweep([e], range(2, 4), feats, seed=1).rows == sweep(
            [e], range(2, 4), feats, seed=1
        ).rows

    def test_thread_count_does_not_change_rows(self):
        rng = np.random.default_rng(6)
        embeddings = [emb(rng.normal(size=(30, 3)), tag=f"m{i}") for i in range(2)]
        feats = orbit_features(rng.normal(size=(30, 2)))
        serial = sweep(embeddings, range(2, 6), feats, seed=2, threads=1)
        threaded = sweep(embeddings, range(2, 6), feats, seed=2, threads=4)
        assert serial.rows == threaded.rows

    def test_empty_inputs_rejected(self):
        with pytest.raises(ClusteringError):
            sweep([], range(2, 4), orbit_features(np.zeros((5, 2))))
        with pytest.raises(ClusteringError):
            sweep([emb(np.zeros((5, 2)))], range(5, 2), orbit_features(np.zeros((5, 2))))

    def test_csv_shape(self, tmp_path):
        rng = np.random.default_rng(4)
        e = emb(rng.normal(size=(15, 2)), tag="m0")
        result = sweep([e], range(2, 4), orbit_features(rng.normal(size=(15, 2))))
        path = tmp_path / "sweep.csv"
        result.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "method,k,silhouette,sampled"
        assert len(lines) == 3


class TestRolesCsv:
    def test_repeated_id_rejected(self, tmp_path):
        path = tmp_path / "roles.csv"
        path.write_text("# method=graphwave k=2 seed=0\nid,role\na,0\nb,1\na,1\n")
        table = NodeTable(external_ids=["a", "b"])
        with pytest.raises(ClusteringError, match=r"roles\.csv:5: repeated id 'a'"):
            roles_from_csv(path, table)

    def test_round_trip(self, tmp_path):
        table = NodeTable(external_ids=[f"v{i}" for i in range(6)])
        assignment = RoleAssignment(
            labels=np.array([0, 1, 2, 0, 1, 2]), k=3, method_tag="graphwave", seed=7
        )
        path = tmp_path / "roles.csv"
        roles_to_csv(assignment, table, path)
        back, ids = roles_from_csv(path, table)
        assert np.array_equal(back.labels, assignment.labels)
        assert back.k == 3
        assert back.method_tag == "graphwave"
        assert back.seed == 7
        assert ids == table.external_ids

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_bytes_equal_row_by_row_csv_writer(self, tmp_path, n):
        # ids that csv.writer quotes or leaves empty, one that starts with
        # the comment marker, and repeated labels, formatted once each
        ids = ["#d", "a,b", 'q"x', "", " s", "v5", "v6"][:n]
        table = NodeTable(external_ids=ids)
        assignment = RoleAssignment(
            labels=np.array([2, 0, 2, 1, 0, 11, 2][:n]),
            k=12,
            method_tag="graphwave",
            seed=-3,
            degenerate=True,
        )
        roles_to_csv(assignment, table, tmp_path / "new.csv")
        roles_to_csv_rows(assignment, table, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
