import re

import numpy as np
import pytest

from orbitroles.orbits import LogOrbitMatrix, count_orbits, log_transform
from orbitroles.planted import barbell_template, generate_planted_graph
from orbitroles.surrogate import (
    SurrogateError,
    effect_curve,
    orbit3_threshold,
    permutation_importance,
    refit_on_subpopulation,
    train_surrogate,
    write_effect_curves,
)

from util import complete_graph, er_graph, path_graph, step_location


def synthetic_features(n, seed, informative=None):
    """73-wide log-count-shaped matrix: noise columns, optionally one
    informative column at index 0."""
    rng = np.random.default_rng(seed)
    values = np.log1p(rng.poisson(3.0, size=(n, 73)).astype(float))
    if informative is not None:
        values[:, 0] = informative
    return LogOrbitMatrix(values=values)


class TestTrainSurrogate:
    def test_threshold_labels_high_accuracy(self):
        rng = np.random.default_rng(0)
        degrees = np.log1p(rng.integers(1, 40, size=600).astype(float))
        features = synthetic_features(600, 1, informative=degrees)
        labels = (degrees > np.median(degrees)).astype(int)
        model = train_surrogate(features, labels, trees=60, seed=2)
        assert model.holdout_accuracy >= 0.99

    def test_random_labels_chance_accuracy(self):
        features = synthetic_features(1500, 3)
        labels = np.random.default_rng(4).integers(0, 4, size=1500)
        model = train_surrogate(features, labels, trees=40, seed=5)
        assert abs(model.holdout_accuracy - 0.25) <= 0.05

    def test_planted_roles_predictable_from_orbits(self):
        planted = generate_planted_graph([barbell_template(5, 3)], 12, seed=0)
        features = log_transform(count_orbits(planted.graph))
        model = train_surrogate(features, planted.true_role, trees=60, seed=1)
        assert model.holdout_accuracy >= 0.95

    def test_single_class_rejected(self):
        features = synthetic_features(50, 0)
        with pytest.raises(SurrogateError, match="two classes"):
            train_surrogate(features, np.zeros(50, dtype=int), trees=5, seed=0)

    def test_length_mismatch_rejected(self):
        features = synthetic_features(50, 0)
        with pytest.raises(SurrogateError, match="rows"):
            train_surrogate(features, np.zeros(49, dtype=int), trees=5, seed=0)

    def test_tree_count_checked(self):
        features = synthetic_features(50, 0)
        labels = (features.values[:, 0] > 1).astype(int)
        for trees in (0, -3):
            with pytest.raises(SurrogateError, match="trees must be >= 1"):
                train_surrogate(features, labels, trees=trees, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_holdout_fraction_checked(self, fraction):
        features = synthetic_features(50, 0)
        labels = (features.values[:, 0] > 1).astype(int)
        with pytest.raises(SurrogateError, match="holdout_fraction"):
            train_surrogate(features, labels, trees=3, seed=0, holdout_fraction=fraction)

    def test_nan_features_rejected(self):
        features = synthetic_features(50, 0)
        labels = (features.values[:, 0] > 1).astype(int)
        features.values[7, 12] = np.nan
        with pytest.raises(SurrogateError, match="NaN"):
            train_surrogate(features, labels, trees=3, seed=0)

    def test_seed_bit_stable(self):
        features = synthetic_features(200, 6)
        labels = (features.values[:, 1] > np.median(features.values[:, 1])).astype(int)
        a = train_surrogate(features, labels, trees=20, seed=9)
        b = train_surrogate(features, labels, trees=20, seed=9)
        assert np.array_equal(a.predict(features), b.predict(features))
        assert a.holdout_accuracy == b.holdout_accuracy

    @pytest.mark.parametrize("width", [50, 74])
    def test_features_of_another_width_rejected(self, width):
        # a walk reads X at row * columns + feature: 50 columns would read
        # the next row's cells, or past the end of X
        features = synthetic_features(300, 8)
        labels = (features.values[:, 40] > np.median(features.values[:, 40])).astype(int)
        model = train_surrogate(features, labels, trees=10, seed=1)
        assert 40 in model.features_used()
        X = np.hstack([features.values, features.values])[:, :width]
        message = rf"shape \(300, {width}\), but the forest was fit on 73 columns"
        with pytest.raises(SurrogateError, match=message):
            model.predict_proba(X)
        with pytest.raises(SurrogateError, match=message):
            permutation_importance(model, X, labels, repeats=1)
        for kind in ("ALE", "PDP"):
            with pytest.raises(SurrogateError, match=message):
                effect_curve(model, X, 0, kind=kind)

    def test_prediction_invariant_to_tree_order(self):
        from surrogate_reference import pack_trees

        features = synthetic_features(150, 7)
        labels = (features.values[:, 2] > np.median(features.values[:, 2])).astype(int)
        model = train_surrogate(features, labels, trees=15, seed=3)
        before = model.predict_proba(features)
        model.nodes = pack_trees(list(reversed(model.trees)))
        assert np.allclose(model.predict_proba(features), before, atol=1e-15)

    def test_tie_break_lowest_class_id(self):
        # two single-leaf trees voting for opposite classes: an exact
        # probability tie must resolve to the lowest class id
        from surrogate_reference import pack_trees

        from orbitroles.surrogate import SurrogateForest, _Tree

        def leaf_tree(probs):
            return _Tree(
                np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-1]), np.array([probs])
            )

        model = SurrogateForest(
            nodes=pack_trees([leaf_tree([1.0, 0.0]), leaf_tree([0.0, 1.0])]),
            n_features=1,
            class_labels=np.array([3, 7]),
            holdout_accuracy=1.0,
            seed=0,
            train_idx=np.array([0]),
            test_idx=np.array([1]),
        )
        X = np.zeros((5, 1))
        assert np.allclose(model.predict_proba(X), 0.5)
        assert set(model.predict(X).tolist()) == {3}


class TestPermutationImportance:
    def test_informative_feature_ranked_first(self):
        rng = np.random.default_rng(1)
        signal = np.log1p(rng.integers(1, 50, size=500).astype(float))
        features = synthetic_features(500, 2, informative=signal)
        labels = (signal > np.median(signal)).astype(int)
        model = train_surrogate(features, labels, trees=60, seed=3)
        report = permutation_importance(model, features, labels, repeats=5, seed=4)
        assert report.rows[0][0] == 0
        assert report.rows[0][1] > 0.2

    def test_constant_feature_importance_exactly_zero(self):
        features = synthetic_features(300, 5)
        features.values[:, 10] = 2.5
        labels = (features.values[:, 0] > np.median(features.values[:, 0])).astype(int)
        model = train_surrogate(features, labels, trees=30, seed=6)
        report = permutation_importance(model, features, labels, repeats=3, seed=7)
        entry = [row for row in report.rows if row[0] == 10][0]
        assert entry[1] == 0.0 and entry[2] == 0.0

    def test_perfect_binary_feature_drop_near_half(self):
        # balanced classes separated by one binary feature: permuting it
        # misclassifies about half the holdout
        rng = np.random.default_rng(8)
        n = 2000
        flag = rng.integers(0, 2, size=n).astype(float)
        values = np.zeros((n, 73))
        values[:, 0] = flag
        features = LogOrbitMatrix(values=values)
        labels = flag.astype(int)
        model = train_surrogate(features, labels, trees=20, seed=9)
        report = permutation_importance(model, features, labels, repeats=10, seed=10)
        top = report.rows[0]
        assert top[0] == 0
        assert abs(top[1] - 0.5) < 0.06

    def test_report_format_matches_published_style(self):
        features = synthetic_features(200, 11)
        labels = (features.values[:, 0] > np.median(features.values[:, 0])).astype(int)
        model = train_surrogate(features, labels, trees=10, seed=12)
        report = permutation_importance(model, features, labels, repeats=2, seed=13)
        for line in report.formatted(5):
            assert re.fullmatch(r"\d+ \(-?\d+\.\d{3} ±\d+\.\d{4}\)", line)

    def test_rows_cover_all_features_sorted(self):
        features = synthetic_features(150, 14)
        labels = (features.values[:, 0] > np.median(features.values[:, 0])).astype(int)
        model = train_surrogate(features, labels, trees=10, seed=15)
        report = permutation_importance(model, features, labels, repeats=2, seed=16)
        assert len(report.rows) == 73
        means = [row[1] for row in report.rows]
        assert means == sorted(means, reverse=True)
        assert all(row[2] >= 0 for row in report.rows)

    def test_untrained_model_rejected(self):
        from surrogate_reference import pack_trees

        features = synthetic_features(50, 17)
        labels = (features.values[:, 0] > 1).astype(int)
        model = train_surrogate(features, labels, trees=5, seed=18)
        model.nodes = pack_trees([])
        with pytest.raises(SurrogateError, match="untrained"):
            permutation_importance(model, features, labels)

    def test_csv_layout(self, tmp_path):
        features = synthetic_features(120, 19)
        labels = (features.values[:, 0] > np.median(features.values[:, 0])).astype(int)
        model = train_surrogate(features, labels, trees=5, seed=20)
        report = permutation_importance(model, features, labels, repeats=2, seed=21)
        path = tmp_path / "imp.csv"
        report.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "rank,orbit,mean,std"
        assert len(lines) == 74


class TestEffectCurves:
    def _step_model(self, n=800, cut=1.2, seed=0, feature=5):
        rng = np.random.default_rng(seed)
        values = np.log1p(rng.poisson(2.0, size=(n, 73)).astype(float))
        values[:, feature] = rng.uniform(0, 3, size=n)
        labels = (values[:, feature] > cut).astype(int)
        features = LogOrbitMatrix(values=values)
        model = train_surrogate(features, labels, trees=40, seed=seed + 1)
        return model, features, labels

    def test_unused_feature_ale_exactly_zero(self):
        # train with column 20 constant (never splittable), evaluate with it
        # varying: predictions cannot move, so the curve is identically zero
        rng = np.random.default_rng(2)
        values = np.log1p(rng.poisson(2.0, size=(400, 73)).astype(float))
        values[:, 20] = 0.7
        train_features = LogOrbitMatrix(values=values)
        labels = (values[:, 0] > np.median(values[:, 0])).astype(int)
        model = train_surrogate(train_features, labels, trees=20, seed=3)
        assert 20 not in model.features_used()
        eval_values = values.copy()
        eval_values[:, 20] = rng.uniform(0, 2, size=400)
        for curve in effect_curve(model, LogOrbitMatrix(values=eval_values), 20):
            assert np.abs(curve.values).max() <= 1e-12

    def test_step_located_within_one_bin(self):
        cut = 1.2
        model, features, _ = self._step_model(cut=cut)
        curve = effect_curve(model, features, orbit=5, bins=16)[1]  # class 1
        widths = np.diff(curve.grid)
        assert abs(step_location(curve) - cut) <= widths.max()

    def test_centering_identity(self):
        model, features, _ = self._step_model(seed=4)
        for curve in effect_curve(model, features, orbit=5, bins=16):
            weighted = float((curve.bin_population * curve.values).sum())
            assert abs(weighted) <= 1e-9 * max(1.0, np.abs(curve.values).max())

    def test_constant_feature_rejected_by_name(self):
        model, features, _ = self._step_model(seed=5)
        features.values[:, 30] = 1.0
        with pytest.raises(SurrogateError, match="orbit 30"):
            effect_curve(model, features, orbit=30)

    def test_pdp_and_ale_agree_for_single_feature_model(self):
        # one informative feature: after aligning the constant offset the
        # two curves must tell the same story
        model, features, _ = self._step_model(seed=6)
        ale = effect_curve(model, features, orbit=5, bins=16, kind="ALE")[1]
        pdp = effect_curve(model, features, orbit=5, bins=16, kind="PDP")[1]
        pop = pdp.bin_population
        centered_pdp = pdp.values - float((pop * pdp.values).sum() / pop.sum())
        widths = np.diff(ale.grid)
        assert abs(step_location(ale) - step_location(pdp)) <= 2 * widths.max()
        assert np.abs(centered_pdp - ale.values).max() < 0.1

    def test_class_relabeling_permutes_curves(self):
        rng = np.random.default_rng(7)
        values = np.log1p(rng.poisson(2.0, size=(300, 73)).astype(float))
        features = LogOrbitMatrix(values=values)
        labels = (values[:, 5] > np.median(values[:, 5])).astype(int)
        model_a = train_surrogate(features, labels, trees=15, seed=8)
        model_b = train_surrogate(features, labels + 10, trees=15, seed=8)
        curves_a = effect_curve(model_a, features, 5, bins=8)
        curves_b = effect_curve(model_b, features, 5, bins=8)
        assert [c.class_id for c in curves_a] == [0, 1]
        assert [c.class_id for c in curves_b] == [10, 11]
        for curve_a, curve_b in zip(curves_a, curves_b):
            assert np.allclose(curve_a.values, curve_b.values, atol=1e-15)

    def test_bad_inputs(self):
        model, features, _ = self._step_model(seed=9)
        with pytest.raises(SurrogateError, match="bins"):
            effect_curve(model, features, orbit=5, bins=1)
        with pytest.raises(SurrogateError, match="kind"):
            effect_curve(model, features, orbit=5, kind="ICE")
        with pytest.raises(SurrogateError, match="orbit 73"):
            effect_curve(model, features, orbit=73)

    def test_effect_csv_carries_annotation(self, tmp_path):
        model, features, _ = self._step_model(seed=10)
        curves = effect_curve(model, features, orbit=5, bins=8)
        path = tmp_path / "effects.csv"
        write_effect_curves(curves, 1.945910149, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "orbit,class,kind,grid_value,effect"
        assert len(lines) == 2 + 2 * curves[0].grid.size  # header, annotation
        assert [line.split(",")[1] for line in lines[1:-1]] == (
            ["0"] * curves[0].grid.size + ["1"] * curves[0].grid.size
        )
        assert lines[-1].startswith("annotation,,orbit3_threshold,1.945910149")


class TestOrbit3Threshold:
    def test_triangle_free_graph(self):
        assert orbit3_threshold(count_orbits(path_graph(6))) == 0.0

    def test_single_k5(self):
        assert orbit3_threshold(count_orbits(complete_graph(5))) == pytest.approx(
            np.log1p(6), abs=1e-12
        )

    def test_barbell_corpus(self):
        planted = generate_planted_graph([barbell_template(5, 3)], 10, seed=0)
        assert orbit3_threshold(count_orbits(planted.graph)) == pytest.approx(
            np.log1p(6), abs=1e-12
        )


class TestRefit:
    def test_keep_all_matches_full_training(self):
        planted = generate_planted_graph([barbell_template(5, 3)], 10, seed=0)
        features = log_transform(count_orbits(planted.graph))
        full = train_surrogate(features, planted.true_role, trees=15, seed=4)
        refit = refit_on_subpopulation(
            features, planted.true_role, keep_roles={0, 1, 2}, trees=15, seed=4
        )
        assert np.array_equal(full.predict(features), refit.predict(features))
        assert full.holdout_accuracy == refit.holdout_accuracy

    def test_subpopulation_filters_rows(self):
        planted = generate_planted_graph([barbell_template(5, 3)], 10, seed=0)
        features = log_transform(count_orbits(planted.graph))
        names = planted.role_names
        keep = {names.index("clique-attachment"), names.index("bridge-center")}
        sub = refit_on_subpopulation(
            features, planted.true_role, keep_roles=keep, trees=15, seed=5
        )
        assert set(sub.class_labels.tolist()) == keep
        kept_rows = int(np.isin(planted.true_role, sorted(keep)).sum())
        assert sub.train_idx.size + sub.test_idx.size == kept_rows

    def test_single_role_rejected(self):
        planted = generate_planted_graph([barbell_template(5, 3)], 5, seed=0)
        features = log_transform(count_orbits(planted.graph))
        with pytest.raises(SurrogateError, match="2 populated"):
            refit_on_subpopulation(features, planted.true_role, keep_roles={0}, trees=5, seed=0)

    def test_empty_after_filter_rejected(self):
        planted = generate_planted_graph([barbell_template(5, 3)], 5, seed=0)
        features = log_transform(count_orbits(planted.graph))
        with pytest.raises(SurrogateError):
            refit_on_subpopulation(features, planted.true_role, keep_roles={40, 50}, trees=5, seed=0)


# --- whole-forest references for the cached explain paths ---------------------


def reference_importance(model, features, roles, repeats, seed):
    """Permutation importance re-predicting the whole forest per shuffle."""
    from orbitroles.seeds import derive_seed

    X = np.asarray(getattr(features, "values", features), dtype=np.float64)
    y = np.asarray(roles, dtype=np.int64)
    X_test = X[model.test_idx]
    y_test = y[model.test_idx]
    baseline = float((model.predict(X_test) == y_test).mean())
    rows = []
    for f in range(X.shape[1]):
        drops = []
        for r in range(repeats):
            rng = np.random.default_rng(derive_seed(seed, "perm", f, r))
            shuffled = X_test.copy()
            shuffled[:, f] = shuffled[rng.permutation(X_test.shape[0]), f]
            acc = float((model.predict(shuffled) == y_test).mean())
            drops.append(baseline - acc)
        drops = np.array(drops)
        rows.append((f, float(drops.mean()), float(drops.std())))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows, baseline


def reference_ale(model, features, orbit, class_id, bins):
    """ALE with two forest calls per populated bin."""
    X = np.asarray(getattr(features, "values", features), dtype=np.float64)
    c = int(np.flatnonzero(model.class_labels == class_id)[0])
    x = X[:, orbit]
    edges = np.unique(np.quantile(x, np.linspace(0.0, 1.0, bins + 1)))
    n_bins = edges.size - 1
    bin_of = np.searchsorted(edges, x, side="left")
    population = np.bincount(bin_of, minlength=edges.size).astype(np.int64)
    diffs = np.zeros(n_bins)
    for k in range(1, n_bins + 1):
        members = np.flatnonzero(bin_of == k)
        if not members.size:
            continue
        hi = X[members].copy()
        hi[:, orbit] = edges[k]
        lo = X[members].copy()
        lo[:, orbit] = edges[k - 1]
        diffs[k - 1] = (
            model.predict_proba(hi)[:, c] - model.predict_proba(lo)[:, c]
        ).mean()
    accumulated = np.concatenate([[0.0], np.cumsum(diffs)])
    center = float((population * accumulated).sum() / max(1, population.sum()))
    return edges, accumulated - center, population


def reference_pdp(model, features, orbit, class_id, bins):
    """PDP from one clamped copy of X per grid value, each sent through the
    whole forest."""
    X = np.asarray(getattr(features, "values", features), dtype=np.float64)
    c = int(np.flatnonzero(model.class_labels == class_id)[0])
    edges = np.unique(np.quantile(X[:, orbit], np.linspace(0.0, 1.0, bins + 1)))
    values = np.empty(edges.size)
    for i, g in enumerate(edges):
        clamped = X.copy()
        clamped[:, orbit] = g
        values[i] = model.predict_proba(clamped)[:, c].mean()
    return edges, values


def _planted_model(trees=12, seed=3):
    planted = generate_planted_graph([barbell_template(5, 3)], 15, noise_edges=6, seed=1)
    features = log_transform(count_orbits(planted.graph))
    labels = planted.true_role
    return train_surrogate(features, labels, trees=trees, seed=seed), features, labels


def _random_model(trees=15, seed=5):
    # integer-valued columns: many ties, so quantile edges merge
    rng = np.random.default_rng(seed)
    values = np.log1p(rng.poisson(1.5, size=(400, 73)).astype(float))
    labels = rng.integers(0, 3, size=400)
    labels[values[:, 4] > np.median(values[:, 4])] = 3
    features = LogOrbitMatrix(values=values)
    return train_surrogate(features, labels, trees=trees, seed=seed + 1), features, labels


def _count_walks(monkeypatch):
    """Record (pinned, entries) of every call of the packed walker."""
    from orbitroles import surrogate

    walks = []
    original = surrogate._Pack.walk

    def counting(pack, X, node, row, pin=None, val=None):
        walks.append((pin is not None, node.size))
        return original(pack, X, node, row, pin, val)

    monkeypatch.setattr(surrogate._Pack, "walk", counting)
    return walks


class TestCachedExplainEqualsReference:
    @pytest.mark.parametrize("block", [None, 1, 1000])
    @pytest.mark.parametrize("make", [_planted_model, _random_model])
    def test_predict_proba_equals_tree_order_sum(self, monkeypatch, make, block):
        # the packed walk of all trees, in one pass or in passes of a few
        # trees, votes what each tree's own leaves vote, added in tree order
        from surrogate_reference import reference_leaves

        from orbitroles import surrogate

        model, features, _ = make()
        X = features.values
        votes = np.zeros((X.shape[0], model.class_labels.size))
        for tree in model.trees:
            votes += tree.value[reference_leaves(tree, X)]
        if block is not None:
            monkeypatch.setattr(surrogate, "_BLOCK_CELLS", block)
        walks = _count_walks(monkeypatch)
        assert np.array_equal(model.predict_proba(features), votes / len(model.trees))
        assert sum(entries for _, entries in walks) == len(model.trees) * X.shape[0]
        per_walk = len(model.trees) if block is None else max(1, block // X.shape[0])
        assert len(walks) == -(-len(model.trees) // per_walk)

    @pytest.mark.parametrize("make", [_planted_model, _random_model])
    def test_importance_rows_and_baseline_exact(self, make):
        model, features, labels = make()
        report = permutation_importance(model, features, labels, repeats=3, seed=8)
        rows, baseline = reference_importance(model, features, labels, 3, 8)
        assert report.rows == rows
        assert report.baseline_accuracy == baseline

    def test_unused_orbits_get_exact_zero(self):
        model, features, labels = _planted_model()
        unused = set(range(73)) - model.features_used()
        assert unused  # the planted corpus leaves many orbits unused
        report = permutation_importance(model, features, labels, repeats=2, seed=1)
        for orbit, mean, std in report.rows:
            if orbit in unused:
                assert (mean, std) == (0.0, 0.0)

    def test_tree_predictions_counted(self, monkeypatch):
        # one walk of every tree over every holdout row, then pinned walks:
        # for each (orbit, repeat) cell, every tree walks again the rows
        # whose walk reads the orbit, and no other row
        from surrogate_reference import reference_reads

        from orbitroles import surrogate

        model, features, labels = _random_model(trees=9)
        X_test = features.values[model.test_idx]
        reads = sum(len(r) for t in model.trees for r in reference_reads(t, X_test))
        rows = model.test_idx.size
        walks = _count_walks(monkeypatch)
        predictions = []
        monkeypatch.setattr(
            surrogate.SurrogateForest, "predict_proba", lambda *a: predictions.append(a)
        )
        repeats = 4
        report = permutation_importance(model, features, labels, repeats=repeats, seed=2)
        assert predictions == []
        assert walks[0] == (False, len(model.trees) * rows)
        pinned = [entries for is_pinned, entries in walks[1:] if is_pinned]
        assert len(pinned) == len(walks) - 1
        assert sum(pinned) == repeats * reads
        assert max(pinned) <= surrogate._BLOCK_CELLS
        assert report.meta["cells"] == repeats * len(model.features_used())

    @pytest.mark.parametrize("make", [_planted_model, _random_model])
    def test_pinned_walk_equals_shuffled_copy(self, make):
        # a pinned walk of the packed forest reaches the leaf of the
        # explicitly shuffled rows, from the root or re-entering at the
        # first node on the feature
        from surrogate_reference import pack_trees, reference_leaves

        model, features, _ = make()
        X = features.values[model.test_idx]
        n = X.shape[0]
        pack = pack_trees(model.trees)
        leaves = pack.leaves(X)
        rng = np.random.default_rng(4)
        reentered = 0
        for t, tree in enumerate(model.trees):
            root = pack.root[t]
            assert np.array_equal(leaves[t], root + reference_leaves(tree, X))
            feats = np.unique(tree.feature[tree.feature >= 0])
            sources = np.array([rng.permutation(n) for _ in feats])
            values = X[sources, feats[:, None]]
            want = []
            for f, src in zip(feats, sources):
                shuffled = X.copy()
                shuffled[:, f] = X[src, f]
                want.append(root + reference_leaves(tree, shuffled))
            table = pack.first_splits(t, t + 1, feats)
            start = table[leaves[t] - root].T
            start = np.where(start >= 0, start, leaves[t])
            reentered += int((start != leaves[t]).sum())
            rows, pin = np.tile(np.arange(n), feats.size), np.repeat(feats, n)
            from_root = pack.walk(X, np.full(feats.size * n, root), rows, pin, values.ravel())
            from_start = pack.walk(X, start.ravel(), rows, pin, values.ravel())
            assert np.array_equal(from_root.reshape(feats.size, n), np.array(want))
            assert np.array_equal(from_start.reshape(feats.size, n), np.array(want))
        assert 0 < reentered

    def test_importance_in_several_passes_exact(self, monkeypatch):
        # passes of 7 cells, each walking its trees in groups of as many
        # trees as there are classes: no walk holds more (tree, cell, row)
        # entries than the bound
        from surrogate_reference import reference_reads

        from orbitroles import surrogate

        model, features, labels = _random_model(trees=6)
        X_test = features.values[model.test_idx]
        reads = sum(len(r) for t in model.trees for r in reference_reads(t, X_test))
        rows, classes = model.test_idx.size, model.class_labels.size
        block = 7 * rows * classes
        monkeypatch.setattr(surrogate, "_BLOCK_CELLS", block)
        walks = _count_walks(monkeypatch)
        report = permutation_importance(model, features, labels, repeats=3, seed=8)
        reference, baseline = reference_importance(model, features, labels, 3, 8)
        assert report.rows == reference
        assert report.baseline_accuracy == baseline
        pinned = [entries for is_pinned, entries in walks if is_pinned]
        passes = -(-report.meta["cells"] // 7)
        assert passes > 3 and len(pinned) > passes  # several passes, several walks each
        assert max(pinned) <= block
        assert sum(pinned) == 3 * reads

    @pytest.mark.parametrize("make", [_planted_model, _random_model])
    def test_ale_grid_and_values_exact(self, make):
        model, features, _ = make()
        checked_merged = False
        for orbit in (0, 4, 17, 27):
            col = features.values[:, orbit]
            if col.min() == col.max():
                continue
            for bins in (4, 32):
                curves = effect_curve(model, features, orbit, bins=bins)
                assert [c.class_id for c in curves] == model.class_labels.tolist()
                for curve in curves:
                    grid, values, population = reference_ale(
                        model, features, orbit, curve.class_id, bins
                    )
                    assert (curve.orbit, curve.kind) == (orbit, "ALE")
                    assert np.array_equal(curve.grid, grid)
                    assert np.array_equal(curve.values, values)
                    assert np.array_equal(curve.bin_population, population)
                    # rows on the grid minimum anchor to edge 0
                    assert population[0] == np.count_nonzero(col == col.min())
                    checked_merged |= grid.size < bins + 1
        assert checked_merged  # duplicate quantile edges were merged somewhere

    @pytest.mark.parametrize("make", [_planted_model, _random_model])
    def test_pdp_values_exact(self, make):
        model, features, _ = make()
        for orbit in (0, 4, 17, 27):
            col = features.values[:, orbit]
            if col.min() == col.max():
                continue
            curves = effect_curve(model, features, orbit, bins=16, kind="PDP")
            assert [c.class_id for c in curves] == model.class_labels.tolist()
            for curve in curves:
                grid, values = reference_pdp(model, features, orbit, curve.class_id, 16)
                assert (curve.orbit, curve.kind) == (orbit, "PDP")
                assert np.array_equal(curve.grid, grid)
                assert np.array_equal(curve.values, values)

    @pytest.mark.parametrize("kind", ["ALE", "PDP"])
    def test_curves_in_one_cell_passes_exact(self, monkeypatch, kind):
        # a pass too small for two cells: ALE's upper and lower pins, and
        # each PDP grid value, run in passes of their own
        from orbitroles import surrogate

        model, features, _ = _random_model(trees=6)
        want = effect_curve(model, features, 4, bins=16, kind=kind)
        monkeypatch.setattr(surrogate, "_BLOCK_CELLS", 1)
        got = effect_curve(model, features, 4, bins=16, kind=kind)
        for a, b in zip(got, want):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind", ["ALE", "PDP"])
    def test_curves_walk_each_tree_once_unpinned(self, monkeypatch, kind):
        # no forest prediction: one walk of every tree over the curve's
        # rows, then, in each tree that splits on the orbit, pinned walks of
        # every cell of the rows whose walk reads the orbit
        from surrogate_reference import reference_reads

        from orbitroles import surrogate

        model, features, _ = _random_model()
        orbit = 17  # split on by 2 of the 15 trees
        predictions = []
        walks = _count_walks(monkeypatch)
        monkeypatch.setattr(
            surrogate.SurrogateForest, "predict_proba", lambda *a: predictions.append(a)
        )
        curves = effect_curve(model, features, orbit, bins=16, kind=kind)
        assert predictions == []
        population = curves[0].bin_population
        rows = features.node_count if kind == "PDP" else int(population[1:].sum())
        cells = population.size if kind == "PDP" else 2
        splitters = sum(orbit in t.feature for t in model.trees)
        assert 0 < splitters < len(model.trees)
        x = features.values[:, orbit]
        curve_rows = features.values if kind == "PDP" else features.values[x > x.min()]
        reads = sum(orbit in r for t in model.trees for r in reference_reads(t, curve_rows))
        assert 0 < reads < splitters * rows
        assert walks[0] == (False, len(model.trees) * rows)
        assert all(is_pinned for is_pinned, _ in walks[1:])
        assert sum(entries for _, entries in walks[1:]) == cells * reads


# --- histogram split search against the sort-and-scan reference ---------------


def _ba_features():
    from util import ba_graph

    return log_transform(count_orbits(ba_graph(400, 4, seed=2)))


def _fit_cases():
    planted = generate_planted_graph([barbell_template(5, 3)], 15, noise_edges=6, seed=1)
    planted_features = log_transform(count_orbits(planted.graph))
    ba = _ba_features()
    rng = np.random.default_rng(21)
    # mostly a function of two orbits, with a fifth of the labels drawn at random
    ba_labels = np.digitize(ba.values[:, 0], np.quantile(ba.values[:, 0], [0.3, 0.6, 0.85]))
    ba_labels[ba.values[:, 5] > np.median(ba.values[:, 5])] += 4
    noisy = rng.random(400) < 0.2
    ba_labels[noisy] = rng.integers(0, 8, size=int(noisy.sum()))
    _, random_features, random_labels = _random_model(trees=1)
    twelve = np.random.default_rng(22).integers(0, 12, size=400)
    twelve[random_features.values[:, 3] > np.median(random_features.values[:, 3])] %= 3
    # three rows of class 1: a bootstrap that draws none of them grows a
    # single leaf, beside trees that split
    rare = np.zeros(400, dtype=np.int64)
    rare[[5, 102, 199]] = 1
    return {
        "planted": (planted_features, planted.true_role, {"trees": 8, "seed": 3}),
        "poisson-ties": (random_features, random_labels, {"trees": 8, "seed": 6}),
        "ba-400": (ba, ba_labels, {"trees": 6, "seed": 4}),
        "twelve-classes": (random_features, twelve, {"trees": 6, "seed": 7}),
        "large-min-leaf": (
            planted_features, planted.true_role, {"trees": 8, "seed": 5, "min_leaf": 40}
        ),
        "min-leaf-1": (random_features, random_labels, {"trees": 4, "seed": 8, "min_leaf": 1}),
        # lockstep: many trees whose stacks empty at very different rounds
        "sixteen-min-leaf-40": (
            random_features, random_labels, {"trees": 16, "seed": 9, "min_leaf": 40}
        ),
        "sixteen-min-leaf-1": (
            random_features, random_labels, {"trees": 16, "seed": 10, "min_leaf": 1}
        ),
        "single-leaf-trees": (random_features, rare, {"trees": 20, "seed": 0}),
    }


def _assert_same_trees(model, reference):
    assert len(model.trees) == len(reference)
    for tree, ref in zip(model.trees, reference):
        for attr in ("feature", "threshold", "left", "right", "value"):
            got, want = getattr(tree, attr), getattr(ref, attr)
            assert got.dtype == want.dtype, attr
            assert np.array_equal(got, want), attr


FIT_CASES = [
    "planted",
    "poisson-ties",
    "ba-400",
    "twelve-classes",
    "large-min-leaf",
    "min-leaf-1",
    "sixteen-min-leaf-40",
    "sixteen-min-leaf-1",
    "single-leaf-trees",
]


class TestHistogramSplitEqualsReference:
    @pytest.mark.parametrize("case", FIT_CASES)
    def test_tree_arrays_exact(self, case):
        from surrogate_reference import reference_trees

        features, labels, kwargs = _fit_cases()[case]
        model = train_surrogate(features, labels, **kwargs)
        reference = reference_trees(model, features, labels, kwargs.get("min_leaf", 5))
        _assert_same_trees(model, reference)
        assert any((t.feature >= 0).any() for t in model.trees)
        if case == "twelve-classes":
            assert model.class_labels.size == 12
        if case == "large-min-leaf":
            # most grown nodes could not be split further
            leaves = sum(int((t.feature < 0).sum()) for t in model.trees)
            assert leaves > sum(int((t.feature >= 0).sum()) for t in model.trees)
        if case == "single-leaf-trees":
            sizes = [t.feature.size for t in model.trees]
            assert min(sizes) == 1 and max(sizes) > 9

    @pytest.mark.parametrize("case", FIT_CASES)
    def test_fit_rounds_are_the_most_searches_of_a_tree(self, case):
        # a round searches the top node of every tree that has one, so the
        # fit takes as many rounds as its longest tree searches
        from surrogate_reference import reference_trees

        features, labels, kwargs = _fit_cases()[case]
        model = train_surrogate(features, labels, **kwargs)
        searches = []
        reference_trees(model, features, labels, kwargs.get("min_leaf", 5), searches)
        assert model.fit_rounds == max(searches)
        if case in ("sixteen-min-leaf-1", "single-leaf-trees"):
            assert min(searches) < max(searches) // 2

    def test_lockstep_groups_exact(self, monkeypatch):
        # groups of 3 trees grow one after the other, each in lockstep: the
        # same trees, and the rounds of the groups add up
        from surrogate_reference import reference_trees

        from orbitroles import surrogate

        features, labels, kwargs = _fit_cases()["sixteen-min-leaf-1"]
        monkeypatch.setattr(surrogate, "_LOCKSTEP_TREES", 3)
        model = train_surrogate(features, labels, **kwargs)
        searches = []
        reference = reference_trees(model, features, labels, 1, searches)
        _assert_same_trees(model, reference)
        assert model.fit_rounds == sum(max(searches[g : g + 3]) for g in range(0, 16, 3))

    @pytest.mark.parametrize("block", [1, 6000])
    @pytest.mark.parametrize("case", ["ba-400", "sixteen-min-leaf-1", "single-leaf-trees"])
    def test_batched_rounds_exact(self, monkeypatch, case, block):
        # a round scored in batches of one node, or of a few nodes, grows
        # the same trees: the nodes of a round are independent
        from surrogate_reference import reference_trees

        from orbitroles import surrogate

        features, labels, kwargs = _fit_cases()[case]
        monkeypatch.setattr(surrogate, "_FIT_CELLS", block)
        batches = []
        original = surrogate._best_splits

        def counting(ranks, y_idx, rows, *args):
            batches.append(rows.size)
            return original(ranks, y_idx, rows, *args)

        monkeypatch.setattr(surrogate, "_best_splits", counting)
        model = train_surrogate(features, labels, **kwargs)
        reference = reference_trees(model, features, labels, kwargs.get("min_leaf", 5))
        _assert_same_trees(model, reference)
        assert len(batches) > model.fit_rounds

    def test_refit_on_subpopulation_exact(self):
        from surrogate_reference import reference_trees

        planted = generate_planted_graph([barbell_template(5, 3)], 15, noise_edges=6, seed=1)
        features = log_transform(count_orbits(planted.graph))
        keep = [0, 2]
        sub = refit_on_subpopulation(
            features, planted.true_role, keep_roles=keep, trees=8, seed=9
        )
        mask = np.isin(planted.true_role, keep)
        reference = reference_trees(
            sub, features.values[mask], np.asarray(planted.true_role)[mask]
        )
        _assert_same_trees(sub, reference)
