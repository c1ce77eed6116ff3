"""Interpretable surrogate for role assignments, plus its explanations.

A random forest is trained to predict roles from log-orbit features, then
interrogated globally: permutation importance ranks orbits by the holdout
accuracy they carry, and ALE/PDP effect curves show how a single orbit
count moves the predicted probability of each role. Forest internals are
deliberately plain (bootstrap, sqrt-feature subsetting, Gini splits,
min-leaf 5) so every number in a report is reproducible from the seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .seeds import derive_seed


class SurrogateError(ValueError):
    pass


def _as_labels(roles):
    labels = getattr(roles, "labels", roles)
    return np.asarray(labels, dtype=np.int64)


def _as_features(features):
    values = getattr(features, "values", features)
    return np.asarray(values, dtype=np.float64)


class _Tree:
    """Flat-array decision tree; feature == -1 marks a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def finalize(self):
        self.feature = np.array(self.feature, dtype=np.int64)
        self.threshold = np.array(self.threshold, dtype=np.float64)
        self.left = np.array(self.left, dtype=np.int64)
        self.right = np.array(self.right, dtype=np.int64)
        self.value = np.array(self.value, dtype=np.float64)

    def predict_proba(self, X):
        idx = np.zeros(X.shape[0], dtype=np.int64)
        active = self.feature[idx] >= 0
        while active.any():
            sel = np.flatnonzero(active)
            nodes = idx[sel]
            go_left = X[sel, self.feature[nodes]] <= self.threshold[nodes]
            idx[sel] = np.where(go_left, self.left[nodes], self.right[nodes])
            active = self.feature[idx] >= 0
        return self.value[idx]


def _gini_from_counts(counts, totals):
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = counts / totals[..., None]
    return 1.0 - np.nansum(frac * frac, axis=-1)


def _best_split(X, y_onehot, rows, mtry, min_leaf, rng):
    n_features = X.shape[1]
    feats = rng.choice(n_features, size=mtry, replace=False)
    n = rows.size
    total_counts = y_onehot[rows].sum(axis=0)
    best = (np.inf, -1, 0.0)
    for f in feats:
        col = X[rows, f]
        order = np.argsort(col, kind="stable")
        vals = col[order]
        if vals[0] == vals[-1]:
            continue
        cum = np.cumsum(y_onehot[rows][order], axis=0)
        # split after position i: left = rows[:i+1]
        pos = np.arange(1, n)
        valid = (vals[1:] != vals[:-1]) & (pos >= min_leaf) & ((n - pos) >= min_leaf)
        if not valid.any():
            continue
        left_counts = cum[:-1][valid]
        nl = pos[valid].astype(np.float64)
        nr = n - nl
        gl = _gini_from_counts(left_counts, nl)
        gr = _gini_from_counts(total_counts[None, :] - left_counts, nr)
        weighted = (nl * gl + nr * gr) / n
        j = int(weighted.argmin())
        if weighted[j] < best[0] - 1e-15:
            i = np.flatnonzero(valid)[j]
            thr = 0.5 * (vals[i] + vals[i + 1])
            best = (float(weighted[j]), int(f), thr)
    return best


def _grow_tree(X, y_idx, n_classes, sample_rows, min_leaf, rng):
    y_onehot = np.zeros((X.shape[0], n_classes))
    y_onehot[np.arange(X.shape[0]), y_idx] = 1.0
    mtry = max(1, int(np.sqrt(X.shape[1])))
    tree = _Tree()

    def new_node():
        tree.feature.append(-1)
        tree.threshold.append(0.0)
        tree.left.append(-1)
        tree.right.append(-1)
        tree.value.append(None)
        return len(tree.feature) - 1

    stack = [(new_node(), sample_rows)]
    while stack:
        node, rows = stack.pop()
        counts = np.bincount(y_idx[rows], minlength=n_classes).astype(np.float64)
        tree.value[node] = counts / rows.size
        if counts.max() == rows.size or rows.size < 2 * min_leaf:
            continue
        impurity, feat, thr = _best_split(X, y_onehot, rows, mtry, min_leaf, rng)
        if feat < 0:
            continue
        go_left = X[rows, feat] <= thr
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        if not left_rows.size or not right_rows.size:
            continue
        tree.feature[node] = feat
        tree.threshold[node] = thr
        left_id = new_node()
        right_id = new_node()
        tree.left[node] = left_id
        tree.right[node] = right_id
        # right pushed first so the left branch grows first (fixed rng order)
        stack.append((right_id, right_rows))
        stack.append((left_id, left_rows))
    tree.finalize()
    return tree


@dataclass
class SurrogateForest:
    """Random forest over orbit features with a held-out accuracy."""

    trees: list
    feature_names: list
    class_labels: np.ndarray
    holdout_accuracy: float
    seed: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    params: dict = field(default_factory=dict)

    def predict_proba(self, X):
        X = _as_features(X)
        acc = np.zeros((X.shape[0], len(self.class_labels)))
        for tree in self.trees:
            acc += tree.predict_proba(X)
        return acc / len(self.trees)

    def predict(self, X):
        probs = self.predict_proba(X)
        # argmax takes the first maximum: ties go to the lowest class id
        return self.class_labels[probs.argmax(axis=1)]

    def features_used(self):
        used = set()
        for tree in self.trees:
            used.update(int(f) for f in tree.feature if f >= 0)
        return used


def train_surrogate(
    features,
    roles,
    trees: int = 200,
    seed: int = 0,
    min_leaf: int = 5,
    holdout_fraction: float = 0.2,
) -> SurrogateForest:
    """Fit the role-from-orbits forest with a seeded 20% holdout.

    Deterministic for a fixed seed: the holdout split, every bootstrap and
    every feature draw derive from it.
    """
    X = _as_features(features)
    y = _as_labels(roles)
    if X.shape[0] != y.shape[0]:
        raise SurrogateError(
            f"features have {X.shape[0]} rows but labels have {y.shape[0]}"
        )
    class_labels = np.unique(y)
    if class_labels.size < 2:
        raise SurrogateError("surrogate needs at least two classes")
    y_idx = np.searchsorted(class_labels, y)

    n = X.shape[0]
    perm = np.random.default_rng(derive_seed(seed, "holdout")).permutation(n)
    n_test = max(1, int(round(holdout_fraction * n)))
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    if np.unique(y_idx[train_idx]).size < 2:
        raise SurrogateError("training split collapsed to a single class")

    forest = []
    for i in range(trees):
        rng = np.random.default_rng(derive_seed(seed, "tree", i))
        boot = train_idx[rng.integers(0, train_idx.size, train_idx.size)]
        forest.append(_grow_tree(X, y_idx, class_labels.size, boot, min_leaf, rng))

    model = SurrogateForest(
        trees=forest,
        feature_names=[f"o{i}" for i in range(X.shape[1])],
        class_labels=class_labels,
        holdout_accuracy=0.0,
        seed=seed,
        train_idx=train_idx,
        test_idx=test_idx,
        params={
            "trees": trees,
            "min_leaf": min_leaf,
            "holdout_fraction": holdout_fraction,
            "split": "gini",
            "mtry": "sqrt",
        },
    )
    pred = model.predict(X[test_idx])
    model.holdout_accuracy = float((pred == y[test_idx]).mean())
    return model


@dataclass
class ImportanceReport:
    """Per-orbit permutation importance, sorted by mean drop."""

    rows: list  # (orbit index, mean, std), descending by mean
    baseline_accuracy: float
    repeats: int
    meta: dict = field(default_factory=dict)

    def top(self, m: int = 5):
        return self.rows[:m]

    def formatted(self, m: int = 5):
        """Rows rendered like '27 (0.022 ±0.0006)'."""
        return [f"{o} ({mean:.3f} ±{std:.4f})" for o, mean, std in self.rows[:m]]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rank", "orbit", "mean", "std"])
            for rank, (o, mean, std) in enumerate(self.rows, start=1):
                writer.writerow([rank, o, repr(float(mean)), repr(float(std))])


def permutation_importance(
    model: SurrogateForest,
    features,
    roles,
    repeats: int = 5,
    seed: int = 0,
) -> ImportanceReport:
    """Holdout accuracy drop when one feature column is shuffled.

    The same holdout rows the model was scored on are reused; each
    (feature, repeat) pair gets its own derived shuffle seed. A tree that
    never splits on the shuffled feature predicts what it predicted on the
    unshuffled rows, so each tree is run once on those rows and only the
    trees that split on the feature are run again. The votes are summed in
    tree order, as ``SurrogateForest.predict_proba`` does, so every
    accuracy equals that of a whole-forest prediction bit for bit. A
    feature no tree splits on gets a drop of exactly 0 without a shuffle.
    """
    if repeats < 1:
        raise SurrogateError("repeats must be >= 1")
    if not model.trees:
        raise SurrogateError("untrained model")
    X = _as_features(features)
    y = _as_labels(roles)
    X_test = X[model.test_idx]
    y_test = y[model.test_idx]
    cached = [tree.predict_proba(X_test) for tree in model.trees]
    users = [[] for _ in range(X.shape[1])]
    for i, tree in enumerate(model.trees):
        for f in np.unique(tree.feature[tree.feature >= 0]):
            users[f].append(i)

    def accuracy(fresh):
        # fresh: tree index -> probabilities on the shuffled rows
        acc = np.zeros(cached[0].shape)
        for i, probs in enumerate(cached):
            acc += fresh.get(i, probs)
        pred = model.class_labels[(acc / len(cached)).argmax(axis=1)]
        return float((pred == y_test).mean())

    baseline = accuracy({})
    rows = []
    for f in range(X.shape[1]):
        if not users[f]:
            rows.append((f, 0.0, 0.0))
            continue
        drops = []
        for r in range(repeats):
            rng = np.random.default_rng(derive_seed(seed, "perm", f, r))
            shuffled = X_test.copy()
            shuffled[:, f] = shuffled[rng.permutation(X_test.shape[0]), f]
            fresh = {i: model.trees[i].predict_proba(shuffled) for i in users[f]}
            drops.append(baseline - accuracy(fresh))
        drops = np.array(drops)
        rows.append((f, float(drops.mean()), float(drops.std())))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return ImportanceReport(
        rows=rows,
        baseline_accuracy=baseline,
        repeats=repeats,
        meta={"protocol": "holdout-20pct", "seed": seed},
    )


@dataclass
class ALECurve:
    """Accumulated local effect (or partial dependence) of one orbit."""

    orbit: int
    class_id: int
    grid: np.ndarray
    values: np.ndarray
    kind: str
    bin_population: np.ndarray

    def step_location(self) -> float:
        """Grid midpoint of the largest jump; handy for threshold checks."""
        jumps = np.abs(np.diff(self.values))
        i = int(jumps.argmax())
        return float(0.5 * (self.grid[i] + self.grid[i + 1]))


def effect_curve(
    model: SurrogateForest,
    features,
    orbit: int,
    class_id: int,
    bins: int = 32,
    kind: str = "ALE",
) -> ALECurve:
    """Effect of one orbit on one role's predicted probability.

    ALE: empirical-quantile bins (duplicate edges merged); within each bin
    the instances inside it are re-predicted with the feature pinned to
    the bin's upper and lower edge, the mean difference is accumulated
    across bins, and the curve is centered so the population-weighted mean
    is zero (instances sitting exactly on the grid minimum anchor to the
    first grid value). PDP: mean predicted probability with the feature
    clamped to each grid value, uncentered.
    """
    if kind not in ("ALE", "PDP"):
        raise SurrogateError(f"unknown curve kind {kind!r}")
    if bins < 2:
        raise SurrogateError("bins must be >= 2")
    X = _as_features(features)
    if not (0 <= orbit < X.shape[1]):
        raise SurrogateError(f"orbit {orbit} outside feature range")
    cls = np.flatnonzero(model.class_labels == class_id)
    if cls.size != 1:
        raise SurrogateError(f"class {class_id} not among model classes")
    c = int(cls[0])

    x = X[:, orbit]
    if x.min() == x.max():
        raise SurrogateError(f"orbit {orbit} is constant; no effect grid")
    edges = np.unique(np.quantile(x, np.linspace(0.0, 1.0, bins + 1)))
    n_bins = edges.size - 1

    # population per grid point: exact minimum anchors to edge 0, the rest
    # fall in bins (edge[k-1], edge[k]]
    bin_of = np.searchsorted(edges, x, side="left")
    population = np.bincount(bin_of, minlength=edges.size).astype(np.int64)

    if kind == "PDP":
        values = np.empty(edges.size)
        for i, g in enumerate(edges):
            clamped = X.copy()
            clamped[:, orbit] = g
            values[i] = model.predict_proba(clamped)[:, c].mean()
        return ALECurve(orbit, class_id, edges, values, "PDP", population)

    # every instance off the grid minimum, grouped by bin in row order,
    # pinned to its bin's upper (hi) and lower (lo) edge in one forest call
    members = np.argsort(bin_of, kind="stable")[population[0]:]
    m = members.size
    pinned = np.tile(X[members], (2, 1))
    pinned[:m, orbit] = edges[bin_of[members]]
    pinned[m:, orbit] = edges[bin_of[members] - 1]
    probs = model.predict_proba(pinned)[:, c]
    delta = probs[:m] - probs[m:]
    diffs = np.zeros(n_bins)
    ends = np.cumsum(population) - population[0]  # bin k is delta[ends[k-1]:ends[k]]
    for k in range(1, n_bins + 1):
        if population[k]:
            diffs[k - 1] = delta[ends[k - 1] : ends[k]].mean()
    accumulated = np.concatenate([[0.0], np.cumsum(diffs)])
    center = float((population * accumulated).sum() / max(1, population.sum()))
    return ALECurve(orbit, class_id, edges, accumulated - center, "ALE", population)


def orbit3_threshold(counts) -> float:
    """log1p of the largest triangle-orbit count in the graph.

    Annotated on tail-of-chain effect plots: a chain-end count above this
    line cannot come from a single community's triangles.
    """
    matrix = getattr(counts, "counts", counts)
    return float(np.log1p(np.asarray(matrix)[:, 3].max()))


def refit_on_subpopulation(
    features, roles, keep_roles, trees: int = 200, seed: int = 0, **kwargs
) -> SurrogateForest:
    """Retrain the surrogate on the nodes of selected roles only."""
    X = _as_features(features)
    y = _as_labels(roles)
    keep = set(int(r) for r in keep_roles)
    mask = np.isin(y, sorted(keep))
    populated = np.unique(y[mask])
    if populated.size < 2:
        raise SurrogateError(
            f"need at least 2 populated roles after filtering, got {populated.size}"
        )
    return train_surrogate(X[mask], y[mask], trees=trees, seed=seed, **kwargs)


def write_effect_curves(curves, threshold, path) -> None:
    """Plot-ready CSV of curves plus the triangle-threshold annotation."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["orbit", "class", "kind", "grid_value", "effect"])
        for curve in curves:
            for g, v in zip(curve.grid, curve.values):
                writer.writerow(
                    [curve.orbit, curve.class_id, curve.kind, repr(float(g)), repr(float(v))]
                )
        if threshold is not None:
            writer.writerow(["annotation", "", "orbit3_threshold", repr(float(threshold)), ""])
