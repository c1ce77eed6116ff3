"""Interpretable surrogate for role assignments, plus its explanations.

A random forest is trained to predict roles from log-orbit features, then
interrogated globally: permutation importance ranks orbits by the holdout
accuracy they carry, and ALE/PDP effect curves show how a single orbit
count moves the predicted probability of each role. Forest internals are
deliberately plain (bootstrap, sqrt-feature subsetting, Gini splits,
min-leaf 5) so every number in a report is reproducible from the seed.

The split search is a histogram split in the manner of LightGBM (Ke et
al., NeurIPS 2017). Each column gets integer rank codes once per forest;
a node counts the classes of all its drawn features in one ``bincount``
over (feature offset + code, class) and scores every boundary between
two codes present at the node. Each bin holds exactly one distinct value,
so the candidates, their Gini and the midpoint thresholds are those of a
sort-and-scan search, and the trees are the same bit for bit
(tests/surrogate_reference.py keeps that search).

Importance, ALE and PDP all ask what the forest votes when one column
reads other values, and one pass answers (``_pinned_votes``): every tree
walks the rows once, and only a tree that splits on the column walks them
again, reading the pinned value at the nodes that test it (``_Tree.leaves``).
Summed in tree order, the votes are those of a whole-forest prediction
on pinned copies of the rows, bit for bit, and no copy is made.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .seeds import derive_seed

# most (cell, row, class) vote sums one pinned-vote pass holds; more cells
# run in further passes
_BLOCK_CELLS = 1 << 20

# the curve kinds ``effect_curve`` draws
EFFECT_KINDS = ("ALE", "PDP")


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

    def leaves(self, X, pinned=None, values=None, start=None):
        """Leaf reached by every row of X, shape (cells, rows).

        Unpinned (``pinned`` None) there is one cell and each row reads
        its own values. Pinned, wherever a node tests column ``pinned[q]``
        row i of cell q reads ``values[q, i]``, and its own value
        everywhere else. Each walk starts at the root, or at
        ``start[q, i]`` when given.
        """
        n = X.shape[0]
        cells = 1 if pinned is None else len(pinned)
        row = np.tile(np.arange(n), cells)
        if pinned is not None:
            pin = np.repeat(pinned, n)
            val = np.asarray(values).ravel()
        if start is None:
            node = np.zeros(cells * n, dtype=np.int64)
        else:
            node = np.array(start, dtype=np.int64).ravel()
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            at = node[live]
            feat = self.feature[at]
            x = X[row[live], feat]
            if pinned is not None:
                x = np.where(feat == pin[live], val[live], x)
            at = np.where(x <= self.threshold[at], self.left[at], self.right[at])
            node[live] = at
            live = live[self.feature[at] >= 0]
        return node.reshape(cells, n)

    def predict_proba(self, X):
        return self.value[self.leaves(X)[0]]

    def first_splits(self, n_features):
        """(nodes, features) table: the shallowest proper ancestor of each
        node that splits on each feature, or -1. A row whose walk ends in
        leaf L first reads feature f at node ``first_splits[L, f]``."""
        table = np.full((self.feature.size, n_features), -1, dtype=np.int64)
        # children are numbered after their parent
        for node in np.flatnonzero(self.feature >= 0).tolist():
            below = table[node].copy()
            f = self.feature[node]
            if below[f] < 0:
                below[f] = node
            table[self.left[node]] = below
            table[self.right[node]] = below
        return table


def _gini_from_counts(counts, totals):
    # (m, classes) counts over m positive totals
    frac = counts / totals[:, None]
    return 1.0 - (frac * frac).sum(axis=1)


@dataclass
class _RankCodes:
    """Rank codes of every column: ``codes[f, i]`` is the rank of X[i, f]
    among the distinct values of column f, and that value is
    ``values[start[f] + codes[f, i]]``."""

    codes: np.ndarray  # (features, rows)
    values: np.ndarray
    start: np.ndarray  # (features + 1,)

    @classmethod
    def of(cls, X):
        codes = np.empty((X.shape[1], X.shape[0]), dtype=np.int64)
        values = []
        for f in range(X.shape[1]):
            distinct, codes[f] = np.unique(X[:, f], return_inverse=True)
            values.append(distinct)
        start = np.cumsum([0] + [v.size for v in values])
        return cls(codes, np.concatenate(values), start)


def _best_split(ranks, y_idx, rows, class_counts, mtry, min_leaf, rng):
    """(feature, threshold) of the lowest weighted Gini over the drawn
    features, or feature -1 when no boundary leaves ``min_leaf`` rows on
    both sides. Drawn feature j owns the histogram bins offset[j] + code."""
    feats = rng.choice(ranks.codes.shape[0], size=mtry, replace=False)
    n, n_classes = rows.size, class_counts.size
    offset = np.zeros(mtry + 1, dtype=np.int64)
    np.cumsum(ranks.start[feats + 1] - ranks.start[feats], out=offset[1:])
    keys = ranks.codes[feats[:, None], rows] + offset[:-1, None]
    rows_in_bin = np.bincount(keys.ravel(), minlength=offset[-1])
    present = np.flatnonzero(rows_in_bin)
    slot = np.empty(offset[-1], dtype=np.int64)
    slot[present] = np.arange(present.size)
    hist = np.bincount(
        (slot[keys] * n_classes + y_idx[rows]).ravel(), minlength=present.size * n_classes
    ).reshape(present.size, n_classes)
    # every row sits in one bin of each feature, so the counts below a
    # feature's bins are j whole nodes
    bounds = np.searchsorted(present, offset)
    seg = np.repeat(np.arange(mtry), bounds[1:] - bounds[:-1])
    nl = np.cumsum(rows_in_bin[present]) - seg * n
    # a split after code c sends codes <= c left; a feature's last present
    # code leaves nothing on the right
    valid = (nl >= min_leaf) & (n - nl >= min_leaf)
    valid[bounds[1:] - 1] = False
    cand = np.flatnonzero(valid)
    if not cand.size:
        return -1, 0.0
    m = cand.size
    left = np.cumsum(hist, axis=0)[cand] - seg[cand, None] * class_counts
    nl = nl[cand].astype(np.float64)
    nr = n - nl
    counts = np.concatenate([left, class_counts - left]).astype(np.float64)
    gini = _gini_from_counts(counts, np.concatenate([nl, nr]))
    weighted = (nl * gini[:m] + nr * gini[m:]) / n
    # within a feature the first minimum wins; across features, draw order
    # and a 1e-15 margin decide
    starts = np.searchsorted(seg[cand], np.arange(mtry + 1))
    firsts = starts[:-1][starts[:-1] < starts[1:]]
    best, pick = np.inf, -1
    for k, w in enumerate(np.minimum.reduceat(weighted, firsts).tolist()):
        if w < best - 1e-15:
            best, pick = w, k
    lo = firsts[pick]
    hi = firsts[pick + 1] if pick + 1 < firsts.size else m
    p = cand[lo + int(weighted[lo:hi].argmin())]
    j = seg[p]
    base = ranks.start[feats[j]] - offset[j]
    thr = 0.5 * (ranks.values[base + present[p]] + ranks.values[base + present[p + 1]])
    return int(feats[j]), thr


def _grow_tree(X, ranks, y_idx, n_classes, sample_rows, min_leaf, rng):
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
        counts = np.bincount(y_idx[rows], minlength=n_classes)
        tree.value[node] = counts / rows.size
        if counts.max() == rows.size or rows.size < 2 * min_leaf:
            continue
        feat, thr = _best_split(ranks, y_idx, rows, counts, mtry, min_leaf, rng)
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
    if trees < 1:
        raise SurrogateError(f"trees must be >= 1, got {trees}")
    if not 0.0 < holdout_fraction < 1.0:
        raise SurrogateError(
            f"holdout_fraction must lie in (0, 1), got {holdout_fraction}"
        )
    X = _as_features(features)
    y = _as_labels(roles)
    if X.shape[0] != y.shape[0]:
        raise SurrogateError(
            f"features have {X.shape[0]} rows but labels have {y.shape[0]}"
        )
    if np.isnan(X).any():
        # a NaN has no rank among a column's values
        raise SurrogateError("features contain NaN")
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

    ranks = _RankCodes.of(X)
    forest = []
    for i in range(trees):
        rng = np.random.default_rng(derive_seed(seed, "tree", i))
        boot = train_idx[rng.integers(0, train_idx.size, train_idx.size)]
        forest.append(_grow_tree(X, ranks, y_idx, class_labels.size, boot, min_leaf, rng))

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

    def formatted(self, m: int = 5):
        """Rows rendered like '27 (0.022 ±0.0006)'."""
        return [f"{o} ({mean:.3f} ±{std:.4f})" for o, mean, std in self.rows[:m]]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["rank", "orbit", "mean", "std"])
            for rank, (o, mean, std) in enumerate(self.rows, start=1):
                writer.writerow([rank, o, repr(float(mean)), repr(float(std))])


def _pinned_votes(trees, X, leaves, features, values):
    """Yield (cells, votes) per pass of at most ``_BLOCK_CELLS`` vote sums
    (one cell at least) over ``range(features.size)``: ``votes[q, i]`` are
    the class votes of ``trees``, summed in tree order, for row i of X with
    column ``features[q]`` read as ``values(cells)[q, i]``. ``leaves[t]``
    holds tree t's unpinned leaf of each row: a tree that never splits on
    the feature votes it, and one that does re-walks each row from the
    row's first node on the feature (``_Tree.first_splits``)."""
    shape = (X.shape[0], trees[0].value.shape[1])
    per_pass = max(1, _BLOCK_CELLS // max(1, shape[0] * shape[1]))
    for c0 in range(0, features.size, per_pass):
        cells = slice(c0, c0 + per_pass)
        feats, vals = features[cells], values(cells)
        votes = np.zeros((feats.size, *shape))
        for tree, leaf in zip(trees, leaves):
            moved = np.isin(feats, tree.feature)
            np.add(votes, tree.value[leaf], out=votes, where=~moved[:, None, None])
            if moved.any():
                q = np.flatnonzero(moved)
                start = tree.first_splits(X.shape[1])[leaf][:, feats[q]].T
                start = np.where(start >= 0, start, leaf)
                votes[q] += tree.value[tree.leaves(X, feats[q], vals[q], start)]
        yield cells, votes


def permutation_importance(
    model: SurrogateForest,
    features,
    roles,
    repeats: int = 5,
    seed: int = 0,
) -> ImportanceReport:
    """Holdout accuracy drop when one feature column is shuffled.

    The same holdout rows the model was scored on are reused; each
    (feature, repeat) cell gets its own derived shuffle seed, and its
    votes come from ``_pinned_votes`` with the holdout rows pinned to the
    shuffled column, so every accuracy equals that of a whole-forest
    prediction on the shuffled rows bit for bit. A feature no tree splits
    on gets a drop of exactly 0 without a shuffle. ``meta["cells"]``
    counts the cells shuffled.
    """
    if repeats < 1:
        raise SurrogateError("repeats must be >= 1")
    if not model.trees:
        raise SurrogateError("untrained model")
    X = _as_features(features)
    y = _as_labels(roles)
    X_test = X[model.test_idx]
    y_test = y[model.test_idx]
    trees = model.trees
    n_rows, n_classes = X_test.shape[0], model.class_labels.size
    leaves = [tree.leaves(X_test)[0] for tree in trees]
    used = np.array(sorted(model.features_used()), dtype=np.int64)

    def accuracy(votes):
        # votes: (..., rows, classes) sums over the trees in tree order
        pred = model.class_labels[(votes / len(trees)).argmax(axis=-1)]
        return (pred == y_test).mean(axis=-1)

    votes = np.zeros((n_rows, n_classes))
    for tree, leaf in zip(trees, leaves):
        votes += tree.value[leaf]
    baseline = float(accuracy(votes))

    cell_feature = np.repeat(used, repeats)
    cell_repeat = np.tile(np.arange(repeats), used.size)

    def shuffled(cells):
        return np.array([
            X_test[np.random.default_rng(derive_seed(seed, "perm", f, r)).permutation(n_rows), f]
            for f, r in zip(cell_feature[cells].tolist(), cell_repeat[cells].tolist())
        ])

    drops = np.empty(cell_feature.size)
    for cells, votes in _pinned_votes(trees, X_test, leaves, cell_feature, shuffled):
        drops[cells] = baseline - accuracy(votes)

    rows = [(f, 0.0, 0.0) for f in range(X.shape[1])]
    for f, d in zip(used.tolist(), drops.reshape(used.size, repeats)):
        rows[f] = (f, float(d.mean()), float(d.std()))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return ImportanceReport(
        rows=rows,
        baseline_accuracy=baseline,
        repeats=repeats,
        meta={"protocol": "holdout-20pct", "seed": seed, "cells": int(cell_feature.size)},
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
    bins: int = 32,
    kind: str = "ALE",
) -> list:
    """Effect of one orbit on every role's predicted probability: one curve
    per class, in ``model.class_labels`` order, from one pinned-vote pass
    (``_pinned_votes``), so the forest never predicts a pinned copy of X.

    ALE (Apley & Zhu, JRSS-B 2020): empirical-quantile bins (duplicate
    edges merged); each instance is pinned to its bin's upper and lower
    edge, the mean difference is accumulated across bins, and the curve is
    centered so the population-weighted mean is zero (instances sitting
    exactly on the grid minimum anchor to the first grid value). PDP: mean
    probability with the orbit pinned to each grid value, uncentered.
    """
    if kind not in EFFECT_KINDS:
        raise SurrogateError(f"unknown curve kind {kind!r}; expected one of {EFFECT_KINDS}")
    if bins < 2:
        raise SurrogateError("bins must be >= 2")
    X = _as_features(features)
    if not (0 <= orbit < X.shape[1]):
        raise SurrogateError(f"orbit {orbit} outside feature range")

    x = X[:, orbit]
    if x.min() == x.max():
        raise SurrogateError(f"orbit {orbit} is constant; no effect grid")
    edges = np.unique(np.quantile(x, np.linspace(0.0, 1.0, bins + 1)))

    # population per grid point: exact minimum anchors to edge 0, the rest
    # fall in bins (edge[k-1], edge[k]]
    bin_of = np.searchsorted(edges, x, side="left")
    population = np.bincount(bin_of, minlength=edges.size).astype(np.int64)

    if kind == "PDP":  # cell g pins every row to grid value g
        rows, pins = X, np.broadcast_to(edges[:, None], (edges.size, X.shape[0]))
    else:
        # every instance off the grid minimum, grouped by bin in row order,
        # pinned to its bin's upper (cell 0) and lower (cell 1) edge
        members = np.argsort(bin_of, kind="stable")[population[0]:]
        rows = X[members]
        pins = np.stack([edges[bin_of[members]], edges[bin_of[members] - 1]])
    trees = model.trees
    leaves = [tree.leaves(rows)[0] for tree in trees]
    probs = []
    for _, votes in _pinned_votes(trees, rows, leaves, np.full(len(pins), orbit), pins.__getitem__):
        # (classes, cells, rows): a mean over contiguous rows adds in the
        # order of numpy's mean over one column of predict_proba
        p = np.ascontiguousarray((votes / len(trees)).transpose(2, 0, 1))
        probs.append(p.mean(axis=-1) if kind == "PDP" else p)
    values = np.concatenate(probs, axis=1)

    if kind == "ALE":
        delta = values[:, 0] - values[:, 1]
        diffs = np.zeros((delta.shape[0], edges.size))  # mean step across each bin
        ends = np.cumsum(population) - population[0]  # bin k is delta[:, ends[k-1]:ends[k]]
        for k in range(1, edges.size):
            if population[k]:
                diffs[:, k] = delta[:, ends[k - 1] : ends[k]].mean(axis=1)
        accumulated = np.cumsum(diffs, axis=1)
        center = (population * accumulated).sum(axis=1) / max(1, population.sum())
        values = accumulated - center[:, None]
    return [
        ALECurve(orbit, int(c), edges, v, kind, population)
        for c, v in zip(model.class_labels.tolist(), values)
    ]


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
