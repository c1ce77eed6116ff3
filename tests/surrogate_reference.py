"""Reference forest fit: the per-feature sort-and-scan split search.

Each node draws its features with the same ``rng.choice`` call as
``orbitroles.surrogate``, then, feature by feature, sorts the node's rows
by value, takes the cumulative class counts over the sorted rows and
scores every boundary between two distinct values. The trees grow one at
a time. The production fit, which grows them in lockstep, must grow the
same trees bit for bit. ``reference_leaves`` and ``reference_reads`` walk
one tree row by row, and ``pack_trees`` lays such trees out as the node
set a fitted forest holds.
"""

from types import SimpleNamespace

import numpy as np

from orbitroles.seeds import derive_seed
from orbitroles.surrogate import _as_features, _Pack, _Tree


def _gini_from_counts(counts, totals):
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = counts / totals[..., None]
    return 1.0 - np.nansum(frac * frac, axis=-1)


def best_split(X, y_onehot, rows, mtry, min_leaf, rng):
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


def grow_tree(X, y_idx, n_classes, sample_rows, min_leaf, rng):
    y_onehot = np.zeros((X.shape[0], n_classes))
    y_onehot[np.arange(X.shape[0]), y_idx] = 1.0
    mtry = max(1, int(np.sqrt(X.shape[1])))
    tree = SimpleNamespace(feature=[], threshold=[], left=[], right=[], value=[])

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
        impurity, feat, thr = best_split(X, y_onehot, rows, mtry, min_leaf, rng)
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
    return _Tree(
        np.array(tree.feature, dtype=np.int32),
        np.array(tree.threshold, dtype=np.float64),
        np.array(tree.left, dtype=np.int32),
        np.array(tree.right, dtype=np.int32),
        np.array(tree.value, dtype=np.float64),
    )


def pack_trees(trees):
    """The node set (``_Pack``) of ``trees``, whose child ids are local to
    each tree: node i of tree t becomes node ``root[t] + i``, and so do its
    children. No trees make a node set with no nodes."""
    sizes = [len(tree.feature) for tree in trees]
    root = np.zeros(len(trees) + 1, dtype=np.int64)
    np.cumsum(sizes, out=root[1:])

    def joined(attr, empty):
        return np.concatenate([getattr(tree, attr) for tree in trees]) if trees else empty

    feature = joined("feature", np.zeros(0)).astype(np.int32)
    left = joined("left", np.zeros(0)) + np.repeat(root[:-1], sizes)
    return _Pack(
        feature,
        joined("threshold", np.zeros(0)),
        np.where(feature >= 0, left, -1).astype(np.int32),
        joined("value", np.zeros((0, 0))),
        root,
    )


class CountingRng:
    """A generator that counts its ``choice`` calls: one per split search."""

    def __init__(self, rng):
        self.rng, self.searches = rng, 0

    def choice(self, *args, **kwargs):
        self.searches += 1
        return self.rng.choice(*args, **kwargs)


def reference_trees(model, features, roles, min_leaf=5, searches=None):
    """Regrow every tree of ``model`` with the reference split search, from
    the model's own training rows and the tree seeds ``train_surrogate``
    derives. Each tree's number of split searches is appended to
    ``searches`` when it is given."""
    X = _as_features(features)
    y_idx = np.searchsorted(model.class_labels, np.asarray(roles, dtype=np.int64))
    train_idx = model.train_idx
    trees = []
    for i in range(len(model.trees)):
        rng = np.random.default_rng(derive_seed(model.seed, "tree", i))
        boot = train_idx[rng.integers(0, train_idx.size, train_idx.size)]
        counting = CountingRng(rng)
        trees.append(grow_tree(X, y_idx, model.class_labels.size, boot, min_leaf, counting))
        if searches is not None:
            searches.append(counting.searches)
    return trees


def _walks(tree, X):
    # (leaf, features read on the way) of every row of X, row by row
    for x in np.asarray(X, dtype=np.float64):
        node, read = 0, set()
        while tree.feature[node] >= 0:
            read.add(int(tree.feature[node]))
            below = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if below else tree.right[node]
        yield node, read


def reference_leaves(tree, X):
    """Local leaf of every row of X in one tree, walked row by row."""
    return np.array([leaf for leaf, _ in _walks(tree, X)], dtype=np.int64)


def reference_reads(tree, X):
    """The set of features each row of X reads on its walk of one tree."""
    return [read for _, read in _walks(tree, X)]
