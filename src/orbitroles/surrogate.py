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

The trees grow in lockstep (``_grow_forest``), in groups of up to
``_LOCKSTEP_TREES``, because a split search costs about the same numpy
calls on 10 rows as on 1,000. Each tree keeps its own depth-first stack
and its own rng, so it draws and numbers its nodes as a tree grown alone
would. A round pops the top node of every tree of the group, and one
batched histogram scores them all, with keys offset per (node, drawn
feature); the same batch partitions the rows of the nodes that split.

The fit builds every tree's nodes into one set of arrays (``_Pack``),
and the forest keeps only that set; ``SurrogateForest.trees`` slices
per-tree views of it for readers of one tree at a time. It is walked all
trees at once: the holdout accuracy, and the leaves behind importance and
the effect curves. Importance, ALE and PDP all ask what the forest votes
when one column reads other values, and one pass answers
(``_pinned_votes``): every tree walks the rows once, and walks again only
the rows whose walk reads the column, from the first node that tests it,
reading the pinned value there. Summed tree by tree in tree order, the
votes are those of a whole-forest prediction on pinned copies of the
rows, bit for bit, and no copy is made.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import write_csv
from .seeds import derive_seed

# most (cell, row, class) vote sums one pinned-vote pass holds, and most
# (tree, cell, row) entries one walk of the packed forest holds; more run
# in further passes
_BLOCK_CELLS = 1 << 18

# about the most histogram keys one batch of a fit round holds (a batch
# counts at most 8 bins a key, ``_best_splits``)
_FIT_CELLS = 1 << 16

# most trees grown in lockstep: a group holds its trees' rows and nodes
# until its last tree is done
_LOCKSTEP_TREES = 32

# the curve kinds ``effect_curve`` draws
EFFECT_KINDS = ("ALE", "PDP")


class SurrogateError(ValueError):
    pass


def _as_labels(roles):
    labels = getattr(roles, "labels", roles)
    return np.asarray(labels, dtype=np.int64)


def _as_features(features, width=None):
    """The features as a float64 matrix, which must have ``width`` columns
    when it is given: a walk reads X at row * columns + feature, so a
    matrix of another width reads other rows' cells."""
    values = np.asarray(getattr(features, "values", features), dtype=np.float64)
    if width is not None and (values.ndim != 2 or values.shape[1] != width):
        raise SurrogateError(
            f"features have shape {values.shape}, but the forest was fit on {width} columns"
        )
    return values


class _Tree:
    """One tree of a forest, as ``SurrogateForest.trees`` slices it: int32
    ``feature`` (-1 marks a leaf), ``left`` and ``right``, numbered within
    the tree, float64 ``threshold`` and (nodes, classes) ``value``."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature, self.threshold, self.value = feature, threshold, value
        self.left, self.right = left, right


@dataclass
class _Pack:
    """The nodes of every tree of a forest in one set of arrays, built once
    by the fit: node i of tree t is node ``root[t] + i``. ``feature`` and
    ``left`` are int32, and ``feature`` is -1 at a leaf; ``left`` numbers
    a split's left child across the whole forest, and the right child is
    ``left + 1``."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray  # (nodes, classes): the class votes of each node
    root: np.ndarray  # (trees + 1,): tree t owns nodes root[t]:root[t + 1]

    @property
    def n_trees(self) -> int:
        return self.root.size - 1

    def walk(self, X, node, row, pin=None, val=None):
        """Leaf that row ``row[e]`` of X reaches from node ``node[e]``, for
        every entry e. Wherever a node tests column ``pin[e]``, entry e
        reads ``val[e]`` instead of its row's own value."""
        node = node.copy()
        flat, cell = np.ascontiguousarray(X).ravel(), row * np.int64(X.shape[1])
        live = np.flatnonzero(self.feature.take(node) >= 0)
        while live.size:
            at = node.take(live)
            feat = self.feature.take(at)
            x = flat.take(cell.take(live) + feat)
            if pin is not None:
                x = np.where(feat == pin.take(live), val.take(live), x)
            at = self.left.take(at) + ~(x <= self.threshold.take(at))
            node[live] = at
            live = live[self.feature.take(at) >= 0]
        return node

    def leaves(self, X):
        """(trees, rows) leaf of every row of X in every tree, walked in
        passes of at most ``_BLOCK_CELLS`` (tree, row) entries."""
        n, trees = X.shape[0], self.n_trees
        per_pass = max(1, _BLOCK_CELLS // max(1, n))
        out = np.empty((trees, n), dtype=np.int32)
        for t0 in range(0, trees, per_pass):
            roots = self.root[t0 : min(t0 + per_pass, trees)]
            rows = np.tile(np.arange(n, dtype=np.int32), roots.size)
            node = self.walk(X, np.repeat(roots.astype(np.int32), n), rows)
            out[t0 : t0 + roots.size] = node.reshape(roots.size, n)
        return out

    def add_votes(self, votes, leaves):
        """Add the class votes of ``leaves`` (trees, ...) to ``votes``
        (..., classes), tree by tree in tree order."""
        for leaf in leaves:
            votes += self.value.take(leaf, axis=0)
        return votes

    def first_splits(self, t0, t1, feats):
        """(nodes, features) table over the nodes of trees t0..t1 - 1, node
        ``root[t0]`` first: the shallowest proper ancestor of each node
        that splits on ``feats[j]``, or -1. A row whose walk ends in leaf L
        first reads that feature at node ``table[L - root[t0], j]``."""
        base = self.root[t0]
        table = np.full((self.root[t1] - base, feats.size), -1, dtype=np.int32)
        parents = self.root[t0:t1]
        while parents.size:
            parents = parents[self.feature[parents] >= 0]
            kids = np.concatenate([self.left[parents], self.left[parents] + 1])
            parents = np.concatenate([parents, parents])
            above = table[parents - base]
            first = (above < 0) & (self.feature[parents][:, None] == feats)
            table[kids - base] = np.where(first, parents[:, None], above)
            parents = kids
        return table

    def uses(self, n_features):
        """(trees, features) mask: whether tree t splits on feature f."""
        tree = np.repeat(np.arange(self.n_trees), np.diff(self.root))
        split = self.feature >= 0
        mask = np.zeros((self.n_trees, n_features), dtype=bool)
        mask[tree[split], self.feature[split]] = True
        return mask


def _gini_from_counts(counts, totals):
    # (m, classes) counts over m positive totals
    frac = counts / totals[:, None]
    frac *= frac
    return 1.0 - frac.sum(axis=1)


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
        # the smallest unsigned dtype that holds every code: a smaller
        # table gathers faster
        codes = np.empty((X.shape[1], X.shape[0]), dtype=np.min_scalar_type(X.shape[0]))
        values = []
        for f in range(X.shape[1]):
            distinct, codes[f] = np.unique(X[:, f], return_inverse=True)
            values.append(distinct)
        start = np.cumsum([0] + [v.size for v in values])
        return cls(codes, np.concatenate(values), start)


def _best_splits(ranks, y_idx, rows, node, sizes, counts, feats, min_leaf):
    """(feature, threshold) of each node of a batch: the lowest weighted
    Gini over the node's drawn features, or feature -1 when no boundary
    leaves ``min_leaf`` rows on both sides. ``rows`` holds the nodes' rows
    end to end and ``node`` the node of each; node k has ``sizes[k]`` rows
    and class counts ``counts[k]``, and drew ``feats[k]``. Its j-th drawn
    feature is pair p = k * mtry + j, which owns the histogram bins
    offset[p] + code. A batch with many more bins than keys finds its
    present bins by sorting the keys instead of counting every bin."""
    n_nodes, mtry = feats.shape
    n_classes = counts.shape[1]
    pair_feat = feats.ravel()
    offset = np.zeros(pair_feat.size + 1, dtype=np.int64)
    (ranks.start.take(pair_feat + 1) - ranks.start.take(pair_feat)).cumsum(out=offset[1:])
    # take, and methods rather than functions: a batch is a few nodes, so
    # call overhead counts
    at = (feats * ranks.codes.shape[1]).take(node, axis=0) + rows[:, None]
    keys = ranks.codes.ravel().take(at) + offset[:-1].reshape(n_nodes, mtry).take(node, axis=0)
    if offset[-1] > 8 * keys.size:
        present, slot, rows_in_bin = np.unique(keys, return_inverse=True, return_counts=True)
    else:
        rows_in_bin = np.bincount(keys.ravel(), minlength=offset[-1])
        present = rows_in_bin.nonzero()[0]
        rows_in_bin = rows_in_bin.take(present)
        slot = np.empty(offset[-1], dtype=np.int64)
        slot[present] = np.arange(present.size)
        slot = slot.take(keys)
    # slot: the present bin of each key; rows_in_bin: the rows of each
    hist = np.bincount(
        (slot.reshape(keys.shape) * n_classes + y_idx.take(rows)[:, None]).ravel(),
        minlength=present.size * n_classes,
    ).reshape(present.size, n_classes)
    # every row sits in one bin of each pair, so the counts below a pair's
    # bins are those of the whole pairs before it
    bounds = present.searchsorted(offset)
    seg = np.arange(pair_feat.size).repeat(bounds[1:] - bounds[:-1])
    pair_rows = sizes.repeat(mtry)
    pair_counts = counts.repeat(mtry, axis=0)
    n = pair_rows.take(seg)
    nl = rows_in_bin.cumsum() - (pair_rows.cumsum() - pair_rows).take(seg)
    # a split after code c sends codes <= c left; a pair's last present
    # code leaves nothing on the right
    valid = (nl >= min_leaf) & (n - nl >= min_leaf)
    valid[bounds[1:] - 1] = False
    cand = valid.nonzero()[0]
    feature = np.full(n_nodes, -1, dtype=np.int32)
    threshold = np.zeros(n_nodes)
    if not cand.size:
        return feature, threshold
    m, pair = cand.size, seg.take(cand)
    below = pair_counts.cumsum(axis=0) - pair_counts
    left = hist.cumsum(axis=0).take(cand, axis=0) - below.take(pair, axis=0)
    nl = nl.take(cand).astype(np.float64)
    n = n.take(cand)
    nr = n - nl
    split_counts = np.concatenate([left, pair_counts.take(pair, axis=0) - left])
    gini = _gini_from_counts(split_counts, np.concatenate([nl, nr]))
    weighted = (nl * gini[:m] + nr * gini[m:]) / n
    # within a pair the first minimum wins; across a node's pairs, draw
    # order and a 1e-15 margin decide
    firsts = np.concatenate([[0], (pair[1:] != pair[:-1]).nonzero()[0] + 1])
    pair_min = np.full(pair_feat.size, np.inf)
    pair_min[pair.take(firsts)] = np.minimum.reduceat(weighted, firsts)
    # (a batch holds one node of each tree of a lockstep group at most)
    chosen = np.zeros(pair_feat.size, dtype=bool)
    for k, row in enumerate(pair_min.reshape(n_nodes, mtry).tolist()):
        best, pick = np.inf, -1
        for j, w in enumerate(row):
            if w < best - 1e-15:
                best, pick = w, j
        if pick >= 0:
            chosen[k * mtry + pick] = True
    # the first candidate at its pair's minimum, in each chosen pair
    hits = (chosen.take(pair) & (weighted == pair_min.take(pair))).nonzero()[0]
    pair = pair.take(hits)
    first = np.ones(hits.size, dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    p, pair = cand.take(hits[first]), pair[first]
    base = ranks.start.take(pair_feat.take(pair)) - offset.take(pair)
    feature[pair // mtry] = pair_feat.take(pair)
    threshold[pair // mtry] = 0.5 * (
        ranks.values.take(base + present.take(p)) + ranks.values.take(base + present.take(p + 1))
    )
    return feature, threshold


def _split_rows(flat, n_features, y_idx, n_classes, rows, node, feature, threshold):
    """The children of every node k of a batch: child 2k gets the rows of
    node k whose value of ``feature[k]`` is at most ``threshold[k]``, and
    child 2k + 1 the others (a node with feature -1 reads column 0).
    Returns the rows grouped by child in their order, where child c owns
    ``rows[edge[c]:edge[c + 1]]``, and the children's class counts."""
    x = flat.take(rows * np.int64(n_features) + np.maximum(feature, 0).take(node))
    child = 2 * node + ~(x <= threshold.take(node))
    n_children = 2 * feature.size
    edge = np.zeros(n_children + 1, dtype=np.int64)
    np.bincount(child, minlength=n_children).cumsum(out=edge[1:])
    counts = np.bincount(child * n_classes + y_idx.take(rows), minlength=n_children * n_classes)
    # the smallest dtype that holds every child sorts by radix
    order = child.astype(np.min_scalar_type(n_children)).argsort(kind="stable")
    return rows.take(order), edge, counts.reshape(n_children, n_classes)


def _grow_forest(X, ranks, y_idx, n_classes, boots, rngs, min_leaf):
    """The forest of one tree per rng of ``rngs``, each grown from the next
    bootstrap rows of ``boots``, as one node set (``_Pack``); returns it
    and the number of rounds.

    The trees grow in lockstep, in groups of up to ``_LOCKSTEP_TREES`` one
    group after the other, and ``boots`` is drawn from a group at a time.
    Each tree keeps a depth-first stack of its nodes that need a split
    search (impure, with 2 * ``min_leaf`` rows or more). A round pops the
    top node of every tree of the group that has one, and each draws its
    features from its tree's rng. One ``_best_splits`` histogram scores the
    popped nodes, in batches of about ``_FIT_CELLS`` keys, and the same
    batch splits their rows (``_split_rows``). A tree draws and numbers its
    nodes in the order of a tree grown alone. The new nodes and splits of a
    batch are kept as arrays, and the node set is assembled from them at
    the end (``_assemble``).
    """
    mtry = max(1, int(np.sqrt(X.shape[1])))
    flat = np.ascontiguousarray(X).ravel()
    boots = iter(boots)
    size = np.ones(len(rngs), dtype=np.int32)  # nodes numbered in each tree
    # (tree, node, class counts) of every node and (tree, node, feature,
    # threshold, left child) of every split
    made, splits, rounds = [], [], 0
    for g in range(0, len(rngs), _LOCKSTEP_TREES):
        group = range(g, min(g + _LOCKSTEP_TREES, len(rngs)))
        roots = [next(boots) for _ in group]
        counts = np.array([np.bincount(y_idx[rows], minlength=n_classes) for rows in roots])
        made.append((np.array(group), np.zeros(len(group), dtype=np.int32), counts))
        stacks = {
            t: [(0, rows, c)] if rows.size >= 2 * min_leaf and max(c) < rows.size else []
            for t, rows, c in zip(group, roots, counts.tolist())
        }
        del roots  # the stacks hold the roots' rows, until they split
        while any(stacks.values()):
            rounds += 1
            popped = [(t, *stack.pop()) for t, stack in stacks.items() if stack]
            feats = np.array([
                rngs[t].choice(X.shape[1], size=mtry, replace=False) for t, *_ in popped
            ])
            sizes = np.array([rows.size for _, _, rows, _ in popped])
            # a new batch wherever the running count of keys passes a
            # multiple of the bound; its bins are at most 8 times its keys
            batch_of = (sizes * mtry).cumsum() // _FIT_CELLS
            ends = (batch_of[1:] != batch_of[:-1]).nonzero()[0] + 1
            for k0, k1 in zip([0, *ends.tolist()], [*ends.tolist(), len(popped)]):
                batch = popped[k0:k1]
                rows = np.concatenate([r for _, _, r, _ in batch])
                node = np.arange(len(batch)).repeat(sizes[k0:k1])
                feature, threshold = _best_splits(
                    ranks, y_idx, rows, node, sizes[k0:k1],
                    np.array([c for *_, c in batch]), feats[k0:k1], min_leaf,
                )
                rows, edge, counts = _split_rows(
                    flat, X.shape[1], y_idx, n_classes, rows, node, feature, threshold
                )
                kid_rows = edge[1:] - edge[:-1]
                split = (feature >= 0) & (kid_rows[0::2] > 0) & (kid_rows[1::2] > 0)
                split = split.nonzero()[0]
                if not split.size:
                    continue
                # the records are int32 but for the thresholds: all trees'
                # nodes are held until the end
                tree = np.array([t for t, *_ in batch], dtype=np.int32).take(split)
                first = size.take(tree)
                size[tree] += 2  # a batch holds one node of a tree at most
                splits.append((
                    tree, np.array([at for _, at, *_ in batch], dtype=np.int32).take(split),
                    feature.take(split), threshold.take(split), first,
                ))
                kids, kid_ids = (2 * split).repeat(2), first.repeat(2)
                kids[1::2] += 1
                kid_ids[1::2] += 1
                kid_counts, kid_rows = counts.take(kids, axis=0), kid_rows.take(kids)
                made.append((tree.repeat(2), kid_ids, kid_counts.astype(np.int32)))
                search = (kid_rows >= 2 * min_leaf) & (kid_counts.max(axis=1) < kid_rows)
                edge, counts, search = edge.tolist(), counts.tolist(), search.tolist()
                for i, (t, c, at) in enumerate(
                    zip(tree.tolist(), kids[0::2].tolist(), first.tolist())
                ):
                    # right child first, so that the left one is searched
                    # first; the right one may wait long and gets its own
                    # copy of its rows, which frees the batch's
                    if search[2 * i + 1]:
                        right = rows[edge[c + 1] : edge[c + 2]].copy()
                        stacks[t].append((at + 1, right, counts[c + 1]))
                    if search[2 * i]:
                        stacks[t].append((at, rows[edge[c] : edge[c + 1]], counts[c]))
    return _assemble(size, made, splits), rounds


def _assemble(size, made, splits):
    """The node set (``_Pack``) of ``_grow_forest``'s node and split
    records; tree t has ``size[t]`` nodes."""
    root = np.zeros(size.size + 1, dtype=np.int64)
    np.cumsum(size, out=root[1:])
    feature = np.full(root[-1], -1, dtype=np.int32)
    threshold = np.zeros(root[-1])
    left = np.full(root[-1], -1, dtype=np.int32)
    value = np.empty((root[-1], made[0][2].shape[1]))
    for tree, node, counts in made:
        value[root.take(tree) + node] = counts / counts.sum(axis=1, keepdims=True)
    for tree, node, feat, thr, first in splits:
        base = root.take(tree)
        at = base + node
        feature[at], threshold[at], left[at] = feat, thr, base + first
    return _Pack(feature, threshold, left, value, root)


@dataclass
class SurrogateForest:
    """Random forest over orbit features with a held-out accuracy: one node
    set (``nodes``), fit on ``n_features`` columns."""

    nodes: _Pack
    n_features: int
    class_labels: np.ndarray
    holdout_accuracy: float
    seed: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    fit_rounds: int = 0  # lockstep rounds of the fit, summed over the groups

    @property
    def trees(self) -> list:
        """Per-tree views of ``nodes`` (``_Tree``), with child ids local to
        each tree, for readers of one tree at a time."""
        nodes, trees = self.nodes, []
        for a, b in zip(nodes.root[:-1].tolist(), nodes.root[1:].tolist()):
            feature = nodes.feature[a:b]
            left = np.where(feature >= 0, nodes.left[a:b] - a, -1)
            right = np.where(feature >= 0, left + 1, -1)
            trees.append(_Tree(feature, nodes.threshold[a:b], left, right, nodes.value[a:b]))
        return trees

    def predict_proba(self, X):
        X = _as_features(X, self.n_features)
        votes = np.zeros((X.shape[0], self.class_labels.size))
        return self.nodes.add_votes(votes, self.nodes.leaves(X)) / self.nodes.n_trees

    def predict(self, X):
        probs = self.predict_proba(X)
        # argmax takes the first maximum: ties go to the lowest class id
        return self.class_labels[probs.argmax(axis=1)]

    def features_used(self):
        feature = self.nodes.feature
        return set(np.unique(feature[feature >= 0]).tolist())


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

    rngs = [np.random.default_rng(derive_seed(seed, "tree", i)) for i in range(trees)]
    # int32 rows, drawn as their lockstep group starts
    draws = (r.integers(0, train_idx.size, train_idx.size) for r in rngs)
    boots = (train_idx[d].astype(np.int32) for d in draws)
    nodes, rounds = _grow_forest(
        X, _RankCodes.of(X), y_idx, class_labels.size, boots, rngs, min_leaf
    )
    model = SurrogateForest(
        nodes=nodes,
        n_features=X.shape[1],
        class_labels=class_labels,
        holdout_accuracy=0.0,
        seed=seed,
        train_idx=train_idx,
        test_idx=test_idx,
        fit_rounds=rounds,
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
        rows = [(rank, *row) for rank, row in enumerate(self.rows, start=1)]
        write_csv(path, ["rank", "orbit", "mean", "std"], rows)


def _pinned_votes(pack, X, leaves, features, values):
    """Yield (cells, votes) per pass over ``range(features.size)``:
    ``votes[q, i]`` are the class votes of the forest, summed in tree
    order, for row i of X with column ``features[q]`` read as
    ``values(cells)[q, i]``. ``leaves[t]`` holds tree t's unpinned leaf of
    each row. A tree that never splits on the feature votes it, and one
    that does re-walks each row whose walk reads the feature, from the
    row's first node on it (``_Pack.first_splits``). A pass holds at most
    ``_BLOCK_CELLS`` (cell, row, class) vote sums, and walks its trees in
    groups of at most ``_BLOCK_CELLS`` (tree, cell, row) entries (one cell
    of one tree at least)."""
    n_trees, n = leaves.shape
    n_classes = pack.value.shape[1]
    uses = pack.uses(X.shape[1])
    per_pass = max(1, _BLOCK_CELLS // max(1, n * n_classes))
    for c0 in range(0, features.size, per_pass):
        cells = slice(c0, c0 + per_pass)
        # int32 node, row and column ids keep a walk's entries small
        feats, vals = features[cells].astype(np.int32), values(cells)
        distinct, column = np.unique(feats, return_inverse=True)
        votes = np.zeros((feats.size, n, n_classes))
        per_walk = max(1, _BLOCK_CELLS // max(1, feats.size * n))
        for t0 in range(0, n_trees, per_walk):
            t1 = min(t0 + per_walk, n_trees)
            moved = uses[t0:t1][:, feats]
            t, q = np.nonzero(moved)
            if t.size:
                # (pair, row) entries, flat; only a row whose walk reads the
                # pinned column moves
                node = leaves[t0 + t]
                table = pack.first_splits(t0, t1, distinct)
                start = table.ravel().take(
                    (node - pack.root[t0]) * distinct.size + column.take(q)[:, None]
                ).ravel()
                entry = (start >= 0).nonzero()[0]
                pair, row = np.divmod(entry, n)
                node.ravel()[entry] = pack.walk(
                    X, start.take(entry), row.astype(np.int32), feats.take(q.take(pair)),
                    vals.ravel().take(q.take(pair) * n + row),
                )
            # tree t0 + i re-walked the cells q[ends[i]:ends[i + 1]]
            ends = np.searchsorted(t, np.arange(t1 - t0 + 1)).tolist()
            for i in range(t1 - t0):
                vote = pack.value.take(leaves[t0 + i], axis=0)
                if ends[i] == ends[i + 1]:
                    votes += vote
                else:
                    np.add(votes, vote, out=votes, where=~moved[i][:, None, None])
                    at = slice(ends[i], ends[i + 1])
                    votes[q[at]] += pack.value.take(node[at], axis=0)
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
    if model.nodes.n_trees < 1:
        raise SurrogateError("untrained model")
    X = _as_features(features, model.n_features)
    y = _as_labels(roles)
    X_test = X[model.test_idx]
    y_test = y[model.test_idx]
    n_rows, n_classes = X_test.shape[0], model.class_labels.size
    pack = model.nodes
    leaves = pack.leaves(X_test)
    used = np.array(sorted(model.features_used()), dtype=np.int64)

    def accuracy(votes):
        # votes: (..., rows, classes) sums over the trees in tree order
        pred = model.class_labels[(votes / pack.n_trees).argmax(axis=-1)]
        return (pred == y_test).mean(axis=-1)

    baseline = float(accuracy(pack.add_votes(np.zeros((n_rows, n_classes)), leaves)))

    cell_feature = np.repeat(used, repeats)
    cell_repeat = np.tile(np.arange(repeats), used.size)

    def shuffled(cells):
        return np.array([
            X_test[np.random.default_rng(derive_seed(seed, "perm", f, r)).permutation(n_rows), f]
            for f, r in zip(cell_feature[cells].tolist(), cell_repeat[cells].tolist())
        ])

    drops = np.empty(cell_feature.size)
    for cells, votes in _pinned_votes(pack, X_test, leaves, cell_feature, shuffled):
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
    X = _as_features(features, model.n_features)
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
    pack = model.nodes
    cells = np.full(len(pins), orbit)
    probs = []
    for _, votes in _pinned_votes(pack, rows, pack.leaves(rows), cells, pins.__getitem__):
        # (classes, cells, rows): a mean over contiguous rows adds in the
        # order of numpy's mean over one column of predict_proba
        p = np.ascontiguousarray((votes / pack.n_trees).transpose(2, 0, 1))
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


def write_effect_curves(curves, threshold, path) -> None:
    """Plot-ready CSV of curves plus the triangle-threshold annotation,
    whose effect is absent (NaN)."""
    rows = [
        (curve.orbit, curve.class_id, curve.kind, g, v)
        for curve in curves
        for g, v in zip(curve.grid, curve.values)
    ]
    if threshold is not None:
        rows.append(("annotation", "", "orbit3_threshold", threshold, np.nan))
    write_csv(path, ["orbit", "class", "kind", "grid_value", "effect"], rows)
