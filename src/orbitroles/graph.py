"""Immutable undirected simple graph plus node attribute tables.

Edges are stored as CSR arrays, built once at load and read by every
stage. External string ids map to dense indices; every matrix downstream
is aligned to that index order. Directed inputs are symmetrized at load,
but the original line order (source cites target) is retained as an array
so citation direction can be recovered for diversity scoring.

``Graph.copies`` keys the components by their size and local edge
positions, once per graph: the census and GraphWave compute each distinct
component once and copy its rows to the others (``distinct_part``).

Every output CSV is written by ``write_csv``, in one format: UTF-8, ``\n``
line ends and ``csv.writer``'s quoting; an optional first line
``# key=value ...``; the header; then one line per row. Each column is
formatted once by its dtype: floats by ``repr`` and NaN, an absent value,
as an empty cell; bools as ``true``/``false``; anything else by ``str``.
A per-node CSV (orbits, embeddings, roles, the node table, diversity) has
``id`` as its first column and one line per node of its table, in the
table's order; the numeric matrices among them go through
``write_node_rows``, which formats each distinct row once (their values
are never NaN). ``read_node_rows`` reads a per-node CSV back, the
``#`` line as its ``meta``, so an id that ``csv.writer`` quotes, or one
that starts with ``#``, reads back as written.
"""

from __future__ import annotations

import csv
import io
import logging
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

logger = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """Malformed edge-list or node-table input."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph over dense node indices [0, N), in CSR form.

    The neighbours of v are ``indices[indptr[v]:indptr[v + 1]]``, ascending:
    no self loops, no repeats, and u is a neighbour of v iff v is one of u.
    ``directed_pairs`` optionally holds the as-read (source, target) pairs
    of the input file as an (m, 2) array; None for graphs with no direction
    info. All three are read-only int64 arrays."""

    indptr: np.ndarray
    indices: np.ndarray
    directed_pairs: np.ndarray | None = None

    @property
    def node_count(self) -> int:
        return self.indptr.size - 1

    @property
    def edge_count(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def adjacency(self) -> tuple:
        """The neighbours of each node as an ascending tuple of Python ints,
        for the oracle, whose bitmasks ``1 << w`` overflow int64 at w = 63."""
        bounds, flat = self.indptr.tolist(), self.indices.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    def edges(self):
        """Each undirected edge once as (u, v) with u < v, ascending."""
        rows = np.repeat(np.arange(self.node_count), self.degrees())
        upper = rows < self.indices
        return zip(rows[upper].tolist(), self.indices[upper].tolist())

    def components(self) -> list:
        """Connected components as lists of node indices: each ascending,
        in the order of their smallest nodes. Min-label hooking with pointer
        jumping: each round hooks every tree's root to the least root across
        its edges, then points every node at its root."""
        parent = np.arange(self.node_count)
        rows, cols = np.repeat(parent, self.degrees()), self.indices
        while rows.size:
            a, b = parent[rows], parent[cols]
            # an edge inside one tree stays inside it
            cross = a != b
            rows, cols = rows[cross], cols[cross]
            np.minimum.at(parent, a[cross], b[cross])
            while not np.array_equal(parent[parent], parent):
                parent = parent[parent]
        # labels only fall, so each root is its component's smallest node
        order = np.argsort(parent, kind="stable").tolist()
        sizes = np.bincount(parent)
        ends = np.cumsum(sizes[sizes > 0]).tolist()
        return [order[a:b] for a, b in zip([0] + ends, ends)]

    def local_edges(self, comp) -> np.ndarray:
        """The flat positions i * k + j of the edges (i, j) of the component
        ``comp`` (its k nodes, ascending), i and j the ranks of their ends in
        it: int64, ascending, each edge in both directions."""
        comp = np.asarray(comp, dtype=np.int64)
        return _local_edges(self, comp, np.array([comp.size]))[0]

    @cached_property
    def copies(self) -> tuple:
        """``(components, first)``: the components as ``components()`` lists
        them, and for each the index of the first component with the same
        key, its size and its ``local_edges``. Equal keys name the same
        graph with its nodes in the same order, so whatever is computed from
        a component alone comes out the same, bit for bit, for each copy at
        each position. Only components of a size that repeats are keyed.
        Computed once per graph: the pipeline reads it before it forks
        GraphWave's lane, which then inherits it."""
        components = self.components()
        sizes = np.array([len(c) for c in components], dtype=np.int64)
        first = list(range(len(components)))
        keyed = np.flatnonzero(np.bincount(sizes)[sizes] > 1)
        if keyed.size:
            nodes = np.concatenate([components[i] for i in keyed.tolist()])
            flat, bounds = _local_edges(self, nodes, sizes[keyed])
            keys = {}
            for i, k, a, b in zip(keyed.tolist(), sizes[keyed].tolist(), bounds, bounds[1:]):
                first[i] = keys.setdefault((k, flat[a:b].tobytes()), i)
        return components, first

    def distinct_part(self) -> tuple:
        """``(sub, source)``: the subgraph of the components that are the
        first of their key (``copies``), in their order, and for each node
        of this graph the node of ``sub`` at its position in the first
        component with its key. Without repeats, ``(self, None)``."""
        components, first = self.copies
        first = np.array(first, dtype=np.int64)
        kept = first == np.arange(first.size)
        if kept.all():
            return self, None
        sizes = np.array([len(c) for c in components], dtype=np.int64)
        order = np.concatenate([np.asarray(c, dtype=np.int64) for c in components])
        label = np.repeat(np.arange(sizes.size), sizes)
        rank = np.arange(order.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        kept_sizes = np.where(kept, sizes, 0)
        source = np.empty(self.node_count, dtype=np.int64)
        # the first node of each kept component in sub, read for every copy
        source[order] = (np.cumsum(kept_sizes) - kept_sizes)[first[label]] + rank
        nodes = order[kept[label]]
        deg = self.indptr[nodes + 1] - self.indptr[nodes]
        indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        entry = np.arange(indptr[-1]) + np.repeat(self.indptr[nodes] - indptr[:-1], deg)
        # a kept node's source is its own node of sub; ranks ascend with the
        # nodes of a component, so each row stays ascending
        indices = source[self.indices[entry]]
        indptr.flags.writeable = indices.flags.writeable = False
        return Graph(indptr=indptr, indices=indices), source

    @staticmethod
    def from_edges(node_count: int, edges, directed_pairs=None) -> "Graph":
        """Build from index pairs (a sequence of pairs or an (m, 2) array);
        drops self loops, dedups and symmetrizes. The first pair with an
        endpoint outside [0, node_count) that is not a self loop raises."""
        n = node_count
        uv = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        keep = uv[:, 0] != uv[:, 1]
        bad = keep & ((uv < 0) | (uv >= n)).any(axis=1)
        if bad.any():
            raise ValueError(f"edge {tuple(uv[np.argmax(bad)].tolist())} outside [0, {n})")
        u, v = uv[keep].T
        # sort, then keep each run's first key: np.unique is many times slower
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        rows, indices = np.divmod(keys[np.diff(keys, prepend=-1) > 0], n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indptr.flags.writeable = indices.flags.writeable = False
        if directed_pairs is not None:
            # a view, so that a caller's own array stays writeable
            directed_pairs = np.asarray(directed_pairs, dtype=np.int64).reshape(-1, 2).view()
            directed_pairs.flags.writeable = False
        return Graph(indptr=indptr, indices=indices, directed_pairs=directed_pairs)


def _local_edges(graph, nodes, sizes):
    """``Graph.local_edges`` of several components at once: ``nodes`` holds
    their nodes, each component's ascending, and ``sizes`` their sizes.
    Returns the positions of all, one component after the other, and the
    bounds of each one's run as a list of len(sizes) + 1 ints."""
    starts = np.cumsum(sizes) - sizes
    label = np.repeat(np.arange(sizes.size), sizes)
    deg = graph.indptr[nodes + 1] - graph.indptr[nodes]
    row = np.repeat(np.arange(nodes.size), deg)
    entry = np.arange(row.size) + np.repeat(graph.indptr[nodes] - np.cumsum(deg) + deg, deg)
    # (component, node) ascends over ``nodes``, so a search finds each
    # entry's far end; every CSR row ascends, so the positions come out sorted
    n, at = graph.node_count, label[row]
    far = np.searchsorted(label * n + nodes, at * n + graph.indices[entry]) - starts[at]
    flat = (row - starts[at]) * sizes[at] + far
    ends = np.cumsum(deg)[np.cumsum(sizes) - 1]
    return flat, [0] + ends.tolist()


@dataclass
class NodeTable:
    """Per-node external ids and optional discipline labels.

    Aligned 1:1 with the companion Graph's indices. A missing category is
    None, never the empty string.
    """

    external_ids: list
    categories: list = None

    def __post_init__(self):
        if self.categories is None:
            self.categories = [None] * len(self.external_ids)
        if len(self.categories) != len(self.external_ids):
            raise ValueError("categories length does not match external_ids")
        if len(set(self.external_ids)) != len(self.external_ids):
            raise GraphFormatError("duplicate external ids in node table")

    def __len__(self):
        return len(self.external_ids)

    @cached_property
    def id_cells(self) -> list:
        """Each id as ``csv.writer`` writes it as the first of several fields
        of a row: an empty id stays unquoted there, while alone in a row it
        would be written as ``""``. Formatted once per table, for every
        per-node CSV written with it (``write_node_rows``)."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cells = []
        for ext in self.external_ids:
            buf.seek(0)
            buf.truncate()
            writer.writerow((ext, ""))
            cells.append(buf.getvalue()[:-2])
        return cells


def load_edge_list(path, table: NodeTable | None = None):
    """Read a whitespace-separated edge list into (Graph, NodeTable).

    Lines hold two tokens (source id, target id); '#' lines are comments,
    so an id cannot start with '#': a token that does, on any other line,
    is an error naming ``path:line``.
    Duplicate edges collapse, self loops are dropped with a counted
    warning. Unseen ids get fresh indices, appended after the ids of
    ``table`` when one is given, so isolated table nodes are retained with
    degree 0.
    """
    base = table if table is not None else NodeTable(external_ids=[])
    ids = list(base.external_ids)
    index = {x: i for i, x in enumerate(ids)}
    flat = []  # the two endpoints of every line, in line order

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected two tokens, got {len(tokens)}"
                )
            for tok in tokens:
                if tok.startswith("#"):
                    raise GraphFormatError(
                        f"{path}:{lineno}: id {tok!r} starts with '#', which marks a comment"
                    )
                if tok not in index:
                    index[tok] = len(ids)
                    ids.append(tok)
                flat.append(index[tok])

    if not flat:
        raise GraphFormatError(f"{path}: empty edge list")
    pairs = np.array(flat, dtype=np.int64).reshape(-1, 2)
    del flat  # its slots would sit beside every array below
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        logger.warning("%s: dropped %d self-loop(s)", path, int(loops.sum()))
        pairs = pairs[~loops]
    # each ordered pair once, where it first appears
    _, first = np.unique(pairs[:, 0] * len(ids) + pairs[:, 1], return_index=True)
    pairs = pairs[np.sort(first)]
    graph = Graph.from_edges(len(ids), pairs, directed_pairs=pairs)
    pad = len(ids) - len(base)
    out_table = NodeTable(
        external_ids=ids,
        categories=list(base.categories) + [None] * pad,
    )
    # components() takes passes over the edges: only for a line that is shown
    if logger.isEnabledFor(logging.INFO):
        n, m, c = graph.node_count, graph.edge_count, len(graph.components())
        logger.info("%s: %d nodes, %d edges, %d component(s)", path, n, m, c)
    return graph, out_table


def write_edge_list(graph: Graph, table: NodeTable, path) -> None:
    """Write one undirected edge per line using external ids."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for u, v in graph.edges():
            fh.write(f"{table.external_ids[u]} {table.external_ids[v]}\n")


def load_node_table(path) -> NodeTable:
    """Read a CSV with header ``id[,category,...]`` into a NodeTable; other
    columns are ignored."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise GraphFormatError(f"{path}: empty node table") from None
        header = [h.strip() for h in header]
        if "id" not in header:
            raise GraphFormatError(f"{path}: header must name an 'id' column")
        id_col = header.index("id")
        cat_col = header.index("category") if "category" in header else None

        ids, cats = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                )
            ids.append(row[id_col].strip())
            if cat_col is not None:
                cell = row[cat_col].strip()
                cats.append(cell if cell else None)
            else:
                cats.append(None)

    if not ids:
        raise GraphFormatError(f"{path}: node table has no rows")
    if len(set(ids)) != len(ids):
        dup = sorted(x for x, count in Counter(ids).items() if count > 1)
        raise GraphFormatError(f"{path}: duplicate id(s): {dup[:5]}")
    return NodeTable(external_ids=ids, categories=cats)


def write_node_table(table: NodeTable, path) -> None:
    write_csv(path, ["id", "category"], [(c,) for c in table.categories], nodes=table)


def write_csv(path, header, rows=(), meta=None, nodes=None) -> None:
    """Write the CSV ``path`` in the one format of the module docstring:
    ``# key=value ...`` from ``meta`` when given, the ``header`` cells,
    then ``rows``. With the node table ``nodes``, each row follows its
    node's id: ``rows`` holds one row per node, and a 2-d numpy array goes
    through ``write_node_rows``."""
    if nodes is not None and len(rows) != len(nodes):
        raise ValueError(f"{path}: {len(rows)} rows for a table of {len(nodes)} nodes")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if meta:
            fh.write("# " + " ".join(f"{k}={_cells([v])[0]}" for k, v in meta.items()) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if nodes is not None and isinstance(rows, np.ndarray):
            write_node_rows(fh, nodes, rows)
            return
        columns = [_cells(column) for column in zip(*rows)]
        if nodes is not None:
            columns.insert(0, nodes.external_ids)
        writer.writerows(zip(*columns))


def _cells(column) -> list:
    """The cells of one column, formatted by its dtype (the module
    docstring); cells left as values are ``str``-ed by ``csv.writer``,
    which writes None as an empty cell."""
    column = np.asarray(column)
    if column.dtype.kind == "f":
        return ["" if x != x else repr(x) for x in column.tolist()]
    if column.dtype.kind == "b":
        return ["true" if x else "false" for x in column.tolist()]
    return column.tolist()


def write_node_rows(fh, table: NodeTable, values) -> None:
    """One CSV line per node of ``table``: its id as ``csv.writer`` writes
    it (``NodeTable.id_cells``), then the node's row of the 2-d array
    ``values``, floats by ``repr`` and integers by ``str``.

    Rows are grouped by their bytes (``distinct_rows``) and each distinct
    row is formatted once: many nodes share a row (every node of a repeated
    component, in GraphWave and in the census). Equal bytes format equally,
    so every line is the one its own row formats to.
    """
    values = np.asarray(values)
    first, inverse = distinct_rows(values)
    fmt = repr if values.dtype.kind == "f" else str
    tails = [",".join(map(fmt, row)) for row in values[first].tolist()]
    fh.write(
        "".join(
            f"{cell},{tails[j]}\n"
            for cell, j in zip(table.id_cells, inverse.tolist())
        )
    )


def distinct_rows(values):
    """The distinct rows of the 2-d array ``values``, grouped by their
    bytes: (first, inverse), where ``first`` holds the index of each
    distinct row's first occurrence, in order of first appearance, and
    ``inverse`` each row's position in ``first``. Grouping by bytes keeps
    -0.0 apart from 0.0 and NaNs with different payloads apart. With no
    repeated row, ``first`` and ``inverse`` are both 0..n-1.
    """
    values = np.ascontiguousarray(values)
    row_bytes = np.dtype((np.void, values.itemsize * values.shape[1]))
    _, first, inverse = np.unique(
        values.view(row_bytes).ravel(), return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.ravel()]


def read_node_rows(path, cast, error, table: NodeTable | None = None):
    """Read a per-node CSV that ``write_node_rows`` wrote: optional ``#``
    comment lines, the header ``id,<column>,...`` and one row per node.

    Returns ``(meta, header, ids, rows)``: the ``key=value`` words of the
    comments, the header's cells, the ids and each id's cells after the
    first, each passed through ``cast``. ``#`` marks a comment only before
    the header; after it a line is a row whose id starts with ``#``.
    Blank lines are skipped. A row with another cell count than the
    header, a cell that ``cast`` refuses and a repeated id are raised as
    ``error`` naming ``path:line``. With ``table``, ids and rows come in
    the table's id order, and every id of the table must have a row.
    """
    meta, header, index, rows = {}, None, {}, []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or (len(row) == 1 and row[0].isspace()):
                continue
            where = f"{path}:{reader.line_num}"
            if header is None and row[0].startswith("#"):
                for word in ",".join(row)[1:].split():
                    key, eq, value = word.partition("=")
                    if eq:
                        meta[key] = value
            elif header is None:
                if row[0] != "id" or len(row) < 2:
                    raise error(f"{where}: expected a header id,<column>,...")
                header = row
            elif len(row) != len(header):
                raise error(f"{where}: expected {len(header)} cells, got {len(row)}")
            elif row[0] in index:
                raise error(f"{where}: repeated id {row[0]!r}")
            else:
                try:
                    rows.append([cast(cell) for cell in row[1:]])
                except ValueError as exc:
                    raise error(f"{where}: non-numeric cell ({exc})") from None
                index[row[0]] = len(index)
    if header is None:
        raise error(f"{path}: no header line")
    if table is None:
        return meta, header, list(index), rows
    missing = [x for x in table.external_ids if x not in index]
    if missing:
        raise error(f"{path}: missing rows for ids {missing[:10]}")
    return meta, header, list(table.external_ids), [rows[index[x]] for x in table.external_ids]
