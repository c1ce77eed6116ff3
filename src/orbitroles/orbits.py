"""Per-node orbit census on graphlets of 2-5 nodes.

``count_orbits`` counts orbits 0-14 and the 5-cliques (orbit 72)
directly and recovers every other 5-node orbit by solving ORCA's system
of linear relations over common-neighbour counts (Hočevar & Demšar,
Bioinformatics 2014). It walks contiguous blocks of root nodes: each
pattern is expanded level by level through the CSR rows as index arrays,
filtered with boolean masks and summed per root in int64 segments. Pair
lookups that involve the root gather from the block's rows over the nodes
its roots reach in one or two steps, through one column map of all nodes;
all others gather from pair tables built once per middle node. So a
census costs its walks, not one row of N cells per root. The relations
are then solved once, as column arithmetic over all nodes. The
exhaustive oracle in :mod:`orbitroles.graphlets` defines the contract;
the two are tested against each other entrywise.

A node's counts depend on its component alone, and a citation graph
repeats small components many times. So the census counts each distinct
component once: it runs on ``Graph.distinct_part()``, the subgraph of the
components that are the first of their key (``Graph.copies``: size and
local edge positions), and each node takes the row of the node at its
position in the first copy (the planted-many bench graph at seed 7: 173
components, 22 counted). With no repeated component the subgraph is the
graph itself.

Counts use 64-bit integers throughout: hub nodes in dense regions
overflow 32 bits for 5-node orbits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import read_node_rows, write_csv
from .graphlets import ORBIT_COUNT


class OrbitCensusError(RuntimeError):
    """Census cannot run within the configured resource budget."""


@dataclass
class OrbitMatrix:
    """N x 73 non-negative integer counts; column i = orbit i. ``meta``
    holds what ``count_orbits`` records of its blocks of roots."""

    counts: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[1] != ORBIT_COUNT:
            raise ValueError(f"counts must be N x {ORBIT_COUNT}")
        if self.counts.size and self.counts.min() < 0:
            raise ValueError("orbit counts must be non-negative")

    @property
    def node_count(self) -> int:
        return self.counts.shape[0]


@dataclass
class LogOrbitMatrix:
    """log(1 + count) features; zero counts stay exactly zero."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != ORBIT_COUNT:
            raise ValueError(f"values must be N x {ORBIT_COUNT}")

    @property
    def node_count(self) -> int:
        return self.values.shape[0]


def log_transform(counts: OrbitMatrix) -> LogOrbitMatrix:
    """Elementwise log1p; orbit counts are heavy-tailed."""
    return LogOrbitMatrix(values=np.log1p(counts.counts.astype(np.float64)))


# Cap on the cells of one block of roots, each of its work (8 cells per
# row of an enumeration) and of its rows over the nodes it reaches. The
# census plans its blocks, and its memory estimate the largest block, with
# this one number. Measured in the pipeline, 2^18 took as long on BA
# n=800 and about 7% longer on BA n=20,000, where it makes twice the
# blocks; 2^20 faulted more pages in on both workloads.
_BLOCK_CELLS = 1 << 19


def _row_sums(values, indptr):
    """int64 sum of ``values`` over each CSR row."""
    total = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=total[1:])
    return total[indptr[1:]] - total[indptr[:-1]]


def _walks(deg, indptr, indices):
    """Number of walks of length 2 and of length 3 from each node."""
    walks2 = _row_sums(deg[indices], indptr)
    return walks2, _row_sums(walks2[indices], indptr)


def _ranges(starts, counts):
    """Concatenated ranges [starts[i], starts[i] + counts[i]).

    Returns ``(owner, item)``: ``owner[j]`` is the i whose range holds
    ``item[j]``. Every enumeration level is one such expansion.
    """
    owner = np.repeat(np.arange(counts.size), counts)
    shift = starts - np.cumsum(counts) + counts
    return owner, np.arange(owner.size) + shift[owner]


def _blocks(work, cap):
    """Contiguous [start, stop) ranges whose work sums to at most ``cap``.

    An item heavier than ``cap`` gets a range of its own.
    """
    total = np.cumsum(work)
    bounds = [0]
    while bounds[-1] < work.size:
        start = bounds[-1]
        base = total[start - 1] if start else 0
        stop = int(np.searchsorted(total, base + cap, side="right"))
        bounds.append(max(stop, start + 1))
    return list(zip(bounds[:-1], bounds[1:]))


def _root_sums(root, size, cols):
    """Row count, then the int64 sum of each column, for each root < size.

    ``root`` is sorted, so the rows of one root form one segment.
    """
    counts = np.bincount(root, minlength=size)
    out = np.zeros((1 + len(cols), size), dtype=np.int64)
    out[0] = counts
    filled = np.flatnonzero(counts)
    if filled.size:
        starts = (np.cumsum(counts) - counts)[filled]
        for row, col in zip(out[1:], cols):
            row[filled] = np.add.reduceat(col, starts, dtype=np.int64)
    return out


def _main_work(walks3):
    # no enumeration from a root x has more rows than x has 3-walks, but
    # for the 5-clique step, which runs in chunks of its own
    return 8 * walks3


def estimate_census_memory_mb(graph) -> float:
    """Upper bound on the working set of ``count_orbits``, in MB.

    Counts what runs: the census of ``graph.distinct_part()``, the subgraph
    of the components that copy no earlier one, and the copy of its rows
    out to every node. From the subgraph's degrees alone: the CSR arrays
    and the column map (56 bytes per node, 48 per edge entry), the pair
    tables (9 bytes per ordered pair of neighbours of each node), the
    triangle lists while they are built (48 bytes per member; the edge
    (u, v) has at most min(d_u, d_v) - 1), the largest block of roots at 16
    bytes per unit of work (its enumeration rows), its rows over its reach
    at 12 bytes per cell (at most ``_BLOCK_CELLS`` cells, or one root's n +
    1, and never more than n + 1 cells for each of the n roots), and its
    n x 73 counts. Then the N x 73 output: a transposed copy of the counts
    when no component repeats, else the copied rows, beside the subgraph's
    own arrays (16 bytes per node and edge entry) and the node map (8 bytes
    per node of ``graph``).
    """
    sub, source = graph.distinct_part()
    n, deg, indptr, indices = sub.node_count, sub.degrees(), sub.indptr, sub.indices
    _, walks3 = _walks(deg, indptr, indices)
    work = _main_work(walks3)
    block = max(min(_BLOCK_CELLS, int(work.sum())), int(work.max(initial=0)))
    rows = min(max(_BLOCK_CELLS, n + 1), n * (n + 1))
    pairs = int((deg * deg).sum())
    ends = np.repeat(deg, deg)
    members = int((np.minimum(ends, deg[indices]) - 1).sum())
    total = 56 * n + 48 * indices.size + 9 * pairs + 48 * members + 16 * block + 12 * rows
    total += 8 * ORBIT_COUNT * n
    if source is not None:
        total += 16 * (n + indices.size) + 8 * source.size
    return (total + 8 * ORBIT_COUNT * graph.node_count) / 1e6


class _Tables:
    """Arrays shared by every block of roots.

    CSR adjacency (``deg``, ``indptr``, ``indices``, ``rows`` and ``rev``,
    the entry of each edge reversed) and, per middle node v, a pair table:
    entry ``wptr[v] + i * d_v + j`` stands for the i-th and j-th
    neighbours of v and holds whether they are adjacent or equal
    (``wadj``), their common neighbours (``wc2``) and the common
    neighbours of all three (``wc3``). ``tri[e]`` counts the triangles on
    the edge entry e = (v, w), and ``te_pos[te_ptr[e]:te_ptr[e + 1]]`` are
    the positions in N(v) of their third nodes, ascending; the lists of e
    and ``rev[e]`` name the same nodes in the same order. ``ta_w[ta_ptr[v]:
    ta_ptr[v + 1]]`` are the table entries (i, j), i < j, of the triangles
    at v. Every pair lookup away from the root is a gather into these. A
    lookup from a root gathers from its block's rows (``row_blocks``),
    through ``col``, the one array of n cells, which maps each node to its
    column in the current block.
    """

    def __init__(self, graph):
        n, deg, indptr, indices = graph.node_count, graph.degrees(), graph.indptr, graph.indices
        self.n, self.deg, self.indptr, self.indices = n, deg, indptr, indices
        rows = self.rows = np.repeat(np.arange(n), deg)
        # sorting the entries by (column, row) is a permutation that is its
        # own inverse: the reversed entries
        self.rev = np.argsort(indices * n + rows)
        self.walks2, self.walks3 = _walks(deg, indptr, indices)

        self.wptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg * deg, out=self.wptr[1:])
        self.col = np.zeros(n, dtype=np.int64)
        self._fill_pairs()
        self._list_triangles()
        self._count_triples()
        # a node counts as adjacent to itself: one test then rejects both
        i, p = _ranges(np.zeros(n, dtype=np.int64), deg)
        self.wadj[self.wptr[i] + p * (deg[i] + 1)] = True

    def _fill_pairs(self):
        """Adjacency and c2 of every pair table entry, from the roots' rows."""
        self.wadj = np.zeros(int(self.wptr[-1]), dtype=bool)
        self.wc2 = np.zeros(int(self.wptr[-1]), dtype=np.int32)
        for x0, x1, width, pos, c2 in self.row_blocks(8 * self.walks2):
            self._fill_pair_block(x0, x1, width, pos, c2)

    def _fill_pair_block(self, x0, x1, width, pos, c2):
        deg, indptr, indices = self.deg, self.indptr, self.indices
        # the row of x in the table of each neighbour v, shifted so that
        # adding v's entry for j gives the pair (x, j)
        e1 = np.arange(indptr[x0], indptr[x1])
        v = indices[e1]
        row = self.wptr[v] + (self.rev[e1] - indptr[v]) * deg[v] - indptr[v]
        i, e2 = _ranges(indptr[v], deg[v])
        cell = ((self.rows[e1] - x0) * width)[i] + self.col[indices[e2]]
        entry = row[i] + e2
        self.wadj[entry] = pos[cell] >= 0
        self.wc2[entry] = c2[cell]

    def _list_triangles(self):
        """Triangle lists of the edges and of the nodes."""
        deg, indptr, wptr = self.deg, self.indptr, self.wptr
        flat = np.flatnonzero(self.wadj)
        v = np.searchsorted(wptr, flat, side="right") - 1
        pi, self.te_pos = np.divmod(flat - wptr[v], deg[v])
        te_edge = indptr[v] + pi
        self.tri = np.bincount(te_edge, minlength=self.indices.size)
        self.tri_at = _row_sums(self.tri, indptr)
        self.te_ptr = np.zeros(self.indices.size + 1, dtype=np.int64)
        np.cumsum(self.tri, out=self.te_ptr[1:])
        upper = pi < self.te_pos
        self.ta_w = flat[upper]
        self.ta_ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(v[upper], minlength=self.n), out=self.ta_ptr[1:])

    def _count_triples(self):
        """c3 of every pair table entry.

        A common neighbour w of v, i and j puts i and j in the triangle
        list of the edge (v, w), so each ordered pair of distinct members
        of that list counts w once.
        """
        self.wc3 = np.zeros(int(self.wptr[-1]), dtype=np.int32)
        work = self.deg**2 + _row_sums(self.tri**2, self.indptr)
        for v0, v1 in _blocks(work, _BLOCK_CELLS // 8):
            self._count_triple_block(v0, v1)

    def _count_triple_block(self, v0, v1):
        tri, te_ptr, te_pos, wptr = self.tri, self.te_ptr, self.te_pos, self.wptr
        e = np.arange(self.indptr[v0], self.indptr[v1])
        ie, k = _ranges(te_ptr[e], tri[e])
        i, q = _ranges(te_ptr[e][ie], tri[e][ie])
        keep = q != k[i]
        i, q = i[keep], q[keep]
        v = self.rows[e][ie][i]
        cell = wptr[v] - wptr[v0] + te_pos[k][i] * self.deg[v] + te_pos[q]
        counts = np.bincount(cell, minlength=int(wptr[v1] - wptr[v0]))
        self.wc3[wptr[v0] : wptr[v1]] = counts

    def row_blocks(self, work):
        """Blocks of roots and their rows over the nodes they reach.

        Yields ``(x0, x1, width, pos, c2)`` for contiguous blocks of roots
        whose ``work`` sums to at most ``_BLOCK_CELLS``, each halved until
        its rows fit in ``_BLOCK_CELLS`` cells or it holds one root. While
        a block is out, ``col[v]`` is the column of each node v that a root
        reaches in one or two steps, counted from 1; every other node keeps
        column 0, where pos is -1 and c2 is 0. Then ``pos[(x - x0) * width
        + col[v]]`` is the position of v in N(x), or -1, and ``c2[...]`` is
        c2(x, v), counted over x's 2-walks: one row of A @ A.
        """
        for x0, x1 in _blocks(work, _BLOCK_CELLS):
            yield from self._reach_rows(x0, x1)

    def _reach_rows(self, x0, x1):
        deg, indptr, indices, col = self.deg, self.indptr, self.indices, self.col
        e1 = np.arange(indptr[x0], indptr[x1])
        x, a = self.rows[e1], indices[e1]
        i, e2 = _ranges(indptr[a], deg[a])
        ends = np.concatenate([a, indices[e2]])
        # of the writes to one node, whichever lands names its one copy
        slot = np.arange(1, ends.size + 1)
        col[ends] = slot
        reached = ends[col[ends] == slot]
        width = reached.size + 1
        if x1 - x0 > 1 and (x1 - x0) * width > _BLOCK_CELLS:
            col[reached] = 0
            mid = (x0 + x1) // 2
            yield from self._reach_rows(x0, mid)
            yield from self._reach_rows(mid, x1)
            return
        col[reached] = np.arange(1, width)
        pos = np.full((x1 - x0) * width, -1, dtype=np.int32)
        pos[(x - x0) * width + col[a]] = e1 - indptr[x]
        c2 = np.bincount(((x - x0) * width)[i] + col[indices[e2]], minlength=pos.size)
        yield x0, x1, width, pos, c2
        col[reached] = 0


class _Block:
    """Roots x0..x1-1: their rows over the nodes they reach (from
    ``_Tables.row_blocks``, ``width`` cells a root, not n) and one row per
    (root x, neighbour a)."""

    def __init__(self, t, x0, x1, width, pos, c2):
        self.t, self.x0, self.x1, self.size = t, x0, x1, x1 - x0
        self.width, self.pos, self.c2 = width, pos, c2
        self.e1 = e1 = np.arange(t.indptr[x0], t.indptr[x1])
        self.x, self.a = x, a = t.rows[e1], t.indices[e1]
        self.xl = x - x0
        self.dx, self.da = dx, da = t.deg[x], t.deg[a]
        self.t1 = t.tri[e1]
        # table of x, row a, by position; table of a, row x, by a's entry
        self.row_xa = t.wptr[x] + (e1 - t.indptr[x]) * dx
        self.row_ax = t.wptr[a] + (t.rev[e1] - t.indptr[a]) * da - t.indptr[a]


def _count_paths(b, o):
    """x a claw leaf, an end of an induced 4-path, or on a 4-cycle."""
    t = b.t
    deg, indptr, indices, tri, wadj, wc2, wc3 = (
        t.deg, t.indptr, t.indices, t.tri, t.wadj, t.wc2, t.wc3
    )
    # induced paths x-a-u: u outside N[x], read off a's table
    i2, e2 = _ranges(indptr[b.a], b.da)
    w2 = b.row_ax[i2] + e2
    keep = ~wadj[w2]
    i2, e2, w2 = i2[keep], e2[keep], w2[keep]
    u = indices[e2]
    du = deg[u]
    # x a leaf of a claw centred at a, u a second leaf: the third is a
    # neighbour of a outside N[x] and N[u], so every claw is seen twice
    w6 = (b.da - 2 - b.t1)[i2] - tri[e2] + wc3[w2]
    _, s6, s22, s19 = _root_sums(b.xl[i2], b.size, [w6, (b.da[i2] - 3) * w6, (du - 1) * w6])
    o[6, b.x0 : b.x1] = s6 // 2
    o[22, b.x0 : b.x1] = s22 // 2
    o[19, b.x0 : b.x1] = s19

    # walks x-a-u-w with w outside N[a]: w ends an induced 4-path when it
    # is outside N(x) and closes a 4-cycle when it is in N(x). The walks
    # run in chunks of _BLOCK_CELLS // 32 rows (128 KiB an int64 array), or
    # one path's, whose arrays malloc reuses from chunk to chunk; a whole
    # block's would be mapped, faulted in and unmapped block by block
    # (30,000 minor faults a census on BA n=800)
    row_ua = t.wptr[u] + (t.rev[e2] - indptr[u]) * du - indptr[u]
    row_xw, a2 = b.xl[i2] * b.width, b.a[i2]
    for r0, r1 in _blocks(du, _BLOCK_CELLS // 32):
        i3, e3 = _ranges(indptr[u[r0:r1]], du[r0:r1])
        i3 += r0
        wu = row_ua[i3] + e3
        keep = ~wadj[wu]
        i3, e3, wu = i3[keep], e3[keep], wu[keep]
        w = indices[e3]
        cell = row_xw[i3] + t.col[w]
        pw = b.pos[cell]
        end = pw < 0
        i, e, wc, c = i3[end], e3[end], wu[end], w[end]
        o[[4, 35, 34, 27, 18, 15], b.x0 : b.x1] += _root_sums(
            b.xl[i2[i]],
            b.size,
            [wc2[wc] - 1, b.c2[cell[end]], tri[e], du[i] - 2, deg[c] - 1],
        )
        cyc = ~end & (w > a2[i3])
        i, e, wc, pw = i3[cyc], e3[cyc], wu[cyc], pw[cyc]
        j = i2[i]
        o[[8, 62, 53, 51, 50, 49, 37, 36], b.x0 : b.x1] += _root_sums(
            b.xl[j],
            b.size,
            [
                wc3[wc],
                b.t1[j] + tri[indptr[b.x[j]] + pw],
                tri[e2[i]] + tri[e],
                wc2[w2[i]] - 2,
                wc2[b.row_xa[j] + pw] - 2,
                b.da[j] + deg[indices[e]] - 4,
                du[i] - 2,
            ],
        )


def _count_open_pairs(b, o):
    """x the centre of a claw or the middle of an induced 4-path.

    For each ordered pair (a, c) of non-adjacent neighbours of x, counts
    the neighbours of x outside N(a) and N(c), and the neighbours of c
    outside N(x), N(a) and x itself.
    """
    t = b.t
    deg, indptr, indices, tri = t.deg, t.indptr, t.indices, t.tri
    x0, x1 = b.x0, b.x1
    r, k = _ranges(t.wptr[x0:x1], deg[x0:x1] ** 2)
    keep = ~t.wadj[k]
    r, k = r[keep], k[keep]
    dx = deg[x0 + r]
    pa, pc = np.divmod(k - t.wptr[x0 + r], dx)
    ea, ec = indptr[x0 + r] + pa, indptr[x0 + r] + pc
    c3 = t.wc3[k]
    claws = dx - 2 - tri[ea] - tri[ec] + c3
    paths = deg[indices[ec]] - tri[ec] - t.wc2[k] + c3
    da = deg[indices[ea]] - 1
    _, s7, s21, s5, s17 = _root_sums(r, b.size, [claws, claws * da, paths, paths * da])
    o[7, x0:x1] = s7 // 6
    o[21, x0:x1] = s21 // 2
    o[5, x0:x1] = s5
    o[17, x0:x1] = s17


def _count_pendants(b, o):
    """x the pendant of a paw: a triangle (a, u, w) with u, w outside N[x]."""
    t = b.t
    deg, indptr, indices, tri, wadj = t.deg, t.indptr, t.indices, t.tri, t.wadj
    i, k = _ranges(t.ta_ptr[b.a], t.ta_ptr[b.a + 1] - t.ta_ptr[b.a])
    k = t.ta_w[k]
    pu, pw = np.divmod(k - t.wptr[b.a[i]], b.da[i])
    eu, ew = indptr[b.a[i]] + pu, indptr[b.a[i]] + pw
    keep = ~wadj[b.row_ax[i] + eu] & ~wadj[b.row_ax[i] + ew]
    i, k, eu, ew = i[keep], k[keep], eu[keep], ew[keep]
    o[[9, 56, 45, 39, 31, 24], b.x0 : b.x1] = _root_sums(
        b.xl[i],
        b.size,
        [
            t.wc3[k],
            t.wc2[k] - 1,
            tri[eu] + tri[ew] - 2,
            b.da[i] - 3,
            deg[indices[eu]] + deg[indices[ew]] - 4,
        ],
    )


def _count_triangles(b, o):
    """Patterns with x in a triangle (x, a, c): paws, diamonds, cliques."""
    t = b.t
    deg, indptr, indices, tri, wadj, wc2, wc3 = (
        t.deg, t.indptr, t.indices, t.tri, t.wadj, t.wc2, t.wc3
    )
    te_ptr, te_pos, rev, wptr = t.te_ptr, t.te_pos, t.rev, t.wptr
    x0, x1, size = b.x0, b.x1, b.size
    # every triangle at x twice: c from the triangle list of (x, a)
    i4, k4 = _ranges(te_ptr[b.e1], b.t1)
    off4 = k4 - te_ptr[b.e1][i4]
    pc4 = te_pos[k4]  # position of c in N(x)
    pac4 = te_pos[te_ptr[rev[b.e1]][i4] + off4]  # position of c in N(a)
    x4, a4, xl4 = b.x[i4], b.a[i4], b.xl[i4]
    ec4 = indptr[x4] + pc4
    c4 = indices[ec4]
    eac4 = indptr[a4] + pac4
    dc4 = deg[c4]
    row_xc4 = wptr[x4] + pc4 * b.dx[i4]

    # x a degree-2 triangle node of a paw: pendant w at c, outside N[x]
    # and N[a]
    i, e = _ranges(indptr[c4], dc4)
    row = wptr[c4] - indptr[c4]
    wa = (row + (rev[eac4] - indptr[c4]) * dc4)[i] + e
    wx = (row + (rev[ec4] - indptr[c4]) * dc4)[i] + e
    keep = ~wadj[wa] & ~wadj[wx]
    i, e, wa = i[keep], e[keep], wa[keep]
    o[[10, 52, 43, 32, 29, 25], x0:x1] = _root_sums(
        xl4[i],
        size,
        [wc2[wa] - 1, tri[e], dc4[i] - 3, deg[indices[e]] - 1, b.da[i4[i]] - 2],
    )

    # x a degree-2 node of a diamond: w a common neighbour of a < c,
    # outside N[x]
    up = np.flatnonzero(c4 > a4)
    i, k = _ranges(te_ptr[eac4[up]], tri[eac4[up]])
    j = up[i]
    p_aw = te_pos[k]
    eaw = indptr[a4[j]] + p_aw
    keep = ~wadj[b.row_ax[i4[j]] + eaw]
    j, k, p_aw, eaw = j[keep], k[keep], p_aw[keep], eaw[keep]
    eac = eac4[j]
    pcw = te_pos[te_ptr[rev[eac]] + k - te_ptr[eac]]
    o[[12, 65, 63, 59, 54, 46, 40], x0:x1] = _root_sums(
        xl4[j],
        size,
        [
            wc3[wptr[a4[j]] + pac4[j] * deg[a4[j]] + p_aw],
            wc2[b.row_ax[i4[j]] + eaw] - 2,
            tri[eaw] + tri[indptr[c4[j]] + pcw] - 2,
            tri[eac] - 2,
            deg[indices[eaw]] - 2,
            b.da[i4[j]] + dc4[j] - 6,
        ],
    )

    # x the degree-3 node of a paw: for each triangle (x, a, c), a < c, the
    # neighbours w of x outside N[a] and N[c]. A sum over them is the sum
    # over N(x), less those over the triangle lists of (x, a) and (x, c),
    # plus the one over N(x) & N(a) & N(c), which the 4-cliques add below.
    _, s1, s2 = _root_sums(i4, b.e1.size, [tri[ec4], dc4 - 1])
    ja, jc = i4[up], ec4[up] - indptr[x0]  # the rows of (x, a) and (x, c)
    x = b.x[ja]
    paws = b.dx[ja] - b.t1[ja] - b.t1[jc] + wc3[b.row_xa[ja] + pc4[up]]
    o[[11, 44, 30, 26], x0:x1] = _root_sums(
        xl4[up],
        size,
        [
            paws,
            t.tri_at[x] - s1[ja] - s1[jc],
            t.walks2[x] - b.dx[ja] - s2[ja] - s2[jc],
            (b.da[ja] + dc4[up] - 4) * paws,
        ],
    )[1:]

    # c and w (c before w) from the triangle list of (x, a): x is in a
    # 4-clique (c ~ w, a < c) or is a degree-3 node of a diamond (c !~ w)
    i, k = _ranges(k4 + 1, b.t1[i4] - off4 - 1)
    j1 = i4[i]
    pw = te_pos[k]
    p_aw = te_pos[te_ptr[rev[b.e1]][j1] + k - te_ptr[b.e1][j1]]
    wcw = row_xc4[i] + pw
    wac, waw = b.row_xa[j1] + pc4[i], b.row_xa[j1] + pw
    wa_cw = wptr[b.a[j1]] + pac4[i] * b.da[j1] + p_aw
    ec, ew = ec4[i], indptr[b.x[j1]] + pw
    cw = wadj[wcw]
    q = cw & (c4[i] > a4[i])
    jq = j1[q]
    tri_sum = b.t1[jq] + tri[ec[q]] + tri[ew[q]]
    deg_sum = b.da[jq] + dc4[i[q]] + deg[indices[ew[q]]] - 3
    cliques = _root_sums(
        b.xl[jq],
        size,
        [
            wc3[wa_cw[q]] - 1,
            wc3[wac[q]] + wc3[waw[q]] + wc3[wcw[q]] - 3,
            tri_sum - 6,
            wc2[wac[q]] + wc2[waw[q]] + wc2[wcw[q]] - 6,
            deg_sum - 6,
            tri_sum,
            deg_sum,
        ],
    )
    o[[14, 70, 71, 67, 66, 57], x0:x1] = cliques[:6]
    # each node of a 4-clique (x, a, c, w) is a common neighbour of x and
    # the other two
    o[44, x0:x1] += cliques[6]
    o[30, x0:x1] += cliques[7]
    d = ~cw
    o[[13, 69, 68, 64, 61, 60, 55, 48, 41], x0:x1] = _root_sums(
        b.xl[j1[d]],
        size,
        [
            wc3[wcw[d]] - 1,
            wc3[wa_cw[d]] - 1,
            wc2[wcw[d]] - 2,
            tri[ec[d]] + tri[ew[d]] - 2,
            wc2[wac[d]] + wc2[waw[d]] - 2,
            b.t1[j1[d]] - 2,
            dc4[i[d]] + deg[indices[ew[d]]] - 4,
            b.da[j1[d]] - 3,
        ],
    )

    # 5-cliques: a fourth node z after w in the same list, adjacent to c
    # and w; in chunks, as cliques can hold more of them than 3-walks
    k, jq = k[q], j1[q]
    row_c, row_w = row_xc4[i[q]], wptr[b.x[jq]] + pw[q] * b.dx[jq]
    rest = te_ptr[b.e1 + 1][jq] - k - 1
    for r0, r1 in _blocks(rest, _BLOCK_CELLS // 8):
        i, kz = _ranges(k[r0:r1] + 1, rest[r0:r1])
        pz = te_pos[kz]
        keep = wadj[row_c[r0:r1][i] + pz] & wadj[row_w[r0:r1][i] + pz]
        o[72, x0:x1] += np.bincount(b.xl[jq[r0:r1][i[keep]]], minlength=size)


def _count_block(b, o):
    """Rows 4-14 and 72 and the relation sums for the roots of one block."""
    _count_paths(b, o)
    _count_open_pairs(b, o)
    _count_pendants(b, o)
    _count_triangles(b, o)


def _solve_relations(o):
    """Turn the sums f_k in rows 15-71 into orbit counts, in place."""
    o[71] = (o[71] - 12 * o[72]) // 2
    o[70] = o[70] - 4 * o[72]
    o[69] = (o[69] - 2 * o[71]) // 4
    o[68] = o[68] - 2 * o[71]
    o[67] = o[67] - 12 * o[72] - 4 * o[71]
    o[66] = o[66] - 12 * o[72] - 2 * o[71] - 3 * o[70]
    o[65] = (o[65] - 3 * o[70]) // 2
    o[64] = o[64] - 2 * o[71] - 4 * o[69] - 1 * o[68]
    o[63] = o[63] - 3 * o[70] - 2 * o[68]
    o[62] = (o[62] - 1 * o[68]) // 2
    o[61] = (o[61] - 4 * o[71] - 8 * o[69] - 2 * o[67]) // 2
    o[60] = o[60] - 4 * o[71] - 2 * o[68] - 2 * o[67]
    o[59] = o[59] - 6 * o[70] - 2 * o[68] - 4 * o[65]
    o[58] = o[58] - 4 * o[72] - 2 * o[71] - 1 * o[67]
    o[57] = o[57] - 12 * o[72] - 4 * o[71] - 3 * o[70] - 1 * o[67] - 2 * o[66]
    o[56] = (o[56] - 2 * o[65]) // 3
    o[55] = (o[55] - 2 * o[71] - 2 * o[67]) // 3
    o[54] = (o[54] - 3 * o[70] - 1 * o[66] - 2 * o[65]) // 2
    o[53] = o[53] - 2 * o[68] - 2 * o[64] - 2 * o[63]
    o[52] = (o[52] - 2 * o[66] - 2 * o[64] - 1 * o[59]) // 2
    o[51] = o[51] - 2 * o[68] - 2 * o[63] - 4 * o[62]
    o[50] = (o[50] - 1 * o[68] - 2 * o[63]) // 3
    o[49] = (o[49] - 1 * o[68] - 1 * o[64] - 2 * o[62]) // 2
    o[48] = (
        o[48]
        - 4 * o[71]
        - 8 * o[69]
        - 2 * o[68]
        - 2 * o[67]
        - 2 * o[64]
        - 2 * o[61]
        - 1 * o[60]
    )
    o[47] = o[47] - 3 * o[70] - 2 * o[68] - 1 * o[66] - 1 * o[63] - 1 * o[60]
    o[46] = o[46] - 3 * o[70] - 2 * o[68] - 2 * o[65] - 1 * o[63] - 1 * o[59]
    o[45] = o[45] - 2 * o[65] - 2 * o[62] - 3 * o[56]
    o[44] = (o[44] - 1 * o[67] - 2 * o[61]) // 4
    o[43] = (o[43] - 2 * o[66] - 1 * o[60] - 1 * o[59]) // 2
    o[42] = o[42] - 2 * o[71] - 4 * o[69] - 2 * o[67] - 2 * o[61] - 3 * o[55]
    o[41] = o[41] - 2 * o[71] - 1 * o[68] - 2 * o[67] - 1 * o[60] - 3 * o[55]
    o[40] = (
        o[40]
        - 6 * o[70]
        - 2 * o[68]
        - 2 * o[66]
        - 4 * o[65]
        - 1 * o[60]
        - 1 * o[59]
        - 4 * o[54]
    )
    o[39] = (o[39] - 4 * o[65] - 1 * o[59] - 6 * o[56]) // 2
    o[38] = o[38] - 1 * o[68] - 1 * o[64] - 2 * o[63] - 1 * o[53] - 3 * o[50]
    o[37] = (
        o[37]
        - 2 * o[68]
        - 2 * o[64]
        - 2 * o[63]
        - 4 * o[62]
        - 1 * o[53]
        - 1 * o[51]
        - 4 * o[49]
    )
    o[36] = o[36] - 1 * o[68] - 2 * o[63] - 2 * o[62] - 1 * o[51] - 3 * o[50]
    o[35] = (o[35] - 1 * o[59] - 2 * o[52] - 2 * o[45]) // 2
    o[34] = (o[34] - 1 * o[59] - 2 * o[52] - 1 * o[51]) // 2
    o[33] = (o[33] - 1 * o[67] - 2 * o[61] - 3 * o[58] - 4 * o[44] - 2 * o[42]) // 2
    o[32] = (
        o[32]
        - 2 * o[66]
        - 1 * o[60]
        - 1 * o[59]
        - 2 * o[57]
        - 2 * o[43]
        - 2 * o[41]
        - 1 * o[40]
    ) // 2
    o[31] = o[31] - 2 * o[65] - 1 * o[59] - 3 * o[56] - 1 * o[43] - 2 * o[39]
    o[30] = o[30] - 1 * o[67] - 1 * o[63] - 2 * o[61] - 1 * o[53] - 4 * o[44]
    o[29] = (
        o[29] - 2 * o[66] - 2 * o[64] - 1 * o[60] - 1 * o[59] - 1 * o[53]
        - 2 * o[52] - 2 * o[43]
    )
    o[28] = o[28] - 2 * o[65] - 2 * o[62] - 1 * o[59] - 1 * o[51] - 1 * o[43]
    o[27] = (o[27] - 1 * o[59] - 1 * o[51] - 2 * o[45]) // 2
    o[26] = (
        o[26] - 2 * o[67] - 2 * o[63] - 2 * o[61] - 6 * o[58] - 1 * o[53]
        - 2 * o[47] - 2 * o[42]
    )
    o[25] = (
        o[25] - 2 * o[66] - 2 * o[64] - 1 * o[59] - 2 * o[57] - 2 * o[52]
        - 1 * o[48] - 1 * o[40]
    ) // 2
    o[24] = (
        o[24] - 4 * o[65] - 4 * o[62] - 1 * o[59] - 6 * o[56] - 1 * o[51]
        - 2 * o[45] - 2 * o[39]
    )
    o[23] = (o[23] - 1 * o[55] - 1 * o[42] - 2 * o[33]) // 4
    o[22] = (o[22] - 2 * o[54] - 1 * o[40] - 1 * o[39] - 1 * o[32] - 2 * o[31]) // 3
    o[21] = o[21] - 3 * o[55] - 3 * o[50] - 2 * o[42] - 2 * o[38] - 2 * o[33]
    o[20] = o[20] - 2 * o[54] - 2 * o[49] - 1 * o[40] - 1 * o[37] - 1 * o[32]
    o[19] = (
        o[19] - 4 * o[54] - 4 * o[49] - 1 * o[40] - 2 * o[39] - 1 * o[37]
        - 2 * o[35] - 2 * o[31]
    )
    o[18] = (
        o[18] - 1 * o[59] - 1 * o[51] - 2 * o[46] - 2 * o[45] - 2 * o[36]
        - 2 * o[27] - 1 * o[24]
    ) // 2
    o[17] = (
        o[17] - 1 * o[60] - 1 * o[53] - 1 * o[51] - 1 * o[48] - 1 * o[37]
        - 2 * o[34] - 2 * o[30]
    ) // 2
    o[16] = (
        o[16] - 1 * o[59] - 2 * o[52] - 1 * o[51] - 2 * o[46] - 2 * o[36]
        - 2 * o[34] - 1 * o[29]
    )
    o[15] = (
        o[15] - 1 * o[59] - 2 * o[52] - 1 * o[51] - 2 * o[45] - 2 * o[35]
        - 2 * o[34] - 2 * o[27]
    )



def count_orbits(graph, memory_budget_mb: float = 4096.0) -> OrbitMatrix:
    """Orbit counts for every node, independent of node ordering.

    Deterministic (integer arithmetic only). A node's counts depend on
    its component alone, so only ``graph.distinct_part()`` is counted, the
    subgraph of the components that copy no earlier one (``Graph.copies``),
    and each node takes the row of its position in the first copy: the
    same int64 counts its own census would give. Raises OrbitCensusError
    with a size estimate when the census working set would exceed the
    memory budget. The result's ``meta`` holds the estimate
    (``estimate_mb``), the ``components`` and the ``distinct_components``
    (those counted), the number of blocks of roots of the main pass
    (``blocks``) and the largest block's work and rows, in cells
    (``largest_block_cells``, ``largest_rows_cells``).
    """
    est = estimate_census_memory_mb(graph)
    if est > memory_budget_mb:
        raise OrbitCensusError(
            f"estimated census working set {est:.1f} MB exceeds the "
            f"{memory_budget_mb:g} MB budget"
        )
    sub, source = graph.distinct_part()
    t = _Tables(sub)
    deg = t.deg
    # o[k] for k <= 14 and k = 72 are counts; o[k] for 15 <= k <= 71 holds
    # the sum f_k of ORCA's relation for orbit k until the system is solved
    o = np.zeros((ORBIT_COUNT, t.n), dtype=np.int64)
    o[0] = deg
    o[3] = t.tri_at // 2
    o[2] = deg * (deg - 1) // 2 - o[3]
    o[1] = t.walks2 - deg - t.tri_at
    work = _main_work(t.walks3)
    blocks, largest, widest = 0, 0, 0
    for x0, x1, width, pos, c2 in t.row_blocks(work):
        _count_block(_Block(t, x0, x1, width, pos, c2), o)
        blocks += 1
        largest, widest = max(largest, int(work[x0:x1].sum())), max(widest, pos.size)
    # relation sums whose every term is d_x minus a constant
    o[16] = (deg - 1) * o[4]
    o[20] = (deg - 1) * o[6]
    o[28] = (deg - 1) * o[9]
    o[38] = (deg - 2) * o[8]
    o[47] = (deg - 2) * o[12]
    o[23] = (deg - 3) * o[7]
    o[33] = (deg - 3) * o[11]
    o[42] = (deg - 3) * o[13]
    o[58] = (deg - 3) * o[14]
    _solve_relations(o)
    _, first = graph.copies
    meta = {
        "estimate_mb": est,
        "components": len(first),
        "distinct_components": sum(f == i for i, f in enumerate(first)),
        "blocks": blocks,
        "largest_block_cells": largest,
        "largest_rows_cells": widest,
    }
    counts = np.ascontiguousarray(o.T) if source is None else o.T[source]
    return OrbitMatrix(counts=counts, meta=meta)


def orbit_header():
    return ["id"] + [f"o{i}" for i in range(ORBIT_COUNT)]


def orbits_to_csv(matrix: OrbitMatrix, table, path) -> None:
    """The header ``id,o0,...,o72`` and each node's counts."""
    write_csv(path, orbit_header(), matrix.counts, nodes=table)


def orbits_from_csv(path, table=None):
    """Read an orbit CSV with ``graph.read_node_rows``; returns
    (OrbitMatrix, external ids).

    With a node table, rows are re-aligned to its id order and every node
    must be present. No id may repeat.
    """
    _, header, ids, rows = read_node_rows(path, int, ValueError, table)
    if header != orbit_header():
        raise ValueError(f"{path}: unexpected orbit CSV header")
    counts = np.array(rows, dtype=np.int64).reshape(len(rows), ORBIT_COUNT)
    return OrbitMatrix(counts=counts), ids
