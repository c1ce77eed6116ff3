"""The per-node orbit counter that ``orbits.count_orbits`` replaced, and
the row-by-row orbit CSV writer that ``orbits.orbits_to_csv`` replaced.

The counter visits one root node at a time in Python, with dicts of
common neighbour counts; the golden tests compare the vectorised census
with it on graphs too large for the brute-force oracle. The writer passes
every row through ``csv.writer``; the tests hold the shared row writer to
its bytes.
"""

import csv

import numpy as np

from orbitroles.graphlets import ORBIT_COUNT
from orbitroles.orbits import orbit_header


def orbits_to_csv_rows(matrix, table, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(orbit_header())
        for i, ext in enumerate(table.external_ids):
            writer.writerow([ext] + [int(v) for v in matrix.counts[i]])


def count_orbits_per_node(graph):
    """N x 73 int64 orbit counts."""
    n = graph.node_count
    adj = [list(a) for a in graph.adjacency]
    deg = [len(a) for a in adj]

    edges = []
    for u in range(n):
        for v in adj[u]:
            if v > u:
                edges.append((u, v))
    m = len(edges)

    adjset = set()
    inc = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adjset.add(u * n + v)
        adjset.add(v * n + u)
        inc[u].append((v, i))
        inc[v].append((u, i))
    for lst in inc:
        lst.sort()

    # triangles spanning each edge (sorted-list merge)
    tri = [0] * m
    for i, (x, y) in enumerate(edges):
        ax, ay = adj[x], adj[y]
        lx, ly = len(ax), len(ay)
        xi = yi = t = 0
        while xi < lx and yi < ly:
            a, b = ax[xi], ay[yi]
            if a == b:
                t += 1
                xi += 1
                yi += 1
            elif a < b:
                xi += 1
            else:
                yi += 1
        tri[i] = t

    # common neighbors of node pairs / triples (triples only cached when
    # at least two of the three internal pairs are adjacent: others are
    # never queried by the relations below)
    common2 = {}
    common3 = {}
    for x in range(n):
        ax = adj[x]
        lx = len(ax)
        for i1 in range(lx):
            a = ax[i1]
            for i2 in range(i1 + 1, lx):
                b = ax[i2]
                key2 = a * n + b
                common2[key2] = common2.get(key2, 0) + 1
                for i3 in range(i2 + 1, lx):
                    c = ax[i3]
                    st = (
                        ((a * n + b) in adjset)
                        + ((a * n + c) in adjset)
                        + ((b * n + c) in adjset)
                    )
                    if st < 2:
                        continue
                    key3 = (a * n + b) * n + c
                    common3[key3] = common3.get(key3, 0) + 1

    c2get = common2.get
    c3get = common3.get

    def c2(a, b):
        return c2get(a * n + b if a < b else b * n + a, 0)

    def c3(a, b, c):
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        return c3get((a * n + b) * n + c, 0)

    # full 5-cliques per node
    C5 = [0] * n
    neighx = [-1] * n
    for x in range(n):
        incx = inc[x]
        for y, xy in incx:
            neighx[y] = xy
        for y, _xy in incx:
            if y >= x:
                break
            neigh = []
            for z, _yz in inc[y]:
                if z >= y:
                    break
                if neighx[z] == -1:
                    continue
                neigh.append(z)
            ln = len(neigh)
            for i in range(ln):
                z = neigh[i]
                zn = z * n
                neigh2 = [w for w in neigh[i + 1 :] if (zn + w) in adjset]
                l2 = len(neigh2)
                for i2 in range(l2):
                    z2 = neigh2[i2]
                    z2n = z2 * n
                    for j2 in range(i2 + 1, l2):
                        z3 = neigh2[j2]
                        if (z2n + z3) in adjset:
                            C5[x] += 1
                            C5[y] += 1
                            C5[z] += 1
                            C5[z2] += 1
                            C5[z3] += 1
        for y, _xy in incx:
            neighx[y] = -1

    orbit = [[0] * ORBIT_COUNT for _ in range(n)]
    common_x = [0] * n
    common_x_list = []
    common_a = [0] * n
    common_a_list = []

    for x in range(n):
        ax = adj[x]
        dx = len(ax)
        incx = inc[x]
        ox = orbit[x]
        xn = x * n

        for node in common_x_list:
            common_x[node] = 0
        common_x_list = []

        # orbits 0-3 by direct enumeration; common_x[b] = #2-paths x-?-b
        ox[0] = dx
        for i1 in range(dx):
            a = ax[i1]
            an = a * n
            for i2 in range(i1 + 1, dx):
                b = ax[i2]
                if (an + b) in adjset:
                    ox[3] += 1
                else:
                    ox[2] += 1
            for b in adj[a]:
                if b != x and (xn + b) not in adjset:
                    ox[1] += 1
                    if common_x[b] == 0:
                        common_x_list.append(b)
                    common_x[b] += 1

        f71 = f70 = f67 = f66 = f58 = f57 = 0
        f69 = f68 = f64 = f61 = f60 = f55 = f48 = f42 = f41 = 0
        f65 = f63 = f59 = f54 = f47 = f46 = f40 = 0
        f62 = f53 = f51 = f50 = f49 = f38 = f37 = f36 = 0
        f44 = f33 = f30 = f26 = 0
        f52 = f43 = f32 = f29 = f25 = 0
        f56 = f45 = f39 = f31 = f28 = f24 = 0
        f35 = f34 = f27 = f18 = f16 = f15 = 0
        f17 = 0
        f22 = f20 = f19 = 0
        f23 = f21 = 0

        for nx1 in range(dx):
            a, xa = incx[nx1]
            an = a * n
            inca = inc[a]
            da = deg[a]

            for node in common_a_list:
                common_a[node] = 0
            common_a_list = []
            for b in adj[a]:
                for c in adj[b]:
                    if c == a or (an + c) in adjset:
                        continue
                    if common_a[c] == 0:
                        common_a_list.append(c)
                    common_a[c] += 1

            # x inside a 4-clique
            for nx2 in range(nx1 + 1, dx):
                b, xb = incx[nx2]
                if (an + b) not in adjset:
                    continue
                bn = b * n
                for nx3 in range(nx2 + 1, dx):
                    c, xc = incx[nx3]
                    if (an + c) not in adjset or (bn + c) not in adjset:
                        continue
                    ox[14] += 1
                    f70 += c3(a, b, c) - 1
                    if tri[xa] > 2 and tri[xb] > 2:
                        f71 += c3(x, a, b) - 1
                    if tri[xa] > 2 and tri[xc] > 2:
                        f71 += c3(x, a, c) - 1
                    if tri[xb] > 2 and tri[xc] > 2:
                        f71 += c3(x, b, c) - 1
                    f67 += tri[xa] - 2 + tri[xb] - 2 + tri[xc] - 2
                    f66 += c2(a, b) - 2 + c2(a, c) - 2 + c2(b, c) - 2
                    f58 += dx - 3
                    f57 += deg[a] - 3 + deg[b] - 3 + deg[c] - 3

            # x as a degree-3 node of a diamond
            for nx2 in range(dx):
                b, xb = incx[nx2]
                if (an + b) not in adjset:
                    continue
                bn = b * n
                for nx3 in range(nx2 + 1, dx):
                    c, xc = incx[nx3]
                    if (an + c) not in adjset or (bn + c) in adjset:
                        continue
                    ox[13] += 1
                    if tri[xb] > 1 and tri[xc] > 1:
                        f69 += c3(x, b, c) - 1
                    f68 += c3(a, b, c) - 1
                    f64 += c2(b, c) - 2
                    f61 += tri[xb] - 1 + tri[xc] - 1
                    f60 += c2(a, b) - 1 + c2(a, c) - 1
                    f55 += tri[xa] - 2
                    f48 += deg[b] - 2 + deg[c] - 2
                    f42 += dx - 3
                    f41 += deg[a] - 3

            # x as a degree-2 node of a diamond
            for nx2 in range(nx1 + 1, dx):
                b, xb = incx[nx2]
                if (an + b) not in adjset:
                    continue
                bn = b * n
                for c, ac in inca:
                    if c == x or (xn + c) in adjset or (bn + c) not in adjset:
                        continue
                    ox[12] += 1
                    if tri[ac] > 1:
                        f65 += c3(a, b, c)
                    f63 += common_x[c] - 2
                    f59 += tri[ac] - 1 + c2(b, c) - 1
                    f54 += c2(a, b) - 2
                    f47 += dx - 2
                    f46 += deg[c] - 2
                    f40 += deg[a] - 3 + deg[b] - 3

            # x on a 4-cycle
            for nx2 in range(nx1 + 1, dx):
                b, xb = incx[nx2]
                if (an + b) in adjset:
                    continue
                bn = b * n
                for c, ac in inca:
                    if c == x or (xn + c) in adjset or (bn + c) not in adjset:
                        continue
                    ox[8] += 1
                    if tri[ac] > 0:
                        f62 += c3(a, b, c)
                    f53 += tri[xa] + tri[xb]
                    f51 += tri[ac] + c2(c, b)
                    f50 += common_x[c] - 2
                    f49 += common_a[b] - 2
                    f38 += dx - 2
                    f37 += deg[a] - 2 + deg[b] - 2
                    f36 += deg[c] - 2

            # x as the degree-3 node of a paw
            for nx2 in range(nx1 + 1, dx):
                b, xb = incx[nx2]
                if (an + b) not in adjset:
                    continue
                bn = b * n
                for nx3 in range(dx):
                    c, xc = incx[nx3]
                    if c == a or c == b or (an + c) in adjset or (bn + c) in adjset:
                        continue
                    ox[11] += 1
                    f44 += tri[xc]
                    f33 += dx - 3
                    f30 += deg[c] - 1
                    f26 += deg[a] - 2 + deg[b] - 2

            # x as a degree-2 triangle node of a paw
            for nx2 in range(dx):
                b, xb = incx[nx2]
                if (an + b) not in adjset:
                    continue
                for c, bc in inc[b]:
                    if c == x or c == a or (an + c) in adjset or (xn + c) in adjset:
                        continue
                    ox[10] += 1
                    f52 += common_a[c] - 1
                    f43 += tri[bc]
                    f32 += deg[b] - 3
                    f29 += deg[c] - 1
                    f25 += deg[a] - 2

            # x as the pendant of a paw
            for na1 in range(da):
                b, ab = inca[na1]
                if b == x or (xn + b) in adjset:
                    continue
                bn = b * n
                for na2 in range(na1 + 1, da):
                    c, ac = inca[na2]
                    if c == x or (bn + c) not in adjset or (xn + c) in adjset:
                        continue
                    ox[9] += 1
                    if tri[ab] > 1 and tri[ac] > 1:
                        f56 += c3(a, b, c)
                    f45 += c2(b, c) - 1
                    f39 += tri[ab] - 1 + tri[ac] - 1
                    f31 += deg[a] - 3
                    f28 += dx - 1
                    f24 += deg[b] - 2 + deg[c] - 2

            # x as an end of an induced 4-path
            for b, _ab in inca:
                if b == x or (xn + b) in adjset:
                    continue
                an_c = a * n
                for c, bc in inc[b]:
                    if c == a or (an_c + c) in adjset or (xn + c) in adjset:
                        continue
                    ox[4] += 1
                    f35 += common_a[c] - 1
                    f34 += common_x[c]
                    f27 += tri[bc]
                    f18 += deg[b] - 2
                    f16 += dx - 1
                    f15 += deg[c] - 1

            # x as a middle of an induced 4-path
            for nx2 in range(dx):
                b, xb = incx[nx2]
                if b == a or (an + b) in adjset:
                    continue
                for c, _bc in inc[b]:
                    if c == x or (an + c) in adjset or (xn + c) in adjset:
                        continue
                    ox[5] += 1
                    f17 += deg[a] - 1

            # x as a leaf of a claw centered at a
            for na1 in range(da):
                b, _ab = inca[na1]
                if b == x or (xn + b) in adjset:
                    continue
                bn = b * n
                for na2 in range(na1 + 1, da):
                    c, _ac = inca[na2]
                    if c == x or (xn + c) in adjset or (bn + c) in adjset:
                        continue
                    ox[6] += 1
                    f22 += deg[a] - 3
                    f20 += dx - 1
                    f19 += deg[b] - 1 + deg[c] - 1

            # x as the center of a claw
            for nx2 in range(nx1 + 1, dx):
                b, xb = incx[nx2]
                if (an + b) in adjset:
                    continue
                bn = b * n
                for nx3 in range(nx2 + 1, dx):
                    c, xc = incx[nx3]
                    if (an + c) in adjset or (bn + c) in adjset:
                        continue
                    ox[7] += 1
                    f23 += dx - 3
                    f21 += deg[a] - 1 + deg[b] - 1 + deg[c] - 1

        # solve the relation system, largest orbits first
        ox[72] = C5[x]
        ox[71] = (f71 - 12 * ox[72]) // 2
        ox[70] = f70 - 4 * ox[72]
        ox[69] = (f69 - 2 * ox[71]) // 4
        ox[68] = f68 - 2 * ox[71]
        ox[67] = f67 - 12 * ox[72] - 4 * ox[71]
        ox[66] = f66 - 12 * ox[72] - 2 * ox[71] - 3 * ox[70]
        ox[65] = (f65 - 3 * ox[70]) // 2
        ox[64] = f64 - 2 * ox[71] - 4 * ox[69] - 1 * ox[68]
        ox[63] = f63 - 3 * ox[70] - 2 * ox[68]
        ox[62] = (f62 - 1 * ox[68]) // 2
        ox[61] = (f61 - 4 * ox[71] - 8 * ox[69] - 2 * ox[67]) // 2
        ox[60] = f60 - 4 * ox[71] - 2 * ox[68] - 2 * ox[67]
        ox[59] = f59 - 6 * ox[70] - 2 * ox[68] - 4 * ox[65]
        ox[58] = f58 - 4 * ox[72] - 2 * ox[71] - 1 * ox[67]
        ox[57] = f57 - 12 * ox[72] - 4 * ox[71] - 3 * ox[70] - 1 * ox[67] - 2 * ox[66]
        ox[56] = (f56 - 2 * ox[65]) // 3
        ox[55] = (f55 - 2 * ox[71] - 2 * ox[67]) // 3
        ox[54] = (f54 - 3 * ox[70] - 1 * ox[66] - 2 * ox[65]) // 2
        ox[53] = f53 - 2 * ox[68] - 2 * ox[64] - 2 * ox[63]
        ox[52] = (f52 - 2 * ox[66] - 2 * ox[64] - 1 * ox[59]) // 2
        ox[51] = f51 - 2 * ox[68] - 2 * ox[63] - 4 * ox[62]
        ox[50] = (f50 - 1 * ox[68] - 2 * ox[63]) // 3
        ox[49] = (f49 - 1 * ox[68] - 1 * ox[64] - 2 * ox[62]) // 2
        ox[48] = (
            f48
            - 4 * ox[71]
            - 8 * ox[69]
            - 2 * ox[68]
            - 2 * ox[67]
            - 2 * ox[64]
            - 2 * ox[61]
            - 1 * ox[60]
        )
        ox[47] = f47 - 3 * ox[70] - 2 * ox[68] - 1 * ox[66] - 1 * ox[63] - 1 * ox[60]
        ox[46] = f46 - 3 * ox[70] - 2 * ox[68] - 2 * ox[65] - 1 * ox[63] - 1 * ox[59]
        ox[45] = f45 - 2 * ox[65] - 2 * ox[62] - 3 * ox[56]
        ox[44] = (f44 - 1 * ox[67] - 2 * ox[61]) // 4
        ox[43] = (f43 - 2 * ox[66] - 1 * ox[60] - 1 * ox[59]) // 2
        ox[42] = f42 - 2 * ox[71] - 4 * ox[69] - 2 * ox[67] - 2 * ox[61] - 3 * ox[55]
        ox[41] = f41 - 2 * ox[71] - 1 * ox[68] - 2 * ox[67] - 1 * ox[60] - 3 * ox[55]
        ox[40] = (
            f40
            - 6 * ox[70]
            - 2 * ox[68]
            - 2 * ox[66]
            - 4 * ox[65]
            - 1 * ox[60]
            - 1 * ox[59]
            - 4 * ox[54]
        )
        ox[39] = (f39 - 4 * ox[65] - 1 * ox[59] - 6 * ox[56]) // 2
        ox[38] = f38 - 1 * ox[68] - 1 * ox[64] - 2 * ox[63] - 1 * ox[53] - 3 * ox[50]
        ox[37] = (
            f37
            - 2 * ox[68]
            - 2 * ox[64]
            - 2 * ox[63]
            - 4 * ox[62]
            - 1 * ox[53]
            - 1 * ox[51]
            - 4 * ox[49]
        )
        ox[36] = f36 - 1 * ox[68] - 2 * ox[63] - 2 * ox[62] - 1 * ox[51] - 3 * ox[50]
        ox[35] = (f35 - 1 * ox[59] - 2 * ox[52] - 2 * ox[45]) // 2
        ox[34] = (f34 - 1 * ox[59] - 2 * ox[52] - 1 * ox[51]) // 2
        ox[33] = (f33 - 1 * ox[67] - 2 * ox[61] - 3 * ox[58] - 4 * ox[44] - 2 * ox[42]) // 2
        ox[32] = (
            f32
            - 2 * ox[66]
            - 1 * ox[60]
            - 1 * ox[59]
            - 2 * ox[57]
            - 2 * ox[43]
            - 2 * ox[41]
            - 1 * ox[40]
        ) // 2
        ox[31] = f31 - 2 * ox[65] - 1 * ox[59] - 3 * ox[56] - 1 * ox[43] - 2 * ox[39]
        ox[30] = f30 - 1 * ox[67] - 1 * ox[63] - 2 * ox[61] - 1 * ox[53] - 4 * ox[44]
        ox[29] = (
            f29 - 2 * ox[66] - 2 * ox[64] - 1 * ox[60] - 1 * ox[59] - 1 * ox[53]
            - 2 * ox[52] - 2 * ox[43]
        )
        ox[28] = f28 - 2 * ox[65] - 2 * ox[62] - 1 * ox[59] - 1 * ox[51] - 1 * ox[43]
        ox[27] = (f27 - 1 * ox[59] - 1 * ox[51] - 2 * ox[45]) // 2
        ox[26] = (
            f26 - 2 * ox[67] - 2 * ox[63] - 2 * ox[61] - 6 * ox[58] - 1 * ox[53]
            - 2 * ox[47] - 2 * ox[42]
        )
        ox[25] = (
            f25 - 2 * ox[66] - 2 * ox[64] - 1 * ox[59] - 2 * ox[57] - 2 * ox[52]
            - 1 * ox[48] - 1 * ox[40]
        ) // 2
        ox[24] = (
            f24 - 4 * ox[65] - 4 * ox[62] - 1 * ox[59] - 6 * ox[56] - 1 * ox[51]
            - 2 * ox[45] - 2 * ox[39]
        )
        ox[23] = (f23 - 1 * ox[55] - 1 * ox[42] - 2 * ox[33]) // 4
        ox[22] = (f22 - 2 * ox[54] - 1 * ox[40] - 1 * ox[39] - 1 * ox[32] - 2 * ox[31]) // 3
        ox[21] = f21 - 3 * ox[55] - 3 * ox[50] - 2 * ox[42] - 2 * ox[38] - 2 * ox[33]
        ox[20] = f20 - 2 * ox[54] - 2 * ox[49] - 1 * ox[40] - 1 * ox[37] - 1 * ox[32]
        ox[19] = (
            f19 - 4 * ox[54] - 4 * ox[49] - 1 * ox[40] - 2 * ox[39] - 1 * ox[37]
            - 2 * ox[35] - 2 * ox[31]
        )
        ox[18] = (
            f18 - 1 * ox[59] - 1 * ox[51] - 2 * ox[46] - 2 * ox[45] - 2 * ox[36]
            - 2 * ox[27] - 1 * ox[24]
        ) // 2
        ox[17] = (
            f17 - 1 * ox[60] - 1 * ox[53] - 1 * ox[51] - 1 * ox[48] - 1 * ox[37]
            - 2 * ox[34] - 2 * ox[30]
        ) // 2
        ox[16] = (
            f16 - 1 * ox[59] - 2 * ox[52] - 1 * ox[51] - 2 * ox[46] - 2 * ox[36]
            - 2 * ox[34] - 1 * ox[29]
        )
        ox[15] = (
            f15 - 1 * ox[59] - 2 * ox[52] - 1 * ox[51] - 2 * ox[45] - 2 * ox[35]
            - 2 * ox[34] - 2 * ox[27]
        )

    return np.array(orbit, dtype=np.int64).reshape(n, ORBIT_COUNT)
