#!/usr/bin/env python3
"""Cross-check and time the two orbit counters on random graphs.

Besides single ER graphs, each trial checks a disjoint union: copies of a
small ER graph, their nodes interleaved, beside one other ER graph. The
census counts each distinct component once and copies its rows to the
other copies, so the oracle checks that copy too.

Usage: python scripts/orbit_counter_bench.py [--max-n 200] [--trials 5]
"""

import argparse
import sys
import time

import numpy as np

from orbitroles.graph import Graph
from orbitroles.graphlets import count_orbits_bruteforce
from orbitroles.orbits import count_orbits


def er_edges(n, p, seed):
    rng = np.random.default_rng(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def er_graph(n, p, seed):
    return Graph.from_edges(n, er_edges(n, p, seed))


def disjoint_union(copies, n, other, p, seed):
    """``copies`` copies of ER(n, p), node i of copy c at copies * i + c,
    then ER(other, p) of another seed on the nodes after them."""
    edges = [
        (copies * u + c, copies * v + c) for u, v in er_edges(n, p, seed) for c in range(copies)
    ]
    base = copies * n
    edges += [(base + u, base + v) for u, v in er_edges(other, p, seed + 1000)]
    return Graph.from_edges(base + other, edges)


def check(label, g):
    t0 = time.perf_counter()
    fast = count_orbits(g)
    t1 = time.perf_counter()
    slow = count_orbits_bruteforce(g).counts
    t2 = time.perf_counter()
    ok = np.array_equal(fast.counts, slow)
    print(
        f"{label}: m={g.edge_count} components={fast.meta['components']} "
        f"distinct={fast.meta['distinct_components']} "
        f"fast={t1 - t0:.2f}s oracle={t2 - t1:.2f}s {'agree' if ok else 'MISMATCH'}"
    )
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-n", type=int, default=200)
    parser.add_argument("--trials", type=int, default=5)
    args = parser.parse_args(argv)

    configs = [(args.max_n, 0.02), (args.max_n * 3 // 5, 0.05), (args.max_n * 2 // 5, 0.1)]
    failures = 0
    for n, p in configs:
        for trial in range(args.trials):
            failures += not check(f"ER(n={n}, p={p}) trial {trial}", er_graph(n, p, trial))
    small, other = args.max_n // 6, args.max_n // 4
    for trial in range(args.trials):
        g = disjoint_union(4, small, other, 0.15, trial)
        failures += not check(f"4 x ER(n={small}) + ER(n={other}), p=0.15, trial {trial}", g)
    print("all agree" if not failures else f"{failures} mismatching graphs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
