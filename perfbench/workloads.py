"""Workload definitions and seeded input generation for the benchmark.

Each workload is one input corpus plus one pipeline configuration. The
inputs are generated from the benchmark seed before anything is timed;
the program under test only ever sees the generated files.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Every config pins rolx_rank = 4: the default rank of 16 fails on the BA
# workload with "rank 16 exceeds the 11 retained ReFeX features".
# Ten trees keep the surrogate a minor share of both workloads.
BASE_CONFIG = {
    "embed": {"methods": "graphwave,rolx", "rolx_rank": 4},
    "cluster": {"k_min": 2, "k_max": 8, "chosen_k": 4},
    "explain": {
        "method": "graphwave",
        "trees": 10,
        "importance_repeats": 5,
        "effect_orbits": "27",
    },
}
IDR_CONFIG = {"direction": "all", "bins": 4, "min_per_role": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "planted" (orbitroles generate) or "ba" (preferential attachment)
    size: dict  # planted: copies, noise_edges; ba: n, m
    idr: bool = True
    tiny_size: dict = field(default_factory=dict)
    tiny: bool = False  # self-test size: tiny_size inputs, few trees, short k range

    def config_text(self, seed: int) -> str:
        sections = {"pipeline": {"seed": seed}}
        for name, values in BASE_CONFIG.items():
            sections[name] = dict(values)
        if self.idr:
            sections["idr"] = dict(IDR_CONFIG)
        if self.tiny:
            sections["cluster"].update(k_max=4, chosen_k=3)
            sections["explain"].update(trees=5, importance_repeats=1)
        lines = []
        for name, values in sections.items():
            lines.append(f"[{name}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
        return "\n".join(lines) + "\n"

    def as_tiny(self) -> "Workload":
        return replace(self, size=self.tiny_size, tiny=True)

    def expected_outputs(self) -> list:
        names = [
            "orbits.csv",
            "embedding_graphwave.csv",
            "embedding_rolx.csv",
            "sweep.csv",
            "roles_graphwave.csv",
            "roles_rolx.csv",
            "importance.csv",
            "effects.csv",
        ]
        if self.idr:
            names += ["diversity.csv", "idr_bins.csv", "idr_values.csv"]
        return names


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ba-hub",
            kind="ba",
            size={"n": 800, "m": 4},
            idr=False,
            tiny_size={"n": 60, "m": 3},
        ),
        Workload(
            name="planted-many",
            kind="planted",
            size={"copies": 200, "noise_edges": 27},
            tiny_size={"copies": 8, "noise_edges": 2},
        ),
    )
}


@dataclass
class Inputs:
    graph: Path
    labels: Path | None  # node table with categories, or None
    truth: Path  # id,true_role,role_name
    config: Path
    stats: dict


# The hubs of a BA graph are its oldest nodes, and their degrees set most
# of the census cost (the sum of C(d, 3) over nodes). The first half of the
# nodes therefore grows from one fixed seed and only the second half from
# the workload seed: at n=800 this cuts the seed-to-seed spread of that
# cost from 24% to 7% (IQR / median over seeds 1-20).
BA_CORE_SEED = 20220607


def ba_edges(n: int, m: int, seed: int) -> list:
    """Barabási–Albert preferential attachment, networkx-style.

    Starts from a star on m + 1 nodes; every later node attaches to m
    distinct existing nodes drawn with probability proportional to degree.
    Gives m + m * (n - m - 1) edges. Nodes below n // 2 draw from
    BA_CORE_SEED, the others from ``seed``.
    """
    if not 1 <= m < n - 1:
        raise ValueError(f"need 1 <= m < n - 1, got n={n}, m={m}")
    core_rng = np.random.default_rng(BA_CORE_SEED)
    rng = np.random.default_rng(seed)
    edges = [(0, j) for j in range(1, m + 1)]
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        draw = core_rng if source < n // 2 else rng
        targets = set()
        while len(targets) < m:
            targets.add(repeated[int(draw.integers(len(repeated)))])
        for t in sorted(targets):
            edges.append((t, source))
        repeated.extend(sorted(targets))
        repeated.extend([source] * m)
    return edges


def graph_stats(edge_path: Path) -> dict:
    """Node, edge and component counts of an edge-list file (union-find)."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    edges = set()
    with open(edge_path, encoding="utf-8") as fh:
        for line in fh:
            u, v = line.split()
            for x in (u, v):
                parent.setdefault(x, x)
            edges.add((min(u, v), max(u, v)))
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    sizes = {}
    for x in parent:
        r = find(x)
        sizes[r] = sizes.get(r, 0) + 1
    return {
        "n": len(parent),
        "m": len(edges),
        "components": len(sizes),
        "largest_component": max(sizes.values()),
    }


def generate_inputs(workload: Workload, seed: int, work: Path, env: dict) -> Inputs:
    """Write the workload's input files into ``work``; nothing is timed."""
    corpus = work / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)
    size = workload.size
    if workload.kind == "planted":
        cmd = [
            sys.executable, "-m", "orbitroles.cli", "generate",
            "--template", "barbell", "--clique-size", "5", "--chain-len", "5",
            "--copies", str(size["copies"]), "--noise-edges", str(size["noise_edges"]),
            "--label-mode", "clique-side", "--seed", str(seed), "--out", str(corpus),
        ]
        subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
        labels = corpus / "nodes.csv"
    else:
        n, m = size["n"], size["m"]
        with open(corpus / "edges.txt", "w", encoding="utf-8", newline="\n") as fh:
            for u, v in ba_edges(n, m, seed):
                fh.write(f"n{u} n{v}\n")
        # The generator's own truth: arrival-order quartile. Early nodes
        # become hubs, so structural roles recover part of it.
        with open(corpus / "roles.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,true_role,role_name\n")
            for i in range(n):
                q = 4 * i // n
                fh.write(f"n{i},{q},arrival-q{q}\n")
        labels = None
    config = work / "bench.ini"
    config.write_text(workload.config_text(seed), encoding="utf-8")
    stats = graph_stats(corpus / "edges.txt")
    stats["seed"] = seed
    return Inputs(corpus / "edges.txt", labels, corpus / "roles.csv", config, stats)
