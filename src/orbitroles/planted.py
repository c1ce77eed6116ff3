"""Synthetic graphs with planted structural roles.

Copies of small structural templates (chains, stars, cliques, barbells)
are stamped out side by side, each position carrying a ground-truth role
label, optionally blurred with uniformly random noise edges. These graphs
are the test bed for role-recovery and explanation checks: the right
answer is known by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph


@dataclass(frozen=True)
class Template:
    """A small graph pattern with a role label and a side per position. The
    sides tell the parts of a copy apart for labelling: 1 marks clique B
    of a barbell, 0 every other position."""

    name: str
    edges: tuple
    roles: tuple
    sides: tuple

    @property
    def size(self) -> int:
        return len(self.roles)


def chain_template(length: int) -> Template:
    if length < 2:
        raise ValueError("chain needs at least 2 nodes")
    edges = tuple((i, i + 1) for i in range(length - 1))
    roles = tuple(
        "chain-end" if i in (0, length - 1) else "chain-interior"
        for i in range(length)
    )
    return Template(f"chain{length}", edges, roles, (0,) * length)


def star_template(leaves: int) -> Template:
    if leaves < 2:
        raise ValueError("star needs at least 2 leaves")
    edges = tuple((i, leaves) for i in range(leaves))
    roles = tuple(["star-leaf"] * leaves + ["star-center"])
    return Template(f"star{leaves}", edges, roles, (0,) * (leaves + 1))


def clique_template(size: int) -> Template:
    if size < 3:
        raise ValueError("clique needs at least 3 nodes")
    edges = tuple((i, j) for i in range(size) for j in range(i + 1, size))
    roles = tuple(["clique-member"] * size)
    return Template(f"clique{size}", edges, roles, (0,) * size)


def barbell_template(clique_size: int = 5, chain_len: int = 3) -> Template:
    """Two cliques joined by a chain of ``chain_len`` nodes.

    The chain includes its two endpoints, which are members of the cliques
    (the 'clique-attachment' positions); chain_len=3 therefore means one
    interior bridge node. Interior nodes at equal distance from both
    cliques are 'bridge-center', others 'bridge-arm-<depth>'.
    """
    if clique_size < 3:
        raise ValueError("barbell cliques need at least 3 nodes")
    if chain_len < 3:
        raise ValueError("barbell chain needs at least 3 nodes (incl. attachments)")
    c = clique_size
    interior = chain_len - 2
    edges = []
    for i in range(c):
        for j in range(i + 1, c):
            edges.append((i, j))
            edges.append((c + i, c + j))
    # chain: attachment 0 - interior nodes - attachment c
    prev = 0
    for t in range(interior):
        edges.append((prev, 2 * c + t))
        prev = 2 * c + t
    edges.append((prev, c))

    roles = []
    for i in range(c):
        roles.append("clique-attachment" if i == 0 else "clique-member")
    for i in range(c):
        roles.append("clique-attachment" if i == 0 else "clique-member")
    for t in range(interior):
        d_left, d_right = t + 1, interior - t
        if d_left == d_right:
            roles.append("bridge-center")
        else:
            roles.append(f"bridge-arm-{min(d_left, d_right)}")
    # clique A and the chain are side 0, clique B side 1
    sides = (0,) * c + (1,) * c + (0,) * interior
    return Template(f"barbell{c}x{chain_len}", tuple(edges), tuple(roles), sides)


@dataclass
class PlantedGraph:
    graph: Graph
    true_role: np.ndarray
    role_names: list


def generate_planted_graph(
    template_set, copies: int, noise_edges: int = 0, seed: int = 0
) -> PlantedGraph:
    """Stamp out ``copies`` of each template plus uniform noise edges.

    Deterministic for a fixed seed. Matching role labels across templates
    and copies share one role code.
    """
    templates = list(template_set)
    if not templates:
        raise ValueError("empty template set")
    if copies < 1:
        raise ValueError("copies must be >= 1")
    if noise_edges < 0:
        raise ValueError("noise_edges must be >= 0")

    role_codes: dict = {}
    edges = []
    labels = []
    offset = 0
    for _ in range(copies):
        for tpl in templates:
            for u, v in tpl.edges:
                edges.append((offset + u, offset + v))
            for r in tpl.roles:
                if r not in role_codes:
                    role_codes[r] = len(role_codes)
                labels.append(role_codes[r])
            offset += tpl.size

    n = offset
    existing = set()
    for u, v in edges:
        existing.add((min(u, v), max(u, v)))

    rng = np.random.default_rng(seed)
    added = 0
    attempts = 0
    max_attempts = 1000 * max(1, noise_edges)
    while added < noise_edges:
        attempts += 1
        if attempts > max_attempts:
            raise ValueError(
                f"could not place {noise_edges} noise edges (graph too dense?)"
            )
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in existing:
            continue
        existing.add(key)
        edges.append(key)
        added += 1

    graph = Graph.from_edges(n, edges)
    return PlantedGraph(
        graph=graph,
        true_role=np.array(labels, dtype=np.int64),
        role_names=list(role_codes.keys()),
    )
