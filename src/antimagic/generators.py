"""Graph families for labeler inputs and experiments."""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .graph import Graph, GraphError


def complete_partite_graph(sizes: Sequence[int]) -> Graph:
    """All cross-class edges, with the classes as consecutive vertex blocks,
    smallest class first."""
    sizes = sorted(sizes)
    if sizes and sizes[0] < 1:
        raise GraphError("class sizes must be positive")
    starts = [0, *itertools.accumulate(sizes)]
    blocks = [range(a, b) for a, b in zip(starts, starts[1:])]
    return Graph(starts[-1], [(u, v) for x, y in itertools.combinations(blocks, 2)
                              for u in x for v in y])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def random_min_degree_graph(n: int, d: int, seed: int) -> Graph:
    """Random graph repaired to minimum degree ``d``, deterministic per seed.

    Starts from independent edges at the density matching expected degree
    ``d``, then adds random edges at the smallest deficient vertex until no
    vertex falls short.
    """
    if n < 2:
        raise GraphError("need at least 2 vertices")
    if not 0 <= d < n:
        raise GraphError(f"need 0 <= d < n, got d={d}, n={n}")
    rng = random.Random(seed)
    p = d / (n - 1)
    edges = set()
    deg = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.add((u, v))
                deg[u] += 1
                deg[v] += 1
    while True:
        deficient = [v for v in range(n) if deg[v] < d]
        if not deficient:
            break
        v = deficient[0]
        options = [u for u in range(n) if u != v and (min(u, v), max(u, v)) not in edges]
        u = rng.choice(options)
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
    return Graph(n, edges)

