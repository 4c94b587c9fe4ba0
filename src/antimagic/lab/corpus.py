"""Exhaustive small-graph corpora.

Enumeration is by orbit: walk all edge-subset bitmasks of the labeled
complete graph, and whenever an unseen mask appears, mark its whole
isomorphism orbit (its images under all vertex permutations) as seen, so
each class is represented by the smallest mask of its orbit.  Practical up
to 7 vertices; the max-degree corpora at 8 vertices are built instead by
joining a new vertex onto the 7-vertex classes, which covers every
isomorphism class of the target family.
"""

from __future__ import annotations

import itertools
import math
from array import array
from functools import lru_cache

from ..graph import Graph, GraphError

MAX_ENUMERATION_N = 7
_CHUNK = 7  # edge-mask bits per table lookup in the orbit walk


def _edge_positions(n: int) -> dict[tuple[int, int], int]:
    pos = {}
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            pos[(u, v)] = k
            k += 1
    return pos


def _chunk_images(n: int) -> list[list[int]]:
    """The images of every chunk of an edge mask under all n! vertex
    permutations, packed into one int per chunk value.

    Chunk c holds mask bits _CHUNK*c up to _CHUNK*(c+1).  Entry [c][v]
    holds, in its i-th 32-bit field, the image under the i-th permutation
    of the mask whose chunk c is v and whose other bits are clear.  So
    OR-ing one entry per chunk packs the images of a whole mask.
    """
    pos = _edge_positions(n)
    either = {**pos, **{(v, u): k for (u, v), k in pos.items()}}  # both orientations of each edge
    perms = list(itertools.permutations(range(n)))
    singles = [int.from_bytes(array("I", [1 << either[p[u], p[v]] for p in perms]).tobytes(), "little")
               for u, v in pos]
    chunks = []
    for c in range(0, len(singles), _CHUNK):
        values = [0]
        for single in singles[c:c + _CHUNK]:
            values += [packed | single for packed in values]
        chunks.append(values)
    return chunks


def _mask_to_graph(n: int, mask: int) -> Graph:
    edges = [uv for uv, k in _edge_positions(n).items() if (mask >> k) & 1]
    return Graph(n, edges)


@lru_cache(maxsize=None)
def graphs_upto_iso(n: int) -> tuple[Graph, ...]:
    """One representative per isomorphism class of graphs on ``n`` vertices."""
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise GraphError(f"exhaustive enumeration supports 1 <= n <= {MAX_ENUMERATION_N}")
    chunks = _chunk_images(n)
    width = math.factorial(n) * array("I").itemsize
    seen = bytearray(1 << n * (n - 1) // 2)
    reps = []
    mask = 0
    while mask >= 0:
        reps.append(mask)
        packed = 0
        for c, values in enumerate(chunks):
            packed |= values[(mask >> _CHUNK * c) & ((1 << _CHUNK) - 1)]
        for image in array("I", packed.to_bytes(width, "little")):
            seen[image] = 1
        mask = seen.find(0, mask + 1)  # the next unseen mask, or -1
    return tuple(_mask_to_graph(n, mask) for mask in reps)


def connected_graphs_upto_iso(n: int) -> tuple[Graph, ...]:
    return tuple(g for g in graphs_upto_iso(n) if g.is_connected())


def high_max_degree_corpus(n: int) -> tuple[Graph, ...]:
    """Every graph on ``n`` vertices with maximum degree n-1 or n-2.

    Built by attaching an almost-universal vertex to each (n-1)-vertex
    class: a graph with a universal vertex is some H plus a join vertex,
    and one with a degree-(n-2) vertex is some K plus a vertex joined to
    all but one non-neighbor, so iterating those constructions covers every
    isomorphism class of the family (possibly with repeats).
    """
    if not 4 <= n <= MAX_ENUMERATION_N + 1:
        raise GraphError(f"corpus supports 4 <= n <= {MAX_ENUMERATION_N + 1}")
    base = graphs_upto_iso(n - 1)
    out: list[Graph] = []
    hub = n - 1
    for h in base:
        edges = list(zip(h.lo, h.hi)) + [(u, hub) for u in range(n - 1)]
        out.append(Graph(n, edges))
    for k in base:
        degs = k.degrees()
        for z in range(n - 1):
            # the join must not create a universal vertex elsewhere
            if any(degs[u] > n - 3 for u in range(n - 1) if u != z):
                continue
            edges = list(zip(k.lo, k.hi)) + [(u, hub) for u in range(n - 1) if u != z]
            g = Graph(n, edges)
            assert g.max_degree() == n - 2
            out.append(g)
    return tuple(out)
