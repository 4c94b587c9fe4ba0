"""Parity forests and cycle decompositions.

Two classical facts drive the maximum-degree labelers: every graph has a
subforest whose removal leaves all degrees even, and every even graph
splits into edge-disjoint simple cycles.  Both constructions here are
deterministic given the canonical edge order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError


@dataclass(frozen=True)
class CycleDecomposition:
    """Edge-disjoint simple cycles covering a whole (sub)graph's edge set.

    Each cycle is a vertex sequence; ``cycle_edges[i][j]`` is the id of the
    edge joining ``cycles[i][j]`` and ``cycles[i][(j+1) % k]``, so the last
    edge of a cycle closes it.  Only defined for even graphs, so there is never a
    leftover edge.
    """

    cycles: tuple[tuple[int, ...], ...]
    cycle_edges: tuple[tuple[int, ...], ...]


def _subgraph(g: Graph, edge_ids) -> tuple[list[int], list[bool]]:
    """Vertex degrees of the subgraph of ``g`` on ``edge_ids``, and a mask
    that is True on every edge of ``g`` outside it."""
    lo, hi = g.lo, g.hi
    deg = [0] * g.n
    skip = [True] * len(lo)
    for e in edge_ids:
        deg[lo[e]] += 1
        deg[hi[e]] += 1
        skip[e] = False
    return deg, skip


def parity_forest(g: Graph, edge_ids) -> list[int]:
    """Subforest whose deletion makes the subgraph of ``g`` on ``edge_ids``
    even.

    ``edge_ids`` are ascending edge ids of ``g`` (``range(g.m)`` for all of
    it); the forest is given in the same ids, ascending.  Roots a spanning
    forest of the subgraph (BFS from the smallest vertex of each component),
    then walks each tree children-first: a vertex whose current degree is odd
    sends its parent edge into the forest.  Each non-root is finalized
    exactly once, and the handshake identity forces the roots even as well.
    Linear time, plus sorting the forest; ``|F| <= n - (#components)``.
    """
    lo, hi = g.lo, g.hi
    incident = g._incident
    deg, skip = _subgraph(g, edge_ids)
    parent_edge = [-1] * g.n
    seen = [False] * g.n
    forest: list[int] = []  # each vertex has one parent edge, so none repeats
    for root in range(g.n):
        if seen[root] or not deg[root]:
            continue  # a vertex off the subgraph is a tree of its own, with no parent edge
        seen[root] = True
        queue = [root]
        for u in queue:  # reads what the loop appends, so it runs the BFS
            for e in incident[u]:
                if skip[e]:
                    continue
                w = lo[e] + hi[e] - u
                if not seen[w]:
                    seen[w] = True
                    parent_edge[w] = e
                    queue.append(w)
        # children first, without the root: it has no parent edge, and the
        # handshake identity leaves it even.  Components share no edge, so
        # each is finished before the next is found.
        for v in queue[:0:-1]:
            if deg[v] & 1:
                e = parent_edge[v]
                forest.append(e)
                deg[lo[e]] -= 1
                deg[hi[e]] -= 1
    if any(map((1).__and__, deg)):
        raise AssertionError("parity forest failed to even out all degrees")
    return sorted(forest)


def cycle_decomposition(g: Graph, edge_ids) -> CycleDecomposition:
    """Split the subgraph of ``g`` on ``edge_ids``, which must be even, into
    edge-disjoint simple cycles.

    ``edge_ids`` are ascending edge ids of ``g`` (``range(g.m)`` for all of
    it), and the cycles' edges are given in the same ids.  Walks from each
    vertex in turn, always along the first unused edge of the subgraph in
    incidence order, which in a canonical graph is the edge to the smallest
    neighbour; whenever the walk revisits a vertex on the current path the
    enclosed cycle is cut out, with the edges the walk took.  With all
    degrees even, only the start can run out of unused edges, so the walk
    from a start ends exactly when the start does.
    """
    # unused edges per vertex; the edges off the subgraph start out used
    left, used = _subgraph(g, edge_ids)
    if any(map((1).__and__, left)):
        odd = next(v for v, d in enumerate(left) if d & 1)
        raise GraphError(f"cycle decomposition needs an even graph; odd degree at {odd}")
    lo, hi = g.lo, g.hi
    incident = g._incident
    ptr = [0] * g.n  # no unused edge precedes incident[v][ptr[v]]
    pos = [-1] * g.n  # index on the current path, or -1
    cycles: list[tuple[int, ...]] = []
    edge_seqs: list[tuple[int, ...]] = []
    for start in range(g.n):
        if not left[start]:
            continue
        v = start
        path = [v]
        path_edges: list[int] = []  # path_edges[i] joins path[i] and path[i+1]
        pos[v] = 0
        while left[v]:
            inc = incident[v]
            i = ptr[v]
            e = inc[i]
            while used[e]:
                i += 1
                e = inc[i]
            ptr[v] = i + 1
            used[e] = True
            w = lo[e] + hi[e] - v
            left[v] -= 1
            left[w] -= 1
            path_edges.append(e)
            j = pos[w]
            if j < 0:
                pos[w] = len(path)
                path.append(w)
            else:
                tail = path[j + 1:]  # the cycle is w, then tail
                cycles.append((w, *tail))
                edge_seqs.append(tuple(path_edges[j:]))
                for u in tail:
                    pos[u] = -1
                del path[j + 1:]
                del path_edges[j:]
            v = w
        pos[start] = -1
    return CycleDecomposition(tuple(cycles), tuple(edge_seqs))
