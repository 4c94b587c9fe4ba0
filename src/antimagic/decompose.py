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

    Each cycle is a vertex sequence; ``edges[i][j]`` is the id of the edge
    joining ``cycles[i][j]`` and ``cycles[i][(j+1) % k]``, so the last edge
    of a cycle closes it.  Only defined for even graphs, so there is never a
    leftover edge.
    """

    cycles: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...]


def _subgraph(g: Graph, edge_ids) -> tuple[list[int], list[bool]]:
    """Vertex degrees of the subgraph of ``g`` on ``edge_ids``, and a mask
    that is True on every edge of ``g`` outside it."""
    edges = g.edges
    deg = [0] * g.n
    skip = [True] * g.m
    for e in edge_ids:
        u, v = edges[e]
        deg[u] += 1
        deg[v] += 1
        skip[e] = False
    return deg, skip


def parity_forest(g: Graph, edge_ids) -> list[int]:
    """Subforest whose deletion makes the subgraph of ``g`` on ``edge_ids``
    even.

    ``edge_ids`` are ascending edge ids of ``g`` (``range(g.m)`` for all of
    it); the forest is given in the same ids, ascending.  Roots a spanning
    forest of the subgraph (BFS from the smallest vertex of each component),
    then walks vertices children-first: a vertex whose current degree is odd
    sends its parent edge into the forest.  Each non-root is finalized
    exactly once, and the handshake identity forces the roots even as well.
    Linear time, plus sorting the forest; ``|F| <= n - (#components)``.
    """
    edges = g.edges
    incident = g._incident
    deg, skip = _subgraph(g, edge_ids)
    parent_edge = [-1] * g.n
    order: list[int] = []
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:  # reads what the loop appends, so it runs the BFS
            for e in incident[u]:
                if skip[e]:
                    continue
                a, b = edges[e]
                w = a if b == u else b
                if not seen[w]:
                    seen[w] = True
                    parent_edge[w] = e
                    queue.append(w)
        order += queue
    forest: set[int] = set()
    for v in reversed(order):
        e = parent_edge[v]
        if e >= 0 and deg[v] % 2 == 1:
            forest.add(e)
            u, w = edges[e]
            deg[u] -= 1
            deg[w] -= 1
    if any(d % 2 for d in deg):
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
    odd = [v for v in range(g.n) if left[v] % 2]
    if odd:
        raise GraphError(f"cycle decomposition needs an even graph; odd degree at {odd[0]}")
    edges = g.edges
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
            while used[inc[i]]:
                i += 1
            ptr[v] = i + 1
            e = inc[i]
            used[e] = True
            a, b = edges[e]
            w = a if b == v else b
            left[v] -= 1
            left[w] -= 1
            path_edges.append(e)
            j = pos[w]
            if j < 0:
                pos[w] = len(path)
                path.append(w)
            else:
                cyc = path[j:]
                cycles.append(tuple(cyc))
                edge_seqs.append(tuple(path_edges[j:]))
                for u in cyc[1:]:
                    pos[u] = -1
                del path[j + 1:]
                del path_edges[j:]
            v = w
        pos[start] = -1
    return CycleDecomposition(tuple(cycles), tuple(edge_seqs))
