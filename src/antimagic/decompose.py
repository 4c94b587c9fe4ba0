"""Parity forests and cycle decompositions.

Two classical facts drive the maximum-degree labelers: every graph has a
subforest whose removal leaves all degrees even, and every even graph
splits into edge-disjoint simple cycles.  Both constructions here are
deterministic given the canonical edge order.  Each takes its subgraph as a
per-edge mask of the graph, true on the edges outside it, and answers in the
graph's own edge ids.  :func:`parity_forest` returns the forest as an
ascending list of edge ids, and :func:`cycle_decomposition` returns a
:class:`CycleDecomposition`, a named pair of tuples.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, GraphError


class CycleDecomposition(NamedTuple):
    """Edge-disjoint simple cycles covering a whole (sub)graph's edge set.

    Each cycle is a tuple of vertices; ``cycle_edges[i][j]`` is the id of
    the edge joining ``cycles[i][j]`` and ``cycles[i][(j+1) % k]``, so the
    last edge of a cycle closes it.  Only defined for even graphs, so there
    is never a leftover edge.  A named tuple, so ``cycles, cycle_edges =
    dec`` unpacks it.
    """

    cycles: tuple[tuple[int, ...], ...]
    cycle_edges: tuple[tuple[int, ...], ...]


def parity_forest(g: Graph, skip) -> list[int]:
    """Subforest whose deletion makes the subgraph of ``g`` off ``skip``
    even, as an ascending list of edge ids.

    ``skip`` is a per-edge mask of ``g``, true on the edges outside the
    subgraph (``[False] * g.m`` for all of ``g``), and is only read; the
    forest is given in ``g``'s edge ids.  Roots a spanning forest of the
    subgraph (BFS from the smallest vertex of each component), then walks
    each tree children-first: a vertex whose current degree is odd sends
    its parent edge into the forest.  Each non-root is finalized exactly
    once, and the handshake identity forces the roots even as well.  Linear
    time, plus sorting the forest; ``|F| <= n - (#components)``.

    The smallest vertex of a component not yet reached is the smaller end of
    the first edge, in id order, whose smaller end is not yet reached, so
    the roots are read off the edges the mask keeps; the BFS counts each
    vertex's degree in the subgraph as it scans the vertex's incidence.
    """
    lo, hi = g.lo, g.hi
    incident = g._incident
    deg = [0] * g.n
    seen = [False] * g.n
    parent_edge = [-1] * g.n
    forest: list[int] = []  # each vertex has one parent edge, so none repeats
    for root, out in zip(lo, skip):
        if out or seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for u in queue:  # reads what the loop appends, so it runs the BFS
            d = 0
            for e in incident[u]:
                if skip[e]:
                    continue
                d += 1
                w = lo[e] + hi[e] - u
                if not seen[w]:
                    seen[w] = True
                    parent_edge[w] = e
                    queue.append(w)
            deg[u] = d
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
    forest.sort()
    return forest


def cycle_decomposition(g: Graph, skip) -> CycleDecomposition:
    """Split the subgraph of ``g`` off ``skip``, which must be even, into
    edge-disjoint simple cycles, returned as a :class:`CycleDecomposition`.

    ``skip`` is a per-edge mask of ``g``, true on the edges outside the
    subgraph (``[False] * g.m`` for all of ``g``); the walk marks a copy,
    so the caller's mask is left as it was.  The cycles' edges are given in
    ``g``'s edge ids.  Walks from the smallest vertex that has an unused
    edge, always along the first unused edge of the subgraph in incidence
    order, which in a canonical graph is the edge to the smallest
    neighbour; whenever the walk revisits a vertex on the current path the
    enclosed cycle is cut out, with the edges the walk took.  With all
    degrees even, only the start can run out of unused edges, so the walk
    from a start ends exactly when the start does.

    All unused edges at that smallest vertex lead to larger vertices, so it
    is the smaller end of the first unused edge in id order, and its unused
    edges come next in that order: the starts and their edges are read off
    the copy of the mask, and no degrees are counted.  An odd degree
    strands some walk away from its start, and only then are the degrees
    counted, from ``skip``, to name the smallest odd vertex in the
    :class:`GraphError`.
    """
    lo, hi = g.lo, g.hi
    incident = g._incident
    used = list(skip)  # the edges off the subgraph start out used
    ptr = [0] * g.n  # no unused edge precedes incident[v][ptr[v]]
    pos = [-1] * g.n  # index on the current path, or -1
    cycles: list[tuple[int, ...]] = []
    edge_seqs: list[tuple[int, ...]] = []
    path = [0]
    path_edges: list[int] = []  # path_edges[i] joins path[i] and path[i+1]
    for e, done in enumerate(used):  # reads the marks the walks make
        if done:
            continue
        v = path[0] = lo[e]  # the start, whose next unused edge is e
        pos[v] = 0
        while True:
            used[e] = True
            w = lo[e] + hi[e] - v
            path_edges.append(e)
            j = pos[w]
            if j < 0:
                pos[w] = len(path)
                path.append(w)
            else:
                cyc = path[j:]  # starts at w
                cycles.append(tuple(cyc))
                edge_seqs.append(tuple(path_edges[j:]))
                for u in cyc:
                    pos[u] = -1
                del path[j + 1:]
                del path_edges[j:]
                if not j:
                    break  # back at the start, with the path emptied
                pos[w] = j
            v = w
            inc = incident[v]
            i = ptr[v]
            try:
                e = inc[i]
                while used[e]:
                    i += 1
                    e = inc[i]
            except IndexError:
                raise _odd_degree(g, skip) from None
            ptr[v] = i + 1
    return CycleDecomposition(tuple(cycles), tuple(edge_seqs))


def _odd_degree(g: Graph, skip) -> GraphError:
    """The error for a subgraph with an odd degree, naming its smallest
    odd-degree vertex."""
    deg = [0] * g.n
    for u, v, out in zip(g.lo, g.hi, skip):
        if not out:
            deg[u] += 1
            deg[v] += 1
    odd = next(v for v, d in enumerate(deg) if d & 1)
    return GraphError(f"cycle decomposition needs an even graph; odd degree at {odd}")
