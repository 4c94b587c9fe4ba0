import hashlib
import itertools
import random

import pytest

from antimagic.decompose import cycle_decomposition, parity_forest
from antimagic.graph import Graph, GraphError


def outside(g, ids):
    """The per-edge mask both walks take: true on the edges of g that the id
    list ``ids`` leaves out."""
    skip = [True] * g.m
    for e in ids:
        skip[e] = False
    return skip


def check_parity_forest(g):
    f = parity_forest(g, outside(g, range(g.m)))
    assert f == sorted(set(f))  # ascending edge ids, each once
    # deletion leaves all degrees even
    deg = list(g.degrees())
    edges = g.edges
    for e in f:
        u, v = edges[e]
        deg[u] -= 1
        deg[v] -= 1
    assert all(d % 2 == 0 for d in deg)
    # forest is acyclic: |F| restricted to any component is < its vertex count
    sub = Graph(g.n, [edges[e] for e in f])
    assert acyclic(sub)
    return f


def acyclic(g):
    # a forest has (vertex count of touched components) - (#components) edges;
    # equivalently no cycle: check by union-find
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def check_cycle_decomposition(g):
    dec = cycle_decomposition(g, outside(g, range(g.m)))
    assert len(dec.cycle_edges) == len(dec.cycles)
    all_edges = []
    for cyc, es in zip(dec.cycles, dec.cycle_edges):
        k = len(cyc)
        assert k >= 3
        assert len(set(cyc)) == k
        assert len(es) == k
        # edge j joins consecutive vertices j and j+1, wrapping around
        assert list(es) == [g.edge_index(cyc[j], cyc[(j + 1) % k]) for j in range(k)]
        all_edges.extend(es)
    assert sorted(all_edges) == list(range(g.m))
    return dec


def random_even_graph(rng):
    """Seeded G(n, p) on 3 <= n <= 60, evened out by toggling one edge
    between each consecutive pair of odd-degree vertices."""
    n = rng.randrange(3, 61)
    p = rng.random()
    edges = {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p}
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    odd = [v for v in range(n) if deg[v] % 2]
    edges ^= set(zip(odd[::2], odd[1::2]))
    return Graph(n, sorted(edges))


def random_edge_subsets(rng):
    """A seeded G(n, p) on 2 <= n <= 40 with two ascending edge-id subsets:
    every edge away from one vertex (the G - v_n shape), and a coin-flip
    subset."""
    n = rng.randrange(2, 41)
    p = rng.random()
    g = Graph(n, [pair for pair in itertools.combinations(range(n), 2) if rng.random() < p])
    hub = rng.randrange(n)
    yield g, [e for e, ends in enumerate(g.edges) if hub not in ends]
    yield g, [e for e in range(g.m) if rng.random() < 0.5]


# sha256 of the cycles of the 300 graphs of test_random_even_graphs_digest
CYCLES_DIGEST = "a93128c2e5d020422598448b17bdcb54f5632204a12dfb150f85328d2ed543c0"


class TestParityForest:
    def test_triangle_needs_nothing(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        assert parity_forest(g, outside(g, range(g.m))) == []

    def test_path3_forced_to_take_both_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert parity_forest(g, outside(g, range(g.m))) == [0, 1]

    def test_k4_by_invariant(self):
        g = Graph(4, list(itertools.combinations(range(4), 2)))
        f = check_parity_forest(g)
        assert len(f) <= 3

    def test_disconnected(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])
        check_parity_forest(g)

    def test_exhaustive_small(self):
        # every graph on up to 5 vertices (all labeled edge subsets)
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for r in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, r):
                    check_parity_forest(Graph(n, chosen))


def test_edge_subset_matches_its_own_graph():
    # working on a subset of G's edge ids must give what the subgraph, built
    # as its own Graph, gives, mapped back through the id list
    rng = random.Random(14)
    for _ in range(150):
        for g, ids in random_edge_subsets(rng):
            edges = g.edges
            sub = Graph(g.n, [edges[e] for e in ids])
            skip = outside(g, ids)
            forest = parity_forest(g, skip)
            assert skip == outside(g, ids)  # read, never marked
            assert forest == [ids[e] for e in parity_forest(sub, outside(sub, range(sub.m)))]
            even = [e for e in ids if e not in forest]
            sub_even = Graph(g.n, [edges[e] for e in even])
            skip = outside(g, even)
            dec = cycle_decomposition(g, skip)
            assert skip == outside(g, even)  # the walk marks a copy
            ref = cycle_decomposition(sub_even, outside(sub_even, range(sub_even.m)))
            assert dec.cycles == ref.cycles
            assert dec.cycle_edges == tuple(tuple(even[e] for e in es) for es in ref.cycle_edges)


class TestCycleDecomposition:
    def test_c4_single_cycle(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        dec = check_cycle_decomposition(g)
        assert len(dec.cycles) == 1 and len(dec.cycles[0]) == 4

    def test_triangle(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        dec = check_cycle_decomposition(g)
        assert len(dec.cycles) == 1

    def test_bowtie_two_triangles(self):
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        dec = check_cycle_decomposition(g)
        assert sorted(len(c) for c in dec.cycles) == [3, 3]

    def test_odd_degree_rejected(self):
        path = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            cycle_decomposition(path, outside(path, range(2)))
        # K4 is odd, but only the chosen edges count: triangle 012 plus (0, 3)
        k4 = Graph(4, list(itertools.combinations(range(4), 2)))
        with pytest.raises(GraphError, match="odd degree at 0"):
            cycle_decomposition(k4, outside(k4, [0, 1, 2, 3]))

    def test_odd_degree_names_the_smallest_odd_vertex(self):
        # the walk meets an odd degree only when it is stranded away from its
        # start, after it has cut out some cycles; the error must still name
        # the smallest odd vertex of the whole subgraph
        rng = random.Random(7)
        raised = 0
        for _ in range(150):
            for g, ids in random_edge_subsets(rng):
                deg = [0] * g.n
                for e in ids:
                    deg[g.lo[e]] += 1
                    deg[g.hi[e]] += 1
                odd = [v for v, d in enumerate(deg) if d % 2]
                if odd:
                    raised += 1
                    with pytest.raises(GraphError, match=f"^cycle decomposition needs an even graph; "
                                                         f"odd degree at {odd[0]}$"):
                        cycle_decomposition(g, outside(g, ids))
        assert raised > 100

    def test_k5_decomposes(self):
        g = Graph(5, list(itertools.combinations(range(5), 2)))
        check_cycle_decomposition(g)

    def test_exhaustive_even_graphs(self):
        for n in range(3, 7):
            pairs = list(itertools.combinations(range(n), 2))
            for r in range(len(pairs) + 1):
                for chosen in itertools.combinations(pairs, r):
                    g = Graph(n, chosen)
                    if all(d % 2 == 0 for d in g.degrees()):
                        check_cycle_decomposition(g)

    def test_random_even_graphs_digest(self):
        # pins the walk's exact cycles beyond what the n <= 8 corpora reach
        rng = random.Random(43)
        folded = hashlib.sha256()
        for _ in range(300):
            g = random_even_graph(rng)
            dec = check_cycle_decomposition(g)
            folded.update(repr(dec.cycles).encode())
        assert folded.hexdigest() == CYCLES_DIGEST
