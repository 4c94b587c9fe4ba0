import hashlib
import itertools
import random
from collections import Counter

import pytest

from antimagic import graph, special
from antimagic.corpus import connected_graphs_upto_iso, high_max_degree_corpus
from antimagic.graph import Graph, GraphError, Labeling, verify_antimagic, vertex_sums
from antimagic.oracle import FOUND, SearchBudget, exhaustive_search, heuristic_search
from antimagic.special import complete_partial_labeling, label_max_degree_n_minus_2, label_universal_vertex


def universal_vertex_weight(n, m):
    """Closed-form weight of the degree-(n-1) hub under label_universal_vertex:
    the top n-1 labels, m-n+2..m."""
    return (n - 1) * (m - n + 1) + n * (n - 1) // 2


def weight_multiplicities_ok(sums, cap):
    """No positive weight value shared by more than ``cap`` vertices: the
    invariant complete_partial_labeling keeps."""
    counts = Counter(s for s in sums if s > 0)
    return all(c <= cap for c in counts.values())


def star(k):
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_delta_n2(rng):
    """Random graph with a hub of degree n-2, 9 <= n <= 120, whose edge
    count is drawn so that every scheme of the construction is hit: the
    parity forest (m >= 2n-4), all evens (2n-5), two spare evens (2n-6,
    2n-7) and the capped completion (below 2n-7)."""
    n = rng.randrange(9, 121)
    hub, skip = n - 1, rng.randrange(n - 1)
    m = rng.choice([2 * n - 5, 2 * n - 6, 2 * n - 7,
                    rng.randrange(n - 1, 2 * n - 7), rng.randrange(2 * n - 4, 4 * n)])
    rest = set()
    while len(rest) < m - (n - 2):
        u, v = sorted(rng.sample(range(n - 1), 2))
        rest.add((u, v))
    return Graph(n, sorted(rest) + [(u, hub) for u in range(n - 1) if u != skip])


# sha256 of every certificate on the n-vertex Δ >= n-2 corpus, in corpus
# order, frozen from the construction that labeled G - v_n as a separate
# induced graph: labeling G on its own vertex ids must give the same labels.
CORPUS_DIGESTS = {
    4: "c827955e3289661fb8a152d84fbbc25cf31cfae2bce7b4c6144a81868e6c65f2",
    5: "30d521e291ff12e65b60ba75be75250bac9e2d03cc0076e7fde7bc38c51d7726",
    6: "c39de1c8adf28048635c3a4b1aa09b5b30e0cdf9adbe950f1fb30bdc80347f21",
    7: "9c878f526d1275c17e6d45737a8f61f15344af984904c1cc0842aa472fb2fa5b",
    8: "d3a27b54c823e1901f3c137bb8a9f93c8f6b962331a12a109725703af3deadee",
}

# sha256 of the certificates of the 400 seeded graphs of
# test_random_graphs_certified_by_construction, in draw order
RANDOM_DIGEST = "040663fd861658a0e4a0d7ee61ba47a0cba0ed48dfc507f881e1def3856bd74c"


@pytest.fixture
def no_search(monkeypatch):
    """Make the search fallback of the n-2 construction an error."""
    def fail(g, *args, **kwargs):
        raise AssertionError(f"search fallback on {g!r}")

    monkeypatch.setattr(special, "heuristic_search", fail)


class TestUniversalVertex:
    def test_star_k13(self):
        g = star(3)
        lab = label_universal_vertex(g)
        sums = vertex_sums(g, lab)
        assert sorted(sums) == [1, 2, 3, 6]
        assert sums[0] == 6 == universal_vertex_weight(4, 3)
        assert verify_antimagic(g, lab).ok

    def test_k2_rejected(self):
        with pytest.raises(GraphError):
            label_universal_vertex(Graph(2, [(0, 1)]))

    def test_k4_derived_weights(self):
        g = complete(4)
        lab = label_universal_vertex(g)
        sums = vertex_sums(g, lab)
        assert sorted(sums) == [7, 9, 11, 15]
        assert max(sums) == universal_vertex_weight(4, 6)
        assert verify_antimagic(g, lab).ok

    def test_no_hub_rejected(self):
        with pytest.raises(GraphError):
            label_universal_vertex(cycle(4))

    def test_hub_weight_is_strict_max_and_neighbors_increase(self):
        for g in connected_graphs_upto_iso(5):
            if g.max_degree() != 4:
                continue
            lab = label_universal_vertex(g)
            sums = vertex_sums(g, lab)
            hub = next(v for v in range(5) if g.degree(v) == 4)
            assert sums[hub] == max(sums) == universal_vertex_weight(g.n, g.m)
            assert sums[hub] not in [s for v, s in enumerate(sums) if v != hub]
            w_prime = [sums[v] - lab[g.edge_index(v, hub)] for v in range(5) if v != hub]
            order = sorted(range(4), key=lambda i: (w_prime[i],))
            finals = [sums[v] for v in range(5) if v != hub]
            assert all(finals[order[i]] < finals[order[i + 1]] for i in range(3))


class TestCompletion:
    def test_fully_labeled_returned_unchanged(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assignment = {0: 1, 1: 2}
        out = complete_partial_labeling(g, range(g.m), [1, 2, 3, 4], assignment)
        assert out == assignment and out is not assignment

    def test_single_edge_out_of_contract(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(GraphError):
            complete_partial_labeling(g, range(g.m), [1, 2, 3], {})

    def test_path3_prelabeled_brute_force_oracle(self):
        # pool {1,2,3,4}, edge (0,1) fixed at 4: enumerate candidate labels for
        # the other edge and check the multiplicity bound the long way
        g = Graph(3, [(0, 1), (1, 2)])
        assignment = {0: 4}
        cap = 2  # ceil(3/2)
        feasible = []
        for lab in [1, 2, 3]:
            sums = vertex_sums(g, Labeling([4, lab]))
            if weight_multiplicities_ok(sums, cap):
                feasible.append(lab)
        out = complete_partial_labeling(g, range(g.m), [1, 2, 3, 4], assignment)
        assert out[1] == min(feasible) == 1
        assert assignment == {0: 4}

    def test_pool_size_enforced(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            complete_partial_labeling(g, range(g.m), [1, 2, 3], {})

    def test_rejects_label_outside_pool(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="^assigned labels must be distinct members of the pool$"):
            complete_partial_labeling(g, range(g.m), [1, 2, 3, 4], {0: 5})

    def test_rejects_repeated_assigned_label(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="^assigned labels must be distinct members of the pool$"):
            complete_partial_labeling(g, range(g.m), [1, 2, 3, 4], {0: 1, 1: 1})

    @pytest.mark.parametrize("e", [2, -1])
    def test_rejects_edge_out_of_range(self, e):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="^assigned edge ids must lie among the subgraph's edge ids$"):
            complete_partial_labeling(g, range(g.m), [1, 2, 3, 4], {e: 1})

    def test_rejects_assigned_edge_outside_subgraph(self):
        g = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="^assigned edge ids must lie among the subgraph's edge ids$"):
            complete_partial_labeling(g, [1], [1, 2, 3], {0: 1})

    def test_edge_subset_matches_its_own_graph(self):
        # the G - v_n shape: every edge at one vertex left out of the subgraph
        for g in connected_graphs_upto_iso(6):
            for v in (0, g.n - 1):
                ids = [e for e, ends in enumerate(g.edges) if v not in ends]
                sub = Graph(g.n, [g.edges[e] for e in ids])
                out = complete_partial_labeling(g, ids, range(1, len(ids) + 3), {})
                ref = complete_partial_labeling(sub, range(sub.m), range(1, sub.m + 3), {})
                assert out == {ids[e]: lab for e, lab in ref.items()}

    def test_violating_input_rejected(self):
        # four vertices share positive weight 5 while the cap is ceil(6/2)=3
        g = Graph(6, [(0, 1), (2, 3), (2, 5), (3, 4), (4, 5)])
        assignment = {0: 5, 1: 2, 2: 4, 3: 3, 4: 1}
        assert not weight_multiplicities_ok(vertex_sums(g, Labeling([5, 2, 4, 3, 1])), 3)
        with pytest.raises(GraphError):
            complete_partial_labeling(g, range(g.m), range(1, 8), assignment)

    def test_property_preserved_exhaustively(self):
        # every graph on 4..5 vertices, empty start: completion keeps the bound
        for n in (4, 5):
            for g in connected_graphs_upto_iso(n):
                out = complete_partial_labeling(g, range(g.m), range(1, g.m + 3), {})
                assert sorted(out) == list(range(g.m))
                labels = [out[e] for e in range(g.m)]
                assert len(set(labels)) == g.m and set(labels) <= set(range(1, g.m + 3))
                cap = (g.n + 1) // 2
                assert weight_multiplicities_ok(vertex_sums(g, Labeling(labels)), cap)


class TestMaxDegreeNMinus2:
    def test_c4_lookup(self):
        g = cycle(4)
        lab = label_max_degree_n_minus_2(g)
        assert verify_antimagic(g, lab).ok

    def test_all_tiny_graphs(self):
        # the four max-degree-2 graphs on 4 vertices
        graphs = [
            cycle(4),
            Graph(4, [(0, 1), (1, 2), (2, 3)]),          # P4
            Graph(4, [(0, 1), (1, 2), (0, 2)]),          # triangle + isolated
            Graph(4, [(0, 1), (1, 2)]),                  # P3 + isolated
        ]
        for g in graphs:
            lab = label_max_degree_n_minus_2(g)
            assert verify_antimagic(g, lab).ok

    def test_sparse_paths_with_oracle_cross_check(self):
        # n=5 instances of each sparse edge-count case (m = 2n-5 and 2n-6)
        for edges in ([(4, 0), (4, 1), (4, 2), (0, 3), (1, 3)],
                      [(4, 0), (4, 1), (4, 2), (0, 3)]):
            g = Graph(5, edges)
            assert g.max_degree() == 3
            lab = label_max_degree_n_minus_2(g)
            assert verify_antimagic(g, lab).ok
            assert exhaustive_search(g).status == FOUND

    def test_parity_scheme_trap_falls_back(self):
        # the published sparse scheme is infeasible here (hub sum 9 is forced
        # onto a neighbor total); the labeler must still certify the graph
        g = Graph(5, [(0, 3), (1, 2), (1, 4), (2, 4), (3, 4)])
        lab = label_max_degree_n_minus_2(g)
        assert verify_antimagic(g, lab).ok

    def test_search_fallback_is_deterministic(self):
        # the trap graph takes the search fallback: same graph, same certificate
        g = Graph(5, [(0, 3), (1, 2), (1, 4), (2, 4), (3, 4)])
        first = label_max_degree_n_minus_2(g)
        assert first == heuristic_search(g).labeling
        assert all(label_max_degree_n_minus_2(g) == first for _ in range(3))

    def test_dense_path_five_vertices(self):
        # n=5, max degree 3, m=7 >= 2n-4: cycle plus two chords
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3)])
        assert g.max_degree() == 3 and g.m == 7
        lab = label_max_degree_n_minus_2(g)
        assert verify_antimagic(g, lab).ok
        assert exhaustive_search(g).status == FOUND

    def test_star_counterexample_to_naive_claim(self):
        # K_{1,4} plus a hub joined to the four leaves: the non-neighbor's
        # weight exceeds the hub's, which the construction must tolerate
        g = Graph(6, [(4, 0), (4, 1), (4, 2), (4, 3),
                      (5, 0), (5, 1), (5, 2), (5, 3)])
        assert g.max_degree() == 4 == g.n - 2
        lab = label_max_degree_n_minus_2(g)
        assert verify_antimagic(g, lab).ok

    def test_isolated_non_neighbor_delegates(self):
        # star on 5 vertices plus an isolated vertex: hub has degree n-2
        g = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4)])
        assert g.max_degree() == 4 == g.n - 2
        lab = label_max_degree_n_minus_2(g)
        sums = vertex_sums(g, lab)
        assert sums[5] == 0
        assert verify_antimagic(g, lab).ok

    def test_wrong_degree_rejected(self):
        with pytest.raises(GraphError):
            label_max_degree_n_minus_2(complete(5))
        with pytest.raises(GraphError):
            label_max_degree_n_minus_2(cycle(6))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_small_corpus_exhaustive(self, n):
        folded = hashlib.sha256()
        for g in high_max_degree_corpus(n):
            if g.max_degree() == n - 1:
                lab = label_universal_vertex(g)
            else:
                lab = label_max_degree_n_minus_2(g)
            assert verify_antimagic(g, lab).ok
            folded.update(repr(lab.labels).encode())
        assert folded.hexdigest() == CORPUS_DIGESTS[n]

    def test_route_builds_no_graph(self, monkeypatch):
        # the route labels G in its own edge ids: neither G - v_n nor what
        # is left of it after the parity forest is built as a Graph
        graphs = [g for g in high_max_degree_corpus(8) if g.max_degree() == 6]
        fill = graph._fill
        calls = []

        def counting_fill(*args):
            calls.append(args[1])
            fill(*args)

        monkeypatch.setattr(graph, "_fill", counting_fill)
        for g in graphs:
            label_max_degree_n_minus_2(g)
        assert calls == []

    def test_block_relabel_certifies_without_search(self, no_search, monkeypatch):
        # m = 2n-8: the sorted spare evens hit the non-neighbor's weight, so
        # the equal-weight block moves onto the odds
        g = Graph(10, [(0, 7), (0, 9), (1, 6), (1, 9), (2, 4), (3, 5), (3, 9), (4, 9),
                       (5, 9), (6, 9), (7, 9), (8, 9)])
        block_relabel = special._block_relabel
        calls = []

        def spy(neighbors, w, spare_evens, odds, w_vn1):
            assign = block_relabel(neighbors, w, spare_evens, odds, w_vn1)
            calls.append((neighbors, w, spare_evens, odds, assign))
            return assign

        monkeypatch.setattr(special, "_block_relabel", spy)
        lab = label_max_degree_n_minus_2(g)
        assert verify_antimagic(g, lab).ok
        [(neighbors, w, spare_evens, odds, assign)] = calls
        order = sorted(neighbors, key=lambda u: (w[u], u))
        assert assign != dict(zip(order, spare_evens + odds))
        assert {u: lab[g.edge_index(u, 9)] for u in neighbors} == assign

    def test_random_graphs_certified_by_construction(self, no_search):
        # seeded stress beyond the corpus: every scheme's one candidate
        # verifies, so the search fallback is never needed; the digest pins
        # every certificate, so the dense scheme's cycle walk is pinned too
        rng = random.Random(2003)
        folded = hashlib.sha256()
        for _ in range(400):
            g = random_delta_n2(rng)
            if g.max_degree() != g.n - 2:
                continue
            lab = label_max_degree_n_minus_2(g)
            assert verify_antimagic(g, lab).ok
            folded.update(repr(lab.labels).encode())
        assert folded.hexdigest() == RANDOM_DIGEST
