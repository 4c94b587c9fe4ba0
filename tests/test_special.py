import hashlib
import itertools
import random
from collections import Counter

import pytest

from antimagic import graph
from antimagic.lab.corpus import connected_graphs_upto_iso, high_max_degree_corpus
from antimagic.dispatch import dispatch_label
from antimagic.lab.generators import complete_graph, cycle_graph, star_graph
from antimagic.graph import Graph, GraphError, Labeling, verify_antimagic, vertex_sums
from antimagic.io import parse_graph6
from antimagic.oracle import FOUND, exhaustive_search, heuristic_search
from antimagic import special
from antimagic.special import (_reserved_assignment, _sorted_default, complete_partial_labeling,
                               label_max_degree_n_minus_2, label_universal_vertex)


def universal_vertex_weight(n, m):
    """Closed-form weight of the degree-(n-1) hub under label_universal_vertex:
    the top n-1 labels, m-n+2..m."""
    return (n - 1) * (m - n + 1) + n * (n - 1) // 2


def weight_multiplicities_ok(sums, cap):
    """No positive weight value shared by more than ``cap`` vertices: the
    invariant complete_partial_labeling keeps."""
    counts = Counter(s for s in sums if s > 0)
    return all(c <= cap for c in counts.values())


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


def _distinct_totals(w, assign, fixed_sums) -> bool:
    sums = [w[u] + lab for u, lab in assign.items()] + list(fixed_sums)
    return len(set(sums)) == len(sums)


def reference_reserved_assignment(neighbors, w, odd_vertices, reserved, fixed_sums):
    """The reserved-label assignments of the n-2 schemes as they were written
    before they were made faster: a dict per candidate, each checked in full
    by _distinct_totals.  With two odd-weight neighbors it yields every
    valid assignment in itertools.permutations order of the label pairs,
    which special._reserved_assignment must match in full; with none it
    yields the sorted default where its totals come out distinct, so
    special._sorted_default must equal it where it yields one and make a
    total collide where it yields none."""
    if len(set(fixed_sums)) < len(fixed_sums):
        return
    order = sorted(neighbors, key=lambda u: (w[u], u))
    labels = sorted(reserved)
    if not odd_vertices:
        base = dict(zip(order, labels))
        if _distinct_totals(w, base, fixed_sums):
            yield base
        return
    vj, vk = sorted(odd_vertices, key=lambda u: (w[u], u))
    rest = [u for u in order if u not in (vj, vk)]
    for alpha, beta in itertools.permutations(labels, 2):
        if w[vj] + alpha == w[vk] + beta:
            continue
        cand = dict(zip(rest, sorted(set(labels) - {alpha, beta})))
        cand[vj] = alpha
        cand[vk] = beta
        if _distinct_totals(w, cand, fixed_sums):
            yield cand


def seeded_delta_n2(rng, n, m):
    """Random graph on n vertices with m edges whose last vertex is a hub of
    degree n-2; the hub's non-neighbor gets an edge first, so it is never
    isolated and the graph takes the scheme its edge count picks."""
    hub, skip = n - 1, rng.randrange(n - 1)
    u = (skip + 1 + rng.randrange(n - 2)) % (n - 1)
    rest = {(min(skip, u), max(skip, u))}
    while len(rest) < m - (n - 2):
        a, b = sorted(rng.sample(range(n - 1), 2))
        rest.add((a, b))
    return Graph(n, sorted(rest) + [(v, hub) for v in range(n - 1) if v != skip])


def corpus_inputs():
    """The graphs of the n-vertex Δ >= n-2 corpus, n = 4..8, with maximum
    degree n-2."""
    for n in range(4, 9):
        for g in high_max_degree_corpus(n):
            if g.max_degree() == n - 2:
                yield g


def random_inputs():
    """The seeded graphs behind RANDOM_DIGEST: 400 draws of random_delta_n2,
    less those whose hub ends up with a degree other than n-2."""
    rng = random.Random(2003)
    for _ in range(400):
        g = random_delta_n2(rng)
        if g.max_degree() == g.n - 2:
            yield g


def large_inputs():
    """The eight seeded graphs behind LARGE_DIGEST: at n = 300 and 1000, one
    per scheme (m = 3n-4, 2n-5, 2n-6 or 2n-7, 3n/2), in that order."""
    rng = random.Random(300)
    for n in (300, 1000):
        for m in (3 * n - 4, 2 * n - 5, 2 * n - 6 if n == 300 else 2 * n - 7, 3 * n // 2):
            g = seeded_delta_n2(rng, n, m)
            assert g.max_degree() == n - 2 and g.m == m
            yield g


# sha256 of every certificate on the n-vertex Δ >= n-2 corpus, in corpus
# order, frozen from the construction that labeled G - v_n as a separate
# induced graph: labeling G on its own vertex ids must give the same labels.
# Where the verifier accepts no candidate of the n-2 scheme, the certificate
# is the search's, as dispatch_label gives it.
CORPUS_DIGESTS = {
    4: "c827955e3289661fb8a152d84fbbc25cf31cfae2bce7b4c6144a81868e6c65f2",
    5: "fb36c0c58095b43eaf04a941baac9ef1e0f774ec9ff5d7af88fe87878e7dc58f",
    6: "2334c59ef6d77bf5024f227b2b1d8ecabc3a71b0f2a8b304906bbd9668ff4cfb",
    7: "268b4b1c1875ae61d05fe5b12cc56ce9c0dfac18af59fa03c4082046fe44dd20",
    8: "03de2b2052c81c0e2d793392c209b6f63a71c49b1b7616eb1016c9f5b1e46ce2",
}

# sha256 of the certificates of the 400 seeded graphs of
# test_random_graphs_certified_by_construction, in draw order
RANDOM_DIGEST = "040663fd861658a0e4a0d7ee61ba47a0cba0ed48dfc507f881e1def3856bd74c"

# sha256 of the certificates of the eight seeded graphs of
# test_large_graphs_certified_by_construction: at n = 300 and 1000, one per
# scheme (m = 3n-4, 2n-5, 2n-6 or 2n-7, 3n/2), in that order
LARGE_DIGEST = "8bac5bd05e791e64de037f84de885fcc41aaea218a039b5e1043c7183aed8fc4"

# (verifier calls, sha256 of their labels in call order) of
# test_candidate_stream_frozen, per input generator: every candidate that
# special builds and asks the verifier about, not only the accepted ones
CANDIDATE_STREAMS = {
    "corpus_inputs": (7268, "dcc7122b202d62e2e2246bc4146dfd5c963fcccd2abb1c0215f930cf04598ae3"),
    "random_inputs": (400, "740582f8ecb30a663d6879791a14014e0638133af5307708c26a6ed9e3c38566"),
    "large_inputs": (8, "8bac5bd05e791e64de037f84de885fcc41aaea218a039b5e1043c7183aed8fc4"),
}

# Graphs of the n-vertex Δ >= n-2 corpus with maximum degree n-2 on which the
# verifier accepts no candidate of the n-2 scheme, so dispatch hands them to
# the search.  Mending a scheme shows up as an edit here and in TURNED_DOWN.
NO_CANDIDATE = {4: 0, 5: 10, 6: 4, 7: 23, 8: 1}

# The candidates of the n-2 schemes that the verifier turns down on the same
# graphs, as (on graphs counted in NO_CANDIDATE, on graphs that a later
# candidate labels).  The first are sorted defaults with a total on the
# hub's sum; the second are first orders of the even pair that
# _lemma44_two_spare_evens passes over.  The other 5 graphs of NO_CANDIDATE
# (4 at n = 6, 1 at n = 8) reach no verifier: their fixed sums collide, so
# the two-odd scan of _reserved_assignment yields nothing.
TURNED_DOWN = {4: (0, 0), 5: (10, 0), 6: (0, 4), 7: (23, 8), 8: (0, 9)}

# n = 5, maximum degree 3, m = 2n-5: the published sparse scheme is
# infeasible here (the hub sum 9 is forced onto a neighbor total)
TRAP = Graph(5, [(0, 3), (1, 2), (1, 4), (2, 4), (3, 4)])


# Graphs with m <= 2n-8 whose sorted spare evens hit the non-neighbor's
# weight, each with the map from the hub's (last vertex's) neighbors to
# their hub-edge labels after the equal-weight block has moved
BLOCK_SHIFTS = [
    (Graph(10, [(0, 7), (0, 9), (1, 6), (1, 9), (2, 4), (3, 5), (3, 9), (4, 9),
                (5, 9), (6, 9), (7, 9), (8, 9)]),
     {0: 1, 1: 10, 3: 7, 4: 11, 5: 9, 6: 5, 7: 3, 8: 8}),
    (Graph(13, [(0, 3), (0, 12), (1, 9), (1, 12), (2, 8), (2, 12), (3, 12), (4, 11),
                (4, 12), (5, 6), (5, 12), (6, 12), (7, 12), (8, 11), (8, 12), (10, 11),
                (10, 12), (11, 12)]),
     {0: 1, 1: 15, 2: 16, 3: 3, 4: 5, 5: 7, 6: 9, 7: 14, 8: 13, 10: 11, 11: 17}),
    (Graph(15, [(0, 2), (0, 14), (1, 9), (1, 14), (2, 13), (2, 14), (3, 11), (3, 14),
                (4, 7), (4, 14), (5, 14), (6, 7), (6, 8), (6, 14), (7, 14), (8, 14),
                (9, 14), (10, 12), (11, 14), (12, 14), (13, 14)]),
     {0: 1, 1: 18, 2: 7, 3: 9, 4: 13, 5: 16, 6: 21, 7: 19, 8: 15, 9: 3, 11: 11,
      12: 17, 13: 5}),
]


# Graphs on which a Δ = n-2 scheme passes over its first choice, each with
# the map from the hub's neighbors to their hub-edge labels: either the
# two-odd scan of _reserved_assignment takes a label pair later than the two
# smallest reserved labels, or the verifier turns down the first order of
# the even pair of _lemma44_two_spare_evens and accepts the second
LATER_CHOICES = [
    ("D{[", "later pair", {1: 7, 2: 3, 3: 5}),
    ("Ey`w", "later pair", {0: 7, 2: 3, 3: 5, 5: 9}),
    ("F}_Dw", "later pair", {1: 3, 2: 7, 3: 11, 4: 5, 6: 9}),
    ("EoAw", "second order", {0: 5, 2: 3, 3: 6, 4: 1}),
    ("Eya?", "second order", {1: 5, 2: 6, 4: 1, 5: 3}),
    ("Fo?Ew", "second order", {0: 7, 1: 6, 3: 1, 4: 3, 5: 5}),
]


@pytest.fixture
def verdicts(monkeypatch):
    """The verdict of every verifier call that special makes, in call
    order."""
    calls = []

    def recording(*args):
        report = verify_antimagic(*args)
        calls.append(report.ok)
        return report

    monkeypatch.setattr(special, "verify_antimagic", recording)
    return calls


class TestUniversalVertex:
    def test_star_k13(self):
        g = star_graph(3)
        lab = label_universal_vertex(g)
        sums = vertex_sums(g, lab)
        assert sorted(sums) == [1, 2, 3, 6]
        assert sums[0] == 6 == universal_vertex_weight(4, 3)
        assert verify_antimagic(g, lab).ok

    def test_k2_rejected(self):
        with pytest.raises(GraphError):
            label_universal_vertex(Graph(2, [(0, 1)]))

    def test_k4_derived_weights(self):
        g = complete_graph(4)
        lab = label_universal_vertex(g)
        sums = vertex_sums(g, lab)
        assert sorted(sums) == [7, 9, 11, 15]
        assert max(sums) == universal_vertex_weight(4, 6)
        assert verify_antimagic(g, lab).ok

    def test_no_hub_rejected(self):
        with pytest.raises(GraphError):
            label_universal_vertex(cycle_graph(4))

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
                edges = g.edges
                ids = [e for e, ends in enumerate(edges) if v not in ends]
                sub = Graph(g.n, [edges[e] for e in ids])
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


class TestReservedAssignment:
    def test_matches_reference_on_seeded_inputs(self):
        # as the schemes call it: ascending neighbors, odd reserved labels,
        # and either no odd-weight neighbor or exactly two; small weights
        # and fixed sums make every kind of outcome common
        rng = random.Random(14)
        kinds = Counter()
        later = Counter()  # two-odd inputs by whether the scan yields a second assignment
        for _ in range(4000):
            k = rng.randrange(2, 8)
            neighbors = sorted(rng.sample(range(k + 2), k))
            w = [2 * rng.randrange(6) for _ in range(k + 2)]
            odd = rng.sample(neighbors, 2) if rng.randrange(2) else []
            for u in odd:
                w[u] += 1
            reserved = sorted(rng.sample(range(1, 4 * k, 2), k))
            fixed = [rng.randrange(4 * k) for _ in range(rng.choice((2, 3)))]
            refs = list(reference_reserved_assignment(neighbors, w, odd, reserved, fixed))
            if odd:
                assert list(_reserved_assignment(neighbors, w, odd, reserved, fixed)) == refs
            else:
                got = _sorted_default(neighbors, w, reserved)
                if refs:
                    assert [got] == refs
                else:
                    # the candidate the verifier turns down
                    sums = [w[u] + lab for u, lab in got.items()] + fixed
                    assert len(set(sums)) < len(sums)
            collide = len(set(fixed)) < len(fixed)
            kinds[len(odd), len(fixed), collide, not refs] += 1
            later[len(refs) > 1] += bool(odd)
        for odd in (0, 2):
            for nfixed in (2, 3):
                assert kinds[odd, nfixed, True, True] > 0      # fixed sums collide
                assert kinds[odd, nfixed, False, True] > 0     # the default or the scan fails
                assert kinds[odd, nfixed, False, False] > 0    # an assignment is found
        assert later[True] > 0  # the later yields, which a turned-down candidate reads, are compared too

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_matches_reference_on_corpus_inputs(self, n, monkeypatch):
        # every call the n-2 schemes make on the corpus, of the two-odd scan
        # and of the sorted default; the default's totals strictly
        # increase, so the reference with no fixed sums always gives a dict
        scans, defaults = [], []

        def recording(calls, routine):
            def record(*args):
                calls.append(args)
                return routine(*args)
            return record

        monkeypatch.setattr(special, "_reserved_assignment", recording(scans, _reserved_assignment))
        monkeypatch.setattr(special, "_sorted_default", recording(defaults, _sorted_default))
        for g in high_max_degree_corpus(n):
            if g.max_degree() == n - 2:
                label_max_degree_n_minus_2(g)
        assert scans and defaults
        for args in scans:
            assert list(_reserved_assignment(*args)) == list(reference_reserved_assignment(*args))
        for neighbors, w, labels in defaults:
            assert [_sorted_default(neighbors, w, labels)] == list(
                reference_reserved_assignment(neighbors, w, [], labels, []))


class TestMaxDegreeNMinus2:
    def test_c4_lookup(self):
        g = cycle_graph(4)
        lab = label_max_degree_n_minus_2(g)
        assert verify_antimagic(g, lab).ok

    def test_all_tiny_graphs(self):
        # the four max-degree-2 graphs on 4 vertices
        graphs = [
            cycle_graph(4),
            Graph(4, [(0, 1), (1, 2), (2, 3)]),          # P4
            Graph(4, [(0, 1), (1, 2), (0, 2)]),          # triangle + isolated
            Graph(4, [(0, 1), (1, 2)]),                  # P3 + isolated
        ]
        for g in graphs:
            lab = label_max_degree_n_minus_2(g)
            assert verify_antimagic(g, lab).ok

    def test_sparse_paths_with_oracle_cross_check(self):
        # n=5 instances of each sparse edge-count case (m = 2n-5 and 2n-6);
        # dispatch certifies both, by the scheme or, without a candidate, the search
        for edges in ([(4, 0), (4, 1), (4, 2), (0, 3), (1, 3)],
                      [(4, 0), (4, 1), (4, 2), (0, 3)]):
            g = Graph(5, edges)
            assert g.max_degree() == 3
            rep = dispatch_label(g, method="delta-n2")
            assert verify_antimagic(g, rep.certificate).ok
            assert exhaustive_search(g).status == FOUND

    def test_parity_scheme_trap_falls_back(self, verdicts):
        # the verifier turns down the construction's one candidate for the
        # trap graph; dispatch must still certify it, through the search
        assert label_max_degree_n_minus_2(TRAP) is None
        assert verdicts == [False]
        for method in ("auto", "delta-n2"):
            rep = dispatch_label(TRAP, method=method)
            assert rep.method == "oracle"
            assert rep.note == "the n-2 scheme had no verified candidate"
            assert verify_antimagic(TRAP, rep.certificate).ok

    def test_search_fallback_is_deterministic(self):
        # the trap graph takes the search fallback: same graph, same certificate
        first = dispatch_label(TRAP, method="delta-n2").certificate
        assert first == heuristic_search(TRAP).labeling
        assert all(dispatch_label(TRAP, method="delta-n2").certificate == first for _ in range(3))

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
        with pytest.raises(GraphError, match="^construction requires n >= 4$"):
            label_max_degree_n_minus_2(Graph(3, [(0, 1)]))
        with pytest.raises(GraphError):
            label_max_degree_n_minus_2(complete_graph(5))
        with pytest.raises(GraphError):
            label_max_degree_n_minus_2(cycle_graph(6))

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_small_corpus_exhaustive(self, n, verdicts):
        folded = hashlib.sha256()
        no_candidate = 0
        turned_down = [0, 0]
        for g in high_max_degree_corpus(n):
            verdicts.clear()
            if g.max_degree() == n - 1:
                lab = label_universal_vertex(g)
            else:
                lab = label_max_degree_n_minus_2(g)
                turned_down[lab is not None] += verdicts.count(False)
                if lab is None:
                    no_candidate += 1
                    rep = dispatch_label(g, method="delta-n2")
                    assert rep.method == "oracle"
                    lab = rep.certificate
            assert verify_antimagic(g, lab).ok
            folded.update(repr(lab.labels).encode())
        assert folded.hexdigest() == CORPUS_DIGESTS[n]
        assert no_candidate == NO_CANDIDATE[n]
        assert tuple(turned_down) == TURNED_DOWN[n]

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

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_dense_scheme_calls_each_walk_once(self, n, monkeypatch):
        # bench/tracing.py times the two walks through special's own
        # bindings, so the route must call them there: once each on a
        # dense-scheme graph (m >= 2n-4), and neither on a sparse-scheme
        # graph or one whose non-neighbor is isolated
        calls = Counter()

        def counting(name):
            routine = getattr(special, name)

            def count(*args):
                calls[name] += 1
                return routine(*args)
            return count

        for name in ("parity_forest", "cycle_decomposition"):
            monkeypatch.setattr(special, name, counting(name))
        schemes = Counter()
        for g in high_max_degree_corpus(n):
            degs = g.degrees()
            if max(degs) != n - 2:
                continue
            hub = degs.index(n - 2)
            non_neighbor = next(v for v in range(n) if v != hub and v not in g.neighbors(hub))
            dense = degs[non_neighbor] > 0 and g.m >= 2 * n - 4
            sparse = degs[non_neighbor] > 0 and g.m <= 2 * n - 5
            schemes[dense, sparse] += 1
            calls.clear()
            label_max_degree_n_minus_2(g)
            once = 1 if dense else 0
            assert (calls["parity_forest"], calls["cycle_decomposition"]) == (once, once)
        assert schemes[True, False] and schemes[False, True]

    def test_block_relabel_certifies_without_search(self):
        # m <= 2n-8: the second spare even hits the non-neighbor's weight,
        # so the equal-weight block at that place moves onto the odds and
        # the next neighbors take the even; the hub's neighbor -> label map
        # is pinned for a block of two (n = 10 and 13) and of one (n = 15)
        for g, expected in BLOCK_SHIFTS:
            lab = label_max_degree_n_minus_2(g)
            assert lab is not None
            assert verify_antimagic(g, lab).ok
            assert {u: lab[g.edge_index(u, g.n - 1)] for u in expected} == expected

    @pytest.mark.parametrize("line, branch, expected", LATER_CHOICES, ids=[row[0] for row in LATER_CHOICES])
    def test_later_choices_pinned(self, line, branch, expected, verdicts, monkeypatch):
        scans = []

        def recording(*args):
            scans.append(args)
            return _reserved_assignment(*args)

        monkeypatch.setattr(special, "_reserved_assignment", recording)
        g = parse_graph6(line)
        lab = label_max_degree_n_minus_2(g)
        assert lab is not None
        assert verify_antimagic(g, lab).ok
        hub = g.degrees().index(g.n - 2)
        assert {u: lab[g.edge_index(u, hub)] for u in g.neighbors(hub)} == expected
        if branch == "later pair":
            # the scan's first assignment is accepted, and it is not (r0, r1)
            [(_, w, odd, reserved, _)] = scans
            vj, vk = sorted(odd, key=lambda u: (w[u], u))
            assert (expected[vj], expected[vk]) != (reserved[0], reserved[1])
            assert verdicts == [True]
        else:
            # the first order is turned down, the second accepted
            assert scans == []
            assert verdicts == [False, True]

    def test_random_graphs_certified_by_construction(self):
        # seeded stress beyond the corpus: the verifier accepts a candidate
        # of every graph, so the search is never needed; the digest pins
        # every certificate, so the dense scheme's cycle walk is pinned too
        folded = hashlib.sha256()
        for g in random_inputs():
            lab = label_max_degree_n_minus_2(g)
            assert lab is not None
            assert verify_antimagic(g, lab).ok
            folded.update(repr(lab.labels).encode())
        assert folded.hexdigest() == RANDOM_DIGEST

    def test_large_graphs_certified_by_construction(self):
        # the sizes the large-graphs workload serves, which RANDOM_DIGEST
        # (n <= 120) does not reach: every scheme's candidate verifies, and
        # the digest pins the certificates
        folded = hashlib.sha256()
        for g in large_inputs():
            lab = label_max_degree_n_minus_2(g)
            assert lab is not None
            assert verify_antimagic(g, lab).ok
            folded.update(repr(lab.labels).encode())
        assert folded.hexdigest() == LARGE_DIGEST

    @pytest.mark.parametrize("inputs", [corpus_inputs, random_inputs, large_inputs],
                             ids=["corpus", "random", "large"])
    def test_candidate_stream_frozen(self, inputs, monkeypatch):
        # every candidate the route hands the verifier, accepted or not, in
        # call order: a faster route must build the same candidates and ask
        # about the same ones.  A change that mends a scheme (ROADMAP items
        # 7 and 14) adds or drops candidates, and edits this pin on purpose.
        folded = hashlib.sha256()
        calls = 0

        def recording(g, lab):
            nonlocal calls
            calls += 1
            folded.update(repr(lab.labels).encode())
            return verify_antimagic(g, lab)

        monkeypatch.setattr(special, "verify_antimagic", recording)
        for g in inputs():
            label_max_degree_n_minus_2(g)
        assert (calls, folded.hexdigest()) == CANDIDATE_STREAMS[inputs.__name__]
