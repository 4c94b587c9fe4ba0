import hashlib
import itertools
import random

import pytest

from antimagic.lab.corpus import connected_graphs_upto_iso
from antimagic import oracle
from antimagic.lab.generators import cycle_graph, random_min_degree_graph
from antimagic.graph import Graph, Labeling, VerifyReport, verify_antimagic
from antimagic.oracle import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND,
    PROVEN_NONE,
    SearchBudgetExceeded,
    count_antimagic_labelings,
    exhaustive_search,
    heuristic_search,
)


def torus(a, b):
    return Graph(a * b, [(i * b + j, ((i + 1) % a) * b + j) for i in range(a) for j in range(b)]
                 + [(i * b + j, i * b + (j + 1) % b) for i in range(a) for j in range(b)])


def random_regular(n, r, seed):
    """Random connected r-regular graph, r in {3, 4}, n even: a random
    Hamiltonian cycle plus r - 2 random perfect matchings, redrawn until
    no edge repeats."""
    rng = random.Random(seed)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        edges = {frozenset((order[i - 1], order[i])) for i in range(n)}
        for _ in range(r - 2):
            rng.shuffle(order)
            edges |= {frozenset(order[i:i + 2]) for i in range(0, n, 2)}
        if len(edges) == n * r // 2:
            return Graph(n, [tuple(e) for e in edges])


def relabelled_cycle(n, seed):
    """C_n with its vertex ids permuted by a seeded shuffle."""
    ids = list(range(n))
    random.Random(seed).shuffle(ids)
    return Graph(n, [(ids[i], ids[(i + 1) % n]) for i in range(n)])


def random_tree(n, seed):
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


class TestExhaustive:
    def test_k2_proven_none(self):
        res = exhaustive_search(Graph(2, [(0, 1)]))
        assert res.status == PROVEN_NONE
        assert res.labeling is None

    def test_p3_found(self):
        res = exhaustive_search(Graph(3, [(0, 1), (1, 2)]))
        assert res.status == FOUND
        assert verify_antimagic(Graph(3, [(0, 1), (1, 2)]), res.labeling).ok

    def test_c4_found_and_count_frozen(self):
        g = cycle_graph(4)
        assert exhaustive_search(g).status == FOUND
        # independent oracle: enumerate all 4! labelings directly
        brute = sum(
            1 for perm in itertools.permutations(range(1, 5))
            if verify_antimagic(g, Labeling(perm)).ok
        )
        assert brute == 8
        assert count_antimagic_labelings(g) == 8

    def test_budget_exceeded_is_explicit(self, monkeypatch):
        monkeypatch.setattr(oracle, "EXHAUSTIVE_MAX_NODES", 5)
        g = Graph(6, list(itertools.combinations(range(6), 2)))
        res = exhaustive_search(g)
        assert (res.status, res.nodes) == (BUDGET_EXCEEDED, 6)

    def test_count_budget_raises_public_error(self, monkeypatch):
        monkeypatch.setattr(oracle, "COUNT_MAX_NODES", 5)
        g = Graph(6, list(itertools.combinations(range(6), 2)))
        with pytest.raises(SearchBudgetExceeded) as info:
            count_antimagic_labelings(g)
        assert info.value.nodes == 6

    def test_deterministic(self):
        g = cycle_graph(5)
        a = exhaustive_search(g)
        b = exhaustive_search(g)
        assert a.labeling == b.labeling and a.nodes == b.nodes

    def test_rejected_labeling_raises(self, monkeypatch):
        # the gate is an explicit raise, so it holds under ``python -O`` too
        rejected = VerifyReport(ok=False, bijection_ok=True, first_collision=(0, 1))
        monkeypatch.setattr(oracle, "verify_antimagic", lambda g, lab: rejected)
        with pytest.raises(AssertionError):
            exhaustive_search(Graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_two_isolated_vertices_proven_none(self):
        # both isolated vertices keep sum 0 whatever the labels
        g = Graph(5, [(0, 1), (1, 2)])
        res = exhaustive_search(g)
        assert res.status == PROVEN_NONE and res.nodes == 0
        assert count_antimagic_labelings(g) == 0

    def test_empty_graph(self):
        assert exhaustive_search(Graph(1, [])).status == FOUND
        assert exhaustive_search(Graph(3, [])).status == PROVEN_NONE
        assert count_antimagic_labelings(Graph(1, [])) == 1

    def test_depth_beyond_the_recursion_limit(self):
        # one search level per edge: 1,200 edges exceed the interpreter's
        # default recursion limit of 1,000 frames, and the search still finishes
        g = Graph(1201, [(i, i + 1) for i in range(1200)])
        res = exhaustive_search(g)
        assert (res.status, res.nodes) == (FOUND, 1208)
        assert verify_antimagic(g, res.labeling).ok


class TestHeuristic:
    def test_k2_not_found(self):
        res = heuristic_search(Graph(2, [(0, 1)]))
        assert (res.status, res.labeling) == (PROVEN_NONE, None)

    def test_petersen(self):
        g = petersen()
        res = heuristic_search(g, seed=1)
        assert res.status == FOUND
        assert verify_antimagic(g, res.labeling).ok

    @pytest.mark.parametrize("g", [
        Graph(3, [(0, 1)]),
        Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]),
        Graph(5, [(0, 1), (1, 2)]),
    ], ids=["edge-and-isolated-vertex", "k2-component", "two-isolated-vertices"])
    def test_hopeless_graphs_not_found_at_once(self, g):
        # no swap removes the collision, so the search proves none without a
        # proposal, as the exhaustive search does by walking its tree
        res = heuristic_search(g)
        assert res.status == PROVEN_NONE and res.iterations == 0
        assert exhaustive_search(g).status == PROVEN_NONE

    # C1001, not C1000: the sorted start alone certifies C1000 (see
    # test_natural_cycle_certified_by_the_sorted_start), while the odd
    # cycle's collides, so every case makes proposals.
    @pytest.mark.parametrize("g", [
        cycle_graph(1001),
        torus(25, 30),
        random_regular(1000, 3, 1),
        random_regular(1000, 4, 2),
    ], ids=["C1001", "torus-25x30", "3-regular-n1000", "4-regular-n1000"])
    def test_found_on_large_sparse_graphs(self, g):
        res = heuristic_search(g, seed=3)
        assert res.status == FOUND and res.iterations > 0
        assert verify_antimagic(g, res.labeling).ok

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cycle_certified_in_fewer_proposals_than_edges(self, seed):
        # pins the partner draws' steering: one uniform partner draw per
        # proposal needs about 2m proposals on C1000.  The cycle is
        # relabelled, because in its natural numbering the start alone
        # certifies it (next test)
        g = relabelled_cycle(1000, 1)
        res = heuristic_search(g, seed=seed)
        assert res.status == FOUND
        assert res.iterations < g.m

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_natural_cycle_certified_by_the_sorted_start(self, seed):
        # C1000's edges sort as (0, 1), (0, 999), (1, 2), ..., (998, 999),
        # so the labels 1..m give the sums 3 at 0, 4 at 1, 2k + 3 at
        # 2 <= k <= 998 and 1002 at 999, all distinct: no proposal is made
        res = heuristic_search(cycle_graph(1000), seed=seed)
        assert (res.status, res.iterations) == (FOUND, 0)
        assert res.labeling.labels == tuple(range(1, 1001))

    def test_same_seed_same_labeling(self):
        g = torus(6, 7)
        a = heuristic_search(g, seed=5)
        b = heuristic_search(g, seed=5)
        assert a.status == FOUND
        assert a.labeling == b.labeling and a.iterations == b.iterations

    # sha256 over seeds 0-2 of each run's status, labels and proposal count.
    # The proposals draw from tuple(state.colliding), whose order follows the
    # exact add/discard sequence, and each partner draw is kept or redrawn
    # by the sums it would move, so these pin the generator calls, the
    # partner draws and the collision bookkeeping together.
    @pytest.mark.parametrize("g, digest", [
        (cycle_graph(20), "2b70c4d08879ef35cae76dafae333b09386cc99eefd7c0315e7edbfd4a05e793"),
        (cycle_graph(77), "67f9376094762181fe49646f76a2cd17fbb1af472a30900dfcb4eed5b7e70ea6"),
        (cycle_graph(120), "d8c025975e426fd5e38dfb58826df85867d3d8cd70e03f8a5f90eab52d64f0ef"),
        (random_regular(40, 3, 0), "886388da24338ef10819faa0fdb21fbebdd0199acdfcaf9d340ef46de1d70183"),
        (random_regular(120, 3, 1), "0ddbd44d2f7b8cc089d5ef3638c7d6b0b359823f3ac03c28cac0b8c7fdcb09d1"),
        (random_regular(30, 4, 2), "7f25126fe0261caf86accdffdf91bec9c4672ab0369b50de36c239fc6f04fec5"),
        (random_regular(100, 4, 3), "0fae6d4a5f7370a9d333304b4cbd5ff9d1b49bfcb5f332c3ca5808fe46e39285"),
        (torus(5, 8), "2eb341cffd87bc7bd638d00897a00319beda68e7ca1a303ed06048c2ed485d3e"),
        (torus(10, 12), "5ab1402cab5214e025854e798f4754112c3cbf6b1a0d812199ee1a0438492058"),
        (random_tree(60, 4), "9476c813ce064e6b6722a1af7e3c245e00e498e5afc8b6d767addd80080761bb"),
        (random_tree(120, 5), "2a816b4da9ce917254f916a6f67ab5b0635cdd9299a9d5dc2fd62f75d9d00731"),
        (random_min_degree_graph(50, 3, 6), "48192460976cde33bb8a0635bb55da266cfb7fce0df4a7d72e64b70a6a1fe00c"),
    ], ids=["C20", "C77", "C120", "3-regular-n40", "3-regular-n120",
            "4-regular-n30", "4-regular-n100", "torus-5x8", "torus-10x12", "tree-n60",
            "tree-n120", "min-degree-3-n50"])
    def test_trajectory_frozen(self, g, digest):
        h = hashlib.sha256()
        for seed in range(3):
            res = heuristic_search(g, seed=seed)
            labels = res.labeling.labels if res.labeling else ()
            h.update(f"{res.status} {','.join(map(str, labels))} {res.iterations}\n".encode())
        assert h.hexdigest() == digest

    def test_budget_runs_out_on_non_antimagic_graph(self):
        # two disjoint paths on 3 vertices: the leaves carry the labels 1..4,
        # and each middle sum equals a leaf or the other middle
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        res = heuristic_search(g)
        # the whole budget, PROPOSALS_PER_EDGE * m proposals
        assert (res.status, res.labeling, res.iterations) == (NOT_FOUND, None, 60_000)
        assert exhaustive_search(g).status == PROVEN_NONE

    def test_rejected_labeling_raises(self, monkeypatch):
        # zero collisions and still rejected is a fault, not a miss
        rejected = VerifyReport(ok=False, bijection_ok=False, first_collision=None)
        monkeypatch.setattr(oracle, "verify_antimagic", lambda g, lab: rejected)
        with pytest.raises(AssertionError):
            heuristic_search(cycle_graph(10))

    def test_agrees_with_exhaustive_on_small_corpus(self):
        for g in connected_graphs_upto_iso(4):
            ex = exhaustive_search(g)
            h = heuristic_search(g, seed=7)
            if ex.status == FOUND:
                assert h.status == FOUND
            else:
                assert ex.status == PROVEN_NONE and h.status == NOT_FOUND


# The node budgets are the constants EXHAUSTIVE_MAX_NODES and COUNT_MAX_NODES,
# so a budget passed as a keyword is refused as an unknown argument.
@pytest.mark.parametrize("field", ["max_nodes"])
def test_budget_values_below_one_rejected(field):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'$"):
        exhaustive_search(cycle_graph(5), **{field: 0})


@pytest.mark.parametrize("search, kwargs", [
    (exhaustive_search, {"max_nodes": 2.5}),
    (count_antimagic_labelings, {"max_nodes": 0}),
    (count_antimagic_labelings, {"max_nodes": 2.5}),
], ids=["exhaustive-max_nodes=2.5",
        "count-max_nodes=0", "count-max_nodes=2.5"])
def test_bad_budget_raises_naming_the_knob(search, kwargs):
    with pytest.raises(TypeError, match="unexpected keyword argument 'max_nodes'$"):
        search(cycle_graph(5), **kwargs)


def test_conjecture_holds_up_to_5_vertices():
    for n in range(2, 6):
        for g in connected_graphs_upto_iso(n):
            res = exhaustive_search(g)
            if g.n == 2:
                assert res.status == PROVEN_NONE
            else:
                assert res.status == FOUND
