import hashlib
import itertools
import random

import pytest

from antimagic.corpus import connected_graphs_upto_iso
from antimagic import oracle
from antimagic.generators import cycle_graph, random_min_degree_graph
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

    @pytest.mark.parametrize("g", [
        cycle_graph(1000),
        torus(25, 30),
        random_regular(1000, 3, 1),
        random_regular(1000, 4, 2),
    ], ids=["C1000", "torus-25x30", "3-regular-n1000", "4-regular-n1000"])
    def test_found_on_large_sparse_graphs(self, g):
        res = heuristic_search(g, seed=3)
        assert res.status == FOUND
        assert verify_antimagic(g, res.labeling).ok

    def test_same_seed_same_labeling(self):
        g = torus(6, 7)
        a = heuristic_search(g, seed=5)
        b = heuristic_search(g, seed=5)
        assert a.status == FOUND
        assert a.labeling == b.labeling and a.iterations == b.iterations

    # sha256 over seeds 0-2 of each run's status, labels and proposal count.
    # The proposals draw from tuple(state.colliding), whose order follows the
    # exact add/discard sequence, so these pin the generator calls and the
    # collision bookkeeping together.
    @pytest.mark.parametrize("g, digest", [
        (cycle_graph(20), "eec3b16a4cf1f4c220b494d7f705f13a045e74118d91911a2b0b956b3d4731fb"),
        (cycle_graph(77), "0e5d1f00c43a77938ffad510b89cc607f5e98846a10794876f8ccb98d2f6145d"),
        (cycle_graph(120), "c0343dcea6ac458ba0d68f74e15617cc047773a90d19b416377a01cc131cb4d5"),
        (random_regular(40, 3, 0), "0db6d8f917dd6f1ffb436e258f802996327806b6f49b69f183386fb4943debdc"),
        (random_regular(120, 3, 1), "b462f6166a54562eedf13682754e8d0c3c5ea4f73e7b3002d305e76f2380b0b2"),
        (random_regular(30, 4, 2), "1ea9177623680150139f6bf46636fc7322499943899fbab201112bd91303f759"),
        (random_regular(100, 4, 3), "a43563a4427dde96d8128a6a6cf12a9d3b9ee6c32efc4d4f27748086ab84e3f8"),
        (torus(5, 8), "68c50de2c63fc7879ff3a7e38d228a4dae88c5d757d0495b2ed0843e4de58ec1"),
        (torus(10, 12), "7827e9c0724f4b32b893ab0f2ac4214fd6d8cfd6b5283e085a0b661a3d81ec55"),
        (random_tree(60, 4), "d06779bb1bb50040c16f2c3b90d8936db9a2a872e05e0fbee45d76bad746257a"),
        (random_tree(120, 5), "6698c84a659eb41a0a6f0ec87ea98792f6cf5abf882b431afcfb198e9bb51b65"),
        (random_min_degree_graph(50, 3, 6), "d79f66a3a5667c9d3a916b2cf43f854697c33c41c5d4587fc1ccf218e1bb5206"),
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
