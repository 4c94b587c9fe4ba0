import itertools
import random

import pytest

from antimagic.corpus import connected_graphs_upto_iso
from antimagic import oracle
from antimagic.graph import Graph, GraphError, Labeling, VerifyReport, verify_antimagic
from antimagic.oracle import (
    BUDGET_EXCEEDED,
    FOUND,
    NOT_FOUND,
    PROVEN_NONE,
    SearchBudget,
    SearchBudgetExceeded,
    count_antimagic_labelings,
    exhaustive_search,
    heuristic_search,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


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
        g = cycle(4)
        assert exhaustive_search(g).status == FOUND
        # independent oracle: enumerate all 4! labelings directly
        brute = sum(
            1 for perm in itertools.permutations(range(1, 5))
            if verify_antimagic(g, Labeling(perm)).ok
        )
        assert brute == 8
        assert count_antimagic_labelings(g) == 8

    def test_budget_exceeded_is_explicit(self):
        g = Graph(6, list(itertools.combinations(range(6), 2)))
        res = exhaustive_search(g, SearchBudget(max_nodes=5))
        assert res.status == BUDGET_EXCEEDED

    def test_count_budget_raises_public_error(self):
        g = Graph(6, list(itertools.combinations(range(6), 2)))
        with pytest.raises(SearchBudgetExceeded) as info:
            count_antimagic_labelings(g, max_nodes=5)
        assert info.value.nodes == 6

    def test_deterministic(self):
        g = cycle(5)
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


class TestHeuristic:
    def test_k2_not_found(self):
        res = heuristic_search(Graph(2, [(0, 1)]), SearchBudget(restarts=3))
        assert res.status == NOT_FOUND

    def test_petersen(self):
        g = petersen()
        res = heuristic_search(g, SearchBudget(seed=1))
        assert res.status == FOUND
        assert verify_antimagic(g, res.labeling).ok

    @pytest.mark.parametrize("g", [
        Graph(3, [(0, 1)]),
        Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]),
        Graph(5, [(0, 1), (1, 2)]),
    ], ids=["edge-and-isolated-vertex", "k2-component", "two-isolated-vertices"])
    def test_hopeless_graphs_not_found_at_once(self, g):
        res = heuristic_search(g)
        assert res.status == NOT_FOUND and res.iterations == 0

    @pytest.mark.parametrize("g", [
        cycle(1000),
        torus(25, 30),
        random_regular(1000, 3, 1),
        random_regular(1000, 4, 2),
    ], ids=["C1000", "torus-25x30", "3-regular-n1000", "4-regular-n1000"])
    def test_found_on_large_sparse_graphs(self, g):
        res = heuristic_search(g, SearchBudget(seed=3))
        assert res.status == FOUND
        assert verify_antimagic(g, res.labeling).ok

    def test_same_seed_same_labeling(self):
        g = torus(6, 7)
        a = heuristic_search(g, SearchBudget(seed=5))
        b = heuristic_search(g, SearchBudget(seed=5))
        assert a.status == FOUND
        assert a.labeling == b.labeling and a.iterations == b.iterations

    def test_budget_runs_out_on_non_antimagic_graph(self):
        # two disjoint paths on 3 vertices: the leaves carry the labels 1..4,
        # and each middle sum equals a leaf or the other middle
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        res = heuristic_search(g, SearchBudget(max_iters=3, restarts=2))
        # two runs of max_iters * m = 12 proposals each
        assert (res.status, res.labeling, res.iterations) == (NOT_FOUND, None, 24)
        assert exhaustive_search(g).status == PROVEN_NONE

    def test_rejected_labeling_raises(self, monkeypatch):
        # zero collisions and still rejected is a fault, not a reason to
        # try the next run
        rejected = VerifyReport(ok=False, bijection_ok=False, first_collision=None)
        monkeypatch.setattr(oracle, "verify_antimagic", lambda g, lab: rejected)
        with pytest.raises(AssertionError):
            heuristic_search(cycle(10))

    def test_agrees_with_exhaustive_on_small_corpus(self):
        for g in connected_graphs_upto_iso(4):
            ex = exhaustive_search(g)
            h = heuristic_search(g, SearchBudget(seed=7))
            if ex.status == FOUND:
                assert h.status == FOUND
            else:
                assert ex.status == PROVEN_NONE and h.status == NOT_FOUND


@pytest.mark.parametrize("field", ["max_nodes", "max_iters", "restarts"])
def test_budget_values_below_one_rejected(field):
    with pytest.raises(GraphError, match="^budgets must be positive$"):
        SearchBudget(**{field: 0})


def test_conjecture_holds_up_to_5_vertices():
    for n in range(2, 6):
        for g in connected_graphs_upto_iso(n):
            res = exhaustive_search(g)
            if g.n == 2:
                assert res.status == PROVEN_NONE
            else:
                assert res.status == FOUND
