"""Ground-truth certificate search on small graphs.

The exhaustive search decides antimagicness outright (it is the only
component that can prove a graph has no antimagic labeling); it shares one
backtracking kernel with the labeling count.  The heuristic search scales
further with a collision-local move: it swaps the label of an edge at a
colliding vertex with the label of any other edge, and keeps the swap when
the number of colliding vertex pairs does not rise.  Both only ever return
labelings that pass the verifier.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .graph import CollisionState, Graph, GraphError, Labeling, verify_antimagic

FOUND = "found"
PROVEN_NONE = "proven_none"
BUDGET_EXCEEDED = "budget_exceeded"
NOT_FOUND = "not_found"


@dataclass(frozen=True)
class SearchBudget:
    """Limits for both searches; each reads only its own fields.

    ``max_nodes`` caps the exhaustive search tree.  The heuristic search
    makes ``restarts`` runs from labelings drawn with ``seed``, each of at
    most ``max_iters * m`` proposed swaps.
    """

    max_nodes: int = 2_000_000
    max_iters: int = 300
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        if min(self.max_nodes, self.max_iters, self.restarts) < 1:
            raise GraphError("budgets must be positive")


@dataclass(frozen=True)
class SearchResult:
    status: str
    labeling: Optional[Labeling]
    nodes: int = 0
    iterations: int = 0


class SearchBudgetExceeded(RuntimeError):
    """The backtracking tree outgrew its node budget.

    :func:`count_antimagic_labelings` raises it; :func:`exhaustive_search`
    reports ``budget_exceeded`` instead.  ``nodes`` is the count reached.
    """

    def __init__(self, nodes: int):
        super().__init__(f"backtracking search passed {nodes - 1} nodes")
        self.nodes = nodes


def _edge_order(g: Graph) -> list[int]:
    # edges at low-degree vertices first: their endpoints saturate early,
    # which feeds the collision pruning
    degs = g.degrees()
    return sorted(range(g.m),
                  key=lambda e: (min(degs[g.edges[e][0]], degs[g.edges[e][1]]),
                                 max(degs[g.edges[e][0]], degs[g.edges[e][1]]),
                                 e))


def _backtrack(g: Graph, max_nodes: int, first_only: bool) -> tuple[int, list[int], int]:
    """Backtracking over label assignments with partial-sum pruning.

    Tries the largest unused labels first along a fixed edge order, and
    prunes as soon as two saturated vertices collide.  Returns the number
    of antimagic labelings reached (at most 1 with ``first_only``), the
    labels of the one it stopped at, and the nodes visited.
    """
    m = g.m
    degs = g.degrees()
    if degs.count(0) >= 2:
        # both sums stay 0, and the pruning only compares saturated vertices
        return 0, [], 0
    order = _edge_order(g)
    labels = [0] * m
    sums = [0] * g.n
    remaining = list(degs)
    used = [False] * (m + 1)
    saturated: set[int] = set()
    nodes = leaves = 0

    def rec(pos: int) -> bool:
        nonlocal nodes, leaves
        if pos == m:
            leaves += 1
            return first_only
        e = order[pos]
        u, v = g.edges[e]
        for lab in range(m, 0, -1):
            if used[lab]:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise SearchBudgetExceeded(nodes)
            used[lab] = True
            labels[e] = lab
            sums[u] += lab
            sums[v] += lab
            remaining[u] -= 1
            remaining[v] -= 1
            added = []
            ok = True
            for x in (u, v):
                if remaining[x] == 0:
                    if sums[x] in saturated:
                        ok = False
                        break
                    saturated.add(sums[x])
                    added.append(sums[x])
            if ok and rec(pos + 1):
                return True
            for s in added:
                saturated.discard(s)
            used[lab] = False
            labels[e] = 0
            sums[u] -= lab
            sums[v] -= lab
            remaining[u] += 1
            remaining[v] += 1
        return False

    rec(0)
    return leaves, labels, nodes


def exhaustive_search(g: Graph, budget: SearchBudget | None = None) -> SearchResult:
    """First antimagic labeling in backtracking order, or a proof of none.

    ``proven_none`` is only reported when the whole space was exhausted
    within ``budget.max_nodes``.
    """
    budget = budget or SearchBudget()
    try:
        leaves, labels, nodes = _backtrack(g, budget.max_nodes, first_only=True)
    except SearchBudgetExceeded as exc:
        return SearchResult(BUDGET_EXCEEDED, None, nodes=exc.nodes)
    if not leaves:
        return SearchResult(PROVEN_NONE, None, nodes=nodes)
    lab = Labeling(labels)
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("backtracking produced a labeling the verifier rejects")
    return SearchResult(FOUND, lab, nodes=nodes)


def count_antimagic_labelings(g: Graph, max_nodes: int = 50_000_000) -> int:
    """Number of antimagic labelings of ``g`` by full enumeration.

    Raises :class:`SearchBudgetExceeded` past ``max_nodes`` search nodes.
    """
    return _backtrack(g, max_nodes, first_only=False)[0]


def heuristic_search(g: Graph, budget: SearchBudget | None = None) -> SearchResult:
    """Random-restart collision-local search over label swaps.

    Each proposal swaps the labels of a random edge at a random colliding
    vertex and of a random other edge, and is kept unless the number of
    colliding vertex pairs rises.  A run ends at zero collisions or after
    ``max_iters * m`` proposals; ``iterations`` counts proposals over all
    runs.  A K2 component or two isolated vertices make a collision no
    swap removes, so such graphs are ``not_found`` at once.  Any hit is
    re-verified before being returned.
    """
    budget = budget or SearchBudget()
    degs = g.degrees()
    if degs.count(0) >= 2 or any(degs[u] == degs[v] == 1 for u, v in g.edges):
        return SearchResult(NOT_FOUND, None)
    m = g.m
    rng = random.Random(budget.seed)
    iterations = 0
    for _ in range(budget.restarts):
        labels = list(range(1, m + 1))
        rng.shuffle(labels)
        state = CollisionState(g, Labeling(labels))
        for _ in range(budget.max_iters * m):
            if state.collisions == 0:
                break
            iterations += 1
            i = rng.choice(g.incident_edges(rng.choice(tuple(state.colliding))))
            j = rng.randrange(m - 1)
            if j >= i:
                j += 1
            if state.swap(i, j) > 0:
                state.swap(i, j)
        if state.collisions == 0:
            lab = Labeling(state.labels)
            if verify_antimagic(g, lab).ok:
                return SearchResult(FOUND, lab, iterations=iterations)
    return SearchResult(NOT_FOUND, None, iterations=iterations)
