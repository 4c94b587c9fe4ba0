"""Ground-truth certificate search on small graphs.

The exhaustive search decides antimagicness outright (it is the only
component that can prove a graph has no antimagic labeling).  The heuristic
search scales further with a collision-local move: it swaps the label of an
edge at a colliding vertex with the label of any other edge, and keeps the
swap when the number of colliding vertex pairs does not rise.  Both only
ever return labelings that pass the verifier.
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
    """Limits: ``max_nodes`` caps the exhaustive search tree; the heuristic
    search makes ``restarts`` runs from seeded random labelings, each of at
    most ``max_iters * m`` proposed swaps."""

    mode: str = "exhaustive"
    max_nodes: int = 2_000_000
    max_iters: int = 300
    restarts: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "heuristic"):
            raise GraphError(f"unknown search mode {self.mode!r}")
        if min(self.max_nodes, self.max_iters, self.restarts) < 1:
            raise GraphError("budgets must be positive")


@dataclass(frozen=True)
class SearchResult:
    status: str
    labeling: Optional[Labeling]
    nodes: int = 0
    iterations: int = 0


class _Budget(Exception):
    pass


def _edge_order(g: Graph) -> list[int]:
    # edges at low-degree vertices first: their endpoints saturate early,
    # which feeds the collision pruning
    degs = g.degrees()
    return sorted(range(g.m),
                  key=lambda e: (min(degs[g.edges[e][0]], degs[g.edges[e][1]]),
                                 max(degs[g.edges[e][0]], degs[g.edges[e][1]]),
                                 e))


def exhaustive_search(g: Graph, budget: SearchBudget | None = None) -> SearchResult:
    """Backtracking over label assignments with partial-sum pruning.

    Tries the largest unused labels first along a fixed edge order, and
    prunes as soon as two saturated vertices collide.  ``proven_none`` is
    only reported when the whole space was exhausted within budget.
    """
    budget = budget or SearchBudget()
    if budget.mode != "exhaustive":
        raise GraphError("exhaustive_search requires an exhaustive-mode budget")
    m = g.m
    if m == 0:
        lab = Labeling([])
        ok = verify_antimagic(g, lab).ok
        return SearchResult(FOUND if ok else PROVEN_NONE, lab if ok else None, nodes=1)
    if g.degrees().count(0) >= 2:
        # both sums stay 0, and the pruning only compares saturated vertices
        return SearchResult(PROVEN_NONE, None)
    order = _edge_order(g)
    labels = [0] * m
    sums = [0] * g.n
    remaining = list(g.degrees())
    used = [False] * (m + 1)
    saturated: set[int] = set()
    nodes = 0

    def rec(pos: int) -> bool:
        nonlocal nodes
        if pos == m:
            return True
        e = order[pos]
        u, v = g.edges[e]
        for lab in range(m, 0, -1):
            if used[lab]:
                continue
            nodes += 1
            if nodes > budget.max_nodes:
                raise _Budget
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

    try:
        found = rec(0)
    except _Budget:
        return SearchResult(BUDGET_EXCEEDED, None, nodes=nodes)
    if not found:
        return SearchResult(PROVEN_NONE, None, nodes=nodes)
    lab = Labeling(labels)
    assert verify_antimagic(g, lab).ok
    return SearchResult(FOUND, lab, nodes=nodes)


def count_antimagic_labelings(g: Graph, max_nodes: int = 50_000_000) -> int:
    """Number of antimagic labelings of ``g`` by full enumeration."""
    m = g.m
    if m == 0:
        return 1 if g.n <= 1 else 0
    if g.degrees().count(0) >= 2:
        return 0
    order = _edge_order(g)
    sums = [0] * g.n
    remaining = list(g.degrees())
    used = [False] * (m + 1)
    saturated: set[int] = set()
    nodes = 0

    def rec(pos: int) -> int:
        nonlocal nodes
        if pos == m:
            return 1
        total = 0
        e = order[pos]
        u, v = g.edges[e]
        for lab in range(m, 0, -1):
            if used[lab]:
                continue
            nodes += 1
            if nodes > max_nodes:
                raise _Budget
            used[lab] = True
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
            if ok:
                total += rec(pos + 1)
            for s in added:
                saturated.discard(s)
            used[lab] = False
            sums[u] -= lab
            sums[v] -= lab
            remaining[u] += 1
            remaining[v] += 1
        return total

    return rec(0)


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
    budget = budget or SearchBudget(mode="heuristic")
    if budget.mode != "heuristic":
        raise GraphError("heuristic_search requires a heuristic-mode budget")
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
