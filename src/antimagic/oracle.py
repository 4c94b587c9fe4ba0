"""Ground-truth certificate search on small graphs.

The exhaustive search decides antimagicness outright; it shares one
backtracking kernel with the labeling count.  The heuristic search scales
further with a collision-local move: from one shuffled labeling it swaps
the label of an edge at a colliding vertex with the label of any other
edge, and keeps the swap when the number of colliding vertex pairs does not
rise, until no collision is left or a fixed budget of proposals per edge
is spent.  It proves a graph has no antimagic labeling only for the two
obstructions it checks first, a K2 component and two isolated vertices.
Both only ever return labelings that pass the verifier.

The heuristic search draws through ``graph._shuffle`` and ``graph._below``,
which reproduce ``Random.shuffle``, ``Random.choice`` and
``Random.randrange`` call for call, so a seed gives the same search as one
written with those methods.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import index
from typing import Optional

from .graph import (CollisionState, Graph, Labeling, _below, _shuffle, _trusted_labeling, check_knobs,
                    verify_antimagic)

FOUND = "found"
PROVEN_NONE = "proven_none"
BUDGET_EXCEEDED = "budget_exceeded"
NOT_FOUND = "not_found"

# The heuristic search's budget, in proposals per edge.  On the benchmark
# workloads, on every connected graph with 3 to 7 vertices and on cycles and
# 3-regular graphs up to n = 4,000, no search that found a certificate took
# more than 6.4 proposals per edge, so the budget bounds only the searches
# that find none.
PROPOSALS_PER_EDGE = 15_000


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
    lo, hi = g.lo, g.hi
    return sorted(range(g.m),
                  key=lambda e: (min(degs[lo[e]], degs[hi[e]]),
                                 max(degs[lo[e]], degs[hi[e]]),
                                 e))


def _backtrack(g: Graph, max_nodes: int, first_only: bool) -> tuple[int, list[int], int]:
    """Backtracking over label assignments with partial-sum pruning.

    Tries the largest unused labels first along a fixed edge order, and
    prunes as soon as two saturated vertices collide.  Returns the number
    of antimagic labelings reached (at most 1 with ``first_only``), the
    labels of the one it stopped at, and the nodes visited.

    The search is a loop over positions, not a recursion, so its depth is
    not bounded by the interpreter's stack: ``labels[order[pos]]`` is the
    label last placed at ``pos`` (0 before the first), and ``added[pos]``
    the sums that placement saturated.  A placement that collides stays
    until the next pass over ``pos`` takes it back and tries the next label.
    """
    m = g.m
    degs = g.degrees()
    if degs.count(0) >= 2:
        # both sums stay 0, and the pruning only compares saturated vertices
        return 0, [], 0
    lo, hi = g.lo, g.hi
    order = _edge_order(g)
    labels = [0] * m
    sums = [0] * g.n
    remaining = list(degs)
    used = [False] * (m + 1)
    saturated: set[int] = set()
    added: list[list[int]] = [[] for _ in range(m)]
    nodes = leaves = 0
    pos = 0
    while pos >= 0:
        if pos == m:
            leaves += 1
            if first_only:
                break
            pos -= 1
            continue
        e = order[pos]
        u, v = lo[e], hi[e]
        lab = labels[e]
        if lab:
            for s in added[pos]:
                saturated.discard(s)
            used[lab] = False
            sums[u] -= lab
            sums[v] -= lab
            remaining[u] += 1
            remaining[v] += 1
        lab = (lab or m + 1) - 1
        while used[lab]:
            lab -= 1
        labels[e] = lab
        if not lab:
            pos -= 1
            continue
        nodes += 1
        if nodes > max_nodes:
            raise SearchBudgetExceeded(nodes)
        used[lab] = True
        sums[u] += lab
        sums[v] += lab
        remaining[u] -= 1
        remaining[v] -= 1
        added[pos] = new = []
        for x in (u, v):
            if remaining[x] == 0:
                if sums[x] in saturated:
                    break
                saturated.add(sums[x])
                new.append(sums[x])
        else:
            pos += 1
    return leaves, labels, nodes


def exhaustive_search(g: Graph, max_nodes: int = 2_000_000) -> SearchResult:
    """First antimagic labeling in backtracking order, or a proof of none.

    ``proven_none`` is only reported when the whole space was exhausted
    within ``max_nodes`` search nodes.
    """
    check_knobs(max_nodes=max_nodes)
    try:
        leaves, labels, nodes = _backtrack(g, max_nodes, first_only=True)
    except SearchBudgetExceeded as exc:
        return SearchResult(BUDGET_EXCEEDED, None, nodes=exc.nodes)
    if not leaves:
        return SearchResult(PROVEN_NONE, None, nodes=nodes)
    lab = _trusted_labeling(labels)
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("backtracking produced a labeling the verifier rejects")
    return SearchResult(FOUND, lab, nodes=nodes)


def count_antimagic_labelings(g: Graph, max_nodes: int = 50_000_000) -> int:
    """Number of antimagic labelings of ``g`` by full enumeration.

    Raises :class:`SearchBudgetExceeded` past ``max_nodes`` search nodes.
    """
    check_knobs(max_nodes=max_nodes)
    return _backtrack(g, max_nodes, first_only=False)[0]


def heuristic_search(g: Graph, seed: int = 0) -> SearchResult:
    """Collision-local search over label swaps, in one run.

    The run starts from a labeling drawn with ``seed``, any integer.  Each
    proposal swaps the labels of a random edge at a random colliding vertex
    and of a random other edge, and is kept unless the number of colliding
    vertex pairs rises.  The run ends at zero collisions, or after
    ``PROPOSALS_PER_EDGE * m`` proposals with ``not_found``; ``iterations``
    counts the proposals made.  A K2 component or two isolated vertices
    make a collision no swap removes, so such graphs are ``proven_none`` at
    once, as :func:`exhaustive_search` reports them too.  A hit is verified
    before being returned, and one the verifier rejects raises
    ``AssertionError``.

    The draws are ``rng.shuffle`` for the start, then per proposal
    ``rng.choice`` of a colliding vertex (in ``tuple(colliding)`` order),
    ``rng.choice`` of its incident edge and ``rng.randrange(m - 1)`` for the
    other edge, all made through ``rng.getrandbits`` by the inline draws of
    :mod:`.graph`.  A rejected swap is undone by swapping back, which keeps
    the order of ``colliding`` that the next draw reads.
    """
    check_knobs(seed=seed)
    degs = g.degrees()
    if degs.count(0) >= 2 or 1 in degs and any(degs[u] == degs[v] == 1 for u, v in zip(g.lo, g.hi)):
        return SearchResult(PROVEN_NONE, None)
    m = g.m
    rng = random.Random(index(seed))
    getrandbits = rng.getrandbits
    incident = g._incident
    labels = list(range(1, m + 1))
    _shuffle(labels, rng)
    state = CollisionState(g, labels)
    colliding = state.colliding
    swap = state.swap
    iterations = 0
    for _ in range(PROPOSALS_PER_EDGE * m):
        if state.collisions == 0:
            break
        iterations += 1
        vertices = tuple(colliding)
        edges_at = incident[vertices[_below(len(vertices), getrandbits)]]
        i = edges_at[_below(len(edges_at), getrandbits)]
        j = _below(m - 1, getrandbits)
        if j >= i:
            j += 1
        if swap(i, j) > 0:
            swap(i, j)
    if state.collisions:
        return SearchResult(NOT_FOUND, None, iterations=iterations)
    lab = _trusted_labeling(state.labels)
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("search reached zero collisions on a labeling "
                             "the verifier rejects")
    return SearchResult(FOUND, lab, iterations=iterations)
