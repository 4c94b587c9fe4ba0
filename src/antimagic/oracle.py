"""Ground-truth certificate search on small graphs.

The exhaustive search decides antimagicness outright; it shares one
backtracking kernel with the labeling count.  The heuristic search scales
further with a collision-local move: from the sorted labeling, which gives
edge e the label e + 1, it swaps the label of an edge at a colliding vertex
with the label of another edge, and keeps the swap when the number of
colliding vertex pairs does not rise, until no collision is left or a fixed
budget of proposals per edge is spent.  The other edge is drawn up to
``PARTNER_DRAWS`` times, and the first draw whose swap moves every changed
sum onto a value no vertex holds is proposed, in the manner of min-conflicts
repair (Minton et al. 1992).  It proves a graph has no antimagic labeling
only for the two obstructions it checks first, a K2 component and two
isolated vertices.  Both only ever return labelings that pass the verifier.

The heuristic search draws through ``graph._below``, which reproduces
``Random.choice`` and ``Random.randrange`` call for call, so a seed gives
the same search as one written with those methods.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import index
from typing import Optional

from .graph import CollisionState, Graph, Labeling, _below, _trusted_labeling, check_knobs, verify_antimagic

FOUND = "found"
PROVEN_NONE = "proven_none"
BUDGET_EXCEEDED = "budget_exceeded"
NOT_FOUND = "not_found"

# The heuristic search's budget, in proposals per edge.  On the benchmark
# workloads, on every connected graph with 3 to 7 vertices (seeds 0-19) and
# on cycles, relabelled or not, and 3-regular graphs up to n = 4,000, no
# search that found a certificate took more than 4.0 proposals per edge, so
# the budget bounds only the searches that find none.
PROPOSALS_PER_EDGE = 15_000

# Draws of the heuristic search's partner edge per proposal; the first draw
# that moves all four swapped sums onto free values is proposed.
PARTNER_DRAWS = 8

# The backtracking searches' budgets, in search nodes.
EXHAUSTIVE_MAX_NODES = 2_000_000
COUNT_MAX_NODES = 50_000_000


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
    # which feeds the collision pruning; the sort is stable over ascending
    # ids, so ties keep id order
    degs = g.degrees()
    lo, hi = g.lo, g.hi
    return sorted(range(g.m),
                  key=lambda e: (min(degs[lo[e]], degs[hi[e]]),
                                 max(degs[lo[e]], degs[hi[e]])))


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


def exhaustive_search(g: Graph) -> SearchResult:
    """First antimagic labeling in backtracking order, or a proof of none.

    ``proven_none`` is only reported when the whole space was exhausted
    within ``EXHAUSTIVE_MAX_NODES`` search nodes.
    """
    try:
        leaves, labels, nodes = _backtrack(g, EXHAUSTIVE_MAX_NODES, first_only=True)
    except SearchBudgetExceeded as exc:
        return SearchResult(BUDGET_EXCEEDED, None, nodes=exc.nodes)
    if not leaves:
        return SearchResult(PROVEN_NONE, None, nodes=nodes)
    lab = _trusted_labeling(labels)
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("backtracking produced a labeling the verifier rejects")
    return SearchResult(FOUND, lab, nodes=nodes)


def count_antimagic_labelings(g: Graph) -> int:
    """Number of antimagic labelings of ``g`` by full enumeration.

    Raises :class:`SearchBudgetExceeded` past ``COUNT_MAX_NODES`` search
    nodes.
    """
    return _backtrack(g, COUNT_MAX_NODES, first_only=False)[0]


def heuristic_search(g: Graph, seed: int = 0) -> SearchResult:
    """Collision-local search over label swaps, in one run.

    The run starts from the sorted labeling, in which edge e has the label
    e + 1.  Edges are sorted by their ends, so each vertex's edges to larger
    vertices hold a run of consecutive labels that rises with the vertex,
    and the sums start out spread: fewer collisions than a shuffled start
    leaves, and no draws spent on it.  ``seed``, any integer, steers only
    the proposals.  Each proposal swaps the labels of a random edge at a
    random colliding vertex and of another edge, drawn as below, and is kept
    unless the number of colliding vertex pairs rises.  The run ends at zero
    collisions, or after ``PROPOSALS_PER_EDGE * m`` proposals with
    ``not_found``; ``iterations`` counts the proposals made.  A K2 component
    or two isolated vertices make a collision no swap removes, so such
    graphs are ``proven_none`` at once, as :func:`exhaustive_search` reports
    them too.  A hit is verified before being returned, and one the verifier
    rejects raises ``AssertionError``.

    The draws are, per proposal, ``rng.choice`` of a colliding vertex (in
    ``tuple(colliding)`` order), ``rng.choice`` of its incident edge i and
    up to ``PARTNER_DRAWS`` draws of ``rng.randrange(m - 1)`` for the other
    edge j, all made through ``rng.getrandbits`` by the inline draws of
    :mod:`.graph`.  With d the label of j minus the label of i, a draw is
    proposed at once when the sums of i's ends plus d and of j's ends minus
    d are all free (no vertex holds them); otherwise the next draw is made,
    and the last one is proposed if none passes.  Partner draws are not
    proposals.  A rejected swap is undone by swapping back, which keeps the
    order of ``colliding`` that the next draw reads.
    """
    check_knobs(seed=seed)
    degs = g.degrees()
    incident = g._incident
    # a K2 component's edge is the only edge at both its ends, so it is the
    # one edge two leaves share
    leaf_edges = [incident[v][0] for v, d in enumerate(degs) if d == 1] if 1 in degs else ()
    if degs.count(0) >= 2 or len(set(leaf_edges)) < len(leaf_edges):
        return SearchResult(PROVEN_NONE, None)
    m = g.m
    rng = random.Random(index(seed))
    getrandbits = rng.getrandbits
    labels = list(range(1, m + 1))
    state = CollisionState(g, labels)
    colliding = state.colliding
    sums = state.sums
    members = state.members
    lo, hi = g.lo, g.hi
    swap = state.swap
    iterations = 0
    for _ in range(PROPOSALS_PER_EDGE * m):
        if state.collisions == 0:
            break
        iterations += 1
        vertices = tuple(colliding)
        edges_at = incident[vertices[_below(len(vertices), getrandbits)]]
        i = edges_at[_below(len(edges_at), getrandbits)]
        a = labels[i]
        su = sums[lo[i]]
        sv = sums[hi[i]]
        for _ in range(PARTNER_DRAWS):
            j = _below(m - 1, getrandbits)
            if j >= i:
                j += 1
            d = labels[j] - a
            if (su + d not in members and sv + d not in members
                    and sums[lo[j]] - d not in members and sums[hi[j]] - d not in members):
                break
        if swap(i, j) > 0:
            swap(i, j)
    if state.collisions:
        return SearchResult(NOT_FOUND, None, iterations=iterations)
    lab = _trusted_labeling(state.labels)
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("search reached zero collisions on a labeling "
                             "the verifier rejects")
    return SearchResult(FOUND, lab, iterations=iterations)
