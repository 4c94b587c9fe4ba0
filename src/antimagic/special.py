"""Constructive labelings for graphs with a vertex of degree n-1 or n-2.

The universal-vertex construction is self-contained and always succeeds;
like every labeler here, it verifies what it returns.
The degree-(n-2) construction follows a parity scheme: label the graph
minus the high-degree vertex ``v_n`` so that weight parities are under
control, then spend the reserved labels on the edges at ``v_n`` so that
every parity class stays internally distinct.  ``G - v_n`` is the list of
G's edge ids away from ``v_n``, so weights and labels never change
coordinates.

The scheme makes one deterministic candidate per graph.  The published
arguments wave at the final distinctness, and at small scales it can
genuinely fail: the fixed sums of ``v_n`` and its non-neighbor can be
forced onto a neighbor's total.  The candidate is therefore
verifier-gated, and a graph whose candidate fails (or that the scheme
cannot serve at all) goes once to the oracle's collision-local search,
the kernel the dense route also resamples with.  There are no re-draws.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable

from .decompose import cycle_decomposition, parity_forest
from .graph import Graph, GraphError, Labeling, _trusted_labeling, verify_antimagic
from .oracle import FOUND, heuristic_search


class ConstructionError(RuntimeError):
    """Neither the construction nor the search fallback found a labeling."""


# ---------------------------------------------------------------------------
# universal vertex (maximum degree n-1)
# ---------------------------------------------------------------------------

def label_universal_vertex(g: Graph) -> Labeling:
    """Antimagic labeling of a graph with a hub ``v``: a vertex of degree
    n-1, or (for n >= 4) of degree n-2 whose one non-neighbor is isolated.

    With ``d = deg(v)``, edges away from ``v`` take 1..m-d in canonical
    order; the edges at ``v`` take the top d labels in order of the
    neighbors' partial sums (ties by vertex id), which makes the neighbor
    weights strictly increase, with ``w(v) = d(m-d) + d(d+1)/2`` strictly
    on top.  An isolated non-neighbor keeps the unique weight 0.  This is
    the one-vertex small side of the complete-partite construction for
    k >= 3 classes, and both build their labels with
    :func:`_label_small_side`.  The labeling is verified before it is
    returned.
    """
    n = g.n
    if n < 3:
        raise GraphError("universal-vertex labeling requires n >= 3 (K2 is not antimagic)")
    degs = g.degrees()
    if n - 1 in degs:
        v = degs.index(n - 1)
    elif n >= 4 and n - 2 in degs and 0 in degs:
        # every vertex of degree n-2 misses exactly the isolated one
        v = degs.index(n - 2)
    else:
        raise GraphError("no vertex of degree n-1, "
                         "nor of degree n-2 with an isolated non-neighbor")
    lab = _trusted_labeling(_label_small_side(g, [v]))
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("universal-vertex construction produced a collision")
    return lab


def _label_small_side(g: Graph, small) -> list[int]:
    """Unverified labels of the small-side construction.

    ``small`` is an ascending independent set A whose vertices all have the
    same neighbors B, and every edge of G lies in B or joins A to B.  The q
    edges off A take 1..q in canonical order.  With B sorted by (partial
    weight, id) as ``b_1..b_M`` and ``n1 = |A|``, the edge joining
    ``small[i-1]`` and ``b_j`` takes

        q + i*M          if j = M and M is even,
        q + (i-1)*M + j  if j is odd,
        q + (n1-i)*M + j otherwise,

    so each ``b_j`` gains a fixed amount increasing in j and keeps its
    place, and A's weights land above B's.  For one vertex every label is
    q + j: the hub edges take q+1..m in order of neighbor weight.
    """
    edges = g.edges
    off = [True] * g.n
    for v in small:
        off[v] = False
    labels = [0] * g.m
    w = [0] * g.n
    q = 0
    for e, (a, b) in enumerate(edges):
        if off[a] and off[b]:
            q += 1
            labels[e] = q
            w[a] += q
            w[b] += q
    # each vertex of A: its neighbor -> the id of the edge joining them
    at = [dict(zip(g.neighbors(v), g.incident_edges(v))) for v in small]
    order = sorted(at[0], key=lambda u: (w[u], u))
    size, n1 = len(order), len(small)
    for i, edge_to in enumerate(at, start=1):
        for j, u in enumerate(order, start=1):
            if j % 2:
                lab = (i - 1) * size + j
            elif j == size:
                lab = i * size
            else:
                lab = (n1 - i) * size + j
            labels[edge_to[u]] = q + lab
    return labels


# ---------------------------------------------------------------------------
# completion of partial labelings
# ---------------------------------------------------------------------------

def complete_partial_labeling(g: Graph, edge_ids: Iterable[int], pool: Iterable[int],
                              assignment: dict[int, int]) -> dict[int, int]:
    """Complete a partial labeling of the subgraph of ``g`` on ``edge_ids``
    without concentrating positive weights.

    ``edge_ids`` are ascending edge ids of ``g`` (``range(g.m)`` for all of
    it), and the subgraph keeps all ``r = g.n`` vertices.  ``assignment``
    maps some of those edge ids to distinct labels from ``pool``; the
    result maps every one of them to a label from ``pool``, the given ones
    unchanged, and ``assignment`` itself is left alone.  With a pool of
    ``m+2`` labels, for the subgraph's ``m`` edges, any partial labeling in
    which no more than ``ceil(r/2)`` vertices share a positive weight
    extends edge by edge: of any three unused labels at most two can push
    some weight value past the cap, so a greedy scan (smallest feasible
    label first) never gets stuck.

    Restricted to ``r >= 3``: on a single isolated edge both endpoints
    necessarily share one positive weight, so the cap ``ceil(2/2)=1`` is
    unsatisfiable and the guarantee is vacuous.
    """
    r = g.n
    edge_ids = list(edge_ids)
    m = len(edge_ids)
    if r < 3:
        raise GraphError("completion contract requires at least 3 vertices")
    pool = set(pool)
    if len(pool) != m + 2:
        raise GraphError(f"pool must hold m+2={m + 2} labels, got {len(pool)}")
    if not set(assignment).issubset(edge_ids):
        raise GraphError("assigned edge ids must lie among the subgraph's edge ids")
    used = list(assignment.values())
    if not pool.issuperset(used) or len(set(used)) < len(used):
        raise GraphError("assigned labels must be distinct members of the pool")
    cap = (r + 1) // 2
    sums = [0] * r
    for e, lab in assignment.items():
        u, v = g.edges[e]
        sums[u] += lab
        sums[v] += lab
    counts = Counter(s for s in sums if s > 0)
    if any(c > cap for c in counts.values()):
        raise GraphError("input labeling already violates the weight-multiplicity bound")
    assignment = dict(assignment)
    unused = sorted(pool.difference(used))
    for e in edge_ids:
        if e in assignment:
            continue
        u, v = g.edges[e]
        chosen = None
        for lab in unused:
            wu, wv = sums[u] + lab, sums[v] + lab
            cu = counts[wu] + 1 + (1 if wu == wv else 0)
            cv = counts[wv] + 1 + (1 if wu == wv else 0)
            if cu <= cap and cv <= cap:
                chosen = lab
                break
        if chosen is None:
            raise AssertionError("completion lemma guarantees a feasible label; none found")
        for old in (sums[u], sums[v]):
            if old > 0:
                counts[old] -= 1
        sums[u] += chosen
        sums[v] += chosen
        counts[sums[u]] += 1
        counts[sums[v]] += 1
        assignment[e] = chosen
        unused.remove(chosen)
    return assignment


# ---------------------------------------------------------------------------
# maximum degree n-2
# ---------------------------------------------------------------------------

def label_max_degree_n_minus_2(g: Graph) -> Labeling:
    """Antimagic labeling of a graph with maximum degree exactly n-2.

    When the hub's non-neighbor is isolated, :func:`label_universal_vertex`
    labels G as it stands.  Otherwise the edge count picks the scheme:
    dense graphs (m >= 2n-4) get the parity forest / cycle decomposition
    scheme, sparse ones (m <= 2n-5) the all-even scheme with its three
    edge-count cases.
    The scheme's one candidate is verified; when there is none or it
    fails, the labeling comes from :func:`heuristic_search` instead.
    """
    n = g.n
    if n < 4:
        raise GraphError("construction requires n >= 4")
    if g.max_degree() != n - 2:
        raise GraphError(f"maximum degree must be exactly n-2={n - 2}, got {g.max_degree()}")
    vn = g.degrees().index(n - 2)
    hub_edge = dict(zip(g.neighbors(vn), g.incident_edges(vn)))
    vn1 = next(u for u in range(n) if u != vn and u not in hub_edge)
    if g.degree(vn1) == 0:
        return label_universal_vertex(g)
    m = g.m
    if m >= 2 * n - 4:
        scheme = _lemma43
    elif m == 2 * n - 5:
        scheme = _lemma44_all_evens
    elif m >= 2 * n - 7:
        scheme = _lemma44_two_spare_evens
    else:
        scheme = _lemma44_completion
    # the edges away from the hub: every edge id but the hub's own
    away = [True] * m
    for e in g.incident_edges(vn):
        away[e] = False
    star = list(itertools.compress(range(m), away))
    evens = list(range(2, m + 1, 2))
    odds = list(range(1, m + 1, 2))
    # the hub's neighbors: every vertex but vn and vn1, ascending
    candidate = scheme(g, vn1, star, evens, odds, list(hub_edge))
    if candidate is not None:
        labels, assign = candidate
        for u, lab in assign.items():
            labels[hub_edge[u]] = lab
        lab = _trusted_labeling(labels)
        if verify_antimagic(g, lab).ok:
            return lab
    res = heuristic_search(g)
    if res.status == FOUND:
        return res.labeling
    raise ConstructionError("max-degree n-2 construction and search found no labeling")


def _lift(g: Graph, items):
    """Labels on G's edge ids from (edge id, label) pairs, every other edge
    at 0, and the vertex sums they give."""
    edges = g.edges
    labels = [0] * g.m
    w = [0] * g.n
    for e, lab in items:
        labels[e] = lab
        a, b = edges[e]
        w[a] += lab
        w[b] += lab
    return labels, w


# Each scheme below takes G, the hub's non-neighbor ``vn1``, ``star`` (the
# ascending G edge ids away from the hub, so G - v_n with v_n isolated), the
# evens and odds of 1..m, and the hub's neighbors in ascending order, which
# it must not change.  Everything is in G's own vertex and edge ids.  A
# scheme returns the labels of G's non-hub edges plus a map neighbor ->
# label for the hub's edges, or None when its choices admit no candidate.

# -- dense case: m >= 2n-4 ---------------------------------------------------

def _lemma43(g: Graph, vn1: int, star, evens, odds, neighbors):
    """Parity-forest / cycle scheme, with all choices canonical.

    The forest takes the smallest evens, the cycles the remaining evens
    and then the small odds; the mixed cycle, if any, is only rotated so
    that neither parity junction lands on the non-neighbor.  The top n-2
    odds are reserved for the hub's edges.
    """
    forest = parity_forest(g, star)
    in_forest = set(forest)
    dec = cycle_decomposition(g, [e for e in star if e not in in_forest])

    reserved = odds[len(odds) - len(neighbors):]
    order = list(forest)  # the non-hub edges in labeling order: forest, then cycle by cycle
    evens_left = len(evens) - len(forest)
    for cyc, es in map(_canonical_rotation, dec.cycles, dec.edges):
        k = len(cyc)
        if 0 < evens_left < k:
            es = _avoid_junctions(cyc, es, evens_left, vn1)
        order += es
        evens_left = max(0, evens_left - k)

    # the evens, then the odds below the reserved ones: zip stops there
    labels, w = _lift(g, zip(order, evens + odds))
    odd_vertices = [v for v in range(g.n) if w[v] % 2 == 1]
    if len(odd_vertices) > 2 or vn1 in odd_vertices:
        raise AssertionError("parity bookkeeping broken in dense construction")
    assign = _reserved_assignment(neighbors, w, odd_vertices, reserved, [w[vn1], sum(reserved)])
    return None if assign is None else (labels, assign)


def _canonical_rotation(cycle: tuple[int, ...], edges: tuple[int, ...]):
    # start at the smallest vertex, heading toward its smaller neighbor;
    # edges[j] joins cycle[j] and cycle[j+1] before and after
    i = cycle.index(min(cycle))
    seq = cycle[i:] + cycle[:i]
    es = edges[i:] + edges[:i]
    if cycle[i - 1] < seq[1]:
        return seq[:1] + seq[:0:-1], es[::-1]
    return seq, es


def _avoid_junctions(cycle: tuple[int, ...], edges: tuple[int, ...], split: int, banned: int):
    # parity junctions sit at traversal positions 0 and `split`; rotate so
    # neither is the banned vertex: each position rules out at most one of
    # the k >= 3 rotations, so one is always left.  Returns the rotated edges.
    k = len(cycle)
    r = next(r for r in range(k) if cycle[r] != banned and cycle[(r + split) % k] != banned)
    return edges[r:] + edges[:r]


def _distinct_totals(w, assign, fixed_sums) -> bool:
    sums = [w[u] + lab for u, lab in assign.items()] + list(fixed_sums)
    return len(set(sums)) == len(sums)


def _reserved_assignment(neighbors, w, odd_vertices, reserved, fixed_sums):
    """Assignment of the reserved labels to the hub's neighbors, or None.

    With no odd-weight neighbor, the sorted default: lighter neighbors get
    smaller labels.  With two, the first pair of labels for them (a
    parity-aware scan) that keeps their totals apart.  Either way the
    neighbor totals and ``fixed_sums`` (the other vertices' weights) must
    come out pairwise distinct.
    """
    if len(set(fixed_sums)) < len(fixed_sums):
        return None  # the forced sums already collide; no assignment can help
    order = sorted(neighbors, key=lambda u: (w[u], u))
    labels = sorted(reserved)
    if not odd_vertices:
        base = dict(zip(order, labels))
        return base if _distinct_totals(w, base, fixed_sums) else None
    vj, vk = sorted(odd_vertices, key=lambda u: (w[u], u))
    rest = [u for u in order if u not in (vj, vk)]
    for alpha, beta in itertools.permutations(labels, 2):
        if w[vj] + alpha == w[vk] + beta:
            continue
        cand = dict(zip(rest, sorted(set(labels) - {alpha, beta})))
        cand[vj] = alpha
        cand[vk] = beta
        if _distinct_totals(w, cand, fixed_sums):
            return cand
    return None


# -- sparse case: m <= 2n-5 --------------------------------------------------

def _lemma44_all_evens(g: Graph, vn1: int, star, evens, odds, neighbors):
    # m = 2n-5: the evens exactly cover the graph minus the hub, the odds
    # exactly cover the hub's edges
    assert len(evens) == len(star) and len(odds) == len(neighbors)
    labels, w = _lift(g, zip(star, evens))
    assign = _reserved_assignment(neighbors, w, [], odds, [w[vn1], sum(odds)])
    return None if assign is None else (labels, assign)


def _lemma44_two_spare_evens(g: Graph, vn1: int, star, evens, odds, neighbors):
    # m in {2n-6, 2n-7}: one even pair {r1, r2} is split between the last
    # edge of the reduced graph, held back, and the hub edge of the first
    # neighbor v1 off that edge, so both all-even weights (v1 and the
    # non-neighbor) come out distinct
    assert len(evens) == len(star) + 1 and len(odds) == len(neighbors) - 1
    r2, r1 = evens[-2], evens[-1]
    held = star[-1]
    x, y = g.edges[held]
    v1 = next(u for u in neighbors if u not in (x, y))
    neighbors = [u for u in neighbors if u != v1]
    labels, w = _lift(g, zip(star[:-1], evens))
    a1 = w[v1]
    a2 = w[vn1]
    vn1_on_e = vn1 in (x, y)
    for c, o in ((r1, r2), (r2, r1)):
        w_vn1 = a2 + (c if vn1_on_e else 0)
        if a1 + o == w_vn1:
            continue
        ws = list(w)
        ws[x] += c
        ws[y] += c
        assign = _reserved_assignment(neighbors, ws, [], odds, [w_vn1, a1 + o, o + sum(odds)])
        if assign is not None:
            labels[held] = c
            assign[v1] = o
            return labels, assign
    return None


def _lemma44_completion(g: Graph, vn1: int, star, evens, odds, neighbors):
    # m <= 2n-8: label the reduced graph from the largest evens with the
    # multiplicity-capped completion, then spread the leftover labels on
    # the hub edges, relabeling one block of equal-weight neighbors when
    # the non-neighbor's weight is hit
    pool = evens[-(len(star) + 2):]
    anchor = g.incident_edges(vn1)[0]  # vn1 misses the hub, so this edge is in star
    comp = complete_partial_labeling(g, star, pool, {anchor: pool[-1]})
    labels, w = _lift(g, comp.items())
    spare_evens = sorted(set(evens) - set(comp.values()))
    reserved = spare_evens + odds
    assert len(reserved) == len(neighbors)
    w_vn1 = w[vn1]
    assign = _block_relabel(neighbors, w, spare_evens, odds, w_vn1)
    if assign is None or not _distinct_totals(w, assign, [w_vn1, sum(reserved)]):
        return None
    return labels, assign


def _block_relabel(neighbors, w, spare_evens, odds, w_vn1):
    """Even labels to the lightest neighbors, odds to the rest, with the
    equal-weight block shifted onto odds when some even total hits the
    non-neighbor's weight."""
    order = sorted(neighbors, key=lambda u: (w[u], u))
    x = len(spare_evens)
    assign = {}
    for i, u in enumerate(order):
        assign[u] = spare_evens[i] if i < x else odds[i - x]
    hit = None
    for i in range(x):
        if w[order[i]] + spare_evens[i] == w_vn1:
            hit = i
            break
    if hit is None:
        return assign
    if w[order[hit]] == 0:
        return None
    block_w = w[order[hit]]
    k = hit
    while k + 1 < len(order) and w[order[k + 1]] == block_w:
        k += 1
    if k + (x - hit) + 1 > len(order):
        return None
    assign = {}
    for i in range(hit):
        assign[order[i]] = spare_evens[i]
    for j in range(x - hit):
        assign[order[k + 1 + j]] = spare_evens[hit + j]
    odd_iter = iter(odds)
    for i in range(hit, k + 1):
        assign[order[i]] = next(odd_iter)
    for i in range(k + x - hit + 1, len(order)):
        assign[order[i]] = next(odd_iter)
    return assign
