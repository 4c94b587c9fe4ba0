"""Constructive labelings for graphs with a vertex of degree n-1 or n-2.

The universal-vertex construction is self-contained and always succeeds;
like every labeler here, it verifies what it returns.
The degree-(n-2) construction follows a parity scheme: label the graph
minus the high-degree vertex ``v_n`` so that weight parities are under
control, then spend the reserved labels on the edges at ``v_n`` so that
every parity class stays internally distinct.  ``G - v_n`` is G under a
per-edge mask that is true on the edges at ``v_n``, so weights and labels
never change coordinates.

Each scheme yields a short, deterministic sequence of complete
candidates, and the verifier alone picks one: the first it accepts.  This
module only constructs: it never re-draws and never repairs.  The
published arguments wave at the final distinctness, and at small scales
the scheme can fail: the fixed sums of ``v_n`` and its non-neighbor can be
forced onto a neighbor's total, and then the verifier turns down every
candidate.  Then :func:`label_max_degree_n_minus_2` returns None, and
``dispatch.dispatch_label`` hands the graph to the heuristic search.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import add, not_
from typing import Iterable, Optional

from .decompose import cycle_decomposition, parity_forest
from .graph import Graph, GraphError, Labeling, _trusted_labeling, verify_antimagic


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
    off = [True] * g.n
    for v in small:
        off[v] = False
    labels = [0] * g.m
    w = [0] * g.n
    q = 0
    for e, a, b in zip(itertools.count(), g.lo, g.hi):
        if off[a] and off[b]:
            q += 1
            labels[e] = q
            w[a] += q
            w[b] += q
    # each vertex of A: its neighbor -> the id of the edge joining them
    at = [dict(zip(g.neighbors(v), g.incident_edges(v))) for v in small]
    # a stable sort of the ascending neighbors by weight: (weight, id) order
    order = sorted(at[0], key=w.__getitem__)
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
    lo, hi = g.lo, g.hi
    sums = [0] * r
    for e, lab in assignment.items():
        sums[lo[e]] += lab
        sums[hi[e]] += lab
    counts = Counter(s for s in sums if s > 0)
    if any(c > cap for c in counts.values()):
        raise GraphError("input labeling already violates the weight-multiplicity bound")
    assignment = dict(assignment)
    unused = sorted(pool.difference(used))
    for e in edge_ids:
        if e in assignment:
            continue
        u, v = lo[e], hi[e]
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

def label_max_degree_n_minus_2(g: Graph) -> Optional[Labeling]:
    """Antimagic labeling of a graph with maximum degree exactly n-2, or
    None when the construction has none.

    When the hub's non-neighbor is isolated, :func:`label_universal_vertex`
    labels G as it stands.  Otherwise the edge count picks the scheme:
    dense graphs (m >= 2n-4) get the parity forest / cycle decomposition
    scheme, sparse ones (m <= 2n-5) the all-even scheme with its three
    edge-count cases.  The first of the scheme's candidates that the
    verifier accepts is returned; None means the verifier turned down every
    one.  A graph that violates the hypothesis raises :class:`GraphError`.
    """
    n = g.n
    if n < 4:
        raise GraphError("construction requires n >= 4")
    degs = g._degrees
    if max(degs) != n - 2:
        raise GraphError(f"maximum degree must be exactly n-2={n - 2}, got {max(degs)}")
    vn = degs.index(n - 2)
    lo, hi = g.lo, g.hi
    m = len(lo)
    # the hub's incidence ascends, so its neighbors do; the mask of the
    # edges outside G - v_n is true on exactly the hub's edges
    hub_edges = g._incident[vn]
    neighbors = [lo[e] + hi[e] - vn for e in hub_edges]
    vn1 = n * (n - 1) // 2 - vn - sum(neighbors)  # the one vertex left out
    if not degs[vn1]:
        return label_universal_vertex(g)
    if m >= 2 * n - 4:
        scheme = _lemma43
    elif m == 2 * n - 5:
        scheme = _lemma44_all_evens
    elif m >= 2 * n - 7:
        scheme = _lemma44_two_spare_evens
    else:
        scheme = _lemma44_completion
    skip = [False] * m
    for e in hub_edges:
        skip[e] = True
    for labels, assign in scheme(g, vn1, skip, range(2, m + 1, 2), range(1, m + 1, 2), neighbors):
        for e, u in zip(hub_edges, neighbors):
            labels[e] = assign[u]
        lab = _trusted_labeling(labels)
        if verify_antimagic(g, lab).ok:
            return lab
    return None


def _lift(g: Graph, items):
    """Labels on G's edge ids from (edge id, label) pairs, every other edge
    at 0, and the vertex sums they give."""
    lo, hi = g.lo, g.hi
    labels = [0] * g.m
    w = [0] * g.n
    for e, lab in items:
        labels[e] = lab
        w[lo[e]] += lab
        w[hi[e]] += lab
    return labels, w


# Each scheme below takes G, the hub's non-neighbor ``vn1``, ``skip`` (a
# per-edge mask of G, true on the hub's edges, so G - v_n with v_n isolated
# is the subgraph off it), the evens and odds of 1..m as ranges, and the
# hub's neighbors in ascending order, which it must not change; it may mark
# more edges in ``skip``.  Everything is in G's own vertex and edge ids.  A
# scheme yields candidates, each the labels of G's non-hub edges plus a map
# neighbor -> label for the hub's edges, and judges none of them: the caller
# writes the hub labels, freezes the candidate and asks the verifier before
# it asks for the next one, so a scheme may yield one labels list again.

# -- dense case: m >= 2n-4 ---------------------------------------------------

def _lemma43(g: Graph, vn1: int, skip, evens, odds, neighbors):
    """Parity-forest / cycle scheme, with all choices canonical.

    The non-hub edges are labeled in one order, forest first and then cycle
    by cycle, with the evens and then the odds below the top n-2, which are
    reserved for the hub's edges.  Each cycle is traversed from its
    smallest vertex toward that vertex's smaller neighbor; the mixed cycle,
    where the evens run out, starts as many places on as it takes to keep
    both parity junctions off the non-neighbor.  With two junctions the
    reserved labels go out by :func:`_reserved_assignment`'s scan, and
    without one as :func:`_sorted_default`.  Both walks read ``skip``: the
    forest is taken from G - v_n, its edges are then marked in ``skip``, and
    the cycles split the even rest that the mask leaves.

    The two junctions are the only odd weights.  The forest has at most
    n-2 edges (G - v_n has the isolated v_n), and there are at least n-2
    evens, so the forest is all even.  Each vertex of a cycle meets two
    consecutive edges of it, which have the same parity except where the
    evens end: at traversal positions 0 and ``evens_left`` of the mixed
    cycle.
    """
    forest = parity_forest(g, skip)
    for e in forest:
        skip[e] = True
    cycles, cycle_edges = cycle_decomposition(g, skip)

    order = forest  # the non-hub edges in labeling order: forest, then cycle by cycle
    odd_vertices = []
    evens_left = len(evens) - len(forest)
    for cyc, es in zip(cycles, cycle_edges):
        # start at the smallest vertex, heading toward its smaller neighbor:
        # traversal position t is cyc[(i + step*t) % k], and es[j] joins
        # cyc[j] and cyc[j+1]
        k = len(cyc)
        i = cyc.index(min(cyc))
        step = -1 if cyc[i - 1] < cyc[i + 1 - k] else 1
        if 0 < evens_left < k:
            # the mixed cycle: step the start on until neither junction is
            # the non-neighbor; each junction rules out at most one of the
            # k >= 3 starts
            while vn1 == cyc[i] or vn1 == cyc[(i + step * evens_left) % k]:
                i = (i + step) % k
            odd_vertices = [cyc[i], cyc[(i + step * evens_left) % k]]
        order += es[i:] + es[:i] if step > 0 else es[i - 1::-1] + es[:i - 1:-1]
        evens_left -= k

    # the evens, then the odds below the reserved ones: zip stops there
    labels, w = _lift(g, zip(order, itertools.chain(evens, odds)))
    reserved = odds[len(odds) - len(neighbors):]
    if odd_vertices:
        for assign in _reserved_assignment(neighbors, w, odd_vertices, reserved,
                                           [w[vn1], sum(reserved)]):
            yield labels, assign
    else:
        yield labels, _sorted_default(neighbors, w, reserved)


def _sorted_default(neighbors, w, labels):
    """The ascending ``labels`` on the hub's ascending ``neighbors`` in
    (weight, id) order: lighter neighbors get smaller labels.

    Consecutive neighbors in that order have w_i <= w_{i+1} and labels
    l_i < l_{i+1}, so w_i + l_i < w_{i+1} + l_{i+1}: the totals strictly
    increase, so they are pairwise distinct.  A candidate built on the
    default can therefore only fail where a total hits another vertex's
    weight (the non-neighbor's, the hub's, or a fixed total of the scheme),
    and the verifier sees exactly that.
    """
    # a stable sort of the ascending ids by weight: (weight, id) order
    return dict(zip(sorted(neighbors, key=w.__getitem__), labels))


def _reserved_assignment(neighbors, w, odd_vertices, reserved, fixed_sums):
    """Assignments of the ascending ``reserved`` labels, one per neighbor,
    to the hub's ascending ``neighbors``, two of which, ``odd_vertices``,
    have odd weight.

    Each ordered pair of labels, in ``itertools.permutations`` order, goes
    to the two odd-weight neighbors, the first label to the lighter of them
    (by weight, then id), and the other labels go to the other neighbors as
    the sorted default.  The assignment is yielded when its neighbor totals
    and ``fixed_sums`` (the other vertices' weights) come out pairwise
    distinct.  It searches, so it checks each pair itself; where the fixed
    sums already collide no pair can help, and it yields nothing without
    scanning the k^2 pairs.
    """
    if len(set(fixed_sums)) < len(fixed_sums):
        return
    # a stable sort of the ascending ids by weight: (weight, id) order
    rest = sorted(neighbors, key=w.__getitem__)
    vj, vk = odd_vertices
    if (w[vk], vk) < (w[vj], vj):
        vj, vk = vk, vj
    rest.remove(vj)
    rest.remove(vk)
    wj, wk = w[vj], w[vk]
    rest_w = list(map(w.__getitem__, rest))
    size = len(neighbors) + len(fixed_sums)  # one total per neighbor, and the fixed sums
    rest += (vj, vk)
    for alpha, beta in itertools.permutations(reserved, 2):
        left = list(reserved)
        left.remove(alpha)
        left.remove(beta)
        if len({wj + alpha, wk + beta, *fixed_sums, *map(add, rest_w, left)}) == size:
            left += (alpha, beta)
            yield dict(zip(rest, left))


# -- sparse case: m <= 2n-5 --------------------------------------------------

def _kept(skip) -> list[int]:
    """The ascending edge ids the mask ``skip`` keeps: ``star``, the edges
    of G - v_n, for the sparse schemes, which label it by id."""
    return list(itertools.compress(range(len(skip)), map(not_, skip)))


def _lemma44_all_evens(g: Graph, vn1: int, skip, evens, odds, neighbors):
    # m = 2n-5: the evens exactly cover the graph minus the hub, the odds
    # exactly cover the hub's edges
    star = _kept(skip)
    assert len(evens) == len(star) and len(odds) == len(neighbors)
    labels, w = _lift(g, zip(star, evens))
    yield labels, _sorted_default(neighbors, w, odds)


def _lemma44_two_spare_evens(g: Graph, vn1: int, skip, evens, odds, neighbors):
    # m in {2n-6, 2n-7}: one even pair {r1, r2} is split between the last
    # edge of the reduced graph, held back, and the hub edge of the first
    # neighbor v1 off that edge, so that the two all-even weights (v1 and
    # the non-neighbor) can come out distinct; an order of the pair that
    # makes them equal is turned down by the verifier, so both orders are
    # candidates, (r1, r2) first
    star = _kept(skip)
    assert len(evens) == len(star) + 1 and len(odds) == len(neighbors) - 1
    r2, r1 = evens[-2], evens[-1]
    held = star[-1]
    x, y = g.lo[held], g.hi[held]
    v1 = next(u for u in neighbors if u not in (x, y))
    neighbors = [u for u in neighbors if u != v1]
    labels, w = _lift(g, zip(star[:-1], evens))
    for c, o in ((r1, r2), (r2, r1)):
        labels[held] = c
        ws = list(w)
        ws[x] += c
        ws[y] += c
        assign = _sorted_default(neighbors, ws, odds)
        assign[v1] = o
        yield labels, assign


def _lemma44_completion(g: Graph, vn1: int, skip, evens, odds, neighbors):
    # m <= 2n-8: label the reduced graph from the largest evens with the
    # multiplicity-capped completion, then spread the leftover labels on
    # the hub edges, relabeling one block of equal-weight neighbors when
    # the non-neighbor's weight is hit
    star = _kept(skip)
    pool = evens[-(len(star) + 2):]
    anchor = g.incident_edges(vn1)[0]  # vn1 misses the hub, so this edge is in star
    comp = complete_partial_labeling(g, star, pool, {anchor: pool[-1]})
    labels, w = _lift(g, comp.items())
    spare_evens = sorted(set(evens) - set(comp.values()))
    assert len(spare_evens) + len(odds) == len(neighbors)
    yield labels, _block_relabel(neighbors, w, spare_evens, odds, w[vn1])


def _block_relabel(neighbors, w, spare_evens, odds, w_vn1):
    """Even labels to the lightest of the hub's ascending ``neighbors``,
    odds to the rest, with the equal-weight block shifted onto odds when
    some even total hits the non-neighbor's weight.

    With the neighbors sorted by (weight, id) and x spare evens, the first
    neighbor ``order[hit]`` (hit < x) whose total would be ``w_vn1`` starts
    a block ``order[hit:k]`` of equal weight; the block swaps places with
    the next ``x - hit`` neighbors, which take the evens it would have had.
    The shift always fits:

    * the block's weight is positive, so a weight-0 neighbor never hits:
      every spare even lies below the anchor's label (``pool[-1]`` in
      :func:`_lemma44_completion`), which is part of ``w_vn1``;
    * the ``x - hit`` neighbors exist: the completion lets at most
      ceil(n/2) vertices share a positive weight, and that is at most the
      ceil(m/2) odds behind the evens, since m >= n-1.  The one exception,
      n odd with m = n-1, has a lone star edge, so at most one neighbor has
      a positive weight.
    """
    # a stable sort of the ascending ids by weight: (weight, id) order
    order = sorted(neighbors, key=w.__getitem__)
    x = len(spare_evens)
    hit = next((i for i in range(x) if w[order[i]] + spare_evens[i] == w_vn1), None)
    if hit is not None:
        k = hit + 1
        while k < len(order) and w[order[k]] == w[order[hit]]:
            k += 1
        order[hit:k + x - hit] = order[k:k + x - hit] + order[hit:k]
    return dict(zip(order, itertools.chain(spare_evens, odds)))
