"""Las Vegas labeling pipeline for graphs of minimum degree d.

Phase 1 peels edges joining two high-degree vertices, handing them the top
labels; what remains has every degree in a window of width one around d,
with the still-high vertices forming an independent set.  Phase 2 pairs up
the remaining edges (inside each high vertex's spill-over set first, then
endpoint-disjoint across the rest), phase 3 pairs up the remaining labels
uniformly at random and pins label pairs to edge pairs, and phase 5 flips
one fair coin per pair to orient the labels.

The underlying existence argument fixes one label pairing and applies a
local lemma to the coins, which are independent given the pairing: a
collision of two vertex sums is a bad event that depends only on the coins
of the pairs meeting those two vertices.  ``label_dense`` runs the
algorithmic form of that lemma, the parallel Moser-Tardos step (Moser and
Tardos, "A constructive proof of the general Lovasz Local Lemma", J. ACM
57(2), 2010): on the one pairing phase 3 draws, it redraws the coins of
every pair that meets a colliding vertex, all at once, until no collision
is left or the resample budget runs out.  No fresh label pairing is ever
drawn.  The step can only stall when no coin meets a colliding vertex, and
then every colliding sum is fixed by phase 1 alone, which no pairing and no
coin can move.  Correctness is absolute because the verifier gates
acceptance; only the running-time guarantee is heuristic.  A run reports
its resamples and, when it fails, the fewest colliding pairs it reached.

All randomness comes from one ``random.Random`` per run.  The label shuffle
(``graph._shuffle``) and the coins (``graph._coins``) reproduce
``Random.shuffle`` and ``Random.randrange(2)`` call for call: the same
``getrandbits`` calls in the same order, hence the same draws and the same
generator state, so a seed certifies the same labeling as a pipeline written
with those methods.  The oracle's search draws with the same functions.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import chain, compress, count, filterfalse
from operator import index
from typing import Optional

from .graph import (CollisionState, Graph, GraphError, Labeling, _coins, _shuffle, _trusted_labeling,
                    check_knobs, verify_antimagic)
# vertex_sums is not called here; the name stays because bench/tracing.py
# wraps it in this module.
from .graph import vertex_sums  # noqa: F401


class PairingError(RuntimeError):
    """Phase 2 could not pair the remaining edges without shared endpoints."""


# The minimum-degree parameter d defaults to ceil(C * ln n); the source
# analysis never pins the constant C.
C = 3.0


def effective_d(n: int, d: Optional[int] = None) -> int:
    """``d`` when given, else the default ceil(C ln n) for ``n`` vertices."""
    if d is not None:
        return d
    return max(1, math.ceil(C * math.log(max(n, 2))))


@dataclass(frozen=True)
class DenseState:
    """Everything the pipeline accumulates across phases.

    Phase 1 sets ``kept``, one byte per edge, 1 on the edges it kept and 0
    on those it stripped, and ``extra``, the edge its parity adjustment
    stripped last (None when no adjustment ran).  The stripped edges take
    the top labels in stripping order, ascending ids and then ``extra``
    (:func:`_stripped`), the i-th taking label m - i.  ``high`` holds the
    vertices whose reduced degree is at least d+1 (the parity adjustment
    can leave up to two vertices one below d).  Phase 2 sets the pairs,
    pair i being ``(pair_first[i], pair_second[i])`` with the smaller id
    first and ``pair_first`` ascending, each edge's pair at
    ``pair_index[e]`` (-1 for a stripped edge), and the high vertices'
    spill-over sets ``spill``; the edges a vertex keeps past its spill set
    are worked out from ``kept``, ``spill`` and the graph's incidence when
    they are read (:func:`_leftover`), so the state holds no incidence of
    its own.  Phase 3 sets ``label_pairs``, the shuffled labels 1..t, whose
    entries 2i and 2i+1 go to pair i.

    Every edge's ends are read from the graph's ``lo`` and ``hi``, and the
    pairs hold the graph's own edge id ints, taken from its incidence.
    Beyond the graph, the state takes about 43 bytes per edge at
    m = 111,596, where phase 1 keeps half the edges: 2.5 for ``kept`` and
    ``high``, 21 for the pairs (8 for ``pair_index``, 8 for its ints, 4 for
    the two lists), 20 for the labels.
    """

    graph: Graph
    d: int
    kept: bytearray
    extra: Optional[int]
    high: frozenset[int]
    t: int
    # phase 2
    pair_first: Optional[list[int]] = None
    pair_second: Optional[list[int]] = None
    pair_index: Optional[list[int]] = None
    spill: Optional[dict[int, tuple[int, ...]]] = None
    # phase 3
    label_pairs: Optional[list[int]] = None


@dataclass(frozen=True)
class DenseResult:
    """Outcome of a full pipeline run; ``best_collision_count`` is the
    fewest colliding vertex pairs the run reached (0 on success)."""

    labeling: Optional[Labeling]
    resamples: int
    best_collision_count: int

    @property
    def ok(self) -> bool:
        return self.labeling is not None


def phase1_reduce(g: Graph, d: Optional[int] = None) -> DenseState:
    """Strip edges between two vertices of degree above d, top labels first.

    Degrees only fall, so a single canonical pass is exhaustive: an edge
    skipped once can never become strippable later.  Afterward every edge
    has an endpoint of degree at most d, hence the high vertices are
    independent and t <= d*n, while no degree dropped below d keeps
    t >= d*n/2.  An odd t is evened out by one extra removal on an edge at
    a vertex of maximum degree (this alone may push one or two endpoints
    to d-1).  ``d`` defaults to :func:`effective_d`'s ceil(C ln n).
    """
    check_knobs(d=d)
    d = effective_d(g.n, d)
    deg = list(g.degrees())
    if min(deg, default=0) < d:
        raise GraphError(f"minimum degree {min(deg, default=0)} is below d={d}")
    lo, hi = g.lo, g.hi
    kept = bytearray(b"\x01") * g.m
    for e, u, v in zip(count(), lo, hi):
        if deg[u] > d and deg[v] > d:
            kept[e] = 0
            deg[u] -= 1
            deg[v] -= 1
    t = kept.count(1)
    extra = None
    if t % 2 == 1:
        def key(e):
            u, v = lo[e], hi[e]
            return (-max(deg[u], deg[v]), -min(deg[u], deg[v]), e)
        # The key's first term is smallest exactly on the edges at a vertex
        # of maximum remaining degree, so the minimum lies among those.
        top = max(deg)
        extra = min((e for v in range(g.n) if deg[v] == top
                     for e in g.incident_edges(v) if kept[e]), key=key)
        kept[extra] = 0
        deg[lo[extra]] -= 1
        deg[hi[extra]] -= 1
        t -= 1
    high = frozenset(v for v in range(g.n) if deg[v] >= d + 1)
    return DenseState(graph=g, d=d, kept=kept, extra=extra, high=high, t=t)


# Swaps the bytes 0 and 1: it turns ``kept`` into its complement.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _stripped(st: DenseState):
    """The edges phase 1 stripped, as an iterator in stripping order:
    ascending ids, then the parity-adjusted edge.  The i-th takes label
    m - i."""
    gone = st.kept.translate(_FLIP)
    last = ()
    if st.extra is not None:
        gone[st.extra] = 0
        last = (st.extra,)
    return chain(compress(range(len(gone)), gone), last)


def _edge_ids(g: Graph):
    """Every edge id of ``g``, ascending, as the int objects its incidence
    holds: the edges whose smaller end is u are the last stretch of u's
    incidence, from the first id whose ``lo`` is u."""
    lo = g.lo
    return chain.from_iterable(inc[bisect_left(inc, bisect_left(lo, u)):]
                               for u, inc in enumerate(g._incident))


def _disjoint_pairs(rest: list[int], lo, hi) -> tuple[list[int], list[int]]:
    """Pair the ascending edge ids ``rest`` of the graph with edge ends
    ``lo`` and ``hi`` so that no pair shares an endpoint.

    Each edge, in order, takes the first later unpaired edge that shares no
    endpoint with it; edges left over are fixed by splitting an earlier
    pair.  Returns the pairs as two lists, ``first`` and ``second``, pair k
    being ``(first[k], second[k])`` with its smaller id first.
    """
    us = list(map(lo.__getitem__, rest))
    vs = list(map(hi.__getitem__, rest))
    last = len(rest)
    # Positions in ``rest``.  Every position from ``front`` on is unpaired;
    # ``waiting`` holds, ascending, the unpaired positions between the
    # current block's end and ``front``: each was passed over because it
    # met the edge then looking for a partner.  Later edges of u's block
    # share u; every edge after the block has both ends above u, so it
    # meets (u, v) exactly when it contains v.
    first: list[int] = []
    second: list[int] = []
    stuck: list[int] = []
    waiting: list[int] = []
    front = 0
    while waiting or front < last:
        start = waiting[0] if waiting else front
        end = bisect_right(us, us[start], start)
        cut = bisect_left(waiting, end)
        todo = waiting[:cut]
        del waiting[:cut]
        if front < end:
            todo += range(front, end)
            front = end
        for i in todo:
            v = vs[i]
            for w in waiting:
                if v != us[w] and v != vs[w]:
                    waiting.remove(w)
                    first.append(rest[i])
                    second.append(rest[w])
                    break
            else:
                while front < last and (v == us[front] or v == vs[front]):
                    waiting.append(front)
                    front += 1
                if front < last:
                    first.append(rest[i])
                    second.append(rest[front])
                    front += 1
                else:
                    stuck.append(rest[i])
    if not stuck:
        # An edge precedes its partner in ``rest``, so it has the smaller id.
        return first, second

    def ends(e):
        return lo[e], hi[e]

    for k in range(0, len(stuck), 2):
        if k + 1 == len(stuck):
            raise AssertionError("even edge count cannot strand a single edge")
        e, f = stuck[k], stuck[k + 1]
        misses_e = set(ends(e)).isdisjoint
        misses_f = set(ends(f)).isdisjoint
        for idx, a, b in zip(count(), first, second):
            if misses_e(ends(a)) and misses_f(ends(b)):
                first[idx], second[idx] = e, a
                first.append(f)
                second.append(b)
                break
            if misses_e(ends(b)) and misses_f(ends(a)):
                first[idx], second[idx] = e, b
                first.append(f)
                second.append(a)
                break
        else:
            raise PairingError("could not pair leftover edges without shared endpoints")
    for idx, a, b in zip(count(), first, second):
        if a > b:
            first[idx], second[idx] = b, a
    return first, second


def phase2_pair_edges(st: DenseState) -> DenseState:
    """Pair every remaining edge: spill-over sets first, the rest disjointly.

    Each high vertex donates an even-sized set of its incident edges so
    its leftover degree lands within one of d; those sets are paired
    internally.  All other edges are paired greedily in canonical order,
    each with the first later unpaired edge that shares no endpoint; stuck
    leftovers are fixed by splitting an existing pair, which a counting
    argument guarantees whenever enough pairs exist.
    """
    g = st.graph
    spill: dict[int, tuple[int, ...]] = {}
    for v in sorted(st.high):
        h = _kept_at(st, v)
        dv = len(h)
        lo = max(0, dv - st.d - 1)
        size = lo + (lo % 2)
        if size > dv - st.d + 1:
            raise AssertionError("no even spill size fits the degree window")
        spill[v] = tuple(h[:size])
    spill_edges = {e for edges in spill.values() for e in edges}
    if len(spill_edges) != sum(len(v) for v in spill.values()):
        raise AssertionError("spill sets must be disjoint")

    rest = list(filterfalse(spill_edges.__contains__, compress(_edge_ids(g), st.kept)))
    first, second = _disjoint_pairs(rest, g.lo, g.hi)
    # A spill set ascends, so its pairs too have the smaller id first.
    for v in sorted(spill):
        chunk = spill[v]
        first += chunk[0::2]
        second += chunk[1::2]
    # Order the pairs by their smaller ids, which differ since the pairs
    # share no edge.  Until then ``pair_index`` holds each pair's larger id
    # at its smaller one.
    pair_index = [-1] * g.m
    for a, b in zip(first, second):
        pair_index[a] = b
    first.sort()
    second = list(map(pair_index.__getitem__, first))
    for i, a, b in zip(count(), first, second):
        pair_index[a] = pair_index[b] = i
    if pair_index.count(-1) != g.m - st.t:
        raise AssertionError("pairing must cover every remaining edge exactly once")
    return replace(st, pair_first=first, pair_second=second, pair_index=pair_index, spill=spill)


def _kept_at(st: DenseState, v: int) -> list[int]:
    """The edges at ``v`` that phase 1 kept, ascending, as the graph's own
    id ints."""
    inc = st.graph._incident[v]
    return list(compress(inc, map(st.kept.__getitem__, inc)))


def _leftover(st: DenseState, v: int) -> list[int]:
    """The edges phase 2 leaves at ``v`` once its spill-over set is gone,
    ascending: the edges at ``v`` that phase 1 kept, past the spill set,
    which is their first stretch."""
    return _kept_at(st, v)[len(st.spill.get(v, ())):]


def phase3_pair_labels(st: DenseState, rng: random.Random) -> DenseState:
    """Uniform random pairing of the labels 1..t, pinned to the edge pairs.

    A shuffle chunked into consecutive pairs is a uniform perfect matching
    of the labels: ``label_pairs`` is the shuffled list itself, and its
    entries 2i and 2i+1, in either order, go to pair i.  The
    shuffle reproduces ``rng.shuffle`` call for call, so it leaves ``rng``
    in the same state.
    """
    if st.pair_first is None:
        raise GraphError("phase 2 has not run")
    labels = list(range(1, st.t + 1))
    _shuffle(labels, rng)
    # Both edges of a spill pair meet their high vertex, so its spill-over
    # sum is fixed here, whichever way the later coins fall.
    return replace(st, label_pairs=labels)


def assemble_labeling(st: DenseState, coins: list[int]) -> list[int]:
    """Combine phase-1 labels with a coin orientation per pair, as a list
    of labels by edge id.

    The i-th stripped edge (:func:`_stripped`) takes label m - i.  Pair i
    takes ``label_pairs`` entries 2i and 2i+1; heads (0) sends the smaller
    of them to the canonically smaller edge.
    """
    m = st.graph.m
    labels = [0] * m
    for e, lab in zip(_stripped(st), range(m, 0, -1)):
        labels[e] = lab
    it = iter(st.label_pairs)
    for e1, e2, a, b, coin in zip(st.pair_first, st.pair_second, it, it, coins):
        if a > b:
            a, b = b, a
        if coin:
            labels[e1] = b
            labels[e2] = a
        else:
            labels[e1] = a
            labels[e2] = b
    return labels


def phase5_assign(st: DenseState, rng: random.Random) -> Labeling:
    """Independent fair coin per pair, then assemble the total labeling."""
    if st.label_pairs is None:
        raise GraphError("phase 3 has not run")
    return Labeling(assemble_labeling(st, _coins(len(st.pair_first), rng)))


def label_dense(g: Graph, d: Optional[int] = None, seed: int = 0,
                max_resamples: int = 1000) -> DenseResult:
    """Resample coins on one label pairing until the verifier accepts.

    Phases 1-3 and the first coins run once, and the labels are assembled
    once into a list that a :class:`CollisionState` takes over.  While
    collisions remain, one resample redraws the coins of every pair that
    meets a colliding vertex's leftover edges (:func:`_leftover`); a new
    coin that differs from the one the pair's labels show swaps the two
    labels in place.  The run fails when
    ``max_resamples`` resamples are spent or no coin meets a colliding
    vertex.  Only a labeling with no collision becomes a
    :class:`Labeling`, for the verifier.

    ``d`` is phase 1's minimum-degree parameter (None: ceil(C ln n)), and
    ``seed``, any integer, seeds the run's one ``random.Random``.
    """
    check_knobs(d=d, max_resamples=max_resamples, seed=seed)
    rng = random.Random(index(seed))
    st = phase3_pair_labels(phase2_pair_edges(phase1_reduce(g, d)), rng)
    first, second = st.pair_first, st.pair_second
    state = CollisionState(g, assemble_labeling(st, _coins(len(first), rng)))
    labels = state.labels
    best_count = state.collisions
    resamples = 0
    while state.collisions and resamples < max_resamples:
        flip = sorted({st.pair_index[e] for v in state.colliding for e in _leftover(st, v)})
        if not flip:
            # Every colliding vertex has no leftover edge.  A high vertex
            # keeps d or d+1 edges after its spill set, so each of these is
            # a low vertex whose edges phase 1 stripped, which happens only
            # at d = 1.  Phase 1 is deterministic, so their sums are the same
            # under every label pairing and every coin: neither a resample
            # nor a fresh pairing can separate them.
            break
        for idx, coin in zip(flip, _coins(len(flip), rng)):
            # a pair's coin is 1 where its smaller edge holds the larger label
            e1, e2 = first[idx], second[idx]
            if coin != (labels[e1] > labels[e2]):
                state.swap(e1, e2)
        resamples += 1
        best_count = min(best_count, state.collisions)
    if state.collisions:
        return DenseResult(None, resamples, best_count)
    # Let the per-edge pipeline data go before the Labeling copies the
    # labels, and the label list before the verifier tallies them.
    del st, state, first, second
    lab = _trusted_labeling(labels)
    del labels
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("pipeline produced a non-bijection")
    return DenseResult(lab, resamples, 0)
