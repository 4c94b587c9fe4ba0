"""Las Vegas labeling pipeline for graphs of minimum degree d.

Phase 1 peels edges joining two high-degree vertices, handing them the top
labels; what remains has every degree in a window of width one around d,
with the still-high vertices forming an independent set.  Phase 2 pairs up
the remaining edges (inside each high vertex's spill-over set first, then
endpoint-disjoint across the rest), phase 3 pairs up the remaining labels
uniformly at random and pins label pairs to edge pairs, and phase 5 flips
one fair coin per pair to orient the labels.

The underlying existence argument fixes a label pairing with a certified
point-probability property and then applies a local lemma; certifying that
property is exponential, so this implementation replaces it with
verify-and-resample: coins local to colliding vertices are redrawn first,
then the whole label pairing.  Correctness is absolute because the
verifier gates acceptance; only the running-time guarantee is heuristic.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import compress, count, filterfalse
from operator import itemgetter
from typing import Optional

from .graph import (CollisionState, Graph, GraphError, Labeling, PartialLabeling, first_collision,
                    verify_antimagic, vertex_sums)


class PairingError(RuntimeError):
    """Phase 2 could not pair the remaining edges without shared endpoints."""


# ``DenseConfig.d`` defaults to ceil(C * ln n); the source analysis never
# pins the constant C.
C = 3.0


@dataclass(frozen=True)
class DenseConfig:
    """Tuning knobs for the dense pipeline; ``d`` defaults to ceil(C ln n)."""

    d: Optional[int] = None
    max_restarts: int = 1000
    rng_seed: int = 0
    max_local_resamples: int = 30

    def __post_init__(self):
        if self.d is not None and self.d < 1:
            raise GraphError("minimum-degree parameter must be positive")
        if self.max_restarts < 1:
            raise GraphError("max_restarts must be positive")

    def effective_d(self, n: int) -> int:
        if self.d is not None:
            return self.d
        return max(1, math.ceil(C * math.log(max(n, 2))))


@dataclass(frozen=True)
class DenseState:
    """Everything the pipeline accumulates across phases.

    ``reduced_edges`` lists the surviving edge ids of the input graph;
    ``removed`` carries the phase-1 labels; ``carried`` is the per-vertex
    sum of removed labels.  ``low``/``high`` split the vertices by reduced
    degree (at most d versus at least d+1; the parity adjustment can leave
    up to two vertices one below d).  Phase 2 fills the pairing fields,
    phase 3 the label pairs and the fixed spill-over sums.
    """

    graph: Graph
    d: int
    reduced_edges: tuple[int, ...]
    removed: tuple[tuple[int, int], ...]
    carried: tuple[int, ...]
    low: frozenset[int]
    high: frozenset[int]
    t: int
    parity_adjusted: bool
    # phase 2
    partner: Optional[dict[int, int]] = None
    pair_list: Optional[tuple[tuple[int, int], ...]] = None
    pair_index: Optional[dict[int, int]] = None
    spill: Optional[dict[int, tuple[int, ...]]] = None
    h_sets: Optional[dict[int, tuple[int, ...]]] = None
    # phase 3
    label_pairs: Optional[tuple[tuple[int, int], ...]] = None
    spill_sums: Optional[dict[int, int]] = None

    @property
    def reduced_graph(self) -> Graph:
        """The surviving edges as a graph of their own (built on each call)."""
        return Graph(self.graph.n, [self.graph.edges[e] for e in self.reduced_edges])


@dataclass(frozen=True)
class DenseResult:
    """Outcome of a full pipeline run."""

    labeling: Optional[Labeling]
    restarts: int
    resamples: int
    best_collision_count: int
    collision: Optional[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return self.labeling is not None


def phase1_reduce(g: Graph, cfg: DenseConfig) -> DenseState:
    """Strip edges between two vertices of degree above d, top labels first.

    Degrees only fall, so a single canonical pass is exhaustive: an edge
    skipped once can never become strippable later.  Afterward every edge
    has an endpoint of degree at most d, hence the high vertices are
    independent and t <= d*n, while no degree dropped below d keeps
    t >= d*n/2.  An odd t is evened out by one extra removal on an edge at
    a vertex of maximum degree (this alone may push one or two endpoints
    to d-1).
    """
    d = cfg.effective_d(g.n)
    deg = list(g.degrees())
    if min(deg, default=0) < d:
        raise GraphError(f"minimum degree {min(deg, default=0)} is below d={d}")
    removed: list[tuple[int, int]] = []
    kept = [True] * g.m
    next_label = g.m
    for e, (u, v) in enumerate(g.edges):
        if deg[u] > d and deg[v] > d:
            kept[e] = False
            removed.append((e, next_label))
            next_label -= 1
            deg[u] -= 1
            deg[v] -= 1
    reduced = list(compress(range(g.m), kept))
    adjusted = False
    if len(reduced) % 2 == 1:
        def key(e):
            u, v = g.edges[e]
            return (-max(deg[u], deg[v]), -min(deg[u], deg[v]), e)
        extra = min(reduced, key=key)
        kept[extra] = False
        removed.append((extra, next_label))
        u, v = g.edges[extra]
        deg[u] -= 1
        deg[v] -= 1
        reduced.remove(extra)
        adjusted = True
    carried = vertex_sums(g, PartialLabeling(map(itemgetter(1), removed), dict(removed)))
    low = frozenset(v for v in range(g.n) if deg[v] <= d)
    high = frozenset(v for v in range(g.n) if deg[v] >= d + 1)
    return DenseState(
        graph=g, d=d, reduced_edges=tuple(reduced),
        removed=tuple(removed), carried=carried, low=low, high=high,
        t=len(reduced), parity_adjusted=adjusted,
    )


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
    kept = set(st.reduced_edges).__contains__
    incident = [tuple(filter(kept, g.incident_edges(v))) for v in range(g.n)]
    spill: dict[int, tuple[int, ...]] = {}
    for v in sorted(st.high):
        dv = len(incident[v])
        lo = max(0, dv - st.d - 1)
        size = lo + (lo % 2)
        if size > dv - st.d + 1:
            raise AssertionError("no even spill size fits the degree window")
        spill[v] = incident[v][:size]
    spill_edges = {e for edges in spill.values() for e in edges}
    if len(spill_edges) != sum(len(v) for v in spill.values()):
        raise AssertionError("spill sets must be disjoint")

    pairs: list[tuple[int, int]] = []
    for v in sorted(spill):
        chunk = spill[v]
        pairs.extend(zip(chunk[0::2], chunk[1::2]))

    rest = list(filterfalse(spill_edges.__contains__, st.reduced_edges))
    ends = list(map(g.edges.__getitem__, rest))
    firsts = list(map(itemgetter(0), ends))
    last = len(rest)
    # nxt[j] leads to the first unpaired index >= j; paths are compressed
    nxt = list(range(last + 1))

    def unpaired_from(j: int) -> int:
        root = j
        while nxt[root] != root:
            root = nxt[root]
        while nxt[j] != root:
            nxt[j], j = root, nxt[j]
        return root

    disjoint_pairs: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(ends):
        if nxt[i] != i:
            continue
        # Later edges of u's block share u; every edge after the block has
        # both ends above u, so it meets (u, v) exactly when it contains v.
        j = unpaired_from(bisect_right(firsts, u, i + 1))
        while j < last and v in ends[j]:
            j = unpaired_from(j + 1)
        if j < last:
            nxt[i] = i + 1
            nxt[j] = j + 1
            disjoint_pairs.append((rest[i], rest[j]))
    leftovers = [rest[i] for i in range(last) if nxt[i] == i]
    for k in range(0, len(leftovers), 2):
        if k + 1 == len(leftovers):
            raise AssertionError("even edge count cannot strand a single edge")
        e, f = leftovers[k], leftovers[k + 1]
        misses_e = set(g.edges[e]).isdisjoint
        misses_f = set(g.edges[f]).isdisjoint
        for idx, (a, b) in enumerate(disjoint_pairs):
            if misses_e(g.edges[a]) and misses_f(g.edges[b]):
                disjoint_pairs[idx] = (e, a)
                disjoint_pairs.append((f, b))
                break
            if misses_e(g.edges[b]) and misses_f(g.edges[a]):
                disjoint_pairs[idx] = (e, b)
                disjoint_pairs.append((f, a))
                break
        else:
            raise PairingError("could not pair leftover edges without shared endpoints")

    # Once each pair is (smaller id, larger id), the pairs share no edge, so
    # their first ids differ and ordering by those alone is lexicographic.
    pairs.extend(disjoint_pairs)
    pair_list = tuple(sorted((p if p[0] < p[1] else p[::-1] for p in pairs), key=itemgetter(0)))
    lows = list(map(itemgetter(0), pair_list))
    highs = list(map(itemgetter(1), pair_list))
    partner = dict(zip(lows, highs))
    partner.update(zip(highs, lows))
    if len(partner) != st.t:
        raise AssertionError("pairing must cover every remaining edge exactly once")
    pair_index = dict(zip(lows, count()))
    pair_index.update(zip(highs, count()))
    h_sets = dict(enumerate(incident))
    for v, chunk in spill.items():
        h_sets[v] = incident[v][len(chunk):]
    return replace(st, partner=partner, pair_list=pair_list, pair_index=pair_index,
                   spill=spill, h_sets=h_sets)


def phase3_pair_labels(st: DenseState, rng: random.Random) -> DenseState:
    """Uniform random pairing of the labels 1..t, pinned to the edge pairs.

    A shuffle chunked into consecutive pairs is a uniform perfect matching
    of the labels.  The spill-over sums are already determined here: both
    labels of a spill pair land on the same high vertex whichever way the
    later coin falls.
    """
    if st.pair_list is None:
        raise GraphError("phase 2 has not run")
    labels = list(range(1, st.t + 1))
    rng.shuffle(labels)
    evens, odds = labels[0::2], labels[1::2]
    label_pairs = tuple(zip(map(min, evens, odds), map(max, evens, odds)))
    spill_sums = {}
    for v, edges in (st.spill or {}).items():
        total = 0
        for e in edges:
            if e < st.partner[e]:
                total += sum(label_pairs[st.pair_index[e]])
        spill_sums[v] = total
    return replace(st, label_pairs=label_pairs, spill_sums=spill_sums)


def label_pair_for(st: DenseState, e: int) -> tuple[int, int]:
    """The label pair shared by edge ``e`` and its partner."""
    if st.label_pairs is None:
        raise GraphError("phase 3 has not run")
    return st.label_pairs[st.pair_index[e]]


def assemble_labeling(st: DenseState, coins: list[int]) -> Labeling:
    """Combine phase-1 labels with a coin orientation per pair.

    Heads (0) sends the smaller label to the canonically smaller edge.
    """
    labels = [0] * st.graph.m
    for e, lab in st.removed:
        labels[e] = lab
    for idx, (e1, e2) in enumerate(st.pair_list):
        lo, hi = st.label_pairs[idx]
        if coins[idx] == 0:
            labels[e1], labels[e2] = lo, hi
        else:
            labels[e1], labels[e2] = hi, lo
    return Labeling(labels)


def phase5_assign(st: DenseState, rng: random.Random) -> Labeling:
    """Independent fair coin per pair, then assemble the total labeling."""
    if st.label_pairs is None:
        raise GraphError("phase 3 has not run")
    coins = [rng.randrange(2) for _ in st.pair_list]
    return assemble_labeling(st, coins)


def label_dense(g: Graph, cfg: DenseConfig | None = None) -> DenseResult:
    """Run the full pipeline until the verifier accepts or budgets run out.

    Phases 1-2 run once.  Each label pairing is assembled once into a
    :class:`CollisionState` and gets a number of local repairs: on a
    collision, only the coins of pairs meeting the colliding vertices'
    incident sets are redrawn, and a coin that changes swaps its pair's two
    labels in place.  When the local budget is spent a fresh label pairing
    is drawn, up to ``max_restarts`` pairings in total.
    """
    cfg = cfg or DenseConfig()
    st = phase2_pair_edges(phase1_reduce(g, cfg))
    rng = random.Random(cfg.rng_seed)
    best_count = None
    best_pair = None
    resamples = 0
    for draw in range(cfg.max_restarts):
        st = phase3_pair_labels(st, rng)
        coins = [rng.randrange(2) for _ in st.pair_list]
        state = CollisionState(g, assemble_labeling(st, coins))
        for attempt in range(cfg.max_local_resamples + 1):
            if state.collisions == 0:
                lab = Labeling(state.labels)
                report = verify_antimagic(g, lab)
                if not report.ok:
                    raise AssertionError("pipeline produced a non-bijection")
                return DenseResult(lab, draw, resamples, 0, None)
            if best_count is None or state.collisions < best_count:
                best_count = state.collisions
                best_pair = first_collision(state.sums)
            if attempt == cfg.max_local_resamples:
                break
            flip = {st.pair_index[e] for v in state.colliding for e in st.h_sets[v]}
            if not flip:
                break
            for idx in sorted(flip):
                coin = rng.randrange(2)
                if coin != coins[idx]:
                    coins[idx] = coin
                    state.swap(*st.pair_list[idx])
            resamples += 1
    return DenseResult(None, cfg.max_restarts - 1, resamples,
                       best_count if best_count is not None else 0, best_pair)
