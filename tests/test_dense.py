import itertools
import random
from collections import Counter

import pytest

from antimagic import dense
from antimagic.dense import (
    DenseConfig,
    PairingError,
    assemble_labeling,
    label_dense,
    phase1_reduce,
    phase2_pair_edges,
    phase3_pair_labels,
    phase5_assign,
)
from antimagic.graph import Graph, GraphError, verify_antimagic, vertex_sums


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def reduced_graph(st):
    """The edges phase 1 kept, as a graph of their own."""
    return Graph(st.graph.n, [st.graph.edges[e] for e in st.reduced_edges])


class _AllHeads(random.Random):
    def randrange(self, *a, **k):
        return 0


def random_min_degree(n, d, seed):
    rng = random.Random(seed)
    edges = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < d / (n - 1):
                edges.add((u, v))
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    while True:
        deficient = [v for v in range(n) if deg[v] < d]
        if not deficient:
            break
        v = deficient[0]
        options = [u for u in range(n) if u != v and (min(u, v), max(u, v)) not in edges]
        u = rng.choice(options)
        edges.add((min(u, v), max(u, v)))
        deg[u] += 1
        deg[v] += 1
    return Graph(n, edges)


class TestPhase1:
    def test_regular_graph_removes_nothing(self):
        g = cycle(6)
        st = phase1_reduce(g, DenseConfig(d=2))
        assert st.removed == () and st.t == 6
        assert st.high == frozenset()

    def test_k4_trace(self):
        g = complete(4)
        st = phase1_reduce(g, DenseConfig(d=2))
        assert st.removed[0][1] == 6  # first removal carries the top label
        assert st.t % 2 == 0
        # no surviving edge joins two high-degree vertices
        rg = reduced_graph(st)
        for e in st.reduced_edges:
            u, v = g.edges[e]
            assert rg.degree(u) <= 2 or rg.degree(v) <= 2
        for u in st.high:
            for v in st.high:
                if u != v:
                    assert not rg.has_edge(u, v)

    def test_min_degree_enforced(self):
        with pytest.raises(GraphError):
            phase1_reduce(cycle(5), DenseConfig(d=3))

    def test_t_range_invariant(self):
        for seed in range(5):
            g = random_min_degree(24, 5, seed)
            st = phase1_reduce(g, DenseConfig(d=5))
            lo = 5 * 24 // 2 - (1 if st.parity_adjusted else 0)
            assert lo <= st.t <= 5 * 24
            assert st.t % 2 == 0
            degs = reduced_graph(st).degrees()
            below = [v for v in range(24) if degs[v] < 5]
            assert len(below) <= (2 if st.parity_adjusted else 0)


    @pytest.mark.parametrize("n, d", [(24, 5), (60, 4), (90, 13)])
    def test_parity_pick_matches_min_over_all_reduced_edges(self, n, d):
        # reference: the keyed min over every reduced edge, with the degrees
        # the first pass leaves
        adjusted = 0
        for seed in range(20):
            g = random_min_degree(n, d, seed)
            st = phase1_reduce(g, DenseConfig(d=d))
            if not st.parity_adjusted:
                continue
            adjusted += 1
            extra = st.removed[-1][0]
            before = st.reduced_edges + (extra,)
            deg = Counter(x for e in before for x in g.edges[e])

            def key(e):
                u, v = g.edges[e]
                return (-max(deg[u], deg[v]), -min(deg[u], deg[v]), e)
            assert extra == min(before, key=key)
        assert adjusted >= 5


class TestPhase2:
    def test_c6_three_disjoint_pairs(self):
        st = phase2_pair_edges(phase1_reduce(cycle(6), DenseConfig(d=2)))
        assert len(st.pair_list) == 3
        g = cycle(6)
        for a, b in st.pair_list:
            assert not (set(g.edges[a]) & set(g.edges[b]))
        # the pairs cover each of the 6 edges exactly once
        assert sorted(e for pair in st.pair_list for e in pair) == list(range(6))

    def test_spill_size_picks_smaller(self):
        # one high vertex of degree d+3: spill must be 2, not 4
        d = 2
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                      (1, 2), (3, 4), (5, 6), (6, 7), (5, 7), (1, 6), (2, 7), (3, 6), (4, 7)])
        st = phase1_reduce(g, DenseConfig(d=d))
        st2 = phase2_pair_edges(st)
        for v in st.high:
            dv = reduced_graph(st).degree(v)
            size = len(st2.spill[v])
            assert size % 2 == 0
            assert abs((dv - size) - d) <= 1
            if dv == d + 3:
                assert size == 2

    def test_two_adjacent_edges_cannot_pair(self):
        g = Graph(3, [(0, 1), (1, 2)])
        st = phase1_reduce(g, DenseConfig(d=1))
        assert st.t == 2
        with pytest.raises(PairingError):
            phase2_pair_edges(st)

    def test_pair_accounting(self):
        g = random_min_degree(20, 4, 3)
        st = phase2_pair_edges(phase1_reduce(g, DenseConfig(d=4)))
        spill_total = sum(len(v) for v in st.spill.values())
        assert spill_total + 2 * sum(
            1 for a, b in st.pair_list
            if not (set(g.edges[a]) & set(g.edges[b])) or True
        ) - spill_total == st.t
        # non-spill pairs are endpoint-disjoint
        spill_edges = {e for edges in st.spill.values() for e in edges}
        for a, b in st.pair_list:
            if a not in spill_edges:
                assert not (set(g.edges[a]) & set(g.edges[b]))
        # H windows
        for v in range(g.n):
            assert st.d - 1 <= len(st.h_sets[v]) <= st.d + 1


def reference_phase2(st):
    """Quadratic greedy pairing plus leftover repair, as first written.

    Returns ``(pair_list, spill, repaired)``; ``repaired`` says
    whether the leftover-repair branch ran.
    """
    g = st.graph
    incident = {v: [] for v in range(g.n)}
    for e in st.reduced_edges:
        u, v = g.edges[e]
        incident[u].append(e)
        incident[v].append(e)
    spill = {}
    for v in sorted(st.high):
        lo = max(0, len(incident[v]) - st.d - 1)
        spill[v] = tuple(incident[v][:lo + lo % 2])
    spill_edges = {e for edges in spill.values() for e in edges}
    pairs = []
    for v in sorted(spill):
        chunk = spill[v]
        pairs.extend((chunk[i], chunk[i + 1]) for i in range(0, len(chunk), 2))
    rest = [e for e in st.reduced_edges if e not in spill_edges]
    endpoints = {e: set(g.edges[e]) for e in rest}
    paired = [False] * len(rest)
    disjoint_pairs = []
    for i, e in enumerate(rest):
        if paired[i]:
            continue
        for j in range(i + 1, len(rest)):
            if not paired[j] and not (endpoints[e] & endpoints[rest[j]]):
                paired[i] = paired[j] = True
                disjoint_pairs.append((e, rest[j]))
                break
    leftovers = [rest[i] for i in range(len(rest)) if not paired[i]]
    repaired = bool(leftovers)
    while leftovers:
        e, f = leftovers[0], leftovers[1]
        for idx, (a, b) in enumerate(disjoint_pairs):
            if not (endpoints[e] & endpoints[a]) and not (endpoints[f] & endpoints[b]):
                disjoint_pairs[idx] = (e, a)
                disjoint_pairs.append((f, b))
                break
            if not (endpoints[e] & endpoints[b]) and not (endpoints[f] & endpoints[a]):
                disjoint_pairs[idx] = (e, b)
                disjoint_pairs.append((f, a))
                break
        else:
            raise PairingError("could not pair leftover edges without shared endpoints")
        leftovers = leftovers[2:]
    pairs.extend(disjoint_pairs)
    pair_list = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
    return pair_list, spill, repaired


class TestPhase2Reference:
    # (60, 6) with seed 28 leaves four leftovers: two rounds of repair
    @pytest.mark.parametrize("n, d", [(8, 2), (12, 3), (24, 5), (40, 4), (60, 6)])
    def test_matches_quadratic_greedy(self, n, d):
        repaired = 0
        for seed in range(30):
            st = phase1_reduce(random_min_degree(n, d, seed), DenseConfig(d=d))
            pair_list, spill, rep = reference_phase2(st)
            got = phase2_pair_edges(st)
            assert got.pair_list == pair_list
            assert got.spill == spill
            repaired += rep
        assert repaired > 0  # every size reaches the leftover-repair branch

    def test_both_raise_when_pairing_is_impossible(self):
        st = phase1_reduce(Graph(3, [(0, 1), (1, 2)]), DenseConfig(d=1))
        with pytest.raises(PairingError):
            reference_phase2(st)
        with pytest.raises(PairingError):
            phase2_pair_edges(st)


class TestPhase3:
    def test_t2_single_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        st = phase1_reduce(g, DenseConfig(d=1))
        st = phase3_pair_labels(phase2_pair_edges(st), random.Random(0))
        assert st.label_pairs == ((1, 2),)

    def test_deterministic_per_seed(self):
        g = cycle(8)
        st = phase2_pair_edges(phase1_reduce(g, DenseConfig(d=2)))
        a = phase3_pair_labels(st, random.Random(42)).label_pairs
        b = phase3_pair_labels(st, random.Random(42)).label_pairs
        assert a == b

    def test_t4_pairings_uniform(self):
        g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        st = phase2_pair_edges(phase1_reduce(g, DenseConfig(d=1)))
        assert st.t == 4
        rng = random.Random(123)
        freq = Counter()
        trials = 100_000
        for _ in range(trials):
            lp = phase3_pair_labels(st, rng).label_pairs
            freq[frozenset(lp)] += 1
        assert len(freq) == 3  # the 3 perfect pairings of {1,2,3,4}
        for count in freq.values():
            assert abs(count / trials - 1 / 3) < 0.02

    def test_spill_sum_invariant_under_coins(self):
        # each spill set's label total must not depend on any coin outcome
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (5, 6),
                      (1, 5), (2, 6), (3, 5), (4, 6), (5, 0)])
        st = phase1_reduce(g, DenseConfig(d=2))
        st = phase3_pair_labels(phase2_pair_edges(st), random.Random(5))
        if not any(st.spill.values()):
            pytest.skip("instance has no spill-over edges")
        heads = assemble_labeling(st, [0] * len(st.pair_list))
        tails = assemble_labeling(st, [1] * len(st.pair_list))
        for v, edges in st.spill.items():
            assert sum(heads[e] for e in edges) == sum(tails[e] for e in edges)


class TestPhase5:
    def test_all_heads_canonical_orientation(self):
        g = cycle(6)
        st = phase3_pair_labels(phase2_pair_edges(phase1_reduce(g, DenseConfig(d=2))),
                                random.Random(9))
        lab = phase5_assign(st, _AllHeads())
        for idx, (e1, e2) in enumerate(st.pair_list):
            lo, hi = st.label_pairs[idx]
            assert lab[e1] == lo and lab[e2] == hi

    def test_two_outcomes_for_single_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        st = phase3_pair_labels(phase2_pair_edges(phase1_reduce(g, DenseConfig(d=1))),
                                random.Random(0))
        rng = random.Random(31)
        seen = Counter()
        for _ in range(2000):
            lab = phase5_assign(st, rng)
            seen[tuple(lab.labels)] += 1
        assert len(seen) == 2
        for count in seen.values():
            assert abs(count / 2000 - 0.5) < 0.05

    def test_pipeline_yields_bijection(self):
        g = cycle(6)
        st = phase3_pair_labels(phase2_pair_edges(phase1_reduce(g, DenseConfig(d=2))),
                                random.Random(3))
        lab = phase5_assign(st, random.Random(4))
        assert sorted(lab.labels) == list(range(1, 7))


class TestDriver:
    def test_success_on_easy_graph(self):
        g = random_min_degree(32, 11, 0)
        res = label_dense(g, DenseConfig(d=11, rng_seed=0))
        assert res.ok
        assert verify_antimagic(g, res.labeling).ok

    def test_restart_count_zero_on_first_draw(self):
        g = random_min_degree(32, 11, 1)
        res = label_dense(g, DenseConfig(d=11, rng_seed=1))
        if res.ok and res.resamples == 0:
            assert res.restarts == 0

    def test_forced_failure_reports_collision(self):
        g = Graph(2, [(0, 1)])
        res = label_dense(g, DenseConfig(d=1, max_restarts=1))
        assert not res.ok
        assert res.best_collision_count == 1

    def test_default_d_from_size(self):
        cfg = DenseConfig()
        assert cfg.effective_d(128) == 15  # ceil(3 ln 128)

    def test_deterministic_given_seed(self):
        g = random_min_degree(24, 7, 5)
        a = label_dense(g, DenseConfig(d=7, rng_seed=11))
        b = label_dense(g, DenseConfig(d=7, rng_seed=11))
        assert a.labeling == b.labeling and a.restarts == b.restarts

    # Certificates, restarts and resamples frozen from the implementation
    # that rebuilt every attempt's labeling and sums from scratch: the
    # in-place resample loop must consume the RNG exactly as it did.
    @pytest.mark.parametrize("local, restarts, resamples, labels", [
        (30, 0, 4, [52, 12, 34, 21, 8, 37, 51, 50, 1, 38, 19, 15, 7, 6, 22, 2, 13, 24,
                    40, 36, 28, 29, 18, 16, 11, 49, 48, 41, 9, 4, 47, 46, 35, 45, 44, 30,
                    42, 5, 39, 31, 10, 14, 23, 43, 20, 32, 26, 33, 17, 3, 27, 25]),
        (3, 2, 6, [52, 28, 34, 30, 12, 4, 51, 50, 18, 32, 17, 10, 5, 35, 37, 42, 29, 3,
                   41, 14, 39, 2, 15, 24, 22, 49, 48, 13, 21, 8, 47, 46, 26, 45, 44, 11,
                   33, 7, 1, 6, 38, 36, 27, 43, 20, 9, 25, 40, 23, 19, 31, 16]),
    ])
    def test_resample_loop_frozen(self, monkeypatch, local, restarts, resamples, labels):
        monkeypatch.setattr(dense, "MAX_LOCAL_RESAMPLES", local)
        g = random_min_degree(20, 4, 0)
        res = label_dense(g, DenseConfig(d=4, rng_seed=0))
        assert (res.restarts, res.resamples) == (restarts, resamples)
        assert list(res.labeling.labels) == labels
