import hashlib
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest

from antimagic import dense, graph, oracle
from antimagic.dense import (
    PairingError,
    assemble_labeling,
    label_dense,
    phase1_reduce,
    phase2_pair_edges,
    phase3_pair_labels,
    phase5_assign,
)
from antimagic.lab.generators import complete_graph, cycle_graph, random_min_degree_graph
from antimagic.graph import Graph, GraphError, _trusted_labeling, verify_antimagic


def reduced_edges(st):
    """The ids of the edges phase 1 kept, ascending."""
    return [e for e in range(st.graph.m) if st.kept[e]]


def reduced_graph(st):
    """The edges phase 1 kept, as a graph of their own."""
    lo, hi = st.graph.lo, st.graph.hi
    return Graph(st.graph.n, [(lo[e], hi[e]) for e in reduced_edges(st)])


def high_vertices(st):
    """The vertices whose reduced degree, counted on the kept edges, is
    above d, ascending."""
    rg = reduced_graph(st)
    return [v for v in range(rg.n) if rg.degree(v) > st.d]


def pair_list(st):
    """Phase 2's pairs as a tuple of pairs, in the order of their index."""
    return tuple(zip(st.pair_first, st.pair_second))


def label_pairs(st):
    """Phase 3's label pairs, entries 2i and 2i+1, each smaller label first."""
    it = iter(st.label_pairs)
    return tuple((a, b) if a < b else (b, a) for a, b in zip(it, it))


class _AllHeads(random.Random):
    # the coin draws call getrandbits(2), as randrange(2) does
    def getrandbits(self, k):
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
        g = cycle_graph(6)
        st = phase1_reduce(g, d=2)
        assert list(dense._stripped(st)) == [] and st.t == 6
        assert high_vertices(st) == []

    def test_k4_trace(self):
        g = complete_graph(4)
        st = phase1_reduce(g, d=2)
        labels = assemble_labeling(phase3_pair_labels(phase2_pair_edges(st), random.Random(0)), [0, 0])
        assert labels[next(dense._stripped(st))] == 6  # first removal carries the top label
        assert st.t % 2 == 0
        # no surviving edge joins two high-degree vertices
        rg = reduced_graph(st)
        edges = g.edges
        for e in reduced_edges(st):
            u, v = edges[e]
            assert rg.degree(u) <= 2 or rg.degree(v) <= 2
        for u in high_vertices(st):
            for v in high_vertices(st):
                if u != v:
                    assert u not in rg.neighbors(v)

    def test_min_degree_enforced(self):
        with pytest.raises(GraphError):
            phase1_reduce(cycle_graph(5), d=3)

    @pytest.mark.parametrize("d, message", [
        (0, "minimum-degree parameter must be positive"),
        (2.5, r"minimum-degree parameter must be an integer, got 2\.5"),
    ], ids=["d=0", "d=2.5"])
    def test_bad_d_rejected(self, d, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            phase1_reduce(cycle_graph(6), d=d)

    def test_t_range_invariant(self):
        for seed in range(5):
            g = random_min_degree(24, 5, seed)
            st = phase1_reduce(g, d=5)
            lo = 5 * 24 // 2 - (st.extra is not None)
            assert lo <= st.t <= 5 * 24
            assert st.t % 2 == 0
            degs = reduced_graph(st).degrees()
            below = [v for v in range(24) if degs[v] < 5]
            assert len(below) <= (2 if st.extra is not None else 0)


    @pytest.mark.parametrize("n, d", [(24, 5), (60, 4), (90, 13)])
    def test_parity_pick_matches_min_over_all_reduced_edges(self, n, d):
        # reference: the keyed min over every reduced edge, with the degrees
        # the first pass leaves
        adjusted = 0
        for seed in range(20):
            g = random_min_degree(n, d, seed)
            st = phase1_reduce(g, d=d)
            if st.extra is None:
                continue
            adjusted += 1
            extra = list(dense._stripped(st))[-1]
            assert extra == st.extra
            before = reduced_edges(st) + [extra]
            edges = g.edges
            deg = Counter(x for e in before for x in edges[e])

            def key(e):
                u, v = edges[e]
                return (-max(deg[u], deg[v]), -min(deg[u], deg[v]), e)
            assert extra == min(before, key=key)
        assert adjusted >= 5

    @pytest.mark.parametrize("n, d", [(24, 5), (60, 4), (90, 13)])
    def test_stripped_edges_in_labeling_order(self, n, d):
        # reference from phase 1's definition: one canonical pass strips each
        # edge whose ends both have degree above d, and an odd remainder
        # loses one more edge, the keyed min, which goes last
        adjusted = 0
        for seed in range(20):
            g = random_min_degree(n, d, seed)
            edges = g.edges
            deg = list(g.degrees())
            stripped, kept, extra = [], [], None
            for e, (u, v) in enumerate(edges):
                if deg[u] > d and deg[v] > d:
                    stripped.append(e)
                    deg[u] -= 1
                    deg[v] -= 1
                else:
                    kept.append(e)
            if len(kept) % 2:
                adjusted += 1

                def key(e):
                    u, v = edges[e]
                    return (-max(deg[u], deg[v]), -min(deg[u], deg[v]), e)
                extra = min(kept, key=key)
                kept.remove(extra)
                stripped.append(extra)
            st = phase2_pair_edges(phase1_reduce(g, d=d))
            assert list(dense._stripped(st)) == stripped
            assert st.extra == extra
            assert reduced_edges(st) == kept and st.t == len(kept)
            # the i-th stripped edge takes label m - i, whatever the coins
            labels = assemble_labeling(replace(st, label_pairs=list(range(1, st.t + 1))),
                                       [0] * (st.t // 2))
            assert [labels[e] for e in stripped] == list(range(g.m, st.t, -1))
        assert adjusted >= 5


class TestPhase2:
    def test_c6_three_disjoint_pairs(self):
        st = phase2_pair_edges(phase1_reduce(cycle_graph(6), d=2))
        assert len(pair_list(st)) == 3
        edges = cycle_graph(6).edges
        for a, b in pair_list(st):
            assert not (set(edges[a]) & set(edges[b]))
        # the pairs cover each of the 6 edges exactly once
        assert sorted(e for pair in pair_list(st) for e in pair) == list(range(6))

    def test_spill_size_picks_smaller(self):
        # one high vertex of degree d+3: spill must be 2, not 4
        d = 2
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                      (1, 2), (3, 4), (5, 6), (6, 7), (5, 7), (1, 6), (2, 7), (3, 6), (4, 7)])
        st = phase1_reduce(g, d=d)
        st2 = phase2_pair_edges(st)
        for v in high_vertices(st):
            dv = reduced_graph(st).degree(v)
            size = len(st2.spill[v])
            assert size % 2 == 0
            assert abs((dv - size) - d) <= 1
            if dv == d + 3:
                assert size == 2

    def test_two_adjacent_edges_cannot_pair(self):
        g = Graph(3, [(0, 1), (1, 2)])
        st = phase1_reduce(g, d=1)
        assert st.t == 2
        with pytest.raises(PairingError):
            phase2_pair_edges(st)

    def test_pair_accounting(self):
        g = random_min_degree(20, 4, 3)
        st = phase2_pair_edges(phase1_reduce(g, d=4))
        edges = g.edges
        spill_total = sum(len(v) for v in st.spill.values())
        assert spill_total + 2 * sum(
            1 for a, b in pair_list(st)
            if not (set(edges[a]) & set(edges[b])) or True
        ) - spill_total == st.t
        # non-spill pairs are endpoint-disjoint
        spill_edges = {e for chunk in st.spill.values() for e in chunk}
        for a, b in pair_list(st):
            if a not in spill_edges:
                assert not (set(edges[a]) & set(edges[b]))
        # H windows: each vertex's edges past its spill set, worked out on demand
        for v in range(g.n):
            assert st.d - 1 <= len(dense._leftover(st, v)) <= st.d + 1

    @pytest.mark.parametrize("n, d", [(24, 5), (60, 4), (90, 13)])
    def test_degrees_and_spill_sets_come_from_the_kept_edges(self, n, d):
        # phase 1's degrees count the kept edges at each vertex, and phase 2
        # sizes each spill set from them and takes its vertex's first kept
        # edges, whose ids are phase 1's id ints
        spilled = 0
        for seed in range(10):
            st = phase2_pair_edges(phase1_reduce(random_min_degree(n, d, seed), d=d))
            kept_at = [[e for e in st.graph.incident_edges(v) if st.kept[e]] for v in range(n)]
            assert st.deg == [len(edges) for edges in kept_at]
            assert st.ids == list(range(st.graph.m + 1))
            assert sorted(st.spill) == high_vertices(st)
            for v, chunk in st.spill.items():
                over = max(0, st.deg[v] - d - 1)
                assert chunk == tuple(kept_at[v][:over + over % 2])
                assert all(e is st.ids[e] for e in chunk)
                spilled += len(chunk)
        assert spilled > 0


def reference_phase2(st):
    """Quadratic greedy pairing plus leftover repair, as first written.

    Returns ``(pairs, spill, repaired)``, the pairs sorted, each with its
    smaller id first; ``repaired`` says whether the leftover-repair branch
    ran.
    """
    g = st.graph
    edges = g.edges
    incident = {v: [] for v in range(g.n)}
    for e in reduced_edges(st):
        u, v = edges[e]
        incident[u].append(e)
        incident[v].append(e)
    spill = {}
    for v in sorted(v for v in incident if len(incident[v]) > st.d):
        lo = max(0, len(incident[v]) - st.d - 1)
        spill[v] = tuple(incident[v][:lo + lo % 2])
    spill_edges = {e for edges in spill.values() for e in edges}
    pairs = []
    for v in sorted(spill):
        chunk = spill[v]
        pairs.extend((chunk[i], chunk[i + 1]) for i in range(0, len(chunk), 2))
    rest = [e for e in reduced_edges(st) if e not in spill_edges]
    endpoints = {e: set(edges[e]) for e in rest}
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
    return tuple(sorted((min(a, b), max(a, b)) for a, b in pairs)), spill, repaired


class TestPhase2Reference:
    # (60, 6) with seed 28 leaves four leftovers: two rounds of repair
    @pytest.mark.parametrize("n, d", [(8, 2), (12, 3), (24, 5), (40, 4), (60, 6)])
    def test_matches_quadratic_greedy(self, n, d):
        repaired = 0
        for seed in range(30):
            st = phase1_reduce(random_min_degree(n, d, seed), d=d)
            pairs, spill, rep = reference_phase2(st)
            got = phase2_pair_edges(st)
            assert pair_list(got) == pairs
            assert got.spill == spill
            repaired += rep
        assert repaired > 0  # every size reaches the leftover-repair branch

    def test_both_raise_when_pairing_is_impossible(self):
        st = phase1_reduce(Graph(3, [(0, 1), (1, 2)]), d=1)
        with pytest.raises(PairingError):
            reference_phase2(st)
        with pytest.raises(PairingError):
            phase2_pair_edges(st)


# Sizes around the powers of two where the draws' word size changes.
DRAW_SIZES = [0, 1, 2, 3, 7, 8, 9, 255, 256, 257, 1000, 60000]


class TestDraws:
    """The inline draws, shared by dense and the oracle, consume the
    generator exactly as the stdlib does."""

    @pytest.mark.parametrize("size", DRAW_SIZES)
    def test_shuffle_matches_stdlib(self, size):
        for seed in range(5):
            ours, ref = random.Random(seed), random.Random(seed)
            x, y = list(range(size)), list(range(size))
            graph._shuffle(x, ours)
            ref.shuffle(y)
            assert x == y
            assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("size", DRAW_SIZES)
    def test_coins_match_randrange(self, size):
        for seed in range(5):
            ours, ref = random.Random(seed), random.Random(seed)
            assert graph._coins(size, ours) == [ref.randrange(2) for _ in range(size)]
            assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("size", [s for s in DRAW_SIZES if s > 0])
    def test_below_matches_choice(self, size):
        seq = tuple(range(100, 100 + size))
        for seed in range(5):
            ours, ref = random.Random(seed), random.Random(seed)
            getrandbits = ours.getrandbits
            assert ([seq[graph._below(size, getrandbits)] for _ in range(50)]
                    == [ref.choice(seq) for _ in range(50)])
            assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("size", [s for s in DRAW_SIZES if s > 0])
    def test_below_matches_randrange(self, size):
        for seed in range(5):
            ours, ref = random.Random(seed), random.Random(seed)
            getrandbits = ours.getrandbits
            assert ([graph._below(size, getrandbits) for _ in range(50)]
                    == [ref.randrange(size) for _ in range(50)])
            assert ours.getstate() == ref.getstate()

    def test_dense_and_oracle_share_the_draws(self):
        assert (dense._shuffle, dense._coins) == (graph._shuffle, graph._coins)
        assert oracle._below == graph._below


class TestPhase3:
    def test_needs_phase2(self):
        with pytest.raises(GraphError, match="^phase 2 has not run$"):
            phase3_pair_labels(phase1_reduce(cycle_graph(6), d=2), random.Random(0))

    def test_t2_single_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        st = phase1_reduce(g, d=1)
        st = phase3_pair_labels(phase2_pair_edges(st), random.Random(0))
        assert label_pairs(st) == ((1, 2),)

    def test_deterministic_per_seed(self):
        g = cycle_graph(8)
        st = phase2_pair_edges(phase1_reduce(g, d=2))
        a = phase3_pair_labels(st, random.Random(42)).label_pairs
        b = phase3_pair_labels(st, random.Random(42)).label_pairs
        assert a == b

    def test_t4_pairings_uniform(self):
        g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        st = phase2_pair_edges(phase1_reduce(g, d=1))
        assert st.t == 4
        rng = random.Random(123)
        freq = Counter()
        trials = 100_000
        for _ in range(trials):
            lp = label_pairs(phase3_pair_labels(st, rng))
            freq[frozenset(lp)] += 1
        assert len(freq) == 3  # the 3 perfect pairings of {1,2,3,4}
        for count in freq.values():
            assert abs(count / trials - 1 / 3) < 0.02

    def test_spill_sum_invariant_under_coins(self):
        # each spill set's label total must not depend on any coin outcome
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4), (5, 6),
                      (1, 5), (2, 6), (3, 5), (4, 6), (5, 0)])
        st = phase1_reduce(g, d=2)
        st = phase3_pair_labels(phase2_pair_edges(st), random.Random(5))
        if not any(st.spill.values()):
            pytest.skip("instance has no spill-over edges")
        heads = assemble_labeling(st, [0] * len(st.pair_first))
        tails = assemble_labeling(st, [1] * len(st.pair_first))
        for v, edges in st.spill.items():
            assert sum(heads[e] for e in edges) == sum(tails[e] for e in edges)


class TestPhase5:
    def test_needs_phase3(self):
        with pytest.raises(GraphError, match="^phase 3 has not run$"):
            phase5_assign(phase2_pair_edges(phase1_reduce(cycle_graph(6), d=2)), random.Random(0))

    def test_all_heads_canonical_orientation(self):
        g = cycle_graph(6)
        st = phase3_pair_labels(phase2_pair_edges(phase1_reduce(g, d=2)),
                                random.Random(9))
        lab = phase5_assign(st, _AllHeads())
        pairs = label_pairs(st)
        for idx, (e1, e2) in enumerate(pair_list(st)):
            lo, hi = pairs[idx]
            assert lab[e1] == lo and lab[e2] == hi

    def test_two_outcomes_for_single_pair(self):
        g = Graph(4, [(0, 1), (2, 3)])
        st = phase3_pair_labels(phase2_pair_edges(phase1_reduce(g, d=1)),
                                random.Random(0))
        rng = random.Random(31)
        seen = Counter()
        for _ in range(2000):
            seen[tuple(phase5_assign(st, rng))] += 1
        assert len(seen) == 2
        for count in seen.values():
            assert abs(count / 2000 - 0.5) < 0.05

    def test_pipeline_yields_bijection(self):
        g = cycle_graph(6)
        st = phase3_pair_labels(phase2_pair_edges(phase1_reduce(g, d=2)),
                                random.Random(3))
        assert sorted(phase5_assign(st, random.Random(4))) == list(range(1, 7))


class TestDriver:
    def test_success_on_easy_graph(self):
        g = random_min_degree(32, 11, 0)
        res = label_dense(g, d=11, seed=0)
        assert res.ok
        assert verify_antimagic(g, res.labeling).ok

    def test_forced_failure_reports_collision(self):
        # phase 1 strips K2's one edge for parity, so no coin meets a vertex
        # and the run stops before any resample, whatever the budget
        g = Graph(2, [(0, 1)])
        res = label_dense(g, d=1)
        assert not res.ok
        assert (res.resamples, res.best_collision_count) == (0, 1)

    def test_budget_spent_when_no_coin_separates(self, monkeypatch):
        # Each edge of 2K2 is the only edge at both its ends, so they always
        # share a sum; yet its coin meets every vertex, so the run spends its
        # budget, cut here to 3 resamples.
        monkeypatch.setattr(dense, "MAX_RESAMPLES", 3)
        res = label_dense(Graph(4, [(0, 1), (2, 3)]), d=1)
        assert not res.ok
        assert (res.resamples, res.best_collision_count) == (3, 2)

    def test_default_d_from_size(self):
        assert dense.effective_d(128) == 15  # ceil(3 ln 128)

    # The resample budget is the constant MAX_RESAMPLES, so passing it is
    # refused as an unknown argument.
    @pytest.mark.parametrize("kwargs, error, message", [
        ({"d": 0}, GraphError, "^minimum-degree parameter must be positive$"),
        ({"max_resamples": 0}, TypeError, "unexpected keyword argument 'max_resamples'$"),
    ], ids=["d=0", "max_resamples=0"])
    def test_config_values_below_one_rejected(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            label_dense(cycle_graph(6), **kwargs)

    @pytest.mark.parametrize("kwargs, error, message", [
        ({"d": 2.5}, GraphError, r"^minimum-degree parameter must be an integer, got 2\.5$"),
        ({"max_resamples": 1.5}, TypeError, "unexpected keyword argument 'max_resamples'$"),
    ], ids=["d=2.5", "max_resamples=1.5"])
    def test_config_non_integers_rejected(self, kwargs, error, message):
        with pytest.raises(error, match=message):
            label_dense(cycle_graph(6), **kwargs)

    def test_one_labeling_per_certificate(self, monkeypatch):
        # several resamples, but only the certified labeling becomes a Labeling
        made = []

        def counting(labels):
            made.append(labels)
            return _trusted_labeling(labels)

        monkeypatch.setattr(dense, "_trusted_labeling", counting)
        g = random_min_degree(20, 4, 0)
        res = label_dense(g, d=4, seed=0)
        assert res.resamples == 4
        assert len(made) == 1 and list(res.labeling.labels) == made[0]

    def test_deterministic_given_seed(self):
        g = random_min_degree(24, 7, 5)
        a = label_dense(g, d=7, seed=11)
        b = label_dense(g, d=7, seed=11)
        assert a.labeling == b.labeling and a.resamples == b.resamples

    # Certificates and resamples frozen from the implementation that rebuilt
    # every attempt's labeling and sums from scratch: the in-place resample
    # loop must consume the RNG exactly as it did.
    @pytest.mark.parametrize("resamples, labels", [
        (4, [52, 12, 34, 21, 8, 37, 51, 50, 1, 38, 19, 15, 7, 6, 22, 2, 13, 24,
             40, 36, 28, 29, 18, 16, 11, 49, 48, 41, 9, 4, 47, 46, 35, 45, 44, 30,
             42, 5, 39, 31, 10, 14, 23, 43, 20, 32, 26, 33, 17, 3, 27, 25]),
    ])
    def test_resample_loop_frozen(self, resamples, labels):
        g = random_min_degree(20, 4, 0)
        res = label_dense(g, d=4, seed=0)
        assert res.resamples == resamples
        assert list(res.labeling.labels) == labels

    # At n = 300 the shuffle draws take up to 11 bits and the coins run to
    # hundreds per pairing, so these digests pin the RNG use at a scale the
    # n = 20 case above does not reach.
    @pytest.mark.parametrize("seed, resamples, digest", [
        (0, 4, "b92977f774fcf8ad26dd5e1d86237669093026fe67b121c487544e7bacfdb673"),
        (1, 1, "bbc63736e662552c2efd6333b040a98642343b68671865e72e4066616dad1121"),
        (2, 4, "83b5680eba6eb6e8264857db72830760cd3b0704e87c3e5b676d5ea142a29287"),
    ])
    def test_certificates_frozen_at_scale(self, seed, resamples, digest):
        g = random_min_degree(300, 8, seed)
        res = label_dense(g, d=8, seed=seed)
        assert res.resamples == resamples
        text = ",".join(map(str, res.labeling.labels))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_hypercube_certifies_on_one_pairing(self):
        # Q12 is 12-regular, so phase 1 strips nothing; its one label pairing
        # takes hundreds of resamples to certify.
        k = 12
        g = Graph(1 << k, [(v, v | 1 << i) for v in range(1 << k) for i in range(k)
                           if not v >> i & 1])
        res = label_dense(g, d=k, seed=0)
        assert res.resamples == 256
        text = ",".join(map(str, res.labeling.labels))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "231cf214f32e5692121a102f9fa0df4a35c5b6912b93019a6163e7082127e898")


def test_peak_memory_per_edge():
    # The pipeline holds each kind of per-edge data once: phase 1's kept
    # byte and id list, the pairs, the pair index and the labels, all
    # dropped before the verifier tallies the labels, and the id list and
    # the shuffled labels dropped once they are assembled, so the peak
    # comes while they are.  The pairs, their numbers and every label below
    # m are the graph's own edge id ints, so no value gets an int of its
    # own.  A vertex's leftover incidence is worked out only when it is
    # read.  This graph measures 40 to 41 bytes per edge on Python 3.10 to
    # 3.13.
    g = random_min_degree_graph(600, 40, 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = label_dense(g, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok
    assert (peak - base) / g.m <= 45
    own = [None] * g.m
    for inc in g._incident:
        for e in inc:
            own[e] = e
    assert all(lab is own[lab] for lab in res.labeling.labels if lab < g.m)
