import random
import tracemalloc
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, strategies as st

from antimagic import graph
from antimagic.lab.generators import complete_graph, random_min_degree_graph
from antimagic.graph import (
    CollisionState,
    Graph,
    GraphError,
    Labeling,
    VerifyReport,
    _trusted_labeling,
    first_collision,
    verify_antimagic,
    vertex_sums,
)


def path3():
    return Graph(3, [(0, 1), (1, 2)])


def cycle4():
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestGraph:
    def test_canonical_edge_order(self):
        g = Graph(4, [(3, 0), (2, 1), (1, 0)])
        assert g.edges == ((0, 1), (0, 3), (1, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError, match="^vertex count must be non-negative, got -1$"):
            Graph(-1, [])

    @pytest.mark.parametrize("n, edges, message", [
        (2.5, [], r"vertex count must be an integer, got 2\.5"),
        (None, [], "vertex count must be an integer, got None"),
        (3, [(0, 1.0)], r"edge \(0, 1\.0\) is not a pair of integers"),
        (3, [(0, 1), (0,)], r"edge \(0,\) is not a pair of integers"),
        (3, [(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair of integers"),
        (3, [5], "edge 5 is not a pair of integers"),
        (3, ["01"], "edge '01' is not a pair of integers"),
    ], ids=["float n", "None n", "float end", "one end", "three ends", "int edge", "str edge"])
    def test_rejects_non_integer_input_naming_it(self, n, edges, message):
        with pytest.raises(GraphError, match=f"^{message}$"):
            Graph(n, edges)

    def test_reads_integers_through_index(self):
        class Index:
            def __init__(self, k):
                self.k = k

            def __index__(self):
                return self.k

        g = Graph(Index(3), [(0, Index(2)), (True, 2)])
        assert (g.n, g.edges) == (3, ((0, 2), (1, 2)))
        assert type(g.n) is int and all(type(x) is int for e in g.edges for x in e)

    def test_edge_index_of_non_edge_raises(self):
        with pytest.raises(GraphError, match=r"^no edge \(0, 2\)$"):
            cycle4().edge_index(2, 0)

    def test_degrees_and_neighbors(self):
        g = cycle4()
        assert g.degrees() == (2, 2, 2, 2)
        assert g.neighbors(0) == (1, 3)
        assert g.edge_index(3, 2) == g.edge_index(2, 3)

    def test_ends_neighbors_and_edge_ids_agree_with_the_edge_list(self):
        # edge e joins lo[e] < hi[e] in lexicographic order; neighbors reads
        # the two lists along the incidence, and edge_index bisects them
        rng = random.Random(5)
        for n in (0, 1, 2, 7, 30):
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            g = Graph(n, [(v, u) for u, v in reversed(edges)])
            assert g.lo == [u for u, _ in edges] and g.hi == [v for _, v in edges]
            assert g == Graph(n, edges) and hash(g) == hash(Graph(n, edges))
            for v in range(n):
                assert g.neighbors(v) == tuple(sorted(u + w - v for u, w in edges if v in (u, w)))
                for w in range(n):
                    key = (min(v, w), max(v, w))
                    if key in edges:
                        assert g.edge_index(v, w) == edges.index(key)
                    else:
                        with pytest.raises(GraphError):
                            g.edge_index(v, w)

    def test_connectivity(self):
        assert cycle4().is_connected()
        assert not Graph(3, [(0, 1)]).is_connected()


def _long_edge_list():
    """1,000 distinct edges on 50 vertices, shuffled, about half reversed."""
    rng = random.Random(0)
    edges = [(u, v) for u in range(50) for v in range(u + 1, 50)][:1000]
    rng.shuffle(edges)
    return [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]


class TestEdgeValidation:
    # One bad edge at the start, middle or end of a long list; the message
    # names the edge that a scan in input order meets first.
    @pytest.mark.parametrize("where", [0, 500, 1000])
    @pytest.mark.parametrize("bad, message", [
        ((7, 7), "self-loop at vertex 7"),
        ((3, -1), "edge (3, -1) out of range for n=50"),
        ((50, 4), "edge (50, 4) out of range for n=50"),
        ("reversed", "duplicate edge {}"),
    ])
    def test_first_offender_message(self, where, bad, message):
        edges = _long_edge_list()
        if bad == "reversed":
            u, v = edges[123]
            bad, message = (v, u), message.format((min(u, v), max(u, v)))
        edges.insert(where, bad)
        with pytest.raises(GraphError) as exc:
            Graph(50, edges)
        assert str(exc.value) == message

    def test_loops_and_ranges_in_input_order_before_duplicates(self):
        edges = _long_edge_list()
        edges[10:10] = [edges[0], (60, 1), (2, 2)]
        with pytest.raises(GraphError, match=r"^edge \(60, 1\) out of range for n=50$"):
            Graph(50, edges)
        edges[11:12] = []
        with pytest.raises(GraphError, match=r"^self-loop at vertex 2$"):
            Graph(50, edges)

    def test_valid_long_list_matches_sorted_canonical_edges(self):
        edges = _long_edge_list()
        g = Graph(50, iter(edges))
        assert g.edges == tuple(sorted((min(e), max(e)) for e in edges))
        pairs = g.edges
        for w in range(50):
            assert g.incident_edges(w) == tuple(e for e, uv in enumerate(pairs) if w in uv)


class TestVertexSums:
    def test_path3_direct_addition(self):
        w = vertex_sums(path3(), Labeling([1, 2]))
        assert w == (1, 3, 2)

    def test_cycle4_hand_addition(self):
        # labels 1,2,3,4 in cycle order 0-1-2-3-0
        g = cycle4()
        labels = [0] * 4
        labels[g.edge_index(0, 1)] = 1
        labels[g.edge_index(1, 2)] = 2
        labels[g.edge_index(2, 3)] = 3
        labels[g.edge_index(0, 3)] = 4
        assert vertex_sums(g, Labeling(labels)) == (5, 3, 5, 7)

    def test_short_labeling_leaves_later_edges_unlabeled(self):
        # no edge goes unlabeled: a short labeling is refused
        with pytest.raises(GraphError, match=r"^labeling has 1 labels for m=2$"):
            vertex_sums(path3(), Labeling([5]))

    def test_long_labeling_is_out_of_range(self):
        with pytest.raises(GraphError, match=r"^labeling has 3 labels for m=2$"):
            vertex_sums(path3(), Labeling([1, 2, 3]))


class TestVerify:
    def test_k2_is_not_antimagic(self):
        rep = verify_antimagic(Graph(2, [(0, 1)]), Labeling([1]))
        assert not rep.ok
        assert rep.bijection_ok
        assert rep.first_collision == (0, 1)

    def test_path3_ok(self):
        rep = verify_antimagic(path3(), Labeling([1, 2]))
        assert rep.ok and rep.bijection_ok and rep.first_collision is None

    def test_cycle4_collision(self):
        g = cycle4()
        labels = [0] * 4
        labels[g.edge_index(0, 1)] = 1
        labels[g.edge_index(1, 2)] = 2
        labels[g.edge_index(2, 3)] = 3
        labels[g.edge_index(0, 3)] = 4
        rep = verify_antimagic(g, Labeling(labels))
        assert not rep.ok
        assert rep.first_collision == (0, 2)

    def test_bijection_failure_reported_not_raised(self):
        rep = verify_antimagic(path3(), Labeling([1, 1]))
        assert not rep.ok and not rep.bijection_ok

    def test_labels_out_of_range_fail_bijection(self):
        rep = verify_antimagic(path3(), Labeling([1, 3]))
        assert not rep.bijection_ok

    @pytest.mark.parametrize("labels", [[1, 4, 4, 2], [2, 3, 4, 5]],
                             ids=["repeat within 1..m", "missing 1"])
    def test_labels_other_than_1_to_m_fail_bijection(self, labels):
        rep = verify_antimagic(cycle4(), Labeling(labels))
        assert not rep.ok and not rep.bijection_ok

    # Labeling() refuses labels below 1, but the labelers build their lists
    # from [0] * m and wrap them unchecked: a 0 left in place must still fail.
    # Without the range check, [0, 2] would mark slots 0 and 2 of the tally
    # and leave exactly one slot empty, as a permutation does.
    @pytest.mark.parametrize("g, labels", [
        (path3(), [0, 2]), (path3(), [2, 0]), (path3(), [-1, 2]),
        (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), [0, 2, 3, 4]),
    ], ids=["P3 [0, 2]", "P3 [2, 0]", "P3 [-1, 2]", "P5 [0, 2, 3, 4]"])
    def test_trusted_labels_below_one_fail_bijection(self, g, labels):
        rep = verify_antimagic(g, _trusted_labeling(labels))
        assert not rep.ok and not rep.bijection_ok

    def test_wrong_length_is_structural(self):
        with pytest.raises(GraphError):
            verify_antimagic(path3(), Labeling([1]))

    def test_empty_graph_single_vertex(self):
        assert verify_antimagic(Graph(1, []), Labeling([])).ok

    def test_empty_graph_two_vertices_collides_at_zero(self):
        rep = verify_antimagic(Graph(2, []), Labeling([]))
        assert not rep.ok and rep.first_collision == (0, 1)


@pytest.mark.parametrize("g", [complete_graph(150), random_min_degree_graph(400, 60, 0)],
                         ids=["K150", "min-degree 60 on 400 vertices"])
def test_verify_takes_at_most_8_bytes_per_edge(g):
    # The bijection check tallies the labels in m + 1 bytes, where a set of
    # them took about 50 bytes per edge; the rest is per vertex, the sums and
    # the check that they differ.  These graphs (m = 11,175 and 12,951)
    # measure about 1.5 and 4.3 bytes per edge.
    labels = list(range(1, g.m + 1))
    random.Random(0).shuffle(labels)
    lab = Labeling(labels)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = verify_antimagic(g, lab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.bijection_ok
    assert (peak - base) / g.m <= 8


@st.composite
def graph_and_labeling(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))) if possible else []
    g = Graph(n, edges)
    labels = draw(st.permutations(list(range(1, g.m + 1))))
    return g, Labeling(labels)


@given(graph_and_labeling())
def test_handshake_identity(gl):
    # sum of all vertex sums counts every label twice: m(m+1) exactly
    g, lab = gl
    assert sum(vertex_sums(g, lab)) == g.m * (g.m + 1)


@given(graph_and_labeling())
def test_verify_ok_implies_distinct_sums(gl):
    g, lab = gl
    rep = verify_antimagic(g, lab)
    sums = vertex_sums(g, lab)
    if rep.ok:
        assert len(set(sums)) == g.n
    else:
        assert not rep.bijection_ok or len(set(sums)) < g.n


def _reference_report(g, labels):
    """The antimagic check written out from its definition."""
    m = g.m
    bijection_ok = sorted(labels) == list(range(1, m + 1))
    sums = [sum(lab for (a, b), lab in zip(g.edges, labels) if v in (a, b)) for v in range(g.n)]
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if sums[u] == sums[v]]
    first = pairs[0] if pairs else None  # pairs are listed in lexicographic order
    return VerifyReport(ok=bijection_ok and first is None, bijection_ok=bijection_ok,
                        first_collision=first)


def _labelings(rng, m):
    """A permutation of 1..m, the same with one label repeated, and the same
    with one label off 1..m (zero, negative or past m)."""
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    yield perm
    if m >= 2:
        i, j = rng.sample(range(m), 2)
        yield perm[:i] + [perm[j]] + perm[i + 1:]
    if m >= 1:
        i = rng.randrange(m)
        yield perm[:i] + [rng.choice([0, -rng.randrange(1, 5), m + rng.randrange(1, 5)])] + perm[i + 1:]


def test_verify_matches_brute_force_reference():
    rng = random.Random(0)
    seen = Counter()
    for _ in range(400):
        n = rng.randrange(1, 10)
        p = rng.random()
        g = Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        for labels in _labelings(rng, g.m):
            # the trusted constructor takes zero and negative labels unchecked;
            # the verifier's bijection check must catch them
            rep = verify_antimagic(g, _trusted_labeling(labels))
            assert rep == _reference_report(g, labels)
            if min(labels, default=1) >= 1:
                assert verify_antimagic(g, Labeling(labels)) == rep
            seen[rep.bijection_ok, rep.first_collision is None] += 1
    # every kind of outcome came up, many times over
    assert len(seen) == 4 and min(seen.values()) >= 20


def test_trusted_labeling_equals_the_checked_one():
    assert _trusted_labeling([3, 1, 2]) == Labeling([3, 1, 2])
    assert _trusted_labeling([3, 1, 2]).labels == (3, 1, 2)
    with pytest.raises(GraphError, match="labels must be positive, got 0"):
        Labeling([1, 0])


def test_labeling_refuses_non_integer_labels():
    # a float label is reported, not truncated onto an integer
    with pytest.raises(GraphError, match=r"^labels must be integers, got 1\.9$"):
        Labeling([2, 1.9, 1.2])
    with pytest.raises(GraphError, match="^labels must be integers, got '1'$"):
        Labeling(iter([1, "1"]))


def test_first_collision_smallest_lexicographic():
    assert first_collision([7, 3, 7, 3, 7]) == (0, 2)
    assert first_collision([1, 2, 3]) is None
    # the first repeat in the scan is (1, 2), but the smallest pair is (0, 3)
    assert first_collision([4, 9, 9, 4]) == (0, 3)
    rng = random.Random(0)
    for _ in range(300):
        sums = [rng.randrange(rng.randint(1, 12)) for _ in range(rng.randint(0, 12))]
        pairs = [(u, v) for u in range(len(sums)) for v in range(u + 1, len(sums))
                 if sums[u] == sums[v]]
        assert first_collision(sums) == min(pairs, default=None), sums


@given(graph_and_labeling(), st.data())
def test_collision_state_matches_recompute(gl, data):
    g, lab = gl
    state = CollisionState(g, list(lab.labels))
    edge = st.integers(min_value=0, max_value=max(g.m - 1, 0))
    for _ in range(data.draw(st.integers(min_value=0, max_value=20)) if g.m else 0):
        i, j, keep = data.draw(edge), data.draw(edge), data.draw(st.booleans())
        before = state.collisions
        delta = state.swap(i, j)
        assert state.collisions == before + delta
        if not keep:
            assert state.swap(i, j) == -delta
    sums = vertex_sums(g, Labeling(state.labels))
    counts = Counter(sums)
    assert sorted(state.labels) == sorted(lab.labels)
    assert state.sums == list(sums)
    assert {s: len(vs) for s, vs in state.members.items()} == counts
    assert all(sums[v] == s for s, vs in state.members.items() for v in vs)
    assert state.collisions == sum(c * (c - 1) // 2 for c in counts.values())
    assert sorted(state.colliding) == [v for v in range(g.n) if counts[sums[v]] >= 2]


def test_collision_state_owns_the_given_list():
    labels = [2, 4, 1, 3]
    state = CollisionState(cycle4(), labels)
    assert state.labels is labels
    state.swap(0, 1)
    assert labels == [4, 2, 1, 3]


@pytest.mark.parametrize("labels", [[1, 2, 3], [1, 2, 3, 4, 5]], ids=["short", "long"])
def test_collision_state_needs_one_label_per_edge(labels):
    with pytest.raises(GraphError, match=rf"^{len(labels)} labels for m=4$"):
        CollisionState(cycle4(), labels)


# _sums adds each label to both ends in one pass over the edges when
# m <= 4n, and sums each vertex's incidence above that.  These graphs sit on
# both sides of the switch: m = 4n and m = 4n + 1, then the latter with one
# isolated vertex more, which puts the same edges back on the edge side.
def _reference_sums(g, labels):
    return [sum(lab for (a, b), lab in zip(g.edges, labels) if v in (a, b)) for v in range(g.n)]


def _random_graph(rng, n, m):
    pairs = [(u, v) for v in range(n) for u in range(v)]
    return Graph(n, rng.sample(pairs, m))


def _switch_cases():
    rng = random.Random(11)
    cases = [(Graph(0, []), False), (Graph(1, []), False), (Graph(5, [(1, 3)]), False),
             (Graph(6, [(0, 1), (0, 2), (1, 2)]), False)]
    for n in (10, 11, 16, 40):
        cases.append((_random_graph(rng, n, 4 * n), False))
        dense = _random_graph(rng, n, 4 * n + 1)
        cases.append((dense, True))
        cases.append((Graph(n + 1, dense.edges), False))
    return cases


@pytest.mark.parametrize("g, by_incidence", _switch_cases(),
                         ids=lambda x: f"n={x.n} m={x.m}" if isinstance(x, Graph)
                         else "by incidence" if x else "by edges")
def test_sums_on_both_sides_of_the_switch(g, by_incidence, monkeypatch):
    # which loop runs is seen from the incidence loop's itemgetter calls
    calls = []

    def counting(*items):
        calls.append(items)
        return itemgetter(*items)

    monkeypatch.setattr(graph, "itemgetter", counting)
    rng = random.Random(g.m)
    perm = list(range(1, g.m + 1))
    rng.shuffle(perm)
    for labels in (perm, [1] * g.m, perm[::-1]):
        want = _reference_sums(g, labels)
        assert list(vertex_sums(g, _trusted_labeling(labels))) == want
        assert verify_antimagic(g, _trusted_labeling(labels)) == _reference_report(g, labels)
        state = CollisionState(g, list(labels))
        assert state.sums == want
        counts = Counter(want)
        assert state.collisions == sum(c * (c - 1) // 2 for c in counts.values())
        assert sorted(state.colliding) == [v for v in range(g.n) if counts[want[v]] >= 2]
    assert bool(calls) == by_incidence
    for wrong in (g.m - 1, g.m + 1):
        if wrong < 0:
            continue
        with pytest.raises(GraphError, match=rf"^labeling has {wrong} labels for m={g.m}$"):
            vertex_sums(g, Labeling([1] * wrong))
        with pytest.raises(GraphError, match=rf"^labeling has {wrong} labels for m={g.m}$"):
            verify_antimagic(g, Labeling([1] * wrong))
        with pytest.raises(GraphError, match=rf"^{wrong} labels for m={g.m}$"):
            CollisionState(g, [1] * wrong)
