import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from antimagic.graph import (
    CollisionState,
    Graph,
    GraphError,
    Labeling,
    PartialLabeling,
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

    def test_degrees_and_neighbors(self):
        g = cycle4()
        assert g.degrees() == (2, 2, 2, 2)
        assert g.neighbors(0) == (1, 3)
        assert g.edge_index(3, 2) == g.edge_index(2, 3)

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
        for w in range(50):
            assert g.incident_edges(w) == tuple(e for e, uv in enumerate(g.edges) if w in uv)


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

    def test_total_labeling_equals_partial_view(self):
        g = cycle4()
        lab = Labeling([2, 4, 1, 3])
        pl = PartialLabeling(pool=range(1, 5), assignment=dict(lab.items()))
        assert vertex_sums(g, lab) == vertex_sums(g, pl)

    def test_edge_out_of_range(self):
        pl = PartialLabeling(pool=[1], assignment={5: 1})
        with pytest.raises(GraphError):
            vertex_sums(path3(), pl)

    def test_short_labeling_leaves_later_edges_unlabeled(self):
        assert vertex_sums(path3(), Labeling([5])) == (5, 5, 0)

    def test_long_labeling_is_out_of_range(self):
        with pytest.raises(GraphError, match=r"^edge index 2 out of range for m=2$"):
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

    def test_wrong_length_is_structural(self):
        with pytest.raises(GraphError):
            verify_antimagic(path3(), Labeling([1]))

    def test_empty_graph_single_vertex(self):
        assert verify_antimagic(Graph(1, []), Labeling([])).ok

    def test_empty_graph_two_vertices_collides_at_zero(self):
        rep = verify_antimagic(Graph(2, []), Labeling([]))
        assert not rep.ok and rep.first_collision == (0, 1)


class TestPartialLabeling:
    def test_rejects_non_pool_label(self):
        with pytest.raises(GraphError):
            PartialLabeling(pool=[1, 2], assignment={0: 3})

    def test_rejects_injectivity_violation(self):
        with pytest.raises(GraphError):
            PartialLabeling(pool=[1, 2], assignment={0: 1, 1: 1})

    def test_unused_labels(self):
        pl = PartialLabeling(pool=[5, 2, 9], assignment={0: 2})
        assert pl.unused_labels() == [5, 9]


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


def test_first_collision_smallest_lexicographic():
    assert first_collision([7, 3, 7, 3, 7]) == (0, 2)
    assert first_collision([1, 2, 3]) is None


@given(graph_and_labeling(), st.data())
def test_collision_state_matches_recompute(gl, data):
    g, lab = gl
    state = CollisionState(g, lab)
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
