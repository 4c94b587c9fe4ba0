import hashlib
import itertools

import pytest

from antimagic import partite
from antimagic.lab.generators import complete_partite_graph
from antimagic.graph import GraphError, verify_antimagic, vertex_sums
from antimagic.partite import antimagic_matrix, label_multipartite_on, snake_fill
from antimagic.special import _label_small_side


def row_sums(entries):
    return tuple(sum(row) for row in entries)


def col_sums(entries):
    return tuple(sum(col) for col in zip(*entries))


def all_sums_distinct(entries) -> bool:
    sums = row_sums(entries) + col_sums(entries)
    return len(set(sums)) == len(sums)


# The closed forms of the construction for k >= 3 classes, in the paper's
# notation: n1 = |A| for a smallest class A, m = |B| for the rest B, and q the
# number of edges inside B.

def parameters(sizes):
    """(n1, m, q) of the complete multipartite graph with these class sizes."""
    sizes = sorted(sizes)
    rest = sizes[1:]
    return sizes[0], sum(rest), sum(a * b for a, b in itertools.combinations(rest, 2))


def rest_weight_contribution(n1, m, q, j):
    """Total label mass A adds to the j-th vertex of B sorted by partial weight."""
    return n1 * (2 * q + 2 * j + m * (n1 - 1)) // 2


def small_class_weight(n1, m, q, i):
    """Closed-form weight of the i-th lightest vertex of A (1-based)."""
    if m % 2 == 1:
        return m * (2 * i + 2 * q + n1 * (m - 1)) // 2
    return m * (4 * i + 2 * q + n1 * (m - 2) - 1) // 2


@pytest.fixture
def universal_calls(monkeypatch):
    """The graphs the partite route hands to label_universal_vertex."""
    calls = []
    real = partite.label_universal_vertex

    def recorded(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(partite, "label_universal_vertex", recorded)
    return calls


def label(sizes):
    g = complete_partite_graph(sizes)
    return g, label_multipartite_on(g, blocks(sizes))


class TestMatrix:
    def test_1x2_trivial(self):
        entries = antimagic_matrix(1, 2)
        assert entries == ((1, 2),)
        assert row_sums(entries) == (3,) and col_sums(entries) == (1, 2)

    def test_3x4_no_repair_needed(self):
        entries = antimagic_matrix(3, 4)
        assert entries == ((1, 2, 3, 4), (8, 7, 6, 5), (9, 10, 11, 12))
        assert row_sums(entries) == (10, 26, 42)
        assert col_sums(entries) == (18, 19, 20, 21)

    def test_2x4_odds_evens_fallback(self):
        # base fill has R(1)=10=C(3), the i=1, m=2 case
        base = snake_fill(2, 4)
        assert sum(base[0]) == 10 and sum(r[2] for r in base) == 10
        entries = antimagic_matrix(2, 4)
        assert entries == ((1, 3, 5, 7), (2, 4, 6, 8))
        assert row_sums(entries) == (16, 20)
        assert col_sums(entries) == (3, 7, 11, 15)

    def test_1x1_rejected(self):
        with pytest.raises(GraphError):
            antimagic_matrix(1, 1)

    def test_transposed_orientation(self):
        entries = antimagic_matrix(4, 2)
        assert len(entries) == 4 and {len(row) for row in entries} == {2}
        assert sorted(x for row in entries for x in row) == list(range(1, 9))
        assert all_sums_distinct(entries)

    def test_exhaustive_small_range(self):
        for m in range(1, 13):
            for n in range(m, 13):
                if m * n < 2:
                    continue
                entries = antimagic_matrix(m, n)
                assert sorted(x for row in entries for x in row) == list(range(1, m * n + 1))
                assert all_sums_distinct(entries)

    def test_snake_structure(self):
        # pre-repair: row sums advance by n^2, column sums by 1 (m odd) or 2
        for m in range(1, 9):
            for n in range(max(m, 2), 9):
                a = snake_fill(m, n)
                r = [sum(row) for row in a]
                c = [sum(a[i][j] for i in range(m)) for j in range(n)]
                assert all(r[i] - r[i - 1] == n * n for i in range(1, m))
                step = 1 if m % 2 == 1 else 2
                assert all(c[j] - c[j - 1] == step for j in range(1, n))
                assert c[-1] - c[0] <= 2 * (n - 1)
                hits = [(i, j) for i in range(m) for j in range(n) if r[i] == c[j]]
                assert len(hits) <= 1


class TestBlockLayout:
    def test_sizes_sorted(self):
        g = complete_partite_graph((3, 1, 2))
        assert g == complete_partite_graph((1, 2, 3))
        assert g.degrees() == (5, 4, 4, 3, 3, 3)
        assert g.m == 11

    def test_rejects_empty_class(self):
        with pytest.raises(GraphError):
            complete_partite_graph((0, 2))


class TestMultipartite:
    def test_k222_full_trace(self):
        g, lab = label((2, 2, 2))
        sums = vertex_sums(g, lab)
        # small class = vertices 0,1; rest = 2..5
        assert sorted(sums[2:]) == [17, 20, 24, 27]
        assert sorted(sums[:2]) == [30, 38]
        assert verify_antimagic(g, lab).ok
        assert parameters((2, 2, 2)) == (2, 4, 4)
        for i in (1, 2):
            assert small_class_weight(2, 4, 4, i) == sorted(sums[:2])[i - 1]

    @pytest.mark.parametrize("sizes", [(2, 2, 3), (2, 3, 4), (4, 4, 5)])
    def test_small_class_weights_for_odd_rest(self, sizes):
        # the rest B = V minus the smallest class has odd size: 5, 7 and 9
        g, lab = label(sizes)
        sums = vertex_sums(g, lab)
        n1, m, q = parameters(sizes)
        assert m % 2 == 1
        assert sorted(sums[:n1]) == [small_class_weight(n1, m, q, i) for i in range(1, n1 + 1)]

    def test_k13_takes_the_1x3_matrix(self, universal_calls):
        # two classes take the matrix route, even when one is a single vertex
        g, lab = label((1, 3))
        assert lab.labels == antimagic_matrix(1, 3)[0] == (1, 2, 3)
        assert sorted(vertex_sums(g, lab)) == [1, 2, 3, 6]
        assert universal_calls == []

    def test_k123_delegates_to_universal(self, universal_calls):
        # three or more classes with a one-vertex smallest class do
        g, lab = label((1, 2, 3))
        assert universal_calls == [g]
        assert verify_antimagic(g, lab).ok

    def test_k2_rejected(self):
        with pytest.raises(GraphError):
            label((1, 1))

    @pytest.mark.parametrize("sizes", [(1,), (2,)])
    def test_one_class_rejected(self, sizes):
        # K1 and the edgeless pair: dispatch_label answers every edgeless
        # graph before it routes, so only a direct call gets here
        with pytest.raises(GraphError, match="^one class makes an edgeless graph, not a complete multipartite one$"):
            label(sizes)

    def test_k333_orderings(self):
        g, lab = label((3, 3, 3))
        assert verify_antimagic(g, lab).ok
        sums = vertex_sums(g, lab)
        rest_sorted = sorted(sums[3:])
        small_sorted = sorted(sums[:3])
        assert all(rest_sorted[i] < rest_sorted[i + 1] for i in range(len(rest_sorted) - 1))
        assert rest_sorted[-1] < small_sorted[0]
        assert all(small_sorted[i] < small_sorted[i + 1] for i in range(2))

    def test_weight_contribution_formula_including_even_exception(self):
        # the closed form must hold at every j, including j=m under the
        # even-m exceptional label
        for sizes in ((2, 2, 2), (2, 2, 3), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2)):
            g, lab = label(sizes)
            n1, m, q = parameters(sizes)
            small = list(range(n1))
            rest = list(range(n1, g.n))
            w_inside = [0] * g.n
            for e, (a, b) in enumerate(g.edges):
                if a in set(rest) and b in set(rest):
                    w_inside[a] += lab[e]
                    w_inside[b] += lab[e]
            order = sorted(rest, key=lambda u: (w_inside[u], u))
            for j, u in enumerate(order, start=1):
                contrib = sum(lab[g.edge_index(v, u)] for v in small)
                assert contrib == rest_weight_contribution(n1, m, q, j)

    def test_triangle_is_k111(self):
        g, lab = label((1, 1, 1))
        assert verify_antimagic(g, lab).ok

    def test_all_class_vectors_up_to_nine_vertices(self):
        for total in range(3, 10):
            for sizes in class_vectors(total):
                g, lab = label(sizes)
                assert verify_antimagic(g, lab).ok, sizes

    def test_singleton_class_takes_the_small_side_labels(self):
        # with a one-vertex smallest class and three or more classes the
        # route calls label_universal_vertex, which must give exactly the
        # labels of the small-side construction on that class
        for total in range(3, 10):
            for sizes in class_vectors(total):
                if sizes[0] == 1 and len(sizes) >= 3:
                    g, lab = label(sizes)
                    assert lab.labels == tuple(_label_small_side(g, blocks(sizes)[0])), sizes


def class_vectors(total):
    """Every class-size vector with at least two classes summing to ``total``,
    ascending within a vector."""
    def partitions(left, smallest):
        if left == 0:
            yield ()
            return
        for first in range(smallest, left + 1):
            for tail in partitions(left - first, first):
                yield (first,) + tail

    return [sizes for sizes in partitions(total, 1) if len(sizes) >= 2]


def blocks(sizes):
    """The vertex classes of ``complete_partite_graph(sizes)``: consecutive
    blocks, smallest class first."""
    out, start = [], 0
    for s in sorted(sizes):
        out.append(list(range(start, start + s)))
        start += s
    return out


# sha256 of the label_multipartite_on certificates of every class vector on
# 3..12 vertices (class_vectors order), then K_{25,40} and K_{8,20,26}, each on
# the block layout of complete_partite_graph
PARTITE_DIGEST = "5c0833fc3fcd9d3b0d4f14d2b14434a39be710a204f8c8a697a5462a03cab920"


def test_partite_certificates_are_pinned():
    folded = hashlib.sha256()
    vectors = [s for total in range(3, 13) for s in class_vectors(total)]
    for sizes in vectors + [(25, 40), (8, 20, 26)]:
        g = complete_partite_graph(sizes)
        lab = label_multipartite_on(g, blocks(sizes))
        assert verify_antimagic(g, lab).ok, sizes
        folded.update(repr(lab.labels).encode())
    assert folded.hexdigest() == PARTITE_DIGEST
