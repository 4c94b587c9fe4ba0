import itertools

import pytest

from antimagic.graph import GraphError, verify_antimagic, vertex_sums
from antimagic.partite import (
    LabelMatrix,
    PartiteSpec,
    antimagic_matrix,
    canonical_multipartite_graph,
    label_complete_multipartite,
    rest_weight_contribution,
    small_class_weight,
    snake_fill,
)


def all_sums_distinct(mat: LabelMatrix) -> bool:
    sums = mat.row_sums() + mat.col_sums()
    return len(set(sums)) == len(sums)


class TestMatrix:
    def test_1x2_trivial(self):
        mat = antimagic_matrix(1, 2)
        assert mat.entries == ((1, 2),)
        assert mat.row_sums() == (3,) and mat.col_sums() == (1, 2)

    def test_3x4_no_repair_needed(self):
        mat = antimagic_matrix(3, 4)
        assert mat.entries == ((1, 2, 3, 4), (8, 7, 6, 5), (9, 10, 11, 12))
        assert mat.row_sums() == (10, 26, 42)
        assert mat.col_sums() == (18, 19, 20, 21)

    def test_2x4_odds_evens_fallback(self):
        # base fill has R(1)=10=C(3), the i=1, m=2 case
        base = snake_fill(2, 4)
        assert sum(base[0]) == 10 and sum(r[2] for r in base) == 10
        mat = antimagic_matrix(2, 4)
        assert mat.entries == ((1, 3, 5, 7), (2, 4, 6, 8))
        assert mat.row_sums() == (16, 20)
        assert mat.col_sums() == (3, 7, 11, 15)

    def test_1x1_rejected(self):
        with pytest.raises(GraphError):
            antimagic_matrix(1, 1)

    def test_transposed_orientation(self):
        mat = antimagic_matrix(4, 2)
        assert mat.rows == 4 and mat.cols == 2
        assert sorted(x for row in mat.entries for x in row) == list(range(1, 9))
        assert all_sums_distinct(mat)

    def test_exhaustive_small_range(self):
        for m in range(1, 13):
            for n in range(m, 13):
                if m * n < 2:
                    continue
                mat = antimagic_matrix(m, n)
                assert sorted(x for row in mat.entries for x in row) == list(range(1, m * n + 1))
                assert all_sums_distinct(mat)

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


class TestPartiteSpec:
    def test_sizes_sorted_and_derived(self):
        spec = PartiteSpec((3, 1, 2))
        assert spec.class_sizes == (1, 2, 3)
        assert spec.rest_size == 5
        assert spec.edges_inside_rest == 6

    def test_k222_derived(self):
        spec = PartiteSpec((2, 2, 2))
        assert spec.rest_size == 4 and spec.edges_inside_rest == 4

    def test_rejects_empty_class(self):
        with pytest.raises(GraphError):
            PartiteSpec((0, 2))


class TestMultipartite:
    def test_k222_full_trace(self):
        spec = PartiteSpec((2, 2, 2))
        g = canonical_multipartite_graph(spec)
        lab = label_complete_multipartite(spec)
        sums = vertex_sums(g, lab)
        # small class = vertices 0,1; rest = 2..5
        assert sorted(sums[2:]) == [17, 20, 24, 27]
        assert sorted(sums[:2]) == [30, 38]
        assert verify_antimagic(g, lab).ok
        for i in (1, 2):
            assert small_class_weight(2, 4, 4, i) == sorted(sums[:2])[i - 1]

    @pytest.mark.parametrize("sizes", [(2, 2, 3), (2, 3, 4), (4, 4, 5)])
    def test_small_class_weights_for_odd_rest(self, sizes):
        # the rest B = V minus the smallest class has odd size: 5, 7 and 9
        spec = PartiteSpec(sizes)
        g = canonical_multipartite_graph(spec)
        sums = vertex_sums(g, label_complete_multipartite(spec))
        n1, m, q = spec.class_sizes[0], spec.rest_size, spec.edges_inside_rest
        assert m % 2 == 1
        assert sorted(sums[:n1]) == [small_class_weight(n1, m, q, i) for i in range(1, n1 + 1)]

    def test_k13_delegates_to_universal(self):
        spec = PartiteSpec((1, 3))
        g = canonical_multipartite_graph(spec)
        lab = label_complete_multipartite(spec)
        assert sorted(vertex_sums(g, lab)) == [1, 2, 3, 6]

    def test_k2_rejected(self):
        with pytest.raises(GraphError):
            label_complete_multipartite(PartiteSpec((1, 1)))

    def test_k333_orderings(self):
        spec = PartiteSpec((3, 3, 3))
        g = canonical_multipartite_graph(spec)
        lab = label_complete_multipartite(spec)
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
            spec = PartiteSpec(sizes)
            g = canonical_multipartite_graph(spec)
            lab = label_complete_multipartite(spec)
            n1 = spec.class_sizes[0]
            m = spec.rest_size
            q = spec.edges_inside_rest
            small = list(range(n1))
            rest = list(range(n1, spec.total))
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
        spec = PartiteSpec((1, 1, 1))
        g = canonical_multipartite_graph(spec)
        lab = label_complete_multipartite(spec)
        assert verify_antimagic(g, lab).ok

    def test_all_class_vectors_up_to_nine_vertices(self):
        def partitions(total, max_part):
            if total == 0:
                yield ()
                return
            for first in range(1, min(total, max_part) + 1):
                for tail in partitions(total - first, first):
                    yield (first,) + tail

        for total in range(3, 10):
            for sizes in partitions(total, total):
                if len(sizes) < 2:
                    continue
                spec = PartiteSpec(sizes)
                g = canonical_multipartite_graph(spec)
                lab = label_complete_multipartite(spec)
                assert verify_antimagic(g, lab).ok, sizes
