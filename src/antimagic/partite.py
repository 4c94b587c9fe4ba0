"""Antimagic labelings of complete multipartite graphs.

Bipartite graphs go through the matrix formulation: a snake-filled
``m x n`` label matrix already has distinct row sums in arithmetic
progression and tightly packed column sums, and at most one row/column
collision, which a single swap of two vertically adjacent cells repairs.
For three or more classes, the edges inside the large side get the small
labels, and the closed-form labels on the remaining edges make the weights
of the large side strictly increasing below the weights of the small side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .graph import Graph, GraphError, Labeling, _trusted_labeling, verify_antimagic
from .special import label_universal_vertex


@dataclass(frozen=True)
class LabelMatrix:
    """Matrix of the labels 1..rows*cols with all row and column sums distinct."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.entries) for j in range(self.cols))


@dataclass(frozen=True)
class PartiteSpec:
    """Class sizes of a complete multipartite graph, ascending.

    ``A`` is the first class (one of minimum size); ``B`` is everything
    else.  ``edges_inside_rest`` counts the edges with both endpoints in
    ``B`` (the spec's q).
    """

    class_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(x) for x in self.class_sizes)
        if not sizes or any(x < 1 for x in sizes):
            raise GraphError("class sizes must be positive")
        object.__setattr__(self, "class_sizes", tuple(sorted(sizes)))

    @property
    def k(self) -> int:
        return len(self.class_sizes)

    @property
    def total(self) -> int:
        return sum(self.class_sizes)

    @property
    def rest_size(self) -> int:
        return self.total - self.class_sizes[0]

    @property
    def edges_inside_rest(self) -> int:
        rest = self.class_sizes[1:]
        return sum(a * b for a, b in itertools.combinations(rest, 2))


def snake_fill(rows: int, cols: int) -> list[list[int]]:
    """Row ``i`` holds (i-1)n+1..in, increasing iff ``i`` is odd or last."""
    out = []
    for i in range(1, rows + 1):
        vals = list(range((i - 1) * cols + 1, i * cols + 1))
        if i % 2 == 0 and i != rows:
            vals.reverse()
        out.append(vals)
    return out


def antimagic_matrix(rows: int, cols: int) -> LabelMatrix:
    """Fill an ``rows x cols`` matrix with 1..rows*cols, all sums distinct.

    Works on the normalized orientation (wide), transposing the result back
    when the caller asked for more rows than columns.  ``rows*cols >= 2``:
    the 1x1 matrix is the bipartite K2, which has no valid assignment.
    """
    if rows < 1 or cols < 1:
        raise GraphError("matrix dimensions must be positive")
    if rows * cols < 2:
        raise GraphError("1x1 matrix corresponds to K2, which is not antimagic")
    transpose = rows > cols
    mm, nn = (cols, rows) if transpose else (rows, cols)
    a = snake_fill(mm, nn)
    r = [sum(row) for row in a]
    c = [sum(a[i][j] for i in range(mm)) for j in range(nn)]
    hits = [(i, j) for i in range(mm) for j in range(nn) if r[i] == c[j]]
    if len(hits) > 1:
        raise AssertionError("snake fill admits at most one row/column collision")
    if hits:
        i, _ = hits[0]
        if i + 1 >= mm:
            raise AssertionError("collision can never involve the last row")
        if i > 0:
            col = 0 if (i + 1) % 2 == 0 else nn - 1
            if a[i][col] - a[i - 1][col] != 2 * nn - 1:
                raise AssertionError("adjacent cells must differ by 2n-1")
            a[i][col], a[i - 1][col] = a[i - 1][col], a[i][col]
        elif mm >= 3:
            a[1][0], a[0][0] = a[0][0], a[1][0]
        else:
            # 2 x nn with R(1) colliding: odds across the first row, evens
            # across the second; then min row sum nn^2 beats max column sum
            a = [list(range(1, 2 * nn, 2)), list(range(2, 2 * nn + 1, 2))]
    entries = tuple(tuple(row) for row in a)
    if transpose:
        entries = tuple(zip(*entries))
    mat = LabelMatrix(rows, cols, tuple(tuple(row) for row in entries))
    sums = mat.row_sums() + mat.col_sums()
    if len(set(sums)) != len(sums):
        raise AssertionError("matrix construction left a sum collision")
    return mat


def canonical_multipartite_graph(spec: PartiteSpec) -> Graph:
    """All cross-class edges, classes as consecutive vertex blocks."""
    bounds = [0]
    for s in spec.class_sizes:
        bounds.append(bounds[-1] + s)
    cls = []
    for i in range(spec.k):
        cls.append(list(range(bounds[i], bounds[i + 1])))
    edges = []
    for i, j in itertools.combinations(range(spec.k), 2):
        edges.extend((u, v) for u in cls[i] for v in cls[j])
    return Graph(spec.total, edges)


def label_complete_multipartite(spec: PartiteSpec) -> Labeling:
    """Antimagic labeling of the canonical complete multipartite graph."""
    g = canonical_multipartite_graph(spec)
    classes = []
    start = 0
    for s in spec.class_sizes:
        classes.append(list(range(start, start + s)))
        start += s
    return label_multipartite_on(g, classes)


def label_multipartite_on(g: Graph, classes: Sequence[Sequence[int]]) -> Labeling:
    """Label a complete multipartite graph given its vertex classes.

    ``classes`` must partition the vertices with all cross edges present;
    callers that recognized the structure pass their partition here.
    """
    classes = sorted((sorted(c) for c in classes), key=lambda c: (len(c), c))
    k = len(classes)
    n = g.n
    if n == 1:
        return Labeling([])
    if k == 1:
        raise GraphError("an edgeless graph on 2+ vertices has all sums zero")
    if n == 2:
        raise GraphError("K2 is not antimagic")
    if k == 2:
        return _label_bipartite(g, classes)
    if len(classes[0]) == 1:
        return label_universal_vertex(g)
    lab = _label_high_partite(g, classes)
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("multipartite construction produced a collision")
    return lab


def _label_bipartite(g: Graph, classes) -> Labeling:
    rows, cols = classes
    mat = antimagic_matrix(len(rows), len(cols))
    labels = [0] * g.m
    for i, u in enumerate(rows):
        for j, v in enumerate(cols):
            labels[g.edge_index(u, v)] = mat.entries[i][j]
    lab = _trusted_labeling(labels)
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("bipartite construction produced a collision")
    return lab


def _label_high_partite(g: Graph, classes) -> Labeling:
    small = classes[0]
    n1 = len(small)
    rest = sorted(v for c in classes[1:] for v in c)
    m = len(rest)
    rest_set = set(rest)
    labels = [0] * g.m
    w = [0] * g.n
    nxt = 1
    for e, (a, b) in enumerate(g.edges):
        if a in rest_set and b in rest_set:
            labels[e] = nxt
            w[a] += nxt
            w[b] += nxt
            nxt += 1
    q = nxt - 1
    order = sorted(rest, key=lambda u: (w[u], u))
    for j, u in enumerate(order, start=1):
        for i, v in enumerate(small, start=1):
            if j == m and m % 2 == 0:
                lab = i * m + q
            elif j % 2 == 1:
                lab = (i - 1) * m + j + q
            else:
                lab = (n1 - i) * m + j + q
            labels[g.edge_index(v, u)] = lab
    return Labeling(labels)


def rest_weight_contribution(n1: int, m: int, q: int, j: int) -> int:
    """Total label mass the small class adds to the j-th sorted rest vertex."""
    return n1 * (2 * q + 2 * j + m * (n1 - 1)) // 2


def small_class_weight(n1: int, m: int, q: int, i: int) -> int:
    """Closed-form weight of the i-th small-class vertex (1-based)."""
    if m % 2 == 1:
        return m * (2 * i + 2 * q + n1 * (m - 1)) // 2
    return m * (4 * i + 2 * q + n1 * (m - 2) - 1) // 2
