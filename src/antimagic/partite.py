"""Antimagic labelings of complete multipartite graphs.

Bipartite graphs go through the matrix formulation: a snake-filled
``m x n`` label matrix already has distinct row sums in arithmetic
progression and tightly packed column sums, and at most one row/column
collision, which a single swap of two vertically adjacent cells repairs.
For three or more classes, the edges inside the large side B get the small
labels, and the closed-form labels on the edges at the smallest class A make
the weights of B strictly increasing below the weights of A.  The
maximum-degree n-1 construction is the case |A| = 1 of the same scheme, so
both build their labels with ``special._label_small_side``.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph, GraphError, Labeling, _trusted_labeling, verify_antimagic
from .special import _label_small_side, label_universal_vertex


def snake_fill(rows: int, cols: int) -> list[list[int]]:
    """Row ``i`` holds (i-1)n+1..in, increasing iff ``i`` is odd or last."""
    out = []
    for i in range(1, rows + 1):
        vals = list(range((i - 1) * cols + 1, i * cols + 1))
        if i % 2 == 0 and i != rows:
            vals.reverse()
        out.append(vals)
    return out


def antimagic_matrix(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """The rows of a ``rows x cols`` matrix holding 1..rows*cols, with all
    row and column sums distinct.

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
    c = [sum(col) for col in zip(*a)]
    shared = set(r).intersection(c)
    hits = [(i, j) for i, x in enumerate(r) if x in shared for j, y in enumerate(c) if y == x]
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
    sums = [sum(row) for row in entries] + [sum(col) for col in zip(*entries)]
    if len(set(sums)) != len(sums):
        raise AssertionError("matrix construction left a sum collision")
    return entries


def label_multipartite_on(g: Graph, classes: Sequence[Sequence[int]]) -> Labeling:
    """Label a complete multipartite graph given its vertex classes.

    ``classes`` must partition the vertices with all cross edges present;
    callers that recognized the structure pass their partition here.
    """
    classes = sorted((sorted(c) for c in classes), key=lambda c: (len(c), c))
    k = len(classes)
    if k == 1:
        raise GraphError("one class makes an edgeless graph, not a complete multipartite one")
    if g.n == 2:
        raise GraphError("K2 is not antimagic")
    if k > 2 and len(classes[0]) == 1:
        # _label_small_side(g, classes[0]) would give the same labels, since
        # the hub label_universal_vertex picks is that class's vertex; the
        # call keeps the route on the universal-vertex layer that
        # bench/tracing.py times
        return label_universal_vertex(g)
    labels = _bipartite_labels(g, *classes) if k == 2 else _label_small_side(g, classes[0])
    lab = _trusted_labeling(labels)
    if not verify_antimagic(g, lab).ok:
        raise AssertionError("multipartite construction produced a collision")
    return lab


def _bipartite_labels(g: Graph, rows, cols) -> list[int]:
    """Unverified labels of the matrix construction: the rows of
    ``antimagic_matrix`` go to the smaller class ``rows``."""
    entries = antimagic_matrix(len(rows), len(cols))
    labels = [0] * g.m
    # A row vertex's edges, ascending, reach the sorted columns in order.
    for u, row in zip(rows, entries):
        for e, x in zip(g.incident_edges(u), row):
            labels[e] = x
    return labels
