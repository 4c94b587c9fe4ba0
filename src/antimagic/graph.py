"""Core graph, labeling, and vertex-sum machinery.

An edge labeling assigns positive integers to the edges of a simple
undirected graph; the weight (vertex sum) of a vertex is the sum of the
labels on its incident edges.  A total labeling is *antimagic* when it is a
bijection onto ``{1..m}`` and all ``n`` vertex sums are pairwise distinct.

Everything downstream (constructive labelers, the randomized pipeline, the
search oracle) reports to :func:`verify_antimagic`; no labeling is accepted
anywhere unless it passes this check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import eq, itemgetter
from typing import Iterable, Iterator, NoReturn, Optional

# Per-vertex sums; index = vertex id.
WeightMap = tuple[int, ...]


class GraphError(ValueError):
    """Structural problem with a graph, labeling, or operation precondition."""


class Graph:
    """Simple undirected graph on vertices ``0..n-1`` with canonical edges.

    Edges are stored with ascending endpoints and sorted lexicographically,
    so any construction that walks "arbitrary" edges in storage order is
    deterministic and reproducible.  Instances are value-like: the only
    state set after construction is the edge -> index map, built on first
    use and the same whoever builds it, so no method's answer ever changes
    and instances are safe to share across concurrent workers.
    """

    __slots__ = ("n", "edges", "_incident", "_index", "_graph6")
    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        pairs = edges if isinstance(edges, (list, tuple)) else list(edges)
        # A self-loop becomes (-1, u), so the negative-end check below rejects it.
        canon = [(u, v) if u < v else (v, u) if v < u else (-1, u) for u, v in pairs]
        # Two stable integer-key sorts give the lexicographic order at a
        # fraction of the cost of comparing tuples.
        canon.sort(key=itemgetter(1))
        canon.sort(key=itemgetter(0))
        if not canon or canon[0][0] >= 0 and not any(map(eq, canon, islice(canon, 1, None))):
            try:
                # no end is negative now, so only an end >= n can fail here
                _fill(self, n, canon)
                return
            except IndexError:
                pass
        _reject_edges(n, pairs)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self._incident))

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Indices of the edges incident with ``v``, ascending."""
        return self._incident[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        ends = map(self.edges.__getitem__, self._incident[v])
        return tuple([w if u == v else u for u, w in ends])

    def other_end(self, e: int, v: int) -> int:
        u, w = self.edges[e]
        if v == u:
            return w
        if v == w:
            return u
        raise GraphError(f"vertex {v} is not an endpoint of edge {e}")

    def _edge_map(self) -> dict[tuple[int, int], int]:
        """Edge -> index, built on first use: most graphs never need it."""
        if self._index is None:
            self._index = dict(zip(self.edges, range(len(self.edges))))
        return self._index

    def edge_index(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return (self._index or self._edge_map())[key]
        except KeyError:
            raise GraphError(f"no edge {key}") from None

    def has_edge(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in (self._index or self._edge_map())

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.neighbors(u):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _fill(g: Graph, n: int, edges) -> None:
    """Set ``g``'s slots from ``edges``, which must be canonical and sorted.

    Nothing is checked, except that an end >= n raises IndexError.
    """
    incident: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        incident[u].append(e)
        incident[v].append(e)
    g.n = n
    g.edges = tuple(edges)
    g._incident = tuple(map(tuple, incident))
    g._index = None
    g._graph6 = None


def _canonical_graph(n: int, edges, graph6: Optional[str] = None) -> Graph:
    """Trusted constructor: a ``Graph`` on ``edges`` without validation.

    The caller guarantees what ``Graph.__init__`` would check: every edge is
    ``(u, v)`` with ``0 <= u < v < n``, and the list is strictly increasing
    in lexicographic order, so it holds no loop and no duplicate.
    ``graph6``, when given, is the graph's graph6 line as ``io.emit_graph6``
    would write it.
    """
    g = Graph.__new__(Graph)
    _fill(g, n, edges)
    g._graph6 = graph6
    return g


def _reject_edges(n: int, pairs) -> NoReturn:
    """Raise the GraphError for the first bad edge, as a per-edge scan finds it.

    Self-loops and out-of-range ends are reported in input order, then the
    lexicographically first duplicate.
    """
    canon = []
    for u, v in pairs:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        canon.append((u, v) if u < v else (v, u))
    canon.sort()
    for i in range(1, len(canon)):
        if canon[i] == canon[i - 1]:
            raise GraphError(f"duplicate edge {canon[i]}")
    raise GraphError(f"invalid edge list for n={n}")


class Labeling:
    """Total assignment of positive labels to edges, by canonical edge index.

    The constructor checks only structure (one positive label per edge);
    whether the labels form a bijection onto ``{1..m}`` is the verifier's
    business, so that broken labelings can be reported rather than raised.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Iterable[int]):
        labs = tuple(map(int, labels))
        if labs and min(labs) < 1:
            bad = next(x for x in labs if x < 1)
            raise GraphError(f"labels must be positive, got {bad}")
        self.labels = labs

    @property
    def m(self) -> int:
        return len(self.labels)

    def items(self) -> Iterator[tuple[int, int]]:
        return enumerate(self.labels)

    def __getitem__(self, e: int) -> int:
        return self.labels[e]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"Labeling({list(self.labels)})"


class PartialLabeling:
    """Injective assignment of labels from a pool to a subset of edges.

    The pool may be larger than the edge set (completions draw from it).
    """

    __slots__ = ("pool", "assignment")

    def __init__(self, pool: Iterable[int], assignment: dict[int, int] | None = None):
        self.pool = frozenset(map(int, pool))
        if self.pool and min(self.pool) < 1:
            bad = next(x for x in self.pool if x < 1)
            raise GraphError(f"pool labels must be positive, got {bad}")
        self.assignment = dict(assignment or {})
        labs = self.assignment.values()
        if not self.pool.issuperset(labs) or len(set(labs)) < len(labs):
            # name the first offending entry, in insertion order
            seen = set()
            for e, lab in self.assignment.items():
                if lab not in self.pool:
                    raise GraphError(f"label {lab} on edge {e} is not in the pool")
                if lab in seen:
                    raise GraphError(f"label {lab} assigned to more than one edge")
                seen.add(lab)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self.assignment.items()))

    def unused_labels(self) -> list[int]:
        used = set(self.assignment.values())
        return sorted(self.pool - used)

    def is_total_for(self, g: Graph) -> bool:
        return len(self.assignment) == g.m and all(e in self.assignment for e in range(g.m))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialLabeling):
            return NotImplemented
        return self.pool == other.pool and self.assignment == other.assignment

    def __repr__(self) -> str:
        return f"PartialLabeling(pool={sorted(self.pool)}, assignment={self.assignment})"


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of an antimagic check.

    ``ok`` iff the labeling is a bijection onto ``{1..m}`` and all vertex
    sums are pairwise distinct.  On a sum collision, ``first_collision`` is
    the lexicographically smallest colliding vertex pair, which keeps test
    assertions deterministic.
    """

    ok: bool
    bijection_ok: bool
    first_collision: Optional[tuple[int, int]]


def vertex_sums(g: Graph, labeling: Labeling | PartialLabeling) -> WeightMap:
    """Per-vertex sums of assigned labels; unlabeled edges contribute nothing."""
    m = g.m
    if isinstance(labeling, PartialLabeling):
        assignment = labeling.assignment
        if assignment and not (0 <= min(assignment) and max(assignment) < m):
            bad = min(e for e in assignment if not 0 <= e < m)
            raise GraphError(f"edge index {bad} out of range for m={m}")
        labels = [0] * m
        for e, lab in assignment.items():
            labels[e] = lab
    else:
        labels = labeling.labels
        if len(labels) > m:
            raise GraphError(f"edge index {m} out of range for m={m}")
        if len(labels) < m:
            labels += (0,) * (m - len(labels))
    get = labels.__getitem__
    # itemgetter fetches a whole incidence in one call, but it needs two or
    # more indices to return a tuple
    sums = [sum(itemgetter(*inc)(labels)) if len(inc) > 1 else sum(map(get, inc))
            for inc in g._incident]
    return tuple(sums)


def first_collision(sums: Iterable[int]) -> Optional[tuple[int, int]]:
    """Lexicographically smallest pair of vertices with equal sums, if any."""
    sums = list(sums)
    if len(set(sums)) == len(sums):
        return None
    groups: dict[int, list[int]] = {}
    for v, s in enumerate(sums):
        groups.setdefault(s, []).append(v)
    best = None
    for members in groups.values():
        if len(members) >= 2:
            pair = (members[0], members[1])  # members ascend by construction
            if best is None or pair < best:
                best = pair
    return best


class CollisionState:
    """A mutable total labeling with its vertex sums and their collisions.

    ``members`` maps each sum to the vertices carrying it, ``collisions``
    counts colliding vertex pairs and ``colliding`` is the set of vertices
    whose sum is shared.  :meth:`swap` updates all of it by touching only
    the swapped edges' endpoints.  Bijectivity is left to
    :func:`verify_antimagic`.
    """

    __slots__ = ("g", "labels", "sums", "members", "collisions", "colliding")

    def __init__(self, g: Graph, labeling: Labeling):
        self.g = g
        self.labels = list(labeling.labels)
        self.sums = list(vertex_sums(g, labeling))
        self.members: dict[int, set[int]] = {}
        for v, s in enumerate(self.sums):
            self.members.setdefault(s, set()).add(v)
        self.collisions = sum(len(vs) * (len(vs) - 1) // 2 for vs in self.members.values())
        self.colliding = {v for v, s in enumerate(self.sums) if len(self.members[s]) >= 2}

    def swap(self, i: int, j: int) -> int:
        """Swap the labels of edges ``i`` and ``j``; return the change in
        ``collisions``.  Repeating the call undoes it.
        """
        labels = self.labels
        diff = labels[j] - labels[i]
        labels[i], labels[j] = labels[j], labels[i]
        before = self.collisions
        ei, ej = self.g.edges[i], self.g.edges[j]
        # a vertex on both edges gains and loses the same amount
        for x in ei:
            if x not in ej:
                self._move(x, diff)
        for x in ej:
            if x not in ei:
                self._move(x, -diff)
        return self.collisions - before

    def _move(self, x: int, dx: int) -> None:
        old = self.sums[x]
        self.sums[x] = old + dx
        group = self.members[old]
        group.remove(x)
        self.collisions -= len(group)
        self.colliding.discard(x)
        if len(group) == 1:
            self.colliding -= group
        elif not group:
            del self.members[old]
        group = self.members.setdefault(old + dx, set())
        self.collisions += len(group)
        if len(group) == 1:
            self.colliding |= group
        if group:
            self.colliding.add(x)
        group.add(x)


def verify_antimagic(g: Graph, labeling: Labeling) -> VerifyReport:
    """Check that ``labeling`` is an antimagic labeling of ``g``.

    Verification is total: missing or duplicated labels come back as
    ``bijection_ok=False`` rather than an exception.  Only a structural
    mismatch (the wrong number of labels) raises.  Sums are Python ints, so
    no graph is too large to check.
    """
    if labeling.m != g.m:
        raise GraphError(f"labeling has {labeling.m} labels for m={g.m}")
    # m labels that include each of 1..m are exactly 1..m
    bijection_ok = set(labeling.labels).issuperset(range(1, g.m + 1))
    collision = first_collision(vertex_sums(g, labeling))
    return VerifyReport(ok=bijection_ok and collision is None,
                        bijection_ok=bijection_ok,
                        first_collision=collision)
