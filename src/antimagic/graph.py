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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import count, islice
from operator import index, itemgetter
from random import Random
from typing import Iterable, Optional

# Per-vertex sums; index = vertex id.
WeightMap = tuple[int, ...]


class GraphError(ValueError):
    """Structural problem with a graph, labeling, or operation precondition."""


def check_knobs(**knobs) -> None:
    """Raise GraphError unless every knob given is an integer, and every one
    but ``seed`` (``d``, the lab's ``trials``) a positive one.

    A value is read through ``__index__``, so a float is refused rather than
    truncated.  ``d`` may be None, the dense pipeline's default; its message
    calls it the minimum-degree parameter.  ``seed`` may be any integer,
    zero and negatives included, but not None: that would seed from the
    operating system, and the same call would no longer give the same
    labeling.
    """
    for name, value in knobs.items():
        if name == "d":
            if value is None:
                continue
            name = "minimum-degree parameter"
        try:
            value = index(value)
        except TypeError:
            raise GraphError(f"{name} must be an integer, got {value!r}") from None
        if value < 1 and name != "seed":
            raise GraphError(f"{name} must be positive")


class Graph:
    """Simple undirected graph on vertices ``0..n-1`` with canonical edges.

    Edge ``e`` joins ``lo[e] < hi[e]``, and the edges are sorted
    lexicographically by ``(lo, hi)``, so any construction that walks
    "arbitrary" edges in storage order is deterministic and reproducible.
    The ends are kept in these two flat lists, a slot each, not as one
    ``(u, v)`` tuple per edge: about 16 bytes per edge, where a pair and
    its slot take 64, since the parsers give all the edges at a vertex one
    shared int.  Beside them sit each vertex's ascending incidence, a tuple of
    edge ids in which an edge's two ends share one id int (about 46 bytes
    per edge), and the degree tuple, set at construction, so degree queries
    build nothing.  A parsed graph takes about 64 bytes per edge at
    m = 111,596.  :attr:`edges` builds the pairs afresh on each read, for
    callers outside the package.  Instances are value-like: nothing changes
    after construction (no code changes ``lo`` or ``hi``), so instances are
    safe to share across concurrent workers.
    """

    __slots__ = ("n", "lo", "hi", "_incident", "_degrees", "_graph6")
    n: int
    lo: list[int]
    hi: list[int]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        # n and the ends are read through __index__, as Labeling reads labels
        try:
            n = index(n)
        except TypeError:
            raise GraphError(f"vertex count must be an integer, got {n!r}") from None
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        # loops and range in input order, then the lexicographically first duplicate
        canon = []
        for edge in edges:
            try:
                u, v = map(index, edge)
            except (TypeError, ValueError):
                raise GraphError(f"edge {edge!r} is not a pair of integers") from None
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for prev, edge in zip(canon, islice(canon, 1, None)):
            if prev == edge:
                raise GraphError(f"duplicate edge {edge}")
        _fill(self, n, list(map(itemgetter(0), canon)), list(map(itemgetter(1), canon)))

    @property
    def m(self) -> int:
        return len(self.lo)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as ``(lo[e], hi[e])`` pairs, for callers outside the
        package; each read builds all m pairs afresh."""
        return tuple(zip(self.lo, self.hi))

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    def max_degree(self) -> int:
        return max(self._degrees, default=0)

    def min_degree(self) -> int:
        return min(self._degrees, default=0)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Indices of the edges incident with ``v``, ascending."""
        return self._incident[v]

    def neighbors(self, v: int) -> tuple[int, ...]:
        lo, hi = self.lo, self.hi
        return tuple([hi[e] if lo[e] == v else lo[e] for e in self._incident[v]])

    def edge_index(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        lo = self.lo
        start = bisect_left(lo, u)
        end = bisect_right(lo, u, start)
        e = bisect_left(self.hi, v, start, end)
        if e == end or self.hi[e] != v:
            raise GraphError(f"no edge {(u, v)}")
        return e

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
        return self.n == other.n and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.lo), tuple(self.hi)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _fill(g: Graph, n: int, lo: list[int], hi: list[int]) -> None:
    """Set ``g``'s slots from the edge ends ``lo`` and ``hi``, which must be
    canonical and sorted.

    Builds the incidence, one id int per edge shared by both ends: about
    46 bytes per edge beside the 16 of the two lists.  Each vertex's list
    is replaced by its tuple in turn, so the lists and the tuples never all
    exist at once: the build peaks about 18 bytes per edge lower than
    converting them all in one go.  Nothing is checked.
    """
    incident: list = [[] for _ in range(n)]
    for e, u, v in zip(count(), lo, hi):
        incident[u].append(e)
        incident[v].append(e)
    g._degrees = tuple(map(len, incident))
    for v, inc in enumerate(incident):
        incident[v] = tuple(inc)
    g.n = n
    g.lo = lo
    g.hi = hi
    g._incident = tuple(incident)
    g._graph6 = None


def _canonical_graph(n: int, lo: list[int], hi: list[int],
                     graph6: Optional[str] = None) -> Graph:
    """Trusted constructor: a ``Graph`` on the edges ``(lo[e], hi[e])``
    without validation.

    The caller guarantees what ``Graph.__init__`` would check: ``lo`` and
    ``hi`` have one entry per edge, ``0 <= lo[e] < hi[e] < n``, and the
    pairs are strictly increasing in lexicographic order, so they hold no
    loop and no duplicate.  ``graph6``, when given, is the graph's graph6
    line as ``io.emit_graph6`` would write it.
    """
    g = Graph.__new__(Graph)
    _fill(g, n, lo, hi)
    g._graph6 = graph6
    return g


class Labeling:
    """Total assignment of positive labels to edges, by canonical edge index.

    The constructor checks only structure (one positive integer label per
    edge, read with ``operator.index``, so a float is refused rather than
    truncated); whether the labels form a bijection onto ``{1..m}`` is the
    verifier's business, so that broken labelings can be reported rather
    than raised.

    :func:`_trusted_labeling` skips those checks.  Only a labeler may use it,
    on a list of ints it built from ``1..m`` itself, and only when the same
    function passes the result to :func:`verify_antimagic` before returning
    it: the verifier's bijection check then covers positivity.  Everything
    else, input from outside above all, goes through the constructor.
    """

    __slots__ = ("labels",)

    def __init__(self, labels: Iterable[int]):
        labs = tuple(labels)
        try:
            labs = tuple(map(index, labs))
        except TypeError:
            bad = next(x for x in labs if not hasattr(type(x), "__index__"))
            raise GraphError(f"labels must be integers, got {bad!r}") from None
        if labs and min(labs) < 1:
            bad = next(x for x in labs if x < 1)
            raise GraphError(f"labels must be positive, got {bad}")
        self.labels = labs

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


def _trusted_labeling(labels: list[int]) -> Labeling:
    """Trusted constructor: a ``Labeling`` on ``labels`` without checks.

    See :class:`Labeling` for when a caller may use it.
    """
    lab = Labeling.__new__(Labeling)
    lab.labels = tuple(labels)
    return lab


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


def vertex_sums(g: Graph, labeling: Labeling) -> WeightMap:
    """Per-vertex sums of a labeling with one label per edge."""
    labels = labeling.labels
    if len(labels) != len(g.lo):
        raise GraphError(f"labeling has {len(labels)} labels for m={g.m}")
    return tuple(_sums(g, labels))


def _sums(g: Graph, labels) -> list[int]:
    """Per-vertex sums of ``labels``, which holds one label per edge of ``g``.

    The loop is picked by density.  When m <= 4n (average degree at most
    8), one pass over the edges adds each label to both ends; on denser
    graphs each vertex sums its incidence, whose ``sum`` adds in C.  On
    random graphs with n = 30 to 4,000 (Python 3.11, 2 vCPUs), the pass
    over the edges takes 0.5 to 0.8 of the incidence loop's time at
    m = 2n, 0.8 to 1.3 at m = 4n, the crossover, and 1.1 to 1.6 at m = 6n.
    Either way the sums take one list of n ints beyond the input.
    """
    n = g.n
    if len(g.lo) <= 4 * n:
        sums = [0] * n
        for lab, u, v in zip(labels, g.lo, g.hi):
            sums[u] += lab
            sums[v] += lab
        return sums
    get = labels.__getitem__
    # itemgetter fetches a whole incidence in one call, but it needs two or
    # more indices to return a tuple
    return [sum(itemgetter(*inc)(labels)) if len(inc) > 1 else sum(map(get, inc))
            for inc in g._incident]


def first_collision(sums: Iterable[int]) -> Optional[tuple[int, int]]:
    """Lexicographically smallest pair of vertices with equal sums, if any.

    One pass keeps the first vertex of each sum.  The smallest pair is the
    first two vertices of some sum, and each vertex that repeats a sum makes
    a candidate pair with that sum's first vertex.
    """
    first: dict[int, int] = {}
    best = None
    for v, s in enumerate(sums):
        u = first.setdefault(s, v)
        if u != v and (best is None or (u, v) < best):
            best = (u, v)
    return best


class CollisionState:
    """A mutable total labeling with its vertex sums and their collisions.

    ``labels`` is the list given to the constructor, not a copy: the state
    owns it from then on, and :meth:`swap` permutes it in place.
    ``members`` maps each sum to the vertices carrying it, ``collisions``
    counts colliding vertex pairs and ``colliding`` is the set of vertices
    whose sum is shared.  :meth:`swap` updates all of it by touching only
    the swapped edges' endpoints, which it reads from the graph's ``lo``
    and ``hi`` lists.  The constructor takes the sums from :func:`_sums`,
    one pass over the edges when m <= 4n and the incidence loop above that.
    Beyond the graph the state takes the label list, 8 bytes per edge, and
    its ints, 28 more unless they are the graph's own edge id ints, as on
    the dense route.  Bijectivity is left to :func:`verify_antimagic`.

    The iteration order of ``colliding`` is part of the contract, because
    the search draws from ``tuple(colliding)``.  That order follows the
    exact sequence of set operations, so the constructor adds the colliding
    vertices in ascending order, and :meth:`swap` takes the moved endpoints
    in edge order.  For each one, x, leaving a shared sum does
    ``discard(x)``, then ``-=`` the group left behind if one vertex is left
    in it; joining a taken sum does ``|=`` that group if it held one vertex,
    then ``add(x)``.  The in-place operators are not interchangeable with
    ``discard`` and ``add``: they resize the table by other rules, and so
    reorder it.
    """

    __slots__ = ("g", "labels", "sums", "members", "collisions", "colliding")

    def __init__(self, g: Graph, labels: list[int]):
        if len(labels) != g.m:
            raise GraphError(f"{len(labels)} labels for m={g.m}")
        self.g = g
        self.labels = labels
        self.sums = sums = _sums(g, labels)
        members: dict[int, set[int]] = {}
        self.members = members
        get = members.get
        collisions = 0
        for v, s in enumerate(sums):
            group = get(s)
            if group is None:
                members[s] = {v}
            else:
                collisions += len(group)
                group.add(v)
        self.collisions = collisions
        self.colliding = {v for v, s in enumerate(sums) if len(members[s]) >= 2}

    def swap(self, i: int, j: int) -> int:
        """Swap the labels of edges ``i`` and ``j``; return the change in
        ``collisions``.  Repeating the call undoes it.
        """
        labels = self.labels
        a = labels[i]
        b = labels[j]
        labels[i] = b
        labels[j] = a
        lo = self.g.lo
        hi = self.g.hi
        p = lo[i]
        q = hi[i]
        r = lo[j]
        s = hi[j]
        sums = self.sums
        members = self.members
        get = members.get
        colliding = self.colliding
        collisions = self.collisions
        dx = b - a
        # The ends in edge order, i's then j's: i's gain b - a and j's lose
        # it, except a vertex on both edges, whose sum does not change.
        for x in (p, q, r, s):
            if x == p or x == q:
                if x == r or x == s:
                    continue
                old = sums[x]
                new = old + dx
            else:
                old = sums[x]
                new = old - dx
            sums[x] = new
            group = members[old]
            if len(group) > 1:
                group.remove(x)
                k = len(group)
                collisions -= k
                colliding.discard(x)
                if k == 1:
                    colliding -= group
                group = None
            else:
                # x was alone, so not colliding; its set moves with it
                # if the new sum is free
                del members[old]
            joined = get(new)
            if joined is None:
                members[new] = group or {x}
            else:
                k = len(joined)
                collisions += k
                if k == 1:
                    colliding |= joined
                colliding.add(x)
                joined.add(x)
        change = collisions - self.collisions
        self.collisions = collisions
        return change


# The draws below reproduce the ``random.Random`` methods named in their
# docstrings output for output: the same 32-bit generator outputs in the same
# order, hence the same values and the same generator state, without the
# methods' layers of Python calls.  A seed therefore gives the same labeling
# as code written with those methods.

def _below(n: int, getrandbits) -> int:
    """A draw from ``range(n)``, ``n >= 1``, exactly as ``Random._randbelow``.

    ``getrandbits`` is the generator's bound method.  Like the stdlib, it
    redraws ``getrandbits(k)``, with k the bit length of n, until the draw
    is below n; so ``seq[_below(len(seq), getrandbits)]`` is
    ``rng.choice(seq)`` and ``_below(n, getrandbits)`` is ``rng.randrange(n)``.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(x: list, rng: Random) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` does.

    For i from len(x)-1 down to 1 it draws ``getrandbits(k)``, with k the
    bit length of i+1, until the draw is at most i, then swaps x[i] with
    that entry: ``Random.shuffle``'s calls and swaps, without its two
    method calls per entry.  k changes only at powers of two, so it is
    computed once per run of equal sizes.
    """
    getrandbits = rng.getrandbits
    hi = len(x) - 1
    while hi > 0:
        k = (hi + 1).bit_length()
        lo = max(1, (1 << (k - 1)) - 1)
        for i in range(hi, lo - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        hi = lo - 1


# ``randrange(2)`` reads the top two bits of one 32-bit output, and redraws
# while they read 2 or 3.  An output's top byte is byte 3 of its 4 in a
# little-endian ``getrandbits`` word array: below 128 it gives the coin bit 6,
# from 128 on it is redrawn.
_COIN_BIT = bytes(b >> 6 & 1 for b in range(256))
_REDRAWN = bytes(range(128, 256))


def _coins(n: int, rng: Random) -> list[int]:
    """``n`` fair coins, exactly as ``[rng.randrange(2) for _ in range(n)]``.

    Word i of ``getrandbits(32 * k)`` is the generator's i-th 32-bit output,
    the word the i-th ``getrandbits(2)`` would shift down.  So each batch
    draws one word per coin still missing, keeps the coins of the words
    ``randrange(2)`` accepts and drops the rest.  A batch never draws more
    words than coins are missing, so the generator ends in the state the
    stdlib calls leave it in.
    """
    getrandbits = rng.getrandbits
    out = bytearray()
    while len(out) < n:
        need = n - len(out)
        out += getrandbits(32 * need).to_bytes(4 * need, "little")[3::4].translate(_COIN_BIT, _REDRAWN)
    return list(out)


def _is_permutation(labels) -> bool:
    """Whether the m ints in ``labels`` are exactly 1..m.

    Ints in 1..m are 1..m when they mark every slot 1..m of a tally: m + 1
    bytes, where a set of the labels would take about 40 bytes per label.
    """
    m = len(labels)
    if m and (min(labels) < 1 or max(labels) > m):
        return False
    seen = bytearray(m + 1)
    for x in labels:
        seen[x] = 1
    return seen.count(0) == 1


def verify_antimagic(g: Graph, labeling: Labeling) -> VerifyReport:
    """Check that ``labeling`` is an antimagic labeling of ``g``.

    Verification is total: missing or duplicated labels come back as
    ``bijection_ok=False`` rather than an exception.  Only a structural
    mismatch (the wrong number of labels) raises.  Sums are Python ints, so
    no graph is too large to check.  Beyond its input the check takes one
    byte per edge for the bijection tally (:func:`_is_permutation`), then
    the vertex sums and the set that compares them: about 3 bytes per edge
    at n = 4,000, m = 111,596.  The sums come from :func:`_sums`, one pass
    over the edges when m <= 4n and the incidence loop above that, where
    the pass over the edges is the slower of the two.
    """
    labels = labeling.labels
    m = len(labels)
    if m != len(g.lo):
        raise GraphError(f"labeling has {m} labels for m={g.m}")
    bijection_ok = _is_permutation(labels)
    sums = _sums(g, labels)
    if len(set(sums)) == len(sums):
        return _DISTINCT_BIJECTION if bijection_ok else _DISTINCT_NOT_BIJECTION
    return VerifyReport(ok=False, bijection_ok=bijection_ok,
                        first_collision=first_collision(sums))


# The two reports with no collision, shared: a VerifyReport is frozen.
_DISTINCT_BIJECTION = VerifyReport(ok=True, bijection_ok=True, first_collision=None)
_DISTINCT_NOT_BIJECTION = VerifyReport(ok=False, bijection_ok=False, first_collision=None)
