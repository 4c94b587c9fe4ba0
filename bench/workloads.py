"""Seeded request streams for the labeling benchmark.

Every workload is a list of ``Case`` objects built from one integer seed.
A case carries the text the program receives (a graph6 line or an edge-list
document) and, for the benchmark's own certificate check, the same graph's
edges sorted the way ``antimagic.graph.Graph`` stores them.  Generation uses
only numpy and the standard library, so the program under test never helps
build its own inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

# Edge lists above this size arrive as graph6 instead, which bounds the cost
# of the quadratic edge-list parser at the seed commit.
EDGELIST_MAX_EDGES = 6000

G6 = "graph6"
EDGELIST = "edgelist"


@dataclass(frozen=True)
class Case:
    family: str
    n: int
    fmt: str
    text: str
    edges: np.ndarray  # (m, 2) int64, u < v, lexicographically sorted

    @property
    def m(self) -> int:
        return len(self.edges)


# ---------------------------------------------------------------------------
# encoders
# ---------------------------------------------------------------------------

def canonical(edges: np.ndarray) -> np.ndarray:
    """Edges as ``u < v`` rows in lexicographic order, as ``Graph`` keeps them."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = np.sort(e, axis=1)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    if len(e) and ((e[:, 0] == e[:, 1]).any() or (np.diff(e, axis=0) == 0).all(axis=1).any()):
        raise ValueError("generator produced a loop or a repeated edge")
    return e


def graph6(n: int, edges: np.ndarray) -> str:
    """graph6 line: size prefix, then the upper triangle column by column."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    nbits = n * (n - 1) // 2
    bits = np.zeros(nbits + (-nbits) % 6, dtype=np.uint8)
    u, v = edges[:, 0], edges[:, 1]
    bits[v * (v - 1) // 2 + u] = 1
    vals = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)
    return head + (vals + 63).astype(np.uint8).tobytes().decode("ascii")


def edgelist(n: int, edges: np.ndarray, rng: np.random.Generator) -> str:
    """Header ``n m``, then the edges in shuffled order with shuffled ends."""
    e = edges[rng.permutation(len(edges))]
    flip = rng.random(len(e)) < 0.5
    e[flip] = e[flip][:, ::-1]
    lines = [f"{n} {len(e)}"]
    lines.extend(f"{u} {v}" for u, v in e.tolist())
    return "\n".join(lines) + "\n"


def make_case(family: str, n: int, edges, rng: np.random.Generator,
              fmt: str | None = None) -> Case:
    e = canonical(edges)
    if fmt is None:
        fmt = EDGELIST if len(e) <= EDGELIST_MAX_EDGES else G6
    text = graph6(n, e) if fmt == G6 else edgelist(n, e, rng)
    return Case(family, n, fmt, text, e)


def relabel(edges: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Apply a random vertex permutation, so structure never sits at fixed ids."""
    return rng.permutation(n)[np.asarray(edges, dtype=np.int64)]


# ---------------------------------------------------------------------------
# random graph families
# ---------------------------------------------------------------------------

def _codes(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    return lo * n + hi


def _decode(codes: np.ndarray, n: int) -> np.ndarray:
    return np.stack([codes // n, codes % n], axis=1)


def _random_partners(vs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    # uniform over the other n-1 vertices
    w = rng.integers(0, n - 1, size=len(vs))
    return w + (w >= vs)


def random_min_degree(n: int, delta: int, rng: np.random.Generator) -> np.ndarray:
    """G(n, delta/(n-1)) plus a random Hamiltonian path, repaired to min degree delta.

    The path makes the graph connected; the repair adds random edges at
    deficient vertices until none is left, which keeps the degree spread that
    the dense pipeline's phase 1 peels.
    """
    total = n * (n - 1) // 2
    k = rng.choice(total, size=rng.binomial(total, delta / (n - 1)), replace=False)
    hi = ((1 + np.sqrt(1 + 8 * k.astype(np.float64))) // 2).astype(np.int64)
    hi -= hi * (hi - 1) // 2 > k
    hi += (hi + 1) * hi // 2 <= k
    lo = k - hi * (hi - 1) // 2
    perm = rng.permutation(n)
    codes = np.union1d(_codes(lo, hi, n), _codes(perm[:-1], perm[1:], n))
    while True:
        e = _decode(codes, n)
        deg = np.bincount(e.ravel(), minlength=n)
        short = np.flatnonzero(deg < delta)
        if not len(short):
            return e
        vs = np.repeat(short, delta - deg[short])
        codes = np.union1d(codes, _codes(vs, _random_partners(vs, n, rng), n))


def random_sparse(n: int, m_extra: int, rng: np.random.Generator) -> np.ndarray:
    """Random spanning tree (random attachment) plus ``m_extra`` random edges."""
    perm = rng.permutation(n)
    parents = perm[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
    codes = _codes(perm[1:], parents, n)
    while len(codes) < n - 1 + m_extra:
        u = rng.integers(0, n, size=m_extra)
        codes = np.union1d(codes, _codes(u, _random_partners(u, n, rng), n))
    extra = np.setdiff1d(codes, _codes(perm[1:], parents, n))
    keep = rng.choice(len(extra), size=m_extra, replace=False)
    return _decode(np.union1d(_codes(perm[1:], parents, n), extra[keep]), n)


def random_forest(n: int, k: int, keep: int, rng: np.random.Generator) -> np.ndarray:
    """k edges of a random spanning tree, always including one at ``keep``."""
    tree = random_sparse(n, 0, rng)
    at_keep = np.flatnonzero((tree == keep).any(axis=1))[:1]
    others = np.setdiff1d(np.arange(len(tree)), at_keep)
    return tree[np.union1d(at_keep, rng.choice(others, size=k - 1, replace=False))]


def random_regular(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform simple connected r-regular graph by rejection from the pairing model."""
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), r)).reshape(-1, 2)
        if (stubs[:, 0] == stubs[:, 1]).any():
            continue
        codes = _codes(stubs[:, 0], stubs[:, 1], n)
        if len(np.unique(codes)) == len(codes) and connected(n, stubs):
            return stubs


def connected(n: int, edges: np.ndarray) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def complete_multipartite(sizes) -> tuple[int, np.ndarray]:
    cls = np.repeat(np.arange(len(sizes)), sizes)
    n = len(cls)
    u, v = np.triu_indices(n, 1)
    cross = cls[u] != cls[v]
    return n, np.stack([u[cross], v[cross]], axis=1)


def with_hub(n: int, rest: np.ndarray, skip: int | None) -> np.ndarray:
    """Vertex n-1 joined to every vertex of ``rest`` except ``skip``."""
    others = np.array([x for x in range(n - 1) if x != skip], dtype=np.int64)
    hub = np.stack([others, np.full(len(others), n - 1)], axis=1)
    return np.concatenate([rest, hub])


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def large_graphs(seed: int) -> list[Case]:
    """Twenty-six graphs whose cost grows with n and m.

    Min-degree graphs take the dense route, complete multipartite graphs the
    partite route, and graphs with a vertex of degree n-1 or n-2 the
    universal and delta-n2 routes.
    """
    rng = np.random.default_rng([seed, 2])
    cases = []
    for n in (500, 1000, 2000, 4000):
        delta = math.ceil(3 * math.log(n))
        for d in (delta, 2 * delta):
            cases.append(make_case(f"mindeg-n{n}-d{d}", n, random_min_degree(n, d, rng), rng))
    for sizes in ((25, 40), (50, 80), (80, 100), (8, 20, 26), (20, 34, 38), (33, 37, 48)):
        n, e = complete_multipartite(sizes)
        cases.append(make_case("K" + "_".join(map(str, sizes)), n, relabel(e, n, rng), rng))
    for n in (500, 1000):
        for extra in (n, 2 * n):
            rest = random_sparse(n - 1, extra, rng)
            cases.append(make_case(f"universal-n{n}-m{n - 2 + extra + n - 1}", n,
                                   relabel(with_hub(n, rest, None), n, rng), rng))
        # one graph per scheme of the n-2 construction, chosen by m: the
        # parity-forest scheme (m >= 2n-4), all evens (m = 2n-5), two spare
        # evens (m = 2n-6), and the capped completion (m <= 2n-8)
        for m in (3 * n - 4, 2 * n - 5, 2 * n - 6, 3 * n // 2):
            skip = int(rng.integers(0, n - 1))
            k = m - (n - 2)
            if k >= n - 2:
                rest = random_sparse(n - 1, k - (n - 2), rng)
            else:
                rest = random_forest(n - 1, k, skip, rng)
            cases.append(make_case(f"delta-n2-n{n}-m{m}", n,
                                   relabel(with_hub(n, rest, skip), n, rng), rng))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def sparse_search(seed: int) -> list[Case]:
    """Connected sparse graphs outside every theorem's hypothesis, as graph6."""
    rng = np.random.default_rng([seed, 3])
    cases = []

    def add(family, n, e):
        cases.append(make_case(family, n, relabel(e, n, rng), rng, fmt=G6))

    def ladder(lo, hi, step=1):
        # twenty sizes per family: many distinct requests steady the medians
        return [int(x) // step * step for x in np.linspace(lo, hi, 20)]

    for n in ladder(20, 115):
        add(f"C{n}", n, np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1))
    for n in ladder(25, 145):
        add(f"tree-n{n}", n, random_sparse(n, 0, rng))
    for n in ladder(20, 116, 2):
        add(f"3reg-n{n}", n, random_regular(n, 3, rng))
    for n in ladder(20, 75):
        add(f"4reg-n{n}", n, random_regular(n, 4, rng))
    for a in range(3, 8):
        for b in (a + 2, a + 4, 2 * a + 3, 2 * a + 5):
            idx = np.arange(a * b).reshape(a, b)
            e = np.concatenate([np.stack([idx.ravel(), np.roll(idx, -1, 0).ravel()], axis=1),
                                np.stack([idx.ravel(), np.roll(idx, -1, 1).ravel()], axis=1)])
            add(f"torus-{a}x{b}", a * b, e)
    for n in ladder(20, 110):
        add(f"mindeg3-n{n}", n, random_min_degree(n, 3, rng))
    order = rng.permutation(len(cases))
    return [cases[i] for i in order]


def _graph_classes(n: int) -> list[int]:
    """One edge bitmask per isomorphism class on n vertices (orbit marking).

    Bit k of a mask is the k-th pair of ``itertools.combinations(range(n), 2)``.
    """
    pairs = list(itertools.combinations(range(n), 2))
    pos = {p: k for k, p in enumerate(pairs)}
    tables = np.array([[pos[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
                       for perm in itertools.permutations(range(n))], dtype=np.int64)
    weights = np.int64(1) << np.arange(len(pairs), dtype=np.int64)
    seen = bytearray(1 << len(pairs))
    marks = np.frombuffer(seen, dtype=np.uint8)
    reps = []
    mask = seen.find(0)
    while mask >= 0:
        reps.append(mask)
        bits = (mask >> np.arange(len(pairs))) & 1
        marks[(bits[None, :] * weights[tables]).sum(axis=1)] = 1
        mask = seen.find(0, mask + 1)
    return reps


def _mask_edges(n: int, mask: int) -> np.ndarray:
    pairs = [p for k, p in enumerate(itertools.combinations(range(n), 2)) if mask >> k & 1]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def corpus_small(seed: int) -> list[Case]:
    """Every connected graph on 3..7 vertices, then every 8-vertex graph with
    a vertex of degree 7 or 6 from the join construction, in seeded order."""
    rng = np.random.default_rng([seed, 1])
    graphs = []
    classes7 = []
    for n in range(3, 8):
        for mask in _graph_classes(n):
            e = _mask_edges(n, mask)
            if n == 7:
                classes7.append(e)
            if connected(n, e):
                graphs.append((f"conn-n{n}", n, e))
    for e in classes7:
        graphs.append(("join-universal-n8", 8, with_hub(8, e, None)))
    for e in classes7:
        deg = np.bincount(e.ravel(), minlength=7)
        for z in range(7):
            # the join must not leave another vertex of degree 7
            if all(deg[u] <= 5 for u in range(7) if u != z):
                graphs.append(("join-delta-n2-n8", 8, with_hub(8, e, z)))
    order = rng.permutation(len(graphs))
    return [make_case(*graphs[i], rng, fmt=G6) for i in order]


WORKLOADS = {
    "corpus-small": corpus_small,
    "large-graphs": large_graphs,
    "sparse-search": sparse_search,
}


def digest(cases: list[Case]) -> str:
    """sha256 of the request stream, in order."""
    h = hashlib.sha256()
    for c in cases:
        h.update(c.fmt.encode())
        h.update(b"\0")
        h.update(c.text.encode())
        h.update(b"\0")
    return h.hexdigest()
