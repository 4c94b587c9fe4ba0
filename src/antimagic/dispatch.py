"""Method selection and run reporting.

``dispatch_label`` walks the routes in one fixed order: complete
multipartite structure, a vertex of degree n-1, a vertex of degree n-2,
the randomized dense pipeline, and finally the heuristic search.
``"auto"`` takes the first route whose hypothesis the graph satisfies; an
explicit method runs its route without that test, and the report carries
the route's own refusal.  The search runs here and nowhere else: it is
also where the Δ = n-2 route goes when its scheme makes no candidate, and
such a report says ``oracle``.  Every labeler verifies the labeling it
returns on the graph it was given, so a report carries a certificate only
when it passed :func:`verify_antimagic` exactly once; dispatch does not
check it again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import eq
from typing import Optional

from .dense import PairingError, effective_d, label_dense
# verify_antimagic is not called here, since each labeler verifies its own
# labeling; the name stays because bench/tracing.py wraps it in this module.
from .graph import Graph, GraphError, Labeling, check_knobs, verify_antimagic  # noqa: F401
from .io import emit_graph6
from .oracle import FOUND, PROVEN_NONE, heuristic_search
from .partite import label_multipartite_on
from .special import label_max_degree_n_minus_2, label_universal_vertex

ANTIMAGIC = "antimagic"
FAILED = "failed"
NOT_APPLICABLE = "not_applicable"

METHODS = ("auto", "universal", "delta-n2", "partite", "dense", "oracle")


@dataclass(frozen=True)
class RunReport:
    """One labeling attempt; the certificate is present iff the route's
    labeler verified it (the trivial empty labeling of a graph on at most one
    vertex is antimagic by definition).

    ``graph_id`` names the graph.  A graph parsed from a graph6 line in the
    form :func:`.io.emit_graph6` writes keeps that line as its id.  Any
    other graph is named by its graph6 line when that line is no longer
    than a digest id, 71 characters (so n <= 29), and otherwise by
    ``"sha256:"`` and the hex digest of n, then its end lists ``lo`` and
    ``hi``, each number an 8-byte little-endian integer.  So that id takes
    O(m) time and fixed space, where the graph6 line has n(n-1)/12
    characters.
    The one trade-off: a graph that arrives as a long graph6 line is named
    by that line, and the same graph arriving as an edge list by its
    digest.  ``resamples`` counts the dense route's coin resamples and is
    0 on every other route.

    :func:`dispatch_label` fills the instance dict of
    ``object.__new__(RunReport)`` without ``__init__``, so a new field must
    be set there too.
    """

    method: str
    graph_id: str
    outcome: str
    resamples: int
    wall_time: float
    certificate: Optional[Labeling]
    note: str = ""


def recognize_complete_multipartite(g: Graph) -> Optional[list[list[int]]]:
    """Vertex classes if non-adjacency is an equivalence relation, else None."""
    # A vertex in a class of size s has degree n - s, so the vertices of
    # degree x fill whole classes of size n - x: most graphs fail here.
    n = g.n
    degs = g.degrees()
    for x in set(degs):
        if degs.count(x) % (n - x):
            return None
    classes: list[list[int]] = []
    assigned = [-1] * n
    everyone = frozenset(range(n))
    for v in range(n):
        if assigned[v] >= 0:
            continue
        cls = sorted(everyone.difference(g.neighbors(v)))
        for u in cls:
            if assigned[u] >= 0:
                return None
            assigned[u] = len(classes)
        classes.append(cls)
    # With no edge inside a class, the m edges are distinct cross-class
    # pairs; there are (n^2 - sum |class|^2) / 2 of those, so m reaching
    # that count means every cross-class pair is an edge.
    cls_of = assigned.__getitem__
    lo_cls = map(cls_of, g.lo)
    hi_cls = map(cls_of, g.hi)
    if any(map(eq, lo_cls, hi_cls)):
        return None
    if 2 * g.m != n * n - sum(len(cls) ** 2 for cls in classes):
        return None
    return classes


# "sha256:" and 64 hex digits
_DIGEST_ID_LEN = 71


def _graph_id(g: Graph) -> str:
    """``RunReport.graph_id`` of ``g``; the graph6 line comes from
    ``emit_graph6``, looked up in this module, so that a tracer can time it."""
    n = g.n
    # a short-form line has 1 + ceil(n(n-1)/12) characters, and a long one
    # (n > 62) is longer than the digest id
    if g._graph6 is not None or 1 + (n * (n - 1) // 2 + 5) // 6 <= _DIGEST_ID_LEN:
        return emit_graph6(g)
    # hashlib and struct load here, not at import, since a cold start that
    # labels one small graph never needs them
    import hashlib
    import struct
    ends = struct.pack(f"<{1 + 2 * g.m}q", n, *g.lo, *g.hi)
    return "sha256:" + hashlib.sha256(ends).hexdigest()


def dispatch_label(g: Graph, method: str = "auto", seed: int = 0) -> RunReport:
    """Label ``g`` by ``method`` and report the route, outcome and certificate.

    ``method`` is one of ``METHODS``.  ``"auto"`` tries, in this order,
    ``partite`` (``g`` is complete multipartite), ``universal`` (maximum
    degree n-1), ``delta-n2`` (maximum degree n-2 and n >= 4), ``dense``
    (minimum degree at least :func:`.dense.effective_d`'s ceil(C ln n)) and
    ``oracle``, and runs the first whose test holds, so its route depends
    on the graph alone.  An explicit method runs its labeler without
    ``auto``'s test: ``"universal"`` also labels a hub of degree n-2 whose
    non-neighbour is isolated, and ``"dense"`` reports phase 1's refusal
    when the minimum degree is below ceil(C ln n); a caller that wants
    another d calls :func:`label_dense`.  ``seed`` seeds the dense
    pipeline and the heuristic search.  It passes to :func:`label_dense`
    and :func:`heuristic_search` as it is, and each route spends its
    module's fixed budget (:data:`.dense.MAX_RESAMPLES`,
    :data:`.oracle.PROPOSALS_PER_EDGE`).  Bad values of ``method`` or
    ``seed`` raise :class:`GraphError` on every route.

    When the Δ = n-2 scheme has no verified candidate, the heuristic search
    labels the graph and the report says ``oracle``, with a note that says
    so.  The search's outcome ``proven_none`` (a K2 component or two
    isolated vertices) is reported ``not_applicable``, with a note naming
    the obstruction.
    """
    start = time.perf_counter()
    if method not in METHODS:
        raise GraphError(f"unknown method {method!r}")
    # a bad seed raises here, whatever the route, though only the dense
    # route and the search read it
    check_knobs(seed=seed)
    graph_id = _graph_id(g)

    route = method

    def report(outcome, labeling=None, resamples=0, note=""):
        # the trusted constructor: the instance dict takes every field at
        # once, where the frozen __init__ sets each through object.__setattr__
        rep = object.__new__(RunReport)
        rep.__dict__.update(method=route, graph_id=graph_id, outcome=outcome, resamples=resamples,
                            wall_time=time.perf_counter() - start, certificate=labeling, note=note)
        return rep

    if g.n == 2 and g.m == 1:
        return report(NOT_APPLICABLE, note="K2 exception: the one labeling collides")
    if g.m == 0:
        if g.n <= 1:
            return report(ANTIMAGIC, Labeling([]), note="trivial")
        return report(NOT_APPLICABLE, note="edgeless graph: all vertex sums are zero")

    # one walk in auto's order; route names the step in progress
    auto = method == "auto"
    note = ""
    try:
        if auto or method == "partite":
            # with an edge there are two classes, so no size check is needed
            classes = recognize_complete_multipartite(g)
            if classes is not None:
                route = "partite"
                return report(ANTIMAGIC, label_multipartite_on(g, classes))
            if not auto:
                return report(NOT_APPLICABLE, note="not complete multipartite")
        max_deg = g.max_degree()
        if method == "universal" or (auto and max_deg == g.n - 1):
            route = "universal"
            return report(ANTIMAGIC, label_universal_vertex(g))
        if method == "delta-n2" or (auto and max_deg == g.n - 2 and g.n >= 4):
            route = "delta-n2"
            lab = label_max_degree_n_minus_2(g)
            if lab is not None:
                return report(ANTIMAGIC, lab)
            note = "the n-2 scheme had no verified candidate"
        elif method == "dense" or (auto and g.min_degree() >= effective_d(g.n)):
            route = "dense"
            res = label_dense(g, seed=seed)
            if res.ok:
                return report(ANTIMAGIC, res.labeling, res.resamples)
            return report(FAILED, None, res.resamples,
                          f"no certificate; fewest colliding pairs {res.best_collision_count}")
        route = "oracle"
        res = heuristic_search(g, seed=seed)
        if res.status == FOUND:
            return report(ANTIMAGIC, res.labeling, note=note)
        if res.status == PROVEN_NONE:
            return report(NOT_APPLICABLE, note="a K2 component or two isolated "
                          "vertices: two sums agree under every labeling")
        return report(FAILED, note="; ".join(
            filter(None, [note, "heuristic search found no certificate"])))
    except (GraphError, PairingError) as exc:
        return report(NOT_APPLICABLE if isinstance(exc, GraphError) else FAILED, note=str(exc))
