"""Method selection and run reporting.

``dispatch_label`` routes a graph to the most specific labeler whose
hypothesis it satisfies: complete multipartite structure first, then a
vertex of degree n-1 or n-2, then the randomized dense pipeline, and
finally the heuristic search.  Every labeler verifies the labeling it
returns on the graph it was given, so a report carries a certificate only
when it passed :func:`verify_antimagic` exactly once; dispatch does not
check it again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Optional

from .dense import DenseConfig, PairingError, label_dense
# verify_antimagic is not called here, since each labeler verifies its own
# labeling; the name stays because bench/tracing.py wraps it in this module.
from .graph import Graph, GraphError, Labeling, verify_antimagic  # noqa: F401
from .io import GRAPH6_MAX_N, emit_graph6
from .oracle import FOUND, SearchBudget, heuristic_search
from .partite import label_multipartite_on
from .special import ConstructionError, label_max_degree_n_minus_2, label_universal_vertex

ANTIMAGIC = "antimagic"
FAILED = "failed"
NOT_APPLICABLE = "not_applicable"

METHODS = ("auto", "universal", "delta-n2", "partite", "dense", "oracle")


@dataclass(frozen=True)
class RunReport:
    """One labeling attempt; the certificate is present iff the route's
    labeler verified it (the trivial empty labeling of a graph on at most one
    vertex is antimagic by definition).

    ``graph_id`` is the graph's graph6 line, or ``""`` when the graph has
    more than ``GRAPH6_MAX_N`` vertices: graph6 cannot encode it, and the
    line would take gigabytes.
    """

    method: str
    graph_id: str
    outcome: str
    restarts: int
    wall_time: float
    certificate: Optional[Labeling]
    note: str = ""


def recognize_complete_multipartite(g: Graph) -> Optional[list[list[int]]]:
    """Vertex classes if non-adjacency is an equivalence relation, else None."""
    classes: list[list[int]] = []
    assigned = [-1] * g.n
    everyone = frozenset(range(g.n))
    for v in range(g.n):
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
    lo_cls = map(cls_of, map(itemgetter(0), g.edges))
    hi_cls = map(cls_of, map(itemgetter(1), g.edges))
    if any(map(eq, lo_cls, hi_cls)):
        return None
    if 2 * g.m != g.n * g.n - sum(len(cls) ** 2 for cls in classes):
        return None
    return classes


def dispatch_label(g: Graph, method: str = "auto", d: Optional[int] = None,
                   seed: int = 0, max_restarts: int = 1000) -> RunReport:
    start = time.perf_counter()
    if method not in METHODS:
        raise GraphError(f"unknown method {method!r}")
    graph_id = emit_graph6(g) if g.n <= GRAPH6_MAX_N else ""

    def report(outcome, chosen, labeling=None, restarts=0, note=""):
        return RunReport(chosen, graph_id, outcome, restarts,
                         time.perf_counter() - start, labeling, note)

    if g.n == 2 and g.m == 1:
        return report(NOT_APPLICABLE, method, note="K2 exception: the one labeling collides")
    if g.m == 0:
        if g.n <= 1:
            return report(ANTIMAGIC, method, Labeling([]), note="trivial")
        return report(NOT_APPLICABLE, method, note="edgeless graph: all vertex sums are zero")

    chosen = method
    classes = None
    if method == "auto":
        classes = recognize_complete_multipartite(g)
        # with an edge there are two classes, so no size check is needed
        if classes is not None:
            chosen = "partite"
        elif g.max_degree() == g.n - 1 and g.n >= 3:
            chosen = "universal"
        elif g.max_degree() == g.n - 2 and g.n >= 4:
            chosen = "delta-n2"
        elif g.min_degree() >= DenseConfig(d=d).effective_d(g.n):
            chosen = "dense"
        else:
            chosen = "oracle"

    try:
        if chosen == "partite":
            if classes is None:
                classes = recognize_complete_multipartite(g)
            if classes is None:
                return report(NOT_APPLICABLE, chosen, note="not complete multipartite")
            return report(ANTIMAGIC, chosen, label_multipartite_on(g, classes))
        if chosen == "universal":
            return report(ANTIMAGIC, chosen, label_universal_vertex(g))
        if chosen == "delta-n2":
            return report(ANTIMAGIC, chosen, label_max_degree_n_minus_2(g))
        if chosen == "dense":
            cfg = DenseConfig(d=d, rng_seed=seed, max_restarts=max_restarts)
            res = label_dense(g, cfg)
            if res.ok:
                return report(ANTIMAGIC, chosen, res.labeling, res.restarts)
            return report(FAILED, chosen, None, res.restarts,
                          f"budget exhausted; best attempt had "
                          f"{res.best_collision_count} colliding pairs")
        budget = SearchBudget(seed=seed)
        res = heuristic_search(g, budget)
        if res.status == FOUND:
            return report(ANTIMAGIC, "oracle", res.labeling)
        return report(FAILED, "oracle", None, note="heuristic search found no certificate")
    except (GraphError, ConstructionError, PairingError) as exc:
        return report(NOT_APPLICABLE if isinstance(exc, GraphError) else FAILED,
                      chosen, note=str(exc))
