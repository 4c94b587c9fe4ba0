"""Span tracer that wraps the program's layers from outside.

``Tracer.install`` rebinds module attributes such as
``antimagic.dispatch.emit_graph6`` to timing wrappers, so the program needs
no tracing code of its own.  A name that no longer exists is skipped and
reported.  Spans stay in memory until ``write_spans``; ``layer_metrics``
turns them into per-layer self times and counts.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# A span's self time may differ from "duration minus covered child time" only
# by float rounding; the per-request identity below is checked to this bound.
SELF_TIME_TOLERANCE_S = 1e-6

ROOT = "bench.request"


def _route(counts, report, parent):
    counts[f"dispatch.route.{report.method}"] += 1


def _verify(counts, report, parent):
    if parent == "special.label_max_degree_n_minus_2":
        counts["special.candidates"] += 1
        counts["special.verified"] += getattr(report, "ok", False)


def _dense(counts, res, parent):
    counts["dense.restarts"] += getattr(res, "restarts", 0)
    counts["dense.resamples"] += getattr(res, "resamples", 0)
    counts["dense.certified"] += getattr(res, "labeling", None) is not None


def _exhaustive(counts, res, parent):
    counts["oracle.exhaustive_search.nodes"] += getattr(res, "nodes", 0)


def _heuristic(counts, res, parent):
    counts["oracle.iterations"] += getattr(res, "iterations", 0)
    counts["oracle.found"] += getattr(res, "status", None) == "found"


# (span name, module, attribute, result hook).  A hook gets the counters, the
# call's result and the name of the parent span.  A span name appears once per
# module whose calls it should catch: ``Graph`` is timed where ``io`` and
# ``dense`` build graphs, ``verify_antimagic`` wherever a layer calls it.
TARGETS = [
    ("io.parse_graph6", "io", "parse_graph6", None),
    ("io.parse_edgelist", "io", "parse_edgelist", None),
    ("graph.Graph", "io", "Graph", None),
    ("graph.Graph", "dense", "Graph", None),
    ("dispatch.dispatch_label", "dispatch", "dispatch_label", _route),
    ("dispatch.graph_id", "dispatch", "emit_graph6", None),
    ("dispatch.recognize", "dispatch", "recognize_complete_multipartite", None),
    ("partite.label_multipartite_on", "dispatch", "label_multipartite_on", None),
    ("special.label_universal_vertex", "dispatch", "label_universal_vertex", None),
    ("special.label_universal_vertex", "partite", "label_universal_vertex", None),
    ("special.label_universal_vertex", "special", "label_universal_vertex", None),
    ("special.label_max_degree_n_minus_2", "dispatch", "label_max_degree_n_minus_2", None),
    ("decompose.parity_forest", "special", "parity_forest", None),
    ("decompose.cycle_decomposition", "special", "cycle_decomposition", None),
    ("oracle.exhaustive_search", "oracle", "exhaustive_search", _exhaustive),
    ("dense.label_dense", "dispatch", "label_dense", _dense),
    ("dense.phase1_reduce", "dense", "phase1_reduce", None),
    ("dense.phase2_pair_edges", "dense", "phase2_pair_edges", None),
    ("dense.phase3_pair_labels", "dense", "phase3_pair_labels", None),
    ("dense.assemble_labeling", "dense", "assemble_labeling", None),
    ("graph.vertex_sums", "dense", "vertex_sums", None),
    ("oracle.heuristic_search", "dispatch", "heuristic_search", _heuristic),
] + [("graph.verify_antimagic", mod, "verify_antimagic", _verify)
     for mod in ("dispatch", "dense", "special", "partite", "oracle")]

# Per-layer metric -> span whose summed self time it reports.
SELF_TIME_METRICS = {
    "io.parse_edgelist.s": "io.parse_edgelist",
    "io.parse_graph6.s": "io.parse_graph6",
    "graph.Graph.s": "graph.Graph",
    "dispatch.graph_id.s": "dispatch.graph_id",
    "dispatch.recognize.s": "dispatch.recognize",
    "dispatch.self.s": "dispatch.dispatch_label",
    "graph.verify_antimagic.s": "graph.verify_antimagic",
    "dense.phase1_reduce.s": "dense.phase1_reduce",
    "dense.phase2_pair_edges.s": "dense.phase2_pair_edges",
    "dense.phase3_pair_labels.s": "dense.phase3_pair_labels",
    "dense.assemble_labeling.s": "dense.assemble_labeling",
    "graph.vertex_sums.s": "graph.vertex_sums",
    "dense.resample.self_s": "dense.label_dense",
    "special.label_max_degree_n_minus_2.s": "special.label_max_degree_n_minus_2",
    "special.label_universal_vertex.s": "special.label_universal_vertex",
    "decompose.parity_forest.s": "decompose.parity_forest",
    "decompose.cycle_decomposition.s": "decompose.cycle_decomposition",
    "oracle.exhaustive_search.s": "oracle.exhaustive_search",
    "partite.label_multipartite_on.s": "partite.label_multipartite_on",
    "oracle.heuristic_search.s": "oracle.heuristic_search",
    "bench.request.s": ROOT,
}
ROUTES = ("partite", "universal", "delta-n2", "dense", "oracle")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [request id, name, parent index, start, end]
        self.stack: list[int] = []
        self.rid = -1
        self.counts: Counter = Counter()
        self.skipped: list[str] = []
        self._patches: list[tuple[object, str, object, object]] | None = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            rec = [self.rid, name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, result, spans[rec[2]][1] if rec[2] >= 0 else None)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every target to its wrapper; the wrappers are made once."""
        if self._patches is None:
            self._patches = []
            for name, mod_name, attr, hook in TARGETS:
                module = importlib.import_module(f"antimagic.{mod_name}")
                fn = getattr(module, attr, None)
                if fn is None:
                    self.skipped.append(f"{mod_name}.{attr}")
                    continue
                self._patches.append((module, attr, fn, self._wrap(name, fn, hook)))
        for module, attr, fn, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn, traced in reversed(self._patches or []):
            setattr(module, attr, fn)

    def begin(self, rid: int, start: float) -> None:
        self.rid = rid
        self.stack.append(len(self.spans))
        self.spans.append([rid, ROOT, -1, start, 0.0])

    def end(self, stop: float) -> None:
        self.spans[self.stack.pop()][4] = stop

    # -- export ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        covered = [0.0] * len(self.spans)
        for rid, name, parent, start, end in self.spans:
            if parent >= 0:
                p = self.spans[parent]
                covered[parent] += max(0.0, min(end, p[4]) - max(start, p[3]))
        return [s[4] - s[3] - c for s, c in zip(self.spans, covered)]

    def check(self, latencies: dict[int, float]) -> float:
        """Largest gap between a request's summed self times and its latency.

        Raises if it exceeds SELF_TIME_TOLERANCE_S or some span's children
        overlap (negative self time).
        """
        selfs = self.self_times()
        per_request: dict[int, float] = defaultdict(float)
        for s, own in zip(self.spans, selfs):
            if own < -SELF_TIME_TOLERANCE_S:
                raise AssertionError(f"span {s[1]} of request {s[0]} has overlapping children")
            per_request[s[0]] += own
        worst = max(abs(per_request[rid] - lat) for rid, lat in latencies.items())
        if worst > SELF_TIME_TOLERANCE_S:
            raise AssertionError(f"self times miss a request's latency by {worst:.3g} s")
        return worst

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        selfs = self.self_times()
        by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for s, own in zip(self.spans, selfs):
            by_name[s[1]] += own
            calls[s[1]] += 1
        dense_inclusive = sum(s[4] - s[3] for s in self.spans if s[1] == "dense.label_dense")
        c = self.counts
        out = {k: (by_name[span], "s") for k, span in SELF_TIME_METRICS.items()}
        out["dense.label_dense.s"] = (dense_inclusive, "s")
        out["graph.verify_antimagic.calls"] = (calls["graph.verify_antimagic"], "count")
        for r in ROUTES:
            out[f"dispatch.route.{r}"] = (c[f"dispatch.route.{r}"], "count")
        out["dense.restarts"] = (c["dense.restarts"], "count")
        out["dense.resamples"] = (c["dense.resamples"], "count")
        out["dense.attempts"] = (calls["dense.assemble_labeling"], "count")
        out["dense.accept_ratio"] = (_ratio(c["dense.certified"], calls["dense.assemble_labeling"]), "ratio")
        out["special.candidates"] = (c["special.candidates"], "count")
        out["special.accept_ratio"] = (_ratio(c["special.verified"], c["special.candidates"]), "ratio")
        out["oracle.exhaustive_search.calls"] = (calls["oracle.exhaustive_search"], "count")
        out["oracle.exhaustive_search.nodes"] = (c["oracle.exhaustive_search.nodes"], "count")
        out["oracle.iterations"] = (c["oracle.iterations"], "count")
        out["oracle.found_ratio"] = (_ratio(c["oracle.found"], calls["oracle.heuristic_search"]), "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for rid, name, parent, start, end in self.spans:
                fh.write(json.dumps([rid, name, parent, start, end]) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
