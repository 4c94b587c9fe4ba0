"""Self-tests for the benchmark's own code: ``python3 -m pytest bench``."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys
import types
from pathlib import Path
from time import perf_counter

import networkx as nx
import numpy as np
import pytest

import compare
import run
import workloads
from check import certificate_error
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def reference_ok(n, edges, labels):
    if sorted(labels) != list(range(1, len(edges) + 1)):
        return False
    sums = [0] * n
    for (u, v), lab in zip(edges.tolist(), labels):
        sums[u] += lab
        sums[v] += lab
    return len(set(sums)) == n


def test_check_agrees_with_reference_on_every_swap():
    # the Petersen graph with a labeling the check accepts; every single swap
    # of two labels is judged the same way as a plain-Python recount
    g = nx.petersen_graph()
    edges = workloads.canonical(np.array(list(g.edges())))
    labels = None
    for perm in itertools.permutations(range(1, 16)):
        if reference_ok(10, edges, perm):
            labels = list(perm)
            break
    assert certificate_error(10, edges, labels) is None
    colliding = 0
    for i, j in itertools.combinations(range(15), 2):
        swapped = list(labels)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        err = certificate_error(10, edges, swapped)
        assert (err is None) == reference_ok(10, edges, swapped)
        colliding += err is not None
    assert colliding > 0


def test_check_rejects_one_swap_that_collides():
    # C4 stored as (0,1), (0,3), (1,2), (2,3); labels 1..4 give sums 3, 4, 7, 6
    edges = workloads.canonical(np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))
    assert certificate_error(4, edges, [1, 2, 3, 4]) is None
    # swapping the labels of (0,3) and (1,2) gives sums 4, 3, 6, 7: still fine;
    # swapping those of (0,1) and (0,3) gives 3, 5, 7, 5: a collision
    assert certificate_error(4, edges, [1, 3, 2, 4]) is None
    assert certificate_error(4, edges, [2, 1, 3, 4]) == "two vertex sums are equal"


def test_check_rejects_duplicated_label():
    edges = workloads.canonical(np.array([[0, 1], [1, 2], [2, 3], [3, 0]]))
    assert certificate_error(4, edges, [1, 2, 3, 3]) == "labels are not a permutation of 1..m"
    assert certificate_error(4, edges, [1, 2, 3]) is not None
    assert certificate_error(4, edges, [0, 1, 2, 3]) is not None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    make = workloads.WORKLOADS[name]
    a, b = make(7), make(7)
    assert [c.text for c in a] == [c.text for c in b]
    assert all(np.array_equal(x.edges, y.edges) for x, y in zip(a, b))
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(make(8)) != workloads.digest(a)


def decode(case):
    if case.fmt == workloads.G6:
        g = nx.from_graph6_bytes(case.text.encode())
        edges = list(g.edges())
        n = g.number_of_nodes()
    else:
        lines = case.text.split("\n")
        n, m = map(int, lines[0].split())
        edges = [tuple(map(int, line.split())) for line in lines[1:] if line]
        assert len(edges) == m
    return n, workloads.canonical(np.array(edges))


@pytest.mark.parametrize("name", ["large-graphs", "sparse-search"])
def test_text_encodes_the_checked_edges(name):
    for case in workloads.WORKLOADS[name](3):
        if case.n > 1000:
            continue
        n, edges = decode(case)
        assert n == case.n
        assert np.array_equal(edges, case.edges), case.family


def test_workload_graphs_fit_their_routes():
    for case in workloads.large_graphs(4) + workloads.sparse_search(4):
        deg = np.bincount(case.edges.ravel(), minlength=case.n)
        assert workloads.connected(case.n, case.edges), case.family
        d = math.ceil(3 * math.log(case.n))
        if case.family.startswith("mindeg-"):
            assert deg.min() >= d
        if case.family.startswith("delta-n2"):
            assert deg.max() == case.n - 2 and (deg == case.n - 2).sum() >= 1
    for case in workloads.sparse_search(4):
        deg = np.bincount(case.edges.ravel(), minlength=case.n)
        assert deg.min() < math.ceil(3 * math.log(case.n)) and deg.max() <= case.n - 3


def test_corpus_counts():
    cases = workloads.corpus_small(1)
    families = {}
    for c in cases:
        families[c.family] = families.get(c.family, 0) + 1
    assert families == {"conn-n3": 2, "conn-n4": 6, "conn-n5": 21, "conn-n6": 112,
                        "conn-n7": 853, "join-universal-n8": 1044, "join-delta-n2-n8": 6338}


def test_tracer_covers_every_layer_metric():
    from antimagic import dispatch, io

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cases = workloads.corpus_small(1)[:200] + workloads.sparse_search(1)[:3]
    tracer = Tracer()
    tracer.install()
    latencies = {}
    try:
        for rid, case in enumerate(cases):
            t0 = perf_counter()
            tracer.begin(rid, t0)
            report = dispatch.dispatch_label(io.parse_graph6(case.text))
            t1 = perf_counter()
            tracer.end(t1)
            latencies[rid] = t1 - t0
            assert certificate_error(case.n, case.edges, report.certificate.labels) is None
    finally:
        tracer.uninstall()
    assert tracer.skipped == []
    assert tracer.check(latencies) <= 1e-6
    metrics = tracer.layer_metrics()
    names = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    assert names == set(metrics)
    selfs = sum(v for k, (v, u) in metrics.items() if u == "s" and k != "dense.label_dense.s")
    assert selfs == pytest.approx(sum(latencies.values()), rel=1e-9)
    assert sum(metrics[f"dispatch.route.{r}"][0] for r in ("partite", "universal", "delta-n2",
                                                           "dense", "oracle")) == len(cases)
    assert dispatch.emit_graph6.__module__ == "antimagic.io"  # restored


def test_tracer_reports_missing_names(monkeypatch):
    from antimagic import dispatch

    monkeypatch.delattr(dispatch, "recognize_complete_multipartite")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.skipped == ["dispatch.recognize_complete_multipartite"]


def test_compare_verdicts():
    seeds = range(10)
    base = {s: 100.0 + s % 3 for s in seeds}
    assert compare.verdict(base, {s: v * 0.7 for s, v in base.items()}, "lower", 0.1) == "better"
    assert compare.verdict(base, {s: v * 1.3 for s, v in base.items()}, "lower", 0.1) == "worse"
    assert compare.verdict(base, {s: v + 0.5 for s, v in base.items()}, "lower", 0.1) == "within bound"
    noisy = {s: 100.0 * (1 + 0.4 * (s % 2)) for s in seeds}
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(base, {s: v * 0.99 for s, v in base.items()}, "lower", None) == "unresolved"


def test_one_failed_request_makes_the_run_incorrect(monkeypatch, tmp_path, capsys):
    from antimagic import dispatch, io

    def label(g):
        report = dispatch.dispatch_label(g)
        if (g.n, g.m) == (3, 2):  # the path on three vertices, once per pass
            return dataclasses.replace(report, outcome=dispatch.FAILED, certificate=None)
        return report

    cases = [c for c in workloads.corpus_small(1) if c.n <= 4]
    monkeypatch.setitem(run.WORKLOADS, "corpus-small", lambda seed: cases)
    monkeypatch.setattr(run, "load_program", lambda: (types.SimpleNamespace(dispatch_label=label), io))
    monkeypatch.setattr(run, "cold_starts", lambda k: [0.05] * k)
    for trace in (0, 1):
        run.main(["--workload", "corpus-small", "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--out", str(tmp_path)])
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert last["correct"] is False
        assert last["failed"] == 1 + trace and last["attempted"] == len(cases) * (1 + trace)


def write_run(directory, seed, failed=0, digest="d", passes=1, value=1.0):
    directory.mkdir(exist_ok=True)
    res = {"workload": "w", "trace": 0, "seed": seed, "digest": digest, "passes": passes,
           "failed": failed, "attempted": 100,
           "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}}}
    (directory / f"w-seed{seed}.json").write_text(json.dumps(res))


def test_compare_refuses_runs_that_served_other_requests(tmp_path):
    for field in ({"digest": "other"}, {"passes": 2}):
        write_run(tmp_path / "a", 1)
        write_run(tmp_path / "b", 1, **field)
        with pytest.raises(SystemExit):
            compare.compare(tmp_path / "a", tmp_path / "b")


def test_compare_voids_a_workload_that_fails_more(tmp_path):
    for seed in range(10):
        write_run(tmp_path / "a", seed, value=10.0 + seed % 3)
        write_run(tmp_path / "b", seed, value=5.0, failed=1 if seed == 0 else 0)
    rows = {r[1]: r[-1] for r in compare.compare(tmp_path / "a", tmp_path / "b")}
    assert rows == {"failed": "worse", "latency_p50_ms": "void"}
    rows = {r[1]: r[-1] for r in compare.compare(tmp_path / "b", tmp_path / "a")}
    assert rows == {"failed": "no more failures", "latency_p50_ms": "worse"}


def test_a_request_served_in_several_passes_counts_once_at_its_median():
    stream = types.SimpleNamespace(rids=[0, 1, 0, 1, 0, 1], ok=[True] * 5 + [False])
    lat = [1.0, 5.0, 9.0, 6.0, 2.0, 100.0]  # request 0 stalls once; request 1 fails once
    assert sorted(run.request_latencies(stream, lat)) == [2.0, 5.5]
