"""Closed-loop labeling benchmark for the ``antimagic`` package.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus-small --seed 1 --seconds 20 --trace 0

One caller in one process sends labeling requests back to back: each request
parses the input text with ``antimagic.io`` and labels the graph with
``antimagic.dispatch.dispatch_label``; the returned certificate is then
checked by ``check.certificate_error``.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` serves every request once untraced and once
traced for the per-layer metrics.  ``correct`` is false when any request
fails.  Human-readable lines come first; the last line of
standard output is one JSON object.  The full result also goes to
``bench/out/runs/`` (or ``--out``), the spans of a traced run to
``bench/out/spans/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from check import certificate_error
from tracing import Tracer
from workloads import EDGELIST, WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Cold starts per run, half before and half after the timed passes, so that
# they straddle the machine's slow drifts in speed; set-up time is their median.
SETUP_STARTS = 20
WARMUP_S = 3.0  # serve the cheapest requests first for this long before timing

# Seconds one pass over each workload took at the commit that defined the
# benchmark.  A run makes round(--seconds / this) passes, at least one, so
# both sides of a comparison serve exactly the same requests.
PASS_SECONDS = {"corpus-small": 2.2, "large-graphs": 30.0, "sparse-search": 18.0}
TAIL_LADDER = (50, 60, 75, 80, 90, 95, 99, 99.9, 99.99)

# The host's speed drifts by up to half again over tens of seconds, because
# other tenants share its cores.  A fixed loop, ``gauge``, is timed between
# requests (at most every GAUGE_EVERY_S) and the end-to-end times are scaled
# to the speed at which it takes GAUGE_REF_S.
GAUGE_EVERY_S = 0.02
GAUGE_REF_S = 1e-3

# Set-up: a fresh interpreter imports the package and serves one trivial
# request (the triangle, graph6 "Bw").
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from antimagic import dispatch, io; "
    "sys.exit(dispatch.dispatch_label(io.parse_graph6('Bw')).certificate is None)"
)


def load_program():
    if not (SRC / "antimagic" / "dispatch.py").is_file():
        sys.exit(f"error: no program to measure at {SRC / 'antimagic'}")
    sys.path.insert(0, str(SRC))
    from antimagic import dispatch, io

    if Path(io.__file__).resolve().parent != SRC / "antimagic":
        sys.exit(f"error: imported antimagic from {io.__file__}, not from {SRC}")
    return dispatch, io


def cold_starts(k: int) -> list[float]:
    """Wall times of k fresh set-ups, each scaled like a request latency."""
    times = []
    for _ in range(k):
        before = gauge()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                       stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        times.append(wall * GAUGE_REF_S / ((before + gauge()) / 2))
    return times


def gauge() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed.

    The loop does what the program mostly does (integer arithmetic and dict
    updates) and shares no code with it, so a change to the program cannot
    move it.  It allocates nothing the garbage collector tracks, so the
    program's heap does not slow it either.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(7000):
        k = (i * 7919) % 509
        counts[k] = counts.get(k, 0) + i
    sorted(counts.values())
    return time.perf_counter() - t0


class Stream:
    """Runs requests and keeps what the metrics need."""

    def __init__(self, dispatch, io, cases):
        self.dispatch, self.io, self.cases = dispatch, io, cases
        self.rids: list[int] = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.gauge_at: list[float] = []
        self.gauge_s: list[float] = []
        self.ok: list[bool] = []
        self.failures: list[str] = []
        self.bad = 0
        self.routes: dict[str, int] = {}

    def read_gauge(self) -> None:
        self.gauge_at.append(time.perf_counter())
        self.gauge_s.append(gauge())

    def serve(self, rid: int, tracer: Tracer | None = None) -> None:
        case = self.cases[rid]
        io, dispatch = self.io, self.dispatch
        if not self.gauge_at or time.perf_counter() - self.gauge_at[-1] >= GAUGE_EVERY_S:
            self.read_gauge()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin(rid, t0)
        report = error = None
        try:
            if case.fmt == EDGELIST:
                g = io.parse_edgelist(case.text)
            else:
                g = io.parse_graph6(case.text)
            report = dispatch.dispatch_label(g)
        except Exception as exc:  # a failed request is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(t1)
        self.rids.append(rid)
        self.starts.append(t0)
        self.latencies.append(t1 - t0)
        if report is not None:
            self.routes[report.method] = self.routes.get(report.method, 0) + 1
            if report.certificate is None:
                error = f"{report.outcome}: {report.note}"
            else:
                error = certificate_error(case.n, case.edges, report.certificate.labels)
                if error is not None:
                    self.bad += 1
        self.ok.append(error is None)
        if error is not None:
            self.failures.append(f"{case.family}: {error}")

    def run_pass(self, tracer: Tracer | None = None) -> None:
        for rid in range(len(self.cases)):
            self.serve(rid, tracer)
        self.read_gauge()

    def calibrated(self) -> list[float]:
        """Latencies scaled to the speed at which ``gauge()`` takes GAUGE_REF_S.

        Each request is scaled by the mean of the gauge readings just before
        and just after it.
        """
        out = []
        for t0, lat in zip(self.starts, self.latencies):
            j = bisect.bisect_right(self.gauge_at, t0)
            out.append(lat * GAUGE_REF_S / ((self.gauge_s[j - 1] + self.gauge_s[j]) / 2))
        return out


def warm_up(stream: Stream) -> None:
    order = sorted(range(len(stream.cases)), key=lambda i: (stream.cases[i].m, i))
    t0 = time.perf_counter()
    for rid in order:
        stream.serve(rid)
        if time.perf_counter() - t0 > WARMUP_S:
            break


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples beyond it."""
    return max((p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10), default=TAIL_LADDER[0])


def request_latencies(stream: Stream, lat: list[float]) -> list[float]:
    """Each certified request's median latency over the passes that served it.

    A request served in several passes counts once, at its median, so that
    the tail percentiles show the slowest inputs rather than the moments the
    host stalled the process.  A failed serve has no latency that meets a
    limit, so it is left out (all serves count if none is certified), and the
    run reports ``correct: false``.
    """
    by_rid: dict[int, list[float]] = {}
    for rid, t, ok in zip(stream.rids, lat, stream.ok):
        if ok:
            by_rid.setdefault(rid, []).append(t)
    return [statistics.median(ts) for ts in by_rid.values()] or lat


def latency_metrics(stream: Stream, lat: list[float]) -> dict[str, tuple[float, str]]:
    """Throughput over the whole stream; latency percentiles over requests."""
    per_request = request_latencies(stream, lat)
    tail = tail_percentile(len(per_request))
    return {
        "graphs_per_s": (sum(stream.ok) / sum(lat), "graphs/s"),
        "latency_p50_ms": (1e3 * statistics.median(per_request), "ms"),
        "latency_tail_ms": (1e3 * float(np.percentile(per_request, tail)), "ms"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, default=OUT / "runs",
                    help="directory for the full result file")
    args = ap.parse_args(argv)
    dispatch, io = load_program()

    cases = WORKLOADS[args.workload](args.seed)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "digest": digest(cases), "requests_per_pass": len(cases),
    }
    if args.trace == 0:
        cold_starts(1)  # fills the bytecode cache
        setup = cold_starts(SETUP_STARTS // 2)
    warm_up(Stream(dispatch, io, cases))
    lines = []

    if args.trace == 0:
        stream = Stream(dispatch, io, cases)
        passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
        for _ in range(passes):
            stream.run_pass()
        setup += cold_starts(SETUP_STARTS - len(setup))
        streams = [stream]
        good = len(request_latencies(stream, stream.latencies))
        tail_pct = tail_percentile(good)
        metrics = latency_metrics(stream, stream.calibrated())
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["setup_s"] = (statistics.median(setup), "s")
        unscaled = latency_metrics(stream, stream.latencies)["graphs_per_s"][0]
        result.update(passes=passes, tail_percentile=tail_pct, unscaled_graphs_per_s=unscaled)
        lines.append(f"latency_tail_ms is p{tail_pct:g} of {good} certified requests "
                     f"({good * (100 - tail_pct) / 100:g} beyond it), each at its median "
                     f"over {passes} passes")
        lines.append(f"graphs_per_s unscaled by the gauge = {unscaled:.6g} graphs/s")
    else:
        plain, traced, tracer = Stream(dispatch, io, cases), Stream(dispatch, io, cases), Tracer()
        for rid in range(len(cases)):
            # Each request runs untraced and traced back to back, in turns of
            # which goes first, so the pair shares the machine's speed and
            # neither side gains from going second.
            for side in (plain, traced) if rid % 2 == 0 else (traced, plain):
                if side is plain:
                    plain.serve(rid)
                    continue
                tracer.install()
                try:
                    traced.serve(rid, tracer)
                finally:
                    tracer.uninstall()
        streams = [plain, traced]
        worst = tracer.check(dict(enumerate(traced.latencies)))
        metrics = tracer.layer_metrics()
        overhead = statistics.median(t / p - 1.0 for t, p in zip(traced.latencies, plain.latencies))
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        result.update(passes=1, untraced_pass_s=sum(plain.latencies),
                      traced_pass_s=sum(traced.latencies), spans=len(tracer.spans),
                      self_time_max_gap_s=worst, skipped=tracer.skipped)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")
        lines.append(f"traced pass {sum(traced.latencies):.3f} s, untraced pass "
                     f"{sum(plain.latencies):.3f} s, {len(tracer.spans)} spans, "
                     f"self times match latency within {worst:.2g} s")
        if tracer.skipped:
            lines.append("skipped (no longer in the program): " + ", ".join(tracer.skipped))

    attempted = sum(len(s.latencies) for s in streams)
    failures = [f for s in streams for f in s.failures]
    lines.append(f"fail_frac = {len(failures) / attempted:.6g} ratio "
                 f"({len(failures)} of {attempted})")
    result.update(
        attempted=attempted, failed=len(failures),
        bad_certificates=sum(s.bad for s in streams), failures=failures[:20],
        routes=streams[-1].routes,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(cases)} requests per pass, "
          f"inputs sha256 {result['digest']}")
    for line in lines:
        print(line)
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    for f in failures[:5]:
        print("failure:", f)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
