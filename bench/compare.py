"""Compare two result sets, one row per (workload, metric).

Usage:

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that ``bench/run.py --out DIR`` (or
``bench/suite.py --out DIR``) writes, one per run.  Runs are paired by
workload, trace mode and seed; two runs whose inputs (``digest``) or number
of passes differ did not serve the same requests, and the comparison stops
with an error.  A row reads:

* ``better``: the change wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the parent's interquartile
  range;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json`` (a per-layer metric has no bound, so it
  is ``worse`` by the mirror of the ``better`` rule);
* ``unresolved``: the spread of either side is wider than the bound, unless
  every change run reads better than every parent run;
* ``within bound``: otherwise.

Counts (unit ``count``) are shown as counts, parent then change.  A
``failed`` row per workload gives failed ÷ attempted requests on each side;
when the change fails more often, that row reads ``worse`` and every other
row of the workload ``void``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_specs() -> dict[str, dict]:
    doc = json.loads(BENCHMARK.read_text())
    specs = {m["name"]: m for m in doc["per_layer"]}
    specs.update({m["name"]: m for m in doc["end_to_end"]})
    return specs


def load_runs(directory: Path) -> dict[tuple[str, int, int], dict]:
    """(workload, trace, seed) -> the run's result file."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        res = json.loads(path.read_text())
        runs[(res["workload"], res["trace"], res["seed"])] = res
    return runs


def by_metric(runs: dict[tuple[str, int, int], dict]) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value}."""
    out: dict[tuple[str, str], dict[int, float]] = defaultdict(dict)
    for (workload, trace, seed), res in runs.items():
        for name, m in res["metrics"].items():
            out[(workload, name)][seed] = m["value"]
    return out


def check_pairs(parent: dict, change: dict) -> None:
    """Refuse runs of one workload and seed that served different requests."""
    for key in sorted(set(parent) & set(change)):
        for field in ("digest", "passes"):
            if parent[key].get(field) != change[key].get(field):
                raise SystemExit(f"{key[0]} trace {key[1]} seed {key[2]}: {field} differs "
                                 f"({parent[key].get(field)} vs {change[key].get(field)}), "
                                 "so the two runs did not serve the same requests")


def failed_frac(runs: dict, workload: str) -> tuple[int, int]:
    """Failed and attempted requests of one workload, over all its runs."""
    mine = [r for (w, _, _), r in runs.items() if w == workload]
    return sum(r["failed"] for r in mine), sum(r["attempted"] for r in mine)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(parent: dict[int, float], change: dict[int, float], better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p, c = list(parent.values()), list(change.values())
    common = sorted(set(parent) & set(change))
    pairs = ([(parent[s], change[s]) for s in common] if common
             else list(zip(p, c)))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    losses = sum(sign * (b - a) < 0 for a, b in pairs)
    pq1, pmed, pq3 = quartiles(p)
    cmed = statistics.median(c)
    gap = sign * (cmed - pmed)
    if gap > 0 and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1:
        return "better"
    if bound is None:
        if gap < 0 and losses >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1:
            return "worse"
        return "unresolved"
    if pmed and -gap / abs(pmed) > bound:
        return "worse"
    if max(spread(p), spread(c)) > bound:
        if min(sign * x for x in c) > max(sign * x for x in p):
            return "within bound"
        return "unresolved"
    return "within bound"


def compare(parent_dir: Path, change_dir: Path) -> list[list[str]]:
    specs = load_specs()
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    check_pairs(parent_runs, change_runs)
    parent, change = by_metric(parent_runs), by_metric(change_runs)
    rows = []
    fails_more = set()
    for workload in sorted({k[0] for k in parent_runs} & {k[0] for k in change_runs}):
        (pf, pa), (cf, ca) = failed_frac(parent_runs, workload), failed_frac(change_runs, workload)
        worse = cf / ca > pf / pa
        if worse:
            fails_more.add(workload)
        rows.append([workload, "failed", "count", f"{pf}/{pa}", f"{cf}/{ca}",
                     "worse" if worse else "no more failures"])
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        spec = specs.get(name, {"unit": "?", "better": "lower"})
        p, c = parent[key], change[key]
        if spec["unit"] == "count":
            same = set(p.values()) == set(c.values())
            rows.append([workload, name, "count", _counts(p), _counts(c),
                         "same count" if same else "count changed"])
            continue
        pm, cm = statistics.median(p.values()), statistics.median(c.values())
        rows.append([
            workload, name, spec["unit"],
            f"{pm:.4g} ±{spread(list(p.values())):.1%}",
            f"{cm:.4g} ±{spread(list(c.values())):.1%}",
            "void" if workload in fails_more else verdict(p, c, spec["better"], spec.get("bound")),
        ])
    missing = sorted(set(parent) ^ set(change))
    for workload, name in missing:
        rows.append([workload, name, "", "present" if (workload, name) in parent else "-",
                     "present" if (workload, name) in change else "-", "only one side"])
    return rows


def _counts(by_seed: dict[int, float]) -> str:
    """The distinct counts seen, which is one value when they repeat."""
    return "/".join(str(int(v)) for v in sorted(set(by_seed.values())))


def print_table(rows: list[list[str]], header: list[str]) -> None:
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip())


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(Path(argv[0]), Path(argv[1]))
    if not rows:
        print("no (workload, metric) pair appears in both result sets", file=sys.stderr)
        return 1
    print_table(rows, ["workload", "metric", "unit", "parent (median ±IQR)",
                       "change (median ±IQR)", "verdict"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
