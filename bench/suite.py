"""Run every workload over a range of seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 bench/suite.py --seeds 1-10 --out bench/out/set-a
    python3 bench/suite.py --seeds 1 --trace 1

Every workload runs for ``run_seconds`` from ``BENCHMARK.json``.  Each run is
a separate ``bench/run.py`` process; its result file lands in ``--out``,
ready for ``bench/compare.py``.  The summary gives, per workload and metric,
the median, the quartiles, and the interquartile range as a share of the
median next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from compare import by_metric, load_runs, load_specs, print_table, quartiles, spread
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=[1], help="e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "out" / "suite")
    args = ap.parse_args(argv)
    specs = load_specs()

    for workload in WORKLOADS:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(doc["run_seconds"]),
                   "--trace", str(args.trace), "--out", str(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: correct={last['correct']} "
                  f"attempted={last['attempted']} failed={last['failed']} "
                  f"fail_frac={last['failed'] / last['attempted']:.6g} ratio", flush=True)
            for name, m in last["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")

    rows = []
    for (workload, name), by_seed in sorted(by_metric(load_runs(args.out)).items()):
        values = [by_seed[s] for s in args.seeds if s in by_seed]
        if not values:
            continue
        spec = specs.get(name, {"unit": "?"})
        q1, med, q3 = quartiles(values)
        bound = spec.get("bound")
        rows.append([workload, name, spec["unit"], f"{med:.6g}", f"{q1:.6g}", f"{q3:.6g}",
                     f"{spread(values):.3f}", "" if bound is None else f"{bound:.2f}"])
    print()
    print_table(rows, ["workload", "metric", "unit", "median", "q1", "q3", "iqr/median",
                       "bound"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
