#!/usr/bin/env python3
"""Run the benchmark on several workloads and seeds and print one table.

    python3 perfbench/report.py --seeds 0 1 2 [--seconds 30] [--trace]

Each (workload, seed) is one fresh ``run.py`` process, run one after
another.  For every workload and end-to-end metric the table gives the
median over runs, the spread (first to third quartile over the median,
as ``statistics.quantiles(values, n=4)`` gives them), the number of
samples behind it, and the bound from ``BENCHMARK.json``.  It also gives
``wall_s.tail`` over the pooled cold samples of all runs, with the
percentile it reads, and ``error_rate`` over every invocation.  With
``--trace`` a traced run per workload and seed adds the per-layer
medians.  The summary is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORK_DIR, tail_percentile
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    path = WORK_DIR / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {"median": statistics.median(values), "spread": spread(values),
                     "unit": runs[0]["metrics"][name]["unit"], "runs": len(values),
                     "bound": bounds.get(name), "values": values}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        help="default: the workloads in BENCHMARK.json")
    parser.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path, default=WORK_DIR / "summary.json")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]

    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in workloads:
        runs = [run_one(name, seed, seconds, 0) for seed in args.seeds]
        cold = [s for r in runs for s in r["samples"]["cold"]]
        warm = [s for r in runs for s in r["samples"]["warm"]]
        walls = [s["wall"] * s["factor"] for s in cold]
        samples = {"wall_s.p50": len(cold), "cpu_s.p50": len(cold),
                   "peak_rss_mb": len(cold), "warm_s.p50": len(warm),
                   "setup_s": sum(len(r["samples"]["setup"]) for r in runs)}
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"end_to_end": summarize(runs, bounds), "samples": samples,
                 "wall_s.tail": tail_percentile(walls),
                 "error_rate": failed / attempted, "attempted": attempted,
                 "failed": failed, "errors": [e for r in runs for e in r["errors"]],
                 "environment": runs[0]["environment"]}
        if args.trace:
            traced = [run_one(name, seed, seconds, 1) for seed in args.seeds]
            entry["per_layer"] = summarize(traced, {})
        summary["workloads"][name] = entry

        for metric, m in entry["end_to_end"].items():
            sp = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{name:18s} {metric:12s} {m['median']:10.4f} {m['unit']:3s} "
                  f"spread={sp} bound={m['bound']} runs={m['runs']} "
                  f"samples={samples[metric]}")
        tail = entry["wall_s.tail"]
        print(f"{name:18s} {'wall_s.tail':12s} " + (
            f"{tail[1]:10.4f} s   at p{tail[0]} of {len(walls)} pooled samples"
            if tail else f"n/a (pooled samples={len(walls)}, needs 20)"))
        print(f"{name:18s} {'error_rate':12s} {entry['error_rate']:10.4f}     "
              f"({failed}/{attempted} invocations)")
        for metric, m in entry.get("per_layer", {}).items():
            print(f"{name:18s} {metric:40s} {m['median']:12.6g} {m['unit']}")
        sys.stdout.flush()

    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
