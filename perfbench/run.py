#!/usr/bin/env python3
"""Benchmark of the ``maxslope`` CLI on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pinning_run --seed 0 --seconds 30 --trace 0

``--trace 0`` measures what a user waits for, as a closed loop with one
client: it alternates a cold ``python -m maxslope.cli <cmd> --config
<generated.json> --quiet`` (``PYTHONPATH=src``, timed from spawn to exit,
CPU and peak memory read with ``os.wait4``) with a warm call of
``maxslope.cli.main`` in this already-imported process, after one
discarded warm call.  Set-up time is the median of several cold
``python -c "import maxslope.cli"``.

On a shared virtual machine the speed drifts by up to a factor of two
within seconds (2-core Intel Xeon VM of the baseline in
``baseline.json``).  So a fixed calibration runs between
consecutive samples, and each timing is scaled by the calibration's
reference time over the mean of the two calibrations around it: the
bounded timings are seconds at the reference speed.  Cold samples are
gauged by a cold ``python -c "import numpy"``, warm samples by an
in-process loop of small numpy operations.  Neither touches the package,
so a change to it moves the scaled timings as it moves the raw ones.  The
raw medians are printed and stored beside the scaled ones.

``--trace 1`` alternates untraced and traced warm calls (see
``tracing.py``) and reports the per-layer metrics, the import times from
``python -X importtime`` and the tracing overhead, all unscaled.  Before
each of these calls the custom-expression cache is cleared, so the
config layer pays the expression compile that every CLI invocation pays.

Every invocation's outputs are checked (``checks.py``); a failed check
counts in ``failed``.  The last line of standard output is one JSON
object; the full result, with samples and the environment, goes to
``.perfbench/results/``.  Thread-count variables are recorded, not set.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from checks import OutputChecker
from tracing import LAYER_METRICS, Tracer, layer_metrics, parse_importtime
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MAXSLOPE_THREADS")
# Times of the two calibrations at a quiet moment on the 2-core Intel Xeon
# VM of the baseline (Python 3.11, numpy 2.4); scaled timings are seconds
# at that speed.
WARM_CALIBRATION_REFERENCE_S = 0.075
COLD_CALIBRATION_REFERENCE_S = 0.11


def calibrate_warm() -> float:
    """Seconds taken by a fixed mix of small numpy operations and Python
    object work, the kind of work the package does per prox solve."""
    start = time.perf_counter()
    xs = np.linspace(-1.0, 1.0, 257)
    acc = 0.0
    for k in range(6000):
        v = 0.5 * xs * xs + 0.05 * np.cos(xs / 0.05) + k * 1e-6
        acc += float(v[int(np.argmin(v))])
        t = tuple(float(c) for c in xs[:8])
        acc += sum(t) + len({"a": t, "b": k})
    return time.perf_counter() - start


class SpeedGauge:
    """Reference over current machine speed, from one calibration before
    and one after each sample."""

    def __init__(self, calibrate, reference_s: float):
        self.calibrate = calibrate
        self.reference_s = reference_s
        self.last = calibrate()

    def factor(self) -> float:
        before, self.last = self.last, self.calibrate()
        return self.reference_s / ((before + self.last) / 2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd: list[str], cwd: Path, stderr_path: Path) -> dict:
    """Run ``cmd`` to completion; wall seconds from spawn to exit, CPU, RSS."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (>= 50) with at least ten samples above it.

    Nearest-rank percentiles; None when fewer than 20 samples exist.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_build() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sympy": version("sympy"),
        "blas": blas_build(),
        "git_commit": git_commit(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Bench:
    def __init__(self, workload, seed: int, tmp: Path, cli):
        self.workload = workload
        self.tmp = tmp
        self.cli = cli
        self.out = tmp / "out"
        self.config = tmp / f"{workload.name}.json"
        cfg = dict(workload.config(seed), output_dir=str(self.out))
        self.config.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n",
                               encoding="utf-8")
        self.argv = [workload.command, "--config", str(self.config), "--quiet"]
        self.checker = OutputChecker(workload, SRC / "maxslope" / "schemas")

    def _fresh_out(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def calibrate_cold(self) -> float:
        return spawn([sys.executable, "-c", "import numpy"], self.tmp,
                     self.tmp / "stderr.txt")["wall"]

    def cold(self) -> dict:
        self._fresh_out()
        sample = spawn([sys.executable, "-m", "maxslope.cli", *self.argv],
                       self.tmp, self.tmp / "stderr.txt")
        self.checker.record(sample["exit"], self.out, "cold")
        return sample

    def warm(self, main=None, label="warm") -> float:
        """One in-process CLI call; returns its wall seconds."""
        main = main or self.cli.main
        self._fresh_out()
        start = time.perf_counter()
        try:
            code = main(list(self.argv))
        except Exception as exc:  # an escaped exception is a failed invocation
            code = f"exception {exc!r}"
        wall = time.perf_counter() - start
        self.checker.record(code, self.out, label)
        return wall

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        self.warm(label="discarded warm")
        cold_gauge = SpeedGauge(self.calibrate_cold, COLD_CALIBRATION_REFERENCE_S)
        warm_gauge = SpeedGauge(calibrate_warm, WARM_CALIBRATION_REFERENCE_S)
        setup = []
        for _ in range(SETUP_REPEATS):
            sample = spawn([sys.executable, "-c", "import maxslope.cli"], self.tmp,
                           self.tmp / "stderr.txt")
            if sample["exit"] != 0:
                raise RuntimeError(f"import maxslope.cli exited with {sample['exit']}")
            setup.append({"wall": sample["wall"], "factor": cold_gauge.factor()})
        cold, warm = [], []
        start = time.perf_counter()
        while True:
            pair_start = time.perf_counter()
            sample = self.cold()
            cold.append(dict(sample, factor=cold_gauge.factor()))
            wall = self.warm()
            warm.append({"wall": wall, "factor": warm_gauge.factor()})
            now = time.perf_counter()
            if now - start + (now - pair_start) > seconds:
                break

        def scaled(samples, key="wall"):
            return [s[key] * s["factor"] for s in samples]

        def raw(samples, key="wall"):
            return statistics.median(s[key] for s in samples)

        walls = scaled(cold)
        metrics = {
            "wall_s.p50": (statistics.median(walls), "s"),
            "warm_s.p50": (statistics.median(scaled(warm)), "s"),
            "cpu_s.p50": (statistics.median(scaled(cold, "cpu")), "s"),
            "peak_rss_mb": (raw(cold, "rss_mb"), "MB"),
            "setup_s": (statistics.median(scaled(setup)), "s"),
        }
        samples = {"cold": cold, "warm": warm, "setup": setup,
                   "wall_s.tail": tail_percentile(walls),
                   "raw": {"wall_s.p50": raw(cold), "warm_s.p50": raw(warm),
                           "cpu_s.p50": raw(cold, "cpu"), "setup_s": raw(setup)},
                   "speed_factor.p50": {
                       "cold": statistics.median(s["factor"] for s in cold),
                       "warm": statistics.median(s["factor"] for s in warm)}}
        return metrics, samples

    def import_times(self) -> dict:
        runs = []
        for _ in range(IMPORTTIME_REPEATS):
            err = self.tmp / "importtime.txt"
            spawn([sys.executable, "-X", "importtime", "-c", "import maxslope.cli"],
                  self.tmp, err)
            runs.append(parse_importtime(err.read_text(encoding="utf-8")))
        return {k: statistics.median(r[k] for r in runs) for k in runs[0]}

    def traced(self, seconds: float) -> tuple[dict, dict]:
        imports = self.import_times()
        reset_caches()
        self.warm(label="discarded warm")
        tracer = Tracer()
        untraced, traced, per_call = [], [], []
        start = time.perf_counter()
        while True:
            pair_start = time.perf_counter()
            reset_caches()
            untraced.append(self.warm())
            reset_caches()
            tracer.reset()
            tracer.install()
            try:
                traced.append(self.warm(tracer.wrap("cli.main", self.cli.main), "traced"))
            finally:
                tracer.uninstall()
            per_call.append(layer_metrics(tracer.spans, tracer.point_constructions))
            now = time.perf_counter()
            if now - start + (now - pair_start) > seconds:
                break
        metrics = dict(imports)
        for name in per_call[0]:
            metrics[name] = statistics.median(c[name] for c in per_call)
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        trace_file = WORK_DIR / "traces" / f"{self.workload.name}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "attrs"],
                       "spans": tracer.spans, "metrics": metrics}, fh)
        units = dict(LAYER_METRICS)
        samples = {"untraced_warm_s": untraced, "traced_warm_s": traced,
                   "trace_file": str(trace_file.relative_to(ROOT)),
                   "missing_entry_points": tracer.missing}
        return {k: (metrics[k], units[k]) for k, _ in LAYER_METRICS}, samples


def reset_caches():
    """Empty the compiled-expression cache, where this version has one."""
    energy = sys.modules.get("maxslope.energy")
    cache_clear = getattr(getattr(energy, "_compile_expression", None),
                          "cache_clear", None)
    if cache_clear is not None:
        cache_clear()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_human(workload: str, trace: int, metrics: dict, samples: dict,
                checker: OutputChecker):
    if trace:
        n = len(samples["traced_warm_s"])
        for name, (value, unit) in metrics.items():
            print(f"{workload} {name} = {value:.6g} {unit} (traced calls={n})")
    else:
        n = {"cold": len(samples["cold"]), "warm": len(samples["warm"]),
             "setup": len(samples["setup"])}
        source = {"warm_s.p50": "warm", "setup_s": "setup"}
        for name, (value, unit) in metrics.items():
            raw = samples["raw"].get(name)
            print(f"{workload} {name} = {value:.6g} {unit} "
                  f"(n={n[source.get(name, 'cold')]}"
                  + (f", unscaled {raw:.6g} {unit})" if raw is not None else ")"))
        tail = samples["wall_s.tail"]
        print(f"{workload} wall_s.tail = " + (
            f"{tail[1]:.6g} s at p{tail[0]} (n={n['cold']})" if tail
            else f"n/a: {n['cold']} cold samples, a tail needs 20 (see report.py)"))
        factors = samples["speed_factor.p50"]
        print(f"{workload} speed_factor.p50 = {factors['cold']:.4g} cold, "
              f"{factors['warm']:.4g} warm")
    print(f"{workload} error_rate = {checker.failed / checker.attempted:.6g} "
          f"({checker.failed}/{checker.attempted} invocations)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maxslope" / "cli.py").is_file():
        print(f"perfbench: no maxslope sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from maxslope import cli

    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        bench = Bench(workload, args.seed, tmp, cli)
        run = bench.traced if args.trace else bench.end_to_end
        metrics, samples = run(args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    checker = bench.checker
    result = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": checker.attempted, "failed": checker.failed,
        "error_rate": checker.failed / checker.attempted,
        "errors": checker.errors[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
    }
    results = WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"environment: {json.dumps(result['environment'], sort_keys=True)}")
    for err in checker.errors[:20]:
        print(f"check failed: {err}")
    print_human(workload.name, args.trace, metrics, samples, checker)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
