#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Produces real artifacts for two workloads, then shows that a wrong exit
code, a missing artifact, a corrupted or schema-violating report, a
broken invariant and bytes that differ from the first invocation each
count as a failed invocation.  Exits 0 when every case is caught.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from checks import OutputChecker
from run import SRC, WORK_DIR, Bench
from workloads import WORKLOADS

SCHEMAS = SRC / "maxslope" / "schemas"


def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _raise_last_energy(path: Path):
    rows = list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))
    col = rows[0].index("energy")
    rows[-1][col] = repr(float(rows[-2][col]) + 1e-6)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def cases(name: str):
    """(label, exit code, corruption of the output directory) per workload."""
    if name == "dissipation_check":
        report = "check_dissipation.json"
        return [
            ("wrong exit code", 3, None),
            ("missing artifact", 0, lambda out: (out / report).unlink()),
            ("truncated JSON", 0, lambda out: (out / report).write_text("{", encoding="utf-8")),
            ("schema violation", 0, lambda out: _edit_json(
                out / report, lambda d: d.update(extra=1))),
            ("check not passed", 0, lambda out: _edit_json(
                out / report, lambda d: d.update(passed=False))),
            ("wrong pair count", 0, lambda out: _edit_json(
                out / report, lambda d: d["report"].update(n_pairs=1))),
        ]
    return [
        ("energy rises along a level", 0,
         lambda out: _raise_last_energy(out / "trajectory_level_03.csv")),
        ("level failed", 0, lambda out: _edit_json(
            out / "sweep_report.json",
            lambda d: d["levels"][0].update(status="error"))),
    ]


def main() -> int:
    sys.path.insert(0, str(SRC))
    from maxslope import cli

    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_DIR))
    missed = []
    try:
        for name in ("dissipation_check", "custom_sweep"):
            workload = WORKLOADS[name]
            bench = Bench(workload, 0, tmp, cli)
            bench.warm()
            good = tmp / f"good-{name}"
            shutil.copytree(bench.out, good)
            if bench.checker.failed:
                print(f"FAIL {name}: clean artifacts rejected: {bench.checker.errors}")
                return 1
            for label, code, corrupt in cases(name):
                # A fresh checker runs the full validation; the bench's own
                # checker holds the first invocation's bytes as reference.
                for kind, checker in (("full", OutputChecker(workload, SCHEMAS)),
                                      ("reference", bench.checker)):
                    shutil.rmtree(bench.out)
                    shutil.copytree(good, bench.out)
                    if corrupt:
                        corrupt(bench.out)
                    before = checker.failed
                    checker.record(code, bench.out, label)
                    caught = checker.failed == before + 1
                    print(f"{'ok  ' if caught else 'MISS'} {name}: {label} ({kind} check)"
                          + (f": {checker.errors[-1]}" if caught else ""))
                    if not caught:
                        missed.append(f"{name}: {label} ({kind})")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if missed:
        print(f"{len(missed)} corruption(s) not caught: {missed}")
        return 1
    print("every corruption registered as an error")
    return 0


if __name__ == "__main__":
    sys.exit(main())
