"""Output checks for one CLI invocation.

An invocation passes when its exit code is 0 (every workload's check
passes at the seed commit), every
artifact exists, and its bytes equal those of the first invocation that
passed the full check (criterion 9: identical configs give byte-identical
artifacts).  The full check validates each JSON report against the
package's own schema and applies the workload's paper invariant.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import Workload


class OutputChecker:
    def __init__(self, workload: Workload, schema_dir: Path):
        self.workload = workload
        self.schema_dir = schema_dir
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, exit_code: int, out: Path, label: str) -> bool:
        """Check one invocation's outcome and count it; True when it passed."""
        self.attempted += 1
        errors = self.problems(exit_code, out)
        if errors:
            self.failed += 1
            self.errors.extend(f"{label}: {e}" for e in errors)
        return not errors

    def problems(self, exit_code: int, out: Path) -> list[str]:
        w = self.workload
        if exit_code != 0:
            return [f"exit code {exit_code}, expected 0"]
        missing = [a for a in w.artifacts if not (out / a).is_file()]
        if missing:
            return [f"missing artifacts {missing}"]
        digests = {a: hashlib.sha256((out / a).read_bytes()).hexdigest()
                   for a in w.artifacts}
        if self.reference is not None:
            return [f"{a} differs from the first checked invocation's bytes"
                    for a in w.artifacts if digests[a] != self.reference[a]]
        errors = self._validate(out)
        if not errors:
            self.reference = digests
        return errors

    def _validate(self, out: Path) -> list[str]:
        import jsonschema

        errors = []
        for artifact, schema_name in self.workload.schemas.items():
            with open(self.schema_dir / schema_name, encoding="utf-8") as fh:
                schema = json.load(fh)
            try:
                with open(out / artifact, encoding="utf-8") as fh:
                    doc = json.load(fh)
            except json.JSONDecodeError as exc:
                errors.append(f"{artifact} is not valid JSON: {exc}")
                continue
            for err in jsonschema.Draft202012Validator(schema).iter_errors(doc):
                errors.append(f"{artifact} fails {schema_name}: {err.message}")
        if errors:
            return errors
        try:
            return self.workload.invariant(out)
        except (KeyError, TypeError, ValueError) as exc:
            return [f"invariant could not be read: {exc!r}"]
