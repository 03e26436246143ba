"""In-process tracing of the maxslope layers, from outside the package.

``Tracer.install`` replaces the public entry points of each module with
wrappers that record a span (name, parent, start, end, attributes) in
memory, in every ``maxslope`` module that holds a reference to them, and
``Tracer.uninstall`` puts the originals back.  ``layer_metrics`` turns
the spans of one traced call into the per-layer metrics.  A layer's self
time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (metric name, unit) in report order.
LAYER_METRICS = (
    ("import.energy_s", "s"),
    ("import.prox_s", "s"),
    ("import.diagnostics_s", "s"),
    ("import.total_s", "s"),
    ("config.from_file_s", "s"),
    ("energy.eval_many.calls", "count"),
    ("energy.eval_many.rows", "count"),
    ("energy.eval_many.self_s", "s"),
    ("energy.gradient_many.calls", "count"),
    ("energy.gradient_many.self_s", "s"),
    ("prox.calls", "count"),
    ("prox.self_s", "s"),
    ("prox.exact.calls", "count"),
    ("prox.numeric_1d.calls", "count"),
    ("prox.numeric_nd.calls", "count"),
    ("prox.rows_per_numeric_1d_solve", "rows/solve"),
    ("prox.near_tie_ratio", "ratio"),
    ("prox.lbfgs.calls", "count"),
    ("prox.lbfgs.nfev", "count"),
    ("prox.lbfgs.self_s", "s"),
    ("prox.lbfgs.useful_ratio", "ratio"),
    ("scheme.run_scheme.self_s", "s"),
    ("scheme.run_scheme.steps", "count"),
    ("scheme.build_interpolant.self_s", "s"),
    ("scheme.build_interpolant.nodes", "count"),
    ("scheme.csv_s", "s"),
    ("scheme.csv_bytes", "bytes"),
    ("metric.distance.calls", "count"),
    ("metric.distance.self_s", "s"),
    ("metric.point.constructions", "count"),
    ("diagnostics.dissipation_identity.calls", "count"),
    ("diagnostics.dissipation_identity.self_s", "s"),
    ("diagnostics.maximal_slope_check.self_s", "s"),
    ("slope.check_condition_h.self_s", "s"),
    ("slope.slope_value.calls", "count"),
    ("regimes.run_sweep.self_s", "s"),
    ("regimes.maximal_slope_pipeline.self_s", "s"),
    ("regimes.levels_ok", "count"),
    ("cli.self_s", "s"),
    ("cli.write_json_s", "s"),
    ("trace.overhead_s", "s"),
)

_IMPORT_LAYERS = {"maxslope.energy": "import.energy_s",
                  "maxslope.prox": "import.prox_s",
                  "maxslope.diagnostics": "import.diagnostics_s"}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime`` output.

    ``import.total_s`` sums the top-level ``maxslope`` entries; a module
    that was never imported reads 0.
    """
    out = {name: 0.0 for name in _IMPORT_LAYERS.values()}
    out["import.total_s"] = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        module = name.strip()
        seconds = int(cumulative) * 1e-6
        if module in _IMPORT_LAYERS:
            out[_IMPORT_LAYERS[module]] = seconds
        top_level = len(name) - len(name.lstrip()) == 1
        if top_level and (module == "maxslope" or module.startswith("maxslope.")):
            out["import.total_s"] += seconds
    return out


def _rows(args, kwargs, result):
    shape = np.shape(kwargs["X"] if "X" in kwargs else args[2])
    return {"rows": shape[0] if len(shape) == 2 else 1}


def _prox_attrs(args, kwargs, res):
    spec = args[0]
    settings = kwargs["settings"] if "settings" in kwargs else args[4]
    # The result says whether a closed form answered; otherwise the search
    # is the 1D grid zoom or the nD multistart, by dimension.
    if res.certified_exact:
        kind = "exact"
    elif spec.domain.dimension == 1:
        kind = "numeric_1d"
    else:
        kind = "numeric_nd"
    return {"kind": kind, "near_ties": bool(res.near_ties),
            "value": float(res.value), "local_tol": float(settings.local_tol)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(kwargs["path"] if "path" in kwargs else args[1])}


# (module, attribute, span name, span attributes from (args, kwargs, result)).
_FUNCTIONS = (
    ("maxslope.energy", "eval_many", "energy.eval_many", _rows),
    ("maxslope.energy", "gradient_many", "energy.gradient_many", None),
    ("maxslope.prox", "prox", "prox", _prox_attrs),
    ("maxslope.scheme", "run_scheme", "scheme.run_scheme",
     lambda a, k, r: {"steps": r.n_steps}),
    ("maxslope.scheme", "build_interpolant", "scheme.build_interpolant",
     lambda a, k, r: {"nodes": int(r.node_times.size)}),
    ("maxslope.scheme", "trajectory_to_csv", "scheme.csv", _file_bytes),
    ("maxslope.scheme", "interpolant_to_csv", "scheme.csv", _file_bytes),
    ("maxslope.metric", "distance", "metric.distance", None),
    ("maxslope.diagnostics", "dissipation_identity",
     "diagnostics.dissipation_identity", None),
    ("maxslope.diagnostics", "maximal_slope_check",
     "diagnostics.maximal_slope_check", None),
    ("maxslope.slope", "check_condition_h", "slope.check_condition_h", None),
    ("maxslope.slope", "slope_value", "slope.slope_value", None),
    ("maxslope.regimes", "run_sweep", "regimes.run_sweep",
     lambda a, k, r: {"levels_ok": sum(lv.status == "ok" for lv in r.levels)}),
    ("maxslope.regimes", "maximal_slope_pipeline",
     "regimes.maximal_slope_pipeline", None),
    ("maxslope.cli", "write_json", "cli.write_json", None),
)


class Tracer:
    """Span recorder; spans stay in memory until the caller writes them."""

    def __init__(self):
        self.spans: list[list] = []      # [name, parent index, start, end, attrs]
        self.point_constructions = 0
        self.missing: list[str] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans = []
        self.point_constructions = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        A call made from inside a span of the same name (recursion within
        one layer) records no span of its own.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and self.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else None, time.perf_counter(), None, None]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result
        return traced

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "maxslope" and not modname.startswith("maxslope."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def install(self):
        """Wrap every traced entry point that this version of the package has."""
        self.missing = []
        for modname, attr, name, attrs in _FUNCTIONS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._replace_everywhere(original, self.wrap(name, original, attrs))

        config = sys.modules["maxslope.config"].ExperimentConfig
        from_file = config.__dict__["from_file"].__func__
        self._patch(config, "from_file",
                    classmethod(self.wrap("config.from_file", from_file)))

        point = sys.modules["maxslope.metric"].Point
        post_init = point.__post_init__

        def counted_post_init(p):
            self.point_constructions += 1
            post_init(p)
        self._patch(point, "__post_init__", counted_post_init)

        # scipy.optimize.minimize as maxslope.prox looks it up at call time.
        optimize = sys.modules.get("scipy.optimize")
        if optimize is not None:
            minimize = optimize.minimize
            wrapped = self.wrap(
                "prox.lbfgs", minimize,
                lambda a, k, r: {"fun": float(r.fun), "nfev": int(r.nfev)})
            self._patch(optimize, "minimize", wrapped)
            self._replace_everywhere(minimize, wrapped)

    def uninstall(self):
        for obj, attr, old in reversed(self._patches):
            setattr(obj, attr, old)
        self._patches = []


def layer_metrics(spans: list[list], point_constructions: int) -> dict[str, float]:
    """Per-layer metrics (without imports and overhead) from one traced call."""
    n = len(spans)
    child_time = [0.0] * n
    for name, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    sums = defaultdict(float)
    for k, (name, parent, start, end, attrs) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[k]
        total_s[name] += end - start
        for key, value in (attrs or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                sums[f"{name}.{key}"] += value

    def enclosing_prox(k):
        parent = spans[k][1]
        while parent is not None and spans[parent][0] != "prox":
            parent = spans[parent][1]
        return None if parent is None else spans[parent][4]

    prox_kinds = defaultdict(int)
    near_ties = 0
    for name, _, _, _, attrs in spans:
        if name == "prox" and attrs:
            prox_kinds[attrs["kind"]] += 1
            near_ties += attrs["near_ties"]

    rows_1d = 0
    useful = 0
    for k, (name, _, _, _, attrs) in enumerate(spans):
        if name == "energy.eval_many":
            owner = enclosing_prox(k)
            if owner and owner["kind"] == "numeric_1d":
                rows_1d += attrs["rows"]
        elif name == "prox.lbfgs":
            owner = enclosing_prox(k)
            if owner and abs(attrs["fun"] - owner["value"]) <= owner["local_tol"]:
                useful += 1

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "config.from_file_s": total_s["config.from_file"],
        "energy.eval_many.calls": calls["energy.eval_many"],
        "energy.eval_many.rows": sums["energy.eval_many.rows"],
        "energy.eval_many.self_s": self_s["energy.eval_many"],
        "energy.gradient_many.calls": calls["energy.gradient_many"],
        "energy.gradient_many.self_s": self_s["energy.gradient_many"],
        "prox.calls": calls["prox"],
        "prox.self_s": self_s["prox"],
        "prox.exact.calls": prox_kinds["exact"],
        "prox.numeric_1d.calls": prox_kinds["numeric_1d"],
        "prox.numeric_nd.calls": prox_kinds["numeric_nd"],
        "prox.rows_per_numeric_1d_solve": ratio(rows_1d, prox_kinds["numeric_1d"]),
        "prox.near_tie_ratio": ratio(near_ties, calls["prox"]),
        "prox.lbfgs.calls": calls["prox.lbfgs"],
        "prox.lbfgs.nfev": sums["prox.lbfgs.nfev"],
        "prox.lbfgs.self_s": self_s["prox.lbfgs"],
        "prox.lbfgs.useful_ratio": ratio(useful, calls["prox.lbfgs"]),
        "scheme.run_scheme.self_s": self_s["scheme.run_scheme"],
        "scheme.run_scheme.steps": sums["scheme.run_scheme.steps"],
        "scheme.build_interpolant.self_s": self_s["scheme.build_interpolant"],
        "scheme.build_interpolant.nodes": sums["scheme.build_interpolant.nodes"],
        "scheme.csv_s": total_s["scheme.csv"],
        "scheme.csv_bytes": sums["scheme.csv.bytes"],
        "metric.distance.calls": calls["metric.distance"],
        "metric.distance.self_s": self_s["metric.distance"],
        "metric.point.constructions": point_constructions,
        "diagnostics.dissipation_identity.calls": calls["diagnostics.dissipation_identity"],
        "diagnostics.dissipation_identity.self_s": self_s["diagnostics.dissipation_identity"],
        "diagnostics.maximal_slope_check.self_s": self_s["diagnostics.maximal_slope_check"],
        "slope.check_condition_h.self_s": self_s["slope.check_condition_h"],
        "slope.slope_value.calls": calls["slope.slope_value"],
        "regimes.run_sweep.self_s": self_s["regimes.run_sweep"],
        "regimes.maximal_slope_pipeline.self_s": self_s["regimes.maximal_slope_pipeline"],
        "regimes.levels_ok": sums["regimes.run_sweep.levels_ok"],
        "cli.self_s": self_s["cli.main"],
        "cli.write_json_s": total_s["cli.write_json"],
    }
