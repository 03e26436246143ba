"""The import footprint is part of the contract: no path loads scipy or
sympy; the package needs numpy alone.  ``run`` and ``check
dissipation|apriori`` load neither the sweep layer nor the slope layer,
which only the commands that call them import.  The custom-expression
compiler (``maxslope.expression``) loads only for a ``custom_smooth``
energy, the prox's numeric search (``maxslope.search``) only once some
coordinate row has no closed form, and its bracket route
(``maxslope.brackets``) only once some coordinate row takes it.  A
well-formed command line loads neither argparse nor gettext, which only
``--help`` and a usage error need.  No command loads ``numpy.polynomial``.  Importing the CLI
into a process that has not loaded numpy asks numpy's OpenBLAS for one
thread, unless the environment already names a count, and keeps the
garbage collector off the heap that the imports made: the collector is
paused while they run and the heap is then frozen, while the objects made
after the import are still collected.  A process that loaded numpy first
keeps its environment and its collector as they are, and a collector that
the process disabled stays disabled.  And no module imports a name that it
never uses, and the package defines no function, class or top-level
constant that none of its modules reads.

Each footprint case runs in a fresh interpreter, because the test process
itself has long since imported both.  Nothing here measures time.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxslope

PACKAGE = Path(maxslope.__file__).resolve().parent
SRC = str(PACKAGE.parent)
TESTS = Path(__file__).resolve().parent
HEAVY = ("scipy", "scipy.optimize", "sympy")
ON_DEMAND = ("maxslope.regimes", "maxslope.slope")
COMPILED_ON_DEMAND = ("maxslope.expression", "maxslope.brackets")
PARSER = ("argparse", "gettext")
SEARCH = ("maxslope.search",)
BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def probe(code, expression, **env):
    """The value of the JSON-able ``expression`` in a fresh interpreter
    after it runs ``code``, with the environment variables ``env`` set, or
    unset where None."""
    script = f"{code}\nimport json, os, sys\nprint(json.dumps({expression}))"
    environ = dict(os.environ)
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, environ.get("PYTHONPATH")]))
    for name, value in env.items():
        environ.pop(name, None)
        if value is not None:
            environ[name] = value
    done = subprocess.run([sys.executable, "-c", script], env=environ,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def modules_after(code, modules):
    """Those of ``modules`` that a fresh interpreter holds after running
    ``code``."""
    return probe(code, f"[m for m in {modules!r} if m in sys.modules]")


def cli_calls(tmp_path, *configs):
    """Code that runs ``cli.main`` in-process on each (subcommand, config)."""
    lines = ["from maxslope import cli"]
    for k, (subcommand, doc) in enumerate(configs):
        doc = {**doc, "output_dir": str(tmp_path / f"out{k}")}
        path = tmp_path / f"config{k}.json"
        path.write_text(json.dumps(doc))
        lines.append(f"assert cli.main([{subcommand!r}, '--config', {str(path)!r}, "
                     f"'--quiet']) == 0")
    return "\n".join(lines)


WIGGLY_RUN = {
    "space": {"dimension": 1},
    "energy": {"kind": "wiggly",
               "base": {"kind": "quadratic", "weights": [1.0], "center": [0.0]}},
    "command": {"run": {"eps": 0.1, "tau": 0.01, "horizon_T": 0.1,
                        "initial_point": [0.5]}},
}

WEIGHTED_2D_DISSIPATION = {
    "space": {"dimension": 2, "metric_kind": "diagonal_weighted",
              "weights": [4.0, 1.0]},
    "energy": {"kind": "convex_perturbed",
               "base": {"kind": "quadratic", "weights": [1.0, 2.0],
                        "center": [0.0, 0.0]}},
    "command": {"check": {
        "type": "dissipation",
        "run": {"eps": 0.1, "tau": 0.05, "horizon_T": 0.5,
                "initial_point": [1.0, -0.5]},
    }},
}

WIGGLY_2D_RUN = {
    "space": {"dimension": 2, "metric_kind": "diagonal_weighted",
              "weights": [4.0, 1.0]},
    "energy": {"kind": "wiggly",
               "base": {"kind": "quadratic", "weights": [1.0, 2.0],
                        "center": [0.0, 0.0]}},
    "command": {"run": {"eps": 0.1, "tau": 0.01, "horizon_T": 0.05,
                        "initial_point": [0.5, -0.3]}},
}

CUSTOM_RUN = {
    "space": {"dimension": 1},
    "energy": {"kind": "custom_smooth", "expression": "0.5*x^2 + eps*cos(x/eps)"},
    "command": {"run": {"eps": 0.1, "tau": 0.01, "horizon_T": 0.05,
                        "initial_point": [0.5]}},
}

RUN_ARTIFACTS = ("trajectory.csv", "interpolant.csv", "dissipation.json")
# (subcommand, config, artifacts) of CLI cases that must exit 0 without scipy
# or sympy: the numeric 2D prox, coordinate row by coordinate row, under a
# maximal-slope check on a weighted plane, a 2D wiggly run and a custom
# expression with exp
WITHOUT_HEAVY = {
    "nd_check": ("check", {
        "space": {"dimension": 2, "metric_kind": "diagonal_weighted",
                  "weights": [4.0, 1.0]},
        "energy": {"kind": "quadratic", "weights": [1.0, 2.0],
                   "center": [0.3, -0.2]},
        "command": {"check": {
            "type": "maximal_slope",
            "coupling": {"form": "eps_of_tau", "lam": 1.0, "alpha": 1.0},
            "levels": [0.04, 0.02],
            "params": {"horizon_T": 0.4, "initial_point": [1.0, -0.8],
                       "prox_settings": {"mode": "multistart_numeric"}}}},
    }, ("check_maximal_slope.json",)),
    "nd_run": ("run", {
        "space": {"dimension": 2},
        "energy": {"kind": "wiggly",
                   "base": {"kind": "quadratic", "weights": [1.0, 2.0],
                            "center": [0.0, 0.0]}},
        "command": {"run": {"eps": 0.1, "tau": 0.01, "horizon_T": 0.1,
                            "initial_point": [0.5, -0.3]}},
    }, RUN_ARTIFACTS),
    "custom_run": ("run", {
        "space": {"dimension": 1},
        "energy": {"kind": "custom_smooth",
                   "expression": "0.5*x^2 + eps*cos(x/eps) + 0.25*exp(-x^2)"},
        "command": {"run": {"eps": 0.1, "tau": 0.01, "horizon_T": 0.1,
                            "initial_point": [0.5]}},
    }, RUN_ARTIFACTS),
}


def test_cli_import_loads_neither():
    assert modules_after("import maxslope.cli", HEAVY) == []


def test_closed_form_and_grid_zoom_runs_load_neither(tmp_path):
    code = cli_calls(tmp_path, ("run", WIGGLY_RUN),
                     ("check", WEIGHTED_2D_DISSIPATION))
    assert modules_after(code, HEAVY) == []


def test_no_path_loads_sympy(tmp_path):
    # custom expressions are compiled from their syntax tree, with and
    # without eps in them
    sweep = {**CUSTOM_RUN, "command": {"sweep": {
        "coupling": {"form": "tau_of_eps", "lam": 1.0, "alpha": 2.0},
        "levels": [0.1, 0.05],
        "params": {"horizon_T": 0.05, "initial_point": [0.5]}}}}
    run = {**CUSTOM_RUN, "energy": {"kind": "custom_smooth",
                                    "expression": "x^4 - x^2 + abs(x)/4"}}
    code = cli_calls(tmp_path, ("run", CUSTOM_RUN), ("sweep", sweep), ("run", run))
    assert modules_after(code, HEAVY) == []


def test_no_path_loads_scipy(tmp_path):
    # the nD numeric prox, called directly and under a CLI run
    code = """
from maxslope.energy import quadratic
from maxslope.metric import SpaceDescriptor
from maxslope.prox import MULTISTART_NUMERIC, ProxSettings, prox_batch
spec = quadratic(SpaceDescriptor(2), [4.0, 1.0], [1.0, -1.0])
prox_batch(spec, 1.0, [0.5], [[0.0, 0.0]], ProxSettings(mode=MULTISTART_NUMERIC))
""" + cli_calls(tmp_path, ("run", WIGGLY_2D_RUN))
    assert modules_after(code, HEAVY) == []


@pytest.mark.parametrize("name", list(WITHOUT_HEAVY))
def test_cli_case_runs_without_heavy_modules(name, tmp_path):
    # stricter than blocking the imports: a fallback that imported scipy or
    # sympy after a failed import would show up in sys.modules here
    subcommand, doc, artifacts = WITHOUT_HEAVY[name]
    assert modules_after(cli_calls(tmp_path, (subcommand, doc)), HEAVY) == []
    for artifact in artifacts:
        assert (tmp_path / "out0" / artifact).is_file()


APRIORI_2D = {**WEIGHTED_2D_DISSIPATION, "command": {"check": {
    **WEIGHTED_2D_DISSIPATION["command"]["check"], "type": "apriori"}}}


# a bare import of the CLI (cli_calls of no config), and well-formed
# command lines of a run and of the checks on its trajectory
TRAJECTORY_COMMANDS = pytest.mark.parametrize(
    "calls", [(), (("run", WIGGLY_RUN),), (("check", WEIGHTED_2D_DISSIPATION),),
              (("check", APRIORI_2D),)],
    ids=["import", "run", "check_dissipation", "check_apriori"])


@TRAJECTORY_COMMANDS
def test_run_and_trajectory_checks_load_neither_sweep_nor_slope(calls, tmp_path):
    assert modules_after(cli_calls(tmp_path, *calls), ON_DEMAND) == []


WIGGLY_SWEEP = {**WIGGLY_RUN, "command": {"sweep": {
    "coupling": {"form": "tau_of_eps", "lam": 1.0, "alpha": 2.0},
    "levels": [0.1, 0.05],
    "params": {"horizon_T": 0.05, "initial_point": [0.5]}}}}


def test_sweep_loads_sweep_and_slope(tmp_path):
    code = cli_calls(tmp_path, ("sweep", WIGGLY_SWEEP))
    assert modules_after(code, ON_DEMAND) == list(ON_DEMAND)


def test_no_command_loads_numpy_polynomial(tmp_path):
    # scheme.gauss_legendre builds the interpolant's Gauss rule itself
    code = cli_calls(tmp_path, ("run", WIGGLY_RUN), ("sweep", WIGGLY_SWEEP),
                     ("check", WEIGHTED_2D_DISSIPATION), WITHOUT_HEAVY["nd_check"][:2],
                     ("run", CUSTOM_RUN))
    assert modules_after(code, ("numpy.polynomial",)) == []


BRACKET_RUN = {**WIGGLY_RUN, "command": {"run": {
    "eps": 0.1, "tau": 0.12, "horizon_T": 1.2, "initial_point": [0.0]}}}
# (subcommand, config) of the commands whose energies are built-in families
# and whose coordinate rows all take a closed form or the Newton route
WITHOUT_COMPILED_ON_DEMAND = {
    "import": (),
    "run": (("run", WIGGLY_RUN),),
    "check_dissipation": (("check", WEIGHTED_2D_DISSIPATION),),
    "check_apriori": (("check", APRIORI_2D),),
    "check_maximal_slope_2d_numeric": (WITHOUT_HEAVY["nd_check"][:2],),
}


@pytest.mark.parametrize("name", list(WITHOUT_COMPILED_ON_DEMAND))
def test_builtin_newton_commands_load_neither_expression_nor_grid(name, tmp_path):
    code = cli_calls(tmp_path, *WITHOUT_COMPILED_ON_DEMAND[name])
    assert modules_after(code, COMPILED_ON_DEMAND) == []


def test_custom_run_loads_the_expression_compiler(tmp_path):
    # and the bracket route, which every custom_smooth row takes: the family
    # declares no curvature floor
    code = cli_calls(tmp_path, ("run", CUSTOM_RUN))
    assert modules_after(code, COMPILED_ON_DEMAND) == list(COMPILED_ON_DEMAND)


def test_grid_route_run_loads_the_grid_route(tmp_path):
    # at tau = 0.12 the steps' objective w + m / tau - a / eps < 0 is not
    # certified convex, so they take the bracket route; the smaller step
    # sizes of the interpolant's nodes take the Newton route
    code = cli_calls(tmp_path, ("run", BRACKET_RUN))
    assert modules_after(code, COMPILED_ON_DEMAND) == ["maxslope.brackets"]


@TRAJECTORY_COMMANDS
def test_well_formed_commands_load_no_parser(calls, tmp_path):
    assert modules_after(cli_calls(tmp_path, *calls), PARSER) == []


@pytest.mark.parametrize("argv", [["--help"], ["run"]], ids=["help", "usage_error"])
def test_help_and_usage_errors_load_the_parser(argv):
    code = ("from maxslope import cli\ntry:\n"
            f"    cli.main({argv!r})\nexcept SystemExit:\n    pass")
    assert modules_after(code, PARSER) == list(PARSER)


QUAD_RUN = {
    "space": {"dimension": 1},
    "energy": {"kind": "quadratic", "weights": [1.0], "center": [0.0]},
    "command": {"run": {"eps": 1.0, "tau": 0.1, "horizon_T": 0.5,
                        "initial_point": [1.0]}},
}
# (subcommand, config) of commands whose every coordinate row has a closed form
CLOSED_FORM = {
    "import": (),
    "run": (("run", QUAD_RUN),),
    "check_dissipation": (("check", WEIGHTED_2D_DISSIPATION),),
    "check_apriori": (("check", APRIORI_2D),),
}


@pytest.mark.parametrize("name", list(CLOSED_FORM))
def test_closed_form_commands_load_no_search(name, tmp_path):
    assert modules_after(cli_calls(tmp_path, *CLOSED_FORM[name]), SEARCH) == []


@pytest.mark.parametrize("call", [("run", WIGGLY_RUN), WITHOUT_HEAVY["nd_check"][:2]],
                         ids=["newton_run", "multistart_numeric_check"])
def test_numeric_commands_load_the_search(call, tmp_path):
    assert modules_after(cli_calls(tmp_path, call), SEARCH) == list(SEARCH)


def test_cli_import_asks_for_one_blas_thread():
    found = probe("import maxslope.cli", f"os.environ.get({BLAS_THREADS!r})",
                  **{BLAS_THREADS: None})
    assert found == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts the process's threads in /proc/self/task, "
                           "which this platform does not have")
def test_cli_process_runs_one_thread():
    # numpy's OpenBLAS would start a worker thread at import otherwise
    found = probe("import maxslope.cli", "len(os.listdir('/proc/self/task'))",
                  **{BLAS_THREADS: None})
    assert found == 1


def test_user_blas_thread_count_wins():
    found = probe("import maxslope.cli", f"os.environ.get({BLAS_THREADS!r})",
                  **{BLAS_THREADS: "2"})
    assert found == "2"


def test_process_that_loaded_numpy_first_keeps_its_environment():
    # library use, tests and a benchmark harness: the processes they start
    # must not inherit a thread count that they did not set
    found = probe("import numpy\nimport maxslope.cli",
                  f"os.environ.get({BLAS_THREADS!r})", **{BLAS_THREADS: None})
    assert found is None


GC_STATE = "[gc.isenabled(), gc.get_freeze_count()]"


def test_cli_import_freezes_its_heap():
    enabled, frozen = probe("import gc\nimport maxslope.cli", GC_STATE)
    assert enabled is True
    assert frozen > 0


def test_process_that_loaded_numpy_first_keeps_its_collector():
    assert probe("import gc\nimport numpy\nimport maxslope.cli", GC_STATE) == [True, 0]


def test_disabled_collector_stays_disabled():
    enabled, _ = probe("import gc\ngc.disable()\nimport maxslope.cli", GC_STATE)
    assert enabled is False


def test_cycle_made_after_cli_import_is_collected():
    code = """
import gc, weakref
import maxslope.cli
class Node:
    pass
node = Node()
node.self = node
ref = weakref.ref(node)
del node
gc.collect()
"""
    assert probe(code, "ref() is None") is True


def unused_imports(path):
    """The names that the module at ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return sorted(imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)})


def test_no_module_imports_an_unused_name():
    modules = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


# Defined in the package for a reader outside it, or for a caller that is
# still to come, and not read inside it.
UNREAD_ALLOWED = {
    # ROADMAP item 7 certifies well-posedness before step 0
    "certify_well_posedness",
    # the installed package's version, for its users
    "__version__",
}


def top_level_names(node):
    """The names that a statement of a module's body defines: a function's
    or class's name, or the names that an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name)]


def test_every_function_and_class_is_read():
    # and every top-level constant or table; a read is a load of the name,
    # an attribute of that name or an import of it
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update((name, path.name) for node in tree.body
                       for name in top_level_names(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    unread = {name: module for name, module in defined.items()
              if name not in read | UNREAD_ALLOWED}
    assert unread == {}
