"""The package's public surface: every module's public names, each once, the
names the benchmark's tracer wraps, and what importing the CLI and running
each command load."""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import pilotplan
from pilotplan import distributions, effect, power, simulation, tables, variance

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _fresh_python(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter on this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_star_import_is_the_modules_public_names():
    namespace = {}
    exec("from pilotplan import *", namespace)
    del namespace["__builtins__"]
    modules = (distributions, power, variance, effect, simulation, tables)
    want = {"__version__"}.union(*(m.__all__ for m in modules))
    assert set(namespace) == want
    assert sum(len(m.__all__) for m in modules) + 1 == len(want)   # no name twice
    for m in modules:
        assert all(namespace[name] is getattr(m, name) for name in m.__all__)


def test_benchmark_tracer_names_resolve():
    # perfbench's tracer wraps each (module, name) where the layer above looks
    # it up, so a name kept only for it (an unused import) must not go away
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'pilotplan' has no attribute 'no_such_name'"):
        pilotplan.no_such_name
    assert not hasattr(pilotplan, "reproduce_tables")


def test_public_names_resolve_alike_in_a_fresh_process():
    # the package imports its modules on first lookup, so each name is looked
    # up before anything else has loaded them, then checked against the star
    # import and against the module that lists it
    out = _fresh_python(
        "import importlib, pilotplan\n"
        "names = list(pilotplan.__all__)\n"
        "got = {n: getattr(pilotplan, n) for n in names}\n"
        "star = {}\n"
        "exec('from pilotplan import *', star)\n"
        "home = {n: getattr(importlib.import_module('pilotplan.' + m), n)\n"
        "        for m in pilotplan._MODULES\n"
        "        for n in importlib.import_module('pilotplan.' + m).__all__}\n"
        "home['__version__'] = pilotplan.__version__\n"
        "bad = [n for n in names if not got[n] is star[n] is home[n]]\n"
        "print(len(names), len(set(names)), *bad)")
    count, distinct, *bad = out.split()
    assert bad == [] and count == distinct
    assert int(count) == 1 + sum(len(m.__all__) for m in (
        distributions, power, variance, effect, simulation, tables))


def test_config_error_is_one_class():
    # the rules in distributions raise it, and simulation exports it
    assert pilotplan.ConfigError is simulation.ConfigError is distributions.ConfigError


def test_cli_import_leaves_heavy_modules_unloaded():
    # a fresh process that imports the CLI loads none of these: the records
    # are plain classes, not dataclasses (which pull in inspect, ast, dis and
    # tokenize); the normal quantile comes from _statistics, not statistics
    # (which pulls in fractions and decimal); csv and json load only for
    # their --format, and the planners and the table code only for the
    # commands that run them
    heavy = ("dataclasses", "inspect", "csv", "statistics", "fractions", "decimal", "json",
             "pilotplan.variance", "pilotplan.effect", "pilotplan.tables")
    loaded = _fresh_python(f"import sys, pilotplan.cli; "
                           f"print(*[m for m in {heavy!r} if m in sys.modules])").split()
    assert loaded == [], f"import pilotplan.cli loaded {', '.join(loaded)}"


_PLAN = ["--underpower-prob", ".2", "--underpower-threshold", ".6"]


@pytest.mark.parametrize("argv,loads,never", [
    (["simulate", "--scenario", "effect", "--effect", ".5", "--pilot-n", "32", "--seed", "7",
      "--reps", "100"], {"cli", "distributions", "power", "simulation"}, None),
    (["plan-variance", "--sigma", "4", "--delta", "1", *_PLAN], {"cli", "variance"},
     {"effect", "tables"}),
    (["plan-effect", "--mu0", "2", "--sigma", "4", *_PLAN], {"cli", "effect"}, {"tables"}),
], ids=["simulate", "plan-variance", "plan-effect"])
def test_each_command_loads_only_what_it_runs(argv, loads, never):
    # the package's modules in sys.modules after a command has run in a fresh
    # process: exactly ``loads`` where ``never`` is None, else at least
    # ``loads`` and none of ``never``
    out = _fresh_python(
        "import contextlib, io, sys\n"
        "from pilotplan.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'pilotplan'))")
    modules = {m.removeprefix("pilotplan.") for m in out.split()} - {"pilotplan"}
    if never is None:
        assert modules == loads
    else:
        assert loads <= modules and not modules & never, sorted(modules)
