"""The package's public surface: every module's public names, each once, the
names the benchmark's tracer wraps, and what importing the CLI loads."""

import importlib
import importlib.util
import os
import subprocess
import sys

import pilotplan
from pilotplan import distributions, effect, power, simulation, variance


def test_star_import_is_the_modules_public_names():
    namespace = {}
    exec("from pilotplan import *", namespace)
    del namespace["__builtins__"]
    modules = (distributions, power, variance, effect, simulation)
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


def test_config_error_is_one_class():
    # the rules in distributions raise it, and simulation exports it
    assert pilotplan.ConfigError is simulation.ConfigError is distributions.ConfigError


def test_cli_import_leaves_heavy_modules_unloaded():
    # a fresh process that imports the CLI loads none of these: the records
    # are plain classes, not dataclasses (which pull in inspect, ast, dis and
    # tokenize), and csv loads only for --format csv
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, pilotplan.cli; "
            "print(*[m for m in ('dataclasses', 'inspect', 'csv') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert loaded == [], f"import pilotplan.cli loaded {', '.join(loaded)}"
