"""The package's public surface: every module's public names, each once."""

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
