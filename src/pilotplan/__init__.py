"""Pilot-study sample sizes that bound the chance that the main study designed
from the pilot's estimates turns out under- or over-powered, plus a Monte
Carlo harness that verifies those bounds empirically.

Quick use::

    from pilotplan import EffectSpec, TestDesign, PowerBounds, plan_variance_pilot

    plan = plan_variance_pilot(EffectSpec(effect=1, sigma=4), TestDesign(),
                               power_target=0.8,
                               bounds=PowerBounds(underpower_prob=0.2,
                                                  underpower_threshold=0.6))
    plan.pilot_n   # 12

The same workflows are available on the command line via ``pilotplan``.
"""

import importlib

__version__ = "0.1.0"

# the modules whose names the package exports, each imported on first lookup (PEP 562)
_MODULES = ("distributions", "power", "variance", "effect", "simulation", "tables")


def __getattr__(name):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [n for m in _MODULES for n in __getattr__(m).__all__] + ["__version__"]
    for module in map(__getattr__, _MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
