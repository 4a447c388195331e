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

from . import distributions, effect, power, simulation, variance
from .distributions import *  # noqa: F401,F403
from .power import *  # noqa: F401,F403
from .variance import *  # noqa: F401,F403
from .effect import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*distributions.__all__, *power.__all__, *variance.__all__,
           *effect.__all__, *simulation.__all__, "__version__"]
