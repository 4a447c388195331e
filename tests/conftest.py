"""Hypothesis profiles for the suite.

``ci`` prints each falsifying example's reproduction blob, so a property
that fails in CI can be replayed from the log with ``@reproduce_failure``;
the workflow selects it with ``--hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
