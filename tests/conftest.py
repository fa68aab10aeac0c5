"""Hypothesis profiles for the test suite.

Tier-1 runs under ``tier1``: every property test draws the same examples
on every run, so two runs of one commit check exactly the same cases and a
failure can be replayed.  ``explore`` draws fresh examples, five times as
many, for an opt-in search: ``pytest --hypothesis-profile explore``.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", max_examples=500)
settings.load_profile("tier1")
