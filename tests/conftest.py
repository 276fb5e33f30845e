"""Hypothesis settings for the whole suite.

The profile prints the reproduction blob of every failing example, so a
failure seen once (in CI, say) can be replayed with ``@reproduce_failure``
even though each run draws new examples."""

from hypothesis import settings

settings.register_profile("logflat", print_blob=True)
settings.load_profile("logflat")
