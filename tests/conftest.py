"""Hypothesis settings for the whole suite.

Both profiles print the reproduction blob of every failing example, so a
failure seen once can be replayed with ``@reproduce_failure``.  The ``ci``
profile, loaded when the ``CI`` environment variable is set (GitHub Actions
sets it), also derandomizes: each test draws the same examples on every run,
so a failure in CI can be run again exactly.  Elsewhere each run draws new
examples."""

import os

from hypothesis import settings

settings.register_profile("logflat", print_blob=True)
settings.register_profile("ci", print_blob=True, derandomize=True)
settings.load_profile("ci" if os.environ.get("CI") else "logflat")
