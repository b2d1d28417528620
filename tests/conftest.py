"""Shared test configuration.

Property tests run under one hypothesis profile: derandomized, so every run
draws the same examples, with no per-example deadline (the solver examples
take tens of milliseconds) and a bounded example count, so the suite stays
deterministic and fast.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=30,
                          database=None)
settings.load_profile("tier1")
