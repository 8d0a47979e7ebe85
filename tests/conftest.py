"""Test-wide settings.

Property tests run under one hypothesis profile, loaded by default: a
derandomized search (the same examples on every run), no per-example
deadline (a slow or busy host does not fail a test) and a fixed number of
examples, so that the suite is reproducible and its duration bounded.
"""

from hypothesis import settings

settings.register_profile("dpaccel", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("dpaccel")
