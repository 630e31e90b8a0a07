"""Shared test settings.

Property tests run under a derandomized hypothesis profile: the examples are
derived from each test's source, so every run of the suite draws the same
ones, and no example database is written.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None, deadline=None)
settings.load_profile("derandomized")
