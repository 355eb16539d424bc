"""The one Hypothesis profile of the test suite: examples are derived from
each test's name, not drawn at random, and none are stored between runs, so
every run checks the same inputs; no per-example deadline, because timing
on a loaded host says nothing about correctness."""

from hypothesis import settings

settings.register_profile("qsatnet", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("qsatnet")
