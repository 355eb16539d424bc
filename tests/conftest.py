"""The one Hypothesis profile of the test suite: examples are derived from
each test's name, not drawn at random, and none are stored between runs, so
every run checks the same inputs; no per-example deadline, because timing
on a loaded host says nothing about correctness.

The report header names the numpy version and the SIMD extensions numpy
dispatches to, as np.show_runtime lists them: the pinned normal, fade and
rate bytes go through numpy's SIMD log1p, cos and exp, so a failing pin is
read against the dispatch it ran under."""

import numpy as np
from hypothesis import settings
from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                           __cpu_features__)

settings.register_profile("qsatnet", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("qsatnet")


def pytest_report_header(config):
    found = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
    return (f"numpy {np.__version__}, SIMD baseline "
            f"{' '.join(__cpu_baseline__) or 'none'}, "
            f"found {' '.join(found) or 'none'}")
