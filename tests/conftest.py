import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def traced_peak():
    """A function that calls ``f(*args)`` and returns the peak number of
    bytes tracemalloc saw allocated during the call; numpy reports its
    array buffers to tracemalloc."""
    def peak(f, *args):
        tracemalloc.start()
        try:
            f(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak


def nonneg(rng, shape, lo=0.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape)
