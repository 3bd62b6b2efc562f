import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def nonneg(rng, shape, lo=0.0, hi=1.0):
    return rng.uniform(lo, hi, size=shape)
