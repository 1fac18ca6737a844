import hypothesis
import numpy as np
import pytest

from horoflow.gauges import default_distance
from horoflow.groups import heisenberg

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def heis():
    return heisenberg()


@pytest.fixture(scope="session")
def heis_dist():
    return default_distance(heisenberg())


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
