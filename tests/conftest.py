import numpy as np
import pytest
from hypothesis import settings

# property tests draw from a fixed seed with a bounded example count, so the
# suite stays deterministic and its run time bounded
settings.register_profile("tier1", derandomize=True, max_examples=50, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)

