import numpy as np
import pytest
from hypothesis import settings

# property tests draw from a fixed seed with a bounded example count, so the
# suite stays deterministic and its run time bounded
settings.register_profile("tier1", derandomize=True, max_examples=50, deadline=None, database=None)
settings.load_profile("tier1")

from maassforms.characters import trivial_character
from maassforms.forms import FormExpansion


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


def make_random_form(rng, k=-2, n_max=6, level=1, alpha=1.0):
    """Random polynomial-growth expansion with O(1) coefficients."""
    c_plus = rng.normal(size=n_max + 1) + 1j * rng.normal(size=n_max + 1)
    c_minus = rng.normal(size=n_max) + 1j * rng.normal(size=n_max)
    c_minus_zero = complex(rng.normal(), rng.normal())
    return FormExpansion(
        weight=k,
        level=level,
        character=trivial_character(level),
        alpha=alpha,
        n_max=n_max,
        c_plus=c_plus,
        c_minus_zero=c_minus_zero,
        c_minus=c_minus,
    )


def random_tau(rng, v_lo=0.4, v_hi=1.5):
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(v_lo, v_hi))
