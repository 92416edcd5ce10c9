"""Random inputs shared by several test modules.

A plain module rather than conftest.py: a test module importing from
"conftest" gets whichever conftest.py was imported last, and the benchmark's
tests bring their own.
"""

from maassforms.characters import trivial_character
from maassforms.forms import FormExpansion


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
