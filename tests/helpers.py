"""Random inputs and golden forms shared by several test modules.

A plain module rather than conftest.py: a test module importing from
"conftest" gets whichever conftest.py was imported last, and the benchmark's
tests bring their own.
"""

import numpy as np

from maassforms.characters import trivial_character
from maassforms.eisenstein import harmonic_eisenstein_level_one
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


def oldform_pair(level, base=40):
    """(f, g), a golden Fricke pair with f != g: the level-1 lift read at
    level N with n_max = N base, and its partner N^{k/2} F(N tau) with
    c+-(N n) = N^{k/2} c+-(n) and c-(0) scaled by N^{k/2} N^{1-k}."""
    lift = harmonic_eisenstein_level_one(level * base)
    k, n_max, chi = lift.weight, level * base, trivial_character(level)
    scale = float(level) ** (k / 2.0)
    cp, cm = np.zeros(n_max + 1, dtype=complex), np.zeros(n_max, dtype=complex)
    cp[::level] = scale * lift.c_plus[: base + 1]
    cm[level - 1 :: level] = scale * lift.c_minus[:base]
    f = FormExpansion(k, level, chi, lift.alpha, n_max, lift.c_plus, lift.c_minus_zero, lift.c_minus)
    g0 = scale * float(level) ** (1 - k) * lift.c_minus_zero
    return f, FormExpansion(k, level, chi, lift.alpha, n_max, cp, g0, cm)
