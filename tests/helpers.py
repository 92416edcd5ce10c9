"""Random inputs and golden forms shared by several test modules.

A plain module rather than conftest.py: a test module importing from
"conftest" gets whichever conftest.py was imported last, and the benchmark's
tests bring their own.
"""

import math

import numpy as np

from maassforms.characters import DirichletCharacter, _from_generator_values, trivial_character
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.forms import FormExpansion, TermSeries
from maassforms.lseries import FrickePair
from maassforms.modgroup import Cusp, IntegerMatrix


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


def padded_pair():
    """(f, g): a length-40 level-1 lift padded with zeros to n_max 280 at
    level 7, and its partner 7^{-1} F(7 tau), whose last term is at n = 280."""
    _, g = oldform_pair(7)
    lift = harmonic_eisenstein_level_one(40)
    cp, cm = np.zeros(281, dtype=complex), np.zeros(280, dtype=complex)
    cp[:41], cm[:40] = lift.c_plus, lift.c_minus
    return FormExpansion(-2, 7, g.character, lift.alpha, 280, cp, lift.c_minus_zero, cm), g


def pair_from_evaluators(level, k, f_eval, h_eval, constants, T):
    """A FrickePair whose integrand rows are f_eval and h_eval (both called
    on a 1-d array of points per evaluator call), with constants (c_f+(0),
    c_f-(0), c_g+(0), c_g-(0)) and Mellin cut-off T."""

    def integrands(taus):
        return np.array([f_eval(taus), h_eval(taus)])

    return FrickePair(level, k, integrands, *constants, T)


def bottom_row(rho: Cusp, g: IntegerMatrix) -> tuple[int, int]:
    """The row (c, d) of gamma_rho^{-1} g entering j(gamma_rho^{-1} g, tau);
    gamma_rho^{-1} = [[d_rho, -b_rho], [-c_rho, a_rho]]."""
    a_r, c_r = rho.scaling.a, rho.scaling.c
    return a_r * g.c - c_r * g.a, a_r * g.d - c_r * g.b


def induce(chi: DirichletCharacter, modulus: int) -> DirichletCharacter:
    """The character mod `modulus` induced by chi (requires q | modulus)."""
    if modulus % chi.modulus != 0:
        raise ValueError(f"{chi.modulus} does not divide {modulus}")
    return _from_generator_values(modulus, (chi,))


def bol_op(ts: TermSeries, k: int) -> TermSeries:
    """D^{1-k} with D = (1/2 pi i) d/dtau, iterated termwise."""
    out = ts
    for _ in range(1 - k):
        out = out.d_tau().scale(1.0 / (2j * math.pi))
    return out
