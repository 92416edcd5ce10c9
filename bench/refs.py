"""References computed apart from the program under test.

Nothing here imports maassforms.  The level-1 weight -2 harmonic lift has
the closed form

    c+(0) = -15 zeta(3) / (2 pi^3),          c-(0) = 1/3,
    c+(n) = -(15 / (2 pi^3)) s3(n) / n^3,    c-(-n) = -(15 / (4 pi^3)) s3(n) / n^3,

with s3 the divisor sum sigma_3, taken here from a sieve.  Its oldform
partner at level N is g = N^{k/2} F(N tau); the form itself is evaluated
from the finite incomplete-gamma sum

    Gamma(nu, x) = (nu - 1)! e^{-x} sum_{l < nu} x^l / l!,   nu = 1 - k,

and the quadratic characters and their Gauss sums come from Euler's
criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WEIGHT = -2
ZETA3 = 1.2020569031595942854


@dataclass(frozen=True)
class Coefficients:
    """Fourier data of a weight-k expansion: c+(0..n_max), c-(0) and
    c-(-1..-n_max) stored by |n| - 1, mirroring the program's layout."""

    weight: int
    c_plus: np.ndarray
    c_minus_zero: float
    c_minus: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.c_minus)


def sigma3(n_max: int) -> np.ndarray:
    """s3(0..n_max) by a divisor sieve (s3(0) unused, set to 0)."""
    out = np.zeros(n_max + 1)
    for d in range(1, n_max + 1):
        out[d::d] += float(d) ** 3
    return out


def level_one_lift(n_max: int) -> Coefficients:
    """Closed-form data of the weight -2 level-1 harmonic lift."""
    s3 = sigma3(n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    pi3 = math.pi**3
    c_plus = np.empty(n_max + 1)
    c_plus[0] = -15.0 * ZETA3 / (2.0 * pi3)
    c_plus[1:] = -15.0 / (2.0 * pi3) * s3[1:] / n**3
    c_minus = -15.0 / (4.0 * pi3) * s3[1:] / n**3
    return Coefficients(WEIGHT, c_plus, 1.0 / 3.0, c_minus)


def oldform_partner(base: Coefficients, level: int, c0_factor: float | None = None) -> Coefficients:
    """Data of N^{k/2} F(N tau) for the level-1 data F, truncated at
    N * base.n_max: c+-(N n) = N^{k/2} c+-(n), c-(0) scaled by
    N^{k/2} N^{1-k}, every other coefficient 0.

    c0_factor replaces N^{1-k} (tests use it to build a mis-scaled partner).
    """
    k = base.weight
    scale = float(level) ** (k / 2.0)
    n_max = level * base.n_max
    c_plus = np.zeros(n_max + 1)
    c_minus = np.zeros(n_max)
    c_plus[::level] = scale * base.c_plus
    c_minus[level - 1 :: level] = scale * base.c_minus
    factor = float(level) ** (1 - k) if c0_factor is None else c0_factor
    return Coefficients(k, c_plus, scale * factor * base.c_minus_zero, c_minus)


def evaluate(coeffs: Coefficients, taus) -> np.ndarray:
    """f(tau) on an array of tau with Im tau > 0, straight from the series."""
    t = np.asarray(taus, dtype=complex).ravel()
    k = coeffs.weight
    nu = 1 - k
    u, v = t.real[None, :], t.imag[None, :]
    n = np.arange(1, coeffs.n_max + 1, dtype=float)[:, None]
    phase = np.exp(2j * math.pi * n * u)
    decay = np.exp(-2.0 * math.pi * n * v)
    # Gamma(nu, 4 pi n v) q^{-n} = (nu-1)! P(4 pi n v) e^{-2 pi n v} e^{-2 pi i n u}
    x = 4.0 * math.pi * n * v
    poly = np.zeros_like(x)
    term = np.ones_like(x)
    for l in range(nu):
        poly = poly + term
        term = term * x / (l + 1)
    holo = coeffs.c_plus[1:, None] * phase * decay
    nonholo = coeffs.c_minus[:, None] * math.factorial(nu - 1) * poly * decay * np.conj(phase)
    out = coeffs.c_plus[0] + coeffs.c_minus_zero * t.imag**nu + holo.sum(axis=0) + nonholo.sum(axis=0)
    return out.reshape(np.shape(taus))


def legendre(a: int, p: int) -> int:
    """The quadratic character mod the odd prime p, by Euler's criterion."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def quadratic_values(p: int) -> np.ndarray:
    """(a / p) for a = 0..p-1."""
    return np.array([legendre(a, p) for a in range(p)], dtype=float)


def gauss_sum(values: np.ndarray) -> complex:
    """sum_a psi(a) e^{2 pi i a / m} for a table psi(0..m-1)."""
    m = len(values)
    return complex(np.sum(values * np.exp(2j * math.pi * np.arange(m) / m)))


def slash_sum(coeffs: Coefficients, psi_bar: np.ndarray, taus) -> np.ndarray:
    """tau(psi_bar)^{-1} sum_u psi_bar(u) f(tau + u/m): the twist f_psi by
    its definition as a combination of translates, for psi primitive mod m."""
    m = len(psi_bar)
    t = np.asarray(taus, dtype=complex)
    shifted = t[None, :] + np.arange(m)[:, None] / m
    vals = evaluate(coeffs, shifted)
    return (psi_bar[:, None] * vals).sum(axis=0) / gauss_sum(psi_bar)
