"""Eisenstein series at the cusps of Gamma_0(N) and their harmonic lifts.

E_{2-k,rho}(N, chi; tau) is the truncated coset sum of conj(chi(g))
j(gamma_rho^{-1} g, tau)^{k-2}; the lift F_{k,rho} replaces the summand by
the weight-k slash of v^{1-k}/(1-k) and lands in the polynomial-growth space
with shadow E_{2-k,rho}(N, conj(chi)).  Sums run over the bounded coset
representatives from modgroup and are evaluated with numpy over both cosets
and tau grids; summation order is fixed (sorted by max(|c|, |d|)) so results
are reproducible.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, _prime_factors
from .forms import (
    FormExpansion,
    IllConditionedError,
    _mode_from_samples,
    _mode_gram,
    _two_height_solve,
)
from .modgroup import Cusp, coset_reps, cusp_parameter

__all__ = [
    "eisenstein_series",
    "f_series",
    "f_expansion",
    "dim_eisenstein",
    "coset_tail_estimate",
    "harmonic_eisenstein_level_one",
    "eisenstein_level_one_coefficients",
]

# Apery's constant zeta(3), and zeta(4) = pi^4 / 90
_ZETA3 = 1.2020569031595942854
_ZETA4 = math.pi**4 / 90.0


def _check_admissible(level: int, chi: DirichletCharacter, k: int, rho: Cusp):
    if k > -1:
        raise ValueError("weight must be a negative integer")
    if chi.modulus != level:
        raise ValueError("character modulus must equal the level")
    if chi.parity != (-1) ** k:
        raise ValueError("character parity must match (-1)^k")
    if cusp_parameter(level, chi, rho) != 0.0:
        raise ValueError(f"character is not trivial on the stabilizer of {rho.label()}")


@lru_cache(maxsize=64)
def _coset_rows(level: int, chi: DirichletCharacter, rho: Cusp, bound: int):
    reps = coset_reps(level, rho, bound)
    rows = reps.rows.astype(float)
    charvals = np.array([np.conj(chi(d)) for d in reps.d.tolist()])
    rows.setflags(write=False)
    charvals.setflags(write=False)
    return rows, charvals


def eisenstein_series(
    level: int,
    chi: DirichletCharacter,
    k: int,
    rho: Cusp,
    tau,
    bound: int = 60,
):
    """Weight 2-k Eisenstein series at the cusp rho, truncated coset sum.

    tau may be a complex scalar or ndarray.  Absolutely convergent for
    k <= -1; the truncation error scales like bound^k (see
    coset_tail_estimate), so doubling the bound is a cheap error probe.
    """
    _check_admissible(level, chi, k, rho)
    rows, charvals = _coset_rows(level, chi, rho, bound)
    t = np.asarray(tau, dtype=complex)
    w = rows[:, 0].reshape(-1, 1) * t.ravel() + rows[:, 1].reshape(-1, 1)
    vals = charvals.reshape(-1, 1) * w ** (k - 2)
    out = vals.sum(axis=0).reshape(t.shape)
    if np.isscalar(tau) or np.ndim(tau) == 0:
        return complex(out)
    return out


def _f_terms(level: int, chi: DirichletCharacter, k: int, rho: Cusp, flat, bound: int):
    """Summands of f_series at the points flat (rows x points, rows in coset
    order), before the common factor v^{1-k}/(1-k)."""
    rows, charvals = _coset_rows(level, chi, rho, bound)
    w = rows[:, 0].reshape(-1, 1) * flat + rows[:, 1].reshape(-1, 1)
    mod2 = (w * np.conj(w)).real
    return charvals.reshape(-1, 1) * w ** (-k) * mod2 ** (k - 1)


def f_series(
    level: int,
    chi: DirichletCharacter,
    k: int,
    rho: Cusp,
    tau,
    bound: int = 60,
):
    """Harmonic lift at the cusp rho: sum of conj(chi(g)) applied to the
    weight-k slash of v^{1-k}/(1-k), i.e. termwise
    (c tau + d)^{-k} |c tau + d|^{2k-2} v^{1-k} / (1-k)."""
    _check_admissible(level, chi, k, rho)
    t = np.asarray(tau, dtype=complex)
    flat = t.ravel()
    vals = _f_terms(level, chi, k, rho, flat, bound)
    v = flat.imag ** (1 - k) / (1 - k)
    out = (vals.sum(axis=0) * v).reshape(t.shape)
    if np.isscalar(tau) or np.ndim(tau) == 0:
        return complex(out)
    return out


def coset_tail_estimate(k: int, bound: int, v: float = 1.0) -> float:
    """Crude bound for the dropped cosets: the summand decays like
    max(|c|,|d|)^{k-2} and rows are ~ (4/zeta(2)) per unit area, giving
    O(bound^k); the 1/min(v,1) factor absorbs the |c tau + d| distortion."""
    dens = 4.0 / (math.pi**2 / 6.0)
    return dens * 2 * math.pi * bound**k / (-k) / min(v, 1.0) ** (1 - k)


def f_expansion(
    level: int,
    chi: DirichletCharacter,
    k: int,
    rho: Cusp,
    n_range: int,
    bound: int = 60,
    heights: tuple[float, float] | None = None,
    samples: int = 256,
    full_output: bool = False,
):
    """Extract the Fourier data of the harmonic lift into a FormExpansion.

    Period integrals at two heights separate c+(n) from c-(n) (both with
    width 1 and kappa 0 at infinity, since T is in Gamma_0(N)).  When
    heights is None they are scaled like 1/n_range: the mode-n data sits at
    relative size e^{-2 pi |n| v} in the samples, so heights of order one
    lose deep modes to the double-precision floor regardless of the bound.
    The lower clamp keeps bound * v0 above 1, where the truncated coset sum
    still resolves the height.

    With full_output=True the result is (form, witness): witness holds
    per-mode error witnesses under the keys "c_plus", "c_minus_zero" and
    "c_minus", shaped like the form's fields.  Each is
    |x_B - x_{B/2}| / (2^{-k} - 1), where x_B is the datum extracted from the
    bound-B coset sum and x_{B/2} the same datum from its bound//2 prefix;
    the divisor turns the difference into the bound-B error under the
    bound^k tail law of coset_tail_estimate (measured against the closed
    form at k = -2 only, where the error/witness ratio is 0.95-1.80 for
    heights up to (10, 20) at bound 60; the law fails once the heights
    approach the bound, and at (40, 80) the c+(0) witness is 14 times too
    small).  A
    datum whose Gram values leave the double range (c+(n) once
    Gamma(1-k, -4 pi n v1) overflows, n v1 >~ 56; c-(-n) once both
    Gamma(1-k, 4 pi n v) underflow, n v >~ 59) is stored as 0 with an
    infinite witness.  The form itself does not depend on full_output.
    """
    _check_admissible(level, chi, k, rho)
    if heights is None:
        v0 = max(1.2 / bound, min(1.0, 2.0 / max(1, n_range)))
        heights = (v0, 2.0 * v0)
    v0, v1 = heights
    if samples < 2 * n_range + 2:
        raise ValueError(f"samples={samples} cannot resolve modes up to {n_range}")
    rows, _ = _coset_rows(level, chi, rho, bound)
    # rows are sorted by max(|c|, |d|), so the bound//2 sum is a prefix
    half = int(np.searchsorted(np.abs(rows).max(axis=1), bound // 2, side="right"))

    def sample_line(v: float):
        taus = np.arange(samples) * (1.0 / samples) + 1j * v
        terms = _f_terms(level, chi, k, rho, taus, bound)
        scale = taus.imag ** (1 - k) / (1 - k)
        return terms.sum(axis=0) * scale, terms[:half].sum(axis=0) * scale

    lines0, lines1 = sample_line(v0), sample_line(v1)
    divisor = 2.0 ** (-k) - 1.0

    def solve(n: int):
        """(c+, c-) of mode n from the bound-B sums, and their witnesses."""
        g0, g1 = _mode_gram(k, 1.0, n, v0), _mode_gram(k, 1.0, n, v1)
        full, part = [
            _two_height_solve(
                _mode_from_samples(vals0, 1.0, 0.0, n, v0),
                _mode_from_samples(vals1, 1.0, 0.0, n, v1),
                g0,
                g1,
            )[:2]
            for vals0, vals1 in zip(lines0, lines1)
        ]
        return full, tuple(abs(x - y) / divisor for x, y in zip(full, part))

    c_plus = np.zeros(n_range + 1, dtype=complex)
    c_minus = np.zeros(n_range, dtype=complex)
    w_plus = np.zeros(n_range + 1)
    w_minus = np.zeros(n_range)
    (c_plus[0], cm0), (w_plus[0], w_cm0) = solve(0)
    # past n v ~ 56 the Gram values leave the double range (overflow for
    # +n, underflow of both for -n): the datum is lost, kept at 0 and
    # marked by an infinite witness
    for n in range(1, n_range + 1):
        try:
            (c_plus[n], _), (w_plus[n], _) = solve(n)
        except OverflowError:
            w_plus[n] = math.inf
        try:
            (_, c_minus[n - 1]), (_, w_minus[n - 1]) = solve(-n)
        except IllConditionedError:
            w_minus[n - 1] = math.inf
    form = FormExpansion(
        weight=k,
        level=level,
        character=chi,
        alpha=0.0,
        n_max=n_range,
        c_plus=c_plus,
        c_minus_zero=cm0,
        c_minus=c_minus,
    )
    if full_output:
        return form, {"c_plus": w_plus, "c_minus_zero": w_cm0, "c_minus": w_minus}
    return form


def dim_eisenstein(level: int, chi: DirichletCharacter) -> int:
    """Dimension of the span of the cusp Eisenstein series:
    sum over C | N with gcd(C, N/C) | N/m_chi of phi(gcd(C, N/C));
    for trivial chi this is the number of Gamma_0(N)-inequivalent cusps."""
    m = chi.conductor
    total = 0
    for c in range(1, level + 1):
        if level % c != 0:
            continue
        g = math.gcd(c, level // c)
        if (level // m) % g == 0:
            total += math.prod((p - 1) * p ** (e - 1) for p, e in _prime_factors(g))
    return total


def _sigma3(n: int) -> int:
    return sum(d**3 for d in range(1, n + 1) if n % d == 0)


def eisenstein_level_one_coefficients(n_range: int) -> np.ndarray:
    """q-expansion of the weight-4 level-1 Eisenstein series normalized to
    constant term 1: coefficients 240 sigma_3(n)."""
    out = np.ones(n_range + 1)
    for n in range(1, n_range + 1):
        out[n] = 240.0 * _sigma3(n)
    return out


def harmonic_eisenstein_level_one(n_max: int) -> FormExpansion:
    """Closed-form Fourier data of the weight -2, level 1 harmonic lift.

    Unfolding the coset sum over bottom rows gives, with s3(n) = sigma_3(n),

        c+(0) = -15 zeta(3) / (2 pi^3),       c-(0) = 1/3,
        c+(n) = -(15 / (2 pi^3)) s3(n)/n^3,   c-(-n) = -(15 / (4 pi^3)) s3(n)/n^3,

    the constant coming from sum_c phi(c)/c^4 = zeta(3)/zeta(4).  Its shadow
    is exactly the weight-4 Eisenstein series 1 + 240 sum s3(n) q^n, and at
    level 1 the expansion is its own Fricke partner.
    """
    from .characters import trivial_character

    pi3 = math.pi**3
    c_plus = np.zeros(n_max + 1, dtype=complex)
    c_minus = np.zeros(n_max, dtype=complex)
    c_plus[0] = -15.0 * _ZETA3 / (2.0 * pi3)
    for n in range(1, n_max + 1):
        s3 = _sigma3(n)
        c_plus[n] = -15.0 / (2.0 * pi3) * s3 / n**3
        c_minus[n - 1] = -15.0 / (4.0 * pi3) * s3 / n**3
    return FormExpansion(
        weight=-2,
        level=1,
        character=trivial_character(1),
        alpha=0.0,
        n_max=n_max,
        c_plus=c_plus,
        c_minus_zero=1.0 / 3.0,
        c_minus=c_minus,
    )
