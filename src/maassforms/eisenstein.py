"""Eisenstein series at the cusps of Gamma_0(N) and their harmonic lifts.

E_{2-k,rho}(N, chi; tau) is the truncated coset sum of conj(chi(g))
j(gamma_rho^{-1} g, tau)^{k-2}; the lift F_{k,rho} replaces the summand by
the weight-k slash of v^{1-k}/(1-k) and lands in the polynomial-growth space
with shadow E_{2-k,rho}(N, conj(chi)).  Sums run over the bounded coset
representatives from modgroup, which come sorted by max(|c|, |d|), so the
bound//2 sum behind the extraction witness is a prefix of the bound sum.
One kernel, _coset_sum, evaluates every sum: it walks the rows in fixed
chunks against fixed blocks of tau, so memory stays bounded whatever the
bound and the number of points, and it adds the rows in coset order at every
point, taking the prefix sum on the way; results are reproducible and do not
depend on the batch a point arrives in.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, _prime_factors
from .forms import FormExpansion, IllConditionedError, two_height_solve
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


# a coset sum meets at most _CHUNK_ROWS rows and _CHUNK_POINTS points at a
# time, in buffers of that size, whatever the bound and the number of points
_CHUNK_ROWS = 128
_CHUNK_POINTS = 256


@lru_cache(maxsize=64)
def _coset_rows(level: int, chi: DirichletCharacter, rho: Cusp, bound: int):
    reps = coset_reps(level, rho, bound)
    rows = reps.rows.astype(float)
    charvals = np.conj(np.array(chi._values))[reps.d % chi.modulus]
    rows.setflags(write=False)
    charvals.setflags(write=False)
    return rows, charvals


def _coset_sum(rows, charvals, flat, power: int, mod2_power: int | None = None, prefix: int = 0):
    """(sum over all rows, sum over the first prefix rows) of
    charvals * w**power * (|w|^2)**mod2_power, w = c tau + d, for the rows
    (c, d) at the points flat; the last factor is left out when mod2_power is
    None.

    One pass walks the rows in chunks of _CHUNK_ROWS against blocks of at
    most _CHUNK_POINTS points, evaluating each summand into fixed buffers with
    the ufuncs of the one-shot rows x points expression.  Rows are added in
    order: row 0 of each chunk holds the running sum, which is kept when it
    reaches the prefix.  numpy's .sum(axis=0) adds rows in order only over
    two or more columns (a single column it sums pairwise), so no block holds
    a single point and a lone point is summed beside a copy of itself.  Hence
    a point's value does not depend on its batch; with two or more points it
    is bit-identical to the one-shot expression's .sum(axis=0), and a lone
    point differs from that (pairwise) sum in the last bits, by at most
    1e-14 sum |term| at bound 60.
    """
    n, p = len(rows), len(flat)
    pts = np.repeat(flat, 2) if p == 1 else flat
    total = np.zeros(len(pts), dtype=complex)
    head = np.zeros(len(pts), dtype=complex)
    blocks = max(1, -(-len(pts) // _CHUNK_POINTS))
    # blocks of at least 2 points while _CHUNK_POINTS >= 4
    cols = [len(pts) * i // blocks for i in range(blocks + 1)]
    edges = sorted({*range(0, n, _CHUNK_ROWS), prefix, n})
    size = (_CHUNK_ROWS + 1) * -(-len(pts) // blocks)
    w_buf, x_buf, m_buf = np.empty(size, complex), np.empty(size, complex), np.empty(size)
    c_col, d_col, v_col = rows[:, :1], rows[:, 1:], charvals.reshape(-1, 1)
    for a, b in zip(cols, cols[1:]):
        t = pts[a:b]
        acc = None
        for i0, i1 in zip(edges, edges[1:]):
            shape = (i1 - i0 + 1, b - a)  # row 0 carries the running sum
            x = x_buf[: shape[0] * shape[1]].reshape(shape)
            terms = x[1:]
            w = w_buf[: terms.size].reshape(terms.shape)
            np.multiply(c_col[i0:i1], t, out=w)
            np.add(w, d_col[i0:i1], out=w)
            if mod2_power is not None:
                np.multiply(w, np.conjugate(w, out=terms), out=terms)
                mod2 = m_buf[: w.size].reshape(w.shape)
                np.power(terms.real, mod2_power, out=mod2)
            terms[...] = w
            terms **= power
            np.multiply(v_col[i0:i1], terms, out=terms)
            if mod2_power is not None:
                np.multiply(terms, mod2, out=terms)
            if acc is None:
                acc = terms.sum(axis=0)
            else:
                x[0] = acc
                acc = x.sum(axis=0)
            if i1 == prefix:
                head[a:b] = acc
        if acc is not None:
            total[a:b] = acc
    return total[:p], head[:p]


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
    The sum is one bounded-memory pass of _coset_sum, in coset order at every
    point, so a point's value does not depend on its batch.
    """
    _check_admissible(level, chi, k, rho)
    rows, charvals = _coset_rows(level, chi, rho, bound)
    t = np.asarray(tau, dtype=complex)
    out = _coset_sum(rows, charvals, t.ravel(), k - 2)[0].reshape(t.shape)
    if np.isscalar(tau) or np.ndim(tau) == 0:
        return complex(out)
    return out


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
    (c tau + d)^{-k} |c tau + d|^{2k-2} v^{1-k} / (1-k).  The sum is one
    bounded-memory pass of _coset_sum, in coset order at every point, so a
    point's value does not depend on its batch."""
    _check_admissible(level, chi, k, rho)
    t = np.asarray(tau, dtype=complex)
    flat = t.ravel()
    rows, charvals = _coset_rows(level, chi, rho, bound)
    v = flat.imag ** (1 - k) / (1 - k)
    out = (_coset_sum(rows, charvals, flat, -k, k - 1)[0] * v).reshape(t.shape)
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
    small).  Both sums at both heights go through one
    forms.two_height_solve call, one np.fft.fft per height.  A mode it
    loses (c+(n) once (1 + Gamma(1-k, -4 pi n v1))^2 overflows, n v1 >~ 27
    at k = -2; c-(-n) once both Gamma(1-k, 4 pi n v) underflow, n v >~ 59)
    is stored as 0 with an infinite witness; a lost n = 0 raises
    IllConditionedError.  The form itself does not depend on full_output.
    """
    _check_admissible(level, chi, k, rho)
    if heights is None:
        v0 = max(1.2 / bound, min(1.0, 2.0 / max(1, n_range)))
        heights = (v0, 2.0 * v0)
    v0, v1 = heights
    if samples < 2 * n_range + 2:
        raise ValueError(f"samples={samples} cannot resolve modes up to {n_range}")
    rows, charvals = _coset_rows(level, chi, rho, bound)
    # rows are sorted by max(|c|, |d|), so the bound//2 sum is a prefix
    half = int(np.searchsorted(np.abs(rows).max(axis=1), bound // 2, side="right"))
    # one line per height: the bound-B sum stacked on its bound//2 prefix
    lines = []
    for v in (v0, v1):
        taus = np.arange(samples) * (1.0 / samples) + 1j * v
        full_head = _coset_sum(rows, charvals, taus, -k, k - 1, prefix=half)
        lines.append(np.stack(full_head) * (v ** (1 - k) / (1 - k)))
    modes = np.arange(-n_range, n_range + 1)
    c_plus, c_minus, info = two_height_solve(*lines, k, 1.0, 0.0, modes, v0, v1)
    if 0 in info["lost"]:
        raise IllConditionedError(info["lost"][0])
    lost, divisor = np.isin(modes, list(info["lost"])), 2.0 ** (-k) - 1.0
    w_plus, w_minus = (np.where(lost, math.inf, abs(x - y) / divisor) for x, y in (c_plus, c_minus))
    form = FormExpansion(
        weight=k,
        level=level,
        character=chi,
        alpha=0.0,
        n_max=n_range,
        c_plus=c_plus[0, n_range:],
        c_minus_zero=c_minus[0, n_range],
        c_minus=c_minus[0, :n_range][::-1],
    )
    if full_output:
        witness = (w_plus[n_range:], float(w_minus[n_range]), w_minus[:n_range][::-1])
        return form, dict(zip(("c_plus", "c_minus_zero", "c_minus"), witness))
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


def _sigma3(n_max: int) -> np.ndarray:
    """sigma_3(n) for n = 0..n_max (0 at n = 0) by one int64 sieve, in
    O(n_max log n_max).  sigma_3(n) < 1.2 n^3 stays in int64 for n below
    1.9e6, and the cast to float rounds as Python's int-to-float does."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    for d in range(1, n_max + 1):
        out[d::d] += d**3
    return out


def eisenstein_level_one_coefficients(n_range: int) -> np.ndarray:
    """q-expansion of the weight-4 level-1 Eisenstein series normalized to
    constant term 1: coefficients 240 sigma_3(n)."""
    out = 240.0 * _sigma3(n_range)
    out[0] = 1.0
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
    s3, n3 = _sigma3(n_max)[1:], np.arange(1, n_max + 1, dtype=np.int64) ** 3
    c_plus[1:] = -15.0 / (2.0 * pi3) * s3 / n3
    c_minus[:] = -15.0 / (4.0 * pi3) * s3 / n3
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
