"""Eisenstein series at the cusps of Gamma_0(N) and their harmonic lifts.

E_{2-k,rho}(N, chi; tau) is the truncated coset sum of conj(chi(g))
j(gamma_rho^{-1} g, tau)^{k-2}; the lift F_{k,rho} replaces the summand by
the weight-k slash of v^{1-k}/(1-k) and lands in the polynomial-growth space
with shadow E_{2-k,rho}(N, conj(chi)).  Sums run over the bounded coset
representatives from modgroup, which come sorted by max(|c|, |d|), so the
bound//2 sum behind the extraction witness is a prefix of the bound sum.
One kernel, _coset_sum, evaluates every sum in real arithmetic, in bounded
memory and in coset order at every point, taking the prefix sum on the way,
so a point's value does not depend on its batch; f_expansion passes both of
its sample lines in one call.
"""

from __future__ import annotations

import math

import numpy as np

from .characters import DirichletCharacter, _prime_factors
from .forms import FormExpansion, IllConditionedError, line_samples, two_height_solve
from .modgroup import Cusp, coset_reps, cusp_parameter
from .specfun import _batch, _unbatch, _upper_half_plane

__all__ = [
    "eisenstein_series",
    "f_series",
    "f_expansion",
    "dim_eisenstein",
    "coset_tail_estimate",
    "harmonic_eisenstein_level_one",
    "eisenstein_level_one_coefficients",
]

# Apery's constant zeta(3)
_ZETA3 = 1.2020569031595942854


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


def _coset_rows(level: int, chi: DirichletCharacter, rho: Cusp, bound: int):
    """coset_reps' rows (c, d) as floats and conj(chi) at each d-entry, built
    per call: pass many points at one cusp as one array, not one by one."""
    reps = coset_reps(level, rho, bound)
    return reps.rows.astype(float), np.conj(chi.values[reps.d % chi.modulus])


def _inverse_power(x, e: int, out, base):
    """x ** -e for an integer e >= 1, written to out: one np.reciprocal into
    base, then left-to-right binary powering by np.multiply, floor(log2 e)
    squarings and popcount(e) - 1 products.  Each step rounds correctly, so
    out is within about e eps of x ** -e relative.  np.power would call libm
    pow per entry, about 40% of a lift chunk's time."""
    np.reciprocal(x, out=base)
    power = base
    for bit in bin(e)[3:]:
        np.multiply(power, power, out=out)
        power = out
        if bit == "1":
            np.multiply(out, base, out=out)
    if power is base:
        np.copyto(out, base)
    return out


def _binary_power(x, x2, y, y2, m: int, pr, pi, t1, t2):
    """(x + i y)**m for m >= 1 into (pr, pi) by left-to-right binary powering,
    one rounded real ufunc per step: a square of a + i b is (a^2 - b^2,
    2 (a b)) and a product with x + i y is (x a - y b, x b + y a).  x2 = x^2
    and y2 = y^2 serve the first square; y and y2 may be one column; t1 and
    t2 are scratch."""
    if m == 1:
        np.copyto(pr, x)
        np.copyto(pi, y)
        return
    np.subtract(x2, y2, out=pr)
    np.multiply(x, np.add(y, y, out=t1[:, : y.shape[1]]), out=pi)
    for i, bit in enumerate(bin(m)[3:]):
        if i:
            np.multiply(pr, pr, out=t1)
            np.multiply(pi, pi, out=t2)
            np.multiply(pi, pr, out=pi)
            np.add(pi, pi, out=pi)
            np.subtract(t1, t2, out=pr)
        if bit == "1":
            np.multiply(y, pi, out=t1)
            np.multiply(x, pi, out=t2)
            np.multiply(y, pr, out=pi)
            np.add(t2, pi, out=pi)
            np.multiply(x, pr, out=pr)
            np.subtract(pr, t1, out=pr)


def _coset_sum(rows, charvals, u, v, power: int, mod2_power: int = 0, prefix: int = 0):
    """(sum over all rows, sum over the first prefix rows) of
    charvals * w**power * (|w|^2)**mod2_power, w = c tau + d, for the rows
    (c, d) at the points tau = u + i v: u is a 1-d array of real parts and v
    holds imaginary parts, shaped (h, len(u)), or (h, 1) for h horizontal
    lines through the points u; both results are shaped (h, len(u)).
    mod2_power is 0 or negative (the lift's k - 1).

    Real arithmetic: each summand is formed from x = c Re tau + d and
    y = c Im tau, which round as numpy's complex c tau + d does.  A negative
    power is taken as conj(w)**-power (|w|^2)**power, so every summand is
    charvals (x +- i y)**m (x^2 + y^2)**e with m >= 1 and e <= 0: the m-th
    power by _binary_power, then the character value (skipped when every
    value is 1), then the modulus factor by _inverse_power.  x and x^2 are
    formed once per row and point for all h heights, and on a line y and
    y^2 are one number per row.  On f_expansion's lines, u = j / S with S a
    power of two, x = (c j + S d) / S and x^2 are exact (bound S < 2^25), and
    there each lift summand with real character values is bit for bit the
    one of the complex ufuncs it replaced (which fuse multiply-adds; tested
    at k = -1, -2 and -3).  Anywhere, a summand is within the rounding of its
    powers, (2 sqrt 2 m + 4 |e|) 2^-53 relative to first order.

    One pass walks the rows in chunks of _CHUNK_ROWS against blocks of at
    most _CHUNK_POINTS points, into fixed buffers, and adds rows in order:
    row 0 of each chunk holds the running sum (0 before the first), kept
    when it reaches the prefix.  numpy's .sum(axis=0) adds rows in order
    only over two or more columns (one column it sums pairwise), so no block
    holds a single point and a lone point is summed beside a copy of itself.
    Hence a point's value does not depend on its batch or on the chunk
    sizes; with two or more points it is bit-identical to the .sum(axis=0)
    of the rows x points summands formed in one shot, and a lone point
    differs from that (pairwise) sum by at most 1e-14 sum |term| at bound 60.

    ValueError unless every point is finite with Im tau > 0: below the real
    line the rows sum to a wrong value, and on it to NaN.
    """
    _upper_half_plane(u + 1j * v)
    m, e = abs(power), mod2_power + min(power, 0)
    n, p, h = len(rows), len(u), len(v)
    if p == 1:
        u, v = np.repeat(u, 2), np.repeat(v, 2, axis=1)
    total = np.zeros((h, len(u)), dtype=complex)
    head = np.zeros((h, len(u)), dtype=complex)
    blocks = max(1, -(-len(u) // _CHUNK_POINTS))
    # blocks of at least 2 points while _CHUNK_POINTS >= 4
    cols = [len(u) * i // blocks for i in range(blocks + 1)]
    edges = sorted({*range(0, n, _CHUNK_ROWS), prefix, n})
    size = (_CHUNK_ROWS + 1) * -(-len(u) // blocks)
    buf = np.empty((9, size))
    c_col, d_col = rows[:, :1], rows[:, 1:]
    v_re, v_im = charvals.real.reshape(-1, 1), charvals.imag.reshape(-1, 1)
    unit = bool((charvals == 1).all())
    for a, b in zip(cols, cols[1:]):
        sums = np.zeros((h, 2, b - a))  # per height, the running real and imaginary sums
        for i0, i1 in zip(edges, edges[1:]):
            c, d = c_col[i0:i1], d_col[i0:i1]
            # row 0 of re_sum and im_sum carries the running sum
            re_sum, im_sum, *rest = (
                part[: (i1 - i0 + 1) * (b - a)].reshape(i1 - i0 + 1, b - a) for part in buf
            )
            pr, pi = re_sum[1:], im_sum[1:]
            x, x2, y, y2, mod2, t1, t2 = (arr[1:] for arr in rest)
            np.multiply(c, u[a:b], out=x)
            np.add(x, d, out=x)
            np.multiply(x, x, out=x2)
            for line in range(h):
                v_line = v[line, a:b] if v.shape[1] > 1 else v[line]
                y_line, y2_line = y[:, : v_line.size], y2[:, : v_line.size]
                np.multiply(c, v_line, out=y_line)
                np.multiply(y_line, y_line, out=y2_line)
                if power < 0:
                    np.negative(y_line, out=y_line)
                _binary_power(x, x2, y_line, y2_line, m, pr, pi, t1, t2)
                if not unit:
                    np.multiply(v_im[i0:i1], pi, out=t1)
                    np.multiply(v_im[i0:i1], pr, out=t2)
                    np.multiply(v_re[i0:i1], pr, out=pr)
                    np.subtract(pr, t1, out=pr)
                    np.multiply(v_re[i0:i1], pi, out=pi)
                    np.add(pi, t2, out=pi)
                if e:
                    np.add(x2, y2_line, out=mod2)
                    _inverse_power(mod2, -e, mod2, t1)
                    np.multiply(pr, mod2, out=pr)
                    np.multiply(pi, mod2, out=pi)
                re_sum[0], im_sum[0] = sums[line]
                sums[line] = re_sum.sum(axis=0), im_sum.sum(axis=0)
                if i1 == prefix:
                    head[line, a:b].real, head[line, a:b].imag = sums[line]
        total[:, a:b].real, total[:, a:b].imag = sums[:, 0], sums[:, 1]
    return total[:, :p], head[:, :p]


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
    flat, restore = _batch(tau)
    return _unbatch(_coset_sum(rows, charvals, flat.real, flat.imag[None], k - 2)[0][0], restore)


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
    flat, restore = _batch(tau)
    rows, charvals = _coset_rows(level, chi, rho, bound)
    v = flat.imag ** (1 - k) / (1 - k)
    total = _coset_sum(rows, charvals, flat.real, flat.imag[None], -k, k - 1)[0][0]
    return _unbatch(total * v, restore)


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
    full_output: bool = False,
):
    """Extract the Fourier data of the harmonic lift into a FormExpansion.

    Period integrals at two heights separate c+(n) from c-(n) (both with
    width 1 and kappa 0 at infinity, since T is in Gamma_0(N)).  Default
    heights scale like 1/n_range, as mode n sits at e^{-2 pi |n| v} relative,
    and keep bound * v0 above 1, where the coset sum still resolves them.
    Each line takes S = forms.line_samples(n_range, heights) samples, the
    least power of two >= 256, 2 n_range + 2 and 2 n_range + 6 / v0 with
    v0 = min(heights), at most forms._SAMPLES_CAP = 2^16 (else ValueError
    before any coset row, as for a height <= 0 and for n_range or bound
    below 1): the trapezoid rule
    converges like e^{-2 pi S v0} (Trefethen and Weideman, SIAM Rev. 56,
    2014), so mode n_range's alias weighs e^{-2 pi (S - 2 n_range) v0} <=
    4e-17.  At bound 240, n_range 8 and heights (0.01, 0.02) of the level-1
    lift, against S = 4096 and (in witnesses) the closed form:

        S v0                1.28    2.56    5.12     10.24
        |x_S - x_4096|      1.9e3   2.25    1.9e-6   6.8e-7
        error / witness     4.2e7   4.9e5   2.53     2.34

    The floor keeps earlier calls' bits: a box max(|c|, |d|) <= bound is not
    invariant under d -> d + c, so the truncated sum is not exactly
    1-periodic, and S = 128, 64 and 32 move the benchmark's 16 lifts by
    3.1e-3, 9.4e-3 and 2.2e-2 from S = 256, about as 1/S.

    With full_output=True the result is (form, witness): witness holds the
    "heights" and "samples" used and, under "c_plus", "c_minus_zero" and
    "c_minus" shaped like the form's fields, per-mode error witnesses
    |x_B - x_{B/2}| / (2^{-k} - 1), x_B the datum from the bound-B coset sum
    and x_{B/2} from its bound//2 prefix: the bound-B error under the bound^k
    tail law of coset_tail_estimate.  Against the closed form at k = -2 the
    error/witness ratio is 0.95-1.80 for heights up to (10, 20) at bound 60;
    at (40, 80) the c+(0) witness is 14 times too small, and at N = 4,
    k = -3, cusp 0/1 and bound 240 c-(-2) is 2.68 witnesses off, at 1.5e-11
    of the datum, where the witness nears the rounding of the sums.  A mode
    two_height_solve loses (c+(n) once (1 + Gamma(1-k, -4 pi n v1))^2
    overflows, n v1 >~ 27 at k = -2; c-(-n) once both Gamma(1-k, 4 pi n v)
    underflow, n v >~ 59) is stored as 0 with an infinite witness, a lost
    n = 0 raises IllConditionedError, and the form ignores full_output.
    """
    if n_range < 1:
        raise ValueError(f"n_range must be >= 1, got {n_range}")
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    _check_admissible(level, chi, k, rho)
    if heights is None:
        v0 = max(1.2 / bound, min(1.0, 2.0 / max(1, n_range)))
        heights = (v0, 2.0 * v0)
    v0, v1 = heights
    samples = line_samples(n_range, heights)
    rows, charvals = _coset_rows(level, chi, rho, bound)
    # rows are sorted by max(|c|, |d|), so the bound//2 sum is a prefix
    half = int(np.searchsorted(np.abs(rows).max(axis=1), bound // 2, side="right"))
    # both lines in one pass; per height, the bound-B sum stacked on its
    # bound//2 prefix
    u, v = np.arange(samples) * (1.0 / samples), np.array([[v0], [v1]], dtype=float)
    full, head = _coset_sum(rows, charvals, u, v, -k, k - 1, prefix=half)
    lines = [np.stack((f, fh)) * (h ** (1 - k) / (1 - k)) for f, fh, h in zip(full, head, heights)]
    modes = np.arange(-n_range, n_range + 1)
    c_plus, c_minus, info = two_height_solve(*lines, k, modes, v0, v1)
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
        keys = ("c_plus", "c_minus_zero", "c_minus", "heights", "samples")
        return form, dict(zip(keys, (*witness, heights, samples)))
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
