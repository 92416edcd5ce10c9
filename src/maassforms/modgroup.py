"""Rational 2x2 matrices with the weight-k slash action, and Gamma_0(N) cusp
data: representatives, scaling matrices, widths, cusp parameters, and coset
representatives for Eisenstein sums.

All group computations are exact.  Matrices carry Fraction entries, since
the slash action also takes rational matrices such as T^{u/m} or the Fricke
involution; the coset enumeration behind the Eisenstein sums works in plain
integers and builds a RationalMatrix only when a representative is indexed.
Floats only enter through the slash action on the upper half-plane.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .characters import DirichletCharacter

__all__ = [
    "RationalMatrix",
    "Cusp",
    "identity_matrix",
    "translation",
    "fricke",
    "slash",
    "slash_factor",
    "cusps",
    "cusp_equivalent",
    "cusp_width",
    "cusp_parameter",
    "CosetReps",
    "coset_reps",
    "bottom_row",
]


@dataclass(frozen=True)
class RationalMatrix:
    """2x2 matrix over Q with positive determinant."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.det <= 0:
            raise ValueError(f"determinant must be positive, got {self.det}")

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        return RationalMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "RationalMatrix":
        det = self.det
        return RationalMatrix(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def apply(self, tau):
        """Moebius action (a tau + b)/(c tau + d) at a complex scalar or ndarray."""
        denom = complex(self.c) * tau + complex(self.d)
        if np.any(denom == 0):
            raise ZeroDivisionError("c*tau + d = 0")
        return (complex(self.a) * tau + complex(self.b)) / denom

    @property
    def is_integral(self) -> bool:
        return all(getattr(self, n).denominator == 1 for n in "abcd")

    def in_gamma0(self, level: int) -> bool:
        return (
            self.is_integral
            and self.det == 1
            and int(self.c) % level == 0
        )

    def entries(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def identity_matrix() -> RationalMatrix:
    return RationalMatrix(1, 0, 0, 1)


def translation(r) -> RationalMatrix:
    """T^r = [[1, r], [0, 1]] for rational r."""
    return RationalMatrix(1, Fraction(r), 0, 1)


def fricke(level: int) -> RationalMatrix:
    """omega(N) = [[0, -1], [N, 0]]; slashing twice multiplies by (-1)^k."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return RationalMatrix(0, -1, level, 0)


def slash_factor(k: int, gamma: RationalMatrix, tau):
    """(det gamma)^{k/2} (c tau + d)^{-k} at a complex scalar or ndarray tau;
    integer k keeps powers single-valued, and the positive real root is taken
    for (det)^{k/2} with odd k.  The one place the slash factor is formed."""
    denom = complex(gamma.c) * tau + complex(gamma.d)
    if np.any(denom == 0):
        raise ZeroDivisionError("c*tau + d = 0")
    det = float(gamma.det)
    return det ** (k / 2.0) * denom ** (-k)


def slash(f: Callable, k: int, gamma: RationalMatrix, tau):
    """Weight-k slash action (f|_k gamma)(tau) at a complex scalar or ndarray
    tau.  f must take a 1-d ndarray: it is called once, on gamma tau at every
    point, and a scalar tau is a batch of one, so scalar and array calls agree
    bit for bit."""
    t = np.asarray(tau, dtype=complex)
    flat = t.reshape(-1)
    if np.any(flat.imag <= 0):
        raise ValueError("tau must lie in the upper half-plane")
    out = slash_factor(k, gamma, flat) * f(gamma.apply(flat))
    return complex(out[0]) if t.ndim == 0 else out.reshape(t.shape)


# ---------------------------------------------------------------------------
# cusps of Gamma_0(N)


@dataclass(frozen=True)
class Cusp:
    """Cusp a/c of Gamma_0(N) in lowest terms; infinity is (1, 0).

    scaling is an SL_2(Z) matrix sending infinity to the cusp; width is the
    least h >= 1 with scaling T^h scaling^{-1} in Gamma_0(N); kappa in [0, 1)
    is the character's phase on that generator (0 for the trivial character).
    """

    a: int
    c: int
    scaling: RationalMatrix
    width: int
    kappa: float = 0.0

    @property
    def is_infinity(self) -> bool:
        return self.c == 0

    def label(self) -> str:
        return "inf" if self.c == 0 else f"{self.a}/{self.c}"

    def __repr__(self):
        return f"Cusp({self.label()}, width={self.width})"


def _scaling_matrix(a: int, c: int) -> RationalMatrix:
    """An SL_2(Z) matrix with first column (a, c)."""
    if c == 0:
        return identity_matrix()
    g, x, y = _ext_gcd(a, c)
    assert g == 1
    # a*x + c*y = 1 -> [[a, -y], [c, x]] has det a x + c y = 1
    return RationalMatrix(a, -y, c, x)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a x + b y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def cusp_width(level: int, rho: Cusp) -> int:
    """Least h >= 1 with gamma_rho T^h gamma_rho^{-1} in Gamma_0(N)."""
    inv = rho.scaling.inverse()
    for h in range(1, level + 1):
        if (rho.scaling @ translation(h) @ inv).in_gamma0(level):
            return h
    raise RuntimeError("width not found below the level")  # unreachable


def cusp_parameter(level: int, chi: DirichletCharacter, rho: Cusp) -> float:
    """kappa in [0, 1) with e^{2 pi i kappa} = chi(d) for the width generator
    g_rho = gamma_rho T^{width} gamma_rho^{-1}."""
    g = rho.scaling @ translation(rho.width) @ rho.scaling.inverse()
    r = chi.rational_exponent(int(g.d))
    if r is None:
        raise ValueError(f"character vanishes at d = {int(g.d)}; invalid cusp data")
    return float(r)


def cusp_equivalent(level: int, a1: int, c1: int, a2: int, c2: int) -> bool:
    """Exact Gamma_0(N)-equivalence of cusps a1/c1 and a2/c2 (gcd(a,c) = 1;
    infinity is (1, 0)).

    gamma_2 (+-T^j) gamma_1^{-1} lies in Gamma_0(N) for some integer j iff
    the linear congruence c1 c2 j = c2 d1 - c1 d2 (mod N) is solvable, where
    gamma_i are scaling matrices; this scans the full (infinite) stabilizer.
    """
    g1 = _scaling_matrix(a1, c1)
    g2 = _scaling_matrix(a2, c2)
    d1, d2 = int(g1.d), int(g2.d)
    rhs = (c2 * d1 - c1 * d2) % level
    g = math.gcd(c1 * c2 % level, level)
    return rhs % g == 0


def cusps(level: int, chi: DirichletCharacter | None = None) -> list[Cusp]:
    """A complete irredundant list of Gamma_0(N) cusp representatives.

    Representatives are a/c with c | N and a mod gcd(c, N/c) coprime to it,
    ordered by (c, a); the class of the divisor c = N is represented by
    infinity.  When chi is given the kappa field is filled from it.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    reps: list[tuple[int, int]] = []
    for c in sorted(d for d in range(1, level + 1) if level % d == 0):
        if c == level:
            reps.append((1, 0))  # the class of infinity
            continue
        if c == 1:
            reps.append((0, 1))  # the cusp 0
            continue
        g = math.gcd(c, level // c)
        for a0 in range(1, g + 1):
            if math.gcd(a0, g) != 1:
                continue
            a = a0
            while math.gcd(a, c) != 1:  # lift a0 mod g to a residue coprime to c
                a += g
            reps.append((a, c))
    out = []
    for a, c in reps:
        scaling = _scaling_matrix(a, c)
        cusp = Cusp(a, c, scaling, 1)
        width = cusp_width(level, cusp)
        cusp = Cusp(a, c, scaling, width)
        if chi is not None:
            cusp = Cusp(a, c, scaling, width, cusp_parameter(level, chi, cusp))
        out.append(cusp)
    # infinity first, then by (c, a)
    out.sort(key=lambda r: (0, 0) if r.is_infinity else (r.c, r.a))
    return out


def _sl2_entries(m: RationalMatrix) -> tuple[int, int, int, int]:
    """The entries of an integral determinant-1 matrix as ints."""
    if not (m.is_integral and m.det == 1):
        raise ValueError(f"scaling matrix {m!r} is not in SL_2(Z)")
    return int(m.a), int(m.b), int(m.c), int(m.d)


class CosetReps(Sequence):
    """Coset representatives g_i = gamma_rho [[x_i, y_i], [c_i, d_i]] of
    Gamma_rho \\ Gamma_0(N), held as integer arrays; scaling is gamma_rho's
    (a, b, c, d).

    rows[i] = (c_i, d_i) is the bottom row of gamma_rho^{-1} g_i and d[i] the
    d-entry of g_i (where the character is read); both are read-only int64
    arrays.  Indexing or iterating builds the RationalMatrix g_i.
    """

    def __init__(self, scaling: tuple, top: np.ndarray, rows: np.ndarray, d: np.ndarray):
        self._scaling = scaling
        self._top, self.rows, self.d = top, rows, d
        for arr in (top, rows, d):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> RationalMatrix:
        x, y = (int(v) for v in self._top[i])
        c, d = (int(v) for v in self.rows[i])
        a_r, b_r, c_r, d_r = self._scaling
        return RationalMatrix(
            a_r * x + b_r * c, a_r * y + b_r * d, c_r * x + d_r * c, c_r * y + d_r * d
        )


def coset_reps(level: int, rho: Cusp, bound: int) -> CosetReps:
    """One representative per coset of Gamma_rho \\ Gamma_0(N) among matrices
    g whose row (c, d) of gamma_rho^{-1} g has max(|c|, |d|) <= bound, sorted
    by (max(|c|, |d|), |c|, |d|, c, d).

    Cosets biject with bottom rows of gamma_rho^{-1} Gamma_0(N) up to sign;
    each normalized coprime row is lifted by extended Euclid to
    h0 = [[x, y], [c, d]], and the T^j ambiguity (j mod width) is resolved in
    integers: gamma_rho T^j h0 lies in Gamma_0(N) iff its lower-left entry
    c_rho x + (c_rho j + d_rho) c is 0 mod N.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    scaling = _sl2_entries(rho.scaling)
    _, _, c_r, d_r = scaling
    found = []
    for c in range(0, bound + 1):
        d_range = range(1, bound + 1) if c == 0 else range(-bound, bound + 1)
        for d in d_range:
            if math.gcd(c, d) != 1:
                continue
            _, x, y = _ext_gcd(d, -c)
            # lower-left entry of gamma_rho T^j h0, mod N, stepping j
            low, step = (c_r * x + d_r * c) % level, c_r * c % level
            for j in range(rho.width):
                if low == 0:
                    # T^j h0 = [[x + j c, y + j d], [c, d]]; g.d = c_rho (y + j d) + d_rho d
                    x, y = x + j * c, y + j * d
                    key = (max(abs(c), abs(d)), abs(c), abs(d), c, d)
                    found.append((*key, x, y, c_r * y + d_r * d))
                    break
                low = (low + step) % level
    found.sort()
    # int64 conversion raises OverflowError rather than wrapping
    table = np.array(found, dtype=np.int64).reshape(-1, 8)
    return CosetReps(scaling, table[:, 5:7].copy(), table[:, 3:5].copy(), table[:, 7].copy())


def bottom_row(rho: Cusp, g: RationalMatrix) -> tuple[int, int]:
    """The row (c, d) of gamma_rho^{-1} g entering j(gamma_rho^{-1} g, tau);
    gamma_rho^{-1} = [[d_rho, -b_rho], [-c_rho, a_rho]]."""
    a_r, _, c_r, _ = _sl2_entries(rho.scaling)
    return int(a_r * g.c - c_r * g.a), int(a_r * g.d - c_r * g.b)
