"""Integer 2x2 matrices with the weight-k slash action, and Gamma_0(N) cusp
data: representatives, scaling matrices, widths, cusp parameters, and coset
representatives for Eisenstein sums.

All group computations are exact.  Every matrix the theory needs is
integral (Gamma_0(N), scaling matrices, integer translations, the Fricke
involution), so matrices hold Python ints; cusp widths and parameters are
read from the scaling matrix's entries, and the coset enumeration behind the
Eisenstein sums runs over the whole box of rows at once in int64 numpy
(guarded against overflow) and builds an IntegerMatrix only when a
representative is indexed.  Floats only enter through the slash action on
the upper half-plane.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .characters import DirichletCharacter
from .specfun import _unbatch, _upper_half_plane

__all__ = [
    "IntegerMatrix",
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
]


@dataclass(frozen=True)
class IntegerMatrix:
    """2x2 matrix over Z with positive determinant.  Entries are stored as
    Python ints through operator.index: numpy ints convert, so products
    cannot wrap, and a rational or float entry raises TypeError."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.det <= 0:
            raise ValueError(f"determinant must be positive, got {self.det}")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __matmul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        return IntegerMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "IntegerMatrix":
        """The inverse of a determinant-1 matrix, the only kind whose inverse
        is integral."""
        if self.det != 1:
            raise ValueError(f"only determinant-1 matrices are inverted, got det {self.det}")
        return IntegerMatrix(self.d, -self.b, -self.c, self.a)

    def apply(self, tau):
        """Moebius action (a tau + b)/(c tau + d) at a complex scalar or ndarray."""
        denom = complex(self.c) * tau + complex(self.d)
        if np.any(denom == 0):
            raise ZeroDivisionError("c*tau + d = 0")
        return (complex(self.a) * tau + complex(self.b)) / denom

    def in_gamma0(self, level: int) -> bool:
        return self.det == 1 and self.c % level == 0

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"[[{self.a}, {self.b}], [{self.c}, {self.d}]]"


def identity_matrix() -> IntegerMatrix:
    return IntegerMatrix(1, 0, 0, 1)


def translation(r: int) -> IntegerMatrix:
    """T^r = [[1, r], [0, 1]] for an integer r."""
    return IntegerMatrix(1, r, 0, 1)


def fricke(level: int) -> IntegerMatrix:
    """omega(N) = [[0, -1], [N, 0]]; slashing twice multiplies by (-1)^k."""
    if level < 1:
        raise ValueError("level must be >= 1")
    return IntegerMatrix(0, -1, level, 0)


def slash_factor(k: int, gamma: IntegerMatrix, tau):
    """(det gamma)^{k/2} (c tau + d)^{-k} at a complex scalar or ndarray tau;
    integer k keeps powers single-valued, and the positive real root is taken
    for (det)^{k/2} with odd k.  The one place the slash factor is formed."""
    denom = complex(gamma.c) * tau + complex(gamma.d)
    if np.any(denom == 0):
        raise ZeroDivisionError("c*tau + d = 0")
    det = float(gamma.det)
    return det ** (k / 2.0) * denom ** (-k)


def slash(f: Callable, k: int, gamma: IntegerMatrix, tau):
    """Weight-k slash action (f|_k gamma)(tau) at a complex scalar or ndarray
    tau.  f must take a 1-d ndarray: it is called once, on gamma tau at every
    point, and a scalar tau is a batch of one, so scalar and array calls agree
    bit for bit."""
    flat, restore = _upper_half_plane(tau)
    return _unbatch(slash_factor(k, gamma, flat) * f(gamma.apply(flat)), restore)


# ---------------------------------------------------------------------------
# cusps of Gamma_0(N)


@dataclass(frozen=True)
class Cusp:
    """Cusp a/c of Gamma_0(N) in lowest terms; infinity is (1, 0).

    scaling is an SL_2(Z) matrix sending infinity to the cusp; width is the
    least h >= 1 with scaling T^h scaling^{-1} in Gamma_0(N).  The data
    depend on the level alone: a character's phase kappa on that generator
    is read by cusp_parameter.
    """

    a: int
    c: int
    scaling: IntegerMatrix
    width: int

    @property
    def is_infinity(self) -> bool:
        return self.c == 0

    def label(self) -> str:
        return "inf" if self.c == 0 else f"{self.a}/{self.c}"

    def __repr__(self):
        return f"Cusp({self.label()}, width={self.width})"


def _scaling_matrix(a: int, c: int) -> IntegerMatrix:
    """An SL_2(Z) matrix with first column (a, c)."""
    if c == 0:
        return identity_matrix()
    assert math.gcd(a, c) == 1
    # x = a^{-1} mod c in (-c/2, c/2] and y = (1 - a x) / c: det a x + c y = 1
    x = pow(a, -1, c)
    x -= c * (2 * x > c)
    return IntegerMatrix(a, -((1 - a * x) // c), c, x)


def cusp_width(level: int, rho: Cusp) -> int:
    """Least h >= 1 with gamma_rho T^h gamma_rho^{-1} in Gamma_0(N).  That
    matrix is [[1 - h a c, h a^2], [-h c^2, 1 + h a c]] for the first column
    (a, c) of gamma_rho, so h = N / gcd(c^2, N)."""
    _, _, c_r, _ = _sl2_entries(rho.scaling)
    return level // math.gcd(c_r * c_r, level)


def cusp_parameter(level: int, chi: DirichletCharacter, rho: Cusp) -> float:
    """kappa in [0, 1) with e^{2 pi i kappa} = chi(d) for the width generator
    g_rho = gamma_rho T^{width} gamma_rho^{-1}, whose d-entry is
    1 + width a c for the first column (a, c) of gamma_rho."""
    a_r, _, c_r, _ = _sl2_entries(rho.scaling)
    d = 1 + rho.width * a_r * c_r
    r = chi.rational_exponent(d)
    if r is None:
        raise ValueError(f"character vanishes at d = {d}; invalid cusp data")
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
    rhs = (c2 * g1.d - c1 * g2.d) % level
    g = math.gcd(c1 * c2 % level, level)
    return rhs % g == 0


def cusps(level: int) -> list[Cusp]:
    """A complete irredundant list of Gamma_0(N) cusp representatives.

    Representatives are a/c with c | N and a mod gcd(c, N/c) coprime to it,
    ordered by (c, a); the class of the divisor c = N is represented by
    infinity.  No two are equivalent, so cusp_equivalent finds each class's
    representative among them; a character's kappa at each is
    cusp_parameter's.
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
        width = cusp_width(level, Cusp(a, c, scaling, 1))
        out.append(Cusp(a, c, scaling, width))
    # infinity first, then by (c, a)
    out.sort(key=lambda r: (0, 0) if r.is_infinity else (r.c, r.a))
    return out


def _sl2_entries(m: IntegerMatrix) -> tuple[int, int, int, int]:
    """The entries of a determinant-1 matrix."""
    if m.det != 1:
        raise ValueError(f"scaling matrix {m!r} is not in SL_2(Z)")
    return m.entries()


class CosetReps(Sequence):
    """Coset representatives g_i = gamma_rho [[x_i, y_i], [c_i, d_i]] of
    Gamma_rho \\ Gamma_0(N), held as integer arrays; scaling is gamma_rho's
    (a, b, c, d).

    rows[i] = (c_i, d_i) is the bottom row of gamma_rho^{-1} g_i and d[i] the
    d-entry of g_i (where the character is read); both are read-only int64
    arrays.  Indexing or iterating builds the IntegerMatrix g_i.
    """

    def __init__(self, scaling: tuple, top: np.ndarray, rows: np.ndarray, d: np.ndarray):
        self._scaling = scaling
        self._top, self.rows, self.d = top, rows, d
        for arr in (top, rows, d):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> IntegerMatrix:
        x, y = (int(v) for v in self._top[i])
        c, d = (int(v) for v in self.rows[i])
        a_r, b_r, c_r, d_r = self._scaling
        return IntegerMatrix(
            a_r * x + b_r * c, a_r * y + b_r * d, c_r * x + d_r * c, c_r * y + d_r * d
        )


def _euclid_lift(d: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) with d x - c y = gcd(d, c) >= 0 for every row at once: extended
    Euclid on (d, -c), the quotient sequences run over all rows together
    (numpy's // floors like Python's), each row stopping at remainder 0."""
    old_r, r = d.copy(), -c
    old_x, x = np.ones_like(d), np.zeros_like(d)
    old_y, y = np.zeros_like(d), np.ones_like(d)
    live = np.flatnonzero(r)
    while live.size:
        q = old_r[live] // r[live]
        for old, new in ((old_r, r), (old_x, x), (old_y, y)):
            old[live], new[live] = new[live], old[live] - q * new[live]
        live = live[r[live] != 0]
    sign = np.where(old_r < 0, -1, 1)
    return sign * old_x, sign * old_y


def coset_reps(level: int, rho: Cusp, bound: int) -> CosetReps:
    """One representative per coset of Gamma_rho \\ Gamma_0(N) among matrices
    g whose row (c, d) of gamma_rho^{-1} g has max(|c|, |d|) <= bound, sorted
    by (max(|c|, |d|), |c|, |d|, c, d).

    Cosets biject with bottom rows of gamma_rho^{-1} Gamma_0(N) up to sign.
    A row (c, d) of gamma_rho^{-1} g has -d/c = g^{-1} rho, a cusp of rho's
    class, and Gamma_0(N) keeps gcd(denominator, N), so only the normalized
    coprime rows of the box with gcd(c, N) = gcd(c_rho, N) can lift: they are
    lifted at once, in int64 numpy, by extended Euclid to
    h0 = [[x, y], [c, d]] (the other rows would find no j below), and the T^j
    ambiguity (j mod width) is resolved in integers: gamma_rho T^j h0 lies in
    Gamma_0(N) iff its lower-left entry c_rho x + (c_rho j + d_rho) c is 0
    mod N, tested for all rows per j.  An up-front bound in Python ints
    raises OverflowError where the d-entries c_rho y + d_rho d could leave
    int64.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    scaling = _sl2_entries(rho.scaling)
    _, _, c_r, d_r = scaling
    # |y| <= width * bound and |d| <= bound bound every d-entry c_rho y + d_rho d
    if bound * (abs(c_r) * rho.width + abs(d_r)) > np.iinfo(np.int64).max:
        raise OverflowError(f"scaling entries of {rho.label()} overflow int64 at bound {bound}")
    c, d = np.meshgrid(np.arange(bound + 1), np.arange(-bound, bound + 1), indexing="ij")
    keep = (np.gcd(c, d) == 1) & ((c > 0) | (d > 0)) & (np.gcd(c, level) == math.gcd(c_r, level))
    c, d = c[keep], d[keep]
    x, y = _euclid_lift(d, c)
    # lower-left entry of gamma_rho T^j h0, mod N, stepping j
    low, step = (c_r % level * x + d_r % level * c) % level, c_r % level * c % level
    shift = np.full(len(c), -1)
    for j in range(rho.width):
        shift[(shift < 0) & ((low + j * step) % level == 0)] = j
    hit = shift >= 0
    c, d, j = c[hit], d[hit], shift[hit]
    # T^j h0 = [[x + j c, y + j d], [c, d]]; g.d = c_rho (y + j d) + d_rho d
    x, y = x[hit] + j * c, y[hit] + j * d
    order = np.lexsort((d, c, np.abs(d), np.abs(c), np.maximum(np.abs(c), np.abs(d))))
    c, d, x, y = c[order], d[order], x[order], y[order]
    return CosetReps(
        scaling, np.stack([x, y], axis=1), np.stack([c, d], axis=1), c_r * y + d_r * d
    )
