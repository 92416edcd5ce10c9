"""Truncated Fourier expansions of harmonic Maass forms of polynomial growth,
with evaluation, exact termwise derivatives, the operators xi_k, D^{1-k},
R_k, L_k, Delta_k and H, character twists, and numerical coefficient
extraction by period integrals.

Every expansion is a sum of elementary terms

    coef * v^vpow * q^n (n >= 0)   or   coef * v^vpow * conj(q)^{-n} (n < 0),

that is coef * e^{2 pi i n u - 2 pi |n| v} * v^vpow with n and vpow
integers: the weights are integral and the expansions at infinity have
kappa = 0.  These terms are closed under d/du, d/dv, multiplication by
powers of v and complex conjugation, so all operator identities are checked
with exact term algebra rather than finite differences.  A TermSeries holds
its terms as integer arrays, which that algebra and the evaluator both
read; to_terms builds them straight from a form's coefficient arrays.

TermSeries._sums is the one numeric pass over a series: TermSeries.eval
(which evaluate, HolomorphicQExpansion.evaluate, the CLI and the operator
identities call), TermSeries.jet and the Fricke pairs of lseries all read it.
It evaluates a power series by baby steps and giant steps (Paterson and
Stockmeyer, SIAM J. Comput. 2, 1973).  A term's exponential is q^n or
conj(q)^{-n}, and q^|n| is a giant power times one of 16 baby powers.  Per
block of 64 points, one table of those powers takes a real np.exp and a
cos/sin once per distinct Re tau, with no exponential per term, and each
coefficient set is one matrix product of the giant powers against a matrix
cached per series, contracted with the baby powers and v^vpow.  A pass forms
the value set, or that and the df/du set, which shares its layout: eval reads
the value, and a Fricke pair both (for H = 2iv f_u + k f).  TermSeries.jet
reads both too, and df/dv as eval of the exact series d_v(), which it builds
once and keeps.
Memory stays bounded whatever the number of points or terms (the tables are
per block and per slice of 256 giant steps, and a sparse series gets a giant
step per nonzero mode, not per span), and a point's value does not depend on
the batch it arrives in: every block is padded to 64 points, so each product
has one shape.

What is kept: a form keeps its TermSeries (to_terms), one twist per psi
(twist) and its Fricke pair (lseries.analytic_pair, whose own keeping the
lseries.FrickePair docstring states); a series keeps its matrices and its
d_v series (jet); a pass keeps nothing.  Each is built on first use and
released with its owner: there is no module-level cache, size bound or
setting.  A psi equal to a kept one (the same modulus and exponents, so
psibar of a real psi too) gets the same twist back, because callers
interleave characters: the converse checks run psi mod 3, 4 and 5 on one
form in turn, and a complex psi on a self-paired form needs f_psi and
f_psibar in every equation.  A twist costs about the form's own footprint
once continued (its coefficients, TermSeries and pair); the largest caller
in this package twists one form by 10 characters (the level-11 conductor
set).  A form's coefficients are read-only (see FormExpansion), so nothing
kept goes stale, and a form made by dataclasses.replace starts with
nothing kept.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .characters import DirichletCharacter, _from_generator_values
from .modgroup import IntegerMatrix, slash_factor
from .specfun import _inc_gamma_scaled, _unbatch, _upper_half_plane

__all__ = [
    "FormExpansion",
    "HolomorphicQExpansion",
    "TermSeries",
    "IllConditionedError",
    "to_terms",
    "evaluate",
    "evaluate_tail_bound",
    "laplacian",
    "shadow",
    "bol",
    "raising",
    "lowering",
    "h_transform",
    "twist",
    "mode_heights",
    "line_samples",
    "two_height_solve",
    "extract_coefficients",
    "growth_constant",
    "save_form",
    "load_form",
    "atomic_write",
]

TWO_PI = 2.0 * math.pi
# TermSeries evaluation: points per block (every block, the last one padded,
# so each matrix product has one shape and a point's value does not depend
# on its batch), baby steps per giant step, and giant steps per slice of the
# power table (so a block's tables stay bounded whatever the number of rows)
_POINT_BLOCK = 64
_BABY = 16
_GIANT_SLICE = 256
# a table entry e^{x} with Re x below _EXP_FLOOR (e^{-700} is about 1e-304)
# is taken as 0: every term it multiplies is then below 1e-304 times its
# coefficient, and the subnormal arithmetic it would cost is slow
_EXP_FLOOR = -700.0


class IllConditionedError(RuntimeError):
    """Two-height linear system cannot separate c+ from c-."""


# ---------------------------------------------------------------------------
# term algebra


def _power_table(phase_u, rows, v, phase_rate, size_rate) -> np.ndarray:
    """e^{a u + b v} for each column (a, b) of the rates, a imaginary and b
    real, and each point (u = phase_u[rows], v): a columns x points array,
    0 where b v < _EXP_FLOOR.  The phases are formed once per entry of
    phase_u."""
    x = size_rate[:, None] * v
    np.putmask(x, x < _EXP_FLOOR, -np.inf)
    return np.exp(x, out=x) * np.exp(phase_rate[:, None] * phase_u)[:, rows]


def _coefficient_matrix(cells, shape, coef, sign) -> np.ndarray:
    """The complex matrix of the given shape holding at each flat index of
    cells the sum of its entries of coef, each conjugated where sign is -1,
    added in order."""
    coef = np.where(sign < 0, np.conj(coef), coef)
    matrix = np.empty(shape, dtype=complex)
    for part, values in ((matrix.real, coef.real), (matrix.imag, coef.imag)):
        part[...] = np.bincount(cells, values, matrix.size).reshape(shape)
    return matrix


def _times(a, b) -> np.ndarray:
    """a * b, each product rounded as for lone Python complexes (numpy's loop may fuse)."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _merged(F, vpow, coef, placed: int = 0) -> "TermSeries":
    """The terms merged by key (F, vpow) as a dict merges them: keys in the
    order of their first term, each coefficient its terms' sum in order from
    0j, or from the term itself for the first `placed` terms (distinct keys)."""
    keys = np.stack([F, vpow], axis=1)
    _, firsts, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    group = np.argsort(np.argsort(firsts))[inverse]  # keys numbered by their first term
    acc = np.zeros(firsts.size, dtype=complex)
    acc[group[:placed]] = coef[:placed]
    np.add.at(acc, group[placed:], coef[placed:])
    return TermSeries(*keys[np.sort(firsts)].T, acc)


@dataclass(frozen=True, eq=False)
class TermSeries:
    """Finite sum of terms coef * e^{2 pi i F u - 2 pi |F| v} * v^vpow, that
    is coef v^vpow q^F for F >= 0 and coef v^vpow conj(q)^{-F} for F < 0,
    held as int64 arrays F and vpow and a complex array coef with one entry
    per term and one term per key (F, vpow).  Construction drops the terms
    of coefficient 0; the operators are exact integer algebra, each
    coefficient formed as Python forms it for a lone term."""

    F: np.ndarray
    vpow: np.ndarray
    coef: np.ndarray

    def __post_init__(self):
        keep = self.coef != 0
        for name in ("F", "vpow", "coef"):
            object.__setattr__(self, name, getattr(self, name)[keep])

    def __add__(self, other: "TermSeries") -> "TermSeries":
        terms = ((s.F, s.vpow, s.coef) for s in (self, other))
        return _merged(*map(np.concatenate, zip(*terms)), self.coef.size)

    def scale(self, z: complex) -> "TermSeries":
        return TermSeries(self.F, self.vpow, _times(z, self.coef))

    def d_u(self) -> "TermSeries":
        # each new coefficient added to 0j, as _merged adds a new key's terms
        w = _times(2j * math.pi, self.F)
        return TermSeries(self.F, self.vpow, 0j + _times(self.coef, w))

    def d_v(self) -> "TermSeries":
        """Per term, the derivative of v^vpow and then that of e^{-2 pi |F| v}."""
        rate = np.stack([self.vpow, TWO_PI * -np.abs(self.F)], axis=1).reshape(-1)
        vpow = np.stack([self.vpow - 1, self.vpow], axis=1).reshape(-1)
        live = rate != 0
        F, coef = (np.repeat(a, 2)[live] for a in (self.F, self.coef))
        return _merged(F, vpow[live], _times(coef, rate[live]))

    def d_tau(self) -> "TermSeries":
        return (self.d_u() + self.d_v().scale(-1j)).scale(0.5)

    def d_taubar(self) -> "TermSeries":
        return (self.d_u() + self.d_v().scale(1j)).scale(0.5)

    def mul_v(self, j: int) -> "TermSeries":
        return TermSeries(self.F, self.vpow + j, self.coef)

    def conjugate(self) -> "TermSeries":  # 0j + as in d_u
        return TermSeries(-self.F, self.vpow, 0j + np.conj(self.coef))

    @cached_property
    def _arrays(self):
        """The terms as power-table rates, and the layout and matrix of the
        value set.

        A term's row is q^n, n = F >= 0 (sign +1), or the conjugate of q^n,
        n = -F > 0 (sign -1), so both signs share their powers.  The rows sit
        at n = step (16 hi + j), step the gcd of the n (N for the series of
        g(N tau)) and 0 <= j < 16.  The rows of one hi share a giant power,
        at the least n among them, so no giant power underflows where its
        rows do not; a row j' past it is that giant power times the baby
        power j' of the step.  A sparse series thus gets one giant step per
        nonzero mode, not one per 16 indices of its span.

        The value set's matrix has _BABY rows per (sign, vpow) group that
        holds a term, those of sign -1 first, and a column per giant step; a
        term sits at the cell (group, baby step, giant step).

        Returned: the rates of _power_table for the _BABY baby steps and then
        each giant step; the vpows the groups read; per term its cell, sign
        and 2 pi F; the layout: the matrix shape, the number of groups of
        sign -1, and per group the index of its vpow; and the value set's
        matrix.
        """
        F, vpow = self.F, self.vpow
        sign = np.where(F < 0, -1, 1)
        n = np.abs(F)
        step = int(np.gcd.reduce(n)) or 1  # 0 with no term or n = 0 alone
        m = n // step
        giants, col = np.unique(m // _BABY, return_inverse=True)
        ordered = np.sort(m)
        at = ordered[np.searchsorted(ordered, giants * _BABY)]  # each giant step's least row
        lo = m - at[col]
        rate = step * np.concatenate([np.arange(_BABY), at])
        pows = np.arange(vpow.min(initial=0), vpow.max(initial=0) + 1, dtype=float)
        key = (sign > 0) * pows.size + (vpow - int(pows[0]))
        present = np.bincount(key, minlength=2 * pows.size) > 0
        groups = np.flatnonzero(present)
        cells = ((np.cumsum(present) - 1)[key] * _BABY + lo) * giants.size + col
        shape = (groups.size * _BABY, giants.size)
        layout = (shape, int(np.count_nonzero(groups < pows.size)), groups % pows.size)
        matrix = _coefficient_matrix(cells, shape, self.coef, sign)
        rates = (2j * math.pi * rate, TWO_PI * -rate)
        return rates, pows, (cells, sign, TWO_PI * F), layout, matrix

    @cached_property
    def _du_matrix(self):
        """The d/du set's matrix, built on the first pass that reads df/du:
        2 pi i F times each coefficient, in the value set's layout."""
        _, _, (cells, sign, wf), (shape, *_), _ = self._arrays
        return _coefficient_matrix(cells, shape, self.coef * (1j * wf), sign)

    @cached_property
    def _dv_series(self) -> "TermSeries":
        """d_v(), the series whose value jet gives as df/dv, built on its first call."""
        return self.d_v()

    def _sums(self, tau, order: int):
        """The value at tau, and for order 1 also df/du: order 0 gives (f,)
        and 1 gives (f, df/du), each a flat array over the points, and the
        token specfun._unbatch restores the caller's shape with.  A pass
        reads only the series, the points and the order, and keeps nothing
        (see the module docstring).

        The points go in blocks of _POINT_BLOCK, the last one padded.  Per
        block, one power table holds q^n of every baby and giant step n (see
        _arrays): a real np.exp of the v part, whose entries below
        e^{_EXP_FLOOR} are 0, times the phase, formed once per run of equal
        Re tau.  Each set is then, per slice of _GIANT_SLICE giant steps, one
        matrix product of its cached matrix against the giant steps' table;
        the two sets share one layout and every elementwise pass after it:
        times the baby steps' table summed over the baby steps, times v^vpow
        per group, and summed over the groups, the sign -1 ones conjugated.
        Every product has one shape per series, so a point's value does not
        depend on the batch it arrives in, and f does not depend on the order.
        ValueError unless every point is finite with Im tau > 0.
        """
        flat, restore = _upper_half_plane(tau)
        rates, pows, _, (shape, nconj, pow_of), matrix = self._arrays
        matrices = [matrix, self._du_matrix] if order else [matrix]
        outs = np.zeros((len(matrices), flat.size), dtype=complex)
        size = shape[1]
        # every block padded to _POINT_BLOCK points; a run of equal Re tau
        # ends at each change and at each block
        pts = np.full(-(-flat.size // _POINT_BLOCK) * _POINT_BLOCK, 1j)
        pts[: flat.size] = flat
        uu = np.fmod(pts.real, 1)  # 1 is a period of every phase; fmod is exact
        new = np.ones(pts.size, dtype=bool)
        np.not_equal(uu[1:], uu[:-1], out=new[1:])
        new[::_POINT_BLOCK] = True
        run = np.cumsum(new) - 1
        for a in range(0, flat.size, _POINT_BLOCK):
            block = slice(a, a + _POINT_BLOCK)
            m = min(_POINT_BLOCK, flat.size - a)
            phase_u, rows, v = uu[block][new[block]], run[block] - run[a], pts.imag[block]
            for start in range(0, max(size, 1), _GIANT_SLICE):
                cols = slice(0 if start == 0 else _BABY + start, _BABY + start + _GIANT_SLICE)
                table = _power_table(phase_u, rows, v, rates[0][cols], rates[1][cols])
                if start == 0:
                    babies, table = table[:_BABY], table[_BABY:]
                    powers = v ** pows[:, None]
                part = np.empty((len(matrices), shape[0], v.size), dtype=complex)
                for out, mat in zip(part, matrices):
                    np.matmul(mat[:, start : start + _GIANT_SLICE], table, out=out)
                part = part.reshape(len(matrices), shape[0] // _BABY, _BABY, v.size)
                part *= babies
                sums = part.sum(axis=2)
                sums *= powers[pow_of]
                np.conjugate(sums[:, :nconj], out=sums[:, :nconj])
                outs[:, a : a + m] += sums.sum(axis=1)[:, :m]
        return list(outs), restore

    def _refuse_heights(self, heights) -> None:
        """ValueError, naming the height, unless v^vpow is finite for every
        height v given and every vpow of the series: v^p is largest at the
        greatest height for p >= 0 and at the least for p < 0, so two powers
        decide.  eval, jet and magnitude ask before any pass; _sums does not,
        as the continuations never read such heights."""
        v = np.asarray(heights, dtype=float)
        for h, p in ((v.max(initial=1.0), self.vpow.max(initial=0)),
                     (v.min(initial=1.0), self.vpow.min(initial=0))):
            try:
                float(h) ** int(p)  # Python's power raises where numpy's warns
            except OverflowError:
                raise ValueError(f"height {float(h)!r} is past the double range: "
                                 f"v^{int(p)} is not finite there") from None

    def eval(self, tau):
        """Evaluate at tau (complex scalar or ndarray with Im > 0); a scalar
        is a batch of one and returns a Python complex.  ValueError at a
        height where v^vpow leaves the double range (see _refuse_heights)."""
        flat, restore = _upper_half_plane(tau)
        self._refuse_heights(flat.imag)
        (out,), _ = self._sums(flat, 0)
        return _unbatch(out, restore)

    def magnitude(self, v: float) -> float:
        """sum |coef| v^vpow e^{-2 pi |F| v} over the terms with F != 0: by the
        triangle inequality a bound on |f - its constant terms| at height v,
        whatever Re tau; evaluate_tail_bound and lseries.fe_residuals read it.
        ValueError where v^vpow leaves the double range (see _refuse_heights)."""
        self._refuse_heights(v)
        live = self.F != 0
        terms = np.abs(self.coef[live]) * v ** self.vpow[live].astype(float)
        return float((terms * np.exp(-TWO_PI * v * np.abs(self.F[live]))).sum())

    def jet(self, tau):
        """(f, df/du, df/dv) at tau (complex scalar or ndarray with Im > 0):
        f and df/du from one pass, in which d/du multiplies a term by
        2 pi i F, and df/dv as eval of the exact series d_v(), which the
        first call builds from the term arrays and keeps.  ValueError at a
        height where v^vpow of either series leaves the double range (see
        _refuse_heights)."""
        flat, restore = _upper_half_plane(tau)
        for series in (self, self._dv_series):
            series._refuse_heights(flat.imag)
        outs, _ = self._sums(flat, 1)
        outs += self._dv_series._sums(flat, 0)[0]
        return tuple(_unbatch(x, restore) for x in outs)


# weight-k operators on term series ----------------------------------------


def raising_op(ts: TermSeries, k: int) -> TermSeries:
    """R_k = 2i d/dtau + k/v."""
    return ts.d_tau().scale(2j) + ts.mul_v(-1).scale(k)


def lowering_op(ts: TermSeries, k: int) -> TermSeries:
    """L_k = -2i v^2 d/dtaubar."""
    return ts.d_taubar().scale(-2j).mul_v(2)


def laplacian_op(ts: TermSeries, k: int) -> TermSeries:
    """Delta_k = -v^2 (d_uu + d_vv) + i k v (d_u + i d_v)."""
    second = (ts.d_u().d_u() + ts.d_v().d_v()).mul_v(2).scale(-1)
    first = (ts.d_u() + ts.d_v().scale(1j)).mul_v(1).scale(1j * k)
    return second + first


def xi_op(ts: TermSeries, k: int) -> TermSeries:
    """xi_k = 2i v^k conj(d/dtaubar)."""
    return ts.d_taubar().conjugate().mul_v(k).scale(2j)


def h_op(ts: TermSeries, k: int) -> TermSeries:
    """H = 2iv d/du + k."""
    return ts.d_u().mul_v(1).scale(2j) + ts.scale(k)


# slashed 1-jets -------------------------------------------------------------


def slash_jet1(ts: TermSeries, k: int, gamma: IntegerMatrix, tau):
    """(f, df/du, df/dv) of f|_k gamma at tau (scalar or ndarray), the triple
    TermSeries.jet gives, by the chain rule from TermSeries.jet at gamma tau.

    gamma tau is holomorphic, so d/dtau only sees f_tau and d/dtaubar only
    f_taubar, each scaled by m = det/(c tau + d)^2 resp. conj(m), and
    d/dtau also meets the slash factor.  No library path calls it: a Fricke
    pair reads its own rows at the reciprocal height on the imaginary axis,
    and slashes its evaluator off the axis only for the partner's two
    constant terms (see lseries.analytic_pair); this is the independent
    derivative the slash identities are tested against.
    """
    f, fu, fv = ts.jet(gamma.apply(tau))  # first, so a height past the range is named
    c = complex(gamma.c)
    det = float(gamma.det)
    w = c * tau + complex(gamma.d)
    pref = slash_factor(k, gamma, tau)
    # d/dtau of the slash factor
    dpref = det ** (k / 2.0) * (-k) * c * w ** (-k - 1)
    m = det / (w * w)
    ftau = dpref * f + pref * 0.5 * (fu - 1j * fv) * m
    ftaubar = pref * 0.5 * (fu + 1j * fv) * np.conjugate(m)
    return pref * f, ftau + ftaubar, 1j * (ftau - ftaubar)


# ---------------------------------------------------------------------------
# form expansions


@dataclass(frozen=True, eq=False)
class FormExpansion:
    """Truncated Fourier data of a weight-k harmonic Maass form of polynomial
    growth: holomorphic coefficients c+(0..n_max), the v^{1-k} datum c-(0),
    and nonholomorphic coefficients c-(-1..-n_max) stored by |n| - 1.

    c_plus and c_minus are read-only views of a read-only copy, so what the
    form keeps (see the module docstring; the twists in _twists, a dict made
    with the form) cannot go stale.  Forms compare and hash by identity;
    lseries._same_data compares their data.
    """

    weight: int
    level: int
    character: DirichletCharacter
    alpha: float
    n_max: int
    c_plus: np.ndarray
    c_minus_zero: complex
    c_minus: np.ndarray

    _pair = None  # lseries.analytic_pair(self), set on its first call

    def __post_init__(self):
        if self.weight > -1:
            raise ValueError("weight must be a negative integer")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        cp = np.array(self.c_plus, dtype=complex)
        cm = np.array(self.c_minus, dtype=complex)
        if cp.shape != (self.n_max + 1,):
            raise ValueError(f"c_plus must have length n_max+1 = {self.n_max + 1}")
        if cm.shape != (self.n_max,):
            raise ValueError(f"c_minus must have length n_max = {self.n_max}")
        for name, base in (("c_plus", cp), ("c_minus", cm)):
            base.setflags(write=False)
            object.__setattr__(self, name, base.view())
        object.__setattr__(self, "c_minus_zero", complex(self.c_minus_zero))
        object.__setattr__(self, "_twists", {})  # psi -> twist(self, psi), per instance

    @cached_property
    def _terms(self) -> TermSeries:
        """to_terms(self), built on its first call."""
        nu, n = 1 - self.weight, np.arange(self.n_max + 1)
        steps = [np.full(self.n_max, math.gamma(nu))]
        steps += [4 * math.pi * n[1:] / l for l in range(1, nu)]
        z = self.c_minus[:, None] * np.cumprod(np.stack(steps, axis=1), axis=1)
        z[self.c_minus == 0] = 0  # also where the product overflowed
        F = np.concatenate([n, [0], np.repeat(-n[1:], nu)])
        vpow = np.concatenate([0 * n, [nu], np.tile(np.arange(nu), self.n_max)])
        coef = np.concatenate([self.c_plus, [self.c_minus_zero], z.reshape(-1)])
        return TermSeries(F, vpow, coef)

    # -- JSON -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "level": self.level,
            "character": self.character.to_json(),
            "alpha": self.alpha,
            "n_max": self.n_max,
            "c_plus": [[z.real, z.imag] for z in self.c_plus],
            "c_minus_zero": [self.c_minus_zero.real, self.c_minus_zero.imag],
            "c_minus": [[z.real, z.imag] for z in self.c_minus],
        }

    @staticmethod
    def from_json(data: dict) -> "FormExpansion":
        """The form of to_json's data; ValueError, naming the field and the
        index, for a coefficient that is not finite."""
        coefficients = {
            "c_plus": np.array([complex(re, im) for re, im in data["c_plus"]]),
            "c_minus_zero": complex(*data["c_minus_zero"]),
            "c_minus": np.array([complex(re, im) for re, im in data["c_minus"]]),
        }
        for name, values in coefficients.items():
            _require_finite(name, values)
        return FormExpansion(
            weight=int(data["weight"]),
            level=int(data["level"]),
            character=DirichletCharacter.from_json(data["character"]),
            alpha=float(data["alpha"]),
            n_max=int(data["n_max"]),
            **coefficients,
        )


def _require_finite(name: str, values) -> None:
    """ValueError naming the field, and the index for an array, of the
    first value that is not finite."""
    values = np.asarray(values)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        where = f"{name}[{bad[0]}]" if values.ndim else name
        raise ValueError(f"{where} must be finite, got {values.flat[bad[0]]}")


def atomic_write(path, text: str) -> None:
    """Write UTF-8 text to path atomically (write-temp-then-rename)."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_form(form: FormExpansion, path) -> None:
    """Write the form as strict JSON, atomically.

    Floats are serialized by repr, so a load reproduces the in-memory values
    bit for bit.  ValueError, before anything is written, for a value that
    is not finite (JSON has no NaN or Infinity); a coefficient is named by
    its field and index.
    """
    for name in ("c_plus", "c_minus_zero", "c_minus"):
        _require_finite(name, getattr(form, name))
    atomic_write(path, json.dumps(form.to_json(), indent=1, allow_nan=False) + "\n")


def load_form(path) -> FormExpansion:
    """The form save_form wrote to path (see FormExpansion.from_json)."""
    with open(path, encoding="utf-8") as fh:
        return FormExpansion.from_json(json.load(fh))


@dataclass(frozen=True, eq=False)
class HolomorphicQExpansion:
    """Truncated q-expansion sum c(n) q^n, the image space of xi_k and D^{1-k};
    read-only coefficients and identity eq and hash, as for FormExpansion."""

    weight: int
    level: int
    coefficients: np.ndarray

    def __post_init__(self):
        base = np.array(self.coefficients, dtype=complex)
        base.setflags(write=False)
        object.__setattr__(self, "coefficients", base.view())

    @cached_property
    def _series(self) -> TermSeries:
        """sum c(n) q^n as a TermSeries, built on the first evaluate."""
        n = np.arange(self.coefficients.size)
        return TermSeries(n, 0 * n, self.coefficients)

    def evaluate(self, tau):
        """The sum at tau (complex scalar or ndarray with Im > 0), by TermSeries.eval."""
        return self._series.eval(tau)

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "level": self.level,
            "coefficients": [[z.real, z.imag] for z in self.coefficients],
        }


def to_terms(form: FormExpansion) -> TermSeries:
    """The expansion as a TermSeries, built from the coefficient arrays on
    the first call and kept on the form: every later call returns the same
    series, with its matrices (see TermSeries._arrays).  The
    terms are c+(n) q^n, c-(0) v^{1-k}, then c-(-m) Gamma(1-k) (4 pi m)^l / l!
    v^l e^{-2 pi i m u - 2 pi m v} by m and l < 1-k, each formed as for a
    lone term.  That is c-(-m) Gamma(1-k, 4 pi m v) q^{-m} through the
    finite sum Gamma(nu, x) = Gamma(nu) e^{-x} sum_{l<nu} x^l/l!, which
    absorbs the growing |q^{-m}| = e^{2 pi m v} into a decaying e^{-2 pi m v}.
    """
    return form._terms


def evaluate(form: FormExpansion, tau):
    """f(tau) for tau in the upper half-plane (scalar or ndarray)."""
    return to_terms(form).eval(tau)


def evaluate_tail_bound(form: FormExpansion, v: float, constant: float | None = None) -> float:
    """Bound on the dropped tail sum_{|n| > n_max} at height v: the
    TermSeries.magnitude of the growth-bound terms |c+-(n)| = C n^alpha,
    n_max < |n| <= n_max + 400, as to_terms expands them, with the last mode
    weighted by 1 / (1 - r), r = e^{-2 pi v}: it stands for the modes past it
    too, through the geometric remainder r / (1 - r) of the crude ratio r."""
    if v <= 0:
        raise ValueError("v must be > 0")
    c = growth_constant(form) if constant is None else constant
    bound = np.zeros(form.n_max + 401)
    bound[form.n_max + 1 :] = c * np.arange(form.n_max + 1, bound.size) ** form.alpha
    bound[-1] *= 1.0 / -math.expm1(-TWO_PI * v)
    return to_terms(FormExpansion(form.weight, form.level, form.character, form.alpha,
                                  bound.size - 1, bound, 0.0, bound[1:])).magnitude(v)


def growth_constant(form: FormExpansion) -> float:
    """Least C with |c+-(n)| <= C max(|n|,1)^alpha over the stored range, NaN
    if a coefficient is NaN.  hypot and Python's float power round like the
    scalar abs(c) / float(n) ** alpha; numpy's complex abs and power may not."""
    scale = (np.arange(1.0, form.n_max + 1).astype(object) ** form.alpha).astype(float)
    head = np.array([form.c_plus[0], form.c_minus_zero])
    mods = [np.hypot(c.real, c.imag) for c in (head, form.c_plus[1:], form.c_minus)]
    return float(np.concatenate([mods[0], mods[1] / scale, mods[2] / scale]).max())


def laplacian(form: FormExpansion, tau: complex) -> complex:
    """Delta_k f at tau; vanishes to rounding for every expansion since each
    Fourier basis term is annihilated."""
    return laplacian_op(to_terms(form), form.weight).eval(tau)


def shadow(form: FormExpansion) -> HolomorphicQExpansion:
    """xi_k(f): weight 2-k, coefficients (1-k) conj(c-(0)) and
    -(4 pi)^{1-k} conj(c-(-n)) n^{1-k} for n >= 1; c+ data does not enter."""
    k = form.weight
    coeffs = np.zeros(form.n_max + 1, dtype=complex)
    coeffs[0] = (1 - k) * np.conj(form.c_minus_zero)
    fac = (4.0 * math.pi) ** (1 - k)
    for n in range(1, form.n_max + 1):
        coeffs[n] = -fac * np.conj(form.c_minus[n - 1]) * float(n) ** (1 - k)
    return HolomorphicQExpansion(2 - k, form.level, coeffs)


def bol(form: FormExpansion) -> HolomorphicQExpansion:
    """D^{1-k}(f): weight 2-k, constant term (-4 pi)^{k-1} (1-k)! c-(0) and
    c+(n) n^{1-k} for n >= 1; c-(n), n < 0, does not enter.

    The constant term's sign is the one forced by the operator identity
    D^{1-k} = (-4 pi)^{k-1} R_k^{1-k} (check against D^{1-k} v^{1-k} =
    (-1/4pi)^{1-k} (1-k)!); it agrees with the negated-(4 pi)^{k-1} form
    exactly when k is even.
    """
    k = form.weight
    coeffs = np.zeros(form.n_max + 1, dtype=complex)
    coeffs[0] = (-4.0 * math.pi) ** (k - 1) * math.factorial(1 - k) * form.c_minus_zero
    for n in range(1, form.n_max + 1):
        coeffs[n] = form.c_plus[n] * float(n) ** (1 - k)
    return HolomorphicQExpansion(2 - k, form.level, coeffs)


def raising(form: FormExpansion, tau: complex) -> complex:
    """(R_k f)(tau) = (2i d/dtau + k/v) f."""
    return raising_op(to_terms(form), form.weight).eval(tau)


def lowering(form: FormExpansion, tau: complex) -> complex:
    """(L_k f)(tau) = -2i v^2 df/dtaubar."""
    return lowering_op(to_terms(form), form.weight).eval(tau)


def h_transform(form: FormExpansion, tau: complex) -> complex:
    """H(tau) = 2iv df/du + k f, the integrand generator for the Omega series."""
    return h_op(to_terms(form), form.weight).eval(tau)


def twist(form: FormExpansion, psi: DirichletCharacter) -> FormExpansion:
    """Coefficientwise twist: c+(n) -> psi(n) c+(n), c-(0) -> psi(0) c-(0),
    c-(n) -> psi(-n) c-(n); character chi psi^2, level lcm(N, m^2, m m_chi).

    psi(0) is 1 for the modulus-1 character (twisting is then the identity)
    and 0 otherwise.

    The form keeps one twist per psi (see the module docstring), so f_psi,
    and with it its to_terms, Fricke pair and last continuation, is built
    once per (form, psi) whatever the order of the calls.  A sweep over
    every psi mod m belongs to a batched path over all psi at once, not to
    repeated twist calls.
    """
    kept = form._twists.get(psi)
    if kept is not None:
        return kept
    if not psi.is_primitive:
        raise ValueError("twisting character must be primitive")
    m = psi.modulus
    chi = form.character
    new_level = math.lcm(form.level, m * m, m * chi.conductor)
    new_char = _from_generator_values(new_level, (chi, psi, psi))
    psi_n = psi.values[np.arange(-form.n_max, form.n_max + 1) % m]
    c = np.concatenate([form.c_minus[::-1], form.c_plus])  # c at n = -n_max..n_max
    prod = _times(psi_n, c)
    twisted = FormExpansion(
        weight=form.weight,
        level=new_level,
        character=new_char,
        alpha=form.alpha,
        n_max=form.n_max,
        c_plus=prod[form.n_max :],
        c_minus_zero=psi(0) * form.c_minus_zero,
        c_minus=prod[form.n_max - 1 :: -1],
    )
    form._twists[psi] = twisted
    return twisted


# ---------------------------------------------------------------------------
# coefficient extraction

# samples per line: a power of two keeps u = j / S (and a lift's x, x^2)
# exact; the floor, as a lift's coset sum moves by about 1/S; an alias weighs
# at most e^{-2 pi _ALIAS_REACH} = 4e-17 of its coefficient; the cap, as a
# height of 1e-6 asks for 2^23
_SAMPLES_FLOOR, _ALIAS_REACH, _SAMPLES_CAP = 256, 6.0, 2**16


def mode_heights(n: int) -> tuple[float, float]:
    """The two heights at which one mode is read: v0 = 1 / (2 max(1, |n|))
    and v1 = 2 v0.  The trapezoid rule at height v reads mode n at weight
    e^{-2 pi |n| v} (Trefethen and Weideman, SIAM Rev. 56, 2014), so mode n
    sits at e^{-pi} and e^{-2 pi} for every n != 0: the evaluator's rounding
    is amplified at most e^{2 pi} = 535, and the Gram pair
    Gamma(1-k, -/+ 2 pi), Gamma(1-k, -/+ 4 pi) is the same for every n."""
    v0 = 0.5 / max(1, abs(n))
    return v0, 2.0 * v0


def line_samples(n: int, heights, n_max: int | None = None, *, k: int) -> int:
    """The least power of two >= _SAMPLES_FLOOR, 2 |n| + 2 and the reach of
    the data at weight k: 2 |n| + R / min(heights), where an alias weighs
    below 4e-17 of its coefficient, or for a form stored to n_max the
    smaller of that and n_max + |n| + 1, where no mode aliases onto n.
    ValueError off the half-plane or past the cap.

    At S samples a line the nearest alias of mode n is mode n - S (n >= 0)
    or n + S, at |m| = |n| + R / v0 for R = (S - 2 |n|) v0; relative to
    mode n's own weight it weighs e^{-2 pi R} times, for a c- term,
    e^x Gamma(1-k, x) = sum_{l <= K} K! x^l / l! <= (K + x)^K at
    x = 4 pi |m| v0, K = max(0, -k) (at k = -5, n = 18, v0 = 1/36 and R = 6,
    4e9).  R is the fixed point of R = _ALIAS_REACH + K log(K + x) / (2 pi),
    reached from R = _ALIAS_REACH by steps that grow R and shrink by a
    factor of about K / (2 pi R)."""
    _upper_half_plane([complex(0.0, v) for v in heights])
    n, v0, degree = abs(n), min(heights), max(0, -k)
    far, previous = _ALIAS_REACH, -math.inf
    while far - previous > 1e-12:
        x = 2.0 * TWO_PI * (far + n * v0)
        previous, far = far, _ALIAS_REACH + degree * math.log(degree + x) / TWO_PI
    alias = 2 * n + far / v0
    reach = max(2 * n + 2, alias if n_max is None else min(alias, n + n_max + 1))
    if reach > _SAMPLES_CAP:
        raise ValueError(f"heights {heights}, mode {n} and n_max {n_max} need {reach:.3g} "
                         f"samples a line, past the cap of {_SAMPLES_CAP}")
    return max(_SAMPLES_FLOOR, 1 << (math.ceil(reach) - 1).bit_length())


def two_height_solve(vals0, vals1, k: int, modes, v0: float, v1: float):
    """(c+, c-, info) for an array of modes of an expansion at infinity
    (width 1, kappa 0), from sample lines at u_j = j / S along Im tau = v0
    and v1: the last axis of vals0 and vals1 holds a line's S samples,
    leading axes stack lines, and c+ and c- are shaped (*leading, len(modes)).

    Mode n's period integral at height v is c+(n) + c-(n) G(v), with
    G(v) = Gamma(1-k, -4 pi n v) for n != 0 and v^{1-k} for n = 0.  It is
    bin n mod S of one np.fft.fft per line, times e^{2 pi n v} / S: the
    trapezoid rule, spectrally accurate for the periodic integrand.  Each
    mode's G pair is evaluated once.  A mode is lost, with c+ = c- = 0 and
    its reason in info["lost"][n], when (1 + G)^2 leaves the double range
    (n v >~ 27 for n > 0 at k = -2) or the two G agree to 1e-8 relative
    (close heights, or both underflowed); its height factor, which may
    overflow, is never formed.  info also holds per mode the condition
    estimate (1 + G)^2 / |G(v1) - G(v0)| (inf when lost), the G values and
    the period integrals.
    """
    modes = np.asarray(modes, dtype=np.int64)
    gram, condition, lost = np.full((2, modes.size), np.nan), np.full(modes.size, math.inf), {}
    for j, n in enumerate(modes.tolist()):
        try:
            g0, g1 = gram[:, j] = [
                _inc_gamma_scaled(1 - k, -4.0 * math.pi * n * v, 0.0) if n else v ** (1 - k)
                for v in (v0, v1)
            ]
            scale = max(abs(g0), abs(g1))
            square = (1.0 + scale) ** 2
        except OverflowError:
            lost[n] = (
                f"Gamma(1-k, -4 pi n v) leaves the double range for n = {n} at "
                f"heights ({v0}, {v1}); lower the heights"
            )
            continue
        if abs(g1 - g0) <= 1e-8 * scale:
            lost[n] = (
                f"G(v0) = {g0:.6e} and G(v1) = {g1:.6e} agree to 1e-8 relative; "
                "move the heights apart (the caller may accept c-(n) = 0)"
            )
        else:
            condition[j] = square / abs(g1 - g0)
    ok = np.isfinite(condition)
    solved, periods = modes[ok], []
    for vals, v in ((vals0, v0), (vals1, v1)):
        samples = np.shape(vals)[-1]
        height = np.exp(2.0 * math.pi * solved * v) / samples
        periods.append(np.fft.fft(vals)[..., solved % samples] * height)
    c_minus = (periods[1] - periods[0]) / (gram[1, ok] - gram[0, ok])
    out = np.zeros((4, *periods[0].shape[:-1], modes.size), dtype=complex)
    out[..., ok] = periods[0] - c_minus * gram[0, ok], c_minus, *periods
    c_plus, c_minus, i0, i1 = out
    info = {"condition": condition, "g0": gram[0], "g1": gram[1], "i0": i0, "i1": i1, "lost": lost}
    return c_plus, c_minus, info


def extract_coefficients(f_eval: Callable, k: int, n: int, samples: int, full_output: bool = False):
    """Recover (c+(n), c-(n)) of an expansion at infinity (width 1, kappa 0)
    from period integrals at the two heights mode_heights(n): the one-mode
    case of two_height_solve, raising IllConditionedError when the heights
    cannot separate the components.

    f_eval must be vectorised: it is called once, on a (2, samples) ndarray
    holding the line at v0 in row 0 and the line at v1 in row 1, and must
    return an array of the same shape.  samples bounds the resolvable
    frequency range: modes are aliased mod samples, so it must exceed the
    bandwidth of f plus |n|; line_samples(n, mode_heights(n), n_max, k=k)
    is that count for a form stored to n_max.
    """
    if samples < 2 * abs(n) + 2:
        raise ValueError(f"samples={samples} cannot resolve mode n={n}")
    v0, v1 = mode_heights(n)
    taus = np.arange(samples) * (1.0 / samples) + 1j * np.array([[v0], [v1]])
    lines = np.asarray(f_eval(taus), dtype=complex)
    if lines.shape != taus.shape:
        raise ValueError("f_eval must return an array shaped like its argument")
    c_plus, c_minus, info = two_height_solve(*lines, k, [n], v0, v1)
    if info["lost"]:
        raise IllConditionedError(info["lost"][n])
    c_plus, c_minus = complex(c_plus[0]), complex(c_minus[0])
    if full_output:
        return (c_plus, c_minus), {key: info[key][0] for key in info if key != "lost"}
    return c_plus, c_minus
