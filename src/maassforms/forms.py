"""Truncated Fourier expansions of harmonic Maass forms of polynomial growth,
with evaluation, exact termwise derivatives, the operators xi_k, D^{1-k},
R_k, L_k, Delta_k and H, character twists, and numerical coefficient
extraction by period integrals.

Every expansion is a sum of elementary terms

    coef * e^{2 pi i * freq * u} * v^vpow * e^{2 pi * vexp * v},

(freq, vexp rational, vpow integer), closed under d/du, d/dv, multiplication
by powers of v, complex conjugation, and slashing by upper triangular
matrices, so all operator identities are checked with exact term algebra
rather than finite differences.  A form's TermSeries (to_terms) takes its
evaluator arrays straight from the coefficient arrays and makes the exact
Fraction-keyed dict of its terms only when an operator asks for it.

TermSeries.eval is the one numeric evaluator of forms: every caller (evaluate,
the Fricke pairs of lseries, the CLI, the operator identities) goes through
it.  It keeps the terms as float arrays, one row per distinct (freq, vexp) and
one column per vpow, and evaluates fixed blocks of points against fixed chunks
of rows, each pair with one real np.exp and a few cos/sin columns;
TermSeries.jet takes the first partials from the same exponentials.  Every
block x chunk step writes into one fixed per-thread workspace, so memory stays
bounded whatever the number of points or terms, a call allocates no large
temporaries (whose release and re-fault would cost time that varies from run
to run), and a point's value does not depend on the batch it arrives in.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .characters import DirichletCharacter
from .modgroup import RationalMatrix, slash_factor
from .specfun import _inc_gamma_scaled

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
    "two_height_solve",
    "extract_coefficients",
    "growth_constant",
    "save_form",
    "load_form",
    "atomic_write",
]

TWO_PI = 2.0 * math.pi
# TermSeries evaluation blocks: points per block and (freq, vexp) rows per
# chunk.  Fixed, so that memory stays bounded (one complex block x chunk
# array is 256 kB) and a point's value does not depend on its batch.
_POINT_BLOCK = 64
_TERM_CHUNK = 256
# frequencies per entry of the low phase table (see TermSeries._sums)
_PHASE_STEP = 16
# e^{2 pi vexp v} below e^{_EXP_FLOOR} (about 1e-304) is taken as 0: the
# term is then below 1e-304 times its coefficient, and the subnormal
# arithmetic it would cost is slow
_EXP_FLOOR = -700.0


class IllConditionedError(RuntimeError):
    """Two-height linear system cannot separate c+ from c-."""


# ---------------------------------------------------------------------------
# term algebra


def _cis(theta: np.ndarray) -> np.ndarray:
    """cos theta + i sin theta."""
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


class _Workspace(threading.local):
    """Scratch arrays of one block x chunk each, made on a thread's first
    evaluation and reused by all its later ones (about 1.8 MB per thread)."""

    def __init__(self):
        size = _POINT_BLOCK * _TERM_CHUNK
        self.real = np.empty((2, size))
        self.mask = np.empty(size, dtype=bool)
        self.cplx = np.empty((6, size), dtype=complex)

    def views(self, shape):
        """The arrays as C-contiguous views of the given shape, laid out as
        fresh arrays of that shape would be."""
        n = shape[0] * shape[1]
        return (*(a[:n].reshape(shape) for a in self.real),
                self.mask[:n].reshape(shape),
                *(a[:n].reshape(shape) for a in self.cplx))


_WORK = _Workspace()


@dataclass(frozen=True)
class TermSeries:
    """Finite sum of terms coef * e^{2 pi i freq u} * v^vpow * e^{2 pi vexp v}.

    Stored as a dict (freq, vpow, vexp) -> coef with rational freq/vexp, so
    derivatives and conjugation are exact.
    """

    terms: dict = field(default_factory=dict)

    @staticmethod
    def from_items(items) -> "TermSeries":
        acc: dict = {}
        for (freq, vpow, vexp), coef in items:
            key = (Fraction(freq), int(vpow), Fraction(vexp))
            acc[key] = acc.get(key, 0j) + complex(coef)
        return TermSeries({k: c for k, c in acc.items() if c != 0})

    def __add__(self, other: "TermSeries") -> "TermSeries":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            acc[k] = acc.get(k, 0j) + c
        return TermSeries({k: c for k, c in acc.items() if c != 0})

    def scale(self, z: complex) -> "TermSeries":
        return TermSeries({k: z * c for k, c in self.terms.items()})

    def d_u(self) -> "TermSeries":
        return TermSeries.from_items(
            ((f, p, g), c * (2j * math.pi * f)) for (f, p, g), c in self.terms.items()
        )

    def d_v(self) -> "TermSeries":
        items = []
        for (f, p, g), c in self.terms.items():
            if p != 0:
                items.append(((f, p - 1, g), c * p))
            if g != 0:
                items.append(((f, p, g), c * (TWO_PI * float(g))))
        return TermSeries.from_items(items)

    def d_tau(self) -> "TermSeries":
        return (self.d_u() + self.d_v().scale(-1j)).scale(0.5)

    def d_taubar(self) -> "TermSeries":
        return (self.d_u() + self.d_v().scale(1j)).scale(0.5)

    def mul_v(self, j: int) -> "TermSeries":
        return TermSeries({(f, p + j, g): c for (f, p, g), c in self.terms.items()})

    def conjugate(self) -> "TermSeries":
        return TermSeries.from_items(
            ((-f, p, g), c.conjugate()) for (f, p, g), c in self.terms.items()
        )

    def _term_rows(self):
        """The row producer of the dict: each distinct (freq, vexp), in order of
        first appearance, as integer pairs (num, den); per term its row, vpow and coefficient."""
        rows: dict = {}  # (freq, vexp) as integer pairs, which hash fast -> row
        row = [rows.setdefault((f.numerator, f.denominator, g.numerator, g.denominator), len(rows))
               for f, _, g in self.terms]
        keys = np.array(list(rows), dtype=np.int64).reshape(-1, 4)
        return keys, row, [p for _, p, _ in self.terms], list(self.terms.values())

    @cached_property
    def _arrays(self):
        """The rows of _term_rows as the evaluator's float arrays: 2 pi freq
        and 2 pi vexp per row, the distinct vpows, the vpows x rows
        coefficient matrix, the phase split freq = (hi _PHASE_STEP + lo) / den
        with |lo| <= _PHASE_STEP / 2, and per chunk of _TERM_CHUNK rows its
        largest 2 pi vexp, the vpow columns it uses and its table of hi
        frequencies."""
        keys, row, vpow, values = self._term_rows()
        pows, col = np.unique(np.asarray(vpow, dtype=np.int64), return_inverse=True)
        coef = np.zeros((pows.size, len(keys)), dtype=complex)
        coef[col, np.asarray(row, dtype=np.intp)] = values
        fn, fd, gn, gd = keys.T
        den = math.lcm(*np.unique(fd).tolist())
        if den * int(np.abs(fn).max(initial=0)) >= 2**62:
            raise ValueError("frequencies too fine for the evaluator's phase tables")
        half = _PHASE_STEP // 2
        shifted = fn * (den // fd) + half
        w_lo = TWO_PI * np.arange(-half, half) / den
        wg = TWO_PI * (gn / gd)
        chunks = []
        for lo in range(0, len(keys), _TERM_CHUNK):
            hi = min(lo + _TERM_CHUNK, len(keys))
            tops, hi_idx = np.unique(shifted[lo:hi] // _PHASE_STEP, return_inverse=True)
            cols = np.flatnonzero(coef[:, lo:hi].any(axis=1)).tolist()
            w_hi = TWO_PI * (tops * _PHASE_STEP / den)
            chunks.append((lo, hi, wg[lo:hi].max(), cols, w_hi, hi_idx))
        lo_idx = shifted % _PHASE_STEP
        return TWO_PI * (fn / fd), wg, pows.astype(float), coef, den, w_lo, lo_idx, chunks

    def _sums(self, tau, partials: bool):
        """Value (and with partials, d/du and d/dv) at tau, each a flat array
        over the points, and the shape to restore (None for a scalar tau).

        Each block of _POINT_BLOCK points meets each chunk of _TERM_CHUNK
        rows in one real np.exp of 2 pi vexp v.  The phase e^{2 pi i freq u}
        is a product of two table entries, e^{2 pi i hi _PHASE_STEP u / den}
        and e^{2 pi i lo u / den}, so a chunk of consecutive frequencies
        takes a few cos/sin columns rather than one per row; on Re tau = 0
        it is 1 and skipped.  A row's coefficient is a polynomial in v over
        the chunk's vpow columns.  Every point's sums run over the chunks in
        the same order, each chunk reduced by .sum(axis=1), so a point's
        value does not depend on the batch it arrives in.
        """
        t = np.asarray(tau, dtype=complex)
        if np.any(t.imag <= 0):
            raise ValueError("tau must lie in the upper half-plane")
        flat = t.reshape(-1)
        wf, wg, pows, coef, den, w_lo, lo_idx, chunks = self._arrays
        outs = [np.zeros(flat.shape, dtype=complex) for _ in range(3 if partials else 1)]
        for a in range(0, flat.size, _POINT_BLOCK):
            block = slice(a, a + _POINT_BLOCK)
            u = flat.real[block, None]
            v = flat.imag[block, None]
            on_axis = not np.any(u)
            if not on_axis:
                u = u - den * np.round(u / den)  # a period of every phase, exactly
                lo_tab = _cis(u * w_lo)
            vp = v.T ** pows[:, None]  # (vpows, points), one contiguous row per vpow
            if partials:
                dvp = pows[:, None] * v.T ** (pows[:, None] - 1.0)
            v_ends = (v.min(), v.max())
            for lo, hi, g_top, cols, w_hi, hi_idx in chunks:
                if max(x * g_top for x in v_ends) < _EXP_FLOOR:
                    continue  # every factor below is 0: the chunk adds exact zeros
                x, ex, keep, e, gath, ec, ecv, term, dterm = _WORK.views((v.size, hi - lo))
                np.multiply(v, wg[lo:hi], out=x)
                np.greater_equal(x, _EXP_FLOOR, out=keep)
                ex.fill(0.0)
                np.exp(x, out=ex, where=keep)
                if on_axis:
                    np.copyto(e, ex)
                else:
                    np.take(_cis(u * w_hi), hi_idx, axis=1, out=gath, mode="clip")
                    np.multiply(ex, gath, out=e)
                    np.take(lo_tab, lo_idx[lo:hi], axis=1, out=gath, mode="clip")
                    np.multiply(e, gath, out=e)
                # c e v^vpow per vpow column, multiplied in the order of a lone
                # term; dterm is the v^vpow derivative part of d/dv
                term.fill(0.0)
                if partials:
                    dterm.fill(0.0)
                for j in cols:
                    np.multiply(e, coef[j, lo:hi], out=ec)
                    if pows[j]:
                        term += np.multiply(ec, vp[j, :, None], out=ecv)
                        if partials:
                            dterm += np.multiply(ec, dvp[j, :, None], out=ecv)
                    else:
                        term += ec
                outs[0][block] += term.sum(axis=1)
                if partials:
                    outs[1][block] += 1j * np.multiply(term, wf[lo:hi], out=ec).sum(axis=1)
                    dterm += np.multiply(term, wg[lo:hi], out=ec)
                    outs[2][block] += dterm.sum(axis=1)
        return outs, (None if t.ndim == 0 else t.shape)

    def eval(self, tau):
        """Evaluate at tau (complex scalar or ndarray with Im > 0); a scalar
        is a batch of one and returns a Python complex."""
        (out,), shape = self._sums(tau, False)
        return complex(out[0]) if shape is None else out.reshape(shape)

    def jet(self, tau):
        """(f, df/du, df/dv) at tau (complex scalar or ndarray with Im > 0),
        from the exponentials of eval: d/du multiplies a term by 2 pi i freq
        and d/dv by vpow/v + 2 pi vexp."""
        outs, shape = self._sums(tau, True)
        if shape is None:
            return tuple(complex(x[0]) for x in outs)
        return tuple(x.reshape(shape) for x in outs)


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


def bol_op(ts: TermSeries, k: int) -> TermSeries:
    """D^{1-k} with D = (1/2 pi i) d/dtau, iterated termwise."""
    out = ts
    for _ in range(1 - k):
        out = out.d_tau().scale(1.0 / (2j * math.pi))
    return out


# slashed 1-jets -------------------------------------------------------------


@dataclass(frozen=True)
class Jet1:
    f: complex
    fu: complex
    fv: complex

    @property
    def ftau(self) -> complex:
        return 0.5 * (self.fu - 1j * self.fv)

    @property
    def ftaubar(self) -> complex:
        return 0.5 * (self.fu + 1j * self.fv)


def jet1(ts: TermSeries, tau) -> Jet1:
    """Value and first partials of ts at tau (scalar or ndarray), from one
    TermSeries.jet pass: no derivative series is built."""
    return Jet1(*ts.jet(tau))


def slash_jet1(ts: TermSeries, k: int, gamma: RationalMatrix, tau) -> Jet1:
    """Value and first partials of f|_k gamma at tau (scalar or ndarray),
    by the chain rule from jet1 at gamma tau.

    gamma tau is holomorphic, so d/dtau only sees f_tau and d/dtaubar only
    f_taubar, each scaled by m = det/(c tau + d)^2 resp. conj(m).
    """
    c = complex(gamma.c)
    det = float(gamma.det)
    w = c * tau + complex(gamma.d)
    pref = slash_factor(k, gamma, tau)
    # d/dtau of the slash factor
    dpref = det ** (k / 2.0) * (-k) * c * w ** (-k - 1)
    m = det / (w * w)
    inner = jet1(ts, gamma.apply(tau))
    val = pref * inner.f
    ftau = dpref * inner.f + pref * inner.ftau * m
    ftaubar = pref * inner.ftaubar * np.conjugate(m)
    return Jet1(val, ftau + ftaubar, 1j * (ftau - ftaubar))


def h_from_jet(j: Jet1, k: int, v: float) -> complex:
    return 2j * v * j.fu + k * j.f


# ---------------------------------------------------------------------------
# form expansions


@dataclass(frozen=True)
class FormExpansion:
    """Truncated Fourier data of a weight-k harmonic Maass form of polynomial
    growth: holomorphic coefficients c+(0..n_max), the v^{1-k} datum c-(0),
    and nonholomorphic coefficients c-(-1..-n_max) stored by |n| - 1.
    """

    weight: int
    level: int
    character: DirichletCharacter
    alpha: float
    n_max: int
    c_plus: np.ndarray
    c_minus_zero: complex
    c_minus: np.ndarray

    def __post_init__(self):
        if self.weight > -1:
            raise ValueError("weight must be a negative integer")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        cp = np.asarray(self.c_plus, dtype=complex).copy()
        cm = np.asarray(self.c_minus, dtype=complex).copy()
        if cp.shape != (self.n_max + 1,):
            raise ValueError(f"c_plus must have length n_max+1 = {self.n_max + 1}")
        if cm.shape != (self.n_max,):
            raise ValueError(f"c_minus must have length n_max = {self.n_max}")
        cp.setflags(write=False)
        cm.setflags(write=False)
        object.__setattr__(self, "c_plus", cp)
        object.__setattr__(self, "c_minus", cm)
        object.__setattr__(self, "c_minus_zero", complex(self.c_minus_zero))

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
        return FormExpansion(
            weight=int(data["weight"]),
            level=int(data["level"]),
            character=DirichletCharacter.from_json(data["character"]),
            alpha=float(data["alpha"]),
            n_max=int(data["n_max"]),
            c_plus=np.array([complex(re, im) for re, im in data["c_plus"]]),
            c_minus_zero=complex(*data["c_minus_zero"]),
            c_minus=np.array([complex(re, im) for re, im in data["c_minus"]]),
        )


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
    """Write the form as JSON, atomically.

    Floats are serialized by repr, so a load reproduces the in-memory values
    bit for bit.
    """
    atomic_write(path, json.dumps(form.to_json(), indent=1) + "\n")


def load_form(path) -> FormExpansion:
    with open(path, encoding="utf-8") as fh:
        return FormExpansion.from_json(json.load(fh))


@dataclass(frozen=True)
class HolomorphicQExpansion:
    """Truncated q-expansion sum c(n) q^n, the image space of xi_k and D^{1-k}."""

    weight: int
    level: int
    coefficients: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=complex).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    def evaluate(self, tau):
        t = np.asarray(tau, dtype=complex)
        q = np.exp(2j * math.pi * t)
        out = np.zeros_like(t)
        for n in range(len(self.coefficients) - 1, -1, -1):
            out = out * q + self.coefficients[n]
        if np.isscalar(tau) or np.ndim(tau) == 0:
            return complex(out)
        return out

    def to_json(self) -> dict:
        return {
            "weight": self.weight,
            "level": self.level,
            "coefficients": [[z.real, z.imag] for z in self.coefficients],
        }


class _FormSeries(TermSeries):
    """The TermSeries of a form (see to_terms): rows from its coefficients, dict on demand."""

    def __init__(self, form: FormExpansion):
        object.__setattr__(self, "form", form)

    @cached_property
    def terms(self) -> dict:
        keys, row, vpow, values = self._term_rows()
        items = zip(keys[row].tolist(), vpow.tolist(), values.tolist())
        return {(Fraction(f), p, Fraction(g)): c for (f, _, g, _), p, c in items}

    def _term_rows(self):
        """The row producer of the form, terms in dict order: c+(n) != 0, c-(0) != 0, then
        c-(-m) Gamma(nu) (4 pi m)^l / l! by m and l < nu, each formed as for a lone term.
        A run of one freq is a row, and c-(0) joins the row (0, 0) of a nonzero c+(0)."""
        form, nu = self.form, 1 - self.form.weight
        fourpim = 4.0 * math.pi * np.arange(1, form.n_max + 1)
        steps = [np.full(form.n_max, math.gamma(nu))] + [fourpim / l for l in range(1, nu)]
        z = form.c_minus[:, None] * np.cumprod(np.stack(steps, axis=1), axis=1)
        keep = (z != 0) & (form.c_minus != 0)[:, None]
        n, (m, l) = np.flatnonzero(form.c_plus), np.nonzero(keep)
        c0 = np.zeros(int(form.c_minus_zero != 0), dtype=np.int64)
        freq, vpow = np.concatenate([n, c0, -1 - m]), np.concatenate([0 * n, c0 + nu, l])
        joins = (freq == 0) & (vpow > 0) & (form.c_plus[0] != 0)
        new = (np.diff(freq, prepend=freq[:1] + 1) != 0) & ~joins
        one = np.ones_like(freq)
        keys = np.stack([freq, one, np.concatenate([-n, freq[n.size :]]), one], axis=1)[new]
        values = np.concatenate([form.c_plus[n], [form.c_minus_zero] * c0.size, z[keep]])
        return keys, np.where(joins, 0, np.cumsum(new) - 1), vpow, values


def to_terms(form: FormExpansion) -> TermSeries:
    """The expansion as a TermSeries: evaluator arrays straight from the
    coefficient arrays, and the exact dict only on demand.

    c-(-m) Gamma(1-k, 4 pi m v) q^{-m} is expanded through the finite sum
    Gamma(nu, x) = Gamma(nu) e^{-x} sum_{l<nu} x^l/l!, which absorbs the
    growing |q^{-m}| = e^{2 pi m v} into a decaying net exponent e^{-2 pi m v}.
    """
    return _FormSeries(form)


def evaluate(form: FormExpansion, tau):
    """f(tau) for tau in the upper half-plane (scalar or ndarray)."""
    return to_terms(form).eval(tau)


def evaluate_tail_bound(form: FormExpansion, v: float, constant: float | None = None) -> float:
    """Bound on the dropped tail sum_{|n| > n_max} at height v, from the
    growth metadata |c(n)| <= C n^alpha and the closed incomplete-gamma sum."""
    if v <= 0:
        raise ValueError("v must be > 0")
    c = growth_constant(form) if constant is None else constant
    k, a, m0 = form.weight, form.alpha, form.n_max + 1
    r = math.exp(-TWO_PI * v)
    total = 0.0
    term_bound = None
    for n in range(m0, m0 + 400):
        gam = _inc_gamma_scaled(1 - k, 4 * math.pi * n * v, TWO_PI * n * v)
        term_bound = c * n**a * (math.exp(-TWO_PI * n * v) + gam)
        total += term_bound
        if term_bound < 1e-300:
            return total
    # geometric remainder with the crude ratio r < 1
    return total + term_bound * r / (1.0 - r)


def growth_constant(form: FormExpansion) -> float:
    """Least C with |c+-(n)| <= C max(|n|,1)^alpha over the stored range."""
    a = form.alpha
    c = max(abs(form.c_plus[0]), abs(form.c_minus_zero))
    for n in range(1, form.n_max + 1):
        scale = float(n) ** a
        c = max(c, abs(form.c_plus[n]) / scale, abs(form.c_minus[n - 1]) / scale)
    return float(c)


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
    """
    if not psi.is_primitive:
        raise ValueError("twisting character must be primitive")
    m = psi.modulus
    chi = form.character
    new_level = math.lcm(form.level, m * m, m * chi.conductor)
    new_char = (chi * (psi * psi)).induce(new_level)
    psi_n = np.array(psi._values)[np.arange(-form.n_max, form.n_max + 1) % m]
    c = np.concatenate([form.c_minus[::-1], form.c_plus])  # c at n = -n_max..n_max
    # each product rounded as for lone scalars: numpy's complex array loop may fuse (FMA)
    prod = np.empty_like(c)
    prod.real = psi_n.real * c.real - psi_n.imag * c.imag
    prod.imag = psi_n.real * c.imag + psi_n.imag * c.real
    return FormExpansion(
        weight=form.weight,
        level=new_level,
        character=new_char,
        alpha=form.alpha,
        n_max=form.n_max,
        c_plus=prod[form.n_max :],
        c_minus_zero=psi(0) * form.c_minus_zero,
        c_minus=prod[form.n_max - 1 :: -1],
    )


# ---------------------------------------------------------------------------
# coefficient extraction


def two_height_solve(vals0, vals1, k: int, t: float, kappa: float, modes, v0: float, v1: float):
    """(c+, c-, info) for an array of modes of a width-t, parameter-kappa
    expansion, from sample lines at u_j = j t / S along Im tau = v0 and v1:
    the last axis of vals0 and vals1 holds a line's S samples, leading axes
    stack lines, and c+ and c- are shaped (*leading, len(modes)).

    Mode n's period integral at height v is c+(n) + c-(n) G(v), with
    G(v) = Gamma(1-k, -4 pi n v / t) for n != 0 and v^{1-k} for n = 0.  It
    is bin n mod S of one np.fft.fft per line of the kappa-shifted samples,
    times e^{2 pi (n + kappa) v / t} / S: the trapezoid rule, spectrally
    accurate for the periodic integrand.  Each mode's G pair is evaluated
    once.  A mode is lost, with c+ = c- = 0 and its reason in
    info["lost"][n], when (1 + G)^2 leaves the double range (n v / t >~ 27
    for n > 0 at k = -2) or the two G agree to 1e-8 relative (close heights,
    or both underflowed); its height factor, which may overflow, is never
    formed.  info also holds per mode the condition estimate
    (1 + G)^2 / |G(v1) - G(v0)| (inf when lost), the G values and the
    period integrals.
    """
    modes = np.asarray(modes, dtype=np.int64)
    gram, condition, lost = np.full((2, modes.size), np.nan), np.full(modes.size, math.inf), {}
    for j, n in enumerate(modes.tolist()):
        try:
            g0, g1 = gram[:, j] = [
                _inc_gamma_scaled(1 - k, -4.0 * math.pi * n * v / t, 0.0) if n else v ** (1 - k)
                for v in (v0, v1)
            ]
            scale = max(abs(g0), abs(g1))
            square = (1.0 + scale) ** 2
        except OverflowError:
            lost[n] = (
                f"Gamma(1-k, -4 pi n v / t) leaves the double range for n = {n} at "
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
        shift = np.exp(-2j * math.pi * kappa * np.arange(samples) / samples) if kappa else 1.0
        height = np.exp(2.0 * math.pi * (solved + kappa) * v / t) / samples
        periods.append(np.fft.fft(np.asarray(vals) * shift)[..., solved % samples] * height)
    c_minus = (periods[1] - periods[0]) / (gram[1, ok] - gram[0, ok])
    out = np.zeros((4, *periods[0].shape[:-1], modes.size), dtype=complex)
    out[..., ok] = periods[0] - c_minus * gram[0, ok], c_minus, *periods
    c_plus, c_minus, i0, i1 = out
    info = {"condition": condition, "g0": gram[0], "g1": gram[1], "i0": i0, "i1": i1, "lost": lost}
    return c_plus, c_minus, info


def extract_coefficients(
    f_eval: Callable,
    k: int,
    t: float,
    kappa: float,
    n: int,
    v0: float,
    v1: float,
    samples: int = 256,
    full_output: bool = False,
):
    """Recover (c+(n), c-(n)) of a width-t, parameter-kappa expansion from
    period integrals at two heights: the one-mode case of two_height_solve,
    raising IllConditionedError when the heights cannot separate the
    components.

    f_eval must be vectorised: it is called once per height, on an ndarray of
    samples points, and must return an array of the same shape.  samples
    bounds the resolvable frequency range: modes are aliased mod samples, so
    it must exceed the bandwidth of f plus |n|.
    """
    if samples < 2 * abs(n) + 2:
        raise ValueError(f"samples={samples} cannot resolve mode n={n}")
    taus = [np.arange(samples) * (t / samples) + 1j * v for v in (v0, v1)]
    lines = [np.asarray(f_eval(z), dtype=complex) for z in taus]
    if any(vals.shape != z.shape for vals, z in zip(lines, taus)):
        raise ValueError("f_eval must return an array shaped like its argument")
    c_plus, c_minus, info = two_height_solve(*lines, k, t, kappa, [n], v0, v1)
    if info["lost"]:
        raise IllConditionedError(info["lost"][n])
    c_plus, c_minus = complex(c_plus[0]), complex(c_minus[0])
    if full_output:
        return (c_plus, c_minus), {key: info[key][0] for key in info if key != "lost"}
    return c_plus, c_minus
