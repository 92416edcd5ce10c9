"""Truncated Fourier expansions of harmonic Maass forms of polynomial growth,
with evaluation, exact termwise derivatives, the operators xi_k, D^{1-k},
R_k, L_k, Delta_k and H, character twists, and numerical coefficient
extraction by period integrals.

Internally every expansion is flattened to a sum of elementary terms

    coef * e^{2 pi i * freq * u} * v^vpow * e^{2 pi * vexp * v},

(freq, vexp rational, vpow integer) which is closed under d/du, d/dv,
multiplication by powers of v, complex conjugation, and slashing by upper
triangular matrices.  All operator identities are therefore checked with
exact term algebra rather than finite differences.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .characters import DirichletCharacter
from .modgroup import RationalMatrix
from .specfun import _inc_gamma_scaled

__all__ = [
    "FormExpansion",
    "HolomorphicQExpansion",
    "TermSeries",
    "IllConditionedError",
    "to_terms",
    "evaluate",
    "evaluate_partials",
    "evaluate_tail_bound",
    "laplacian",
    "shadow",
    "bol",
    "raising",
    "lowering",
    "h_transform",
    "twist",
    "extract_coefficients",
    "growth_constant",
    "save_form",
    "load_form",
    "atomic_write",
]

TWO_PI = 2.0 * math.pi


class IllConditionedError(RuntimeError):
    """Two-height linear system cannot separate c+ from c-."""


# ---------------------------------------------------------------------------
# term algebra


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

    def eval(self, tau):
        """Evaluate at tau (complex scalar or ndarray with Im > 0)."""
        t = np.asarray(tau, dtype=complex)
        if np.any(t.imag <= 0):
            raise ValueError("tau must lie in the upper half-plane")
        u, v = t.real, t.imag
        out = np.zeros_like(t)
        for (f, p, g), c in self.terms.items():
            term = c * np.exp(1j * TWO_PI * float(f) * u + TWO_PI * float(g) * v)
            if p:
                term = term * v ** float(p)
            out = out + term
        if np.isscalar(tau) or np.ndim(tau) == 0:
            return complex(out)
        return out

    def slash_triangular(self, k: int, a, b, d) -> "TermSeries":
        """Exact weight-k slash by [[a, b], [0, d]] with a, d > 0 rational."""
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if a <= 0 or d <= 0:
            raise ValueError("need a > 0 and d > 0")
        pref = float(a * d) ** (k / 2.0) * float(d) ** (-k)
        r = a / d
        items = []
        for (f, p, g), c in self.terms.items():
            phase = cmath.exp(2j * math.pi * float(f * b / d))
            items.append(((f * r, p, g * r), c * pref * phase * float(r) ** p))
        return TermSeries.from_items(items)


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


def jet1(ts: TermSeries, tau: complex) -> Jet1:
    return Jet1(ts.eval(tau), ts.d_u().eval(tau), ts.d_v().eval(tau))


def slash_jet1(ts: TermSeries, k: int, gamma: RationalMatrix, tau) -> Jet1:
    """Value and first partials of f|_k gamma at tau (scalar or ndarray),
    by the chain rule.

    gamma tau is holomorphic, so d/dtau only sees f_tau and d/dtaubar only
    f_taubar, each scaled by m = det/(c tau + d)^2 resp. conj(m).
    """
    a, b = complex(gamma.a), complex(gamma.b)
    c, d = complex(gamma.c), complex(gamma.d)
    det = float(gamma.det)
    w = c * tau + d
    pref = det ** (k / 2.0) * w ** (-k)
    dpref = det ** (k / 2.0) * (-k) * c * w ** (-k - 1)
    m = det / (w * w)
    inner = jet1(ts, (a * tau + b) / w)
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

    def c_minus_at(self, n: int) -> complex:
        """c-(n) for n <= 0."""
        if n == 0:
            return self.c_minus_zero
        return complex(self.c_minus[-n - 1])

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


def to_terms(form: FormExpansion) -> TermSeries:
    """Flatten the expansion to the exact term algebra.

    c-(-m) Gamma(1-k, 4 pi m v) q^{-m} is expanded through the finite sum
    Gamma(nu, x) = Gamma(nu) e^{-x} sum_{l<nu} x^l/l!, which absorbs the
    growing |q^{-m}| = e^{2 pi m v} into a decaying net exponent e^{-2 pi m v}.
    """
    k = form.weight
    nu = 1 - k
    gamma_nu = math.gamma(nu)
    items = []
    for n in range(form.n_max + 1):
        c = form.c_plus[n]
        if c != 0:
            items.append(((Fraction(n), 0, Fraction(-n)), c))
    if form.c_minus_zero != 0:
        items.append(((Fraction(0), nu, Fraction(0)), form.c_minus_zero))
    for m in range(1, form.n_max + 1):
        c = form.c_minus[m - 1]
        if c == 0:
            continue
        fourpim = 4.0 * math.pi * m
        coef_l = gamma_nu
        for l in range(nu):
            items.append(((Fraction(-m), l, Fraction(-m)), c * coef_l))
            coef_l *= fourpim / (l + 1)
    return TermSeries.from_items(items)


def evaluate(form: FormExpansion, tau):
    """f(tau) for tau in the upper half-plane (scalar or ndarray)."""
    return to_terms(form).eval(tau)


def evaluate_partials(form: FormExpansion, tau: complex) -> tuple[complex, complex]:
    """(df/du, df/dv) by exact termwise differentiation."""
    ts = to_terms(form)
    return ts.d_u().eval(tau), ts.d_v().eval(tau)


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
    cp = np.array([psi(n) * form.c_plus[n] for n in range(form.n_max + 1)])
    cm0 = psi(0) * form.c_minus_zero
    cm = np.array([psi(-n) * form.c_minus[n - 1] for n in range(1, form.n_max + 1)])
    return FormExpansion(
        weight=form.weight,
        level=new_level,
        character=new_char,
        alpha=form.alpha,
        n_max=form.n_max,
        c_plus=cp,
        c_minus_zero=cm0,
        c_minus=cm,
    )


# ---------------------------------------------------------------------------
# coefficient extraction


def _sample_line(f_eval: Callable, t: float, v: float, samples: int) -> np.ndarray:
    """f on the equispaced grid u_j = j t / samples along Im tau = v."""
    taus = np.arange(samples) * (t / samples) + 1j * v
    try:
        vals = np.asarray(f_eval(taus), dtype=complex)
        if vals.shape != taus.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([f_eval(complex(z)) for z in taus], dtype=complex)
    return vals


def _mode_from_samples(vals: np.ndarray, t: float, kappa: float, n: int, v: float) -> complex:
    """(1/t) \\int_{tau0}^{tau0+t} f(tau) e^{-2 pi i (n + kappa) tau / t} dtau
    along Im tau = v, by the trapezoid rule on precomputed samples
    (spectrally accurate for the periodic integrand)."""
    samples = len(vals)
    taus = np.arange(samples) * (t / samples) + 1j * v
    phase = np.exp(-2j * math.pi * (n + kappa) * taus / t)
    return complex(np.mean(vals * phase))


def _mode_gram(k: int, t: float, n: int, v: float) -> float:
    """G(v) multiplying c-(n) in the period integral: Gamma(1-k, -4 pi n v/t)
    for n != 0 and v^{1-k} for n = 0."""
    if n == 0:
        return v ** (1 - k)
    return _inc_gamma_scaled(1 - k, -4.0 * math.pi * n * v / t, 0.0)


def _two_height_solve(i0: complex, i1: complex, g0: float, g1: float):
    dg = g1 - g0
    scale = max(abs(g0), abs(g1))
    if abs(dg) <= 1e-8 * scale:
        raise IllConditionedError(
            f"G(v0) = {g0:.6e} and G(v1) = {g1:.6e} agree to 1e-8 relative; "
            "move the heights apart (the caller may accept c-(n) = 0)"
        )
    c_minus = (i1 - i0) / dg
    c_plus = i0 - c_minus * g0
    cond = (1.0 + scale) ** 2 / abs(dg)  # crude 2x2 condition estimate
    return c_plus, c_minus, cond


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
    period integrals at two heights.

    The period integral at height v equals c+(n) + c-(n) G(v) with
    G(v) = Gamma(1-k, -4 pi n v / t) for n != 0 and G(v) = v^{1-k} for n = 0;
    two heights give a 2x2 system.  Raises IllConditionedError when the two
    G values agree to 1e-8 relative (heights too close to separate the
    components; the caller should then accept c-(n) = 0), or when a G value
    overflows the double range (n v / t >~ 56 for n > 0).

    samples bounds the resolvable frequency range: modes are aliased mod
    samples, so it must exceed the bandwidth of f plus |n|.
    """
    if v0 == v1:
        raise IllConditionedError("heights must be distinct")
    if samples < 2 * abs(n) + 2:
        raise ValueError(f"samples={samples} cannot resolve mode n={n}")
    i0 = _mode_from_samples(_sample_line(f_eval, t, v0, samples), t, kappa, n, v0)
    i1 = _mode_from_samples(_sample_line(f_eval, t, v1, samples), t, kappa, n, v1)
    try:
        g0 = _mode_gram(k, t, n, v0)
        g1 = _mode_gram(k, t, n, v1)
    except OverflowError:
        raise IllConditionedError(
            f"Gamma(1-k, -4 pi n v / t) leaves the double range for n = {n} at "
            f"heights ({v0}, {v1}); lower the heights"
        ) from None
    c_plus, c_minus, cond = _two_height_solve(i0, i1, g0, g1)
    if full_output:
        info = {"condition": cond, "g0": g0, "g1": g1, "i0": i0, "i1": i1}
        return (c_plus, c_minus), info
    return c_plus, c_minus
