"""Special functions: complex gamma, integer-order incomplete gamma, the
Mellin kernel W_nu, the one vertical-line rule for Mellin inversion, and
the package's one batch rule and one half-plane rule for points s and tau.

W_nu(s) is the Mellin transform of x |-> Gamma(nu, 2x) e^x.  For a positive
integer nu it collapses to the finite sum

    W_nu(s) = Gamma(nu) * sum_{l=0}^{nu-1} (2^l / l!) Gamma(s + l),

which is what we evaluate; the defining integral is kept in the test suite
as an independent quadrature oracle.  invert_on_line is the only vertical-
line integrator: W_nu inversion and lseries.reconstruct_from_lambda both run
on it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "PoleError",
    "QuadratureError",
    "gamma_complex",
    "inc_gamma",
    "w_nu",
    "gauss_legendre_panels",
    "invert_on_line",
]


class PoleError(ValueError):
    """Raised when gamma is evaluated at a non-positive integer."""


class QuadratureError(RuntimeError):
    """Raised when a quadrature result is not resolved to the requested level."""


# Lanczos coefficients (g = 607/128, 15 terms).  Together with the reflection
# formula this gives close to machine precision on |s| <= 50 away from poles.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        3.3994649984811888699e-5,
        4.6523628927048575665e-5,
        -9.8374475304879564677e-5,
        1.5808870322491248884e-4,
        -2.1026444172410488319e-4,
        2.1743961811521264320e-4,
        -1.6431810653676389022e-4,
        8.4418223983852743293e-5,
        -2.6190838401581408670e-5,
        3.6899182659531622704e-6,
    ]
)


def _batch(x) -> tuple[np.ndarray, tuple | None]:
    """The batch rule: x as a flat complex array, and the token _unbatch
    restores x's shape with (None for a scalar, which is a batch of one)."""
    arr = np.asarray(x, dtype=complex)
    return arr.ravel(), (None if arr.ndim == 0 else arr.shape)


def _unbatch(values, restore: tuple | None, kind: type = complex):
    """A flat batch's values of the given kind (complex or float) in the
    caller's shape: a Python scalar for restore None, else an array."""
    if restore is None:
        return kind(values[0])
    return np.asarray(values, dtype=kind).reshape(restore)


def _upper_half_plane(tau) -> tuple[np.ndarray, tuple | None]:
    """The half-plane rule: _batch(tau), or ValueError unless every point is
    finite with Im tau > 0."""
    flat, restore = _batch(tau)
    if not (np.isfinite(flat).all() and (flat.imag > 0).all()):
        raise ValueError("tau must be finite and lie in the upper half-plane")
    return flat, restore


def _lanczos_gamma(z):
    # valid for Re(z) >= 0.5; z is a complex ndarray
    zm1 = z - 1.0
    acc = np.full_like(z, _LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc = acc + _LANCZOS_C[i] / (zm1 + i)
    t = zm1 + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zm1 + 0.5) * np.exp(-t) * acc


def gamma_complex(s):
    """Gamma(s) for complex s (scalar or ndarray), poles excluded.

    Raises PoleError at non-positive integers.  Accuracy is ~1e-14 relative
    on |s| <= 50.
    """
    arr, restore = _batch(s)
    if np.any((arr.real <= 0.5) & (arr.imag == 0.0) & (arr.real == np.round(arr.real))):
        raise PoleError("gamma evaluated at a non-positive integer")
    out = np.empty_like(arr)
    right = arr.real >= 0.5
    if np.any(right):
        out[right] = _lanczos_gamma(arr[right])
    if np.any(~right):
        z = arr[~right]
        # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1 - z))
        out[~right] = math.pi / (np.sin(math.pi * z) * _lanczos_gamma(1.0 - z))
    return _unbatch(out, restore)


def inc_gamma(nu: int, x: float) -> float:
    """Upper incomplete gamma Gamma(nu, x) for integer nu >= 1 and x >= 0.

    Uses the exact finite sum Gamma(nu) e^{-x} sum_{l<nu} x^l/l!.
    """
    if nu < 1 or nu != int(nu):
        raise ValueError(f"nu must be a positive integer, got {nu}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return _inc_gamma_scaled(int(nu), x, 0.0)


def _inc_gamma_scaled(nu: int, x: float, shift: float) -> float:
    """Gamma(nu, x) * e^{shift}, computed without forming e^{-x} and e^{shift}
    separately.  Valid for any real x (the finite sum is entire in x)."""
    term = 1.0
    acc = 1.0
    for l in range(1, nu):
        term *= x / l
        acc += term
    return math.gamma(nu) * math.exp(shift - x) * acc


def w_nu(nu: int, s):
    """Mellin kernel W_nu(s) = Gamma(nu) sum_{l<nu} (2^l/l!) Gamma(s+l).

    Requires Re(s) > 0 (scalar or ndarray s).
    """
    if nu < 1 or nu != int(nu):
        raise ValueError(f"nu must be a positive integer, got {nu}")
    arr, restore = _batch(s)
    if np.any(arr.real <= 0):
        raise ValueError("w_nu requires Re(s) > 0")
    acc = np.zeros_like(arr)
    coef = 1.0
    for l in range(int(nu)):
        acc = acc + coef * gamma_complex(arr + l)
        coef *= 2.0 / (l + 1)
    return _unbatch(math.gamma(nu) * acc, restore)


@lru_cache(maxsize=None)
def _legendre_rule(nodes: int):
    """The Gauss-Legendre rule on [-1, 1], solved once per node count (read-only)."""
    return tuple(np.broadcast_to(a, a.shape) for a in np.polynomial.legendre.leggauss(nodes))


def _panel_rule(edges: np.ndarray, nodes: int):
    """Composite Gauss-Legendre rule with nodes nodes on each panel between
    consecutive edges; returns (x, w) flattened panel by panel."""
    xg, wg = _legendre_rule(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


def gauss_legendre_panels(lo: float, hi: float, npanels: int, nodes: int):
    """Composite Gauss-Legendre rule on [lo, hi]: npanels equal panels with
    nodes nodes each; returns (x, w) flattened panel by panel."""
    return _panel_rule(np.linspace(lo, hi, npanels + 1), nodes)


_MAX_LINE_PANELS = 1 << 14  # 262,144 nodes; the tests' longest line takes 11,054
_LINE_NODES = 16
# Below |Im s| = 13.5 the line rule's panels start at these heights, each
# 2 max(1, y/4) wide for its start y; from 13.5 on they are _LINE_CAP wide.
_GRADED_STARTS = (0.0, 2.0, 4.0, 6.0, 9.0)
_GRADED_END, _LINE_CAP = 13.5, 6.0
# The Legendre degrees whose decay the witness fits, and the degree it
# extrapolates to: the 16-node rule integrates degree 31 exactly.
_FIT_DEGREES = np.arange(8, _LINE_NODES)
_FIT_TARGET = 2 * _LINE_NODES


@lru_cache(maxsize=None)
def _legendre_tail():
    """(matrix, slope): the (16 x 8) matrix taking a panel's 16 samples to
    its Legendre coefficients of _FIT_DEGREES, and the weights whose dot
    product with 8 values is their least-squares slope in the degree."""
    xg, wg = _legendre_rule(_LINE_NODES)
    vander = np.polynomial.legendre.legvander(xg, _LINE_NODES - 1)[:, _FIT_DEGREES]
    centred = _FIT_DEGREES - _FIT_DEGREES.mean()
    return wg[:, None] * vander * (_FIT_DEGREES + 0.5), centred / np.sum(centred**2)


def _line_starts(x: float, height: float) -> np.ndarray:
    """The line rule's panel starts on [0, height), after refusing, before
    any array is built, a line that needs more than _MAX_LINE_PANELS panels
    on [-height, height]."""
    log_x = abs(math.log(x))
    if log_x > 1:
        per_side = height * log_x
    else:
        per_side = sum(y < height for y in _GRADED_STARTS)
        per_side += max(0.0, (height - _GRADED_END) / _LINE_CAP)
    if 2 * per_side > _MAX_LINE_PANELS:
        raise ValueError(
            f"height {height} at x = {x} needs {2 * per_side:.4g} > {_MAX_LINE_PANELS} panels"
        )
    n = math.ceil(per_side)
    if log_x > 1:
        return np.arange(n) / log_x
    outer = _GRADED_END + _LINE_CAP * np.arange(max(0, n - len(_GRADED_STARTS)))
    return np.concatenate([_GRADED_STARTS, outer])[:n]


def invert_on_line(fn, x: float, abscissa: float, height: float, full_output: bool = False):
    """(1/2 pi i) int_{abscissa - i height}^{abscissa + i height} x^{-s} fn(s) ds.

    The one vertical-line rule: 16-node Gauss-Legendre panels, built
    outward from Im s = 0 and mirrored.  For |log x| <= 1 a panel starting
    at |Im s| = y is min(2 max(1, y/4), 6) wide, since the poles of the
    integrands (Gamma kernels, Lambda) lie on the real axis and a panel may
    widen with its distance from them: 20 panels, 320 nodes, at height 40,
    the same nodes for every such x.  For |log x| > 1 every panel is
    1/|log x| wide, so x^{-i Im s} turns one radian across it.  The last
    panel ends at the height.  fn must be vectorised: it is called once, on
    all nodes, and its result is broadcast to their shape, so a constant
    works too.  With fn = W_nu, abscissa 2 and height 200 this recovers
    Gamma(nu, 2x) e^x to ~1e-14 for x in [0.3, 3];
    lseries.reconstruct_from_lambda runs on it with fn = Lambda.

    The witness reads the same samples.  Per panel, the Legendre
    coefficients of degrees 8-15 of the integrand x^{-s} fn(s) (their
    running maximum from the top degree down) are fitted with a geometric
    decay, which is extrapolated to degree 32, where the 16-node rule's
    error starts; twice that (the rule's weights sum to 2) times the
    panel's half-width, summed over the panels, plus the rounding floor
    eps sum |w x^{-s} fn(s)|, all over 2 pi, is the witness.  It covers the
    quadrature on [-height, height], not the integral past the height.

    Raises ValueError, before fn is called, for a line that needs more than
    _MAX_LINE_PANELS panels, and QuadratureError when fn is not finite at a
    node or the witness is not <= 1e-4 |value| + 1e-15.  With
    full_output=True returns (value, info), where info carries that witness
    and a tail_scale, |fn| at the top node times x^{-abscissa}.
    """
    for name, value, positive in (("x", x, 1), ("abscissa", abscissa, 0), ("height", height, 1)):
        if not math.isfinite(value) or (positive and value <= 0):
            raise ValueError(f"{name} must be {'> 0 and ' if positive else ''}finite, got {value}")
    upper = np.append(_line_starts(x, height), height)
    edges = np.concatenate([-upper[:0:-1], upper])
    ys, ws = _panel_rule(edges, _LINE_NODES)
    s = abscissa + 1j * ys
    vals = np.broadcast_to(np.asarray(fn(s), dtype=complex), s.shape)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = np.argmin(finite)
        raise QuadratureError(f"line integral not resolved: fn is {vals[bad]} at s = {s[bad]}")
    integrand = x ** (-s) * vals
    value = complex(np.sum(ws * integrand) / (2.0 * math.pi))
    to_coefficients, slope_weights = _legendre_tail()
    coefficients = np.abs(integrand.reshape(-1, _LINE_NODES) @ to_coefficients)
    envelope = np.maximum.accumulate(coefficients[:, ::-1], axis=1)[:, ::-1]
    logs = np.log(envelope + np.finfo(float).tiny)
    reach = _FIT_TARGET - _FIT_DEGREES.mean()
    at_target = np.exp(logs.mean(axis=1) + (logs @ slope_weights) * reach)
    half = 0.5 * (edges[1:] - edges[:-1])
    rounding = np.finfo(float).eps * np.sum(np.abs(ws * integrand))
    witness = float(2.0 * np.sum(half * at_target) + rounding) / (2.0 * math.pi)
    tol = 1e-4 * abs(value) + 1e-15
    if not witness <= tol:
        raise QuadratureError(f"line integral not resolved: witness {witness:.3e} > {tol:.3e}")
    if full_output:
        return value, {"witness": witness, "tail_scale": abs(vals[-1]) * x ** (-abscissa)}
    return value
