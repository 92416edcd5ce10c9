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


def gauss_legendre_panels(lo: float, hi: float, npanels: int, nodes: int):
    """Composite Gauss-Legendre rule on [lo, hi]: npanels equal panels with
    nodes nodes each; returns (x, w) flattened panel by panel."""
    edges = np.linspace(lo, hi, npanels + 1)
    xg, wg = _legendre_rule(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


_MAX_LINE_PANELS = 1 << 14  # 294,912 nodes; the tests' longest line takes 11,053


def invert_on_line(fn, x: float, abscissa: float, height: float, full_output: bool = False):
    """(1/2 pi i) int_{abscissa - i height}^{abscissa + i height} x^{-s} fn(s) ds.

    The one vertical-line rule: Gauss-Legendre panels of width
    <= 1 / max(1, |log x|) with 12 nodes each, refined against the same
    panels with 6 nodes; the width keeps the turn of x^{-iy} across a panel
    within reach of the 6-node rule.  fn must be vectorised: it is called
    once, on the nodes of both rules together, and its result is broadcast
    to their shape, so a constant works too.  With
    fn = W_nu, abscissa 2 and height 200 this recovers Gamma(nu, 2x) e^x to
    ~1e-6 absolute for x in [0.3, 3]; lseries.reconstruct_from_lambda runs
    on it with fn = Lambda.

    Raises ValueError, before fn is called, for a line that needs more than
    _MAX_LINE_PANELS panels, and QuadratureError when the refinement moves
    the value by more than 1e-4 |value| + 1e-15.  With full_output=True
    returns (value, info), where info carries that refinement_error and a
    tail_scale, |fn| at the top node times x^{-abscissa}.
    """
    for name, value, positive in (("x", x, 1), ("abscissa", abscissa, 0), ("height", height, 1)):
        if not math.isfinite(value) or (positive and value <= 0):
            raise ValueError(f"{name} must be {'> 0 and ' if positive else ''}finite, got {value}")
    need = 2.0 * height * max(1.0, abs(math.log(x)))
    if need > _MAX_LINE_PANELS:
        raise ValueError(f"height {height} at x = {x} needs {need:.4g} > {_MAX_LINE_PANELS} panels")
    npanels = max(2, math.ceil(need))
    ys, ws = gauss_legendre_panels(-height, height, npanels, 12)
    ys2, ws2 = gauss_legendre_panels(-height, height, npanels, 6)
    s, s2 = abscissa + 1j * ys, abscissa + 1j * ys2
    nodes = np.concatenate([s, s2])
    vals = np.broadcast_to(np.asarray(fn(nodes), dtype=complex), nodes.shape)
    value = complex(np.sum(ws * (x ** (-s) * vals[: len(ys)])) / (2.0 * math.pi))
    coarse = complex(np.sum(ws2 * x ** (-s2) * vals[len(ys) :]) / (2.0 * math.pi))
    est = abs(value - coarse)
    if est > 1e-4 * abs(value) + 1e-15:
        raise QuadratureError(
            f"line integral not resolved: refinement moves the value by {est:.3e}"
        )
    if full_output:
        tail = abs(vals[len(ys) - 1]) * x ** (-abscissa)
        return value, {"refinement_error": est, "tail_scale": tail}
    return value
