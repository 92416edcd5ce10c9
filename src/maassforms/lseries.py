"""Completed Dirichlet series attached to polynomial-growth expansions.

L+(f,s) and L-(f,s) are the coefficient Dirichlet series; the completed
combinations

    Lambda_N = (sqrt(N)/2pi)^s [Gamma(s) L+ + W_{1-k}(s) L-]
    Xi_N     = (sqrt(N)/2pi)^s [Gamma(s+1) L+ - W_{1-k}(s+1) L-]
    Omega_N  = -2 Xi_N + k Lambda_N

satisfy, for a Fricke pair g = f|_k omega(N), the functional equations
Lambda_N(f,s) = i^k Lambda_N(g,k-s) and Omega_N(f,s) = -i^k Omega_N(g,k-s).
Analytic continuation is one incomplete Mellin integral of f(i t / sqrt N)
over [1/T, T] (below t = 1 it reads g at the reciprocal height), with the
four simple pole terms restored explicitly; Lambda and Omega are two rows of
one integrand evaluator.  The converse direction inverts Lambda along a
vertical line with specfun.invert_on_line, the rule that also inverts W_nu.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import forms
from .characters import DirichletCharacter, _prime_factors, c_psi
from .forms import FormExpansion, growth_constant, to_terms, twist
from .modgroup import fricke, slash
from .specfun import _batch, _unbatch, gamma_complex, gauss_legendre_panels, invert_on_line, w_nu

__all__ = [
    "UncertifiedRegionWarning",
    "FrickePair",
    "analytic_pair",
    "ResidualReport",
    "ConductorSet",
    "l_plus",
    "l_minus",
    "lambda_definitional",
    "xi_definitional",
    "omega_definitional",
    "lambda_star",
    "lambda_continued",
    "omega_star",
    "omega_continued",
    "fe_residuals",
    "twisted_lambda",
    "twisted_omega",
    "reconstruct_from_lambda",
    "verification_set",
]


class UncertifiedRegionWarning(UserWarning):
    """Truncated Dirichlet sum requested outside its certified half-plane."""


def _i_pow(k: int) -> complex:
    return (1j) ** (k % 4)


# ---------------------------------------------------------------------------
# definitional series


def _dirichlet_sum(coeffs: np.ndarray, s: complex) -> complex:
    n = np.arange(1, len(coeffs) + 1, dtype=float)
    return complex(np.sum(coeffs * n ** (-s)))


def _series_tail(form: FormExpansion, sigma: float) -> float:
    c, a, m = growth_constant(form), form.alpha, form.n_max
    if sigma <= a + 1:
        return math.inf
    return c * m ** (a + 1 - sigma) / (sigma - a - 1)


def _l_series(form: FormExpansion, coeffs: np.ndarray, s: complex, full_output: bool, what: str):
    if s.real <= form.alpha + 1:
        warnings.warn(
            f"{what} at Re(s) = {s.real} is outside the certified half-plane "
            f"Re(s) > alpha + 1 = {form.alpha + 1}; returning the truncated sum",
            UncertifiedRegionWarning,
            stacklevel=3,
        )
    val = _dirichlet_sum(coeffs, s)
    if full_output:
        return val, {"tail_bound": _series_tail(form, s.real)}
    return val


def l_plus(form: FormExpansion, s: complex, full_output: bool = False):
    """L+(f,s) = sum c+(n)/n^s, truncated at n_max with a growth-based tail."""
    return _l_series(form, form.c_plus[1:], s, full_output, "L+")


def l_minus(form: FormExpansion, s: complex, full_output: bool = False):
    """L-(f,s) = sum c-(-n)/n^s, truncated at n_max."""
    return _l_series(form, form.c_minus, s, full_output, "L-")


def _kernel(level: int, s: complex) -> complex:
    return (math.sqrt(level) / (2.0 * math.pi)) ** s


def lambda_definitional(form: FormExpansion, s: complex) -> complex:
    """(sqrt N / 2 pi)^s [Gamma(s) L+ + W_{1-k}(s) L-]; needs Re(s) > 0."""
    k = form.weight
    return _kernel(form.level, s) * (
        gamma_complex(s) * l_plus(form, s) + w_nu(1 - k, s) * l_minus(form, s)
    )


def xi_definitional(form: FormExpansion, s: complex) -> complex:
    """(sqrt N / 2 pi)^s [Gamma(s+1) L+ - W_{1-k}(s+1) L-]."""
    k = form.weight
    return _kernel(form.level, s) * (
        gamma_complex(s + 1) * l_plus(form, s) - w_nu(1 - k, s + 1) * l_minus(form, s)
    )


def omega_definitional(form: FormExpansion, s: complex) -> complex:
    """Omega = -2 Xi + k Lambda (exact by construction)."""
    return -2.0 * xi_definitional(form, s) + form.weight * lambda_definitional(form, s)


# ---------------------------------------------------------------------------
# Fricke pairs and analytic continuation


@dataclass(frozen=True)
class FrickePair:
    """A form's integrand evaluator and the constants of its Fricke pair,
    with partner g = f|_k omega(N).

    integrands(taus) stacks the rows (f, H = 2iv df/du + k f), Lambda's and
    Omega's integrands, at a 1-d array of points.  The partner is never
    stored or evaluated: every Mellin integrand is read on the imaginary
    axis, where (F|_k omega(N))(i t / sqrt N) = i^{-k} t^{-k} F(i / (t sqrt
    N)), g = f|_k omega(N) and -H_g = H|_k omega(N) (the last only there), so
    below t = 1 the pair's own rows stand for the partner's (see
    _mellin_piece).  The four constants are (c_f+(0), c_f-(0), c_g+(0),
    c_g-(0)), the last two extracted by analytic_pair from the partner's
    zero mode, and T is every continuation's Mellin cut-off (see
    analytic_pair, and _sides for an equation's two sides).

    A continuation is (Lambda, Omega) at one s or an array of s; an array
    is grouped by the panel count of the log-t quadrature, which depends on
    s only through |Im s|, and the evaluator is called once per batch, on
    the nodes of all its groups (once per _MELLIN_NODE_CAP nodes of whole
    groups past that), so a batch costs as many evaluator calls as one
    point.

    What is kept: a form keeps its TermSeries, one twist per psi and its
    pair (see the forms module), so a form is built and extracted once
    whatever the order of the calls.  A pair keeps the partner's constants,
    its evaluator's last node rows, keyed by the exact bits of the points
    (-0.0 is not 0.0), and its last continuation, keyed by the exact bits
    of the s batch, which serves Lambda and Omega; a repeat is answered
    with copies, so one f checked against several partners is evaluated
    once per node set.  A pair made by dataclasses.replace (another T)
    keeps no continuation, but shares the evaluator and with it the last
    node rows.  Each owner releases what it keeps with itself: there is no
    module-level cache.
    """

    level: int
    weight: int
    integrands: Callable
    c_f_plus0: complex
    c_f_minus0: complex
    c_g_plus0: complex
    c_g_minus0: complex
    T: float

    _last = (None, None)  # (the s batch's bytes, (Lambda*, Omega*)) of the last _star

    @property
    def row_constants(self) -> tuple:
        """Per row, (c0, c_v, partner c0, partner c_v) of its Mellin integral:
        the four constants for f, k c_f(0) and -k c_g(0) for H (-H_g)."""
        lam = (self.c_f_plus0, self.c_f_minus0, self.c_g_plus0, self.c_g_minus0)
        return lam, tuple(sign * self.weight * c for sign, c in zip((1, 1, -1, -1), lam))


# Samples per line of the partner's zero-mode extraction.  Bin 0 of an
# S-point line at height v also holds the aliased modes +-S, +-2S, ... of
# the 1-periodic partner.  At the lower height v0 = 0.5 of the rule
# forms.mode_heights(0) = (0.5, 1), mode S weighs e^{-2 pi S v0} times
# c+(S), and mode -S weighs e^{-2 pi S v0} times c-(-S) Gamma(1-k)
# sum_{l < 1-k} (4 pi S v0)^l / l!, the finite incomplete-gamma sum of
# to_terms, a polynomial of degree -k.  At S = 32, e^{-2 pi S v0} =
# e^{-100.5} = 2.2e-44 and the sum is below 3.2e16 for every k >= -10, so
# an alias is below 1e-27 of its own coefficient (c+(S) or c-(-S)
# Gamma(1-k)); higher aliases and the line at v1 = 1 are smaller still.
# More samples would evaluate the partner where no constant reads it.
_ZERO_MODE_SAMPLES = 32


def analytic_pair(form: FormExpansion) -> FrickePair:
    """The form's Fricke pair, self-anchored: the partner is f|_k omega(N),
    read from the form's own terms, and the partner's constant terms come
    from its zero mode at the heights forms.mode_heights(0), by
    forms.extract_coefficients on _ZERO_MODE_SAMPLES points a line: one
    evaluator pass of the form's terms, the one place the partner is
    slashed off the imaginary axis.  The evaluator makes one pass of the
    form's TermSeries sums per call, the one that forms f and f_u (the
    first two values of TermSeries.jet), so no derivative series is built.

    The cut-off T = max(4, sqrt(n)), n the largest |n| of a nonzero term,
    not n_max, balances the loss from evaluating the form down to Im tau =
    1/(sqrt(N) T) against the dropped [T, inf) integrand.  How an
    equation's sides use their pairs: see _sides; what the form and the
    pair keep: see FrickePair.
    """
    if form._pair is not None:
        return form._pair
    k = form.weight
    ts = to_terms(form)
    last = [None, None]  # the points' bytes and the rows of the last call

    def integrands(taus):
        taus = np.asarray(taus, dtype=complex)
        key = taus.tobytes()
        if last[0] != key:
            (f, f_u), _ = ts._sums(taus, 1)
            last[:] = key, np.array([f, 2j * taus.imag * f_u + k * f])
        return last[1].copy()

    g_eval = partial(slash, ts.eval, k, fricke(form.level))
    c_g = forms.extract_coefficients(g_eval, k, 0, _ZERO_MODE_SAMPLES)
    pair = FrickePair(
        level=form.level,
        weight=k,
        integrands=integrands,
        c_f_plus0=complex(form.c_plus[0]),
        c_f_minus0=form.c_minus_zero,
        c_g_plus0=c_g[0],
        c_g_minus0=c_g[1],
        T=max(4.0, math.sqrt(int(np.abs(ts.F).max(initial=0)))),
    )
    object.__setattr__(form, "_pair", pair)
    return pair


# Gauss-Legendre nodes per log-t panel of every incomplete Mellin integral, and kappa
_MELLIN_NODES, _MELLIN_PHASE = 16, 6
# evaluator nodes per call of _mellin_piece (whole panel groups; a group above
# it is evaluated alone): 1 MB per complex row
_MELLIN_NODE_CAP = 1 << 16


def _mellin_panels(exps: np.ndarray, T: float) -> np.ndarray:
    """The one panel rule: n of each exponent of the 1-d array exps (see _mellin_piece)."""
    width = np.fmin(0.5, 2 * _MELLIN_PHASE / (1.0 + np.abs(exps.imag)))
    return np.maximum(2, np.ceil(math.log(T) / width)).astype(int)


def _mellin_piece(eval_fn: Callable, consts: Sequence[tuple], level: int, k: int,
                  exps: np.ndarray, T: float) -> np.ndarray:
    """int_{1/T}^T (F_r(i t / sqrt N) - P_r(t)) t^{z - 1} dt for each row F_r
    of eval_fn and each z of the 1-d array exps, by Gauss-Legendre in
    x = log t: an array rows x exponents.  With consts[r] = (c0, cv, pc0,
    pcv), the row's FrickePair.row_constants, P_r(t) = c0 + cv t^{1-k} /
    N^{(1-k)/2} for t >= 1 and, below, the partner's read at 1/t (see
    FrickePair): i^k (pc0 t^{-k} + pcv t^{-1} / N^{(1-k)/2}).

    An exponent z gets 2 n panels on [-log T, log T], n = max(2, ceil(log T
    / min(0.5, 2 kappa / (1 + |Im z|)))), so t^{i Im z} turns at most kappa
    = _MELLIN_PHASE = 6 radians over half a panel, where the 16-node
    remainder 2.7e-45 kappa^32 is 1.2e-35, 2.2e-20, 2.2e-16 and 9.4e-11 at
    kappa = 2, 6, 8 and 12: 6 is the largest integer 1,000 times below
    2^-53.  The exponents are grouped by that count, and eval_fn is called
    on the nodes of consecutive whole groups together, up to
    _MELLIN_NODE_CAP nodes a call (none for an empty exps), so memory stays
    bounded however large |Im z| gets, and each exponent meets exactly the
    nodes, and the integrand values, a lone exponent would get.  The weights
    are folded into the integrand, wd = w diff, laid out panels x nodes, and the kernel
    is split into a panel anchor and a node offset, e^{z x[p, j]} =
    e^{z x[p, 0]} e^{z (x[0, j] - x[0, 0])}, so a row block of M exponents
    on P panels takes M (P + 16) complex exponentials instead of 16 M P.
    Each row's sums are one exponents x panels x nodes expression in blocks
    of about 2^15 entries, reduced by .sum over the nodes and then over the
    panels, which numpy does for each exponent alone; a BLAS contraction
    over the nodes would not (its blocking follows the batch), so a value
    does not depend on the rest of the batch or on the other rows.
    """
    upper, counts = math.log(T), _mellin_panels(exps, T)
    groups = dict.fromkeys(counts.tolist())
    out = np.empty((len(consts), exps.size), dtype=complex)
    if not groups:
        return out
    batches, size, nfac = [], 0, level ** ((1 - k) / 2.0)
    for npanels in groups:
        if not batches or size + 2 * npanels * _MELLIN_NODES > _MELLIN_NODE_CAP:
            batches.append([])
            size = 0
        batches[-1].append(npanels)
        size += 2 * npanels * _MELLIN_NODES
    for batch in batches:
        rules = [gauss_legendre_panels(-upper, upper, 2 * n, _MELLIN_NODES) for n in batch]
        x = np.concatenate([x for x, _ in rules])
        t, below = np.exp(x), x < 0
        vals = np.asarray(eval_fn(1j * t / math.sqrt(level)), dtype=complex)
        diffs = [row - np.where(below, _i_pow(k) * (pc0 * t ** -k + pcv / t / nfac),
                                c0 + cv * t ** (1 - k) / nfac)
                 for row, (c0, cv, pc0, pcv) in zip(vals, consts)]
        stop = 0
        for npanels, (x, w) in zip(batch, rules):
            members = np.flatnonzero(counts == npanels)
            nodes = slice(stop, stop + x.size)
            stop = nodes.stop
            wds = [(w * diff[nodes]).reshape(2 * npanels, _MELLIN_NODES) for diff in diffs]
            x = x.reshape(2 * npanels, _MELLIN_NODES)
            anchors, offsets = x[:, 0], x[0] - x[0, 0]
            step = max(1, (1 << 15) // x.size)
            for block in np.array_split(members, range(step, members.size, step)):
                z = exps[block, None]
                e1, e2 = np.exp(z * anchors), np.exp(z * offsets)
                for r, wd in enumerate(wds):
                    out[r, block] = ((e2[:, None, :] * wd).sum(axis=2) * e1).sum(axis=1)
    return out


def _star(pair: FrickePair, s) -> list:
    """[Lambda*, Omega*], the entire pole-corrected completions: one
    incomplete Mellin integral of the pair's two rows over [1/T, T] of the
    imaginary axis, the part below t = 1 standing for the partner's
    integral on [1, T] at k - s (see FrickePair).  Finite for every s.

    s is a complex number or an array of them; each row is shaped like s,
    each value equal to its lone-point value (see _mellin_piece for how the
    batch shares integrand evaluations).  A repeat of the pair's last batch
    is answered from what the pair keeps (see FrickePair)."""
    if not 1.0 < pair.T < math.inf:
        raise ValueError(f"the Mellin cut-off T must be a finite number > 1, got T = {pair.T}")
    pts, restore = _batch(s)
    if not np.isfinite(pts).all():
        raise ValueError(f"s must be a finite complex number, got s = {pts[~np.isfinite(pts)][0]}")
    key = pts.tobytes()
    if pair._last[0] != key:
        out = _mellin_piece(pair.integrands, pair.row_constants, pair.level, pair.weight, pts,
                            pair.T)
        object.__setattr__(pair, "_last", (key, out))
    return [_unbatch(row.copy(), restore) for row in pair._last[1]]


def _near_poles(z: np.ndarray, k: int, tol: float) -> np.ndarray:
    """The mask of the points of the 1-d array z within tol of a pole of the
    weight-k completed series: 0, k, 1 or k - 1."""
    return (np.abs(z[:, None] - np.array([0.0, k, 1.0, k - 1.0])) < tol).any(axis=1)


def _continued(pair: FrickePair, s) -> list:
    """[Lambda, Omega]: _star minus the four simple pole terms of each row's
    constants, one array expression over the batch per row; ValueError if a
    point of the batch lies within 1e-12 of a pole (see _near_poles)."""
    z, restore = _batch(s)
    k = pair.weight
    pole = _near_poles(z, k, 1e-12)
    if pole.any():
        raise ValueError(f"s = {complex(z[pole][0])} is a pole of the completed series; "
                         "probe lambda_star/omega_star")
    ik, nfac = _i_pow(k), pair.level ** ((1 - k) / 2.0)
    return [
        _unbatch(row - (cf0 / z + cg0 * ik / (k - z) + cfv / nfac / (z - k + 1)
                        + cgv * ik / nfac / (1 - z)), restore)
        for row, (cf0, cfv, cg0, cgv) in zip(_star(pair, z), pair.row_constants)
    ]


def lambda_star(pair: FrickePair, s):
    """The entire completion of Lambda (see _star); vectorised over s."""
    return _star(pair, s)[0]


def omega_star(pair: FrickePair, s):
    """The entire completion of Omega (see _star); vectorised over s."""
    return _star(pair, s)[1]


def lambda_continued(pair: FrickePair, s):
    """Lambda_N(f, s) for arbitrary s away from the four simple poles;
    agrees with lambda_definitional on the certified half-plane.
    Vectorised over s like lambda_star."""
    return _continued(pair, s)[0]


def omega_continued(pair: FrickePair, s):
    """Omega_N(f, s) for arbitrary s away from the poles; vectorised over s."""
    return _continued(pair, s)[1]


# ---------------------------------------------------------------------------
# residual reports


@dataclass
class ResidualReport:
    """Functional-equation residuals on a grid of s values."""

    grid: list
    lambda_residuals: list
    omega_residuals: list
    excluded: list = field(default_factory=list)
    quadrature_T: float = 0.0
    tail_bound: float = 0.0

    def __post_init__(self):
        if len(self.grid) != len(self.lambda_residuals) or len(self.grid) != len(
            self.omega_residuals
        ):
            raise ValueError("grid and residual lists must have equal length")

    @property
    def max_lambda(self) -> float:
        return _worst(self.lambda_residuals)

    @property
    def max_omega(self) -> float:
        return _worst(self.omega_residuals)

    @property
    def max_residual(self) -> float:
        return _worst([self.max_lambda, self.max_omega])

    def to_csv(self) -> str:
        lines = ["re_s,im_s,lambda_residual,omega_residual,tail_bound"]
        for s, rl, ro in zip(self.grid, self.lambda_residuals, self.omega_residuals):
            lines.append(
                f"{s.real:.17g},{s.imag:.17g},{rl:.17g},{ro:.17g},{self.tail_bound:.17g}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "grid": [[s.real, s.imag] for s in self.grid],
            "lambda_residuals": list(self.lambda_residuals),
            "omega_residuals": list(self.omega_residuals),
            "excluded": [[s.real, s.imag] for s in self.excluded],
            "quadrature_T": self.quadrature_T,
            "nodes_per_panel": _MELLIN_NODES,
            "tail_bound": self.tail_bound,
            "max_residual": self.max_residual,
        }


def _worst(residuals) -> float:
    """The largest residual, NaN if any is NaN (max alone keeps a NaN only
    when it comes first), 0.0 for none."""
    return math.nan if any(map(math.isnan, residuals)) else max(residuals, default=0.0)


def fe_residuals(
    form_f: FormExpansion,
    form_g: FormExpansion,
    grid: Sequence[complex],
    psi: DirichletCharacter | None = None,
) -> ResidualReport:
    """|Lambda(f,s) - i^k Lambda(g,k-s)| and |Omega(f,s) + i^k Omega(g,k-s)|
    over the grid, any sequence of complex numbers; points within 1e-9 of
    the four poles are excluded (see _near_poles) and listed in the report.
    With psi (primitive, modulus m coprime to the level) the twisted
    equations Lambda_N(f,s,psi) = i^k C_psi Lambda_N(g,k-s,psibar) and its
    Omega companion are checked instead.  The sides are _sides', in one
    batch over all kept points, so the residuals equal twisted_lambda's and
    twisted_omega's point by point.

    Only one orientation is certified: f's side is continued at s and g's
    at k - s.  The reversed reading (f's pair at k - s against g's at s)
    carries a larger error; on the golden oldform pairs (the level-1 lift
    at n_max 40 N against N^{k/2} F(N tau)) its Omega residuals are 1.1e-9
    at N = 7 and 4.0e-9 at N = 11, against about 2e-11 in this orientation.
    So a PASS can depend on which form is passed as f.  Reading both would
    cost Mellin sums but no evaluator pass: s and k - s share their Mellin
    nodes, which depend on s only through |Im s|.

    quadrature_T is f's side's cut-off T, which no caller sets (see _sides).
    tail_bound is the TermSeries.magnitude of f's form (f_psi under psi) at
    v = T / sqrt(N), N its level, a bound on its F != 0 terms at the
    cut-off, times the e-folding scale sqrt(N) / 2 pi; nothing is evaluated.
    """
    pts = np.fromiter(map(complex, grid), dtype=complex)
    near = _near_poles(pts, form_f.weight, 1e-9)
    kept, excluded = pts[~near], pts[near].tolist()
    (lam_f, om_f), (lam_g, om_g), ik, form, T = _sides(form_f, form_g, psi, kept)
    root = math.sqrt(form.level)
    return ResidualReport(
        grid=kept.tolist(),
        lambda_residuals=_residuals(lam_f, lam_g, -ik),
        omega_residuals=_residuals(om_f, om_g, ik),
        excluded=excluded,
        quadrature_T=T,
        tail_bound=to_terms(form).magnitude(T / root) * root / (2.0 * math.pi),
    )


def _residuals(v_f: np.ndarray, v_g: np.ndarray, c: complex) -> list:
    """|a + c b| at each point of the 1-d arrays v_f and v_g, in Python
    arithmetic whatever the batch: c = -i^k for Lambda and i^k for Omega,
    times C_psi when twisted."""
    return [abs(a + c * b) for a, b in zip(v_f.tolist(), v_g.tolist())]


def _sides(form_f: FormExpansion, form_g: FormExpansion, psi: DirichletCharacter | None,
           s: np.ndarray) -> tuple:
    """The two sides of a functional equation at the 1-d array s: f's
    (Lambda, Omega) at s, g's at k - s, the constant i^k, and f's form and
    cut-off T, which the report's tail bound reads; with psi the sides of
    f_psi and g_psibar, the constant i^k C_psi and the form f_psi.  This is
    the one computation behind fe_residuals, twisted_lambda and
    twisted_omega.

    Each side is continued through the analytic pair of its own form, whose
    partner is that form read at the reciprocal height (see FrickePair), so
    the sides use no data but the two forms.  Continuing g's side from f's
    pair would make the residual vanish identically - the two integral
    representations are the same expression rearranged - so that route
    could not tell true pairs from false ones; this one can, and a single
    perturbed coefficient in g surfaces directly.

    Sides that hold the same data after twisting (f = g, or a real psi on
    f = g; see _same_data) are one pair, continued once on the batch
    (s, k - s) and split: every value equals its lone-point value, so the
    halves are the two sides'.  Other sides are continued at the smaller of
    their pairs' T, a pair at the other T through dataclasses.replace.
    Either way s comes first, so a point within 1e-12 of a pole, or not
    finite, is named as the call at s would name it (the poles are
    symmetric under s -> k - s).  What the forms, twists and pairs keep, so
    that a repeated call twists, builds, extracts and continues nothing
    again: see FrickePair.

    By the twisting proposition f_psi|_k omega(N m^2) = C_psi g_psibar, so
    the twisted completed series live at level N m^2 = lcm(N, m^2, m m_chi),
    where twist puts both twists.  c_psi refuses a psi that is not primitive
    or whose modulus m shares a factor with N."""
    if form_f.weight != form_g.weight:
        raise ValueError("weights differ")
    if form_f.level != form_g.level:
        raise ValueError(f"levels differ: f is at level {form_f.level}, g at {form_g.level}")
    k = form_f.weight
    ik = _i_pow(k)
    if psi is not None:
        ik *= c_psi(form_f.character, psi, form_f.level)
        form_f, form_g = twist(form_f, psi), twist(form_g, psi.conjugate())
    pair_f = analytic_pair(form_f)
    if _same_data(form_f, form_g):
        both = np.asarray(_continued(pair_f, np.concatenate([s, k - s])))
        return both[..., :s.size], both[..., s.size:], ik, form_f, pair_f.T
    pair_g = analytic_pair(form_g)
    T = min(pair_f.T, pair_g.T)
    pair_f, pair_g = (p if p.T == T else replace(p, T=T) for p in (pair_f, pair_g))
    return _continued(pair_f, s), _continued(pair_g, k - s), ik, form_f, T


def _same_data(a: FormExpansion, b: FormExpansion) -> bool:
    """a and b agree, bit for bit, in everything analytic_pair reads: the
    weight, level and n_max and the bytes of c+, c-(0) and c-; a is b at once."""
    if a is b:
        return True
    return (a.weight, a.level, a.n_max) == (b.weight, b.level, b.n_max) and all(
        np.asarray(x, dtype=complex).tobytes() == np.asarray(y, dtype=complex).tobytes()
        for x, y in ((a.c_plus, b.c_plus), (a.c_minus_zero, b.c_minus_zero), (a.c_minus, b.c_minus))
    )


# ---------------------------------------------------------------------------
# twists


def _twisted(form_f, form_g, chi, psi, level, k, s, row: int, sign: int):
    """Row row (0 Lambda, 1 Omega) of the twisted equation's sides at s and
    k - s (see _sides), and the residual |v_f + sign i^k C_psi v_g| (see
    _residuals), each shaped like s.  k, level and chi must be the forms'
    own weight, level and f's character."""
    if k != form_f.weight:
        raise ValueError("k must equal the weight of the forms")
    if form_f.level != level or form_g.level != level:
        raise ValueError(f"f and g must be at level {level}, not {form_f.level} and {form_g.level}")
    if chi != form_f.character:
        raise ValueError(f"chi must be the character of f: {chi!r} is not {form_f.character!r}")
    flat, restore = _batch(s)
    side_f, side_g, ik, _, _ = _sides(form_f, form_g, psi, flat)
    v_f, v_g = side_f[row], side_g[row]
    return (_unbatch(v_f, restore), _unbatch(v_g, restore),
            _unbatch(_residuals(v_f, v_g, sign * ik), restore, float))


def twisted_lambda(
    form_f: FormExpansion,
    form_g: FormExpansion,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    level: int,
    k: int,
    s: complex,
) -> tuple[complex, complex, float]:
    """(Lambda_N(f,s,psi), Lambda_N(g,k-s,psibar), residual of the twisted
    functional equation Lambda_N(f,s,psi) = i^k C_psi Lambda_N(g,k-s,psibar)).

    The sides are _sides' at level N m^2, so the residual tests the twisted
    pair relation including the constant C_psi, and equals fe_residuals'
    with psi point by point.  s may be one complex number or an array, and
    the results are shaped like it.  Each side's continuation is (Lambda,
    Omega), kept with its pair (see FrickePair): twisted_lambda then
    twisted_omega on the same forms, psi and s continue each side once.
    """
    return _twisted(form_f, form_g, chi, psi, level, k, s, 0, -1)


def twisted_omega(
    form_f: FormExpansion,
    form_g: FormExpansion,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    level: int,
    k: int,
    s: complex,
) -> tuple[complex, complex, float]:
    """Twisted Omega values and the residual of
    Omega_N(f,s,psi) = -i^k C_psi Omega_N(g,k-s,psibar): the other row of
    twisted_lambda's sides."""
    return _twisted(form_f, form_g, chi, psi, level, k, s, 1, 1)


# ---------------------------------------------------------------------------
# converse direction: inverse Mellin reconstruction


def reconstruct_from_lambda(
    lambda_eval: Callable[[np.ndarray], np.ndarray],
    level: int,
    k: int,
    t: float,
    beta1: float,
    height: float,
    full_output: bool = False,
):
    """(1/2 pi i) int_{beta1 - iH}^{beta1 + iH} t^{-s} Lambda(s) ds.

    For beta1 > alpha + 1 this reconstructs
    f(i t / sqrt N) - c+(0) - c-(0) t^{1-k} / N^{(1-k)/2}; the integrand
    decays like the gamma kernels, so height ~ 40 already saturates double
    precision for |log t| of order one.

    This is specfun.invert_on_line with fn = lambda_eval, x = t and abscissa
    = beta1, the names its ValueError uses; its docstring gives the rule
    (one call on 320 nodes at height 40, the same nodes for every t with
    |log t| <= 1) and the witness behind its QuadratureError.  lambda s:
    lambda_continued(pair, s) is such a callable; level and k are not read.
    """
    return invert_on_line(lambda_eval, t, beta1, height, full_output)


# ---------------------------------------------------------------------------
# conductor data for the converse hypotheses


@dataclass(frozen=True)
class ConductorSet:
    """Twisting conductors (odd primes or 4, coprime to the level) whose
    twisted functional equations the converse check consumes."""

    level: int
    conductors: tuple[int, ...]
    source: str  # "paper" for the shipped data, "heuristic" otherwise

    def __post_init__(self):
        for m in self.conductors:
            if math.gcd(m, self.level) != 1:
                raise ValueError(f"conductor {m} shares a factor with level {self.level}")
            if not _twisting_conductor(m):
                raise ValueError(f"conductor {m} is neither an odd prime nor 4")


def _twisting_conductor(m: int) -> bool:
    """m is 4 or an odd prime."""
    return m == 4 or (m % 2 == 1 and _prime_factors(m) == [(m, 1)])


_VERIFICATION_SETS = {
    7: (11, 17, 19, 23, 29, 41),
    11: (13, 17, 19, 23, 29, 31, 37, 47, 59, 71),
}


def verification_set(level: int) -> ConductorSet:
    """Shipped conductor lists for levels 7 and 11; for other levels the
    first eight odd primes or 4 coprime to N, in increasing order, flagged
    heuristic.  ValueError for a level below 1."""
    if level < 1:
        raise ValueError("level must be >= 1")
    if level in _VERIFICATION_SETS:
        return ConductorSet(level, _VERIFICATION_SETS[level], "paper")
    out, m = [], 3
    while len(out) < 8:
        if _twisting_conductor(m) and math.gcd(m, level) == 1:
            out.append(m)
        m += 1
    return ConductorSet(level, tuple(out), "heuristic")
