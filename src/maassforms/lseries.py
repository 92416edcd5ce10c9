"""Completed Dirichlet series attached to polynomial-growth expansions.

L+(f,s) and L-(f,s) are the coefficient Dirichlet series; the completed
combinations

    Lambda_N = (sqrt(N)/2pi)^s [Gamma(s) L+ + W_{1-k}(s) L-]
    Xi_N     = (sqrt(N)/2pi)^s [Gamma(s+1) L+ - W_{1-k}(s+1) L-]
    Omega_N  = -2 Xi_N + k Lambda_N

satisfy, for a Fricke pair g = f|_k omega(N), the functional equations
Lambda_N(f,s) = i^k Lambda_N(g,k-s) and Omega_N(f,s) = -i^k Omega_N(g,k-s).
Analytic continuation is computed from the incomplete Mellin representation
on [1, T] (the integrand decays like e^{-2 pi t / sqrt N}), with the four
simple pole terms restored explicitly; the converse direction inverts
Lambda along a vertical line.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .characters import DirichletCharacter, _prime_factors, c_psi
from .forms import FormExpansion, h_op, to_terms, twist
from .specfun import QuadratureError, gamma_complex, gauss_legendre_panels, w_nu

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
    from .forms import growth_constant

    c, a, m = growth_constant(form), form.alpha, form.n_max
    if sigma <= a + 1:
        return math.inf
    return c * m ** (a + 1 - sigma) / (sigma - a - 1)


def _check_certified(form: FormExpansion, s: complex, what: str):
    if s.real <= form.alpha + 1:
        warnings.warn(
            f"{what} at Re(s) = {s.real} is outside the certified half-plane "
            f"Re(s) > alpha + 1 = {form.alpha + 1}; returning the truncated sum",
            UncertifiedRegionWarning,
            stacklevel=3,
        )


def l_plus(form: FormExpansion, s: complex, full_output: bool = False):
    """L+(f,s) = sum c+(n)/n^s, truncated at n_max with a growth-based tail."""
    _check_certified(form, s, "L+")
    val = _dirichlet_sum(form.c_plus[1:], s)
    if full_output:
        return val, {"tail_bound": _series_tail(form, s.real)}
    return val


def l_minus(form: FormExpansion, s: complex, full_output: bool = False):
    """L-(f,s) = sum c-(-n)/n^s, truncated at n_max."""
    _check_certified(form, s, "L-")
    val = _dirichlet_sum(form.c_minus, s)
    if full_output:
        return val, {"tail_bound": _series_tail(form, s.real)}
    return val


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
    """Evaluators and constants for a pair with g = f|_k omega(N).

    f_eval/g_eval evaluate the forms on (vectorized) upper half-plane
    arguments; h_eval/i_eval evaluate H = 2iv df/du + k f and its g
    counterpart.  The four constants are (c_f+(0), c_f-(0), c_g+(0), c_g-(0)).

    analytic_pair builds the partner from one form alone by slashing it
    pointwise (the self-anchored route that functional-equation residuals
    must use; see fe_residuals).
    """

    level: int
    weight: int
    f_eval: Callable
    g_eval: Callable
    h_eval: Callable
    i_eval: Callable
    c_f_plus0: complex
    c_f_minus0: complex
    c_g_plus0: complex
    c_g_minus0: complex
    T_default: float | None = None


def analytic_pair(
    form: FormExpansion,
    level: int | None = None,
    T: float | None = None,
    constant_heights: tuple[float, float] = (0.5, 1.0),
) -> FrickePair:
    """Self-anchored pair: the partner is f|_k omega(N) evaluated pointwise
    from the form's own terms, and the partner's constant terms are extracted
    numerically from its zero mode.

    This is the route that gives functional-equation residuals their content:
    a completed series continued through analytic_pair(form) uses no data
    except the form itself, so comparing two such continuations across
    s <-> k - s genuinely tests whether the two forms are Fricke partners.
    The price is evaluation of the form down to Im tau = 1/(sqrt(N) T); the
    default T = sqrt(n_max) balances that truncation loss against the
    dropped [T, inf) integrand.
    """
    from .forms import extract_coefficients, h_from_jet, slash_jet1
    from .modgroup import fricke

    k = form.weight
    level = form.level if level is None else level
    if T is None:
        T = max(4.0, math.sqrt(form.n_max))
    omega = fricke(level)
    ts = to_terms(form)

    def g_eval(taus):
        t = np.asarray(taus, dtype=complex)
        pref = float(level) ** (k / 2.0) * (level * t) ** (-k)
        return pref * ts.eval(-1.0 / (level * t))

    def i_eval(taus):
        t = np.asarray(taus, dtype=complex)
        jets = slash_jet1(ts, k, omega, t)
        return h_from_jet(jets, k, t.imag)

    v0, v1 = constant_heights
    cgp0, cgm0 = extract_coefficients(g_eval, k, 1.0, 0.0, 0, v0, v1)
    return FrickePair(
        level=level,
        weight=k,
        f_eval=ts.eval,
        g_eval=g_eval,
        h_eval=h_op(ts, k).eval,
        i_eval=i_eval,
        c_f_plus0=complex(form.c_plus[0]),
        c_f_minus0=form.c_minus_zero,
        c_g_plus0=cgp0,
        c_g_minus0=cgm0,
        T_default=T,
    )


def _default_T(pair: FrickePair) -> float:
    if pair.T_default is not None:
        return pair.T_default
    # integrand decays like e^{-2 pi t / sqrt N}: raw tails far below rounding
    return 30.0 / math.sqrt(pair.level) * (1 - pair.weight)


# Gauss-Legendre nodes per log-t panel of every incomplete Mellin integral
_MELLIN_NODES = 16


def _mellin_piece(
    eval_fn: Callable,
    const0: complex,
    const_v: complex,
    level: int,
    k: int,
    exponent: complex,
    T: float,
) -> complex:
    """int_1^T (F(i t / sqrt N) - const0 - const_v t^{1-k} / N^{(1-k)/2})
    t^{exponent - 1} dt, by Gauss-Legendre in x = log t."""
    upper = math.log(T)
    width = min(0.5, 4.0 / (1.0 + abs(exponent.imag)))
    npanels = max(2, int(math.ceil(upper / width)))
    x, w = gauss_legendre_panels(0.0, upper, npanels, _MELLIN_NODES)
    t = np.exp(x)
    taus = 1j * t / math.sqrt(level)
    vals = np.asarray(eval_fn(taus), dtype=complex)
    sub = const0 + const_v * t ** (1 - k) / level ** ((1 - k) / 2.0)
    integrand = (vals - sub) * np.exp(exponent * x)
    return complex(np.sum(w * integrand))


def lambda_star(pair: FrickePair, s: complex, T: float | None = None) -> complex:
    """The entire pole-corrected completion: both incomplete Mellin integrals
    of the pair on [1, T].  Finite for every s."""
    if T is None:
        T = _default_T(pair)
    k = pair.weight
    i1 = _mellin_piece(pair.f_eval, pair.c_f_plus0, pair.c_f_minus0, pair.level, k, s, T)
    i2 = _mellin_piece(pair.g_eval, pair.c_g_plus0, pair.c_g_minus0, pair.level, k, k - s, T)
    return i1 + _i_pow(k) * i2


def _pole_terms(pair: FrickePair, s: complex, omega_sign: bool = False) -> complex:
    k = pair.weight
    ik = _i_pow(k)
    nfac = pair.level ** ((1 - k) / 2.0)
    sgn = -1.0 if omega_sign else 1.0
    return (
        pair.c_f_plus0 / s
        + sgn * pair.c_g_plus0 * ik / (k - s)
        + pair.c_f_minus0 / nfac / (s - k + 1)
        + sgn * pair.c_g_minus0 * ik / nfac / (1 - s)
    )


def _guard_poles(pair: FrickePair, s: complex):
    k = pair.weight
    for p in (0.0, float(k), 1.0, float(k - 1)):
        if abs(s - p) < 1e-12:
            raise ValueError(
                f"s = {s} is a pole of the completed series; probe lambda_star instead"
            )


def lambda_continued(pair: FrickePair, s: complex, T: float | None = None) -> complex:
    """Lambda_N(f, s) for arbitrary s (away from the four simple poles),
    via lambda_star minus the pole terms.  Agrees with lambda_definitional
    on the certified half-plane."""
    _guard_poles(pair, s)
    return lambda_star(pair, s, T) - _pole_terms(pair, s)


def omega_star(pair: FrickePair, s: complex, T: float | None = None) -> complex:
    """Entire completion of Omega: H/I incomplete Mellin integrals with the
    constants scaled by k and relative sign -i^k."""
    if T is None:
        T = _default_T(pair)
    k = pair.weight
    i1 = _mellin_piece(
        pair.h_eval, k * pair.c_f_plus0, k * pair.c_f_minus0, pair.level, k, s, T
    )
    i2 = _mellin_piece(
        pair.i_eval, k * pair.c_g_plus0, k * pair.c_g_minus0, pair.level, k, k - s, T
    )
    return i1 - _i_pow(k) * i2


def omega_continued(pair: FrickePair, s: complex, T: float | None = None) -> complex:
    """Omega_N(f, s) for arbitrary s away from the poles."""
    _guard_poles(pair, s)
    return omega_star(pair, s, T) - pair.weight * _pole_terms(pair, s, omega_sign=True)


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
    nodes_per_panel: int = _MELLIN_NODES
    tail_bound: float = 0.0

    def __post_init__(self):
        if len(self.grid) != len(self.lambda_residuals) or len(self.grid) != len(
            self.omega_residuals
        ):
            raise ValueError("grid and residual lists must have equal length")

    @property
    def max_lambda(self) -> float:
        return max(self.lambda_residuals, default=0.0)

    @property
    def max_omega(self) -> float:
        return max(self.omega_residuals, default=0.0)

    @property
    def max_residual(self) -> float:
        return max(self.max_lambda, self.max_omega)

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
            "nodes_per_panel": self.nodes_per_panel,
            "tail_bound": self.tail_bound,
            "max_residual": self.max_residual,
        }


def _integrand_tail(pair: FrickePair, T: float) -> float:
    """Magnitude of the dropped [T, inf) integrand piece (e-folding scale)."""
    tau = 1j * T / math.sqrt(pair.level)
    k = pair.weight
    sub = pair.c_f_plus0 + pair.c_f_minus0 * T ** (1 - k) / pair.level ** ((1 - k) / 2.0)
    lead = abs(complex(np.asarray(pair.f_eval(np.array([tau])))[0]) - sub)
    return lead * math.sqrt(pair.level) / (2.0 * math.pi)


def fe_residuals(
    form_f: FormExpansion,
    form_g: FormExpansion,
    grid: Sequence[complex],
    T: float | None = None,
    level: int | None = None,
    psi: DirichletCharacter | None = None,
) -> ResidualReport:
    """|Lambda(f,s) - i^k Lambda(g,k-s)| and |Omega(f,s) + i^k Omega(g,k-s)|
    over the grid; points within 1e-9 of the four poles are excluded (both
    sides blow up there) and listed in the report.

    Each side is continued through its OWN analytic pair (partner = the form
    slashed by the Fricke matrix pointwise).  Continuing both sides from one
    shared pair would make the residual vanish identically - the two integral
    representations are the same expression rearranged - so that route cannot
    distinguish true pairs from false ones; the self-anchored route can, and
    a single perturbed coefficient in g surfaces directly.

    With psi (primitive, modulus m coprime to the level) the twisted
    equations Lambda_N(f,s,psi) = i^k C_psi Lambda_N(g,k-s,psibar) and its
    Omega companion are checked instead: the sides are the pairs of f_psi and
    g_psibar at level N m^2 (see _twisted_sides), built once for the whole
    grid, and i^k becomes i^k C_psi.  The residuals equal those of
    twisted_lambda/twisted_omega point by point whenever f and g have the
    same n_max.

    T defaults to f's pair default, max(4, sqrt(n_max)), and is used for both
    sides; tail_bound is the dropped [T, inf) integrand of f's pair.
    """
    if form_f.weight != form_g.weight:
        raise ValueError("weights differ")
    k = form_f.weight
    level = form_f.level if level is None else level
    if psi is None:
        pair_f, pair_g = analytic_pair(form_f, level), analytic_pair(form_g, level)
        ik = _i_pow(k)
    else:
        pair_f, pair_g, cpsi = _twisted_sides(form_f, form_g, form_f.character, psi, level)
        ik = _i_pow(k) * cpsi
    if T is None:
        T = _default_T(pair_f)
    poles = (0.0, float(k), 1.0, float(k - 1))
    kept, excluded, lam_res, om_res = [], [], [], []
    for s in grid:
        s = complex(s)
        if any(abs(s - p) < 1e-9 for p in poles):
            excluded.append(s)
            continue
        lam_f = lambda_continued(pair_f, s, T)
        lam_g = lambda_continued(pair_g, k - s, T)
        om_f = omega_continued(pair_f, s, T)
        om_g = omega_continued(pair_g, k - s, T)
        kept.append(s)
        lam_res.append(abs(lam_f - ik * lam_g))
        om_res.append(abs(om_f + ik * om_g))
    return ResidualReport(
        grid=kept,
        lambda_residuals=lam_res,
        omega_residuals=om_res,
        excluded=excluded,
        quadrature_T=T,
        tail_bound=_integrand_tail(pair_f, T),
    )


# ---------------------------------------------------------------------------
# twists


def _twisted_sides(
    form_f: FormExpansion,
    form_g: FormExpansion,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    level: int,
) -> tuple[FrickePair, FrickePair, complex]:
    """Self-anchored pairs for f_psi and g_psibar at level N m^2, plus C_psi.

    By the twisting proposition f_psi|_k omega(N m^2) = C_psi g_psibar, so
    the twisted completed series live at level N m^2 and their functional
    equation carries the constant C_psi."""
    m = psi.modulus
    if math.gcd(m, level) != 1:
        raise ValueError(f"conductor {m} must be coprime to the level {level}")
    cpsi = c_psi(chi, psi, level)
    big = level * m * m
    pair_f = analytic_pair(twist(form_f, psi), big)
    pair_g = analytic_pair(twist(form_g, psi.conjugate()), big)
    return pair_f, pair_g, cpsi


def twisted_lambda(
    form_f: FormExpansion,
    form_g: FormExpansion,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    level: int,
    k: int,
    s: complex,
    T: float | None = None,
) -> tuple[complex, complex, float]:
    """(Lambda_N(f,s,psi), Lambda_N(g,k-s,psibar), residual of the twisted
    functional equation Lambda_N(f,s,psi) = i^k C_psi Lambda_N(g,k-s,psibar)).

    Both sides are self-anchored continuations of the twisted expansions at
    level N m^2, so the residual genuinely tests the twisted pair relation
    including the constant C_psi.
    """
    if k != form_f.weight:
        raise ValueError("k must equal the weight of the forms")
    pair_f, pair_g, cpsi = _twisted_sides(form_f, form_g, chi, psi, level)
    lam_f = lambda_continued(pair_f, s, T)
    lam_g = lambda_continued(pair_g, k - s, T)
    residual = abs(lam_f - _i_pow(k) * cpsi * lam_g)
    return lam_f, lam_g, residual


def twisted_omega(
    form_f: FormExpansion,
    form_g: FormExpansion,
    chi: DirichletCharacter,
    psi: DirichletCharacter,
    level: int,
    k: int,
    s: complex,
    T: float | None = None,
) -> tuple[complex, complex, float]:
    """Twisted Omega values and the residual of
    Omega_N(f,s,psi) = -i^k C_psi Omega_N(g,k-s,psibar)."""
    if k != form_f.weight:
        raise ValueError("k must equal the weight of the forms")
    pair_f, pair_g, cpsi = _twisted_sides(form_f, form_g, chi, psi, level)
    om_f = omega_continued(pair_f, s, T)
    om_g = omega_continued(pair_g, k - s, T)
    residual = abs(om_f + _i_pow(k) * cpsi * om_g)
    return om_f, om_g, residual


# ---------------------------------------------------------------------------
# converse direction: inverse Mellin reconstruction


def reconstruct_from_lambda(
    lambda_eval: Callable[[complex], complex],
    level: int,
    k: int,
    t: float,
    beta1: float,
    height: float,
    nodes_per_panel: int = 12,
    full_output: bool = False,
):
    """(1/2 pi i) int_{beta1 - iH}^{beta1 + iH} t^{-s} Lambda(s) ds.

    For beta1 > alpha + 1 this reconstructs
    f(i t / sqrt N) - c+(0) - c-(0) t^{1-k} / N^{(1-k)/2}; the integrand
    decays like the gamma kernels, so height ~ 40 already saturates double
    precision for |log t| of order one.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    npanels = max(2, int(math.ceil(2.0 * height)))
    ys, ws = gauss_legendre_panels(-height, height, npanels, nodes_per_panel)
    svals = beta1 + 1j * ys
    lam = np.array([lambda_eval(complex(s)) for s in svals], dtype=complex)
    integrand = t ** (-svals) * lam
    value = complex(np.sum(ws * integrand) / (2.0 * math.pi))

    # refinement estimate with half the nodes per panel
    ys2, ws2 = gauss_legendre_panels(-height, height, npanels, max(2, nodes_per_panel // 2))
    lam2 = np.array([lambda_eval(complex(beta1 + 1j * y)) for y in ys2], dtype=complex)
    coarse = complex(np.sum(ws2 * t ** (-(beta1 + 1j * ys2)) * lam2) / (2.0 * math.pi))
    est = abs(value - coarse)
    tail = abs(lam[-1]) * t ** (-beta1)  # endpoint magnitude as tail scale
    if est > 1e-3 * max(1.0, abs(value)):
        raise QuadratureError(
            f"line reconstruction unresolved: refinement moves the value by {est:.3e}"
        )
    if full_output:
        return value, {"refinement_error": est, "tail_scale": tail}
    return value


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


def verification_set(level: int, heuristic_size: int = 8) -> ConductorSet:
    """Shipped conductor lists for levels 7 and 11; for other levels a
    generated candidate list (first odd primes or 4, coprime to N), flagged
    heuristic."""
    if level in _VERIFICATION_SETS:
        return ConductorSet(level, _VERIFICATION_SETS[level], "paper")
    out = []
    m = 3
    candidates = []
    while len(candidates) < heuristic_size * 4:
        candidates.append(m)
        m += 1
    pool = sorted(c for c in candidates if _twisting_conductor(c))
    for c in pool:
        if math.gcd(c, level) == 1:
            out.append(c)
        if len(out) == heuristic_size:
            break
    return ConductorSet(level, tuple(out), "heuristic")
