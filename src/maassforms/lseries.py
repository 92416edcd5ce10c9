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
simple pole terms restored explicitly; Lambda and Omega share one body for
each step.  The converse direction inverts Lambda along a vertical line with
specfun.invert_on_line, the rule that also inverts W_nu.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .characters import DirichletCharacter, _prime_factors, c_psi
from .forms import FormExpansion, to_terms, twist
from .specfun import gamma_complex, gauss_legendre_panels, invert_on_line, w_nu

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
    """Evaluators and constants for a pair with g = f|_k omega(N).

    f_eval/g_eval evaluate the forms on (vectorized) upper half-plane
    arguments; h_eval/i_eval evaluate H = 2iv df/du + k f and its g
    counterpart.  The four constants are (c_f+(0), c_f-(0), c_g+(0), c_g-(0)),
    and T_default is the Mellin cut-off used when a continuation is given no T.

    The continuations (lambda_star, omega_star, lambda_continued,
    omega_continued) take one s or an array of s.  An array is grouped by
    the panel count of the log-t quadrature, which depends on s only through
    |Im s|, and each evaluator is called once per group on that group's
    nodes, so a batch costs about as many evaluations as one point.

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
    T_default: float


def analytic_pair(form: FormExpansion) -> FrickePair:
    """Self-anchored pair: the partner is f|_k omega(N) evaluated pointwise
    from the form's own terms, and the partner's constant terms are extracted
    numerically from its zero mode (at heights 0.5 and 1).

    This is the route that gives functional-equation residuals their content:
    a completed series continued through analytic_pair(form) uses no data
    except the form itself, so comparing two such continuations across
    s <-> k - s genuinely tests whether the two forms are Fricke partners.
    The price is evaluation of the form down to Im tau = 1/(sqrt(N) T); the
    pair's T_default = max(4, sqrt(n_max)) balances that truncation loss
    against the dropped [T, inf) integrand.

    All four evaluators run on the form's one TermSeries: f_eval is its
    eval, g_eval slashes it, and h_eval and i_eval take H = 2iv f_u + k f
    from TermSeries.jet at tau and (through slash_jet1) at omega(N) tau, so
    no derivative series is built.
    """
    from .forms import extract_coefficients, h_from_jet, jet1, slash_jet1
    from .modgroup import fricke, slash

    k = form.weight
    omega = fricke(form.level)
    ts = to_terms(form)

    def g_eval(taus):
        return slash(ts.eval, k, omega, np.asarray(taus, dtype=complex))

    def h_eval(taus):
        t = np.asarray(taus, dtype=complex)
        return h_from_jet(jet1(ts, t), k, t.imag)

    def i_eval(taus):
        t = np.asarray(taus, dtype=complex)
        jets = slash_jet1(ts, k, omega, t)
        return h_from_jet(jets, k, t.imag)

    cgp0, cgm0 = extract_coefficients(g_eval, k, 1.0, 0.0, 0, 0.5, 1.0)
    return FrickePair(
        level=form.level,
        weight=k,
        f_eval=ts.eval,
        g_eval=g_eval,
        h_eval=h_eval,
        i_eval=i_eval,
        c_f_plus0=complex(form.c_plus[0]),
        c_f_minus0=form.c_minus_zero,
        c_g_plus0=cgp0,
        c_g_minus0=cgm0,
        T_default=max(4.0, math.sqrt(form.n_max)),
    )


# Gauss-Legendre nodes per log-t panel of every incomplete Mellin integral
_MELLIN_NODES = 16


def _batch(s) -> tuple[np.ndarray, tuple | None]:
    """s as a flat complex array, and the shape of the result: None for a
    scalar s, which gets a Python complex back."""
    arr = np.asarray(s, dtype=complex)
    return arr.ravel(), (None if arr.ndim == 0 else arr.shape)


def _unbatch(values, shape: tuple | None):
    if shape is None:
        return complex(values[0])
    return np.array(values, dtype=complex).reshape(shape)


def _mellin_piece(
    eval_fn: Callable,
    const0: complex,
    const_v: complex,
    level: int,
    k: int,
    exponent,
    T: float,
):
    """int_1^T (F(i t / sqrt N) - const0 - const_v t^{1-k} / N^{(1-k)/2})
    t^{exponent - 1} dt, by Gauss-Legendre in x = log t, for a scalar or an
    array of exponents.

    An exponent z gets max(2, ceil(log T / min(0.5, 4 / (1 + |Im z|))))
    panels.  The exponents are grouped by that count and F is evaluated once
    per group, on exactly the nodes a lone exponent would get.  Its sums are
    one exponents x nodes expression in row blocks of about 2^15 entries, and
    .sum(axis=1) reduces each row alone, by the pairwise sum np.sum gives one
    exponent, so a value does not depend on the rest of the batch.
    """
    exps, shape = _batch(exponent)
    upper = math.log(T)
    counts = np.maximum(2, np.ceil(upper / np.fmin(0.5, 4.0 / (1.0 + np.abs(exps.imag)))))
    out = np.empty(exps.shape, dtype=complex)
    for npanels in dict.fromkeys(counts.astype(int).tolist()):
        members = np.flatnonzero(counts == npanels)
        x, w = gauss_legendre_panels(0.0, upper, npanels, _MELLIN_NODES)
        t = np.exp(x)
        vals = np.asarray(eval_fn(1j * t / math.sqrt(level)), dtype=complex)
        diff = vals - (const0 + const_v * t ** (1 - k) / level ** ((1 - k) / 2.0))
        step = max(1, (1 << 15) // x.size)
        for rows in np.array_split(members, range(step, members.size, step)):
            out[rows] = (w * (diff * np.exp(exps[rows, None] * x))).sum(axis=1)
    return _unbatch(out, shape)


def _star(pair: FrickePair, s, T: float | None, omega: bool):
    """The entire pole-corrected completion of Lambda (of Omega when omega
    is set): the incomplete Mellin integrals on [1, T] of f and g (of H and
    I for Omega, with the constants scaled by k), joined with relative sign
    i^k (-i^k for Omega).  Finite for every s.

    s is a complex number or an array of them; an array gives an array of
    the same shape, each value equal to its lone-point value (see
    _mellin_piece for how the batch shares integrand evaluations)."""
    T = pair.T_default if T is None else T
    if not 1.0 < T < math.inf:
        raise ValueError(f"the Mellin cut-off T must be a finite number > 1, got T = {T}")
    pts, shape = _batch(s)
    if not np.isfinite(pts).all():
        raise ValueError(f"s must be a finite complex number, got s = {pts[~np.isfinite(pts)][0]}")
    k = pair.weight
    consts = (pair.c_f_plus0, pair.c_f_minus0, pair.c_g_plus0, pair.c_g_minus0)
    if omega:
        consts = tuple(k * c for c in consts)
    f_eval, g_eval = (pair.h_eval, pair.i_eval) if omega else (pair.f_eval, pair.g_eval)
    i1 = _mellin_piece(f_eval, consts[0], consts[1], pair.level, k, pts, T)
    i2 = _mellin_piece(g_eval, consts[2], consts[3], pair.level, k, k - pts, T)
    ik = _i_pow(k)
    return _unbatch(i1 - ik * i2 if omega else i1 + ik * i2, shape)


def _continued(pair: FrickePair, s, T: float | None, omega: bool):
    """_star minus the four simple pole terms (scaled by k, with the g-side
    terms negated, for Omega); ValueError if a point of the batch is a
    pole."""
    flat, shape = _batch(s)
    pts, k = flat.tolist(), pair.weight
    pole = (np.abs(flat[:, None] - np.array([0.0, k, 1.0, k - 1.0])) < 1e-12).any(axis=1)
    if pole.any():
        z = pts[pole.argmax()]
        raise ValueError(f"s = {z} is a pole of the completed series; probe lambda_star/omega_star")
    ik, nfac = _i_pow(k), pair.level ** ((1 - k) / 2.0)
    sgn = -1.0 if omega else 1.0
    out = []
    for a, z in zip(np.ravel(_star(pair, s, T, omega)).tolist(), pts):
        poles = (
            pair.c_f_plus0 / z
            + sgn * pair.c_g_plus0 * ik / (k - z)
            + pair.c_f_minus0 / nfac / (z - k + 1)
            + sgn * pair.c_g_minus0 * ik / nfac / (1 - z)
        )
        out.append(a - k * poles if omega else a - poles)
    return _unbatch(out, shape)


def lambda_star(pair: FrickePair, s, T: float | None = None):
    """The entire completion of Lambda (see _star); vectorised over s."""
    return _star(pair, s, T, omega=False)


def omega_star(pair: FrickePair, s, T: float | None = None):
    """The entire completion of Omega (see _star); vectorised over s."""
    return _star(pair, s, T, omega=True)


def lambda_continued(pair: FrickePair, s, T: float | None = None):
    """Lambda_N(f, s) for arbitrary s away from the four simple poles;
    agrees with lambda_definitional on the certified half-plane.
    Vectorised over s like lambda_star."""
    return _continued(pair, s, T, omega=False)


def omega_continued(pair: FrickePair, s, T: float | None = None):
    """Omega_N(f, s) for arbitrary s away from the poles; vectorised over s."""
    return _continued(pair, s, T, omega=True)


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
    sides; tail_bound is the dropped [T, inf) integrand of f's pair.  Each
    continuation (Lambda and Omega of each side) is one batch call over all
    kept points, with values equal to the point-by-point ones.
    """
    if form_f.weight != form_g.weight:
        raise ValueError("weights differ")
    if form_f.level != form_g.level:
        raise ValueError(f"levels differ: f is at level {form_f.level}, g at {form_g.level}")
    k, level = form_f.weight, form_f.level
    if psi is None:
        pair_f, pair_g = analytic_pair(form_f), analytic_pair(form_g)
        ik = _i_pow(k)
    else:
        pair_f, pair_g, cpsi = _twisted_sides(form_f, form_g, form_f.character, psi, level)
        ik = _i_pow(k) * cpsi
    if T is None:
        T = pair_f.T_default
    poles = (0.0, float(k), 1.0, float(k - 1))
    kept, excluded = [], []
    for s in map(complex, grid):
        if any(abs(s - p) < 1e-9 for p in poles):
            excluded.append(s)
        else:
            kept.append(s)
    pts = np.array(kept, dtype=complex)
    lam_f = lambda_continued(pair_f, pts, T).tolist()
    lam_g = lambda_continued(pair_g, k - pts, T).tolist()
    om_f = omega_continued(pair_f, pts, T).tolist()
    om_g = omega_continued(pair_g, k - pts, T).tolist()
    lam_res = [abs(a - ik * b) for a, b in zip(lam_f, lam_g)]
    om_res = [abs(a + ik * b) for a, b in zip(om_f, om_g)]
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
    equation carries the constant C_psi.  level must be the level N of both
    forms; twist then puts both twists at lcm(N, m^2, m m_chi) = N m^2."""
    m = psi.modulus
    if form_f.level != level or form_g.level != level:
        raise ValueError(f"f and g must be at level {level}, not {form_f.level} and {form_g.level}")
    if math.gcd(m, level) != 1:
        raise ValueError(f"conductor {m} must be coprime to the level {level}")
    cpsi = c_psi(chi, psi, level)
    return analytic_pair(twist(form_f, psi)), analytic_pair(twist(form_g, psi.conjugate())), cpsi


def _twisted(form_f, form_g, chi, psi, level, k, s, T, omega: bool):
    if k != form_f.weight:
        raise ValueError("k must equal the weight of the forms")
    pair_f, pair_g, cpsi = _twisted_sides(form_f, form_g, chi, psi, level)
    continued = omega_continued if omega else lambda_continued
    v_f = continued(pair_f, s, T)
    v_g = continued(pair_g, k - s, T)
    if omega:
        return v_f, v_g, abs(v_f + _i_pow(k) * cpsi * v_g)
    return v_f, v_g, abs(v_f - _i_pow(k) * cpsi * v_g)


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
    return _twisted(form_f, form_g, chi, psi, level, k, s, T, omega=False)


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
    return _twisted(form_f, form_g, chi, psi, level, k, s, T, omega=True)


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

    This is specfun.invert_on_line with fn = lambda_eval, x = t: lambda_eval
    is called once, on all quadrature nodes, and the call raises
    QuadratureError when the 6-node refinement moves the value by more than
    1e-4 |value| + 1e-15.  lambda s: lambda_continued(pair, s) is such a
    callable; level and k are not read.
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
    heuristic."""
    if level in _VERIFICATION_SETS:
        return ConductorSet(level, _VERIFICATION_SETS[level], "paper")
    out, m = [], 3
    while len(out) < 8:
        if _twisting_conductor(m) and math.gcd(m, level) == 1:
            out.append(m)
        m += 1
    return ConductorSet(level, tuple(out), "heuristic")
