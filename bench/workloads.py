"""The three workloads: each round is a fixed list of operations on the
public functions of the library, and a check of their outputs against the
references in refs.py (or against a property the method must have).

A workload exposes
    make_round(seed, index) -> Round   fresh inputs for one round (untimed)
    warmup(seed, index)                one operation on inputs no round uses

The seed varies tau points, s offsets, the perturbed coefficient and the
cusp scaling representative; it never changes the number or the size of the
operations.  index numbers the round (or the warm-up), so a run that needs a
second round gets distinct inputs and cold operations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refs
from maassforms import characters, eisenstein, forms, lseries, modgroup

K = refs.WEIGHT


@dataclass
class Op:
    """One timed program call.  fault marks an operation hit by the known
    forms.twist sign fault (an odd twisting character): its failure is
    counted, and its error stays out of the accuracy witness."""

    name: str
    call: Callable[[], object]
    fault: bool = False


@dataclass
class Verdict:
    ok: bool
    error: float | None  # relative error entering accuracy_digits, if any
    detail: str = ""


@dataclass
class Round:
    ops: list
    check: Callable[[list], list]  # outputs, in op order -> list[Verdict]


def _rng(seed: int, index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, salt])


def as_form(coeffs: refs.Coefficients, level: int) -> forms.FormExpansion:
    return forms.FormExpansion(
        weight=coeffs.weight,
        level=level,
        character=characters.trivial_character(level),
        alpha=0.0,
        n_max=coeffs.n_max,
        c_plus=coeffs.c_plus,
        c_minus_zero=coeffs.c_minus_zero,
        c_minus=coeffs.c_minus,
    )


def as_coefficients(form: forms.FormExpansion) -> refs.Coefficients:
    return refs.Coefficients(form.weight, form.c_plus, form.c_minus_zero, form.c_minus)


# ---------------------------------------------------------------------------
# construct: harmonic lifts at every cusp


CONSTRUCT_LEVELS = (2, 6, 7, 8, 10)
CONSTRUCT_BOUND = 60
CONSTRUCT_MODES = 8


def _shifted(rho: modgroup.Cusp, shift: int) -> modgroup.Cusp:
    """The same cusp with scaling matrix gamma_rho T^{width * shift}.

    The bottom rows of gamma_rho^{-1} g, the coset enumeration and the lift
    are unchanged (T^width conjugates into Gamma_0(N)), but the input is
    distinct, so no cache of an earlier call can serve it."""
    scaling = rho.scaling @ modgroup.translation(rho.width * shift)
    return dataclasses.replace(rho, scaling=scaling)


def _lift(level: int, label: str, shift: int, bound: int):
    """One `maassforms example` run without the CLI: resolve the cusp, then
    extract the lift's Fourier data with its witness."""
    chi = characters.trivial_character(level)

    def call():
        rho = next(r for r in modgroup.cusps(level) if r.label() == label)
        return eisenstein.f_expansion(
            level, chi, K, _shifted(rho, shift), CONSTRUCT_MODES, bound=bound, full_output=True
        )

    return call


def check_cusp_sums(level_outputs: dict, cusp_labels: dict, ref: refs.Coefficients):
    """Per level, the lifts at all cusps sum to the level-1 lift datum by
    datum within twice the summed witness, and c-(0) is 1/3 at infinity and
    0 elsewhere within twice its own witness.  Returns {level: (ok, worst
    relative error of the summed c-(0) and c-(-n), detail)}."""
    out = {}
    for level, results in level_outputs.items():
        total = {"c_plus": 0.0, "c_minus_zero": 0.0, "c_minus": 0.0}
        slack = {"c_plus": 0.0, "c_minus_zero": 0.0, "c_minus": 0.0}
        ok, detail = True, []
        for (form, wit), label in zip(results, cusp_labels[level]):
            total["c_plus"] = total["c_plus"] + form.c_plus
            total["c_minus_zero"] = total["c_minus_zero"] + form.c_minus_zero
            total["c_minus"] = total["c_minus"] + form.c_minus
            for key in slack:
                slack[key] = slack[key] + np.asarray(wit[key])
            want0 = 1.0 / 3.0 if label == "inf" else 0.0
            if not abs(form.c_minus_zero - want0) <= 2.0 * wit["c_minus_zero"]:
                ok = False
                detail.append(f"c-(0) at {label}: {form.c_minus_zero:.3e} vs {want0:.3e}")
        want = {"c_plus": ref.c_plus, "c_minus_zero": ref.c_minus_zero, "c_minus": ref.c_minus}
        ratio = 0.0
        for key in total:
            err = np.abs(np.asarray(total[key]) - want[key])
            ok = ok and bool(np.all(err <= 2.0 * slack[key]))
            ratio = max(ratio, float(np.max(err / slack[key])))
        detail.insert(0, f"max err/witness {ratio:.2f}")
        rel = [abs(total["c_minus_zero"] - ref.c_minus_zero) / abs(ref.c_minus_zero)]
        rel += list(np.abs(total["c_minus"] - ref.c_minus) / np.abs(ref.c_minus))
        out[level] = (ok, max(rel), "; ".join(detail))
    return out


def construct_round(seed: int, index: int) -> Round:
    shift = 1 + seed % 97 + 97 * index
    ops, labels, slots = [], {}, []
    for level in CONSTRUCT_LEVELS:
        labels[level] = [rho.label() for rho in modgroup.cusps(level)]
        for label in labels[level]:
            slots.append(level)
            ops.append(Op(f"N{level}@{label}", _lift(level, label, shift, CONSTRUCT_BOUND)))
    ref = refs.level_one_lift(CONSTRUCT_MODES)

    def check(outputs):
        by_level: dict = {}
        for level, out in zip(slots, outputs):
            by_level.setdefault(level, []).append(out)
        sums = check_cusp_sums(by_level, labels, ref)
        return [Verdict(sums[lv][0], sums[lv][1], sums[lv][2]) for lv in slots]

    return Round(ops, check)


def construct_warmup(seed: int, index: int):
    _lift(1, "inf", 1 + seed % 97 + 97 * index, CONSTRUCT_BOUND // 2)()


# ---------------------------------------------------------------------------
# verify: functional equations of golden Fricke pairs with f != g


VERIFY_LEVELS = (1, 2, 7, 11)
VERIFY_BASE = 40
VERIFY_GRID = [complex(re, im) for re in (-1.5, -1.0, -0.5, 0.5, 1.5) for im in (0.5, 1.5, 3.0)]
TRUE_TOL = 1e-8
PERTURBED_MIN = 1e-3


def golden_pair(level: int, base: int = VERIFY_BASE):
    """(f, g) reference data: the level-1 lift read at level N, truncated at
    N * base, and its Fricke partner N^{k/2} F(N tau)."""
    lift = refs.level_one_lift(base)
    if level == 1:
        return lift, lift
    return refs.level_one_lift(level * base), refs.oldform_partner(lift, level)


def perturbed(g: refs.Coefficients, index: int) -> refs.Coefficients:
    c_plus = g.c_plus.copy()
    c_plus[index] *= 1.01
    return dataclasses.replace(g, c_plus=c_plus)


def _offset_im(rng: np.random.Generator, grid):
    """The grid moved by a common offset in Im s only: residuals grow with
    |Re s - k/2|, so a real offset would move the accuracy witness."""
    shift = 1j * rng.uniform(-0.1, 0.1)
    return [s + shift for s in grid]


def _residuals(f, g, grid):
    return lambda: lseries.fe_residuals(f, g, grid)


def verify_round(seed: int, index: int) -> Round:
    rng = _rng(seed, index, 1)
    ops, kinds = [], []
    for level in VERIFY_LEVELS:
        f, g = golden_pair(level)
        ff, gf = as_form(f, level), as_form(g, level)
        ops.append(Op(f"N{level}:true", _residuals(ff, gf, _offset_im(rng, VERIFY_GRID))))
        kinds.append("true")
        j = level * int(rng.integers(1, 5))
        gp = as_form(perturbed(g, j), level)
        ops.append(Op(f"N{level}:c+({j})*1.01", _residuals(ff, gp, _offset_im(rng, VERIFY_GRID))))
        kinds.append("perturbed")
        if level > 1:
            # the partner's c-(0) without its N^{1-k} factor
            gw = as_form(refs.oldform_partner(refs.level_one_lift(VERIFY_BASE), level, 1.0), level)
            ops.append(Op(f"N{level}:c-(0)/N^(1-k)", _residuals(ff, gw, _offset_im(rng, VERIFY_GRID))))
            kinds.append("perturbed")

    return Round(ops, lambda outputs: [fe_verdict(k, rep) for k, rep in zip(kinds, outputs)])


def fe_verdict(kind: str, rep: lseries.ResidualReport) -> Verdict:
    """A true pair has residuals <= TRUE_TOL; a perturbed partner must show
    a residual above PERTURBED_MIN.  The grid avoids the poles, so an
    excluded point is a failure."""
    worst = rep.max_residual
    if rep.excluded:
        return Verdict(False, None, f"pole points excluded: {rep.excluded}")
    if kind == "true":
        return Verdict(worst <= TRUE_TOL, worst, f"residual {worst:.2e}")
    return Verdict(worst > PERTURBED_MIN, None, f"residual {worst:.2e}")


def verify_warmup(seed: int, index: int):
    f, g = golden_pair(3, base=12)
    rng = _rng(seed, index, 2)
    lseries.fe_residuals(as_form(f, 3), as_form(g, 3), _offset_im(rng, VERIFY_GRID[:3]))


# ---------------------------------------------------------------------------
# converse: twisted functional equations, twist data, reconstruction


TWIST_N_MAX = 400
TWIST_S = (0.5 + 0.5j, -1.0 + 1.0j, 2.0 + 0.25j)
TWIST_TOL = 1e-4
SLASH_TOL = 1e-8
RECON_T = (0.8, 1.0, 1.5)
RECON_TOL = 1e-4


def _psi(m: int) -> characters.DirichletCharacter:
    """The quadratic character mod the prime m (the unique nontrivial one
    mod 4), from the program, checked against Euler's criterion."""
    psi = characters.character_by_label(m, "quadratic")
    want = [0, 1, 0, -1] if m == 4 else list(refs.quadratic_values(m))
    got = [psi(a) for a in range(m)]
    if not np.allclose(got, want, atol=1e-12):
        raise RuntimeError(f"character mod {m} is not the quadratic character")
    return psi


def _odd(m: int) -> bool:
    """psi(-1) = -1 for the quadratic character mod m (m = 4 or a prime)."""
    return m == 4 or m % 4 == 3


def _twisted_fe(f, psi, s):
    def call():
        lam, _, r_lam = lseries.twisted_lambda(f, f, f.character, psi, 1, K, s)
        om, _, r_om = lseries.twisted_omega(f, f, f.character, psi, 1, K, s)
        return [(r_lam, lam), (r_om, om)]

    return call


def _twist_data(f, g, psi, level):
    def call():
        chi = characters.trivial_character(level)
        return forms.twist(f, psi), forms.twist(g, psi.conjugate()), characters.c_psi(chi, psi, level)

    return call


def _reconstruct(f, t):
    def call():
        pair = lseries.analytic_pair(f)
        return lseries.reconstruct_from_lambda(
            lambda s: lseries.lambda_continued(pair, s), 1, K, t, 2.0, 40.0
        )

    return call


def check_twist_data(out, f_ref, g_ref, psi_vals, level: int, taus) -> Verdict:
    """forms.twist against the slash sum f_psi = tau(psi_bar)^{-1}
    sum_u psi_bar(u) f(tau + u/m) (and g_psibar against the same sum with
    psi), and c_psi against psi(-N) tau(psi)/tau(psi_bar) for the trivial
    character; psi_vals is the reference table psi(0..m-1)."""
    f_psi, g_psibar, cpsi = out
    m = len(psi_vals)
    worst = 0.0
    for form, base, vals in ((f_psi, f_ref, np.conj(psi_vals)), (g_psibar, g_ref, psi_vals)):
        want = refs.slash_sum(base, vals, taus)
        got = refs.evaluate(as_coefficients(form), taus)
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
    want_c = psi_vals[-level % m] * refs.gauss_sum(psi_vals) / refs.gauss_sum(np.conj(psi_vals))
    c_err = abs(cpsi - want_c)
    ok = worst <= SLASH_TOL and c_err <= SLASH_TOL and f_psi.level == level * m * m
    return Verdict(ok, max(worst, c_err), f"slash-sum {worst:.2e}, C_psi {c_err:.2e}")


def converse_round(seed: int, index: int) -> Round:
    rng = _rng(seed, index, 3)
    ops, checks = [], []

    lift400 = as_form(refs.level_one_lift(TWIST_N_MAX), 1)
    def check_fe(res):
        worst = max(r for r, _ in res)
        rel = max(r / abs(v) for r, v in res)
        return Verdict(worst <= TWIST_TOL, rel, f"twisted residual {worst:.2e}")

    for m in (3, 4, 5):
        psi = _psi(m)
        for s in _offset_im(rng, TWIST_S):
            ops.append(Op(f"fe-twist-{m}@{s:.2f}", _twisted_fe(lift400, psi, s), fault=_odd(m)))
            checks.append(check_fe)

    for level in (7, 11):
        f_ref, g_ref = golden_pair(level)
        f, g = as_form(f_ref, level), as_form(g_ref, level)
        for m in lseries.verification_set(level).conductors:
            psi = _psi(m)
            taus = rng.uniform(0.0, 1.0, 3) + 1j * rng.uniform(0.5, 1.0, 3)
            ops.append(Op(f"twist-N{level}-{m}", _twist_data(f, g, psi, level), fault=_odd(m)))
            checks.append(
                lambda out, fr=f_ref, gr=g_ref, m=m, level=level, taus=taus: check_twist_data(
                    out, fr, gr, refs.quadratic_values(m), level, taus
                )
            )

    lift40 = refs.level_one_lift(40)
    f40 = as_form(lift40, 1)
    for t0 in RECON_T:
        t = t0 * (1.0 + rng.uniform(-0.02, 0.02))
        ops.append(Op(f"reconstruct-t{t0}", _reconstruct(f40, t)))
        f_it = complex(refs.evaluate(lift40, np.array([1j * t]))[0])
        want = f_it - lift40.c_plus[0] - lift40.c_minus_zero * t**3

        def check_recon(got, want=want):
            err = abs(got - want)
            return Verdict(err <= RECON_TOL, err / abs(want), f"reconstruction error {err:.2e}")

        checks.append(check_recon)

    return Round(ops, lambda outputs: [c(o) for c, o in zip(checks, outputs)])


WARMUP_CONDUCTORS = (53, 61, 73, 89, 97)  # even, and in no round


def converse_warmup(seed: int, index: int):
    m = WARMUP_CONDUCTORS[index % len(WARMUP_CONDUCTORS)]
    f_ref, g_ref = golden_pair(2, base=20)
    out = _twist_data(as_form(f_ref, 2), as_form(g_ref, 2), _psi(m), 2)()
    taus = _rng(seed, index, 4).uniform(0.0, 1.0, 2) + 0.8j
    check_twist_data(out, f_ref, g_ref, refs.quadratic_values(m), 2, taus)


WORKLOADS = {
    "construct": (construct_round, construct_warmup),
    "verify": (verify_round, verify_warmup),
    "converse": (converse_round, converse_warmup),
}
