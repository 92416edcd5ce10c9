"""The benchmark's references are right, and each of its checks can fail.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import cmath
import math

import numpy as np
import pytest

import refs
import workloads as W
from maassforms import characters, eisenstein, lseries, modgroup

GRID = W.VERIFY_GRID[::3]


def test_sigma3_sieve_matches_divisor_sums():
    s3 = refs.sigma3(60)
    for n in range(1, 61):
        assert s3[n] == sum(d**3 for d in range(1, n + 1) if n % d == 0)


def test_reference_lift_is_invariant_under_inversion():
    """F|_{-2} S = F, i.e. tau^2 F(-1/tau) = F(tau), from the series alone."""
    lift = refs.level_one_lift(40)
    taus = np.array([0.1 + 1.1j, -0.3 + 0.9j, 0.45 + 1.3j])
    lhs = taus**2 * refs.evaluate(lift, -1.0 / taus)
    assert np.max(np.abs(lhs - refs.evaluate(lift, taus))) < 1e-12


def test_oldform_partner_is_the_scaled_dilation():
    """g(tau) = N^{k/2} F(N tau) pointwise, for the truncation at N * n_max."""
    lift = refs.level_one_lift(30)
    taus = np.array([0.2 + 0.5j, -0.4 + 0.7j])
    for level in (2, 7):
        g = refs.oldform_partner(lift, level)
        want = float(level) ** (refs.WEIGHT / 2.0) * refs.evaluate(lift, level * taus)
        assert np.max(np.abs(refs.evaluate(g, taus) - want)) < 1e-14


@pytest.mark.parametrize("m", [3, 5, 7, 13])
def test_quadratic_gauss_sums(m):
    tau = refs.gauss_sum(refs.quadratic_values(m))
    parity = 1 if m % 4 == 1 else -1
    assert abs(tau * tau - parity * m) < 1e-10


def _verdict(f_form, g_ref, level, kind):
    rep = lseries.fe_residuals(f_form, W.as_form(g_ref, level), GRID)
    return W.fe_verdict(kind, rep)


def test_true_pair_check_passes_and_turns_red_on_a_perturbed_partner():
    f, g = W.golden_pair(2)
    ff = W.as_form(f, 2)
    assert _verdict(ff, g, 2, "true").ok
    bad = W.perturbed(g, 2)
    assert not _verdict(ff, bad, 2, "true").ok
    assert _verdict(ff, bad, 2, "perturbed").ok


def test_true_pair_check_turns_red_on_a_wrong_partner_constant():
    lift = refs.level_one_lift(W.VERIFY_BASE)
    f = W.as_form(refs.level_one_lift(2 * W.VERIFY_BASE), 2)
    wrong = refs.oldform_partner(lift, 2, c0_factor=1.0)  # N^{1-k} left out
    assert not _verdict(f, wrong, 2, "true").ok


def _cubic_mod_7():
    """An even, non-real primitive character mod 7 and its reference table."""
    omega = cmath.exp(2j * math.pi / 3)
    vals = np.zeros(7, dtype=complex)
    for j in range(6):
        vals[pow(3, j, 7)] = omega**j  # 3 generates (Z/7)^*
    psi = next(
        p for p in characters.enumerate_characters(7)
        if np.allclose([p(a) for a in range(7)], vals, atol=1e-12)
    )
    return psi, vals


def test_twist_check_passes_and_turns_red_when_psi_and_psibar_swap():
    psi, vals = _cubic_mod_7()
    f, g = W.golden_pair(2, base=10)
    ff, gf = W.as_form(f, 2), W.as_form(g, 2)
    taus = np.array([0.3 + 0.6j, 0.8 + 0.9j])
    good = W._twist_data(ff, gf, psi, 2)()
    assert W.check_twist_data(good, f, g, vals, 2, taus).ok
    swapped = W._twist_data(ff, gf, psi.conjugate(), 2)()
    assert not W.check_twist_data(swapped, f, g, vals, 2, taus).ok


def test_cusp_sum_check_turns_red_when_a_cusp_is_missing():
    level, bound = 2, 30
    chi = characters.trivial_character(level)
    ref = refs.level_one_lift(W.CONSTRUCT_MODES)
    labels, outs = [], []
    for rho in modgroup.cusps(level):
        labels.append(rho.label())
        outs.append(eisenstein.f_expansion(level, chi, refs.WEIGHT, rho, W.CONSTRUCT_MODES,
                                           bound=bound, full_output=True))
    ok, _, _ = W.check_cusp_sums({level: outs}, {level: labels}, ref)[level]
    assert ok
    ok, _, _ = W.check_cusp_sums({level: outs[:1]}, {level: labels[:1]}, ref)[level]
    assert not ok


def test_benchmark_json_lists_the_metrics_a_run_prints():
    import json
    from pathlib import Path

    import run
    import tracer

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.METRICS + run.TRACE_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_judge_fails_every_operation_of_a_round_that_raised():
    import run

    rnd = W.Round([W.Op("a", None), W.Op("b", None)], lambda outs: [W.Verdict(True, 0.0)] * 2)
    verdicts = run.judge(rnd, [ValueError("boom"), 1.0])
    assert [v.ok for v in verdicts] == [False, False]
    assert [v.ok for v in run.judge(rnd, [1.0, 2.0])] == [True, True]
