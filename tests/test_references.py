"""Lambda and Omega against closed forms, not against the program itself.

Every functional-equation residual compares two continuations of the
program, so an error both sides share cannot show there.  Here the
continuations of the golden oldform pairs and of quadratic twists of the
level-one lift are held to the mpmath values of mpmath_refs, within
1e-10 max(1, |reference|): two orders under the benchmark's true-pair
residual tolerance of 1e-8.  The inverse-Mellin reconstruction of the lift
is held to its closed form on the imaginary axis.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from helpers import oldform_pair
from maassforms.characters import character_by_label
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.forms import twist
from maassforms.lseries import (
    analytic_pair,
    lambda_continued,
    omega_continued,
    reconstruct_from_lambda,
)
from mpmath_refs import (
    WEIGHT,
    lift_axis_value,
    lift_lambda_omega,
    oldform_lambda_omega,
    quadratic_values,
)

BOUND = 1e-10

# the benchmark's verify grid (bench/workloads.py VERIFY_GRID) and its
# reflection s -> k - s
VERIFY_GRID = [complex(re, im) for re in (-1.5, -1.0, -0.5, 0.5, 1.5) for im in (0.5, 1.5, 3.0)]
REFLECTED = [WEIGHT - s for s in VERIFY_GRID]
# the benchmark's converse points (bench/workloads.py TWIST_S) and two lines
TWIST_POINTS = [0.5 + 0.5j, -1.0 + 1.0j, 2.0 + 0.25j] + [
    complex(re, im) for re in (-1.5, 1.5) for im in (0.5, 1.5, 3.0)
]
# three lines at |Im s| = 7.5, 10, ..., 60 with alternating sign; past
# |Im s| = 23 the Mellin panels narrow as |Im s| grows
HIGH_POINTS = [
    complex(re, (-1) ** j * (7.5 + 2.5 * j)) for re in (-1.0, 0.5, 2.0) for j in range(22)
]


def worst_relative_error(form, points, reference) -> float:
    """max over the points and over Lambda and Omega of
    |value - reference| / max(1, |reference|)."""
    pair, pts = analytic_pair(form), np.array(points)
    got = (lambda_continued(pair, pts), omega_continued(pair, pts))
    worst = 0.0
    for s, lam, om in zip(points, *got):
        for value, ref in zip((lam, om), reference(s)):
            worst = max(worst, abs(value - ref) / max(1.0, abs(ref)))
    return worst


@pytest.mark.parametrize("level", [1, 2, 7, 11])
def test_golden_pairs_meet_the_closed_form(level):
    # f's pair on the grid and g's on the grid and its reflection.  f's pair
    # at k - s, the reading fe_residuals does not certify, is left out: at
    # N = 7 and 11 it is off by 1.1e-9 and 4.0e-9 (see fe_residuals)
    f, g = oldform_pair(level)
    for form, side, points in ((f, "f", VERIFY_GRID), (g, "g", VERIFY_GRID + REFLECTED)):
        ref = partial(oldform_lambda_omega, level, side)
        assert worst_relative_error(form, points, ref) <= BOUND, side


@pytest.mark.parametrize("q", [3, 4, 5])
def test_twisted_lift_meets_the_closed_form(q):
    # psi mod 7 and larger conductors sit nearer the quadrature's floor at
    # this n_max and are left to a predicted bound
    psi = character_by_label(q, "quadratic")
    values = quadratic_values(q)
    assert np.allclose([psi(a) for a in range(q)], values, rtol=0.0, atol=1e-12)
    form = twist(harmonic_eisenstein_level_one(1600), psi)
    err = worst_relative_error(form, TWIST_POINTS, lambda s: lift_lambda_omega(s, values))
    assert err <= BOUND


@pytest.mark.parametrize("q", [1, 3, 5])
def test_lift_meets_the_closed_form_high_on_the_line(q):
    # the level-one lift at n_max 1600 and its psi mod 3 and mod 5 twists.
    # Here |Lambda| falls to 1e-38, so the bound is absolute; a panel rule
    # that lets t^{i Im s} turn 12 radians over half a panel reads 3.0e-10
    # at s = 2 + 57.5i for psi mod 5
    form, values = harmonic_eisenstein_level_one(1600), (1,)
    if q > 1:
        form, values = twist(form, character_by_label(q, "quadratic")), quadratic_values(q)
    err = worst_relative_error(form, HIGH_POINTS, lambda s: lift_lambda_omega(s, values))
    assert err <= BOUND


def test_reconstruction_meets_the_closed_form_within_its_witness():
    # the n_max 40 lift rebuilt from Lambda on Re s = 2, |Im s| <= 40: off
    # its axis values within the witness it reports, itself below 1e-12 and
    # the error within 1.5e-14
    pair = analytic_pair(harmonic_eisenstein_level_one(40))
    for t in (0.5, 0.8, 1.0, 1.5, 2.0):
        got, info = reconstruct_from_lambda(
            lambda s: lambda_continued(pair, s), 1, WEIGHT, t, 2.0, 40.0, full_output=True
        )
        err = abs(got - lift_axis_value(t, 40))
        assert err <= info["witness"] <= 1e-12 and err <= 1.5e-14, t


def test_a_wrong_partner_fails_the_closed_form():
    # the level-7 partner with c-(0) missing its N^{1-k} factor, the
    # benchmark's c-(0)/N^(1-k) perturbation, is off by orders of magnitude
    f, g = oldform_pair(7)
    wrong = replace(g, c_minus_zero=g.c_minus_zero / 7.0 ** (1 - WEIGHT))
    ref = partial(oldform_lambda_omega, 7, "g")
    assert worst_relative_error(wrong, VERIFY_GRID + REFLECTED, ref) > 1.0
