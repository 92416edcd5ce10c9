"""The three rules every batched entry point keeps, checked over all of them.

The batch rule: a scalar is a batch of one and comes back as a Python
complex (a tuple of them from TermSeries.jet, and a float residual from the
twisted triples); an array comes back in its own shape, each entry equal to
its lone-point value.  The half-plane rule: every tau entry point refuses a
point that is not finite with Im tau > 0, with one message.  The pole rule:
the continuations refuse s near 0, k, 1 and k - 1, and fe_residuals
excludes such points.
"""

import math
from functools import cache

import numpy as np
import pytest

from maassforms.characters import DirichletCharacter, character_by_label, trivial_character
from maassforms.eisenstein import eisenstein_series, f_series, harmonic_eisenstein_level_one
from maassforms.forms import HolomorphicQExpansion, evaluate, to_terms
from maassforms.lseries import (
    analytic_pair,
    fe_residuals,
    lambda_continued,
    lambda_star,
    omega_continued,
    omega_star,
    twisted_lambda,
    twisted_omega,
)
from maassforms.modgroup import cusps, fricke, slash
from maassforms.specfun import gamma_complex, w_nu

TRIV1 = trivial_character(1)
INF1 = cusps(1)[0]
HALF_PLANE = "tau must be finite and lie in the upper half-plane"


@cache
def lift():
    return harmonic_eisenstein_level_one(12)


@cache
def pair():
    return analytic_pair(lift())


# psi mod 3 is real, so f = g twists into one pair; psi mod 5 has order 4,
# so the two sides are two pairs
PSI3, PSI5 = character_by_label(3, "quadratic"), DirichletCharacter(5, (1,))


TAU_ENTRIES = {
    "TermSeries.eval": lambda tau: to_terms(lift()).eval(tau),
    "TermSeries.jet": lambda tau: to_terms(lift()).jet(tau),
    "HolomorphicQExpansion.evaluate": lambda tau: HolomorphicQExpansion(
        4, 1, [1.0, 240.0, 2160.0, 6720.0]
    ).evaluate(tau),
    "forms.evaluate": lambda tau: evaluate(lift(), tau),
    "modgroup.slash": lambda tau: slash(to_terms(lift()).eval, -2, fricke(3), tau),
    "eisenstein_series": lambda tau: eisenstein_series(1, TRIV1, -2, INF1, tau, bound=12),
    "f_series": lambda tau: f_series(1, TRIV1, -2, INF1, tau, bound=12),
}

S_ENTRIES = {
    "gamma_complex": gamma_complex,
    "w_nu": lambda s: w_nu(3, s),
    "lambda_star": lambda s: lambda_star(pair(), s),
    "omega_star": lambda s: omega_star(pair(), s),
    "lambda_continued": lambda s: lambda_continued(pair(), s),
    "omega_continued": lambda s: omega_continued(pair(), s),
    "twisted_lambda mod 3": lambda s: twisted_lambda(lift(), lift(), TRIV1, PSI3, 1, -2, s),
    "twisted_omega mod 5": lambda s: twisted_omega(lift(), lift(), TRIV1, PSI5, 1, -2, s),
}

TAUS = np.array([[0.1 + 0.7j, -0.4 + 0.05j, 0.7j], [0.25 + 1.5j, 0.5 + 0.3j, -0.9 + 0.9j]])
# Re s > 0 for w_nu, off the poles 0, -2, 1, -3 of weight -2, and |Im s|
# spread over several Mellin panel counts
SS = np.array([[0.5 + 0.5j, 2.0 + 0.25j, 0.3 - 3.0j], [1.5 + 0j, 0.7 + 12.0j, 3.0 - 0.5j]])


def _parts(value):
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name", [*TAU_ENTRIES, *S_ENTRIES])
def test_batch_and_half_plane_rules(name):
    fn = TAU_ENTRIES.get(name) or S_ENTRIES[name]
    points = TAUS if name in TAU_ENTRIES else SS
    lone = [[_parts(fn(z)) for z in row] for row in points.tolist()]
    for parts in (p for row in lone for p in row):
        types = (complex, complex, float) if name.startswith("twisted") else (complex,) * len(parts)
        assert tuple(map(type, parts)) == types
    batch = _parts(fn(points))
    assert len(batch) == len(lone[0][0])
    for j, values in enumerate(batch):
        assert values.shape == (2, 3)
        assert values.tolist() == [[p[j] for p in row] for row in lone]
    if name in TAU_ENTRIES:
        for bad in (0.3, 0.3 - 1j, complex(0.0, math.nan), complex(math.inf, 1.0)):
            for point in (bad, np.array([0.5j, bad])):
                with pytest.raises(ValueError, match=HALF_PLANE):
                    fn(point)


@pytest.mark.parametrize("name", ["lambda_continued", "omega_continued", "twisted_lambda mod 3"])
@pytest.mark.parametrize("pole", [0.0, -2.0, 1.0, -3.0])
def test_the_continuations_refuse_the_poles(name, pole):
    for s in (pole + 1e-13, np.array([0.5 + 0.5j, pole - 1e-13j])):
        with pytest.raises(ValueError, match="is a pole of the completed series"):
            S_ENTRIES[name](s)


def test_fe_residuals_excludes_the_points_near_the_poles():
    grid = [0.5 + 0.5j, 1e-10, -2.0 + 1e-10j, 1.0, -3.0, -3.0 + 1e-8j]
    rep = fe_residuals(lift(), lift(), grid)
    assert rep.excluded == [1e-10 + 0j, -2.0 + 1e-10j, 1.0 + 0j, -3.0 + 0j]
    assert rep.grid == [0.5 + 0.5j, -3.0 + 1e-8j]
    assert all(type(s) is complex for s in rep.grid + rep.excluded)
