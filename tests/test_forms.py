"""Expansions, exact termwise operators, twists, coefficient extraction.

The term algebra makes every operator identity exact up to rounding, so
tolerances here sit at 1e-9..1e-12; finite differences appear only as an
independent cross-check at their own accuracy floor.
"""

import cmath
import json
import math
import os
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_random_form, random_tau
from maassforms.characters import (
    DirichletCharacter,
    character_by_label,
    enumerate_characters,
    gauss_sum,
    trivial_character,
    unit_group_generators,
)
from maassforms import forms
from maassforms.eisenstein import f_expansion
from maassforms.forms import (
    _POINT_BLOCK,
    _TERM_CHUNK,
    TWO_PI,
    FormExpansion,
    IllConditionedError,
    TermSeries,
    bol,
    bol_op,
    evaluate,
    evaluate_tail_bound,
    extract_coefficients,
    growth_constant,
    h_from_jet,
    h_op,
    h_transform,
    jet1,
    laplacian,
    laplacian_op,
    load_form,
    lowering,
    lowering_op,
    raising,
    raising_op,
    save_form,
    shadow,
    slash_jet1,
    to_terms,
    twist,
    two_height_solve,
    xi_op,
)
from maassforms.modgroup import RationalMatrix, cusps, fricke

TRIV = trivial_character(1)
FOURPI = 4.0 * math.pi


def simple_form(k=-2, n_max=4, c_plus=None, c_minus_zero=0.0, c_minus=None, level=1):
    cp = np.zeros(n_max + 1, dtype=complex)
    cm = np.zeros(n_max, dtype=complex)
    if c_plus:
        for n, v in c_plus.items():
            cp[n] = v
    if c_minus:
        for n, v in c_minus.items():
            cm[-n - 1] = v
    return FormExpansion(k, level, trivial_character(level), 0.0, n_max,
                         cp, c_minus_zero, cm)


class TestEvaluate:
    def test_constant(self):
        f = simple_form(c_plus={0: 1.0})
        for tau in (0.2 + 0.5j, -1.0 + 3.0j):
            assert evaluate(f, tau) == pytest.approx(1.0)

    def test_v_power(self):
        f = simple_form(k=-2, c_minus_zero=1.0)
        tau = 0.4 + 0.7j
        assert evaluate(f, tau) == pytest.approx(0.7**3, rel=1e-14)

    def test_single_q(self):
        f = simple_form(c_plus={1: 1.0})
        assert evaluate(f, 1j) == pytest.approx(math.exp(-2.0 * math.pi), rel=1e-13)

    def test_nonholomorphic_term(self):
        # c-(-1) Gamma(3, 4 pi v) q^{-1} at u = 0, stably evaluated
        f = simple_form(k=-2, c_minus={-1: 1.0})
        from maassforms.specfun import _inc_gamma_scaled

        for v in (0.3, 1.0, 5.0, 40.0):
            want = _inc_gamma_scaled(3, FOURPI * v, 2.0 * math.pi * v)
            assert evaluate(f, 1j * v) == pytest.approx(want, rel=1e-12)

    def test_vectorized(self, rng):
        f = make_random_form(rng)
        taus = np.array([0.1 + 0.5j, 0.2 + 1j, -0.3 + 2j])
        vals = evaluate(f, taus)
        assert vals.shape == (3,)
        for t, v in zip(taus, vals):
            assert v == pytest.approx(evaluate(f, complex(t)))

    def test_rejects_lower_half_plane(self, rng):
        f = make_random_form(rng)
        with pytest.raises(ValueError):
            evaluate(f, 0.5 - 1.0j)

    def test_tail_bound_honest(self, rng):
        # dropping coefficients beyond m changes the value by at most the bound
        full = make_random_form(rng, n_max=12)
        clipped = FormExpansion(
            full.weight, full.level, full.character, full.alpha, 6,
            full.c_plus[:7], full.c_minus_zero, full.c_minus[:6],
        )
        c = growth_constant(full)
        for v in (0.6, 1.0, 2.0):
            tau = 0.17 + 1j * v
            diff = abs(evaluate(full, tau) - evaluate(clipped, tau))
            assert diff <= evaluate_tail_bound(clipped, v, constant=c) + 1e-15


def loop_eval(ts, taus):
    """The per-term loop that TermSeries.eval replaced, kept as the oracle:
    the value and sum |term| at each point of the array taus."""
    u, v = taus.real, taus.imag
    out = np.zeros(taus.shape, dtype=complex)
    mag = np.zeros(taus.shape)
    for (f, p, g), c in ts.terms.items():
        term = c * np.exp(1j * TWO_PI * float(f) * u + TWO_PI * float(g) * v)
        if p:
            term = term * v ** float(p)
        out = out + term
        mag = mag + abs(term)
    return out, mag


def loop_terms(form):
    """A form's exact dict built term by term, one coefficient at a time,
    kept as the oracle of to_terms: the terms in their order, each product
    formed as for a lone term."""
    nu = 1 - form.weight
    gamma_nu = math.gamma(nu)
    terms = {}
    for n in range(form.n_max + 1):
        c = complex(form.c_plus[n])
        if c != 0:
            terms[(Fraction(n), 0, Fraction(-n))] = c
    if form.c_minus_zero != 0:
        terms[(Fraction(0), nu, Fraction(0))] = form.c_minus_zero
    for m in range(1, form.n_max + 1):
        c = complex(form.c_minus[m - 1])
        if c == 0:
            continue
        fourpim = 4.0 * math.pi * m
        coef_l = gamma_nu
        freq = Fraction(-m)
        for l in range(nu):
            z = c * coef_l
            if z != 0:
                terms[(freq, l, freq)] = z
            coef_l *= fourpim / (l + 1)
    return terms


def identical(a, b) -> bool:
    """a == b bit for bit (signed zeros too), through tuples and lists."""
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(identical, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def expansion(k, c_plus, c_minus_zero, c_minus):
    n_max = len(c_minus)
    return FormExpansion(k, 1, TRIV, 0.0, n_max, np.array(c_plus, dtype=complex),
                         c_minus_zero, np.array(c_minus, dtype=complex))


# coefficient parts: zero, O(1), subnormal and near the top of the range
coefficient_parts = st.one_of(
    st.just(0.0), st.floats(-10.0, 10.0), st.sampled_from([5e-324, -1e-310, 1e300, -1e300])
)
coefficients = st.builds(complex, coefficient_parts, coefficient_parts)


@st.composite
def expansions(draw):
    k, n_max = draw(st.integers(-5, -1)), draw(st.integers(1, 80))
    blocks = []
    for size in (n_max + 1, n_max):
        # dense, all zero, or a few isolated nonzeros
        kind = draw(st.sampled_from(["dense", "zero", "isolated"]))
        block = [0j] * size
        if kind == "dense":
            block = draw(st.lists(coefficients, min_size=size, max_size=size))
        elif kind == "isolated":
            for i in draw(st.sets(st.integers(0, size - 1), max_size=3)):
                block[i] = draw(coefficients)
        blocks.append(block)
    return expansion(k, blocks[0], draw(st.one_of(st.just(0j), coefficients)), blocks[1])


# series whose terms reach every case of the evaluator: raising_op brings
# vpow -1, xi_op conjugated (negated) frequencies, d_v and h_op mixed vpows,
# and the 3/7 scaling frequencies that are not integers
SERIES = {
    "f": lambda ts, k: ts,
    "d_u": lambda ts, k: ts.d_u(),
    "d_v": lambda ts, k: ts.d_v(),
    "h_op": h_op,
    "raising_op": raising_op,
    "xi_op": xi_op,
    "freq * 3/7": lambda ts, k: TermSeries.from_items(
        ((f * Fraction(3, 7), p, g * Fraction(3, 7)), c) for (f, p, g), c in ts.terms.items()
    ),
}
point_lists = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.2, 2.0)).map(lambda p: complex(*p)),
    min_size=1,
    max_size=8,
)


class TestVectorisedEvaluator:
    @given(st.integers(0, 2**32 - 1), st.integers(-3, -1), st.integers(1, 12),
           st.sampled_from(sorted(SERIES)), point_lists)
    def test_eval_and_jet_match_the_term_loop(self, seed, k, n_max, name, points):
        form = make_random_form(np.random.default_rng(seed), k=k, n_max=n_max)
        ts = SERIES[name](to_terms(form), k)
        taus = np.array(points)
        want, mag = loop_eval(ts, taus)
        value = ts.eval(taus)
        assert np.all(np.abs(value - want) <= 1e-14 * mag)
        f, fu, fv = ts.jet(taus)
        assert np.array_equal(f, value)
        for got, series in ((fu, ts.d_u()), (fv, ts.d_v())):
            want, mag = loop_eval(series, taus)
            assert np.all(np.abs(got - want) <= 1e-14 * mag)

    @given(expansions())
    @example(expansion(-2, [0, 1 + 2j, 0, -3j], 0.5 - 1j, [1j, 0, 2]))  # c+(0) = 0 != c-(0)
    @example(expansion(-2, [1, 1 + 2j, 0, -3j], 0.5 - 1j, [1j, 0, 2]))  # both nonzero
    @example(expansion(-3, [1, 2, 3], 0, [1j, -1j]))  # c-(0) = 0
    @example(expansion(-1, [1, 0, 2j], 0, [0, 0]))  # every c- = 0
    @example(expansion(-4, [0, 0, 0, 0], 1 + 1j, [0, 3, 1j]))  # every c+ = 0
    @example(expansion(-2, [0] * 30 + [1j], 0, [0] * 17 + [2.0] + [0] * 12))  # isolated
    @example(expansion(-5, [5e-324, -1e300j, 1e300], complex(5e-324, -0.0), [-1e300, 5e-324j]))
    @example(expansion(-2, [0, 0, 0], 0, [0, 0]))  # no term at all
    def test_coefficient_path_equals_the_dict_path(self, form):
        # to_terms builds the arrays from the coefficient arrays; they equal
        # those of the dict the old loop built, row for row and bit for bit,
        # and the dict, made only when asked for, equals that dict in keys,
        # values and order.  A 1e300 coefficient times (4 pi m)^l / l!
        # overflows to inf on both paths alike.
        ts, oracle = to_terms(form), loop_terms(form)
        with np.errstate(over="ignore"):
            arrays = ts._arrays
            assert "terms" not in vars(ts)
            assert identical(arrays, TermSeries(oracle)._arrays)
            assert list(ts.terms) == list(oracle)
            assert identical(list(ts.terms.values()), list(oracle.values()))

    def test_phase_table_overflow_is_refused(self):
        # the phase split works in int64: den * |freq numerator| past 2^62
        # would wrap, so such a series is refused rather than evaluated wrong
        ts = TermSeries.from_items([((Fraction(2**40 + 1, 2**40), 0, -1), 1.0)])
        with pytest.raises(ValueError, match="phase tables"):
            ts.eval(0.5j)

    @pytest.mark.parametrize("on_axis", ["none", "some", "all"])
    def test_value_does_not_depend_on_the_batch(self, rng, on_axis):
        # more points than one block and more rows than one chunk; points on
        # Re tau = 0 skip the phase, which must not change their value
        ts = raising_op(to_terms(make_random_form(rng, k=-3, n_max=300)), -3)
        n = 2 * _POINT_BLOCK + 11
        taus = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(0.002, 1.5, n)
        if on_axis != "none":
            taus.real[:: 1 if on_axis == "all" else 3] = 0.0
        value, jet = ts.eval(taus), ts.jet(taus)
        for i, tau in enumerate(taus):
            assert ts.eval(tau) == value[i]
            assert ts.jet(tau) == tuple(x[i] for x in jet)

    def test_scalar_and_shape(self, rng):
        ts = to_terms(make_random_form(rng))
        assert type(ts.eval(0.1 + 0.7j)) is complex
        assert all(type(x) is complex for x in ts.jet(0.1 + 0.7j))
        taus = np.array([[0.1 + 0.7j, 0.2 + 0.4j]] * 3)
        assert ts.eval(taus).shape == (3, 2)
        assert all(x.shape == (3, 2) for x in ts.jet(taus))
        for bad in (0.3 + 0.0j, 0.3 - 1.0j, np.array([0.5j, -0.5j])):
            with pytest.raises(ValueError):
                ts.eval(bad)
            with pytest.raises(ValueError):
                ts.jet(bad)

    def test_memory_is_bounded(self):
        # 300 points against the 8,001 rows of n_max 4000 at a height where
        # no row underflows: one complex points x rows matrix would take
        # 38 MB, while the blocks and the one-time array build take about 4 MB
        import tracemalloc

        from maassforms.eisenstein import harmonic_eisenstein_level_one

        ts = to_terms(harmonic_eisenstein_level_one(4000))
        taus = np.linspace(0.0, 1.0, 300, endpoint=False) + 0.02j
        tracemalloc.start()
        try:
            ts.eval(taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_warm_evaluation_reuses_the_workspace(self, rng):
        # once the thread's workspace exists, a call allocates no block x
        # chunk temporaries (256 kB each; the per-step temporaries they
        # replace peaked at 1.9 MB here), so no large buffer is released and
        # re-faulted from one call to the next
        import tracemalloc

        ts = raising_op(to_terms(make_random_form(rng, k=-3, n_max=300)), -3)
        n = 2 * _POINT_BLOCK + 11
        taus = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(0.002, 1.5, n)
        ts.jet(taus)
        tracemalloc.start()
        try:
            ts.eval(taus)
            ts.jet(taus)
            ts.eval(1j * taus.imag)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * _POINT_BLOCK * _TERM_CHUNK  # two complex arrays


def partials(form, tau):
    """(df/du, df/dv) by exact termwise differentiation."""
    j = jet1(to_terms(form), tau)
    return j.fu, j.fv


class TestPartialsAndLaplacian:
    def test_partials_constant(self):
        f = simple_form(c_plus={0: 2.0})
        fu, fv = partials(f, 0.3 + 0.8j)
        assert abs(fu) < 1e-14 and abs(fv) < 1e-14

    def test_partials_v_power(self):
        f = simple_form(k=-2, c_minus_zero=1.0)
        fu, fv = partials(f, 0.1 + 0.9j)
        assert abs(fu) < 1e-14
        assert fv == pytest.approx(3.0 * 0.9**2, rel=1e-13)

    def test_partials_single_q(self):
        f = simple_form(c_plus={1: 1.0})
        fu, _ = partials(f, 1j)
        assert fu == pytest.approx(2j * math.pi * math.exp(-2.0 * math.pi), rel=1e-12)

    def test_partials_vs_finite_differences(self, rng):
        h = 1e-5
        for _ in range(8):
            f = make_random_form(rng, k=int(rng.integers(-3, 0)))
            tau = random_tau(rng)
            fu, fv = partials(f, tau)
            fu_fd = (evaluate(f, tau + h) - evaluate(f, tau - h)) / (2 * h)
            fv_fd = (evaluate(f, tau + 1j * h) - evaluate(f, tau - 1j * h)) / (2 * h)
            assert abs(fu - fu_fd) <= 1e-6 * max(1.0, abs(fu))
            assert abs(fv - fv_fd) <= 1e-6 * max(1.0, abs(fv))

    def test_laplacian_annihilates_basis(self, rng):
        assert abs(laplacian(simple_form(c_plus={3: 1.0}), 0.2 + 0.7j)) < 1e-12
        assert abs(laplacian(simple_form(k=-2, c_minus_zero=1.0), 0.2 + 0.7j)) < 1e-12
        for _ in range(20):
            f = make_random_form(rng, k=int(rng.integers(-3, 0)))
            assert abs(laplacian(f, random_tau(rng))) <= 1e-9

    def test_laplacian_vs_finite_differences(self, rng):
        # h = 1e-4 balances O(h^2) truncation against the eps/h^2 floor
        h = 1e-4
        for _ in range(6):
            k = int(rng.integers(-3, 0))
            f = make_random_form(rng, k=k)
            tau = random_tau(rng, 0.7, 1.4)
            u, v = tau.real, tau.imag
            e = evaluate
            fuu = (e(f, tau + h) - 2 * e(f, tau) + e(f, tau - h)) / h**2
            fvv = (e(f, tau + 1j * h) - 2 * e(f, tau) + e(f, tau - 1j * h)) / h**2
            fu = (e(f, tau + h) - e(f, tau - h)) / (2 * h)
            fv = (e(f, tau + 1j * h) - e(f, tau - 1j * h)) / (2 * h)
            fd = -(v**2) * (fuu + fvv) + 1j * k * v * (fu + 1j * fv)
            assert abs(laplacian(f, tau) - fd) <= 1e-4


class TestShadowAndBol:
    def test_shadow_constant_term(self):
        c = 0.7 - 0.4j
        f = simple_form(k=-2, c_minus_zero=c)
        sh = shadow(f)
        assert sh.weight == 4
        assert sh.coefficients[0] == pytest.approx(3.0 * np.conj(c))

    def test_shadow_ignores_holomorphic_part(self, rng):
        f = make_random_form(rng, n_max=5)
        g = FormExpansion(f.weight, f.level, f.character, f.alpha, f.n_max,
                          np.zeros(6, complex), f.c_minus_zero, f.c_minus)
        assert np.allclose(shadow(f).coefficients, shadow(g).coefficients)
        pure_plus = simple_form(c_plus={0: 1.0, 2: 3.0})
        assert np.all(shadow(pure_plus).coefficients == 0)

    def test_shadow_q_coefficient(self):
        f = simple_form(k=-2, c_minus={-1: 1.0})
        assert shadow(f).coefficients[1] == pytest.approx(-(FOURPI**3), rel=1e-14)

    def test_bol_coefficients(self):
        f = simple_form(k=-2, c_plus={1: 1.0, 3: 1.0})
        b = bol(f)
        assert b.weight == 4
        assert b.coefficients[1] == pytest.approx(1.0)
        assert b.coefficients[3] == pytest.approx(27.0)

    def test_bol_constant_term(self):
        f = simple_form(k=-2, c_minus_zero=1.0)
        # (-4 pi)^{k-1} (1-k)! = -6/(4 pi)^3 for k = -2
        assert bol(f).coefficients[0] == pytest.approx(-6.0 / FOURPI**3, rel=1e-14)

    def test_bol_ignores_negative_index_data(self):
        f = simple_form(k=-2, c_minus={-1: 2.0, -3: 1.0})
        assert np.all(bol(f).coefficients == 0)

    def test_bol_matches_termwise_derivative(self, rng):
        for k in (-1, -2, -3):
            f = make_random_form(rng, k=k)
            ts = to_terms(f)
            for _ in range(4):
                tau = random_tau(rng)
                via_q = bol(f).evaluate(tau)
                via_d = bol_op(ts, k).eval(tau)
                assert abs(via_q - via_d) <= 1e-9 * max(1.0, abs(via_q))


class TestRaisingLowering:
    def test_raising_constant(self):
        for k in (-1, -2, -3):
            f = simple_form(k=k, c_plus={0: 1.0})
            tau = 0.3 + 0.8j
            assert raising(f, tau) == pytest.approx(k / 0.8, rel=1e-13)

    def test_lowering_constant(self):
        f = simple_form(c_plus={0: 1.0})
        assert abs(lowering(f, 0.3 + 0.8j)) < 1e-14

    def test_composition_identity(self, rng):
        # -Delta_k = L_{k+2} R_k + k = R_{k-2} L_k
        for _ in range(20):
            k = int(rng.integers(-3, 0))
            f = make_random_form(rng, k=k)
            ts = to_terms(f)
            tau = random_tau(rng)
            lhs = -laplacian(f, tau)
            rhs1 = lowering_op(raising_op(ts, k), k + 2).eval(tau) + k * ts.eval(tau)
            rhs2 = raising_op(lowering_op(ts, k), k - 2).eval(tau)
            assert abs(lhs - rhs1) <= 1e-8
            assert abs(lhs - rhs2) <= 1e-8

    def test_bol_vs_iterated_raising(self, rng):
        # D^{1-k} f = (-4 pi)^{k-1} R_{k+2(-k)} ... R_{k+2} R_k f
        for k in (-1, -2, -3):
            f = make_random_form(rng, k=k)
            ts = to_terms(f)
            for _ in range(5):
                tau = random_tau(rng)
                lhs = bol(f).evaluate(tau)
                it = ts
                for j in range(1 - k):
                    it = raising_op(it, k + 2 * j)
                rhs = (-FOURPI) ** (k - 1) * it.eval(tau)
                assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))

    def test_shadow_factorization(self, rng):
        # Delta_k = -xi_{2-k} o xi_k, and the pointwise xi matches the
        # shadow q-expansion
        for _ in range(10):
            k = int(rng.integers(-3, 0))
            f = make_random_form(rng, k=k)
            ts = to_terms(f)
            tau = random_tau(rng)
            lhs = laplacian_op(ts, k).eval(tau)
            rhs = -xi_op(xi_op(ts, k), 2 - k).eval(tau)
            assert abs(lhs - rhs) <= 1e-8
            assert abs(xi_op(ts, k).eval(tau) - shadow(f).evaluate(tau)) <= 1e-8


class TestHTransform:
    def test_constant(self):
        f = simple_form(k=-2, c_plus={0: 1.0})
        assert h_transform(f, 0.25 + 1.1j) == pytest.approx(-2.0)

    def test_v_power(self):
        f = simple_form(k=-2, c_minus_zero=1.0)
        v = 0.9
        assert h_transform(f, 0.3 + 1j * v) == pytest.approx(-2.0 * v**3, rel=1e-13)

    def test_fricke_compatibility(self):
        # H|_k omega(N)(it) = -I(it) for a true pair (level 1: g = f)
        from maassforms.eisenstein import harmonic_eisenstein_level_one

        f = harmonic_eisenstein_level_one(40)
        ts = to_terms(f)
        k = f.weight
        h_ts = h_op(ts, k)
        omega = fricke(1)
        for t in (0.7, 1.0, 1.4):
            lhs = 1.0 ** (-k / 2) * (1j * t) ** (-k) * h_ts.eval(-1.0 / (1j * t))
            rhs = -h_ts.eval(1j * t)  # I = H since g = f at level 1
            assert abs(lhs - rhs) <= 1e-6


def slash_triangular(ts, k, a, b, d):
    """Exact weight-k slash of a term series by [[a, b], [0, d]] with a, d > 0
    rational: the Bol oracle, kept in the term algebra."""
    a, b, d = Fraction(a), Fraction(b), Fraction(d)
    pref = float(a * d) ** (k / 2.0) * float(d) ** (-k)
    r = a / d
    items = []
    for (f, p, g), c in ts.terms.items():
        phase = cmath.exp(2j * math.pi * float(f * b / d))
        items.append(((f * r, p, g * r), c * pref * phase * float(r) ** p))
    return TermSeries.from_items(items)


class TestSlashCommutation:
    def test_xi_commutes_with_slash(self, rng):
        # xi_k(f|_k a) = (xi_k f)|_{2-k} a at random integral a, via exact jets:
        # xi_k = 2i v^k conj(d/dtaubar) on the slashed 1-jet
        for _ in range(12):
            k = int(rng.integers(-3, 0))
            f = make_random_form(rng, k=k)
            ts = to_terms(f)
            while True:
                a, b, c, d = (int(rng.integers(-3, 4)) for _ in range(4))
                if 0 < a * d - b * c <= 3:
                    break
            alpha = RationalMatrix(a, b, c, d)
            tau = random_tau(rng, 0.6, 1.6)
            jet = slash_jet1(ts, k, alpha, tau)
            lhs = 2j * tau.imag**k * jet.ftaubar.conjugate()
            xi_ts = xi_op(ts, k)
            w = complex(alpha.c) * tau + complex(alpha.d)
            pref = float(alpha.det) ** ((2 - k) / 2.0) * w ** (-(2 - k))
            rhs = pref * xi_ts.eval(alpha.apply(tau))
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))

    def test_raising_lowering_commute_with_slash(self, rng):
        # R_k(f|_k a) = (R_k f)|_{k+2} a and L_k(f|_k a) = (L_k f)|_{k-2} a,
        # with R_k = 2i d/dtau + k/v and L_k = -2i v^2 d/dtaubar on the 1-jet
        for _ in range(12):
            k = int(rng.integers(-3, 0))
            f = make_random_form(rng, k=k)
            ts = to_terms(f)
            while True:
                a, b, c, d = (int(rng.integers(-3, 4)) for _ in range(4))
                if 0 < a * d - b * c <= 3:
                    break
            alpha = RationalMatrix(a, b, c, d)
            tau = random_tau(rng, 0.6, 1.6)
            v = tau.imag
            jet = slash_jet1(ts, k, alpha, tau)
            w = complex(alpha.c) * tau + complex(alpha.d)
            det = float(alpha.det)
            tau2 = alpha.apply(tau)
            lhs_r = 2j * jet.ftau + k / v * jet.f
            rhs_r = det ** ((k + 2) / 2.0) * w ** (-(k + 2)) * raising_op(ts, k).eval(tau2)
            assert abs(lhs_r - rhs_r) <= 1e-7 * max(1.0, abs(rhs_r))
            lhs_l = -2j * v**2 * jet.ftaubar
            rhs_l = det ** ((k - 2) / 2.0) * w ** (-(k - 2)) * lowering_op(ts, k).eval(tau2)
            assert abs(lhs_l - rhs_l) <= 1e-7 * max(1.0, abs(rhs_l))

    def test_bol_commutes_with_triangular_slash(self, rng):
        # D^{1-k}(f|_k U) = (D^{1-k} f)|_{2-k} U for upper triangular U,
        # where both sides are exact term series
        for _ in range(10):
            k = int(rng.integers(-3, 0))
            f = make_random_form(rng, k=k, n_max=4)
            ts = to_terms(f)
            a, b, d = int(rng.integers(1, 4)), int(rng.integers(-3, 4)), int(rng.integers(1, 4))
            tau = random_tau(rng, 0.5, 1.5)
            lhs = bol_op(slash_triangular(ts, k, a, b, d), k).eval(tau)
            rhs = bol_op(ts, k).eval(tau * a / d + b / d) * float(a * d) ** (
                (2 - k) / 2.0
            ) * float(d) ** (-(2 - k))
            assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(rhs))


class TestGrowth:
    def test_exponential_approach_to_constant_mode(self, rng):
        # |f - c+(0) - c-(0) v^{1-k}| e^{2 pi v} stays bounded as v grows
        for _ in range(5):
            f = make_random_form(rng, k=-2)
            vals = []
            for v in (5.0, 10.0, 15.0):
                tau = 0.3 + 1j * v
                rest = evaluate(f, tau) - f.c_plus[0] - f.c_minus_zero * v**3
                vals.append(abs(rest) * math.exp(2.0 * math.pi * v))
            assert max(vals) < 10.0 * max(1.0, vals[0])


class TestTwist:
    def test_trivial_character_is_identity(self, rng):
        f = make_random_form(rng)
        t = twist(f, trivial_character(1))
        assert t.level == f.level
        assert np.allclose(t.c_plus, f.c_plus)
        assert t.c_minus_zero == f.c_minus_zero
        assert np.allclose(t.c_minus, f.c_minus)

    def test_mod_3_kills_multiples(self, rng):
        f = make_random_form(rng, n_max=7)
        psi = next(c for c in enumerate_characters(3) if not c.is_trivial)
        t = twist(f, psi)
        assert t.c_minus_zero == 0
        assert t.c_plus[3] == 0 and t.c_plus[6] == 0
        assert t.c_minus[2] == 0 and t.c_minus[5] == 0
        assert t.level == 9
        assert t.character.modulus == 9

    def test_level_and_character(self):
        f = simple_form(k=-2, n_max=4, c_plus={1: 1.0}, level=2)
        psi = character_by_label(5, "quadratic")
        t = twist(f, psi)
        assert t.level == 50  # lcm(2, 25, 5 * 1)
        assert t.character.modulus == 50
        assert t.character.is_trivial  # chi trivial, psi^2 trivial

    def test_slash_sum_identity(self, rng):
        # f_psi = tau(conj psi)^{-1} sum_u conj(psi)(u) f|_k T^{u/m}
        psi = character_by_label(5, "quadratic")
        taub = gauss_sum(psi.conjugate())
        f = make_random_form(rng, n_max=8)
        fp = twist(f, psi)
        for _ in range(10):
            tau = random_tau(rng)
            lhs = evaluate(fp, tau)
            rhs = sum(
                psi.conjugate()(u) * evaluate(f, tau + u / 5.0) for u in range(1, 6)
            ) / taub
            assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("m", [3, 4])
    def test_slash_sum_identity_odd_psi(self, rng, m):
        # the quadratic psi mod 3 and mod 4 are odd, so c-(-n) must pick up
        # psi(-n) = psi(-1) psi(n)
        psi = character_by_label(m, "quadratic")
        assert psi.parity == -1
        taub = gauss_sum(psi.conjugate())
        f = make_random_form(rng, n_max=8)
        fp = twist(f, psi)
        for _ in range(10):
            tau = random_tau(rng)
            lhs = evaluate(fp, tau)
            rhs = sum(
                psi.conjugate()(u) * evaluate(f, tau + u / m) for u in range(1, m + 1)
            ) / taub
            assert abs(lhs - rhs) <= 1e-8

    @pytest.mark.parametrize("m", [3, 4, 5, 13, 71])
    @pytest.mark.parametrize("level", [1, 7, 11])
    @settings(max_examples=3)
    @given(data=st.data())
    def test_twist_back_by_the_conjugate(self, level, m, data):
        # (f_psi)_{conj psi} is f on the n coprime to m and 0 elsewhere, at
        # level N m^2 with the character of f induced there; 1e-15 is about
        # 9 ulp: two complex products and the rounding of |psi(n)|^2 = 1
        psis = [psi for psi in enumerate_characters(m) if psi.is_primitive]
        psi = data.draw(st.sampled_from(psis))
        f = make_random_form(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                             n_max=2 * m + 3, level=level)
        back = twist(twist(f, psi), psi.conjugate())
        assert back.level == level * m * m
        assert back.character == f.character.induce(level * m * m)
        assert back.c_minus_zero == 0
        for got, want, start in ((back.c_plus, f.c_plus, 0), (back.c_minus, f.c_minus, 1)):
            coprime = np.gcd(np.arange(start, start + len(want)), m) == 1
            assert np.all(np.abs(got - want)[coprime] <= 1e-15 * np.abs(want)[coprime])
            assert np.all(got[~coprime] == 0)

    def test_one_gather_equals_the_per_coefficient_products(self, rng):
        # psi(n) c+(n) and psi(-n) c-(-n) read from the value table in one
        # numpy index, for every primitive character of modulus <= 40
        f = make_random_form(rng, n_max=60)
        count = 0
        for q in range(1, 41):
            for psi in filter(lambda c: c.is_primitive, enumerate_characters(q)):
                t = twist(f, psi)
                want = (
                    np.array([psi(n) * f.c_plus[n] for n in range(f.n_max + 1)]),
                    psi(0) * f.c_minus_zero,
                    np.array([psi(-n) * f.c_minus[n - 1] for n in range(1, f.n_max + 1)]),
                )
                assert identical([t.c_plus, t.c_minus_zero, t.c_minus], list(want)), psi
                count += 1
        assert count > 200

    def test_requires_primitive(self, rng):
        f = make_random_form(rng)
        psi9 = next(c for c in enumerate_characters(9) if c.conductor == 3)
        with pytest.raises(ValueError):
            twist(f, psi9)


class TestExtraction:
    def test_constant_evaluator(self):
        cp, cm = extract_coefficients(lambda t: np.full_like(t, 2.5), -2, 1.0, 0.0, 0, 0.8, 1.6)
        assert abs(cp - 2.5) < 1e-12
        assert abs(cm) < 1e-12

    def test_pure_v_power(self):
        ev = lambda t: np.asarray(t).imag ** 3 + 0j
        cp, cm = extract_coefficients(ev, -2, 1.0, 0.0, 0, 0.8, 1.6)
        assert abs(cp) < 1e-12
        assert abs(cm - 1.0) < 1e-12

    def test_round_trip_shallow_modes_at_unit_heights(self, rng):
        # at heights (1, 2) the mode-n data sits at relative size e^{-2 pi n}
        # in the samples, so double precision supports |n| <= 3 at 1e-8
        f = make_random_form(rng, n_max=8)
        ev = lambda taus: evaluate(f, taus)
        for n in (0, 1, 2):
            cp, cm = extract_coefficients(ev, -2, 1.0, 0.0, n, 1.0, 2.0, 256)
            assert abs(cp - f.c_plus[n]) <= 1e-8
        for n in (-1, -2, -3):
            cp, cm = extract_coefficients(ev, -2, 1.0, 0.0, n, 1.0, 2.0, 256)
            assert abs(cm - f.c_minus[-n - 1]) <= 1e-8
            assert abs(cp) <= 1e-8

    def test_round_trip_full_range_at_scaled_heights(self, rng):
        # lowering the heights keeps every requested mode above the floor
        f = make_random_form(rng, n_max=8)
        ev = lambda taus: evaluate(f, taus)
        for n in range(0, 6):
            cp, _ = extract_coefficients(ev, -2, 1.0, 0.0, n, 0.35, 0.7, 256)
            assert abs(cp - f.c_plus[n]) <= 1e-8
        for n in range(-1, -6, -1):
            cp, cm = extract_coefficients(ev, -2, 1.0, 0.0, n, 0.35, 0.7, 256)
            assert abs(cm - f.c_minus[-n - 1]) <= 1e-8

    def test_nonzero_kappa(self):
        # evaluator with frequencies n + kappa: a single shifted mode
        kappa, t_width = 0.25, 2.0
        ev = lambda taus: np.exp(2j * math.pi * (3 + kappa) * np.asarray(taus) / t_width)
        cp, cm = extract_coefficients(ev, -2, t_width, kappa, 3, 0.5, 1.0, 256)
        assert abs(cp - 1.0) <= 1e-10
        assert abs(cm) <= 1e-10

    def test_ill_conditioned_heights(self, rng):
        f = make_random_form(rng)
        ev = lambda taus: evaluate(f, taus)
        with pytest.raises(IllConditionedError, match="agree to 1e-8 relative; move the heights"):
            extract_coefficients(ev, -2, 1.0, 0.0, 1, 0.8, 0.8 + 1e-12)

    @pytest.mark.parametrize("v0, v1", [(5.0, 10.0), (10.0, 20.0)])
    def test_gram_overflow_is_ill_conditioned(self, rng, v0, v1):
        # at n = 3 the condition estimate overflows from n v1 ~ 27 and the
        # Gram value itself from n v1 ~ 56: both are a lost mode
        f = make_random_form(rng)
        ev = lambda taus: evaluate(f, taus)
        with pytest.raises(IllConditionedError, match="double range"):
            extract_coefficients(ev, -2, 1.0, 0.0, 3, v0, v1)

    def test_aliasing_guard(self, rng):
        f = make_random_form(rng)
        ev = lambda taus: evaluate(f, taus)
        with pytest.raises(ValueError):
            extract_coefficients(ev, -2, 1.0, 0.0, 40, 0.5, 1.0, samples=64)

    def test_condition_report(self, rng):
        f = make_random_form(rng)
        ev = lambda taus: evaluate(f, taus)
        (_, _), info = extract_coefficients(ev, -2, 1.0, 0.0, 1, 0.5, 1.0, full_output=True)
        assert info["condition"] >= 1.0


def mode_from_samples(vals, t, kappa, n, v):
    """Oracle: (1/t) int_{tau0}^{tau0+t} f(tau) e^{-2 pi i (n + kappa) tau / t} dtau
    along Im tau = v, by the trapezoid rule on the samples at
    u_j = j t / len(vals), one mode at a time."""
    samples = len(vals)
    taus = np.arange(samples) * (t / samples) + 1j * v
    return complex(np.mean(vals * np.exp(-2j * math.pi * (n + kappa) * taus / t)))


class TestTwoHeightSolve:
    MODES = np.arange(-8, 9)

    @pytest.mark.parametrize("kappa", [0.0, 0.25])
    @pytest.mark.parametrize("t", [1.0, 2.0])
    def test_every_mode_matches_the_per_mode_oracle(self, rng, kappa, t):
        # three random forms, n_max <= 8, read as width-t, parameter-kappa
        # expansions and stacked on a leading axis
        v0, v1, samples = 0.3, 0.6, 64
        fs = [make_random_form(rng, n_max=int(rng.integers(1, 9))) for _ in range(3)]
        u = np.arange(samples) * (t / samples)

        def line(f, v):
            taus = u + 1j * v
            return evaluate(f, taus / t) * np.exp(2j * math.pi * kappa * taus / t)

        lines = [np.stack([line(f, v) for f in fs]) for v in (v0, v1)]
        c_plus, c_minus, info = two_height_solve(*lines, -2, t, kappa, self.MODES, v0, v1)
        assert c_plus.shape == c_minus.shape == info["i0"].shape == (3, self.MODES.size)
        assert not info["lost"]
        for i in range(3):
            for j, n in enumerate(self.MODES.tolist()):
                want, tols = [], []
                for key, vals, v in (("i0", lines[0][i], v0), ("i1", lines[1][i], v1)):
                    want.append(mode_from_samples(vals, t, kappa, n, v))
                    tols.append(
                        1e-12 * np.abs(vals).max() * math.exp(2 * math.pi * abs(n + kappa) * v / t)
                    )
                    assert abs(info[key][i, j] - want[-1]) <= tols[-1], (key, n)
                # the oracle's periods through the same G pair; the solve
                # magnifies a period error by at most the condition estimate
                g0, g1 = info["g0"][j], info["g1"][j]
                cm = (want[1] - want[0]) / (g1 - g0)
                cp = want[0] - cm * g0
                bound = 2 * max(tols) * info["condition"][j]
                assert abs(c_minus[i, j] - cm) <= bound and abs(c_plus[i, j] - cp) <= bound

    def test_each_mode_gram_pair_is_evaluated_once(self, monkeypatch):
        calls = []
        gamma = forms._inc_gamma_scaled
        monkeypatch.setattr(forms, "_inc_gamma_scaled", lambda *a: calls.append(a) or gamma(*a))
        vals = np.ones(32, dtype=complex)
        two_height_solve(vals, vals, -2, 1.0, 0.0, np.arange(-3, 4), 0.5, 1.0)
        assert len(calls) == 12  # two heights for each of the six modes n != 0

    def test_lost_modes_come_back_zero_with_their_reason(self, rng):
        f = make_random_form(rng)
        taus = np.arange(64) / 64
        lines = [evaluate(f, taus + 1j * v) for v in (10.0, 20.0)]
        c_plus, c_minus, info = two_height_solve(*lines, -2, 1.0, 0.0, [0, 3, -8], 10.0, 20.0)
        assert "double range" in info["lost"][3] and "agree to 1e-8" in info["lost"][-8]
        assert c_plus[1:].tolist() == c_minus[1:].tolist() == [0j, 0j]
        assert np.isinf(info["condition"][1:]).all() and np.isfinite(info["condition"][0])

    def test_one_fft_per_sampled_height(self, monkeypatch, rng):
        shapes = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a, *args: shapes.append(np.shape(a)) or fft(a, *args))
        f_expansion(1, TRIV, -2, cusps(1)[0], 8, bound=20)
        # the bound-B line and its bound//2 prefix go in as one stack
        assert shapes == [(2, 256), (2, 256)]
        shapes.clear()
        f = make_random_form(rng)
        extract_coefficients(lambda taus: evaluate(f, taus), -2, 1.0, 0.0, 2, 0.5, 1.0)
        assert shapes == [(256,), (256,)]


# awkward doubles a JSON round trip must keep: signed zero, the smallest
# subnormals, the largest magnitudes
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 1.7976931348623157e308)
finite_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
complex_coeffs = st.builds(complex, finite_floats, finite_floats)


@st.composite
def json_forms(draw):
    """Expansions with arbitrary finite coefficients and any character mod
    the level (nontrivial ones included)."""
    level, n_max = draw(st.integers(1, 60)), draw(st.integers(1, 8))
    _, orders = unit_group_generators(level)
    chi = DirichletCharacter(level, tuple(draw(st.integers(0, o - 1)) for o in orders))
    return FormExpansion(
        weight=draw(st.integers(-6, -1)),
        level=level,
        character=chi,
        alpha=draw(st.one_of(st.sampled_from((0.0, 5e-324, 1e308)), st.floats(0.0, 1e308))),
        n_max=n_max,
        c_plus=draw(st.lists(complex_coeffs, min_size=n_max + 1, max_size=n_max + 1)),
        c_minus_zero=draw(complex_coeffs),
        c_minus=draw(st.lists(complex_coeffs, min_size=n_max, max_size=n_max)),
    )


def float_bits(form: FormExpansion) -> bytes:
    """Every float of the form, as raw IEEE bytes (so -0.0 != 0.0)."""
    scalars = np.array([form.alpha, form.c_minus_zero.real, form.c_minus_zero.imag])
    return scalars.tobytes() + form.c_plus.tobytes() + form.c_minus.tobytes()


EDGE_FORM = FormExpansion(
    -3, 35, DirichletCharacter(35, (1, 5)), 5e-324, 4,
    [complex(-0.0, 5e-324), 1e308, complex(-1e308, -0.0), -5e-324, 2.5e-310j],
    complex(-0.0, -0.0),
    [1.7976931348623157e308, complex(0.0, -0.0), -2.5e-310, 1.0],
)


class TestSerialization:
    @given(json_forms())
    @example(EDGE_FORM)
    def test_save_load_round_trip_property(self, form):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "form.json")
            save_form(form, path)
            back = load_form(path)
        assert (back.weight, back.level, back.n_max) == (form.weight, form.level, form.n_max)
        assert back.character == form.character
        assert float_bits(back) == float_bits(form)

    def test_json_round_trip_bit_exact(self, rng, tmp_path):
        f = make_random_form(rng, k=-3, n_max=9)
        path = tmp_path / "form.json"
        save_form(f, path)
        g = load_form(path)
        assert g.weight == f.weight and g.level == f.level
        assert g.alpha == f.alpha and g.n_max == f.n_max
        assert np.array_equal(g.c_plus, f.c_plus)
        assert g.c_minus_zero == f.c_minus_zero
        assert np.array_equal(g.c_minus, f.c_minus)
        assert g.character == f.character

    def test_schema_fields(self, rng, tmp_path):
        f = make_random_form(rng)
        path = tmp_path / "form.json"
        save_form(f, path)
        data = json.loads(path.read_text())
        assert set(data) == {
            "weight", "level", "character", "alpha", "n_max",
            "c_plus", "c_minus_zero", "c_minus",
        }
        assert len(data["c_plus"]) == f.n_max + 1
        assert len(data["c_minus"]) == f.n_max

    def test_validation(self):
        with pytest.raises(ValueError):
            simple_form(k=0)
        with pytest.raises(ValueError):
            FormExpansion(-2, 1, TRIV, -1.0, 2, np.zeros(3), 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            FormExpansion(-2, 1, TRIV, 0.0, 2, np.zeros(4), 0.0, np.zeros(2))

    def test_immutability(self, rng):
        f = make_random_form(rng)
        with pytest.raises(ValueError):
            f.c_plus[0] = 5.0
