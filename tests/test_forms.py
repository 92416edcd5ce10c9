"""Expansions, exact termwise operators, twists, coefficient extraction.

The term algebra makes every operator identity exact up to rounding, so
tolerances here sit at 1e-9..1e-12; finite differences appear only as an
independent cross-check at their own accuracy floor.
"""

import cmath
import json
import math
import os
import re
import tempfile
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import bol_op, induce, make_random_form, oldform_pair, random_tau, stored_mode
from maassforms.characters import (
    DirichletCharacter,
    character_by_label,
    enumerate_characters,
    gauss_sum,
    trivial_character,
    unit_group_generators,
)
from maassforms import forms
from maassforms.eisenstein import f_expansion, harmonic_eisenstein_level_one
from maassforms.forms import (
    _POINT_BLOCK,
    TWO_PI,
    FormExpansion,
    IllConditionedError,
    TermSeries,
    bol,
    evaluate,
    evaluate_tail_bound,
    extract_coefficients,
    growth_constant,
    h_op,
    h_transform,
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
from maassforms.modgroup import IntegerMatrix, cusps, fricke

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

    @pytest.mark.parametrize(
        "tau", [complex(0.0, math.nan), complex(0.5, math.inf), complex(math.inf, 1.0),
                complex(math.nan, 1.0)],
    )
    def test_rejects_a_point_that_is_not_finite(self, rng, tau):
        # NaN fails Im tau <= 0 as well as Im tau > 0, so finiteness is
        # checked on its own
        f = make_random_form(rng)
        for point in (tau, np.array([0.5j, tau])):
            with pytest.raises(ValueError, match="finite"):
                evaluate(f, point)

    @pytest.mark.parametrize("tau", [1e300j, np.array([0.5j, 0.25 + 1e300j])])
    def test_a_height_past_the_double_range_is_refused_before_any_pass(self, monkeypatch, tau):
        # f = c-(0) v^3 + ... for the level-1 lift, and 1e300^3 is no double;
        # the suite makes a RuntimeWarning an error, so none may be raised
        f = harmonic_eisenstein_level_one(10)

        def refuse(*args):
            raise AssertionError("a pass was made")

        monkeypatch.setattr(TermSeries, "_sums", refuse)
        for call in (lambda: evaluate(f, tau), lambda: evaluate_tail_bound(f, 1e300),
                     lambda: to_terms(f).magnitude(1e300)):
            with pytest.raises(ValueError, match=r"height 1e\+300 is past the double range"):
                call()

    def test_a_jet_past_the_double_range_is_refused_before_any_pass(self, monkeypatch):
        # the series reaches v^3; slash_jet1 by omega(1) at 1e-300 i reads the
        # jet at -1/tau, about 1e300 i.  R_k f reaches v^-1, which 1e-200
        # keeps finite, but its d_v series v^-2, which the jet also reads
        ts = to_terms(harmonic_eisenstein_level_one(10))
        raised = raising_op(ts, -2)
        assert raised.vpow.min() == -1 and raised._dv_series.vpow.min() == -2

        def refuse(*args):
            raise AssertionError("a pass was made")

        monkeypatch.setattr(TermSeries, "_sums", refuse)
        image = re.escape(repr(fricke(1).apply(1e-300j).imag))
        for call, height in ((lambda: ts.jet(1e300j), r"1e\+300"),
                             (lambda: ts.jet(np.array([0.5j, 1e300j])), r"1e\+300"),
                             (lambda: slash_jet1(ts, -2, fricke(1), 1e-300j), image),
                             (lambda: raised.jet(1e-200j), "1e-200")):
            with pytest.raises(ValueError, match=f"height {height} is past the double range"):
                call()

    def test_a_height_below_the_double_range_is_refused_for_a_negative_power(self):
        # R_k f has v^-1 terms, and 1 / 1e-310 is no double
        series = raising_op(to_terms(harmonic_eisenstein_level_one(10)), -2)
        with pytest.raises(ValueError, match="height 1e-310 is past the double range: v"):
            series.eval(1e-310j)

    def test_the_highest_heights_in_range_still_evaluate(self):
        f = harmonic_eisenstein_level_one(10)
        assert evaluate(f, 1e100j) == pytest.approx(1e300 / 3.0, rel=1e-15)
        assert evaluate_tail_bound(f, 1e100) == 0.0
        # a q-series has no power of v, so any height is in range
        assert shadow(f).evaluate(1e300j) == shadow(f).coefficients[0]

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
        # the n_max 600 lift clipped at 300, down to heights where the bound
        # (4.1e-1 at v = 0.005) is a hundred times the dropped value
        full = harmonic_eisenstein_level_one(600)
        clipped = FormExpansion(
            full.weight, full.level, full.character, full.alpha, 300,
            full.c_plus[:301], full.c_minus_zero, full.c_minus[:300],
        )
        c = growth_constant(full)
        for v in (0.005, 0.02, 0.1, 0.5):
            tau = 0.17 + 1j * v
            diff = abs(evaluate(full, tau) - evaluate(clipped, tau))
            assert diff <= evaluate_tail_bound(clipped, v, constant=c) + 1e-15


def items(ts):
    """The terms of a TermSeries as ((freq, vpow, vexp), coef) items, all
    integers, vexp = -|freq|."""
    for F, p, c in zip(ts.F.tolist(), ts.vpow.tolist(), ts.coef.tolist()):
        yield (F, p, -abs(F)), c


def series(items) -> TermSeries:
    """The TermSeries of ((freq, vpow, vexp), coef) items with integer freq
    and vexp = -|freq|, merged as TermSeries merges: each key's coefficients
    added in order from 0j."""
    items = list(items)
    keys = np.array([key for key, _ in items], dtype=np.int64).reshape(-1, 3)
    assert np.array_equal(keys[:, 2], -np.abs(keys[:, 0])), "a term off the q-lines"
    return forms._merged(keys[:, 0], keys[:, 1], np.array([c for _, c in items], dtype=complex))


def loop_eval(ts, taus):
    """The per-term loop that TermSeries.eval replaced, kept as the oracle:
    the value at each point of the array taus, sum |term| there, and the
    evaluator's floor sum |coef| v^vpow e^{-700}: it takes a term whose
    exponential is below e^{-700} as 0.  u is reduced mod 1, a period of
    every term, exactly, so the phases keep their accuracy at |u| ~ 1."""
    u, v = np.fmod(taus.real, 1), taus.imag
    out = np.zeros(taus.shape, dtype=complex)
    mag, floor = np.zeros(taus.shape), np.zeros(taus.shape)
    for (f, p, g), c in items(ts):
        term = c * np.exp(1j * TWO_PI * float(f) * u + TWO_PI * float(g) * v)
        if p:
            term = term * v ** float(p)
        out = out + term
        mag = mag + abs(term)
        floor = floor + abs(c) * v ** float(p) * math.exp(-700.0)
    return out, mag, floor


def assert_matches_the_loop(got, ts, taus):
    """got is ts at taus to 1e-14 sum |term|, past the evaluator's floor."""
    want, mag, floor = loop_eval(ts, taus)
    assert np.all(np.abs(got - want) <= 1e-14 * mag + floor)


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
            terms[(n, 0, -n)] = c
    if form.c_minus_zero != 0:
        terms[(0, nu, 0)] = form.c_minus_zero
    for m in range(1, form.n_max + 1):
        c = complex(form.c_minus[m - 1])
        if c == 0:
            continue
        fourpim = 4.0 * math.pi * m
        coef_l = gamma_nu
        for l in range(nu):
            z = c * coef_l
            if z != 0:
                terms[(-m, l, -m)] = z
            coef_l *= fourpim / (l + 1)
    return terms


class DictSeries:
    """The dict algebra TermSeries replaced, kept as the oracle of its
    merges and coefficients: integer terms (freq, vpow, vexp) -> coef, each
    coefficient formed by Python's complex arithmetic.  As in
    TermSeries, the terms of coefficient 0 are dropped whenever a series is
    built; the dict algebra kept those that scale made."""

    def __init__(self, terms):
        self.terms = {key: c for key, c in terms.items() if c != 0}

    @staticmethod
    def from_items(items):
        acc = {}
        for (freq, vpow, vexp), coef in items:
            key = (int(freq), int(vpow), int(vexp))
            acc[key] = acc.get(key, 0j) + complex(coef)
        return DictSeries(acc)

    def __add__(self, other):
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0j) + c
        return DictSeries(acc)

    def scale(self, z):
        return DictSeries({key: z * c for key, c in self.terms.items()})

    def d_u(self):
        return DictSeries.from_items(
            ((f, p, g), c * (2j * math.pi * f)) for (f, p, g), c in self.terms.items()
        )

    def d_v(self):
        items = []
        for (f, p, g), c in self.terms.items():
            if p != 0:
                items.append(((f, p - 1, g), c * p))
            if g != 0:
                items.append(((f, p, g), c * (TWO_PI * float(g))))
        return DictSeries.from_items(items)

    def d_tau(self):
        return (self.d_u() + self.d_v().scale(-1j)).scale(0.5)

    def d_taubar(self):
        return (self.d_u() + self.d_v().scale(1j)).scale(0.5)

    def mul_v(self, j):
        return DictSeries({(f, p + j, g): c for (f, p, g), c in self.terms.items()})

    def conjugate(self):
        return DictSeries.from_items(
            ((-f, p, g), c.conjugate()) for (f, p, g), c in self.terms.items()
        )

    def series(self) -> TermSeries:
        """The same terms as a TermSeries, built directly from its arrays."""
        keys = np.array(list(self.terms), dtype=np.int64).reshape(-1, 3)
        return TermSeries(keys[:, 0], keys[:, 1], np.array(list(self.terms.values()), dtype=complex))


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


@st.composite
def item_lists(draw):
    """((freq, vpow, vexp), coef) items over at most four keys, so that keys
    repeat, each on a q-line: vexp = -|freq|."""
    key = st.tuples(st.integers(-6, 6), st.integers(-1, 2)).map(lambda k: (*k, -abs(k[0])))
    keys = draw(st.lists(key, min_size=1, max_size=4))
    size = draw(st.integers(0, 12))
    item = st.tuples(st.sampled_from(keys), coefficients)
    return draw(st.lists(item, min_size=size, max_size=size))


def assert_same_terms(ts, ref):
    """ts holds the terms of the DictSeries ref in keys, order and bits."""
    assert [key for key, _ in items(ts)] == list(ref.terms)
    assert identical(ts.coef, np.array(list(ref.terms.values()), dtype=complex))
    assert identical(ts._arrays, ref.series()._arrays)


class TestTermAlgebra:
    @given(st.integers(0, 2**32 - 1), st.integers(-3, -1), st.integers(1, 12), item_lists(),
           item_lists())
    @example(1, -1, 2, [((0, 0, 0), complex(-0.0, 1.0))], [((0, 0, 0), -1j)])  # a + b cancels
    def test_term_algebra_matches_the_dict_algebra(self, seed, k, n_max, a, b):
        # series of repeated keys, their sums, a form's series, and every
        # operator chain on the sums and the form
        form = make_random_form(np.random.default_rng(seed), k=k, n_max=n_max)
        pairs = [(series(x), DictSeries.from_items(x)) for x in (a, b)]
        pairs.append((to_terms(form), DictSeries(loop_terms(form))))
        pairs += [(pairs[0][0] + pairs[1][0], pairs[0][1] + pairs[1][1]),
                  (pairs[2][0] + pairs[0][0], pairs[2][1] + pairs[0][1])]
        for ts, ref in pairs:
            assert_same_terms(ts, ref)
        for ts, ref in pairs[2:]:
            for op in (raising_op, lowering_op, laplacian_op, xi_op, h_op, bol_op):
                assert_same_terms(op(ts, k), op(ref, k))


# series whose terms reach every case of the evaluator: raising_op brings
# vpow -1, xi_op conjugated (negated) frequencies, d_v and h_op mixed vpows
SERIES = {
    "f": lambda ts, k: ts,
    "d_u": lambda ts, k: ts.d_u(),
    "d_v": lambda ts, k: ts.d_v(),
    "h_op": h_op,
    "raising_op": raising_op,
    "xi_op": xi_op,
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
        value = ts.eval(taus)
        assert_matches_the_loop(value, ts, taus)
        f, fu, fv = ts.jet(taus)
        assert np.array_equal(f, value)
        assert_matches_the_loop(fu, ts.d_u(), taus)
        assert_matches_the_loop(fv, ts.d_v(), taus)

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
        # to_terms builds the terms from the coefficient arrays; they equal
        # those the old loop built one coefficient at a time in keys, order
        # and bits, and so do the evaluator arrays.  The oracle series is
        # built directly: a merge would add each coefficient to 0j and lose
        # a -0.0.  A 1e300 coefficient times (4 pi m)^l / l! overflows
        # to inf on both paths alike.
        with np.errstate(over="ignore"):
            assert_same_terms(to_terms(form), DictSeries(loop_terms(form)))

    @pytest.mark.parametrize("on_axis", ["none", "some", "all"])
    def test_value_does_not_depend_on_the_batch(self, rng, on_axis):
        # more points than one block; points on Re tau = 0 share one phase
        # per block, which must not change their value.  A dict series and
        # a form's own, whose jet evaluates its cached d_v series
        ts = raising_op(to_terms(make_random_form(rng, k=-3, n_max=300)), -3)
        n = 2 * _POINT_BLOCK + 11
        taus = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(0.002, 1.5, n)
        if on_axis != "none":
            taus.real[:: 1 if on_axis == "all" else 3] = 0.0
        for ts in (ts, to_terms(make_random_form(rng, k=-3, n_max=300))):
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

    def test_values_past_one_giant_step_slice(self, rng):
        # n_max 5000 takes 313 giant steps, two slices of _GIANT_SLICE.  Off
        # the axis the heights stay above 0.002, where the second slice's
        # terms are below 1e-20 of sum |term| (and, lower, the phases of
        # both the evaluator and the oracle lose 1e-14); on the axis, where
        # the phases are exact, they reach down to 1e-4, where that slice
        # holds 13% of sum |term|.  The oracle is each set's terms summed
        # pairwise (loop_eval adds them one at a time and drifts 2.5e-14
        # sum |term| from an fsum at this length)
        from maassforms.eisenstein import harmonic_eisenstein_level_one

        ts = to_terms(harmonic_eisenstein_level_one(5000))
        assert np.unique(np.abs(ts.F) // 16).size > forms._GIANT_SLICE
        taus = rng.uniform(-1.0, 1.0, 64) + 1j * rng.uniform(0.002, 1.5, 64)
        taus[::2] = 1j * np.geomspace(1e-4, 1.5, 32)
        values, jet = ts.eval(taus), ts.jet(taus)
        assert np.array_equal(values, jet[0])
        F, p = ts.F.astype(float), ts.vpow.astype(float)
        for i, tau in enumerate(taus):
            u, v = math.fmod(tau.real, 1), tau.imag
            terms = ts.coef * np.exp(1j * TWO_PI * F * u - TWO_PI * np.abs(F) * v) * v**p
            for got, row in zip(jet, (terms, 1j * TWO_PI * F * terms,
                                      (p / v - TWO_PI * np.abs(F)) * terms)):
                assert abs(got[i] - row.sum()) <= 1e-14 * np.abs(row).sum()

    @pytest.mark.parametrize("draw", range(5))
    def test_a_long_series_meets_the_per_term_phase_oracle(self, draw):
        # the n_max 5000 lift at 64 points of height 1e-4 to 1.5, half of
        # them off the axis.  The oracle forms each term's phase as cos and
        # sin of theta = 2 pi F u and adds the terms with math.fsum, so its
        # sum adds no error.  Both sides form theta and rho = 2 pi |F| v with
        # two roundings (the evaluator splits F into a giant and a baby step,
        # whose parts of theta and rho add up to the whole), so each moves a
        # term by eps (|theta| + rho) relative; each addition along a term's
        # path through the evaluator (at most _GIANT_SLICE in a matrix
        # product, then _BABY baby steps) rounds within eps / 2, and the
        # groups, the slices and the few roundings of each term's
        # exponentials and products on both sides are given 32 eps
        ts = to_terms(harmonic_eisenstein_level_one(5000))
        rng = np.random.default_rng([5000, draw])
        heights = np.exp(rng.uniform(math.log(1e-4), math.log(1.5), 64))
        taus = rng.uniform(-1.0, 1.0, 64) + 1j * heights
        taus[::2] = 1j * taus[::2].imag
        got = ts.eval(taus)
        F, p, eps = ts.F.astype(float), ts.vpow.astype(float), np.finfo(float).eps
        fixed = (forms._GIANT_SLICE + forms._BABY) / 2 + 32
        for value, tau in zip(got, taus):
            u, v = math.fmod(tau.real, 1), tau.imag
            theta, rho = TWO_PI * F * u, TWO_PI * np.abs(F) * v
            size = np.exp(-rho) * v**p
            re = (ts.coef.real * np.cos(theta) - ts.coef.imag * np.sin(theta)) * size
            im = (ts.coef.real * np.sin(theta) + ts.coef.imag * np.cos(theta)) * size
            mag = np.abs(ts.coef) * size
            gate = eps * (mag * (2 * (np.abs(theta) + rho) + fixed)).sum()
            assert abs(value - complex(math.fsum(re), math.fsum(im))) <= gate

    def test_warm_evaluation_at_n_max_1e5_stays_small(self, rng):
        # the cached value matrix is 8.0 MB; a warm 256-point call holds
        # only its block's tables, per slice of _GIANT_SLICE giant steps
        from maassforms.eisenstein import harmonic_eisenstein_level_one

        ts = to_terms(harmonic_eisenstein_level_one(100_000))
        taus = rng.uniform(-1.0, 1.0, 256) + 1j * rng.uniform(0.002, 1.5, 256)
        ts.eval(taus)
        tracemalloc.start()
        try:
            ts.eval(taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_warm_evaluation_allocates_little(self, rng):
        # once the series' matrices (and jet's d_v series) exist, a call
        # allocates only its block's tables and sums, below the bound the
        # earlier evaluator's two 64-point x 256-row complex scratch arrays
        # set (512 kiB; the per-step temporaries those replaced peaked at
        # 1.9 MB here).  A dict series and a form's own
        import tracemalloc

        ts = raising_op(to_terms(make_random_form(rng, k=-3, n_max=300)), -3)
        n = 2 * _POINT_BLOCK + 11
        taus = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(0.002, 1.5, n)
        for ts in (ts, to_terms(make_random_form(rng, k=-3, n_max=300))):
            ts.jet(taus)
            tracemalloc.start()
            try:
                ts.eval(taus)
                ts.jet(taus)
                ts.eval(1j * taus.imag)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 16 * 64 * 256


# series whose rows the form strategy above never reaches: sparse expansions
# whose nonzero modes sit 10^4 to 10^6 apart; every one holds the constant
# 1, so sum |term| stays O(1) where the other terms underflow
small_parts = st.floats(-3.0, 3.0).filter(lambda x: abs(x) > 1e-3)
small_coefficients = st.builds(complex, small_parts, small_parts)


@st.composite
def sparse_series(draw):
    modes = [draw(st.integers(1, 40))]
    for _ in range(draw(st.integers(1, 3))):
        modes.append(modes[-1] + draw(st.integers(10**4, 10**6)))
    k = draw(st.integers(-3, -1))
    items = [((0, 0, 0), 1.0)]
    for n in modes:
        if draw(st.booleans()):
            items.append(((n, 0, -n), draw(small_coefficients)))  # c+(n) q^n
        else:
            # c-(-n) Gamma(1-k, 4 pi n v) q^{-n}, expanded as to_terms does
            c = draw(small_coefficients) * math.gamma(1 - k)
            for l in range(1 - k):
                items.append(((-n, l, -n), c * (4 * math.pi * n) ** l / math.factorial(l)))
    return series(items)


# heights log-uniform in [0.002, 60]: at the top, whole power tables fall
# under the e^{-700} floor; half the points on Re tau = 0, so blocks mix
# points on and off the axis
heights = st.floats(math.log(0.002), math.log(60.0)).map(math.exp)
mixed_points = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), heights).map(lambda p: complex(*p)),
    min_size=1,
    max_size=140,
)


class TestRowKinds:
    @given(sparse_series(), mixed_points)
    @settings(max_examples=40)
    def test_eval_and_jet_match_the_term_loop(self, ts, points):
        taus = np.array(points)
        value = ts.eval(taus)
        assert_matches_the_loop(value, ts, taus)
        f, fu, fv = ts.jet(taus)
        assert np.array_equal(f, value)
        assert_matches_the_loop(fu, ts.d_u(), taus)
        assert_matches_the_loop(fv, ts.d_v(), taus)

    def test_sparse_wide_series_keeps_memory_bounded(self):
        # c+ at n = 1, 10^5 and 2 10^6 only: the tables hold one giant step
        # per nonzero mode, where tables over the span of n would take about
        # 128 MB per 64-point block
        import tracemalloc

        ts = series(((n, 0, -n), 1.0 + 0.5j) for n in (1, 10**5, 2 * 10**6))
        taus = np.linspace(0.0, 1.0, 256, endpoint=False) + 1e-6j * np.arange(1, 257)
        tracemalloc.start()
        try:
            ts.eval(taus)
            ts.jet(taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_values_do_not_depend_on_the_blas_threads(self, tmp_path):
        # the same bytes with one BLAS thread and with two, for eval and jet
        # of a long lift on one batch mixing points on and off the axis
        import subprocess
        import sys

        code = (
            "import sys, numpy as np\n"
            "from maassforms.eisenstein import harmonic_eisenstein_level_one\n"
            "from maassforms.forms import to_terms\n"
            "rng = np.random.default_rng(7)\n"
            "taus = rng.uniform(-1.0, 1.0, 200) + 1j * rng.uniform(0.005, 1.5, 200)\n"
            "taus.real[::2] = 0.0\n"
            "ts = to_terms(harmonic_eisenstein_level_one(2000))\n"
            "np.save(sys.argv[1], np.array([ts.eval(taus), *ts.jet(taus)]))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
            out = tmp_path / f"threads{threads}.npy"
            subprocess.run([sys.executable, "-c", code, str(out)], env=env, check=True)
            outs.append(np.load(out))
        assert outs[0].shape == (4, 200)
        assert outs[0].tobytes() == outs[1].tobytes()


def partials(form, tau):
    """(df/du, df/dv) by exact termwise differentiation."""
    _, fu, fv = to_terms(form).jet(tau)
    return fu, fv


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

    @pytest.mark.parametrize("operator", [shadow, bol])
    @pytest.mark.parametrize("k", [-1, -2, -3])
    def test_evaluate_matches_the_term_loop(self, rng, operator, k):
        # sum c(n) q^n against a plain loop over its terms, at heights down
        # to 0.01, on the imaginary axis and off it
        qe = operator(make_random_form(rng, k=k, n_max=40))
        v = np.geomspace(0.01, 2.0, 12)
        taus = np.concatenate([1j * v, rng.uniform(-1.0, 1.0, v.size) + 1j * v])
        n = np.arange(qe.coefficients.size)[:, None]
        terms = qe.coefficients[:, None] * np.exp(2j * math.pi * n * taus)
        got = qe.evaluate(taus)
        assert np.all(np.abs(got - terms.sum(axis=0)) <= 1e-14 * np.abs(terms).sum(axis=0))
        assert type(qe.evaluate(taus[-1])) is complex
        for bad in (0.3 + 0.0j, 0.3 - 1.0j, np.array([0.5j, -0.5j])):
            with pytest.raises(ValueError):
                qe.evaluate(bad)

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
    """Exact weight-k slash of a term series by [[a, b], [0, d]] with d > 0
    and a = d r, r a positive integer, so that the slashed terms stay on the
    q-lines: the Bol oracle, kept in the term algebra."""
    r = a // d
    assert r * d == a and r > 0
    pref = float(a * d) ** (k / 2.0) * float(d) ** (-k)
    slashed = []
    for (f, p, g), c in items(ts):
        phase = cmath.exp(2j * math.pi * (f * b / d))
        slashed.append(((f * r, p, g * r), c * pref * phase * float(r) ** p))
    return series(slashed)


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
            alpha = IntegerMatrix(a, b, c, d)
            tau = random_tau(rng, 0.6, 1.6)
            _, fu, fv = slash_jet1(ts, k, alpha, tau)
            lhs = 2j * tau.imag**k * (0.5 * (fu + 1j * fv)).conjugate()
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
            alpha = IntegerMatrix(a, b, c, d)
            tau = random_tau(rng, 0.6, 1.6)
            v = tau.imag
            f, fu, fv = slash_jet1(ts, k, alpha, tau)
            ftau, ftaubar = 0.5 * (fu - 1j * fv), 0.5 * (fu + 1j * fv)
            w = complex(alpha.c) * tau + complex(alpha.d)
            det = float(alpha.det)
            tau2 = alpha.apply(tau)
            lhs_r = 2j * ftau + k / v * f
            rhs_r = det ** ((k + 2) / 2.0) * w ** (-(k + 2)) * raising_op(ts, k).eval(tau2)
            assert abs(lhs_r - rhs_r) <= 1e-7 * max(1.0, abs(rhs_r))
            lhs_l = -2j * v**2 * ftaubar
            rhs_l = det ** ((k - 2) / 2.0) * w ** (-(k - 2)) * lowering_op(ts, k).eval(tau2)
            assert abs(lhs_l - rhs_l) <= 1e-7 * max(1.0, abs(rhs_l))

    def test_bol_commutes_with_triangular_slash(self, rng):
        # D^{1-k}(f|_k U) = (D^{1-k} f)|_{2-k} U for upper triangular U,
        # where both sides are exact term series
        for _ in range(10):
            k = int(rng.integers(-3, 0))
            f = make_random_form(rng, k=k, n_max=4)
            ts = to_terms(f)
            d, b = int(rng.integers(1, 4)), int(rng.integers(-3, 4))
            a = d * int(rng.integers(1, 4))
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


def loop_growth_constant(form):
    """The per-coefficient loop that growth_constant replaced, the reference
    for its value."""
    a = form.alpha
    c = max(abs(form.c_plus[0]), abs(form.c_minus_zero))
    for n in range(1, form.n_max + 1):
        scale = float(n) ** a
        c = max(c, abs(form.c_plus[n]) / scale, abs(form.c_minus[n - 1]) / scale)
    return float(c)


class TestGrowthConstant:
    @given(st.integers(1, 200), st.sampled_from([0.0, 0.5, 3.0]), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.5, 1.0]))
    def test_equals_the_per_coefficient_loop(self, n_max, alpha, seed, zero_share):
        # random O(1) coefficients, a share of them (all, for 1.0) zero
        rng = np.random.default_rng(seed)
        form = make_random_form(rng, n_max=n_max, alpha=alpha)
        cp, cm = form.c_plus.copy(), form.c_minus.copy()
        cp[rng.random(cp.size) < zero_share] = 0.0
        cm[rng.random(cm.size) < zero_share] = 0.0
        cm0 = 0j if rng.random() < zero_share else form.c_minus_zero
        form = FormExpansion(form.weight, 1, form.character, alpha, n_max, cp, cm0, cm)
        assert growth_constant(form) == loop_growth_constant(form)

    def test_a_nan_coefficient_gives_nan(self, rng):
        form = make_random_form(rng, n_max=8)
        for index in (0, 3, 8):
            cp = form.c_plus.copy()
            cp[index] = complex(math.nan, 0.0)
            bad = FormExpansion(form.weight, 1, form.character, form.alpha, 8, cp,
                                form.c_minus_zero, form.c_minus)
            assert math.isnan(growth_constant(bad))


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
        assert back.character == induce(f.character, level * m * m)
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

    def test_twisted_character_is_the_induced_product(self, rng):
        # twist builds chi psi^2 at L = lcm(N, m^2, m m_chi) as one character;
        # it is chi * (psi * psi) induced to L, for every chi mod N <= 12 and
        # every primitive psi of modulus m <= 13
        psis = [psi for m in range(1, 14) for psi in enumerate_characters(m) if psi.is_primitive]
        count = 0
        for level in range(1, 13):
            for chi in enumerate_characters(level):
                f = FormExpansion(-2, level, chi, 0.0, 2, np.ones(3), 0.0, np.ones(2))
                for psi in psis:
                    t = twist(f, psi)
                    assert t.level == math.lcm(level, psi.modulus**2, psi.modulus * chi.conductor)
                    assert t.character == induce(chi * (psi * psi), t.level), (chi, psi)
                    count += 1
        assert count == 46 * 38  # characters mod N <= 12, primitive psi mod m <= 13

    def test_twist_to_a_large_level_builds_no_residue_table(self):
        # the twisted character mod N m^2 = 55,451 is only identified, not
        # tabulated: the whole twist must allocate less than one int64 per
        # residue of the new level (443,608 bytes), the size of a single
        # residue table there.  Measured peaks: 0.06-0.09 MB with tables built
        # on first read, 1.79 MB (3.14 MB on a first call) with eager tables
        f, _ = oldform_pair(11)
        psi = character_by_label(71, "quadratic")
        tracemalloc.start()
        try:
            t = twist(f, psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert t.level == 11 * 71**2
        assert peak < 8 * t.level

    def test_requires_primitive(self, rng):
        f = make_random_form(rng)
        psi9 = next(c for c in enumerate_characters(9) if c.conductor == 3)
        with pytest.raises(ValueError):
            twist(f, psi9)


def spread_form(seed, k, n_max, alpha):
    """A form with every coefficient of size max(1, |n|)^alpha times a
    factor in [1, 2] and a random phase, so each mode's own size sets the
    scale of its relative error."""
    rng = np.random.default_rng(seed)
    size = np.maximum(1, np.abs(np.arange(-n_max, n_max + 1))) ** alpha
    c = size * rng.uniform(1.0, 2.0, size.size) * np.exp(2j * math.pi * rng.uniform(size=size.size))
    return FormExpansion(k, 1, TRIV, alpha, n_max, c[n_max:], c[n_max - 1], c[:n_max][::-1])


class TestExtraction:
    def test_constant_evaluator(self):
        cp, cm = extract_coefficients(lambda t: np.full_like(t, 2.5), -2, 0, 256)
        assert abs(cp - 2.5) < 1e-12
        assert abs(cm) < 1e-12

    def test_pure_v_power(self):
        ev = lambda t: np.asarray(t).imag ** 3 + 0j
        cp, cm = extract_coefficients(ev, -2, 0, 256)
        assert abs(cp) < 1e-12
        assert abs(cm - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, -1, 7, -7, 250, -250, 1000])
    def test_the_heights_put_every_mode_at_one_weight(self, n):
        v0, v1 = forms.mode_heights(n)
        assert v1 == 2 * v0 and v0 == 1 / (2 * max(1, abs(n)))
        if n:
            assert math.isclose(TWO_PI * abs(n) * v0, math.pi)
        assert forms.mode_heights(-n) == (v0, v1)

    def test_round_trip_every_mode_at_the_rule_heights(self, rng):
        # fixed heights hold mode n at e^{-2 pi |n| v0}: (1, 2) read only
        # |n| <= 3 to 1e-8, and (0.35, 0.7) only |n| <= 5
        f = make_random_form(rng, n_max=8)
        ev = lambda taus: evaluate(f, taus)
        for n in range(-8, 9):
            samples = forms.line_samples(n, forms.mode_heights(n), f.n_max, k=-2)
            got = extract_coefficients(ev, -2, n, samples)
            for x, want in zip(got, stored_mode(f, n)):
                assert abs(x - want) <= 1e-10, n

    @given(
        k=st.integers(-5, -1),
        alpha=st.sampled_from((0.0, 1.0)),
        n_max=st.integers(1, 300),
        n=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    # the nearest alias onto n = 18 at 256 samples a line is c-(-238), whose
    # Gamma(6, x) factor at k = -5 is 4e9 times e^{-x}: 256 read c+(18) 1.1e-6
    # off, and the weight's reach takes 512, which reads it to 7.5e-11
    @example(k=-5, alpha=1.0, n_max=300, n=18, seed=0)
    @example(k=-5, alpha=0.0, n_max=300, n=-300, seed=1)
    def test_every_stored_mode_comes_back(self, k, alpha, n_max, n, seed):
        f = spread_form(seed, k, max(n_max, abs(n)), alpha)
        samples = forms.line_samples(n, forms.mode_heights(n), f.n_max, k=k)
        got = extract_coefficients(to_terms(f).eval, k, n, samples)
        want = stored_mode(f, n)
        scale = max(map(abs, want))
        for x, y in zip(got, want):
            assert abs(x - y) <= 1e-8 * scale

    def test_aliasing_guard(self, rng):
        f = make_random_form(rng)
        ev = lambda taus: evaluate(f, taus)
        with pytest.raises(ValueError):
            extract_coefficients(ev, -2, 40, samples=64)

    @pytest.mark.parametrize("n, heights, n_max, want", [
        (8, (0.25, 0.5), None, 256),  # the floor: 16 + 30 samples reach
        (8, (0.01, 0.02), None, 1024),  # 16 + 746
        (150, (0.02, 0.04), None, 1024),  # 300 + 378
        (8, (3.0, 6.0), None, 256),
        (3, (0.002, 0.004), 400, 512),  # a stored form: n_max + |n| + 1 = 404
        (-3, (0.01, 0.02), 252, 256),  # 256 exactly, below 2 |n| + 745
        (3, (0.01, 0.02), 253, 512),  # 257
        (3, (0.4, 0.8), 253, 256),  # 2 |n| + 19 = 25, below n_max + |n| + 1
        (3, (0.4, 0.8), 70000, 256),
        (200, (0.4, 0.8), 10, 512),  # 2 |n| + 2 = 402
        (32766, (3.0, 6.0), None, 2**16),  # the cap: 65532 + 3.5
        (3, (6e-5, 1.2e-4), 65532, 2**16),  # 2 |n| + 1e5 is past it
    ])
    def test_samples_per_line(self, n, heights, n_max, want):
        assert forms.line_samples(n, heights, n_max, k=-2) == want

    @pytest.mark.parametrize("n, heights, n_max", [
        (8, (1e-6, 2e-6), None),  # 2^23 samples a line
        (32767, (3.0, 6.0), None),  # 65534 + 3.5
        (32768, (3.0, 6.0), None),  # 2 |n| + 2 = 65538
        (3, (6e-5, 1.2e-4), 65533),  # n_max + |n| + 1 = 65537
    ])
    def test_samples_past_the_cap_are_refused(self, n, heights, n_max):
        with pytest.raises(ValueError, match=f"n_max {n_max} need .* past the cap of 65536"):
            forms.line_samples(n, heights, n_max, k=-2)

    @given(k=st.integers(-12, 0), n=st.integers(0, 4000), v0=st.floats(1e-3, 4.0))
    def test_the_nearest_alias_weighs_below_4e_17(self, k, n, v0):
        # R = (S - 2 |n|) v0: the nearest alias, at |m| = |n| + R / v0, weighs
        # e^{-2 pi R} e^x Gamma(1-k, x) at x = 4 pi |m| v0
        try:
            samples = forms.line_samples(n, (v0, 2 * v0), k=k)
        except ValueError:
            return
        far = (samples - 2 * n) * v0
        x = FOURPI * (far + n * v0)
        weight = math.exp(-TWO_PI * far) * forms._inc_gamma_scaled(max(1, 1 - k), x, x)
        assert weight <= math.exp(-12 * math.pi) * (1 + 1e-9)

    def test_the_weight_lengthens_the_reach(self):
        heights = forms.mode_heights(18)
        assert [forms.line_samples(18, heights, 300, k=k) for k in (0, -1, -5)] == [256, 512, 512]

    def test_condition_report(self, rng):
        f = make_random_form(rng)
        ev = lambda taus: evaluate(f, taus)
        (_, _), info = extract_coefficients(ev, -2, 1, 256, full_output=True)
        assert info["condition"] >= 1.0

    def test_one_evaluator_call_for_both_heights(self, rng):
        f = make_random_form(rng)
        seen = []

        def ev(taus):
            seen.append(taus)
            return evaluate(f, taus)

        got = extract_coefficients(ev, -2, 1, samples=32)
        assert len(seen) == 1 and seen[0].shape == (2, 32)
        assert np.array_equal(seen[0], np.arange(32) / 32 + 1j * np.array([[0.5], [1.0]]))
        # each line alone gives the same values, so the same constants
        lines = [evaluate(f, row) for row in seen[0]]
        c_plus, c_minus, _ = two_height_solve(*lines, -2, [1], 0.5, 1.0)
        assert got == (complex(c_plus[0]), complex(c_minus[0]))

    @pytest.mark.parametrize("shape", [(64,), (32,), (32, 2), (1, 2, 32)])
    def test_wrongly_shaped_return_is_refused(self, shape):
        with pytest.raises(ValueError, match="f_eval must return an array shaped like its argument"):
            extract_coefficients(lambda taus: np.zeros(shape, dtype=complex), -2, 0, 32)

    def test_a_lost_mode_is_ill_conditioned(self):
        # at k = -200 the Gram values Gamma(201, x) leave the double range
        with pytest.raises(IllConditionedError, match="double range"):
            extract_coefficients(lambda taus: np.ones_like(taus), -200, 1, 256)


def mode_from_samples(vals, n, v):
    """Oracle: int_{tau0}^{tau0+1} f(tau) e^{-2 pi i n tau} dtau along
    Im tau = v, by the trapezoid rule on the samples at u_j = j / len(vals),
    one mode at a time."""
    samples = len(vals)
    taus = np.arange(samples) * (1.0 / samples) + 1j * v
    return complex(np.mean(vals * np.exp(-2j * math.pi * n * taus)))


class TestTwoHeightSolve:
    MODES = np.arange(-8, 9)

    def test_every_mode_matches_the_per_mode_oracle(self, rng):
        # three random forms, n_max <= 8, stacked on a leading axis
        v0, v1, samples = 0.3, 0.6, 64
        fs = [make_random_form(rng, n_max=int(rng.integers(1, 9))) for _ in range(3)]
        u = np.arange(samples) * (1.0 / samples)
        lines = [np.stack([evaluate(f, u + 1j * v) for f in fs]) for v in (v0, v1)]
        c_plus, c_minus, info = two_height_solve(*lines, -2, self.MODES, v0, v1)
        assert c_plus.shape == c_minus.shape == info["i0"].shape == (3, self.MODES.size)
        assert not info["lost"]
        for i in range(3):
            for j, n in enumerate(self.MODES.tolist()):
                want, tols = [], []
                for key, vals, v in (("i0", lines[0][i], v0), ("i1", lines[1][i], v1)):
                    want.append(mode_from_samples(vals, n, v))
                    tols.append(1e-12 * np.abs(vals).max() * math.exp(2 * math.pi * abs(n) * v))
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
        two_height_solve(vals, vals, -2, np.arange(-3, 4), 0.5, 1.0)
        assert len(calls) == 12  # two heights for each of the six modes n != 0

    def test_lost_modes_come_back_zero_with_their_reason(self, rng):
        f = make_random_form(rng)
        taus = np.arange(64) / 64
        lines = [evaluate(f, taus + 1j * v) for v in (10.0, 20.0)]
        c_plus, c_minus, info = two_height_solve(*lines, -2, [0, 3, -8], 10.0, 20.0)
        assert "double range" in info["lost"][3] and "agree to 1e-8" in info["lost"][-8]
        assert c_plus[1:].tolist() == c_minus[1:].tolist() == [0j, 0j]
        assert np.isinf(info["condition"][1:]).all() and np.isfinite(info["condition"][0])

    def test_close_heights_lose_the_mode(self, rng):
        f = make_random_form(rng)
        v0, v1 = 0.8, 0.8 + 1e-12
        lines = [evaluate(f, np.arange(256) / 256 + 1j * v) for v in (v0, v1)]
        c_plus, c_minus, info = two_height_solve(*lines, -2, [1], v0, v1)
        assert "agree to 1e-8 relative; move the heights" in info["lost"][1]
        assert c_plus.tolist() == c_minus.tolist() == [0j]

    @pytest.mark.parametrize("v0, v1", [(5.0, 10.0), (10.0, 20.0)])
    def test_gram_overflow_loses_the_mode(self, rng, v0, v1):
        # at n = 3 the condition estimate overflows from n v1 ~ 27 and the
        # Gram value itself from n v1 ~ 56: both are a lost mode
        f = make_random_form(rng)
        lines = [evaluate(f, np.arange(256) / 256 + 1j * v) for v in (v0, v1)]
        c_plus, c_minus, info = two_height_solve(*lines, -2, [3], v0, v1)
        assert "double range" in info["lost"][3]
        assert c_plus.tolist() == c_minus.tolist() == [0j]

    def test_one_fft_per_sampled_height(self, monkeypatch, rng):
        shapes = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda a, *args: shapes.append(np.shape(a)) or fft(a, *args))
        f_expansion(1, TRIV, -2, cusps(1)[0], 8, bound=20)
        # the bound-B line and its bound//2 prefix go in as one stack
        assert shapes == [(2, 256), (2, 256)]
        shapes.clear()
        f = make_random_form(rng)
        extract_coefficients(lambda taus: evaluate(f, taus), -2, 2, 256)
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

    @pytest.mark.parametrize("field, index, bad", [
        ("c_plus", 2, math.nan), ("c_minus_zero", None, math.inf), ("c_minus", 1, -math.inf),
    ])
    def test_a_non_finite_coefficient_is_not_saved(self, rng, tmp_path, field, index, bad):
        # JSON has no NaN or Infinity: the file would not be strict JSON
        f = make_random_form(rng, k=-3, n_max=4)
        value, where = bad, field
        if index is not None:
            value, where = getattr(f, field).copy(), f"{field}[{index}]"
            value[index] = bad
        path = tmp_path / "form.json"
        with pytest.raises(ValueError, match=re.escape(where) + " must be finite"):
            save_form(replace(f, **{field: value}), path)
        assert not path.exists()

    @pytest.mark.parametrize("field, token", [("c_plus", "NaN"), ("c_minus", "-Infinity")])
    def test_a_file_holding_nan_or_infinity_is_not_loaded(self, rng, tmp_path, field, token):
        f = make_random_form(rng, k=-3, n_max=4)
        path = tmp_path / "form.json"
        save_form(f, path)
        data = json.loads(path.read_text())
        data[field][3][1] = float(token.replace("Infinity", "inf"))
        path.write_text(json.dumps(data))
        assert token in path.read_text()
        with pytest.raises(ValueError, match=re.escape(f"{field}[3] must be finite")):
            load_form(path)

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
