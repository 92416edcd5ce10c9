"""What a form derives is derived once and kept with it.

A FormExpansion keeps its TermSeries (to_terms) and its partner constants
(fricke_constants); a TermSeries keeps its last evaluator pass.  Every value
must stay bit for bit what a fresh form gives, and a form must not be
changed under what it keeps.
"""

import copy
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import maassforms.forms as forms
from helpers import make_random_form, oldform_pair
from maassforms.characters import character_by_label
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.forms import TermSeries, to_terms
from maassforms.lseries import (analytic_pair, fe_residuals, lambda_continued,
                                reconstruct_from_lambda)

# the shape of the benchmark's verify grid, moved per call by an offset in
# Im s as the benchmark moves it
GRID = [complex(re, im) for re in (-1.5, -1.0, -0.5, 0.5, 1.5) for im in (0.5, 1.5, 3.0)]


def fresh(form):
    """A new form object holding the same data, with nothing derived yet."""
    return replace(form)


def shifted(offset):
    return [s + 1j * offset for s in GRID]


def verify_partners(level):
    """f and its three partners of the benchmark's verify round: the true
    partner, c+(2N) times 1.01, and c-(0) without its factor N^{1-k}."""
    f, g = oldform_pair(level)
    c_plus = np.array(g.c_plus)
    c_plus[2 * level] *= 1.01
    unscaled = g.c_minus_zero / float(level) ** (1 - g.weight)
    return f, [g, replace(g, c_plus=c_plus), replace(g, c_minus_zero=unscaled)]


def same_report(a, b):
    return (a.grid == b.grid and a.lambda_residuals == b.lambda_residuals
            and a.omega_residuals == b.omega_residuals and a.excluded == b.excluded
            and a.tail_bound == b.tail_bound and a.quadrature_T == b.quadrature_T)


@pytest.fixture
def computed(monkeypatch):
    """Whether a call ran an evaluator pass (a power table was formed)."""
    tables = []
    build = forms._power_table

    def counting(*args):
        tables.append(1)
        return build(*args)

    monkeypatch.setattr(forms, "_power_table", counting)

    def ran(call):
        tables.clear()
        out = call()
        return bool(tables), out

    return ran


class TestIdentity:
    def test_a_form_compares_and_hashes_by_identity(self, rng):
        f = make_random_form(rng)
        assert f == f
        assert f != copy.copy(f)
        assert f != fresh(f)
        assert {f: 1}[f] == 1

    def test_coefficients_stay_read_only(self, rng):
        c_plus = rng.normal(size=7) + 1j * rng.normal(size=7)
        c_minus = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = replace(make_random_form(rng), c_plus=c_plus, c_minus=c_minus)
        to_terms(f)
        for arr, want in ((f.c_plus, c_plus), (f.c_minus, c_minus)):
            with pytest.raises(ValueError):
                arr.setflags(write=True)
            with pytest.raises(ValueError):
                arr[0] = 5.0
            assert arr.tobytes() == want.tobytes()
        # the form holds its own copy: the caller's arrays stay writeable
        c_plus[0] = 5.0
        assert f.c_plus[0] != 5.0


class TestBitwiseReuse:
    """Calls on one form object give the values a fresh copy gives."""

    @pytest.mark.parametrize("level", [2, 7, 11])
    def test_one_f_against_its_verify_partners(self, level):
        f, partners = verify_partners(level)
        for offset, g in zip((0.03, -0.07, 0.01), partners):
            got = fe_residuals(f, g, shifted(offset))
            want = fe_residuals(fresh(f), fresh(g), shifted(offset))
            assert same_report(got, want)
        psi = character_by_label(5, "quadratic")
        for offset, g in zip((0.05, -0.02), partners):
            got = fe_residuals(f, g, shifted(offset)[:3], psi=psi)
            want = fe_residuals(fresh(f), fresh(g), shifted(offset)[:3], psi=psi)
            assert same_report(got, want)

    def test_reconstruction_at_several_t(self):
        f = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(f)
        for t in (0.8, 1.0, 1.5):
            other = analytic_pair(fresh(f))
            got, want = (reconstruct_from_lambda(partial(lambda_continued, p), 1, -2, t, 2.0, 40.0)
                         for p in (pair, other))
            assert complex(got) == complex(want)


class TestKeptData:
    def test_to_terms_returns_one_series(self, rng):
        f = make_random_form(rng)
        assert to_terms(f) is to_terms(f)
        assert to_terms(fresh(f)) is not to_terms(f)

    def test_a_replaced_form_derives_its_own_data(self):
        f, _ = oldform_pair(7)
        ts, constants = to_terms(f), f.fricke_constants
        c_plus = np.array(f.c_plus)
        c_plus[1] *= 1.01
        h = replace(f, c_plus=c_plus)
        built = forms.FormExpansion(h.weight, h.level, h.character, h.alpha, h.n_max,
                                    c_plus, h.c_minus_zero, h.c_minus)
        assert to_terms(h) is not ts
        assert to_terms(h).coef.tobytes() == to_terms(built).coef.tobytes()
        assert to_terms(h).coef.tobytes() != ts.coef.tobytes()
        assert h.fricke_constants == built.fricke_constants
        assert h.fricke_constants != constants
        assert (to_terms(f), f.fricke_constants) == (ts, constants)

    def test_a_second_residual_call_builds_nothing_for_f(self, monkeypatch):
        f, (g, g_perturbed, _) = verify_partners(11)
        fe_residuals(f, g, shifted(0.02))
        ts, last = to_terms(f), to_terms(f)._last
        builds, extractions = [], []
        post_init, extract = TermSeries.__post_init__, forms.extract_coefficients

        def building(self):
            builds.append(self)
            post_init(self)

        def extracting(*args):
            extractions.append(args)
            return extract(*args)

        monkeypatch.setattr(TermSeries, "__post_init__", building)
        monkeypatch.setattr(forms, "extract_coefficients", extracting)
        fe_residuals(f, g_perturbed, shifted(-0.04))
        # the partner's series and constants only; f's pass came from memory
        assert len(builds) == 1 and len(extractions) == 1
        assert to_terms(f) is ts and ts._last is last


class TestLastPass:
    def test_a_repeated_pass_is_served_from_memory(self, rng, computed):
        ts = to_terms(make_random_form(rng, n_max=40))
        taus = rng.uniform(-1.0, 1.0, 70) + 1j * rng.uniform(0.05, 1.5, 70)
        ran, first = computed(lambda: ts.eval(taus))
        assert ran
        ran, again = computed(lambda: ts.eval(taus))
        assert not ran and np.array_equal(first, again)
        again[:] = 0.0
        ran, third = computed(lambda: ts.eval(taus.copy()))
        assert not ran and np.array_equal(third, first)
        # the caller's shape comes from the call, not the memory
        ran, square = computed(lambda: ts.eval(taus.reshape(7, 10)))
        assert not ran and np.array_equal(square, first.reshape(7, 10))
        ran, lone = computed(lambda: ts.eval(taus[:1]))
        assert ran
        ran, scalar = computed(lambda: ts.eval(complex(taus[0])))
        assert not ran and type(scalar) is complex and scalar == lone[0]

    def test_other_points_orders_and_signed_zeros_recompute(self, rng, computed):
        form = make_random_form(rng, n_max=40)
        ts = to_terms(form)
        taus = rng.uniform(-1.0, 1.0, 70) + 1j * rng.uniform(0.05, 1.5, 70)
        taus[::5] = 1j * taus[::5].imag
        signed = taus.copy()
        signed.real[::5] = -0.0  # equal points, other bits
        assert np.array_equal(signed, taus) and signed.tobytes() != taus.tobytes()
        other = to_terms(fresh(form))  # the values a series without memory gives
        # each call follows the one before it, so each asks for a new pass
        for call in (lambda s: s.eval(taus), lambda s: s.eval(taus[::-1]),
                     lambda s: s._sums(taus, 1)[0], lambda s: s.eval(taus),
                     lambda s: s.eval(taus + 0.25), lambda s: s.eval(taus),
                     lambda s: s.eval(signed), lambda s: s.eval(taus)):
            ran, got = computed(lambda: call(ts))
            assert ran
            want = call(other)
            assert np.array_equal(np.atleast_2d(got), np.atleast_2d(want))

    def test_a_returned_row_does_not_reach_the_memory(self, rng):
        ts = to_terms(make_random_form(rng, n_max=20))
        taus = 0.1 + 1j * np.linspace(0.1, 1.0, 9)
        outs, _ = ts._sums(taus, 1)
        want = [row.copy() for row in outs]
        for row in outs:
            row[:] = np.nan
        again, _ = ts._sums(taus, 1)
        assert all(np.array_equal(a, b) for a, b in zip(again, want))

    def test_warm_evaluation_at_new_points_at_n_max_1e5_stays_small(self, rng):
        # test_warm_evaluation_at_n_max_1e5_stays_small repeats its points,
        # which the memory now serves; here the warm call gets new points
        ts = to_terms(harmonic_eisenstein_level_one(100_000))
        taus = rng.uniform(-1.0, 1.0, 256) + 1j * rng.uniform(0.002, 1.5, 256)
        ts.eval(taus)
        tracemalloc.start()
        try:
            ts.eval(taus + 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
