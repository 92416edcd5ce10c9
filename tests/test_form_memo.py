"""What a form derives is derived once and kept with it.

A FormExpansion keeps its TermSeries (to_terms), one twist per character
and its Fricke pair (analytic_pair); a FrickePair keeps its partner's
constants, its evaluator's last node rows and its last continuation, and a
TermSeries pass keeps nothing.  Every value must stay bit for bit what a
fresh form gives, a form must not be changed under what it keeps, each owner
keeps one of each (one per character for the twists), and what it keeps is
released with it.
"""

import copy
import gc
import tracemalloc
import weakref
from dataclasses import replace
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maassforms.forms as forms
from helpers import make_random_form, oldform_pair, padded_pair
import maassforms.lseries as lseries
from maassforms.characters import DirichletCharacter, character_by_label
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.forms import TermSeries, bol, shadow, to_terms, twist
from maassforms.lseries import (ResidualReport, _star, analytic_pair, fe_residuals, lambda_continued,
                                lambda_star, omega_continued, omega_star,
                                reconstruct_from_lambda, twisted_lambda, twisted_omega)

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


def partner_constants(form):
    """(c_g+(0), c_g-(0)) of the form's Fricke pair."""
    pair = analytic_pair(form)
    return pair.c_g_plus0, pair.c_g_minus0


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

    @pytest.mark.parametrize("image", [shadow, bol])
    def test_a_holomorphic_image_compares_hashes_and_stays_read_only(self, rng, image):
        f = make_random_form(rng)
        h, again = image(f), image(f)
        assert h == h and h != again and h != copy.copy(h)
        assert {h: 1}[h] == 1
        tau = 0.1 + 0.7j
        before = h.evaluate(tau)
        with pytest.raises(ValueError):
            h.coefficients.setflags(write=True)
        with pytest.raises(ValueError):
            h.coefficients[0] = 5.0
        assert h.evaluate(tau) == before == again.evaluate(tau)


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
        ts, constants = to_terms(f), partner_constants(f)
        c_plus = np.array(f.c_plus)
        c_plus[1] *= 1.01
        h = replace(f, c_plus=c_plus)
        built = forms.FormExpansion(h.weight, h.level, h.character, h.alpha, h.n_max,
                                    c_plus, h.c_minus_zero, h.c_minus)
        assert to_terms(h) is not ts
        assert to_terms(h).coef.tobytes() == to_terms(built).coef.tobytes()
        assert to_terms(h).coef.tobytes() != ts.coef.tobytes()
        assert partner_constants(h) == partner_constants(built)
        assert partner_constants(h) != constants
        assert (to_terms(f), partner_constants(f)) == (ts, constants)

    def test_a_second_residual_call_builds_nothing_for_f(self, monkeypatch):
        f, (g, g_perturbed, _) = verify_partners(11)
        fe_residuals(f, g, shifted(0.02))
        ts = to_terms(f)
        builds, extractions, f_passes = [], [], []
        post_init, extract = TermSeries.__post_init__, forms.extract_coefficients
        sums = TermSeries._sums

        def building(self):
            builds.append(self)
            post_init(self)

        def extracting(*args):
            extractions.append(args)
            return extract(*args)

        def summing(self, *args):
            if self is ts:
                f_passes.append(args)
            return sums(self, *args)

        monkeypatch.setattr(TermSeries, "__post_init__", building)
        monkeypatch.setattr(forms, "extract_coefficients", extracting)
        monkeypatch.setattr(TermSeries, "_sums", summing)
        fe_residuals(f, g_perturbed, shifted(-0.04))
        # the partner's series and constants only; f's rows came from its pair
        assert len(builds) == 1 and len(extractions) == 1
        assert to_terms(f) is ts and f_passes == []


class TestLastPass:
    """A series pass keeps nothing; a Fricke pair keeps its evaluator's last
    node rows, keyed by the points' exact bits, and answers with copies."""

    def test_a_series_pass_keeps_nothing(self, rng, computed):
        ts = to_terms(make_random_form(rng, n_max=40))
        taus = rng.uniform(-1.0, 1.0, 70) + 1j * rng.uniform(0.05, 1.5, 70)
        ran, first = computed(lambda: ts.eval(taus))
        assert ran
        ran, again = computed(lambda: ts.eval(taus))
        assert ran and np.array_equal(first, again)

    def test_an_evaluation_leaves_nothing_held(self, rng):
        # the points' bytes and the value row of this pass are 32 MB:
        # none of it may stay with the series
        ts = to_terms(harmonic_eisenstein_level_one(40))
        taus = rng.uniform(-1.0, 1.0, 10**6) + 1j * rng.uniform(0.05, 1.5, 10**6)
        ts.eval(taus[:1])  # the series' matrices, kept with it
        tracemalloc.start()
        try:
            ts.eval(taus)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1e6

    def test_a_repeated_pass_is_served_from_memory(self, rng, computed):
        pair = analytic_pair(make_random_form(rng, n_max=40))
        taus = rng.uniform(-1.0, 1.0, 70) + 1j * rng.uniform(0.05, 1.5, 70)
        ran, first = computed(lambda: pair.integrands(taus))
        assert ran
        ran, again = computed(lambda: pair.integrands(taus))
        assert not ran and np.array_equal(first, again)
        again[:] = 0.0
        ran, third = computed(lambda: pair.integrands(taus.copy()))
        assert not ran and np.array_equal(third, first)
        ran, lone = computed(lambda: pair.integrands(taus[:1]))
        assert ran and np.array_equal(lone, first[:, :1])

    def test_other_points_orders_and_signed_zeros_recompute(self, rng, computed):
        form = make_random_form(rng, n_max=40)
        pair = analytic_pair(form)
        taus = rng.uniform(-1.0, 1.0, 70) + 1j * rng.uniform(0.05, 1.5, 70)
        taus[::5] = 1j * taus[::5].imag
        signed = taus.copy()
        signed.real[::5] = -0.0  # equal points, other bits
        assert np.array_equal(signed, taus) and signed.tobytes() != taus.tobytes()
        other = analytic_pair(fresh(form))  # the values a pair without memory gives
        # each call follows the one before it, so each asks for a new pass
        for points in (taus, taus[::-1], taus, taus + 0.25, taus, signed, taus):
            ran, got = computed(lambda: pair.integrands(points))
            assert ran
            assert np.array_equal(got, other.integrands(points))

    def test_a_replaced_pair_shares_the_rows(self, rng, computed):
        pair = analytic_pair(make_random_form(rng, n_max=20))
        taus = 1j * np.linspace(0.1, 1.0, 9)
        want = pair.integrands(taus)
        smaller = replace(pair, T=pair.T / 2)
        ran, rows = computed(lambda: smaller.integrands(taus))
        assert not ran and np.array_equal(rows, want)
        rows[:] = np.nan
        ran, again = computed(lambda: pair.integrands(taus))
        assert not ran and np.array_equal(again, want)

    def test_warm_evaluation_at_new_points_at_n_max_1e5_stays_small(self, rng):
        # test_warm_evaluation_at_n_max_1e5_stays_small repeats its points;
        # a series keeps no pass, so both warm calls make one, here at new points
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


@pytest.fixture
def mellin_calls(monkeypatch):
    """Per lseries._mellin_piece call (one continuation), the number of
    evaluator calls it made."""
    seen, piece = [], lseries._mellin_piece

    def counting(eval_fn, *args):
        seen.append(0)

        def evaluating(taus):
            seen[-1] += 1
            return eval_fn(taus)

        return piece(evaluating, *args)

    monkeypatch.setattr(lseries, "_mellin_piece", counting)
    return seen


def quadratic(m):
    """The quadratic character mod m, a new object on each call."""
    return character_by_label(m, "quadratic")


def counting_builds(monkeypatch):
    """The forms built (FormExpansion.__post_init__ runs: one per twist made)
    and the forms.extract_coefficients calls (one per pair built) from now on."""
    builds, extractions = [], []
    post_init, extract = forms.FormExpansion.__post_init__, forms.extract_coefficients

    def building(self):
        builds.append(self)
        post_init(self)

    def extracting(*args):
        extractions.append(args)
        return extract(*args)

    monkeypatch.setattr(forms.FormExpansion, "__post_init__", building)
    monkeypatch.setattr(forms, "extract_coefficients", extracting)
    return builds, extractions


def same_data(a, b):
    return (a.level == b.level and a.character == b.character
            and a.c_plus.tobytes() == b.c_plus.tobytes()
            and a.c_minus.tobytes() == b.c_minus.tobytes() and a.c_minus_zero == b.c_minus_zero)


class TestKeptTwist:
    def test_an_equal_character_gets_the_same_twist(self, rng):
        f = make_random_form(rng, n_max=30)
        psi, again = quadratic(5), quadratic(5)
        assert psi is not again and psi == again
        assert twist(f, psi) is twist(f, again) is twist(f, psi.conjugate())

    def test_another_character_keeps_the_first_twist(self, rng):
        f = make_random_form(rng, n_max=30)
        first = twist(f, quadratic(5))
        other = twist(f, quadratic(7))
        again = twist(f, quadratic(5))
        assert again is first and other is not first
        assert same_data(again, twist(fresh(f), quadratic(5)))
        assert same_data(other, twist(fresh(f), quadratic(7)))

    def test_a_complex_character_and_its_conjugate_give_two_forms(self, rng):
        f = make_random_form(rng, n_max=30)
        psi = DirichletCharacter(5, (1,))  # order 4, primitive
        assert psi.is_primitive and psi != psi.conjugate()
        f_psi, f_psibar = twist(f, psi), twist(f, psi.conjugate())
        assert f_psi is not f_psibar
        assert f_psi.c_plus.tobytes() != f_psibar.c_plus.tobytes()
        assert same_data(f_psibar, twist(fresh(f), psi.conjugate()))

    def test_the_twists_are_released_with_the_form(self, rng):
        f = make_random_form(rng, n_max=30)
        first = twist(f, quadratic(5))
        analytic_pair(first)  # and with it what the twist keeps
        gone = weakref.ref(first)
        del first
        gc.collect()
        assert gone() is not None
        twist(f, quadratic(7))  # another psi keeps the first twist
        gc.collect()
        assert gone() is not None
        del f
        gc.collect()
        assert gone() is None

    def test_every_twist_dies_with_its_form(self, rng):
        f = make_random_form(rng, n_max=30)
        psi = DirichletCharacter(5, (1,))  # order 4
        twists = [twist(f, p) for p in (quadratic(3), quadratic(4), psi, psi.conjugate())]
        for f_psi in twists:
            analytic_pair(f_psi)
        refs = [weakref.ref(f_psi) for f_psi in twists]
        del twists, f_psi
        gc.collect()
        assert all(ref() is not None for ref in refs)
        del f
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_a_replaced_form_starts_with_no_twists(self, rng):
        f = make_random_form(rng, n_max=30)
        f_psi = twist(f, quadratic(5))
        g = replace(f)
        c_plus = np.array(f.c_plus)
        c_plus[1] += 1.0
        h = replace(f, c_plus=c_plus)
        assert g._twists == {} and h._twists == {} and f._twists is not g._twists
        assert twist(g, quadratic(5)) is not f_psi and same_data(twist(g, quadratic(5)), f_psi)
        assert twist(h, quadratic(5)).c_plus[1] == quadratic(5)(1) * c_plus[1]
        assert list(f._twists.values()) == [f_psi]

    def test_interleaved_characters_twist_build_and_extract_once_each(self, monkeypatch):
        f = harmonic_eisenstein_level_one(40)
        s = np.array([0.5 + 0.5j, -1.0 + 1.0j])
        builds, extractions = counting_builds(monkeypatch)
        got = [call(f, f, f.character, quadratic(m), 1, f.weight, s)
               for m in (3, 4, 5, 3, 4, 5) for call in (twisted_lambda, twisted_omega)]
        assert len(builds) == 3 and len(extractions) == 3
        monkeypatch.undo()
        want = []
        for m in (3, 4, 5, 3, 4, 5):
            g = fresh(f)
            want += [call(g, g, g.character, quadratic(m), 1, g.weight, s)
                     for call in (twisted_lambda, twisted_omega)]
        for a, b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_a_complex_character_on_one_form_twists_each_side_once(self, monkeypatch):
        f = harmonic_eisenstein_level_one(40)
        psi = DirichletCharacter(5, (1,))  # order 4: f_psi and f_psibar differ
        builds, extractions = counting_builds(monkeypatch)
        got = [fe_residuals(f, f, GRID[:4], psi=psi) for _ in range(2)]
        assert len(builds) == 2 and len(extractions) == 2
        monkeypatch.undo()
        want = fe_residuals(fresh(f), fresh(f), GRID[:4], psi=DirichletCharacter(5, (1,)))
        assert all(same_report(report, want) for report in got)

    def test_a_twisted_equation_twists_builds_and_extracts_once(self, monkeypatch):
        f = harmonic_eisenstein_level_one(40)
        psi, s = quadratic(5), np.array([0.5 + 0.5j, -1.0 + 1.0j])
        builds, extractions = counting_builds(monkeypatch)
        got = [call(f, f, f.character, psi, 1, f.weight, s) for call in (twisted_lambda, twisted_omega)]
        assert len(builds) == 1 and len(extractions) == 1
        monkeypatch.undo()
        g = fresh(f)
        want = [call(g, fresh(g), g.character, quadratic(5), 1, g.weight, s)
                for call in (twisted_lambda, twisted_omega)]
        for a, b in zip(got, want):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestKeptPair:
    def test_a_form_keeps_its_pair(self, rng):
        f = make_random_form(rng)
        assert analytic_pair(f) is analytic_pair(f)
        assert analytic_pair(fresh(f)) is not analytic_pair(f)

    def test_a_side_at_the_smaller_cut_off_is_the_kept_pair(self):
        # a side ran on a pair when that pair keeps the side's batch (see _star)
        s = np.array([0.5 + 0.5j, -1.0 + 1.0j])
        f, (g, *_) = verify_partners(7)  # one cut-off: both sides are kept pairs
        _, _, _, _, T = lseries._sides(f, g, None, s)
        assert T == analytic_pair(f).T == analytic_pair(g).T
        assert analytic_pair(f)._last[0] == s.tobytes()
        assert analytic_pair(g)._last[0] == (f.weight - s).tobytes()
        f, g = padded_pair()  # f's cut-off is the smaller one
        side_f, side_g, _, _, T = lseries._sides(f, g, None, s)
        assert T == analytic_pair(f).T < analytic_pair(g).T
        assert analytic_pair(f)._last[0] == s.tobytes()
        assert np.array_equal(side_f, lseries._continued(analytic_pair(f), s))
        assert analytic_pair(g)._last[0] != (f.weight - s).tobytes()
        at_t = replace(analytic_pair(g), T=T)
        assert np.array_equal(side_g, lseries._continued(at_t, f.weight - s))

    def test_reconstruction_continues_once(self, mellin_calls):
        f = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(f)
        for t in (0.8, 1.0, 1.5):
            got = reconstruct_from_lambda(partial(lambda_continued, analytic_pair(f)),
                                          1, -2, t, 2.0, 40.0)
            calls = len(mellin_calls)
            other = analytic_pair(fresh(f))
            want = reconstruct_from_lambda(partial(lambda_continued, other), 1, -2, t, 2.0, 40.0)
            del mellin_calls[calls:]
            assert complex(got) == complex(want)
        assert mellin_calls == [1] and analytic_pair(f) is pair

    def test_another_batch_recomputes(self, mellin_calls):
        pair = analytic_pair(harmonic_eisenstein_level_one(12))
        pts = np.array([0.5 + 1j, -1.0 + 2j, 2.5 - 3j])
        zeros = np.array([0.5 + 0j, 1.5 + 1j])
        negative = zeros.copy()
        negative.imag[0] = -0.0
        # each call follows the one before it, so each continues anew
        for call in (lambda p: lambda_star(p, pts), lambda p: omega_star(p, -pts),
                     lambda p: lambda_star(p, pts), lambda p: lambda_star(p, pts[::-1]),
                     lambda p: lambda_star(p, pts[:2]), lambda p: lambda_star(p, zeros),
                     lambda p: lambda_star(p, negative), lambda p: lambda_star(p, pts)):
            mellin_calls.clear()
            got = call(pair)
            assert len(mellin_calls) == 1
            other = analytic_pair(fresh(harmonic_eisenstein_level_one(12)))
            assert np.array_equal(got, call(other))
        mellin_calls.clear()
        assert np.array_equal(lambda_star(pair, pts.copy()), got)
        # a repeat of the last batch, for Lambda or Omega, from memory
        omega = omega_star(pair, pts)
        assert mellin_calls == []
        other = analytic_pair(fresh(harmonic_eisenstein_level_one(12)))
        assert np.array_equal(omega, omega_star(other, pts))

    def test_a_returned_array_does_not_reach_the_memory(self, mellin_calls):
        pair = analytic_pair(harmonic_eisenstein_level_one(12))
        pts = np.array([[0.5 + 1j, -1.0 + 2j], [2.5 - 3j, 0.25 + 0j]])
        rows = _star(pair, pts)
        want = [row.copy() for row in rows]
        for row in rows:
            row[...] = np.nan
        again = _star(pair, pts)
        assert len(mellin_calls) == 1
        assert all(np.array_equal(a, b) for a, b in zip(again, want))
        assert all(row.shape == pts.shape for row in again)
        scalar = lambda_star(pair, 0.5 + 1j)
        assert type(scalar) is complex and scalar == lambda_star(pair, complex(0.5, 1.0))
        assert len(mellin_calls) == 2


class TestOneContinuation:
    """A pair's continuation is (Lambda, Omega): Omega read after Lambda at
    the same points, plain or twisted, takes no second Mellin sum and no
    second evaluator pass, and every value is the one fresh forms give."""

    S = np.array([0.5 + 1j, -1.0 + 2j, 2.5 - 3j])

    def test_omega_after_lambda_takes_one_mellin_sum(self, mellin_calls):
        f = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(f)
        got = [lambda_continued(pair, self.S), omega_continued(pair, self.S)]
        assert mellin_calls == [1]
        want = [fn(analytic_pair(fresh(f)), self.S) for fn in (lambda_continued, omega_continued)]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_twisted_omega_after_twisted_lambda_continues_once(self, mellin_calls, passes):
        f = harmonic_eisenstein_level_one(40)
        psi, s = quadratic(5), 0.5 + 0.5j
        got = [call(f, f, f.character, psi, 1, f.weight, s) for call in (twisted_lambda, twisted_omega)]
        # one continuation of the shared pair at s and k - s, which share
        # their Mellin nodes: one order-1 pass on 2 n panels of 16 nodes
        (npanels,) = set(lseries._mellin_panels(np.array([s, f.weight - s]),
                                                analytic_pair(twist(f, psi)).T).tolist())
        assert mellin_calls == [1]
        assert [p for p in passes if p[0] == 1] == [(1, 32 * npanels)]
        want = [call(g, fresh(g), g.character, quadratic(5), 1, g.weight, s)
                for call, g in ((twisted_lambda, fresh(f)), (twisted_omega, fresh(f)))]
        assert repr(got) == repr(want)


@cache
def kept_equations():
    """The sides of three equations, kept for the whole session so that what
    they keep carries over from one example to the next: the level-1 lift
    against itself, the N = 7 golden pair at base 4, and the zero-padded
    N = 7 pair, whose sides have different cut-offs."""
    lift = harmonic_eisenstein_level_one(40)
    return [(lift, lift), oldform_pair(7, base=4), padded_pair()]


# psi: none, quadratic mod 3 and mod 5, and the order-4 character mod 5,
# whose f_psi and f_psibar differ on a self-paired form
CHARACTERS = [None, quadratic(3), quadratic(5), DirichletCharacter(5, (1,))]
POOL = [0.5 + 0.5j, -1.0 + 1.0j, 1.5 + 0.5j, 2.0 + 0.16j, -0.5 + 3.0j]


def drive(name, f, g, psi, s):
    if name == "fe_residuals":
        return fe_residuals(f, g, list(s), psi=psi)
    if name == "lambda_continued":
        return lambda_continued(analytic_pair(f if psi is None else twist(f, psi)), s)
    call = twisted_lambda if name == "twisted_lambda" else twisted_omega
    return call(f, g, f.character, psi, f.level, f.weight, s)


def bits(x):
    """The exact bits of an output (a report, a tuple or an array)."""
    if isinstance(x, ResidualReport):
        x = [x.grid, x.lambda_residuals, x.omega_residuals, x.excluded, x.quadrature_T,
             x.tail_bound]
    if isinstance(x, (list, tuple)):
        return [bits(y) for y in x]
    return np.asarray(x).tobytes()


def equation_call():
    """(function, equation index, psi, s): a twisted function takes a psi."""
    def with_psi(name):
        psis = CHARACTERS if name in ("fe_residuals", "lambda_continued") else CHARACTERS[1:]
        batch = st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True)
        return st.tuples(st.just(name), st.integers(0, 2), st.sampled_from(psis),
                         batch.map(np.array))

    names = ("fe_residuals", "twisted_lambda", "twisted_omega", "lambda_continued")
    return st.sampled_from(names).flatmap(with_psi)


class TestKeptIsInvisible:
    @settings(max_examples=25)
    @given(st.lists(equation_call(), min_size=1, max_size=6))
    def test_any_interleaving_gives_the_bits_of_fresh_forms(self, calls):
        # every branch of _sides (one shared pair, kept pairs at one T, a
        # pair replaced to the smaller T) meets kept twists, pairs and
        # continuations left by any earlier call
        for name, which, psi, s in calls:
            f, g = kept_equations()[which]
            got = drive(name, f, g, psi, s)
            new_f = fresh(f)
            want = drive(name, new_f, new_f if g is f else fresh(g), psi, s)
            assert bits(got) == bits(want), (name, which, psi, s)
