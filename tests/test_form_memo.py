"""What a form derives is kept with it, and the keeping is invisible.

A form keeps its series, its twists and its Fricke pair, and a pair keeps
its evaluator's last rows and its last continuation (see the forms module
docstring and lseries.FrickePair).  Every test here makes one or both of
two claims, and none reads what a form or pair keeps:

1. Bits: an output has the bits that fresh forms give, under any
   interleaving of calls (TestKeptIsInvisible, and every comparison with
   fresh(form) below).
2. Work: a call does the work stated, in the counts of the work fixture
   (conftest.py): evaluator passes, Mellin sums, extractions and forms
   built.  For example, a repeated equation adds no pass and no Mellin sum.

Which attribute holds what is part of neither claim, so a memory can be
removed by editing the counts it saves.  A form's coefficients are
read-only, so nothing kept goes stale, and what a form keeps dies with it.
"""

import ast
import copy
import gc
import tracemalloc
import weakref
from dataclasses import replace
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import maassforms.lseries as lseries
from helpers import make_random_form, oldform_pair, padded_pair
from maassforms.characters import DirichletCharacter, character_by_label
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.forms import FormExpansion, bol, shadow, to_terms, twist
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


def bits(x):
    """The exact bits of an output (a report, a tuple or an array)."""
    if isinstance(x, ResidualReport):
        x = [x.grid, x.lambda_residuals, x.omega_residuals, x.excluded, x.quadrature_T,
             x.tail_bound]
    if isinstance(x, (list, tuple)):
        return [bits(y) for y in x]
    return np.asarray(x).tobytes()


def same_data(a, b):
    return (a.level == b.level and a.character == b.character
            and bits([a.c_plus, a.c_minus, a.c_minus_zero]) == bits([b.c_plus, b.c_minus, b.c_minus_zero]))


def quadratic(m):
    """The quadratic character mod m, a new object on each call."""
    return character_by_label(m, "quadratic")


def random_taus(rng):
    return rng.uniform(-1.0, 1.0, 70) + 1j * rng.uniform(0.05, 1.5, 70)


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


class TestKeptData:
    def test_a_replaced_form_derives_its_own_data(self):
        f, _ = oldform_pair(7)
        coef, constants = to_terms(f).coef.tobytes(), partner_constants(f)
        c_plus = np.array(f.c_plus)
        c_plus[1] *= 1.01
        h = replace(f, c_plus=c_plus)
        built = FormExpansion(h.weight, h.level, h.character, h.alpha, h.n_max,
                              c_plus, h.c_minus_zero, h.c_minus)
        assert to_terms(h).coef.tobytes() == to_terms(built).coef.tobytes() != coef
        assert partner_constants(h) == partner_constants(built) != constants
        assert (to_terms(f).coef.tobytes(), partner_constants(f)) == (coef, constants)

    def test_a_second_residual_call_builds_nothing_for_f(self, work):
        f, (g, g_perturbed, _) = verify_partners(11)
        fe_residuals(f, g, shifted(0.02))
        work.clear()
        fe_residuals(f, g_perturbed, shifted(-0.04))
        # the partner's pair and one Mellin sum per side, on one node set;
        # f's rows came from its pair, so only the partner's series was
        # evaluated: at its zero mode and at the nodes
        nodes = work.sums[0][1]
        assert (work.forms, work.extractions) == (0, 1)
        assert work.sums == [(15, nodes), (15, nodes)]
        assert work.passes == [(0, 64), (1, nodes)]
        assert work.entries == to_terms(g_perturbed).F.size * (64 + nodes)

    @pytest.mark.parametrize("level", [1, 7])
    @pytest.mark.parametrize("psi", [None, quadratic(5), DirichletCharacter(5, (1,))])
    def test_a_repeated_equation_adds_no_work(self, work, level, psi):
        # level 1: the lift against itself; level 7: a golden pair, f != g
        f, g = (harmonic_eisenstein_level_one(40),) * 2 if level == 1 else oldform_pair(7, base=4)
        first = fe_residuals(f, g, GRID, psi=psi)
        work.clear()
        again = fe_residuals(f, g, GRID, psi=psi)
        assert (work.passes, work.sums, work.extractions, work.forms) == ([], [], 0, 0)
        new_f = fresh(f)
        want = fe_residuals(new_f, new_f if g is f else fresh(g), GRID, psi=psi)
        assert bits(again) == bits(first) == bits(want)


class TestLastRows:
    """A series pass keeps nothing; a Fricke pair's evaluator answers a
    repeat of its last points, equal in their exact bits, with no pass."""

    def test_a_series_pass_keeps_nothing(self, rng, work):
        ts = to_terms(make_random_form(rng, n_max=40))
        taus = random_taus(rng)
        first, again = ts.eval(taus), ts.eval(taus)
        assert work.passes == [(0, 70)] * 2 and work.entries == 2 * 70 * ts.F.size
        assert np.array_equal(first, again)

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

    def test_a_repeated_pass_is_served_from_memory(self, rng, work):
        form = make_random_form(rng, n_max=40)
        pair = analytic_pair(form)
        taus = random_taus(rng)
        work.clear()
        first, again = pair.integrands(taus), pair.integrands(taus)
        assert work.passes == [(1, 70)]
        assert np.array_equal(first, again)
        again[:] = 0.0
        third, lone = pair.integrands(taus.copy()), pair.integrands(taus[:1])
        assert work.passes == [(1, 70), (1, 1)]
        assert np.array_equal(third, first) and np.array_equal(lone, first[:, :1])
        assert np.array_equal(first, analytic_pair(fresh(form)).integrands(taus))

    def test_other_points_orders_and_signed_zeros_recompute(self, rng, work):
        form = make_random_form(rng, n_max=40)
        pair = analytic_pair(form)
        taus = random_taus(rng)
        taus[::5] = 1j * taus[::5].imag
        signed = taus.copy()
        signed.real[::5] = -0.0  # equal points, other bits
        assert np.array_equal(signed, taus) and signed.tobytes() != taus.tobytes()
        other = analytic_pair(fresh(form))  # the values a pair without memory gives
        # each call follows the one before it, so each asks for a new pass
        for points in (taus, taus[::-1], taus, taus + 0.25, taus, signed, taus):
            work.clear()
            got = pair.integrands(points)
            assert work.passes == [(1, 70)]
            assert np.array_equal(got, other.integrands(points))

    def test_a_replaced_pair_shares_the_rows(self, rng, work):
        pair = analytic_pair(make_random_form(rng, n_max=20))
        taus = 1j * np.linspace(0.1, 1.0, 9)
        want = pair.integrands(taus)
        work.clear()
        rows = replace(pair, T=pair.T / 2).integrands(taus)
        assert np.array_equal(rows, want)
        rows[:] = np.nan
        again = pair.integrands(taus)
        assert work.passes == []
        assert np.array_equal(again, want)

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


class TestKeptTwist:
    def test_an_equal_character_gets_the_same_twist(self, rng, work):
        f = make_random_form(rng, n_max=30)
        psi, again = quadratic(5), quadratic(5)
        assert psi is not again and psi == again
        work.clear()
        got = [twist(f, p) for p in (psi, again, psi.conjugate())]
        assert work.forms == 1
        want = twist(fresh(f), quadratic(5))
        assert all(same_data(f_psi, want) for f_psi in got)

    def test_another_character_keeps_the_first_twist(self, rng, work):
        f = make_random_form(rng, n_max=30)
        work.clear()
        got = [twist(f, quadratic(m)) for m in (5, 7, 5)]
        assert work.forms == 2
        assert all(same_data(f_psi, twist(fresh(f), quadratic(m))) for f_psi, m in zip(got, (5, 7, 5)))

    def test_a_complex_character_and_its_conjugate_give_two_forms(self, rng, work):
        f = make_random_form(rng, n_max=30)
        psi = DirichletCharacter(5, (1,))  # order 4, primitive
        assert psi.is_primitive and psi != psi.conjugate()
        work.clear()
        f_psi, f_psibar = twist(f, psi), twist(f, psi.conjugate())
        assert work.forms == 2
        assert f_psi.c_plus.tobytes() != f_psibar.c_plus.tobytes()
        assert same_data(f_psi, twist(fresh(f), psi))
        assert same_data(f_psibar, twist(fresh(f), psi.conjugate()))

    def test_every_twist_dies_with_its_form(self, rng):
        f = make_random_form(rng, n_max=30)
        psi = DirichletCharacter(5, (1,))  # order 4
        twists = [twist(f, p) for p in (quadratic(3), quadratic(4), psi, psi.conjugate())]
        for f_psi in twists:
            analytic_pair(f_psi)  # and with it what the twist keeps
        refs = [weakref.ref(f_psi) for f_psi in twists]
        del twists, f_psi, f
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_a_replaced_form_twists_its_own_data(self, rng, work):
        f = make_random_form(rng, n_max=30)
        f_psi = twist(f, quadratic(5))
        c_plus = np.array(f.c_plus)
        c_plus[1] += 1.0
        g, h = replace(f), replace(f, c_plus=c_plus)
        work.clear()
        g_psi, h_psi = twist(g, quadratic(5)), twist(h, quadratic(5))
        assert work.forms == 2
        assert same_data(g_psi, f_psi)
        assert h_psi.c_plus[1] == quadratic(5)(1) * c_plus[1]
        work.clear()
        again = twist(f, quadratic(5))
        assert work.forms == 0
        assert same_data(again, f_psi)

    def test_interleaved_characters_twist_build_and_extract_once_each(self, work):
        f = harmonic_eisenstein_level_one(40)
        s = np.array([0.5 + 0.5j, -1.0 + 1.0j])
        work.clear()
        got = [call(f, f, f.character, quadratic(m), 1, f.weight, s)
               for m in (3, 4, 5, 3, 4, 5) for call in (twisted_lambda, twisted_omega)]
        assert (work.forms, work.extractions) == (3, 3)
        want = []
        for m in (3, 4, 5, 3, 4, 5):
            g = fresh(f)
            want += [call(g, g, g.character, quadratic(m), 1, g.weight, s)
                     for call in (twisted_lambda, twisted_omega)]
        assert bits(got) == bits(want)

    def test_a_complex_character_on_one_form_twists_each_side_once(self, work):
        f = harmonic_eisenstein_level_one(40)
        psi = DirichletCharacter(5, (1,))  # order 4: f_psi and f_psibar differ
        work.clear()
        got = [fe_residuals(f, f, GRID[:4], psi=psi) for _ in range(2)]
        assert (work.forms, work.extractions) == (2, 2)
        want = fe_residuals(fresh(f), fresh(f), GRID[:4], psi=DirichletCharacter(5, (1,)))
        assert bits(got) == bits([want, want])

    def test_a_twisted_equation_twists_builds_and_extracts_once(self, work):
        f = harmonic_eisenstein_level_one(40)
        psi, s = quadratic(5), np.array([0.5 + 0.5j, -1.0 + 1.0j])
        work.clear()
        got = [call(f, f, f.character, psi, 1, f.weight, s) for call in (twisted_lambda, twisted_omega)]
        assert (work.forms, work.extractions) == (1, 1)
        g = fresh(f)
        want = [call(g, fresh(g), g.character, quadratic(5), 1, g.weight, s)
                for call in (twisted_lambda, twisted_omega)]
        assert bits(got) == bits(want)


class TestKeptPair:
    def test_a_form_keeps_its_pair(self, rng, work):
        f = make_random_form(rng)
        work.clear()
        got = [partner_constants(f) for _ in range(2)]
        assert work.extractions == 1
        assert got == [partner_constants(fresh(f))] * 2

    def test_a_side_at_the_smaller_cut_off_is_the_kept_pair(self, work):
        # a side ran on a form's own pair when that pair keeps the side's
        # continuation: reading the pair again at the side's batch adds no
        # Mellin sum (see _star)
        s = np.array([0.5 + 0.5j, -1.0 + 1.0j])
        f, (g, *_) = verify_partners(7)  # one cut-off: both sides are kept pairs
        side_f, side_g, _, _, T = lseries._sides(f, g, None, s)
        assert T == analytic_pair(f).T == analytic_pair(g).T
        work.clear()
        assert bits(lseries._continued(analytic_pair(f), s)) == bits(side_f)
        assert bits(lseries._continued(analytic_pair(g), f.weight - s)) == bits(side_g)
        assert work.sums == []
        f, g = padded_pair()  # f's cut-off is the smaller one
        side_f, side_g, _, _, T = lseries._sides(f, g, None, s)
        assert T == analytic_pair(f).T < analytic_pair(g).T
        work.clear()
        assert bits(lseries._continued(analytic_pair(f), s)) == bits(side_f)
        assert work.sums == []
        # g's side ran on g's pair replaced to T, which keeps nothing
        at_t = replace(analytic_pair(g), T=T)
        assert bits(lseries._continued(at_t, f.weight - s)) == bits(side_g)
        assert len(work.sums) == 1

    def test_reconstruction_continues_once(self, work):
        # the reconstructions at t in (0.8, 1.0, 1.5) read one node set
        f = harmonic_eisenstein_level_one(40)
        analytic_pair(f)
        work.clear()
        got = [reconstruct_from_lambda(partial(lambda_continued, analytic_pair(f)), 1, -2, t, 2.0, 40.0)
               for t in (0.8, 1.0, 1.5)]
        assert (len(work.sums), work.extractions) == (1, 0)
        want = [reconstruct_from_lambda(partial(lambda_continued, analytic_pair(fresh(f))),
                                        1, -2, t, 2.0, 40.0) for t in (0.8, 1.0, 1.5)]
        assert bits(got) == bits(want)

    def test_another_batch_recomputes(self, work):
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
            work.clear()
            got = call(pair)
            assert len(work.sums) == 1
            other = analytic_pair(fresh(harmonic_eisenstein_level_one(12)))
            assert np.array_equal(got, call(other))
        # a repeat of the last batch, for Lambda or Omega, adds no Mellin sum
        work.clear()
        again, omega = lambda_star(pair, pts.copy()), omega_star(pair, pts)
        assert work.sums == []
        other = analytic_pair(fresh(harmonic_eisenstein_level_one(12)))
        assert np.array_equal(again, got) and np.array_equal(omega, omega_star(other, pts))

    def test_a_returned_array_does_not_reach_the_memory(self, work):
        pair = analytic_pair(harmonic_eisenstein_level_one(12))
        pts = np.array([[0.5 + 1j, -1.0 + 2j], [2.5 - 3j, 0.25 + 0j]])
        work.clear()
        rows = _star(pair, pts)
        want = [row.copy() for row in rows]
        for row in rows:
            row[...] = np.nan
        again = _star(pair, pts)
        assert len(work.sums) == 1
        assert all(np.array_equal(a, b) for a, b in zip(again, want))
        assert all(row.shape == pts.shape for row in again)
        scalar = lambda_star(pair, 0.5 + 1j)
        assert type(scalar) is complex and scalar == lambda_star(pair, complex(0.5, 1.0))
        assert len(work.sums) == 2


class TestOneContinuation:
    """A pair's continuation is (Lambda, Omega): Omega read after Lambda at
    the same points, plain or twisted, takes no second Mellin sum and no
    second evaluator pass, and every value is the one fresh forms give."""

    S = np.array([0.5 + 1j, -1.0 + 2j, 2.5 - 3j])

    def test_omega_after_lambda_takes_one_mellin_sum(self, work):
        f = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(f)
        work.clear()
        got = [lambda_continued(pair, self.S), omega_continued(pair, self.S)]
        assert len(work.sums) == 1
        want = [fn(analytic_pair(fresh(f)), self.S) for fn in (lambda_continued, omega_continued)]
        assert bits(got) == bits(want)

    def test_twisted_omega_after_twisted_lambda_continues_once(self, work):
        f = harmonic_eisenstein_level_one(40)
        psi, s = quadratic(5), 0.5 + 0.5j
        got = [call(f, f, f.character, psi, 1, f.weight, s) for call in (twisted_lambda, twisted_omega)]
        # one continuation of the shared pair at s and k - s, which share
        # their Mellin nodes: one order-1 pass on 2 n panels of 16 nodes
        (npanels,) = set(lseries._mellin_panels(np.array([s, f.weight - s]),
                                                analytic_pair(twist(f, psi)).T).tolist())
        assert work.sums == [(2, 32 * npanels)]
        assert [p for p in work.passes if p[0] == 1] == [(1, 32 * npanels)]
        want = [call(g, fresh(g), g.character, quadratic(5), 1, g.weight, s)
                for call, g in ((twisted_lambda, fresh(f)), (twisted_omega, fresh(f)))]
        assert repr(got) == repr(want)


VERIFY_LEVELS = (2, 7, 11)


@cache
def kept_equations():
    """The sides of the equations, kept for the whole session so that what
    they keep carries over from one example to the next: the level-1 lift
    against itself, the N = 7 golden pair at base 4, the zero-padded N = 7
    pair, whose sides have different cut-offs, and, from index 3 on, one f
    against each of its three verify partners at every level of
    VERIFY_LEVELS."""
    lift = harmonic_eisenstein_level_one(40)
    equations = [(lift, lift), oldform_pair(7, base=4), padded_pair()]
    for level in VERIFY_LEVELS:
        f, partners = verify_partners(level)
        equations += [(f, g) for g in partners]
    return equations


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


def equation_call():
    """(function, equation index, psi, s): a twisted function takes a psi."""
    def with_psi(name):
        psis = CHARACTERS if name in ("fe_residuals", "lambda_continued") else CHARACTERS[1:]
        batch = st.lists(st.sampled_from(POOL), min_size=1, max_size=3, unique=True)
        return st.tuples(st.just(name), st.integers(0, 2 + 3 * len(VERIFY_LEVELS)),
                         st.sampled_from(psis), batch.map(np.array))

    names = ("fe_residuals", "twisted_lambda", "twisted_omega", "lambda_continued")
    return st.sampled_from(names).flatmap(with_psi)


def verify_round(level):
    """The benchmark's verify round at one level: f against its three
    partners on shifted grids, and against two of them twisted by psi mod 5."""
    first = 3 + 3 * VERIFY_LEVELS.index(level)
    calls = [("fe_residuals", first + i, None, np.array(shifted(offset)))
             for i, offset in enumerate((0.03, -0.07, 0.01))]
    return calls + [("fe_residuals", first + i, quadratic(5), np.array(shifted(offset)[:3]))
                    for i, offset in enumerate((0.05, -0.02))]


class TestKeptIsInvisible:
    @settings(max_examples=25)
    @given(st.lists(equation_call(), min_size=1, max_size=6))
    @example(verify_round(2))
    @example(verify_round(7))
    @example(verify_round(11))
    def test_any_interleaving_gives_the_bits_of_fresh_forms(self, calls):
        # every branch of _sides (one shared pair, kept pairs at one T, a
        # pair replaced to the smaller T) meets kept twists, pairs and
        # continuations left by any earlier call, and one f meets its
        # partners in turn
        for name, which, psi, s in calls:
            f, g = kept_equations()[which]
            got = drive(name, f, g, psi, s)
            new_f = fresh(f)
            want = drive(name, new_f, new_f if g is f else fresh(g), psi, s)
            assert bits(got) == bits(want), (name, which, psi, s)


# the slots in which a form, a series or a pair keeps what it derived
KEPT = {"_last", "_pair", "_twists", "_terms", "_arrays", "_du_matrix", "_dv_series"}


def test_no_test_touches_what_is_kept():
    # the two claims above hold in every test module: an attribute access
    # of a kept slot, or a patch of _same_data, would pin a memory's shape
    found = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in KEPT:
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
            elif isinstance(node, ast.Call) and len(node.args) > 1:
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                slot = node.args[1]
                named = KEPT | {"_same_data"} if name == "setattr" else KEPT
                if (name in ("getattr", "setattr", "delattr") and isinstance(slot, ast.Constant)
                        and slot.value in named):
                    found.append(f"{path.name}:{node.lineno}: {name} {slot.value}")
    assert found == []
