"""Completed Dirichlet series: definitional sums, analytic continuation,
functional-equation residuals, twists, inverse-Mellin reconstruction.

The level-one harmonic Eisenstein lift (exact divisor-sum coefficients,
its own Fricke partner) is the golden pair throughout.
"""

import inspect
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import make_random_form, oldform_pair, padded_pair, pair_from_evaluators
from maassforms.characters import character_by_label, trivial_character
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.forms import FormExpansion, TermSeries, evaluate, to_terms, twist
from maassforms.lseries import (
    ConductorSet,
    ResidualReport,
    UncertifiedRegionWarning,
    _continued,
    _mellin_panels,
    _mellin_piece,
    _star,
    analytic_pair,
    fe_residuals,
    l_minus,
    l_plus,
    lambda_continued,
    lambda_definitional,
    lambda_star,
    omega_continued,
    omega_definitional,
    omega_star,
    reconstruct_from_lambda,
    twisted_lambda,
    twisted_omega,
    verification_set,
    xi_definitional,
)
from maassforms.modgroup import fricke, slash
from maassforms.specfun import (
    QuadratureError,
    _inc_gamma_scaled,
    gamma_complex,
    gauss_legendre_panels,
    w_nu,
)

TRIV1 = trivial_character(1)
TWO_PI = 2.0 * math.pi


def single_form(k=-2, n_max=4, plus=None, minus=None, minus_zero=0.0):
    cp = np.zeros(n_max + 1, dtype=complex)
    cm = np.zeros(n_max, dtype=complex)
    if plus is not None:
        cp[plus] = 1.0
    if minus is not None:
        cm[minus - 1] = 1.0
    return FormExpansion(k, 1, TRIV1, 0.0, n_max, cp, minus_zero, cm)


class TestDirichletSums:
    def test_single_coefficient(self):
        f = single_form(plus=1)
        for s in (2.0 + 0j, 3.0 - 1.0j):
            assert l_plus(f, s) == pytest.approx(1.0)

    def test_zeta_partial_sum(self):
        n_max = 50
        f = FormExpansion(-2, 1, TRIV1, 0.0, n_max, np.ones(n_max + 1), 0.0,
                          np.zeros(n_max))
        val, info = l_plus(f, 2.0 + 0j, full_output=True)
        zeta2 = math.pi**2 / 6.0
        assert abs(val - zeta2) <= info["tail_bound"] + 1e-12
        assert abs(val - zeta2) <= 2.0 / n_max

    def test_minus_side_zero(self):
        f = single_form(minus=2)
        assert l_plus(f, 2.5 + 0j) == 0.0
        assert l_minus(f, 2.5 + 0j) == pytest.approx(2.0 ** -2.5)

    def test_uncertified_warning(self):
        f = single_form(plus=1)
        with pytest.warns(UncertifiedRegionWarning):
            l_plus(f, 0.5 + 0j)


class TestDefinitional:
    def test_single_plus_term(self):
        f = single_form(plus=1)
        for s in (2.0 + 0j, 1.5 + 2.0j):
            want = (1.0 / TWO_PI) ** s * gamma_complex(s)
            assert abs(lambda_definitional(f, s) - want) <= 1e-12 * abs(want)

    def test_single_minus_term(self):
        f = single_form(k=-2, minus=1)
        for s in (2.0 + 0j, 3.0 + 1.0j):
            want = (1.0 / TWO_PI) ** s * w_nu(3, s)
            assert abs(lambda_definitional(f, s) - want) <= 1e-12 * abs(want)

    def test_omega_is_combination(self, rng):
        f = make_random_form(rng, n_max=8)  # alpha = 1: certified on Re s > 2
        for s in (2.5 + 0j, 3.0 - 1.5j):
            om = omega_definitional(f, s)
            want = -2.0 * xi_definitional(f, s) + f.weight * lambda_definitional(f, s)
            assert om == want  # identical composition, exact

    def test_mellin_cross_check(self):
        # Lambda(3) = int_0^inf (f(it) - c+(0) - c-(0) t^3) t^2 dt by
        # adaptive quadrature (level 1)
        from maassforms.forms import to_terms

        ref = harmonic_eisenstein_level_one(60)
        ts = to_terms(ref)
        c0, d0 = complex(ref.c_plus[0]), ref.c_minus_zero

        def integrand(t, part):
            val = (ts.eval(1j * t) - c0 - d0 * t**3) * t**2
            return val.real if part == 0 else val.imag

        re, _ = quad(integrand, 0.0, 30.0, args=(0,), limit=400, epsabs=1e-12, epsrel=1e-11)
        want = lambda_definitional(ref, 3.0 + 0j)
        assert abs(re - want.real) <= 1e-6
        assert abs(want.imag) <= 1e-12


class TestContinuation:
    def test_agrees_with_definitional(self):
        # both routes at s = 3 on the certified half-plane
        ref = harmonic_eisenstein_level_one(600)
        pair = analytic_pair(ref)
        s = 3.0 + 0j
        assert abs(lambda_continued(pair, s) - lambda_definitional(ref, s)) <= 1e-6
        assert abs(omega_continued(pair, s) - omega_definitional(ref, s)) <= 1e-6

    def test_entire_at_interior_points(self):
        ref = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(ref)
        # finite at the center, at a generic point, and at all four pole
        # locations of the uncorrected series
        for s in (0.5 + 0j, -1.0 + 0j, 0.0 + 0j, -2.0 + 0j, 1.0 + 0j, -3.0 + 0j):
            val = lambda_star(pair, s)
            assert np.isfinite(val.real) and np.isfinite(val.imag)
            assert abs(val) < 10.0

    def test_center_self_consistency(self):
        # Lambda(f, k/2) = i^k Lambda(g, k/2) at the fixed point of s <-> k-s
        ref = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(ref)
        k = ref.weight
        lam = lambda_continued(pair, k / 2.0)
        ik = (1j) ** (k % 4)
        assert abs(lam - ik * lam) <= 1e-8 * max(1.0, abs(lam))  # i^-2 = -1: lam ~ 0

    def test_pole_guard(self):
        ref = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(ref)
        for s in (0.0, 1.0, -2.0, -3.0):
            with pytest.raises(ValueError):
                lambda_continued(pair, complex(s))

    def test_pair_from_forms_matches_analytic(self):
        # Omega through the exact h_op term series agrees with Omega through
        # the pair's jet-based H row, at the pair's own T and constants
        from maassforms.forms import h_op, to_terms

        ref = harmonic_eisenstein_level_one(80)
        p_a, ts = analytic_pair(ref), to_terms(ref)
        consts = (p_a.c_f_plus0, p_a.c_f_minus0, p_a.c_g_plus0, p_a.c_g_minus0)
        p_b = pair_from_evaluators(1, ref.weight, ts.eval, h_op(ts, ref.weight).eval, consts, p_a.T)
        for s in (2.0 + 0j, 0.5 + 1.0j, -1.0 + 2.0j):
            om = omega_continued(p_a, s)
            assert abs(omega_continued(p_b, s) - om) <= 1e-12 * max(1.0, abs(om))

    @pytest.mark.parametrize("level, k", [(1, -2), (7, -2), (11, -3)])
    def test_an_integrand_made_of_its_constant_terms_integrates_to_zero(self, level, k):
        # rows equal to their own constant terms on both sides of t = 1: f's
        # above, and below i^k t^{-k} times the partner's read at 1/t, for
        # both rows' constants (H's are k c_f(0) and -k c_g(0))
        rng = np.random.default_rng(level)
        consts = rng.normal(size=4) + 1j * rng.normal(size=4)
        pair = pair_from_evaluators(level, k, None, None, consts, 20.0)
        nfac, ik = level ** ((1 - k) / 2.0), 1j ** (k % 4)

        def constant_rows(taus):
            t = taus.imag * math.sqrt(level)
            return np.array([
                np.where(t >= 1, c0 + cv * t ** (1 - k) / nfac,
                         ik * t ** -k * (pc0 + pcv * (1 / t) ** (1 - k) / nfac))
                for c0, cv, pc0, pcv in pair.row_constants
            ])

        exps = np.array([3.0 + 0j, -1.0 + 5j, 0.5 - 20j])
        val = _mellin_piece(constant_rows, pair.row_constants, level, k, exps, 20.0)
        zero = [(0j,) * 4] * 2
        scale = _mellin_piece(lambda z: np.abs(constant_rows(z)), zero, level, k, exps.real, 20.0)
        assert np.all(np.abs(val) <= 1e-14 * scale.real)


# points for the batch tests: |Im s| up to 60 spans several panel-count
# groups (3 panels up to |Im s| = 7 at T = 4, 22 at |Im s| = 60); some come
# as numpy scalars, and none lies within 1e-6 of a pole at k = -2
batch_points = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-60.0, 60.0), st.booleans())
    .filter(lambda p: min(abs(complex(p[0], p[1]) - q) for q in (0.0, -2.0, 1.0, -3.0)) > 1e-6)
    .map(lambda p: np.complex128(complex(p[0], p[1])) if p[2] else complex(p[0], p[1])),
    min_size=2,
    max_size=6,
)
BATCHED = (lambda_continued, omega_continued, lambda_star, omega_star)


@pytest.fixture(scope="module")
def small_pair():
    return analytic_pair(harmonic_eisenstein_level_one(4))


def mellin_nodes(pair, s):
    """Every point at which _mellin_piece reads its integrand for s."""
    seen = []
    _mellin_piece(lambda z: seen.append(z) or np.zeros((1, z.size)), [(0j,) * 4], pair.level,
                  pair.weight, np.ravel(s), pair.T)
    return np.concatenate(seen)


def per_node_kernel(eval_fn, consts, level, k, exps, T):
    """_mellin_piece with a complex exponential per (exponent, node) pair, on
    the same panel groups and nodes: (rows x exponents values, the sums of
    |w diff kernel| that scale their rounding)."""
    upper, counts = math.log(T), _mellin_panels(exps, T)
    vals = np.empty((len(consts), exps.size), dtype=complex)
    scale = np.empty(vals.shape)
    nfac, ik = level ** ((1 - k) / 2.0), 1j ** (k % 4)
    for npanels in np.unique(counts):
        members = counts == npanels
        x, w = gauss_legendre_panels(-upper, upper, 2 * int(npanels), 16)
        t = np.exp(x)
        rows = eval_fn(1j * t / math.sqrt(level))
        for r, (row, (c0, cv, pc0, pcv)) in enumerate(zip(rows, consts)):
            sub = np.where(x < 0, ik * (pc0 * t ** -k + pcv / t / nfac), c0 + cv * t ** (1 - k) / nfac)
            terms = w * ((row - sub) * np.exp(exps[members, None] * x))
            vals[r, members], scale[r, members] = terms.sum(axis=1), np.abs(terms).sum(axis=1)
    return vals, scale


def kernel_cases():
    for level, form in ((1, harmonic_eisenstein_level_one(40)), (11, oldform_pair(11)[0])):
        for T in (None, 40.0):
            yield pytest.param(form, T, id=f"N{level}-T{T or 'default'}")


class TestMellinKernel:
    """The anchor x offset kernel of _mellin_piece against the per-node
    exponential it replaced.

    The kernel is exact at nodes a_p + delta_j that differ from the stored
    x[p, j] by about an ulp of log T, which moves e^{z x} by about |z| ulp
    relative.  The integrand is largest near t = 1/T, where the form is read
    closest to the real axis: at |Im z| = 200 and T = 40 the kernel's error
    there is of the order of the per-node rule's own rounding of z x.  The
    whole integral is held to 4 |z| ulp(log T) of the sum of |terms|; the
    worst case here reads 0.38 |z| ulp(log T), over 22 panel groups a case."""

    @pytest.mark.parametrize("form, T", list(kernel_cases()))
    def test_anchor_times_offset_matches_the_per_node_exponential(self, form, T):
        pair = analytic_pair(form)
        T = pair.T if T is None else T
        rng = np.random.default_rng(form.level)
        pts = rng.uniform(-4.0, 3.0, 48) + 1j * np.linspace(-200.0, 200.0, 48)
        assert np.unique(_mellin_panels(pts, T)).size >= 10
        ev = pair.integrands
        tol = np.maximum(1e-14, 4 * np.abs(pts) * np.spacing(math.log(T)))
        got = _mellin_piece(ev, pair.row_constants, pair.level, form.weight, pts, T)
        want, scale = per_node_kernel(ev, pair.row_constants, pair.level, form.weight, pts, T)
        assert np.all(np.abs(got - want) <= tol * scale)


def partner_rule_forms():
    ref = harmonic_eisenstein_level_one(40)
    yield ref
    for level in (2, 7, 11):
        yield oldform_pair(level)[0]
    yield twist(ref, character_by_label(5, "quadratic"))


class TestFrickePartnerRule:
    """Below t = 1 the Mellin integral reads the pair's own rows in place of
    the partner's: at every node t >= 1, i^{-k} t^{-k} integrands(i / (t
    sqrt N)) is (g, -H_g)(i t / sqrt N) for g = f|_k omega(N), held here
    against g and the chain-rule H of g from slash_jet1.  The second
    identity, H|_k omega(N) = -H_g, holds on the imaginary axis only."""

    S = np.array([0.5 + 1.0j, -1.0 + 20.0j, 2.5 + 0.0j])

    @pytest.mark.parametrize("form", list(partner_rule_forms()), ids=lambda f: f"N{f.level}")
    def test_reciprocal_height_reads_the_chain_rule_partner(self, form):
        from maassforms.forms import slash_jet1, to_terms

        pair, k, root = analytic_pair(form), form.weight, math.sqrt(form.level)
        omega, ts = fricke(form.level), to_terms(form)
        nodes = mellin_nodes(pair, self.S)
        assert nodes.size and (nodes.real == 0).all()
        taus = nodes[nodes.imag * root >= 1.0]
        assert 2 * taus.size == nodes.size
        t = taus.imag * root
        rule = (1j) ** (-k % 4) * t ** -k * pair.integrands(1j / (t * root))
        f, fu, _ = slash_jet1(ts, k, omega, taus)
        want = np.array([f, -(2j * taus.imag * fu + k * f)])
        assert np.all(np.abs(rule - want).max(axis=1) <= 1e-13 * np.abs(want).max(axis=1))
        off = taus + 0.3
        h_slashed = slash(lambda z: pair.integrands(z)[1], k, omega, off)
        f, fu, _ = slash_jet1(ts, k, omega, off)
        chain = 2j * off.imag * fu + k * f
        assert np.abs(h_slashed + chain).max() / np.abs(chain).max() > 1e-2


def partner_constant_forms():
    for level in (1, 2, 7, 11):
        f, g = oldform_pair(level)
        yield pytest.param(f, id=f"N{level}-f")
        yield pytest.param(g, id=f"N{level}-g")
    lift = harmonic_eisenstein_level_one(400)
    for m in (3, 4, 5):
        yield pytest.param(twist(lift, character_by_label(m, "quadratic")), id=f"lift400-psi{m}")


class TestPartnerConstants:
    """analytic_pair reads c_g(0) from _ZERO_MODE_SAMPLES points per line,
    which loses nothing against the 256-sample extraction."""

    @pytest.mark.parametrize("form", list(partner_constant_forms()))
    def test_zero_mode_matches_the_256_sample_extraction(self, form):
        from maassforms.forms import extract_coefficients, to_terms
        from maassforms.modgroup import fricke, slash

        pair, k = analytic_pair(form), form.weight
        g_eval = partial(slash, to_terms(form).eval, k, fricke(form.level))
        want = extract_coefficients(g_eval, k, 0, 256)
        assert abs(pair.c_g_plus0 - want[0]) <= 1e-14
        assert abs(pair.c_g_minus0 - want[1]) <= 1e-14


def h_path_forms():
    ref = harmonic_eisenstein_level_one(40)
    yield pytest.param(ref, id="N1")
    for level in (7, 11):
        f, g = oldform_pair(level)
        yield pytest.param(f, id=f"N{level}-f")
        yield pytest.param(g, id=f"N{level}-g")
    yield pytest.param(twist(ref, character_by_label(5, "quadratic")), id="psi5")


class TestHEvaluator:
    """The pair's evaluator takes f and f_u from one pass without the d/dv
    sums; its H row is the one formed from TermSeries.jet, bit for bit, and
    its f row is TermSeries.eval's, the value-only pass's."""

    @pytest.mark.parametrize("form", list(h_path_forms()))
    def test_h_equals_the_jet_formula(self, form):
        from maassforms.forms import to_terms

        pair, ts, k = analytic_pair(form), to_terms(form), form.weight
        nodes = mellin_nodes(pair, TestFrickePartnerRule.S)
        f, f_u, _ = ts.jet(nodes)
        assert np.array_equal(pair.integrands(nodes)[1], 2j * nodes.imag * f_u + k * f)
        assert np.array_equal(pair.integrands(nodes)[:1], ts.eval(nodes)[None])
        # a lone point gets the value it gets in a batch
        assert np.array_equal(pair.integrands(nodes[:1]), pair.integrands(nodes)[:, :1])


class TestLambdaAlone:
    """Lambda does not depend on Omega being formed: lambda_star, which
    reads the pair's continuation (Lambda, Omega), is bit for bit the Mellin
    integral of the value-only evaluator TermSeries.eval with Lambda's
    constants alone, at s and at k - s."""

    @pytest.mark.parametrize("form", list(h_path_forms()))
    def test_lambda_equals_the_value_only_integral(self, form):
        pair, k, ts = analytic_pair(form), form.weight, to_terms(form)
        grid = np.array([complex(r, i) for r in (-1.5, -1.0, -0.5, 0.5, 1.5)
                         for i in (0.5, 1.5, 3.0)] + [0.5 + 25j, -1.0 - 40j])
        for pts in (grid, k - grid):
            want = _mellin_piece(lambda z: ts.eval(z)[None], pair.row_constants[:1],
                                 pair.level, k, pts, pair.T)[0]
            assert np.array_equal(lambda_star(pair, pts), want)
            lam, om = _continued(pair, pts)
            assert np.array_equal(lam, lambda_continued(pair, pts))
            assert np.array_equal(om, omega_continued(pair, pts))
            lam_star, om_star = _star(pair, pts)
            assert np.array_equal(lam_star, want)
            assert np.array_equal(om_star, omega_star(pair, pts))


class TestBatch:
    @given(pts=batch_points, random=st.randoms(use_true_random=False))
    def test_value_does_not_depend_on_the_batch(self, small_pair, pts, random):
        random.shuffle(pts)
        for fn in BATCHED:
            batch = fn(small_pair, pts)
            assert batch.shape == (len(pts),)
            for z, value in zip(pts, batch):
                assert value == fn(small_pair, z), (fn.__name__, z, pts)

    def test_scalar_gives_python_complex_and_shape_is_kept(self, small_pair):
        pts = np.array([[0.5 + 1j, -1.0 + 20j], [2.0 - 45j, np.complex128(0.25)]])
        for fn in BATCHED:
            for z in (0.5 + 1j, np.complex128(-1.0 + 20j), -1.5):
                assert type(fn(small_pair, z)) is complex
            batch = fn(small_pair, pts)
            assert batch.shape == (2, 2)
            assert batch[1, 0] == fn(small_pair, complex(pts[1, 0]))

    @pytest.mark.parametrize("fn", [lambda_continued, omega_continued])
    def test_pole_inside_a_batch_raises(self, small_pair, fn):
        with pytest.raises(ValueError, match="pole"):
            fn(small_pair, np.array([0.5 + 1j, -1.0 + 30j, 1.0 + 0j, 2.0 + 0j]))

    def test_sums_span_panel_groups_and_row_blocks(self, small_pair):
        # 300 points that share one panel count (2 x 10 panels of 16 nodes
        # at T = 4 and |Im s| in [80, 80.1]) fill three row blocks of the
        # Mellin sums (2^15 // 320 = 102 rows each); three more points open
        # two groups of their own.  Every value is the one its s gets alone.
        line = 0.5 + 1j * np.linspace(80.0, 80.1, 300)
        assert _mellin_panels(line, 4.0).tolist() == [10] * 300
        rows = (1 << 15) // (32 * 10)
        assert 2 * rows < 300 <= 3 * rows
        pts = np.concatenate([line, [-1.0 + 1j, 2.0 - 40j, 0.3]])
        assert np.unique(_mellin_panels(pts, 4.0)).size == 3
        for fn in (lambda_continued, omega_continued):
            batch = fn(small_pair, pts)
            for z, value in zip(pts, batch):
                assert value == fn(small_pair, z), (fn.__name__, z)

    def test_mellin_sums_keep_memory_bounded(self):
        # 4,096 s on Re s = 2, |Im s| <= 40: the sums run in row blocks of
        # about 2^15 entries, so the batch needs no exponents x nodes matrix
        import tracemalloc

        pair = analytic_pair(harmonic_eisenstein_level_one(40))
        pts = 2.0 + 1j * np.linspace(-40.0, 40.0, 4096)
        lambda_continued(pair, pts[:2])
        tracemalloc.start()
        try:
            lambda_continued(pair, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestOneMellinIntegral:
    """A continuation reads the form on the imaginary axis only, in one
    evaluator call per batch, and slashes nothing: the only Fricke slash on
    the functional-equation path is the extraction of the partner's
    constants from its zero mode when analytic_pair builds a pair, whose
    points lie off the axis."""

    @staticmethod
    def count_slashes(monkeypatch):
        import maassforms.lseries as lseries

        seen = []

        def counting(*args):
            seen.append(args)
            return slash(*args)

        monkeypatch.setattr(lseries, "slash", counting)
        return seen

    def test_a_batch_reads_the_axis_once_and_slashes_nothing(self, small_pair, monkeypatch):
        slashes, reads = self.count_slashes(monkeypatch), []

        def integrands(taus):
            reads.append(taus)
            return small_pair.integrands(taus)

        pts = np.array([0.5 + 1j, -1.0 + 20j, 2.0 - 45j, -2.5 + 0j])
        for fn in (*BATCHED, _star, _continued):
            # a fresh pair each time: one pair would answer a repeated batch
            # from its last continuation
            pair = replace(small_pair, integrands=integrands)
            reads.clear()
            fn(pair, pts)
            assert len(reads) == 1 and reads[0].size and (reads[0].real == 0).all()
        assert slashes == []

    def test_a_capped_batch_reads_whole_groups_and_keeps_every_value(self, monkeypatch):
        # with the node cap lowered to the largest panel group of the batch,
        # every evaluator call holds whole groups within the cap, and every
        # value equals the uncapped one; Omega is read from the continuation
        # Lambda made
        import maassforms.lseries as lseries

        pair = analytic_pair(harmonic_eisenstein_level_one(40))
        pts = 2.0 + 1j * np.linspace(-40.0, 40.0, 33)
        counts = _mellin_panels(pts, pair.T)
        assert np.unique(counts).size >= 4
        want = [lambda_continued(pair, pts), omega_continued(pair, pts)]
        cap, reads = 2 * int(counts.max()) * 16, []

        def integrands(taus):
            reads.append(taus.size)
            return pair.integrands(taus)

        capped = replace(pair, integrands=integrands)
        monkeypatch.setattr(lseries, "_MELLIN_NODE_CAP", cap)
        got = [lambda_continued(capped, pts)]
        lambda_reads = len(reads)
        got.append(omega_continued(capped, pts))
        assert all((g == w).all() for g, w in zip(got, want))
        assert len(reads) == lambda_reads
        assert len(reads) >= np.unique(counts).size and max(reads) <= cap
        groups = {2 * int(n) * 16 for n in counts}
        assert all(size in groups for size in reads)

    def test_a_batch_far_up_the_line_stays_in_bounded_memory(self):
        # 1,440 points up to |Im s| = 4,000 at T = sqrt 40: 612 groups and
        # 6,061,248 nodes, which one call held as 589 MB traced; in calls of
        # at most _MELLIN_NODE_CAP nodes the peak is 8.7 MB
        import tracemalloc

        import maassforms.lseries as lseries

        calls = []

        def zeros(taus):
            calls.append(taus.size)
            return np.zeros((1, taus.size), dtype=complex)

        pts = 2.0 + 1j * np.linspace(-4000.0, 4000.0, 1440)
        tracemalloc.start()
        try:
            _mellin_piece(zeros, [(0j,) * 4], 1, -2, pts, math.sqrt(40.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(calls) == 6_061_248 and max(calls) <= lseries._MELLIN_NODE_CAP
        assert peak < 20e6

    def test_residuals_slash_once_per_pair_build(self, monkeypatch, work):
        slashes = self.count_slashes(monkeypatch)
        fe_residuals(*oldform_pair(7, base=4), [0.5 + 1j, -1.0 + 0.5j, 2.0 + 3j])
        assert work.extractions == 2 and len(slashes) == 2


class TestResiduals:
    GRID =[complex(r, i) for r in (-1.0, -0.5, 0.5, 1.0) for i in (0.0, 1.0, 2.0)]

    def test_true_pair_residuals_tiny(self):
        ref = harmonic_eisenstein_level_one(40)
        rep = fe_residuals(ref, ref, self.GRID)
        assert rep.max_lambda <= 1e-8
        assert rep.max_omega <= 1e-8

    def test_zero_pair(self):
        z = single_form(n_max=2)
        rep = fe_residuals(z, z, [0.5 + 0j, -1.0 + 1.0j])
        assert rep.max_residual == 0.0

    def test_pole_exclusion(self):
        ref = harmonic_eisenstein_level_one(40)
        rep = fe_residuals(ref, ref, [1.0 + 0j, 0.5 + 0j])
        assert rep.excluded == [1.0 + 0j]
        assert len(rep.grid) == 1

    def test_sensitivity_to_perturbation(self):
        ref = harmonic_eisenstein_level_one(40)
        cp = ref.c_plus.copy()
        cp[2] += 0.1
        bad = FormExpansion(ref.weight, ref.level, ref.character, ref.alpha,
                            ref.n_max, cp, ref.c_minus_zero, ref.c_minus)
        rep = fe_residuals(ref, bad, self.GRID)
        assert rep.max_lambda > 1e-3

    def test_fe_involution(self):
        # Lambda(f,s) = i^k Lambda(g,k-s) and Lambda(g,s') = i^-k Lambda(f,k-s')
        # compose to the identity
        ref = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(ref)
        k = ref.weight
        ik = (1j) ** (k % 4)
        for s in (0.5 + 1.0j, -1.2 + 0.3j):
            lam_f = lambda_continued(pair, s)
            lam_g = lambda_continued(pair, k - s)  # g = f at level 1
            assert abs(lam_f - ik * lam_g) <= 1e-8
            assert abs(lam_g - ik ** (-1) * lam_f) <= 1e-8

    def test_omega_sign(self):
        # Omega(f,s) = -i^k Omega(g,k-s) at five points
        ref = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(ref)
        k = ref.weight
        ik = (1j) ** (k % 4)
        for s in (0.5 + 0j, -0.5 + 1j, 0.5 + 2j, -1.5 + 0.5j, 2.0 + 1j):
            om_f = omega_continued(pair, s)
            om_g = omega_continued(pair, k - s)
            assert abs(om_f + ik * om_g) <= 1e-6

    def test_report_csv_and_json(self, tmp_path):
        ref = harmonic_eisenstein_level_one(30)
        rep = fe_residuals(ref, ref, [0.5 + 0j, -0.5 + 1.0j])
        csv = rep.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "re_s,im_s,lambda_residual,omega_residual,tail_bound"
        assert len(lines) == 3
        data = rep.to_json()
        assert data["max_residual"] == rep.max_residual
        assert len(data["grid"]) == 2

    @pytest.mark.parametrize("psi, tol", [(None, 1e-8), (character_by_label(5, "quadratic"), 1e-4)])
    def test_pair_path_builds_no_derivative_series(self, monkeypatch, psi, tol):
        # H and the slashed 1-jet come from TermSeries.jet's exponentials, so
        # neither the d_u/d_v series nor the h_op series is built
        import maassforms.forms as forms

        def forbidden(*args, **kwargs):
            raise AssertionError("derivative series built on the pair path")

        monkeypatch.setattr(forms.TermSeries, "d_u", forbidden)
        monkeypatch.setattr(forms.TermSeries, "d_v", forbidden)
        monkeypatch.setattr(forms, "h_op", forbidden)
        ref = harmonic_eisenstein_level_one(400)
        rep = fe_residuals(ref, ref, [0.5 + 1.0j, -1.0 + 0.5j], psi=psi)
        assert rep.max_residual <= tol

    @pytest.mark.parametrize("psi", [None, character_by_label(5, "quadratic")])
    def test_pair_path_builds_no_exact_dict(self, monkeypatch, psi):
        # the numeric paths make no Fraction: the pair path, a series' first
        # jet (which builds its d_v series) and the first evaluate of a
        # shadow or Bol image all work on the integer term arrays, and the
        # twisted pair builds its characters from integer exponents, and the
        # group layer (the Fricke slash, cusp data) holds ints
        import maassforms.characters as characters
        import maassforms.forms as forms
        import maassforms.modgroup as modgroup

        assert "Fraction" not in vars(forms)
        assert "Fraction" not in vars(modgroup)

        f, g = oldform_pair(7)
        grid = [complex(r, i) for r in (-1.5, 0.5) for i in (0.5, 2.0)]
        taus = np.array(grid)
        first_calls = (
            lambda: fe_residuals(f, g, grid, psi=psi),
            lambda: forms.to_terms(g).jet(taus),
            lambda: forms.shadow(f).evaluate(taus),
            lambda: forms.bol(g).evaluate(taus),
        )
        want = [call() for call in first_calls]

        def forbidden(*args, **kwargs):
            raise AssertionError("Fraction made on a numeric path")

        monkeypatch.setattr(characters, "Fraction", forbidden)
        characters._root.cache_clear()
        rep, *got = [call() for call in first_calls]
        assert rep.to_json() == want[0].to_json()
        for values, first in zip(got, want[1:]):
            np.testing.assert_array_equal(values, first)
        if psi is None:
            assert rep.max_residual <= 1e-8


class TestMellinCutoff:
    """The cut-off is the pair's, max(4, sqrt(n)) for the last nonzero term
    n, and both sides of an equation take the smaller of theirs: no entry
    point takes a T, since the residual cannot see the dropped [T, inf) tail
    and at T = 2 a 1%-corrupted partner passed."""

    ENTRY_POINTS = (lambda_star, omega_star, lambda_continued, omega_continued, fe_residuals,
                    twisted_lambda, twisted_omega)

    @pytest.mark.parametrize("fn", ENTRY_POINTS, ids=lambda fn: fn.__name__)
    def test_no_entry_point_takes_a_cutoff(self, fn):
        assert "T" not in inspect.signature(fn).parameters

    # a hand-built pair can still carry any T.  T <= 1 leaves no [1/T, T]
    # integral to take: at T = 1 any partner passes and below it the
    # integral runs backwards; inf and nan are no cut-off
    @pytest.mark.parametrize("T", [1.0, 0.5, 0.0, -1.0, math.inf, math.nan])
    def test_rejects_cutoffs_that_are_not_finite_and_above_one(self, small_pair, T):
        pair = replace(small_pair, T=T)
        for fn in BATCHED:
            for s in (0.5 + 1j, np.array([0.5 + 1j, -1.0 + 20j])):
                with pytest.raises(ValueError, match="cut-off T must be a finite number > 1"):
                    fn(pair, s)

    def test_accepts_a_cutoff_just_above_one(self, small_pair):
        pair = replace(small_pair, T=1.5)
        for fn in BATCHED:
            assert np.isfinite(fn(pair, 0.5 + 1j))
            assert np.isfinite(fn(pair, np.array([0.5 + 1j, -1.0 + 20j]))).all()

    @pytest.mark.parametrize("level", [1, 2, 7, 11])
    def test_golden_pairs_keep_the_full_length(self, level):
        # both forms of a golden pair end at n_max = 40 N
        f, g = oldform_pair(level)
        assert analytic_pair(g).T == max(4.0, math.sqrt(f.n_max))
        assert fe_residuals(f, g, [0.5 + 1j]).quadrature_T == max(4.0, math.sqrt(f.n_max))

    def test_zero_padding_does_not_stretch_the_cutoff(self):
        # the padded lift ends at n = 40, its partner at n = 280: both sides
        # take sqrt(40), in either order, and the self-dual lift keeps its own
        f, g = padded_pair()
        assert (analytic_pair(f).T, analytic_pair(g).T) == (math.sqrt(40), math.sqrt(280))
        for a, b in ((f, g), (g, f)):
            assert fe_residuals(a, b, [0.5 + 1j]).quadrature_T == math.sqrt(40)
        lift = harmonic_eisenstein_level_one(40)
        assert fe_residuals(lift, lift, [0.5 + 1j]).quadrature_T == math.sqrt(40)

    @pytest.mark.parametrize("case", ["N1", "N2", "N7", "N11", "psi5", "psi13"])
    def test_tail_bound_bounds_the_terms_at_the_cutoff(self, case):
        # tail_bound is at least the dropped integrand at the cut-off: f's
        # F != 0 terms at i T / sqrt(N) times sqrt(N) / 2 pi, for the golden
        # pairs and for the twists of the n_max 400 lift (f_psi at level
        # m^2); the terms are evaluated alone, so the constant terms do not
        # cancel them down to rounding
        if case.startswith("N"):
            f, g = oldform_pair(int(case[1:]))
            rep, form = fe_residuals(f, g, [0.5 + 0j]), f
        else:
            ref = harmonic_eisenstein_level_one(400)
            psi = character_by_label(int(case[3:]), "quadratic")
            rep, form = fe_residuals(ref, ref, [0.5 + 0j], psi=psi), twist(ref, psi)
        ts = to_terms(form)
        live = ts.F != 0
        root = math.sqrt(form.level)
        terms = TermSeries(ts.F[live], ts.vpow[live], ts.coef[live]).eval(1j * rep.quadrature_T / root)
        want = abs(terms) * root / TWO_PI
        assert want > 0
        assert rep.tail_bound >= want * (1 - 1e-12)


class TestNonFiniteS:
    # no quadrature grid exists for an infinite |Im s|, and a nan would
    # pass through as a nan value: every continuation names the s instead
    BAD = [complex(0.5, math.inf), complex(math.nan, 1.0), complex(-math.inf, 0.0),
           complex(math.nan, math.nan)]

    @pytest.mark.parametrize("s", BAD)
    def test_rejected_by_every_continuation(self, small_pair, s):
        ref = harmonic_eisenstein_level_one(4)
        psi = character_by_label(5, "quadratic")
        for call in (
            *(lambda fn=fn: fn(small_pair, s) for fn in BATCHED),
            lambda: BATCHED[0](small_pair, np.array([0.5 + 1j, s])),
            lambda: fe_residuals(ref, ref, [0.5 + 1j, s]),
            lambda: fe_residuals(ref, ref, [s], psi=psi),
        ):
            with pytest.raises(ValueError, match=r"s must be a finite complex number, got s = "):
                call()


class TestPoleStructure:
    def test_residues_by_contour(self):
        # residues of Lambda at s = 0, k, 1, k-1 are
        # -c_f+(0), i^k c_g+(0), i^k c_g-(0)/N^{(1-k)/2}, -c_f-(0)/N^{(1-k)/2}
        ref = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(ref)
        k = ref.weight
        ik = (1j) ** (k % 4)
        cplus0, cminus0 = complex(ref.c_plus[0]), ref.c_minus_zero
        targets = {
            0.0: -cplus0,
            float(k): ik * cplus0,
            1.0: ik * cminus0,
            float(k - 1): -cminus0,
        }
        r = 0.3
        nodes = 32
        zs = r * np.exp(2j * math.pi * np.arange(nodes) / nodes)
        # all four contours in one batch
        vals = lambda_continued(pair, np.array(list(targets))[:, None] + zs)
        for (center, want), row in zip(targets.items(), vals):
            got = np.sum(row * zs) / nodes
            assert abs(got - want) <= 1e-5, (center, got, want)

    def test_lambda_star_bounded_on_center_line(self):
        # |Lambda*| on Re s = k/2, |Im s| <= 50: no growth trend
        ref = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(ref)
        ims = np.linspace(-50, 50, 21)
        vals = np.abs(lambda_star(pair, -1.0 + 1j * ims))
        assert np.all(np.isfinite(vals))
        # least-squares slope of log|Lambda*| against |Im s| is not positive;
        # the exact zero at the center (odd symmetry of the reflection) is
        # excluded from the fit
        mask = vals > 1e-10 * vals.max()
        slope = np.polyfit(np.abs(ims[mask]), np.log(vals[mask]), 1)[0]
        assert slope <= 0.0


class TestTwists:
    def test_trivial_twist_reduces_exactly(self):
        ref = harmonic_eisenstein_level_one(40)
        psi1 = trivial_character(1)
        pair = analytic_pair(ref)
        s = 2.5 + 0.5j
        lam_f, lam_g, res = twisted_lambda(ref, ref, TRIV1, psi1, 1, -2, s)
        assert abs(lam_f - lambda_continued(pair, s)) <= 1e-12
        assert res <= 1e-10

    @staticmethod
    def check_twisted_residuals(psi):
        # per-point twisted_lambda/twisted_omega residuals are small, and the
        # psi-driver reproduces them exactly, skipping the pole s = 1
        ref = harmonic_eisenstein_level_one(400)
        rep = fe_residuals(ref, ref, [0.5 + 0j, 1.0 + 0j, -1.0 + 1.0j, 2.0 + 0j], psi=psi)
        assert rep.excluded == [1.0 + 0j]
        assert rep.grid == [0.5 + 0j, -1.0 + 1.0j, 2.0 + 0j]
        lam = [twisted_lambda(ref, ref, TRIV1, psi, 1, -2, s)[2] for s in rep.grid]
        om = [twisted_omega(ref, ref, TRIV1, psi, 1, -2, s)[2] for s in rep.grid]
        assert max(lam + om) <= 1e-4
        assert rep.lambda_residuals == lam
        assert rep.omega_residuals == om

    def test_quadratic_twist_residuals(self):
        self.check_twisted_residuals(character_by_label(5, "quadratic"))

    @pytest.mark.parametrize("m", [3, 4])
    def test_odd_twist_residuals(self, m):
        # the primitive psi mod 3 and mod 4 are odd: psi(-1) = -1 enters c-(-n)
        psi = character_by_label(m, "quadratic")
        assert psi.parity == -1
        self.check_twisted_residuals(psi)

    @pytest.mark.parametrize("points", [1, 6])
    def test_twisted_driver_builds_two_pairs(self, work, points):
        # one pair per side for the whole grid, not two per side per point;
        # on a self-dual equation (the level-1 lift, a real psi) one pair
        psi = character_by_label(5, "quadratic")
        grid = [complex(0.5, 0.3 * j) for j in range(points)]
        fe_residuals(*oldform_pair(2, base=20), grid, psi=psi)
        assert work.extractions == 2
        work.clear()
        ref = harmonic_eisenstein_level_one(40)
        fe_residuals(ref, ref, grid, psi=psi)
        assert work.extractions == 1

    def test_twisted_report_records_T_and_tail(self):
        ref = harmonic_eisenstein_level_one(400)
        psi = character_by_label(5, "quadratic")
        rep = fe_residuals(ref, ref, [0.5 + 0j], psi=psi)
        # psi(400) = 0, so the twist's last nonzero term is at n = 399
        assert rep.quadrature_T == math.sqrt(399)
        twisted = twist(ref, psi)  # at level 25
        assert rep.tail_bound == to_terms(twisted).magnitude(math.sqrt(399) / 5) * 5 / (2 * math.pi)

    def test_levels_must_match(self):
        # each side is continued at its own level, so f and g at different
        # levels, or a level other than theirs, have no functional equation
        f, g = oldform_pair(7, base=4)
        lift = harmonic_eisenstein_level_one(28)
        psi = character_by_label(5, "quadratic")
        with pytest.raises(ValueError, match="levels differ: f is at level 1, g at 7"):
            fe_residuals(lift, g, [0.5 + 1j])
        with pytest.raises(ValueError, match="levels differ"):
            fe_residuals(f, lift, [0.5 + 1j], psi=psi)
        for level in (1, 49):
            for fn in (twisted_lambda, twisted_omega):
                with pytest.raises(ValueError, match=f"f and g must be at level {level}, not 7"):
                    fn(f, g, f.character, psi, level, -2, 0.5 + 1j)

    def test_character_must_be_that_of_f(self):
        # C_psi depends on chi, so any chi but f's own would give a wrong
        # constant without a warning
        f, g = oldform_pair(7, base=4)
        psi = character_by_label(5, "quadratic")
        other = character_by_label(7, "quadratic")
        want = re.escape(f"chi must be the character of f: {other!r} is not {f.character!r}")
        for fn in (twisted_lambda, twisted_omega):
            with pytest.raises(ValueError, match=want):
                fn(f, g, other, psi, 7, -2, 0.5 + 1j)

    def test_coprimality_required(self):
        ref = harmonic_eisenstein_level_one(20)
        psi = character_by_label(5, "quadratic")
        f5 = FormExpansion(-2, 5, trivial_character(5), 0.0, ref.n_max,
                           ref.c_plus, ref.c_minus_zero, ref.c_minus)
        with pytest.raises(ValueError):
            twisted_lambda(f5, f5, trivial_character(5), psi, 5, -2, 2.0 + 0j)

    def test_twisted_sensitivity(self):
        # the twisted residual detects a wrong constant: scale one side
        ref = harmonic_eisenstein_level_one(200)
        psi = character_by_label(5, "quadratic")
        cp = ref.c_plus.copy()
        cp[1] *= 1.2
        bad = FormExpansion(ref.weight, ref.level, ref.character, ref.alpha,
                            ref.n_max, cp, ref.c_minus_zero, ref.c_minus)
        _, _, res = twisted_lambda(ref, bad, TRIV1, psi, 1, -2, 2.0 + 0j)
        assert res > 1e-3


class TestSelfDual:
    """A functional equation whose two sides hold the same data (f = g, or a
    real psi on f = g) builds one pair and continues it once, at s and k - s
    together, with every output equal to the two-pair path's, which a
    partner padded with one zero coefficient takes: its data differ, its
    terms do not."""

    GRID = [complex(r, i) for r in (-1.5, -0.5, 0.5, 1.5) for i in (0.5, 2.0)]
    PSI = character_by_label(5, "quadratic")

    @staticmethod
    def padded(form):
        """form stored to n_max + 1, its last coefficients zero."""
        return FormExpansion(form.weight, form.level, form.character, form.alpha, form.n_max + 1,
                             np.append(form.c_plus, 0), form.c_minus_zero, np.append(form.c_minus, 0))

    def test_plain_residuals_build_one_pair_and_make_one_batch(self, work):
        ref = harmonic_eisenstein_level_one(40)
        fe_residuals(ref, ref, self.GRID)
        assert work.extractions == 1
        assert [exponents for exponents, _ in work.sums] == [2 * len(self.GRID)]
        # the pair's zero-mode extraction and one order-1 pass on the nodes
        # of [1/T, T] (8 panels x 16 nodes)
        assert work.passes == [(0, 64), (1, 128)]

    def test_twisted_lambda_builds_one_pair_and_makes_one_batch(self, work):
        ref = harmonic_eisenstein_level_one(400)
        twisted_lambda(ref, ref, TRIV1, self.PSI, 1, -2, 0.5 + 0.5j)
        assert work.extractions == 1
        # one continuation of s and k - s, Lambda and Omega from one order-1
        # pass on the nodes of [1/T, T] (12 panels x 16 nodes)
        assert work.sums == [(2, 192)]
        assert work.passes == [(0, 64), (1, 192)]

    def test_outputs_equal_the_two_pair_path(self, work):
        ref = harmonic_eisenstein_level_one(400)
        grid = self.GRID + [1.0 + 0j]
        arr = np.array([[0.5 + 0.5j, -1.0 + 1.0j], [2.0 + 0.25j, 0.3 - 2.0j]])

        def outputs(g):
            out = [fe_residuals(ref, g, grid).to_json()]
            for psi in (self.PSI, character_by_label(3, "quadratic")):
                out.append(fe_residuals(ref, g, grid, psi=psi).to_json())
                for fn in (twisted_lambda, twisted_omega):
                    for s in (0.5 + 0.5j, -1.0 + 1.0j, 2.0 + 0.25j, arr):
                        out.append(fn(ref, g, TRIV1, psi, 1, -2, s))
            return out

        shared = outputs(ref)
        # one pair for ref and one per twist of ref; the padded partner adds
        # as many again
        assert work.extractions == 3
        apart = outputs(self.padded(ref))
        assert work.extractions == 6
        for got, want in zip(shared, apart):
            if isinstance(want, dict):
                assert got == want
            else:
                for g, w in zip(got, want):
                    assert type(g) is type(w)
                    assert np.shape(g) == np.shape(w)
                    assert np.array_equal(g, w)

    @pytest.mark.parametrize("s", [1.0 + 0j, complex(-3.0, 0.0), complex(0.5, math.inf),
                                   complex(math.nan, 1.0)])
    def test_errors_name_the_point_the_two_pair_path_names(self, s):
        ref = harmonic_eisenstein_level_one(40)

        def message(g):
            with pytest.raises(ValueError) as err:
                twisted_omega(ref, g, TRIV1, self.PSI, 1, -2, s)
            return str(err.value)

        assert message(ref) == message(self.padded(ref))

    def test_content_equal_forms_share_one_pair(self, work):
        ref = harmonic_eisenstein_level_one(40)
        again = harmonic_eisenstein_level_one(40)
        assert again is not ref and again.c_plus is not ref.c_plus
        fe_residuals(ref, again, self.GRID[:2])
        assert work.extractions == 1

    def test_a_one_ulp_or_zero_sign_difference_builds_two_pairs(self, work):
        ref = harmonic_eisenstein_level_one(40)
        cp = ref.c_plus.copy()
        cp[3] = np.nextafter(cp[3].real, np.inf) + 1j * cp[3].imag
        assert ref.c_minus_zero.imag == 0.0
        cm0 = complex(ref.c_minus_zero.real, -0.0)
        for other in (replace(ref, c_plus=cp), replace(ref, c_minus_zero=cm0)):
            work.clear()
            fe_residuals(replace(ref), other, self.GRID[:2])
            assert work.extractions == 2

    def test_array_s_keeps_its_shape(self):
        ref = harmonic_eisenstein_level_one(40)
        for s in (np.array([[0.5 + 0.5j, -1.0 + 1.0j, 2.0 + 0.25j]]), np.array([], dtype=complex)):
            for fn in (twisted_lambda, twisted_omega):
                v_f, v_g, res = fn(ref, ref, TRIV1, self.PSI, 1, -2, s)
                assert v_f.shape == v_g.shape == res.shape == s.shape


class TestReconstruction:
    def test_single_plus_coefficient(self):
        f = single_form(plus=1)
        lam = lambda s: (1.0 / TWO_PI) ** s * gamma_complex(s)
        for t in (0.8, 1.0, 1.5):
            got = reconstruct_from_lambda(lam, 1, -2, t, 2.0, 40.0)
            assert abs(got - math.exp(-TWO_PI * t)) <= 1e-6

    def test_single_minus_coefficient(self):
        lam = lambda s: (1.0 / TWO_PI) ** s * w_nu(3, s)
        for t in (0.8, 1.0, 1.5):
            got = reconstruct_from_lambda(lam, 1, -2, t, 2.0, 40.0)
            want = _inc_gamma_scaled(3, 4.0 * math.pi * t, TWO_PI * t)
            assert abs(got - want) <= 1e-5

    def test_zero_lambda(self):
        assert reconstruct_from_lambda(lambda s: 0j, 1, -2, 1.0, 2.0, 30.0) == 0

    def test_eisenstein_reconstruction(self):
        ref = harmonic_eisenstein_level_one(40)
        pair = analytic_pair(ref)
        lam = lambda s: lambda_continued(pair, s)
        for t in (0.8, 1.5):
            got = reconstruct_from_lambda(lam, 1, -2, t, 2.0, 40.0)
            want = evaluate(ref, 1j * t) - ref.c_plus[0] - ref.c_minus_zero * t**3
            assert abs(got - want) <= 1e-4

    def test_full_output(self):
        f = single_form(plus=1)
        lam = lambda s: (1.0 / TWO_PI) ** s * gamma_complex(s)
        val, info = reconstruct_from_lambda(lam, 1, -2, 1.0, 2.0, 40.0, full_output=True)
        assert info["witness"] <= 1e-8

    def test_unresolved_raises(self):
        # an integrand that carries its own factor 1e6^s turns 13.8 radians
        # per unit of Im s, past what 16 nodes on panels 2 to 6 wide resolve
        # at t = 1 (the panels narrow with |log t| only): the witness reads
        # ~4e8
        lam = lambda s: (1e6 / TWO_PI) ** s * gamma_complex(s)
        with pytest.raises(QuadratureError, match="witness"):
            reconstruct_from_lambda(lam, 1, -2, 1.0, 2.0, 40.0)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_a_non_finite_lambda_raises(self, poison):
        # NaN everywhere, or one infinite node at the top of the line
        def lam(s):
            vals = np.full(s.shape, np.nan + 0j) if np.isnan(poison) else gamma_complex(s)
            vals[np.argmax(s.imag)] = poison
            return vals

        with pytest.raises(QuadratureError, match=rf"fn is \({poison}"):
            reconstruct_from_lambda(lam, 1, -2, 1.0, 2.0, 40.0, full_output=True)

    @pytest.mark.parametrize("t", [1e-3, 1e-2, 0.1, 10.0, 20.0])
    def test_small_and_large_t_resolve(self, t):
        # panels of width 1/|log t| let 16 nodes follow t^{-iy}, which turns
        # |log t| radians per unit of Im s; the gate sits near Lambda's
        # rounding floor, t^{-2} = 1e6 at t = 1e-3
        lam = lambda s: (1.0 / TWO_PI) ** s * gamma_complex(s)
        got = reconstruct_from_lambda(lam, 1, -2, t, 2.0, 40.0)
        assert abs(got - math.exp(-TWO_PI * t)) <= 1e-12

    @pytest.mark.parametrize("t", [math.exp(-1.0), 0.5, 1.0, 2.0, math.e])
    def test_one_node_set_for_t_within_a_factor_e(self, t):
        # 20 graded panels of 16 nodes at height 40, in one call, on the same
        # bits for every t with |log t| <= 1: so a pair's kept continuation
        # answers a repeat at another such t
        at_one, at_t = [], []
        reconstruct_from_lambda(lambda s: at_one.append(s.copy()) or 0j, 1, -2, 1.0, 2.0, 40.0)
        reconstruct_from_lambda(lambda s: at_t.append(s.copy()) or 0j, 1, -2, t, 2.0, 40.0)
        assert len(at_one) == len(at_t) == 1
        assert at_t[0].tobytes() == at_one[0].tobytes()
        assert at_t[0].size == 20 * 16

    def test_nonpositive_t_rejected(self):
        for t in (0.0, -0.5):
            with pytest.raises(ValueError, match="must be > 0"):
                reconstruct_from_lambda(lambda s: 0j, 1, -2, t, 2.0, 40.0)

    @pytest.mark.parametrize("name, t, beta1, height", [
        ("height", 1.0, 2.0, -40.0),
        ("height", 1.0, 2.0, 0.0),
        ("height", 1.0, 2.0, math.inf),
        ("x", math.nan, 2.0, 40.0),
        ("abscissa", 1.0, math.nan, 40.0),
    ])
    def test_invalid_line_rejected(self, name, t, beta1, height):
        # named as specfun.invert_on_line names them: x = t, abscissa = beta1
        lam = lambda s: (1.0 / TWO_PI) ** s * gamma_complex(s)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            reconstruct_from_lambda(lam, 1, -2, t, beta1, height)


class TestVerificationSets:
    def test_paper_sourced_levels(self):
        s7 = verification_set(7)
        assert s7.conductors == (11, 17, 19, 23, 29, 41)
        assert s7.source == "paper"
        s11 = verification_set(11)
        assert s11.conductors == (13, 17, 19, 23, 29, 31, 37, 47, 59, 71)
        assert s11.source == "paper"

    def test_heuristic_level(self):
        s2 = verification_set(2)
        assert s2.source == "heuristic"
        assert len(s2.conductors) == 8
        for m in s2.conductors:
            assert math.gcd(m, 2) == 1
            assert m != 4  # gcd(4, 2) != 1, so 4 is filtered out
        s3 = verification_set(3)
        assert 4 in s3.conductors  # 4 is coprime to 3

    @pytest.mark.parametrize(
        "level, want",
        [(210, (11, 13, 17, 19, 23, 29, 31, 37)), (30030, (17, 19, 23, 29, 31, 37, 41, 43))],
    )
    def test_heuristic_list_is_full_for_many_prime_factors(self, level, want):
        # the first eight odd primes or 4 coprime to N, however many of the
        # small ones N excludes
        s = verification_set(level)
        assert s.source == "heuristic" and s.conductors == want

    def test_full_heuristic_lists_are_unchanged(self):
        # the list scanned from the candidates 3..34 (the earlier rule),
        # wherever that scan already found eight conductors
        def scanned(level):
            pool = [m for m in range(3, 35) if m == 4 or all(m % p for p in range(2, m))]
            return tuple(m for m in pool if math.gcd(m, level) == 1)[:8]

        full = [n for n in range(1, 5000) if len(scanned(n)) == 8 and n not in (7, 11)]
        assert len(full) == 4997 - 229
        assert all(verification_set(n).conductors == scanned(n) for n in full)

    @pytest.mark.parametrize("level", [0, -7])
    def test_level_below_one_is_refused(self, level):
        # the heuristic scan needs gcd(m, N) = 1, which gcd(m, 0) = m never is
        with pytest.raises(ValueError, match="level must be >= 1"):
            verification_set(level)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ConductorSet(7, (14,), "heuristic")  # shares a factor
        with pytest.raises(ValueError):
            ConductorSet(1, (9,), "heuristic")  # not an odd prime or 4


class TestResidualReportValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ResidualReport(grid=[1j], lambda_residuals=[0.1, 0.2], omega_residuals=[0.1])

    def test_nodes_per_panel_is_not_a_constructor_field(self):
        # the report records the one node count every continuation uses; no
        # caller can set another
        with pytest.raises(TypeError, match="nodes_per_panel"):
            ResidualReport(grid=[], lambda_residuals=[], omega_residuals=[], nodes_per_panel=8)
        rep = ResidualReport(grid=[1j], lambda_residuals=[0.1], omega_residuals=[0.2])
        assert rep.to_json()["nodes_per_panel"] == 16

    @pytest.mark.parametrize("lam, om", [
        ([1e-12, math.nan], [0.0, 0.0]),  # max([1e-12, nan]) drops the NaN
        ([math.nan, 1e-12], [0.0, 0.0]),  # and keeps it only when it comes first
        ([0.0, 0.0], [1e-12, math.nan]),
        ([0.0, math.nan], [1e-12, 2.0]),  # a NaN Lambda beside a finite Omega
    ])
    def test_a_nan_residual_makes_its_maxima_nan(self, lam, om):
        rep = ResidualReport(grid=[1j, 2j], lambda_residuals=lam, omega_residuals=om)
        assert math.isnan(rep.max_residual)
        assert math.isnan(rep.max_lambda) == any(map(math.isnan, lam))
        assert math.isnan(rep.max_omega) == any(map(math.isnan, om))

    def test_finite_maxima_are_the_largest_residuals(self):
        rep = ResidualReport(grid=[1j, 2j], lambda_residuals=[1e-12, 3e-12],
                             omega_residuals=[2e-12, 1e-13])
        assert (rep.max_lambda, rep.max_omega, rep.max_residual) == (3e-12, 2e-12, 3e-12)
        empty = ResidualReport(grid=[], lambda_residuals=[], omega_residuals=[])
        assert empty.max_residual == 0.0
