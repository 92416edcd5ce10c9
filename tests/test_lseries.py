"""Completed Dirichlet series: definitional sums, analytic continuation,
functional-equation residuals, twists, inverse-Mellin reconstruction.

The level-one harmonic Eisenstein lift (exact divisor-sum coefficients,
its own Fricke partner) is the golden pair throughout.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import make_random_form, oldform_pair
from maassforms.characters import character_by_label, trivial_character
from maassforms.eisenstein import harmonic_eisenstein_level_one
from maassforms.forms import FormExpansion, evaluate, twist
from maassforms.lseries import (
    ConductorSet,
    FrickePair,
    ResidualReport,
    UncertifiedRegionWarning,
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
from maassforms.specfun import QuadratureError, _inc_gamma_scaled, gamma_complex, w_nu

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
        # a pair assembled from two given expansions (level 1: g = f)
        # continues like the self-anchored one for a true pair; it is cut
        # off at T = 30 (1 - k), far past the integrand's decay
        from maassforms.forms import h_op, to_terms

        ref = harmonic_eisenstein_level_one(80)
        ts, k = to_terms(ref), ref.weight
        c0, d0 = complex(ref.c_plus[0]), ref.c_minus_zero
        p_b = FrickePair(1, k, ts.eval, ts.eval, h_op(ts, k).eval, h_op(ts, k).eval,
                         c0, d0, c0, d0, T_default=30.0 * (1 - k))
        p_a = analytic_pair(ref)
        for s in (2.0 + 0j, 0.5 + 1.0j, -1.0 + 2.0j):
            assert abs(lambda_continued(p_b, s) - lambda_continued(p_a, s)) <= 1e-8

    def test_degenerate_constant_form_omega_integrand(self):
        # pure c+(0): H = k c+(0), so the constant-subtracted integrand is 0
        f = single_form(k=-2, n_max=2)
        cp = f.c_plus.copy()
        cp[0] = 1.0
        f = FormExpansion(-2, 1, TRIV1, 0.0, 2, cp, 0.0, f.c_minus)
        from maassforms.lseries import _mellin_piece
        from maassforms.forms import h_op, to_terms

        h_eval = h_op(to_terms(f), -2).eval
        val = _mellin_piece(h_eval, -2.0 * 1.0, 0.0, 1, -2, 3.0 + 0j, 20.0)
        assert abs(val) <= 1e-12


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
        # 300 points that share one panel count (15 panels of 16 nodes at
        # T = 4 and |Im s| in [40, 40.1]) fill three row blocks of the Mellin
        # sums (2^15 // 240 = 136 rows each); three more points open groups
        # of their own.  Every value is the one its s gets alone.
        panels = math.ceil(math.log(4.0) / (4.0 / 41.1))
        assert panels == math.ceil(math.log(4.0) / (4.0 / 41.0)) == 15
        assert 300 > 2 * ((1 << 15) // (16 * panels))
        pts = np.concatenate([0.5 + 1j * np.linspace(40.0, 40.1, 300), [-1.0 + 1j, 2.0 - 7j, 0.3]])
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


class TestResiduals:
    GRID = [complex(r, i) for r in (-1.0, -0.5, 0.5, 1.0) for i in (0.0, 1.0, 2.0)]

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
        # to_terms builds the evaluator arrays from the coefficient arrays, so
        # the numeric pair path makes no Fraction: the exact term dict is
        # only made for the operators that ask for it
        import maassforms.forms as forms

        f, g = oldform_pair(7)
        grid = [complex(r, i) for r in (-1.5, 0.5) for i in (0.5, 2.0)]
        want = fe_residuals(f, g, grid, psi=psi)

        def forbidden(*args, **kwargs):
            raise AssertionError("exact term dict built on the pair path")

        monkeypatch.setattr(forms, "Fraction", forbidden)
        rep = fe_residuals(f, g, grid, psi=psi)
        assert rep.to_json() == want.to_json()
        if psi is None:
            assert rep.max_residual <= 1e-8


class TestMellinCutoff:
    # T <= 1 leaves no [1, T] integral to take: at T = 1 any partner passes
    # and below it the integral runs backwards; inf and nan are no cut-off
    @pytest.mark.parametrize("T", [1.0, 0.5, 0.0, -1.0, math.inf, math.nan])
    def test_rejects_cutoffs_that_are_not_finite_and_above_one(self, small_pair, T):
        ref = harmonic_eisenstein_level_one(4)
        psi = character_by_label(5, "quadratic")
        for call in (
            *(lambda fn=fn: fn(small_pair, 0.5 + 1j, T) for fn in BATCHED),
            lambda: fe_residuals(ref, ref, [0.5 + 1j], T=T),
            lambda: fe_residuals(ref, ref, [0.5 + 1j], T=T, psi=psi),
            lambda: twisted_lambda(ref, ref, TRIV1, psi, 1, -2, 0.5 + 1j, T),
            lambda: twisted_omega(ref, ref, TRIV1, psi, 1, -2, 0.5 + 1j, T),
        ):
            with pytest.raises(ValueError, match="cut-off T"):
                call()

    def test_accepts_a_cutoff_just_above_one(self, small_pair):
        assert np.isfinite(lambda_continued(small_pair, 0.5 + 1j, 1.5))


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
    def test_twisted_driver_builds_two_pairs(self, monkeypatch, points):
        # one pair per side for the whole grid, not two per side per point
        import maassforms.lseries as lseries

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return analytic_pair(*args, **kwargs)

        monkeypatch.setattr(lseries, "analytic_pair", counting)
        ref = harmonic_eisenstein_level_one(40)
        grid = [complex(0.5, 0.3 * j) for j in range(points)]
        fe_residuals(ref, ref, grid, psi=character_by_label(5, "quadratic"))
        assert len(calls) == 2

    def test_twisted_report_records_T_and_tail(self):
        from maassforms.lseries import _integrand_tail

        ref = harmonic_eisenstein_level_one(400)
        psi = character_by_label(5, "quadratic")
        rep = fe_residuals(ref, ref, [0.5 + 0j], psi=psi)
        assert rep.quadrature_T == 20.0  # max(4, sqrt(400)), not 0
        pair_f = analytic_pair(twist(ref, psi))
        assert rep.tail_bound == _integrand_tail(pair_f, 20.0)

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
        assert info["refinement_error"] <= 1e-8

    def test_unresolved_raises(self):
        # t^{-s} at t = 1e-6 oscillates past what 6 nodes per unit panel
        # resolve: the refinement moves the value by ~2e7
        lam = lambda s: (1.0 / TWO_PI) ** s * gamma_complex(s)
        with pytest.raises(QuadratureError, match="refinement moves"):
            reconstruct_from_lambda(lam, 1, -2, 1e-6, 2.0, 40.0)

    def test_nonpositive_t_rejected(self):
        for t in (0.0, -0.5):
            with pytest.raises(ValueError, match="must be > 0"):
                reconstruct_from_lambda(lambda s: 0j, 1, -2, t, 2.0, 40.0)


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

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ConductorSet(7, (14,), "heuristic")  # shares a factor
        with pytest.raises(ValueError):
            ConductorSet(1, (9,), "heuristic")  # not an odd prime or 4


class TestResidualReportValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ResidualReport(grid=[1j], lambda_residuals=[0.1, 0.2], omega_residuals=[0.1])
