"""Eisenstein series at cusps, harmonic lifts, dimension formula.

The level-one weight -2 lift has closed-form Fourier data (divisor sums);
tests cross-validate it against the truncated coset sums, whose error is
probed by doubling the bound.
"""

import math
import tracemalloc

import numpy as np
import pytest

from maassforms import eisenstein
from maassforms.characters import trivial_character
from maassforms.eisenstein import (
    coset_tail_estimate,
    dim_eisenstein,
    eisenstein_level_one_coefficients,
    eisenstein_series,
    f_expansion,
    f_series,
    harmonic_eisenstein_level_one,
)
from maassforms.forms import IllConditionedError, evaluate, shadow
from maassforms.modgroup import RationalMatrix, coset_reps, cusps

TRIV1 = trivial_character(1)
INF1 = cusps(1)[0]


from functools import lru_cache


@lru_cache(maxsize=32)
def _cached_reps(level, rho, bound):
    return coset_reps(level, rho, bound)


def slashed_sum(level, chi, k, rho, gamma, tau, bound, kind):
    """(E|_{2-k} gamma)(tau) resp. (F|_k gamma)(tau) via the composed rows
    of gamma_rho^{-1} g gamma: the natural truncation in the gamma frame.

    The rows (c, d) of gamma_rho^{-1} g come from coset_reps and are composed
    with the integral gamma in exact integers."""
    reps = _cached_reps(level, rho, bound)
    a, b, c, d = (int(x) for x in (gamma.a, gamma.b, gamma.c, gamma.d))
    rows = [(float(rc * a + rd * c), float(rc * b + rd * d)) for rc, rd in reps.rows.tolist()]
    phases = np.array([np.conj(chi(gd)) for gd in reps.d.tolist()])
    v = tau.imag
    w = np.array([hc * tau + hd for hc, hd in rows])
    if kind == "eisenstein":
        return complex(np.sum(phases * w ** (k - 2)))
    return complex(
        np.sum(phases * w ** (-k) * np.abs(w) ** (2 * k - 2)) * v ** (1 - k) / (1 - k)
    )


class TestEisensteinSeries:
    def test_convergence_self_test(self):
        v30 = eisenstein_series(1, TRIV1, -2, INF1, 1j, 30)
        v60 = eisenstein_series(1, TRIV1, -2, INF1, 1j, 60)
        assert abs(v30 - v60) < 1e-4

    def test_constant_term_at_infinity(self):
        for v in (8.0, 15.0):
            val = eisenstein_series(1, TRIV1, -2, INF1, 1j * v, 60)
            assert abs(val - 1.0) < 1e-3

    def test_weight_four_q_expansion(self):
        # oracle: divisor power sums, 240 sigma_3(n); validated against two
        # truncation bounds of the coset sum itself
        want = eisenstein_level_one_coefficients(3)
        assert list(want[:3]) == [1.0, 240.0, 2160.0]
        for bound, tol in ((60, 2e-2), (120, 6e-3)):
            v0 = 0.35
            taus = np.arange(256) / 256 + 1j * v0
            vals = eisenstein_series(1, TRIV1, -2, INF1, taus, bound)
            for n in range(4):
                mode = np.mean(vals * np.exp(-2j * math.pi * n * taus))
                assert abs(mode - want[n]) <= tol * max(1.0, want[n])

    def test_parity_guard(self):
        chi4 = trivial_character(4)
        rho = cusps(4)[0]
        with pytest.raises(ValueError):
            eisenstein_series(4, chi4, -3, rho, 1j, 10)  # odd k, even character

    def test_tail_estimate_tracks_bound(self):
        t60 = coset_tail_estimate(-2, 60)
        t120 = coset_tail_estimate(-2, 120)
        assert t120 < t60
        assert t60 == pytest.approx(4.0 * t120)


class TestFSeries:
    def test_single_coset_term(self):
        # at level 7 and bound < 7, only the identity coset survives
        rho7 = cusps(7)[0]
        chi7 = trivial_character(7)
        assert len(coset_reps(7, rho7, 6)) == 1
        tau = 0.2 + 0.8j
        got = f_series(7, chi7, -2, rho7, tau, 6)
        assert got == pytest.approx(0.8**3 / 3.0, rel=1e-14)

    def test_fd_laplacian_small(self):
        # truncated sum is harmonic up to the finite-difference floor
        h = 1e-4
        ev = lambda t: f_series(1, TRIV1, -2, INF1, t, 60)
        tau, v, k = 1j, 1.0, -2
        fuu = (ev(tau + h) - 2 * ev(tau) + ev(tau - h)) / h**2
        fvv = (ev(tau + 1j * h) - 2 * ev(tau) + ev(tau - 1j * h)) / h**2
        fu = (ev(tau + h) - ev(tau - h)) / (2 * h)
        fv = (ev(tau + 1j * h) - ev(tau - 1j * h)) / (2 * h)
        lap = -(v**2) * (fuu + fvv) + 1j * k * v * (fu + 1j * fv)
        assert abs(lap) <= 1e-4

    def test_weight_minus_one_loose(self):
        # k = -1 converges like bound^-1: exercised at a loose tolerance
        # (an odd character is required: quadratic mod 4)
        from maassforms.characters import character_by_label

        chi4 = character_by_label(4, "quadratic")
        rho = cusps(4)[0]
        tau = 0.2 + 1.0j
        v60 = f_series(4, chi4, -1, rho, tau, 60)
        v120 = f_series(4, chi4, -1, rho, tau, 120)
        assert abs(v60 - v120) < 1e-2
        # identity coset dominates at height 8: F ~ v^2 / 2
        tall = f_series(4, chi4, -1, rho, 8.0j, 60)
        assert abs(tall - 8.0**2 / 2.0) / (8.0**2 / 2.0) < 1e-2

    def test_polynomial_growth_at_infinity(self):
        # |F(iv)| = O(v^{1-k}): the ratio to v^3 stabilizes at c-(0) = 1/3
        ratios = [abs(f_series(1, TRIV1, -2, INF1, 1j * v, 60)) / v**3 for v in (10, 20, 40)]
        assert all(r < 1.0 for r in ratios)
        assert ratios[-1] == pytest.approx(1.0 / 3.0, rel=1e-2)

    def test_modularity_sample(self, rng):
        # F|_k gamma = chi(d) F at random gamma in Gamma_0(N), entries <= 20.
        # The gamma-frame window is sheared by ||gamma||, so the bound is
        # raised to keep the boundary terms inside the 5e-3 tolerance.
        for level in (1, 4):
            chi = trivial_character(level)
            rho = cusps(level)[0]
            tau = 1j
            base = f_series(level, chi, -2, rho, tau, 90)
            found = 0
            while found < 10:
                c = level * int(rng.integers(-4, 5))
                d = int(rng.integers(-20, 21))
                if math.gcd(abs(c), abs(d)) != 1:
                    continue
                # lift to Gamma_0(N) and bound the entries
                from maassforms.modgroup import RationalMatrix

                g, x, y = _ext_gcd(d, -c)
                gamma = RationalMatrix(x, y, c, d)
                if max(abs(int(gamma.a)), abs(int(gamma.b))) > 20:
                    continue
                found += 1
                lhs = slashed_sum(level, chi, -2, rho, gamma, tau, 90, "f")
                rhs = chi(int(gamma.d)) * base
                assert abs(lhs - rhs) <= 5e-3


def _ext_gcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - y * (a // b)


class TestCuspValues:
    def test_eisenstein_delta_at_cusps(self):
        # E_{4,rho}(4, triv)|gamma_nu -> 1 at nu = rho and -> 0 elsewhere
        level = 4
        chi = trivial_character(level)
        cs = cusps(level)
        for rho in cs:
            for nu in cs:
                vals = [
                    slashed_sum(level, chi, -2, rho, nu.scaling, 1j * v, 60, "eisenstein")
                    for v in (10.0, 20.0)
                ]
                target = 1.0 if (rho.a, rho.c) == (nu.a, nu.c) else 0.0
                # approach within the coset tail at both heights
                assert abs(vals[0] - target) <= 5e-3
                assert abs(vals[1] - target) <= 5e-3


class TestFExpansion:
    def test_round_trip_against_series(self):
        form = f_expansion(1, TRIV1, -2, INF1, 10, bound=60)
        tau = 0.3 + 0.7j
        direct = f_series(1, TRIV1, -2, INF1, tau, 60)
        assert abs(evaluate(form, tau) - direct) <= 1e-4

    def test_principal_part_absent(self):
        # the data structure itself admits no n < 0 holomorphic terms; the
        # extracted c+ data is the full holomorphic story
        form = f_expansion(1, TRIV1, -2, INF1, 6, bound=60)
        assert form.c_plus.shape == (7,)
        assert form.n_max == 6

    def test_shadow_matches_eisenstein(self):
        # theorem check at well-scaled heights: shadow(F) = E_4 to 1e-3
        form = f_expansion(1, TRIV1, -2, INF1, 8, bound=60)
        sh = shadow(form)
        want = eisenstein_level_one_coefficients(8)
        for n in range(9):
            assert abs(sh.coefficients[n] - want[n]) <= 1e-3 * max(1.0, want[n])

    def test_witness_leaves_form_unchanged_and_tracks_the_error(self):
        # full_output only adds the witness: the form is the same arrays
        plain = f_expansion(1, TRIV1, -2, INF1, 10, bound=60)
        form, witness = f_expansion(1, TRIV1, -2, INF1, 10, bound=60, full_output=True)
        assert np.array_equal(form.c_plus, plain.c_plus)
        assert np.array_equal(form.c_minus, plain.c_minus)
        assert form.c_minus_zero == plain.c_minus_zero
        # at default heights the witness is the closed-form error within a
        # factor of 3 either way (measured ratios 0.95-1.80)
        ref = harmonic_eisenstein_level_one(10)
        pairs = [
            (form.c_plus, ref.c_plus, witness["c_plus"]),
            (form.c_minus, ref.c_minus, witness["c_minus"]),
            (form.c_minus_zero, ref.c_minus_zero, witness["c_minus_zero"]),
        ]
        for got, exact, w in pairs:
            ratio = np.abs(np.asarray(got) - exact) / w
            assert np.all((ratio >= 1.0 / 3.0) & (ratio <= 3.0))

    def test_lost_modes_carry_infinite_witness(self):
        # at heights (40, 80) the Gram values of modes 1-2 leave the double
        # range: the data is stored as 0 and flagged, never passed as extracted
        form, witness = f_expansion(1, TRIV1, -2, INF1, 2, bound=60,
                                    heights=(40.0, 80.0), full_output=True)
        assert np.all(form.c_plus[1:] == 0) and np.all(np.isinf(witness["c_plus"][1:]))
        assert form.c_minus[1] == 0 and np.isinf(witness["c_minus"][1])
        assert np.isfinite(witness["c_plus"][0])

    def test_lost_constant_mode_raises(self):
        # c+(0) and c-(0) cannot be left out of a form: equal heights raise
        with pytest.raises(IllConditionedError, match="agree to 1e-8 relative"):
            f_expansion(1, TRIV1, -2, INF1, 2, bound=20, heights=(1.0, 1.0))

    def test_constant_term_near_one_third(self):
        form = f_expansion(1, TRIV1, -2, INF1, 6, bound=60)
        assert abs(form.c_minus_zero - 1.0 / 3.0) < 1e-3

    def test_shadow_surjectivity_level_four(self):
        # the shadows of the three lifts span the three-dimensional
        # Eisenstein space: the coefficient matrix has full rank
        level = 4
        chi = trivial_character(level)
        cs = cusps(level)
        rows = []
        for rho in cs:
            form = f_expansion(level, chi, -2, rho, 4, bound=60)
            rows.append(shadow(form).coefficients[:5])
        m = np.array(rows)
        rank = np.linalg.matrix_rank(m, tol=1e-3 * np.abs(m).max())
        assert rank == len(cs) == dim_eisenstein(level, chi)


def one_shot(rows, charvals, flat, k, prefix):
    """The rows x points lift summands the chunked coset sum replaced,
    charvals w^{-k} |w|^{2k-2} with w = c tau + d, summed at once: (terms,
    sum over all rows, sum over the first prefix rows)."""
    w = rows[:, 0].reshape(-1, 1) * flat + rows[:, 1].reshape(-1, 1)
    mod2 = (w * np.conj(w)).real
    terms = charvals.reshape(-1, 1) * w ** (-k) * mod2 ** (k - 1)
    return terms, terms.sum(axis=0), terms[:prefix].sum(axis=0)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture
def level7_rows():
    """Rows of the cusp 0 of level 7 at bound 20 (457 of them), with
    unit-modulus character values of random phase, and their bound//2 prefix."""
    rows = eisenstein._coset_rows(7, trivial_character(7), cusps(7)[1], 20)[0]
    charvals = np.exp(2j * np.pi * np.random.default_rng(11).random(len(rows)))
    half = int(np.searchsorted(np.abs(rows).max(axis=1), 10, side="right"))
    return rows, charvals, half


def sample_points(count, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, count) + 1j * rng.uniform(0.05, 2.0, count)


class TestCosetSum:
    @pytest.mark.parametrize("points", [2, 7, 256])
    @pytest.mark.parametrize(
        "chunk_rows, chunk_points, prefix",
        [
            (3, 4, 0),  # a prefix of no rows
            (3, 4, 30),  # a chunk edge at the prefix
            (3, 256, 31),  # the prefix inside a chunk
            (3, 4, "half"),  # the bound//2 prefix
            ("half", 256, "half"),  # a chunk edge exactly at the bound//2 prefix
            (None, None, "half"),  # the module's own chunk sizes
            (3, 4, "all"),
        ],
    )
    def test_chunked_sum_equals_the_one_shot_sum(
        self, monkeypatch, level7_rows, points, chunk_rows, chunk_points, prefix
    ):
        rows, charvals, half = level7_rows
        sizes = {"half": half, "all": len(rows)}
        prefix = sizes.get(prefix, prefix)
        if chunk_rows is not None:
            monkeypatch.setattr(eisenstein, "_CHUNK_ROWS", sizes.get(chunk_rows, chunk_rows))
            monkeypatch.setattr(eisenstein, "_CHUNK_POINTS", chunk_points)
        assert 0 < half < len(rows) and eisenstein._CHUNK_ROWS < len(rows)
        taus = sample_points(points)
        for k in (-1, -2, -3):
            _, full, head = one_shot(rows, charvals, taus, k, prefix)
            got_full, got_head = eisenstein._coset_sum(rows, charvals, taus, -k, k - 1, prefix)
            assert same_bits(got_full, full)
            assert same_bits(got_head, head)

    @pytest.mark.parametrize("chunk_rows, chunk_points", [(3, 4), (None, None)])
    def test_eisenstein_summands_without_the_modulus_factor(
        self, monkeypatch, level7_rows, chunk_rows, chunk_points
    ):
        rows, charvals, _ = level7_rows
        if chunk_rows is not None:
            monkeypatch.setattr(eisenstein, "_CHUNK_ROWS", chunk_rows)
            monkeypatch.setattr(eisenstein, "_CHUNK_POINTS", chunk_points)
        taus = sample_points(7)
        w = rows[:, 0].reshape(-1, 1) * taus + rows[:, 1].reshape(-1, 1)
        for k in (-1, -2):
            want = (charvals.reshape(-1, 1) * w ** (k - 2)).sum(axis=0)
            assert same_bits(eisenstein._coset_sum(rows, charvals, taus, k - 2)[0], want)

    def test_a_lone_point_does_not_depend_on_its_batch(self):
        # numpy sums one column pairwise, so a lone point is summed in coset
        # order like every batch: its value is its value in a batch, bit for
        # bit, and it moves from the one-shot pairwise sum by at most
        # 1e-14 sum |term| at bound 60
        rows, charvals = eisenstein._coset_rows(1, TRIV1, INF1, 60)
        taus = sample_points(40, seed=5)
        batch_f = f_series(1, TRIV1, -2, INF1, taus, 60)
        batch_e = eisenstein_series(1, TRIV1, -2, INF1, taus, 60)
        for i, tau in enumerate(taus):
            assert f_series(1, TRIV1, -2, INF1, tau, 60) == batch_f[i]
            assert eisenstein_series(1, TRIV1, -2, INF1, tau, 60) == batch_e[i]
            terms, full, _ = one_shot(rows, charvals, taus[i : i + 1], -2, 0)
            got = eisenstein._coset_sum(rows, charvals, taus[i : i + 1], 2, -3)[0]
            assert abs(got[0] - full[0]) <= 1e-14 * np.abs(terms).sum()

    def test_no_rational_arithmetic_on_the_lift_path(self, monkeypatch):
        # cusp data and coset enumeration read integer entries only
        rho = cusps(10)[2]
        chi = trivial_character(10)
        eisenstein._coset_rows.cache_clear()

        def refuse(*args):
            raise AssertionError("RationalMatrix product on the lift path")

        monkeypatch.setattr(RationalMatrix, "__matmul__", refuse)
        form = f_expansion(10, chi, -2, rho, 4, bound=30)
        assert np.all(np.isfinite(form.c_plus))

    def test_memory_is_bounded(self):
        # 256 points at bound 200: the rows x points layout held about 48,900
        # rows x 256 x 16 B = 200 MB per temporary (803 MB traced peak); the
        # chunked sum, coset enumeration included, peaked at 6.0 MB traced
        eisenstein._coset_rows.cache_clear()
        taus = sample_points(256)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            f_series(1, TRIV1, -2, INF1, taus, 200)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestDimension:
    def test_examples(self):
        assert dim_eisenstein(1, trivial_character(1)) == 1
        assert dim_eisenstein(4, trivial_character(4)) == 3
        assert dim_eisenstein(6, trivial_character(6)) == 4

    def test_matches_cusp_count(self):
        for level in range(1, 31):
            assert dim_eisenstein(level, trivial_character(level)) == len(cusps(level))

    def test_nontrivial_character(self):
        from maassforms.characters import character_by_label

        chi4 = character_by_label(4, "quadratic")  # conductor 4
        # C | 4 with gcd(C, 4/C) | 4/4 = 1: C = 1, 4 qualify, gcd(2,2)=2 does not
        assert dim_eisenstein(4, chi4) == 2


class TestReferenceExpansion:
    def test_matches_coset_sum_with_bound_scaling(self):
        ref = harmonic_eisenstein_level_one(40)
        for tau in (0.3 + 0.7j, 0.1 + 1.2j):
            exact = evaluate(ref, tau)
            d60 = abs(exact - f_series(1, TRIV1, -2, INF1, tau, 60))
            d120 = abs(exact - f_series(1, TRIV1, -2, INF1, tau, 120))
            assert d60 < 3e-5
            assert d120 < 0.4 * d60  # ~ bound^-2 scaling

    def test_shadow_is_weight_four_eisenstein(self):
        ref = harmonic_eisenstein_level_one(12)
        sh = shadow(ref)
        want = eisenstein_level_one_coefficients(12)
        assert np.allclose(sh.coefficients.real, want, rtol=1e-12)
        assert np.allclose(sh.coefficients.imag, 0.0)

    def test_constant_terms(self):
        ref = harmonic_eisenstein_level_one(8)
        assert ref.c_minus_zero == pytest.approx(1.0 / 3.0)
        # c+(0) = -15 zeta(3) / (2 pi^3), validated against the coset sum
        # through test_matches_coset_sum_with_bound_scaling
        assert ref.c_plus[0] == pytest.approx(-0.290761347021876, rel=1e-12)

    def test_sieve_matches_divisor_loop(self):
        # oracle: sigma_3(n) from one divisor loop per n, fed through the
        # closed-form expressions in Python floats; the sieve must give the
        # same bits
        n_max = 2000
        pi3 = math.pi**3
        s3 = [sum(d**3 for d in range(1, n + 1) if n % d == 0) for n in range(1, n_max + 1)]
        want_e4 = [1.0] + [240.0 * s for s in s3]
        want_plus = [-15.0 / (2.0 * pi3) * s / n**3 for n, s in enumerate(s3, 1)]
        want_minus = [-15.0 / (4.0 * pi3) * s / n**3 for n, s in enumerate(s3, 1)]
        assert eisenstein_level_one_coefficients(n_max).tolist() == want_e4
        ref = harmonic_eisenstein_level_one(n_max)
        assert ref.c_plus[1:].real.tolist() == want_plus
        assert ref.c_minus.real.tolist() == want_minus
        assert not ref.c_plus.imag.any() and not ref.c_minus.imag.any()
        for n in (1, 2, 7):
            assert eisenstein_level_one_coefficients(n).tolist() == want_e4[: n + 1]
            assert harmonic_eisenstein_level_one(n).c_minus.real.tolist() == want_minus[:n]

    def test_own_fricke_partner(self):
        # at level 1 the lift is fixed by the Fricke slash: f(i/t) t^{-2}-ish
        ref = harmonic_eisenstein_level_one(60)
        for t in (0.9, 1.0, 1.3):
            lhs = 1.0 * (1j * t) ** 2 * evaluate(ref, -1.0 / (1j * t))
            rhs = evaluate(ref, 1j * t)
            assert abs(lhs - rhs) <= 1e-10
