"""Special functions against independent quadrature oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

# the oracles push quad hard on oscillatory integrands; accuracy is asserted
# against the closed forms, not taken from quad's own error estimate
warnings.filterwarnings("ignore", category=IntegrationWarning)

from maassforms.specfun import (
    PoleError,
    QuadratureError,
    gamma_complex,
    inc_gamma,
    invert_on_line,
    w_nu,
)


def gamma_quadrature_oracle(sigma: float) -> float:
    """Euler integral for real sigma > 0 by adaptive quadrature."""
    val, _ = quad(
        lambda t: math.exp(-t) * t ** (sigma - 1.0), 0.0, np.inf,
        limit=400, epsabs=0.0, epsrel=1e-13,
    )
    return val


def inc_gamma_quadrature_oracle(nu: int, x: float) -> float:
    val, _ = quad(
        lambda t: math.exp(-t) * t ** (nu - 1.0), x, np.inf,
        limit=400, epsabs=0.0, epsrel=1e-13,
    )
    return val


def _upper_gamma_entire(nu: int, z: complex) -> complex:
    """Test-local Gamma(nu, z) for integer nu on the complex plane, via the
    textbook finite sum; anchored against mpmath.gammainc in
    test_upper_gamma_matches_mpmath (mpmath itself is too slow inside the
    quadrature loops)."""
    term, acc = 1.0 + 0.0j, 1.0 + 0.0j
    for l in range(1, nu):
        term *= z / l
        acc += term
    return math.factorial(nu - 1) * np.exp(-z) * acc


def test_upper_gamma_matches_mpmath():
    for nu in (1, 2, 5, 8):
        for z in (0.5, 2.0 + 1.0j, -1.0 + 3.0j, 10.0 - 4.0j):
            mine = _upper_gamma_entire(nu, complex(z))
            ref = complex(mpmath.gammainc(nu, complex(z)))
            assert abs(mine - ref) <= 1e-12 * max(1.0, abs(ref))


def w_nu_quadrature_oracle(nu: int, s: complex) -> complex:
    """Defining integral of the Mellin kernel along a rotated ray.

    Straight-line quadrature loses all relative accuracy for |Im s| >> 1:
    the O(1) integrand cancels down to the e^{-pi |Im s| / 2} size of the
    value.  Rotating to x = e^{i theta} r (Cauchy; the integrand is entire
    in x and decays like e^{-x}) moves most of that decay into the exact
    prefactor e^{i theta s}, leaving a mildly cancelling real integral.
    The r = e^y substitution makes the lower tail ~ Gamma(nu) e^{s y}.
    """
    t = s.imag
    # e^{i theta s} = e^{i theta Re s} e^{-theta t}: damping needs theta*t > 0
    theta = math.copysign(1.2, t) if abs(t) > 2 else 0.0
    ray = complex(math.cos(theta), math.sin(theta))
    lower = -25.0 / max(s.real, 0.25) - 25.0
    upper = 6.0 - math.log(max(math.cos(theta), 0.05))

    def integrand(y, part):
        x = ray * math.exp(y)
        val = _upper_gamma_entire(nu, 2.0 * x) * np.exp(x) * np.exp(s * y)
        return val.real if part == 0 else val.imag

    re, _ = quad(integrand, lower, upper, args=(0,), limit=3000, epsabs=1e-15, epsrel=1e-11)
    im, _ = quad(integrand, lower, upper, args=(1,), limit=3000, epsabs=1e-15, epsrel=1e-11)
    return np.exp(1j * theta * s) * complex(re, im)


class TestGammaComplex:
    def test_small_integers(self):
        assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_complex(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_half_vs_quadrature_oracle(self):
        # frozen from the Euler-integral oracle (= sqrt(pi))
        assert abs(gamma_complex(0.5) - 1.772453850905516) < 1e-12
        assert abs(gamma_complex(0.5) - gamma_quadrature_oracle(0.5)) < 1e-9

    def test_accuracy_disc_50(self, rng):
        worst = 0.0
        for _ in range(400):
            r = 50.0 * math.sqrt(rng.random())
            th = 2.0 * math.pi * rng.random()
            s = r * complex(math.cos(th), math.sin(th))
            if s.real <= 0.5 and abs(s.imag) < 0.2 and abs(s.real - round(s.real)) < 0.2:
                continue  # stay away from the pole line
            ref = complex(mpmath.gamma(complex(s)))
            if abs(ref) > 1e280 or abs(ref) < 1e-280:
                continue
            worst = max(worst, abs(gamma_complex(s) - ref) / abs(ref))
        assert worst < 1e-12

    def test_recurrence(self, rng):
        for _ in range(100):
            s = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if s.real <= 0.5 and abs(s.imag) < 0.3 and abs(s.real - round(s.real)) < 0.3:
                continue
            lhs = gamma_complex(s + 1)
            rhs = s * gamma_complex(s)
            assert abs(lhs - rhs) < 1e-11 * abs(lhs)

    def test_poles_raise(self):
        for s in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                gamma_complex(s)

    def test_vectorized(self):
        s = np.array([1.0, 2.0, 3.0 + 1.0j])
        out = gamma_complex(s)
        assert out.shape == (3,)
        assert abs(out[1] - 1.0) < 1e-14


class TestIncGamma:
    def test_nu_one_is_exp(self):
        for x in (0.0, 0.3, 2.0, 11.0):
            assert inc_gamma(1, x) == pytest.approx(math.exp(-x), rel=1e-14)

    def test_at_zero_is_factorial(self):
        assert inc_gamma(3, 0.0) == pytest.approx(2.0, rel=1e-14)
        for nu in range(1, 9):
            assert inc_gamma(nu, 0.0) == pytest.approx(math.factorial(nu - 1), rel=1e-14)

    def test_frozen_derived_value(self):
        # adaptive quadrature of int_1^inf e^-t t dt (frozen, and live)
        assert abs(inc_gamma(2, 1.0) - 0.7357588823428847) < 1e-14
        assert abs(inc_gamma(2, 1.0) - inc_gamma_quadrature_oracle(2, 1.0)) < 1e-11

    def test_quadrature_oracle_grid(self):
        for nu in range(1, 7):
            for x in (0.1, 1.0, 5.0, 20.0):
                want = inc_gamma_quadrature_oracle(nu, x)
                assert abs(inc_gamma(nu, x) - want) <= 1e-10 * abs(want)

    def test_monotone_in_x(self):
        for nu in (1, 3, 6):
            vals = [inc_gamma(nu, x) for x in np.linspace(0, 30, 40)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_recurrence_invariant(self):
        # Gamma(s+1, x) = s Gamma(s, x) + x^s e^-x
        for s in range(1, 9):
            for x in (0.1, 1.0, 10.0):
                lhs = inc_gamma(s + 1, x)
                rhs = s * inc_gamma(s, x) + x**s * math.exp(-x)
                assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_asymptotic_ratio_monotone(self):
        for nu in (2, 4, 6):
            devs = [
                abs(inc_gamma(nu, x) / (x ** (nu - 1) * math.exp(-x)) - 1.0)
                for x in (20.0, 40.0, 80.0)
            ]
            assert devs[0] > devs[1] > devs[2]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            inc_gamma(0, 1.0)
        with pytest.raises(ValueError):
            inc_gamma(2, -0.5)


class TestWNu:
    def test_nu_one_is_gamma(self, rng):
        for _ in range(10):
            s = complex(rng.uniform(0.3, 5.0), rng.uniform(-10, 10))
            assert abs(w_nu(1, s) - gamma_complex(s)) < 1e-12 * abs(gamma_complex(s))

    def test_closed_form_small_cases(self):
        # W_2(2) = Gamma(2)[Gamma(2) + 2 Gamma(3)] = 5
        assert abs(w_nu(2, 2.0) - 5.0) < 1e-12
        # W_3(1) = Gamma(3)[Gamma(1) + 2 Gamma(2) + 2 Gamma(3)] = 2 * 7 = 14
        assert abs(w_nu(3, 1.0) - 14.0) < 1e-12

    def test_against_defining_integral(self):
        for nu in (1, 2, 4, 8):
            for s in (0.25, 1.0 + 3.0j, 2.5 - 20.0j, 5.0 + 7.0j):
                want = w_nu_quadrature_oracle(nu, complex(s))
                got = w_nu(nu, complex(s))
                assert abs(got - want) <= 1e-8 * abs(want)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            w_nu(2, -0.5 + 3.0j)

    def test_decay_bound(self):
        # |W_nu(sigma + it)| |t|^mu stays bounded on 10 <= |t| <= 200
        for sigma in (0.5, 2.0):
            for nu in (2, 4):
                ts = np.linspace(10, 200, 60)
                vals = np.abs(w_nu(nu, sigma + 1j * ts))
                for mu in (1, 2, 5):
                    prods = vals * ts**mu
                    assert np.all(np.isfinite(prods))
                    # decreasing by the end: no growth trend
                    assert prods[-1] < prods[0]


def invert_w(nu, x, full_output=False):
    """W_nu inverted on Re(s) = 2, |Im s| <= 200: Gamma(nu, 2x) e^x."""
    got = invert_on_line(lambda s: w_nu(nu, s), x, 2.0, 200.0, full_output)
    return (got[0].real, got[1]) if full_output else got.real


class TestMellinInversion:
    def test_nu1_recovers_exponential(self):
        got = invert_w(1, 1.0)
        assert abs(got - math.exp(-1.0)) <= 1e-6

    def test_nu2_recovers_scaled_incomplete(self):
        got = invert_w(2, 0.5)
        want = inc_gamma(2, 1.0) * math.exp(0.5)  # ~ 1.2130613
        assert abs(got - want) <= 1e-6

    def test_large_x_decays(self):
        # target ~ (2x)^{nu-1} e^{-x}: 25 e^{-12} ~ 1.5e-4 at x = 12
        vals = [invert_w(2, x) for x in (3.0, 6.0, 12.0)]
        assert abs(vals[0]) > abs(vals[1]) > abs(vals[2])
        assert abs(vals[2]) < 1e-3

    def test_grid_round_trip(self):
        for nu in (1, 2, 3):
            for x in (0.3, 0.5, 1.0, 2.0, 3.0):
                got = invert_w(nu, x)
                want = inc_gamma(nu, 2.0 * x) * math.exp(x)
                assert abs(got - want) <= 1e-6

    def test_full_output_metadata(self):
        val, info = invert_w(2, 1.0, full_output=True)
        assert info["tail_scale"] < 1e-10
        assert info["witness"] < 1e-8
        assert abs(val - inc_gamma(2, 2.0) * math.e) < 1e-8

    def test_unresolved_raises(self):
        # at x = 1e-12, x^{-2} = 1e24 lifts the integrand 24 orders above
        # the value, Gamma(1, 2e-12) e^{1e-12} ~ 1: the witness's rounding
        # floor reads ~1e8
        with pytest.raises(QuadratureError, match="witness"):
            invert_w(1, 1e-12)

    def test_nonpositive_x_rejected(self):
        for x in (0.0, -1.0):
            with pytest.raises(ValueError, match="x must be > 0"):
                invert_w(1, x)

    @pytest.mark.parametrize("name, x, abscissa, height", [
        ("height", 1.0, 2.0, -1.0),
        ("height", 1.0, 2.0, 0.0),
        ("height", 1.0, 2.0, math.nan),
        ("height", 1.0, 2.0, math.inf),
        ("x", math.nan, 2.0, 1.0),
        ("x", math.inf, 2.0, 1.0),
        ("abscissa", 1.0, math.nan, 1.0),
        ("abscissa", 1.0, -math.inf, 1.0),
    ])
    def test_invalid_line_rejected(self, name, x, abscissa, height):
        # a negative height flips the sign of the integral and a zero height
        # gives 0, so neither may pass silently; nor may a NaN
        with pytest.raises(ValueError, match=f"^{name} must be"):
            invert_on_line(lambda s: w_nu(3, s), x, abscissa, height)

    @pytest.mark.parametrize("x, height", [(1.0, 1e6), (1e-300, 1e4), (1.0, 49136.0)])
    def test_a_line_past_the_panel_limit_is_refused_before_any_work(self, x, height):
        # at x = 1 the line takes 2 (5 + ceil((height - 13.5) / 6)) panels
        # (2 height |log x| past |log x| = 1): past 2^14 panels the line is
        # refused before fn is called or a node array is built
        import tracemalloc

        def fn(s):
            raise AssertionError("fn called on a refused line")

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^height {height} at x = {x} needs .* panels"):
                invert_on_line(fn, x, 2.0, height)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_a_line_at_the_panel_limit_is_taken(self):
        # exactly 2^14 panels at x = 1: one call on 262,144 nodes
        sizes = []
        invert_on_line(lambda s: sizes.append(s.size) or 0j, 1.0, 2.0, 49135.5)
        assert sizes == [2**14 * 16]

    def test_one_call_on_all_nodes(self):
        calls = []

        def fn(s):
            calls.append(s.copy())
            return w_nu(1, s)

        invert_on_line(fn, 1.0, 2.0, 3.0)
        # panels [0, 2] and [2, 3] and their mirror images, 16 nodes each,
        # all on Re(s) = 2
        assert len(calls) == 1 and calls[0].shape == (4 * 16,)
        assert np.all(calls[0].real == 2.0) and np.max(np.abs(calls[0].imag)) < 3.0

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_a_non_finite_integrand_raises(self, poison):
        # NaN everywhere, or one infinite node at the top of the line: the
        # gate must not read a NaN witness as resolved
        def fn(s):
            vals = np.full(s.shape, np.nan + 0j) if np.isnan(poison) else w_nu(1, s)
            vals[np.argmax(s.imag)] = poison
            return vals

        with pytest.raises(QuadratureError, match=rf"fn is \({poison}"):
            invert_on_line(fn, 1.0, 2.0, 40.0, True)


@settings(max_examples=30)
@given(nu=st.sampled_from([1, 2, 3]), log_x=st.floats(-3.0, 3.0), height=st.floats(100.0, 200.0))
def test_w_nu_inversion_lies_within_its_witness(nu, log_x, height):
    # the witness covers the quadrature on [-height, height]; past height
    # 100, W_nu's tail is far below it
    x = math.exp(log_x)
    got, info = invert_on_line(lambda s: w_nu(nu, s), x, 2.0, height, True)
    want = inc_gamma(nu, 2.0 * x) * math.exp(x)
    scale = max(1.0, abs(want))
    assert abs(got - want) <= info["witness"] + 1e-15 * scale
    assert info["witness"] <= 1e-6 * scale
