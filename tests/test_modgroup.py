"""Slash action, cusp enumeration, coset representatives.
Group-theoretic oracles are exact (integer/rational arithmetic)."""

import dataclasses
import functools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_random_form
from maassforms.characters import character_by_label, trivial_character
from maassforms.forms import to_terms
from maassforms.modgroup import (
    Cusp,
    RationalMatrix,
    bottom_row,
    coset_reps,
    cusp_equivalent,
    cusp_parameter,
    cusp_width,
    cusps,
    fricke,
    identity_matrix,
    slash,
    translation,
)
from maassforms.modgroup import _ext_gcd as euclid_lift


def random_gamma0(rng, level, bound=40):
    """Random element of Gamma_0(N) via bottom row + Euclid lift + shear."""
    while True:
        c = level * int(rng.integers(-bound // level - 1, bound // level + 2))
        d = int(rng.integers(-bound, bound + 1))
        if math.gcd(abs(c), abs(d)) == 1:
            break
    g, x, y = _ext_gcd(d, -c)
    assert g == 1
    m = RationalMatrix(x, y, c, d)
    n = int(rng.integers(-3, 4))
    return translation(n) @ m


def _ext_gcd(a, b):
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - y * (a // b)


class TestRationalMatrix:
    def test_determinant_positive_enforced(self):
        with pytest.raises(ValueError):
            RationalMatrix(1, 0, 0, -1)

    def test_inverse_and_product(self, rng):
        for _ in range(30):
            a, b, c, d = (int(rng.integers(-5, 6)) for _ in range(4))
            if a * d - b * c <= 0:
                continue
            m = RationalMatrix(a, b, c, d)
            assert (m @ m.inverse()).entries() == identity_matrix().entries()

    def test_exact_entries(self):
        m = RationalMatrix(Fraction(1, 2), 0, 0, 2)
        assert m.det == 1
        assert m.inverse().a == 2


class TestSlash:
    def test_identity_on_constant(self):
        one = lambda tau: 1.0 + 0.0j
        for k in (-3, -2, -1, 0, 2):
            assert slash(one, k, identity_matrix(), 0.3 + 0.9j) == pytest.approx(1.0)

    def test_power_of_imaginary_part(self, rng):
        # f = Im(tau)^{1-k}: slash by SL_2(Z) gives
        # (c tau + d)^{-k} |c tau + d|^{2k-2} Im(tau)^{1-k}
        for _ in range(20):
            k = int(rng.integers(-3, 0))
            f = lambda tau: tau.imag ** (1 - k)
            g = random_gamma0(rng, 1, 10)
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 2.0))
            got = slash(f, k, g, tau)
            w = complex(g.c) * tau + complex(g.d)
            want = w ** (-k) * abs(w) ** (2 * k - 2) * tau.imag ** (1 - k)
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_cocycle(self, rng):
        # (f|g1)|g2 = f|(g1 g2) for integral matrices with small determinant
        f = lambda tau: (tau + 2j) ** -3 + tau.imag**2
        for _ in range(20):
            k = int(rng.integers(-3, 1))
            mats = []
            while len(mats) < 2:
                a, b, c, d = (int(rng.integers(-3, 4)) for _ in range(4))
                if 0 < a * d - b * c <= 3:
                    mats.append(RationalMatrix(a, b, c, d))
            g1, g2 = mats
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
            inner = lambda t: slash(f, k, g1, t)
            lhs = slash(inner, k, g2, tau)
            rhs = slash(f, k, g1 @ g2, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# SL_2(Z) as words in S and T^{+-1}, points in a strip of the upper half-plane
_LETTERS = {"S": RationalMatrix(0, -1, 1, 0), "T": translation(1), "t": translation(-1)}
sl2_words = st.lists(st.sampled_from("STt"), min_size=1, max_size=6).map(
    lambda word: functools.reduce(operator.matmul, (_LETTERS[x] for x in word))
)
slash_matrices = st.one_of(sl2_words, st.integers(2, 12).map(fricke))
point_lists = st.lists(
    st.tuples(st.floats(-0.5, 0.5), st.floats(0.5, 1.5)).map(lambda p: complex(*p)),
    min_size=1,
    max_size=8,
)
weights = st.integers(-3, -1)


def _evaluator(k):
    """A to_terms(...).eval evaluator of a fixed random weight-k expansion."""
    return to_terms(make_random_form(np.random.default_rng(7), k=k)).eval


class TestArraySlash:
    @given(weights, slash_matrices, point_lists)
    def test_array_equals_pointwise(self, k, gamma, points):
        f = _evaluator(k)
        taus = np.array(points)
        pointwise = np.array([slash(f, k, gamma, z) for z in points])
        assert np.array_equal(slash(f, k, gamma, taus), pointwise)
        assert np.array_equal(slash(f, k, gamma, taus.reshape(-1, 1)), pointwise.reshape(-1, 1))

    @given(weights, slash_matrices, slash_matrices, point_lists)
    def test_cocycle_on_words(self, k, g1, g2, points):
        # (f|g1)|g2 = f|(g1 g2), det^{k/2} multiplying through
        f, taus = _evaluator(k), np.array(points)
        lhs = slash(lambda t: slash(f, k, g1, t), k, g2, taus)
        rhs = slash(f, k, g1 @ g2, taus)
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.abs(rhs))

    @given(weights, st.integers(2, 12), point_lists)
    def test_fricke_twice_is_the_sign(self, k, level, points):
        # omega(N)^2 = -N I, whose slash is N^k (-N)^{-k} = (-1)^k only with
        # the det^{k/2} factor
        f, taus, w = _evaluator(k), np.array(points), fricke(level)
        twice = slash(lambda t: slash(f, k, w, t), k, w, taus)
        want = (-1) ** k * f(taus)
        assert np.all(np.abs(twice - want) <= 1e-12 * np.abs(want))


class TestFricke:
    def test_matrix(self):
        w = fricke(1)
        assert w.entries() == (0, -1, 1, 0)
        assert fricke(7).entries() == (0, -1, 7, 0)

    def test_square_is_minus_level(self):
        for level in (1, 4, 9):
            w = fricke(level)
            assert (w @ w).entries() == (-level, 0, 0, -level)

    def test_double_slash_sign(self, rng):
        f = lambda tau: (tau + 1j) ** -4
        for level in (1, 2, 5):
            w = fricke(level)
            for k in (-2, -1):
                tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 1.5))
                once = lambda t: slash(f, k, w, t)
                twice = slash(once, k, w, tau)
                want = (-1) ** k * f(tau)
                assert abs(twice - want) <= 1e-12 * max(1.0, abs(want))

    def test_conjugation_swaps_diagonal(self, rng):
        # omega(N) gamma omega(N)^{-1} = [[d, -c/N], [-bN, a]] in Gamma_0(N)
        for level in (2, 3, 6, 10):
            w = fricke(level)
            for _ in range(50):
                g = random_gamma0(rng, level)
                conj = w @ g @ w.inverse()
                assert conj.in_gamma0(level)
                assert conj.a == g.d and conj.d == g.a


class TestCusps:
    def test_level_one(self):
        cs = cusps(1)
        assert len(cs) == 1 and cs[0].is_infinity

    def test_counts(self):
        assert len(cusps(4)) == 3
        assert len(cusps(6)) == 4

    def test_scaling_matrices(self):
        for level in (1, 4, 6, 12):
            for c in cusps(level):
                m = c.scaling
                assert m.det == 1 and m.is_integral
                if c.is_infinity:
                    assert (int(m.a), int(m.c)) == (1, 0)
                else:
                    assert (int(m.a), int(m.c)) == (c.a, c.c)

    def test_widths(self):
        for level in (1, 4, 6, 11, 12):
            cs = cusps(level)
            inf = next(c for c in cs if c.is_infinity)
            assert inf.width == 1
            if level > 1:  # at level 1 the cusp 0 is the class of infinity
                zero = next(c for c in cs if (c.a, c.c) == (0, 1))
                assert zero.width == level
        half = next(c for c in cusps(4) if c.label() == "1/2")
        assert half.width == 1

    def test_width_via_conjugation_oracle(self):
        for level in (4, 6, 9, 12):
            for c in cusps(level):
                inv = c.scaling.inverse()
                for h in range(1, c.width):
                    assert not (c.scaling @ translation(h) @ inv).in_gamma0(level)
                assert (c.scaling @ translation(c.width) @ inv).in_gamma0(level)

    def test_orbit_enumeration_exact(self):
        # brute-force: pairwise inequivalent, and every reduced fraction
        # a/c with c <= N (plus infinity) is equivalent to exactly one rep
        for level in range(1, 25):
            reps = [(c.a, c.c) for c in cusps(level)]
            for i in range(len(reps)):
                for j in range(i + 1, len(reps)):
                    assert not cusp_equivalent(level, *reps[i], *reps[j])
            candidates = [(1, 0)] + [
                (a, c)
                for c in range(1, level + 1)
                for a in range(c)
                if math.gcd(a, c) == 1 or (a, c) == (0, 1)
            ]
            for cand in candidates:
                hits = sum(1 for r in reps if cusp_equivalent(level, *cand, *r))
                assert hits == 1, (level, cand)

    def test_parameters(self):
        # trivial character: kappa = 0 everywhere
        for level in (4, 6):
            chi = trivial_character(level)
            for c in cusps(level, chi):
                assert c.kappa == 0.0
        # quadratic character mod 4 at the cusp 1/2
        chi4 = character_by_label(4, "quadratic")
        half = next(c for c in cusps(4) if c.label() == "1/2")
        assert cusp_parameter(4, chi4, half) in (0.0, 0.5)
        inf = next(c for c in cusps(4) if c.is_infinity)
        assert cusp_parameter(4, chi4, inf) == 0.0


class TestCosetReps:
    def test_level_one_count(self):
        # cosets at infinity <-> rows (c, d) mod sign: the identity row plus
        # all coprime (c, d) with 1 <= c <= B, |d| <= B; for B = 5 that is 40
        inf = cusps(1)[0]
        reps = coset_reps(1, inf, 5)
        expect = 1 + sum(
            1
            for c in range(1, 6)
            for d in range(-5, 6)
            if math.gcd(c, d) == 1
        )
        assert len(reps) == expect == 40

    def test_duplicate_freedom_exhaustive(self):
        # no two representatives lie in the same coset: exact pairwise check
        for level in (1, 2, 3, 4, 6):
            for rho in cusps(level):
                reps = coset_reps(level, rho, 8)
                t = rho.width
                inv = rho.scaling.inverse()
                for i in range(len(reps)):
                    for j in range(i + 1, len(reps)):
                        quotient = inv @ reps[i] @ reps[j].inverse() @ rho.scaling
                        # in the stabilizer iff +-T^{t m}
                        is_stab = (
                            quotient.c == 0
                            and abs(quotient.a) == 1
                            and quotient.a == quotient.d
                            and int(quotient.b) % t == 0
                        )
                        assert not is_stab, (level, rho.label(), i, j)

    def test_membership_and_identity_coset(self):
        for level in (1, 4, 6):
            for rho in cusps(level):
                reps = coset_reps(level, rho, 8)
                assert all(g.in_gamma0(level) for g in reps)
                inv = rho.scaling.inverse()
                target = (int(inv.c), int(inv.d))
                rows = {bottom_row(rho, g) for g in reps}
                norm = lambda r: r if (r[0], r[1]) > (0, 0) or r[0] > 0 else (-r[0], -r[1])
                assert norm(target) in {norm(r) for r in rows}

    def test_row_bound(self):
        inf = cusps(6)[0]
        for g in coset_reps(6, inf, 7):
            c, d = bottom_row(inf, g)
            assert max(abs(c), abs(d)) <= 7
            assert c % 6 == 0


def fraction_coset_reps(level, rho, bound):
    """The Fraction-matrix enumeration the integer one replaced: every
    gamma_rho T^j h0 is formed and tested for membership in Gamma_0(N)."""
    reps = []
    for c in range(0, bound + 1):
        d_range = range(1, bound + 1) if c == 0 else range(-bound, bound + 1)
        for d in d_range:
            if math.gcd(c, d) != 1:
                continue
            _, x, y = euclid_lift(d, -c)
            h0 = RationalMatrix(x, y, c, d)
            for j in range(rho.width):
                g = rho.scaling @ translation(j) @ h0
                if g.in_gamma0(level):
                    reps.append(g)
                    break
    inv = rho.scaling.inverse()

    def key(g):
        h = inv @ g
        c, d = int(h.c), int(h.d)
        return (max(abs(c), abs(d)), abs(c), abs(d), c, d)

    reps.sort(key=key)
    return [tuple(int(v) for v in (inv @ g).entries()[2:]) for g in reps], reps


@st.composite
def shifted_cusps(draw):
    """(N, cusp with scaling gamma_rho T^{width m}) for N <= 30."""
    level = draw(st.integers(1, 30))
    rho = draw(st.sampled_from(cusps(level)))
    m = draw(st.integers(-3, 3))
    scaling = rho.scaling @ translation(rho.width * m)
    return level, dataclasses.replace(rho, scaling=scaling)


class TestIntegerEnumerator:
    @given(shifted_cusps(), st.integers(1, 12))
    def test_matches_fraction_enumeration(self, level_cusp, bound):
        level, rho = level_cusp
        rows, mats = fraction_coset_reps(level, rho, bound)
        reps = coset_reps(level, rho, bound)
        assert len(reps) == len(mats)
        assert [tuple(r) for r in reps.rows.tolist()] == rows
        assert reps.d.tolist() == [int(g.d) for g in mats]
        assert [g.entries() for g in reps] == [g.entries() for g in mats]

    @pytest.mark.parametrize("level", range(1, 13))
    def test_rows_over_all_cusps_partition_coprime_pairs(self, level):
        bound = 10
        rows = [
            tuple(r) for rho in cusps(level) for r in coset_reps(level, rho, bound).rows.tolist()
        ]
        pairs = [
            (c, d)
            for c in range(bound + 1)
            for d in range(-bound, bound + 1)
            if math.gcd(c, d) == 1 and (c > 0 or d > 0)
        ]
        assert len(rows) == len(set(rows))
        assert sorted(rows) == sorted(pairs)

    @pytest.mark.parametrize(
        "scaling", [RationalMatrix(Fraction(1, 2), 0, 0, 2), RationalMatrix(2, 0, 0, 1)]
    )
    def test_rejects_scaling_outside_sl2z(self, scaling):
        rho = dataclasses.replace(cusps(1)[0], scaling=scaling)
        with pytest.raises(ValueError, match="SL_2"):
            coset_reps(1, rho, 4)

    def test_arrays_are_read_only(self):
        reps = coset_reps(6, cusps(6)[1], 5)
        assert reps.rows.dtype.kind == reps.d.dtype.kind == "i"
        with pytest.raises(ValueError):
            reps.rows[0, 0] = 0

