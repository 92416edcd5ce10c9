"""Dirichlet characters: group structure, conductors, Gauss sums, twist
constant.  Brute-force checks are exhaustive at desk moduli."""

import cmath
import math
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import induce
from maassforms.characters import (
    DirichletCharacter,
    _root,
    c_psi,
    character_by_label,
    conductor,
    enumerate_characters,
    gauss_sum,
    trivial_character,
    unit_group_generators,
)


def euler_phi(q: int) -> int:
    return sum(1 for a in range(1, q + 1) if math.gcd(a, q) == 1)


@st.composite
def characters_mod(draw, q=None, q_max=400):
    """A random character mod q (q drawn up to q_max when not given)."""
    q = draw(st.integers(1, q_max)) if q is None else q
    _, orders = unit_group_generators(q)
    return DirichletCharacter(q, tuple(draw(st.integers(0, o - 1)) for o in orders))


class TestRandomModuli:
    @given(st.data())
    def test_orthogonality(self, data):
        chi1 = data.draw(characters_mod())
        q = chi1.modulus
        chi2 = data.draw(characters_mod(q))
        # sum_a chi1(a) conj chi2(a) = phi(q) [chi1 = chi2]
        tot = sum(chi1(a) * chi2(a).conjugate() for a in range(q))
        want = euler_phi(q) if chi1 == chi2 else 0.0
        assert abs(tot - want) <= 1e-10 * q
        # sum_chi chi(a) conj chi(b) = phi(q) [a = b mod q] for units a, b
        units = [u for u in range(q) if math.gcd(u, q) == 1]
        a = data.draw(st.sampled_from(units))
        b = data.draw(st.sampled_from(units))
        tot = sum(chi(a) * chi(b).conjugate() for chi in enumerate_characters(q))
        want = euler_phi(q) if a == b else 0.0
        assert abs(tot - want) <= 1e-10 * q

    @given(st.data())
    def test_multiplicativity(self, data):
        chi = data.draw(characters_mod())
        q = chi.modulus
        a, b = data.draw(st.integers(-10**6, 10**6)), data.draw(st.integers(-10**6, 10**6))
        assert (chi(a) == 0) == (math.gcd(a, q) != 1)
        ra, rb = chi.rational_exponent(a), chi.rational_exponent(b)
        rab = chi.rational_exponent(a * b)
        if ra is None or rb is None:
            assert rab is None and chi(a * b) == 0
        else:
            # exact in the exponents, and to rounding in the values
            assert rab == (ra + rb) % 1
            assert abs(chi(a * b) - chi(a) * chi(b)) <= 1e-12
        assert chi(a) == chi(a + q)
        # the product of two characters mod q evaluates as the product
        psi = data.draw(characters_mod(q))
        assert abs((chi * psi)(a) - chi(a) * psi(a)) <= 1e-12


class TestTablesOnFirstRead:
    """Construction keeps the exponent vector; the residue tables are built
    when first read, and must equal the per-residue definitions."""

    @given(characters_mod(q_max=2000))
    def test_value_table_is_the_root_of_each_exponent(self, chi):
        q, lam = chi.modulus, chi._lam
        assert "_num" not in vars(chi) and "values" not in vars(chi)
        nums = chi._num.tolist()
        for a, j in enumerate(nums):
            want = 0j if j < 0 else cmath.exp(2j * math.pi * Fraction(j, lam))
            assert bits(complex(chi.values[a])) == bits(want)
            got = chi(a - q)
            assert type(got) is complex and bits(got) == bits(want)
        assert not chi.values.flags.writeable and not chi._num.flags.writeable

    @given(st.integers(1, 10**9).flatmap(lambda lam: st.tuples(st.integers(0, lam - 1), st.just(lam))))
    def test_root_is_the_exact_rotation_at_large_orders(self, j_lam):
        # j / lam in floats is the correctly rounded quotient, as
        # float(Fraction(j, lam)) is, so the roots keep their bits at orders
        # far past the moduli the value tables above reach
        j, lam = j_lam
        assert bits(_root(j, lam)) == bits(cmath.exp(2j * math.pi * Fraction(j, lam)))

    @given(st.data())
    def test_exact_structure_at_large_moduli(self, data):
        chi = data.draw(characters_mod(q_max=2000))
        q = chi.modulus
        a, b = data.draw(st.integers(-10**6, 10**6)), data.draw(st.integers(-10**6, 10**6))
        ra, rb, rab = chi.rational_exponent(a), chi.rational_exponent(b), chi.rational_exponent(a * b)
        if ra is None or rb is None:
            assert rab is None
        else:
            assert rab == (ra + rb) % 1
        assert (chi * chi.conjugate()).is_trivial
        r = data.draw(st.integers(1, 5))
        lifted = induce(chi, q * r)
        assert "_num" not in vars(lifted) and "values" not in vars(lifted)
        for n in data.draw(st.lists(st.integers(0, q * r - 1), min_size=1, max_size=20)):
            if math.gcd(n, q * r) == 1:
                assert lifted.rational_exponent(n) == chi.rational_exponent(n)
                assert bits(lifted(n)) == bits(chi(n))

    @given(characters_mod(q_max=2000))
    def test_identity_does_not_depend_on_the_tables(self, chi):
        @lru_cache(maxsize=None)
        def seen(c):
            return object()

        twin = DirichletCharacter(chi.modulus, chi.exponents)
        key, h = seen(chi), hash(chi)
        _ = chi.values, chi.conductor  # read every table of chi, none of twin's
        assert chi == twin and hash(chi) == h == hash(twin)
        assert seen(chi) is key and seen(twin) is key
        assert seen.cache_info().hits == 2

    @given(characters_mod(q_max=2000))
    def test_conductor_is_the_smallest_factoring_divisor(self, chi):
        q = chi.modulus
        want = next(
            f for f in range(1, q + 1)
            if q % f == 0 and all(chi.rational_exponent(a) in (None, 0) for a in range(1, q, f))
        )
        assert chi.conductor == conductor(chi) == want


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_characters(1)) == 1
        assert len(enumerate_characters(5)) == 4
        assert len(enumerate_characters(8)) == 4
        for q in range(1, 31):
            assert len(enumerate_characters(q)) == euler_phi(q)

    def test_exactly_one_trivial(self):
        for q in (1, 5, 8, 12, 16, 24, 27):
            trivs = [c for c in enumerate_characters(q) if c.is_trivial]
            assert len(trivs) == 1

    def test_type_invariants(self):
        for q in (1, 2, 5, 8, 9, 12, 16, 24):
            for chi in enumerate_characters(q):
                for a in range(q):
                    for b in range(q):
                        assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-12
                    if math.gcd(a, q) == 1:
                        assert abs(abs(chi(a)) - 1.0) < 1e-12
                    else:
                        assert chi(a) == 0
                assert chi.parity in (1, -1)
                assert abs(chi(q - 1) - chi.parity) < 1e-12
                assert q % chi.conductor == 0
                assert chi.is_primitive == (chi.conductor == q)

    def test_orthogonality(self):
        for q in range(2, 31):
            chars = enumerate_characters(q)
            for i, c1 in enumerate(chars):
                for c2 in chars[i + 1 :]:
                    total = sum(c1(a) * c2(a).conjugate() for a in range(q))
                    assert abs(total) < 1e-9

    def test_unit_group_structure(self):
        # generator orders multiply to phi(q) and prod g_i^{k_i} hits every
        # unit exactly once
        for q in (1, 2, 4, 8, 15, 16, 24, 45, 56, 97, 120):
            gens, orders = unit_group_generators(q)
            assert math.prod(orders) == euler_phi(q)
            hits = [math.prod(pow(g, k, q) for g, k in zip(gens, ks)) % q
                    for ks in product(*(range(o) for o in orders))]
            assert sorted(hits) == [a % q for a in range(1, q + 1) if math.gcd(a, q) == 1]


def oracle(chi, ks_list):
    """The exact-Fraction construction, one unit at a time: the unit
    a = prod g_i^{k_i} for each exponent vector ks, with r(a) in [0, 1) and
    the value e^{2 pi i r(a)}."""
    q, orders = chi.modulus, chi.gen_orders
    out = {}
    for ks in ks_list:
        a = math.prod(pow(g, k, q) for g, k in zip(chi.generators, ks)) % q
        r = sum(
            (Fraction(e * k, o) for e, k, o in zip(chi.exponents, ks, orders)),
            Fraction(0),
        )
        r -= math.floor(r)
        out[a] = (r, cmath.exp(2j * math.pi * r))
    return out


def bits(z):
    """The two doubles of z, so that == also tells the signs of zeros apart."""
    return struct.pack("dd", z.real, z.imag)


def assert_matches_oracle(chi, ks_list, non_units):
    for a, (r, value) in oracle(chi, ks_list).items():
        for n in (a, a - chi.modulus, a + chi.modulus):
            assert chi.rational_exponent(n) == r
            assert bits(chi(n)) == bits(value)
    for a in non_units:
        assert chi.rational_exponent(a) is None
        assert bits(chi(a)) == bits(0j)


class TestAgainstFractionOracle:
    """The integer exponent tables against the exact-Fraction construction."""

    def test_every_character_to_60(self):
        for q in range(1, 61):
            all_ks = list(product(*(range(o) for o in unit_group_generators(q)[1])))
            non_units = [a for a in range(q) if math.gcd(a, q) != 1]
            for chi in enumerate_characters(q):
                table = oracle(chi, all_ks)
                assert len(table) == euler_phi(q)
                assert_matches_oracle(chi, all_ks, non_units)
                assert chi.parity == (1 if table[(q - 1) % q][0] == 0 else -1)
                f = min(
                    f for f in range(1, q + 1)
                    if q % f == 0 and all(r == 0 for a, (r, _) in table.items() if a % f == 1 % f)
                )
                assert chi.conductor == f

    @pytest.mark.parametrize(
        "m, q", [(4, 2**10), (3, 3**7), (5, 2700), (41, 7 * 41**2), (71, 11 * 71**2)]
    )
    def test_trivial_and_induced_quadratic_at_large_moduli(self, m, q):
        # a seeded sample of units and non-units keeps the oracle cheap
        rng = np.random.default_rng(q)
        psi = character_by_label(m, "quadratic")
        for chi, base in ((trivial_character(q), trivial_character(1)), (induce(psi, q), psi)):
            ks_list = [tuple(int(rng.integers(o)) for o in chi.gen_orders) for _ in range(200)]
            sample = rng.integers(0, q, 200).tolist()
            assert_matches_oracle(chi, ks_list, [a for a in sample if math.gcd(a, q) != 1])
            for a in sample:
                if math.gcd(a, q) == 1:
                    assert chi.rational_exponent(a) == base.rational_exponent(a)
            assert chi.parity == base.parity and chi.conductor == base.modulus

    def test_quadratic_label(self):
        # the real characters of (Z/qZ)^* number its square roots of 1
        for q in range(1, 300):
            real = sum(1 for a in range(q) if math.gcd(a, q) == 1 and a * a % q == 1 % q)
            if q < 60:
                assert real == sum(1 for c in enumerate_characters(q) if c == c.conjugate())
            if real == 2:
                quad = character_by_label(q, "quadratic")
                assert quad.modulus == q and quad == quad.conjugate() and not quad.is_trivial
            elif real == 1:
                # moduli 1 and 2: only the trivial character, so no index helps
                with pytest.raises(ValueError, match=f"^modulus {q} has no real non-trivial "
                                                     "character$"):
                    character_by_label(q, "quadratic")
            else:
                with pytest.raises(ValueError, match=f"has {real - 1} real non-trivial"):
                    character_by_label(q, "quadratic")


class TestConductor:
    def test_trivial_mod_6(self):
        assert trivial_character(6).conductor == 1

    def test_quadratic_mod_5_primitive(self):
        chi = character_by_label(5, "quadratic")
        assert conductor(chi) == 5

    def test_induced_from_mod_3(self):
        chi3 = next(c for c in enumerate_characters(3) if not c.is_trivial)
        chi9 = induce(chi3, 9)
        assert chi9.conductor == 3
        # brute force: smallest f | 9 through which chi9 factors
        for f in (1, 3, 9):
            factors = all(
                chi9.rational_exponent(a) == 0
                for a in range(1, 10, f)
                if math.gcd(a, 9) == 1
            )
            if factors:
                assert f == 3
                break

    def test_primitive_part_round_trip(self):
        for q in (9, 12, 15, 16, 24):
            for chi in enumerate_characters(q):
                prim = next(
                    psi for psi in enumerate_characters(chi.conductor) if induce(psi, q) == chi
                )
                assert prim.modulus == chi.conductor
                assert induce(prim, q) == chi


class TestGaussSums:
    def test_trivial_mod_1(self):
        assert abs(gauss_sum(trivial_character(1)) - 1.0) < 1e-15

    def test_mod_3(self):
        chi = next(c for c in enumerate_characters(3) if not c.is_trivial)
        # direct two-term sum e^{2 pi i/3} - e^{4 pi i/3} = i sqrt(3)
        assert abs(gauss_sum(chi) - 1j * math.sqrt(3)) < 1e-12

    def test_quadratic_mod_5(self):
        chi = character_by_label(5, "quadratic")
        assert abs(gauss_sum(chi) - math.sqrt(5)) < 1e-12

    def test_primitive_modulus(self):
        for m in range(2, 31):
            for psi in enumerate_characters(m):
                if psi.is_primitive:
                    tau = gauss_sum(psi)
                    assert abs(abs(tau) ** 2 - m) <= 1e-10 * m

    def test_character_sum_identity(self):
        # sum_a conj(psi)(a) e^{2 pi i a n / m} = psi(n) tau(conj psi)
        for m in range(2, 31):
            for psi in enumerate_characters(m):
                if not psi.is_primitive:
                    continue
                psibar = psi.conjugate()
                taub = gauss_sum(psibar)
                for n in range(0, 3 * m + 1, max(1, m // 3)):
                    lhs = sum(
                        psibar(a) * cmath.exp(2j * math.pi * a * n / m)
                        for a in range(1, m + 1)
                    )
                    assert abs(lhs - psi(n) * taub) < 1e-10


class TestConjugate:
    """A real character is its own conjugate, with its tables; any other
    character gets a new one."""

    @pytest.mark.parametrize("m", [4, 5])
    def test_a_quadratic_character_is_its_own_conjugate(self, m):
        psi = character_by_label(m, "quadratic")
        built = DirichletCharacter(m, tuple(-e for e in psi.exponents))
        assert psi.conjugate() is psi and built == psi
        assert psi.conjugate().values.tobytes() == built.values.tobytes()
        assert struct.pack("2d", gauss_sum(psi.conjugate()).real, gauss_sum(psi.conjugate()).imag) \
            == struct.pack("2d", gauss_sum(built).real, gauss_sum(built).imag)

    def test_a_complex_character_gets_a_new_conjugate(self):
        psi = DirichletCharacter(5, (1,))  # order 4
        bar = psi.conjugate()
        assert bar is not psi and bar != psi and bar.exponents == (3,)
        assert bar.conjugate() == psi
        assert all(bar.rational_exponent(a) == (None if psi(a) == 0 else -psi.rational_exponent(a) % 1)
                   for a in range(5))

    def test_the_conjugate_is_the_character_itself_exactly_when_it_is_real(self):
        for q in range(1, 41):
            for chi in enumerate_characters(q):
                real = all(chi.rational_exponent(a) in (None, 0, Fraction(1, 2)) for a in range(q))
                assert (chi.conjugate() is chi) == real
                assert chi.conjugate() == DirichletCharacter(q, tuple(-e for e in chi.exponents))

    @pytest.mark.parametrize("psi, sums", [(character_by_label(5, "quadratic"), 1),
                                           (character_by_label(4, "quadratic"), 1),
                                           (DirichletCharacter(5, (1,)), 2)])
    def test_the_twist_constant_reuses_the_gauss_sum_of_a_real_character(
        self, monkeypatch, psi, sums
    ):
        import maassforms.characters as characters

        seen, body = [], characters.gauss_sum
        monkeypatch.setattr(characters, "gauss_sum", lambda p: seen.append(p) or body(p))
        chi = trivial_character(3)
        got = c_psi(chi, psi, 3)
        assert len(seen) == sums
        assert got == chi(psi.modulus) * psi(-3) * body(psi) / body(psi.conjugate())


class TestTwistConstant:
    def test_quadratic_mod_5_level_1(self):
        psi = character_by_label(5, "quadratic")
        val = c_psi(trivial_character(1), psi, 1)
        # tau(psi)^2 / 5 = 1 for the real even character mod 5
        assert abs(val - 1.0) < 1e-12

    def test_unimodular_for_trivial_chi(self):
        chi = trivial_character(1)
        for m in range(2, 31):
            for psi in enumerate_characters(m):
                if psi.is_primitive:
                    assert abs(abs(c_psi(chi, psi, 1)) - 1.0) < 1e-10

    def test_two_closed_forms_agree(self, rng):
        # c_psi itself asserts the identity tau(psi)/tau(conj psi) =
        # psi(-1) tau(psi)^2 / m; run it over many random (chi, psi) pairs
        count = 0
        moduli = [3, 4, 5, 7, 8, 9, 11, 13]
        while count < 100:
            m = moduli[int(rng.integers(len(moduli)))]
            psis = [p for p in enumerate_characters(m) if p.is_primitive]
            if not psis:
                continue
            psi = psis[int(rng.integers(len(psis)))]
            level = int(rng.integers(1, 20))
            if math.gcd(level, m) != 1:
                continue
            chis = enumerate_characters(level)
            chi = chis[int(rng.integers(len(chis)))]
            c_psi(chi, psi, level)
            count += 1

    def test_preconditions(self):
        psi5 = character_by_label(5, "quadratic")
        with pytest.raises(ValueError):
            c_psi(trivial_character(5), psi5, 5)  # gcd != 1
        psi9 = next(c for c in enumerate_characters(9) if c.conductor == 3)
        with pytest.raises(ValueError):
            c_psi(trivial_character(1), psi9, 1)  # not primitive


class TestSerialization:
    def test_json_round_trip(self):
        for q in (1, 5, 12, 16):
            for chi in enumerate_characters(q):
                data = chi.to_json()
                back = DirichletCharacter.from_json(data)
                assert back == chi
                assert data["modulus"] == q
                assert len(data["exponents"]) == len(data["generators"])

    @given(st.data())
    def test_index_label_is_the_enumeration_entry(self, data):
        # the index is read through unravel_index, not by building every
        # character, and names the same entry as the enumeration order
        q = data.draw(st.integers(1, 200))
        idx = data.draw(st.integers(0, euler_phi(q) - 1))
        assert character_by_label(q, str(idx)) == enumerate_characters(q)[idx]
        past = euler_phi(q) + 1
        with pytest.raises(ValueError, match=f"index {past} out of range for modulus {q}"):
            character_by_label(q, str(past))
        with pytest.raises(ValueError, match="out of range"):
            character_by_label(q, "-1")

    def test_labels(self):
        assert character_by_label(7, "triv").is_trivial
        for label in ("trivial", "0", " TRIV "):
            assert character_by_label(7, label) == trivial_character(7)
        # "1" is index 1, not an alias of the trivial character
        assert character_by_label(5, "1") == enumerate_characters(5)[1]
        assert not character_by_label(5, "1").is_trivial
        quad = character_by_label(7, "quadratic")
        assert quad == quad.conjugate() and not quad.is_trivial
        with pytest.raises(ValueError):
            character_by_label(7, "nonsense")
        with pytest.raises(ValueError):
            character_by_label(8, "quadratic")  # (Z/8)* has three real ones

    def test_product_and_induce(self):
        psi = character_by_label(5, "quadratic")
        sq = psi * psi
        assert sq.is_trivial and sq.modulus == 5
        chi3 = next(c for c in enumerate_characters(3) if not c.is_trivial)
        prod = psi * chi3
        assert prod.modulus == 15
        for a in range(15):
            assert abs(prod(a) - psi(a) * chi3(a)) < 1e-12
