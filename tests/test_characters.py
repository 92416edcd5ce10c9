"""Dirichlet characters: group structure, conductors, Gauss sums, twist
constant.  Brute-force checks are exhaustive at desk moduli."""

import cmath
import math

import pytest

from maassforms.characters import (
    DirichletCharacter,
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
        # generator orders multiply to phi(q) and enumerate each unit once
        for q in (8, 15, 16, 24, 45, 56):
            gens, orders = unit_group_generators(q)
            assert math.prod(orders) == euler_phi(q)


class TestConductor:
    def test_trivial_mod_6(self):
        assert trivial_character(6).conductor == 1

    def test_quadratic_mod_5_primitive(self):
        chi = character_by_label(5, "quadratic")
        assert conductor(chi) == 5

    def test_induced_from_mod_3(self):
        chi3 = next(c for c in enumerate_characters(3) if not c.is_trivial)
        chi9 = chi3.induce(9)
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
                    psi for psi in enumerate_characters(chi.conductor) if psi.induce(q) == chi
                )
                assert prim.modulus == chi.conductor
                assert prim.induce(q) == chi


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

    def test_labels(self):
        assert character_by_label(7, "triv").is_trivial
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
