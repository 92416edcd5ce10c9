"""Dirichlet characters modulo q as explicit value tables.

A character is stored by its exponent vector on a fixed generating set of
(Z/qZ)^*: the modulus is CRT-split into prime powers, each odd prime power
contributes one generator (a lifted primitive root), and 2^e contributes
{-1, 5} for e >= 3 (just {-1} for e = 2).  Values are complex doubles, but
the exact exponents a |-> r(a) in Q/Z with chi(a) = e^{2 pi i r(a)} are kept
alongside so that equality, conductor and parity tests are exact.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

__all__ = [
    "DirichletCharacter",
    "unit_group_generators",
    "enumerate_characters",
    "trivial_character",
    "character_by_label",
    "conductor",
    "gauss_sum",
    "c_psi",
]


def _prime_factors(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _primitive_root(p: int, e: int) -> int:
    """Primitive root mod p^e for odd prime p."""
    q = p**e
    order = (p - 1) * p ** (e - 1)
    fac = [f for f, _ in _prime_factors(order)]
    for g in range(2, q):
        if math.gcd(g, q) != 1:
            continue
        if all(pow(g, order // f, q) != 1 for f in fac):
            return g
    raise RuntimeError(f"no primitive root mod {p}^{e}")  # unreachable


@lru_cache(maxsize=None)
def unit_group_generators(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators and their orders for (Z/qZ)^* as an internal direct product.

    Returns (generators, orders); the map (k_1,..,k_r) -> prod g_i^{k_i}
    enumerates every unit exactly once as k_i ranges over [0, orders_i).
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q == 1:
        return (), ()
    gens: list[int] = []
    orders: list[int] = []
    for p, e in _prime_factors(q):
        pe = p**e
        rest = q // pe
        if p == 2:
            if e == 1:
                continue
            locals_ = [(pe - 1, 2)] if e == 2 else [(pe - 1, 2), (5, 2 ** (e - 2))]
        else:
            locals_ = [(_primitive_root(p, e), (p - 1) * p ** (e - 1))]
        for g_local, order in locals_:
            # lift to a residue mod q that is g_local mod p^e and 1 mod rest
            if rest == 1:
                g = g_local % q
            else:
                inv = pow(pe, -1, rest)
                g = (g_local + pe * ((1 - g_local) * inv % rest)) % q
            gens.append(g)
            orders.append(order)
    return tuple(gens), tuple(orders)


@lru_cache(maxsize=None)
def _dlog_table(q: int) -> dict[int, tuple[int, ...]]:
    """unit a (mod q) -> exponent tuple on unit_group_generators(q)."""
    gens, orders = unit_group_generators(q)
    table = {}
    for ks in product(*(range(o) for o in orders)):
        a = 1
        for g, k in zip(gens, ks):
            a = a * pow(g, k, q) % q
        table[a] = ks
    if 1 % q not in table:
        table[1 % q] = tuple(0 for _ in orders)
    return table


class DirichletCharacter:
    """Dirichlet character mod q, identified by its exponent vector on the
    canonical generators: chi(g_i) = e^{2 pi i exponents_i / orders_i}."""

    def __init__(self, modulus: int, exponents: tuple[int, ...]):
        gens, orders = unit_group_generators(modulus)
        if len(exponents) != len(orders):
            raise ValueError(
                f"expected {len(orders)} exponents for modulus {modulus}, got {len(exponents)}"
            )
        self.modulus = modulus
        self.exponents = tuple(e % o for e, o in zip(exponents, orders))
        self.generators = gens
        self.gen_orders = orders
        # exact exponents in Q/Z on every unit, None on non-units
        dlog = _dlog_table(modulus)
        self._rational: dict[int, Fraction] = {}
        for a, ks in dlog.items():
            r = sum(
                (Fraction(e * k, o) for e, k, o in zip(self.exponents, ks, orders)),
                Fraction(0),
            )
            self._rational[a] = r - math.floor(r)
        self._values = {
            a: cmath.exp(2j * math.pi * r) for a, r in self._rational.items()
        }
        self._conductor: int | None = None

    # -- evaluation ---------------------------------------------------------

    def __call__(self, n: int) -> complex:
        a = n % self.modulus
        return self._values.get(a, 0.0 + 0.0j)

    def rational_exponent(self, n: int) -> Fraction | None:
        """Exact r with chi(n) = e^{2 pi i r}, or None when chi(n) = 0."""
        return self._rational.get(n % self.modulus)

    # -- structure ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirichletCharacter)
            and self.modulus == other.modulus
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletCharacter(modulus={self.modulus}, exponents={self.exponents})"

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def parity(self) -> int:
        """chi(-1), exactly +1 or -1."""
        r = self._rational[(self.modulus - 1) % self.modulus]
        return 1 if r == 0 else -1

    @property
    def conductor(self) -> int:
        if self._conductor is None:
            self._conductor = conductor(self)
        return self._conductor

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(
            self.modulus, tuple(-e for e in self.exponents)
        )

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        """Product character modulo lcm of the moduli (exact)."""
        m = math.lcm(self.modulus, other.modulus)
        gens, orders = unit_group_generators(m)
        exps = []
        for g, o in zip(gens, orders):
            r = self.rational_exponent(g) + other.rational_exponent(g)
            e = r * o
            assert e.denominator == 1, "product exponent must be integral"
            exps.append(int(e) % o)
        return DirichletCharacter(m, tuple(exps))

    def induce(self, modulus: int) -> "DirichletCharacter":
        """The character mod `modulus` induced by chi (requires q | modulus)."""
        if modulus % self.modulus != 0:
            raise ValueError(f"{self.modulus} does not divide {modulus}")
        gens, orders = unit_group_generators(modulus)
        exps = []
        for g, o in zip(gens, orders):
            r = self.rational_exponent(g)
            e = r * o
            assert e.denominator == 1
            exps.append(int(e) % o)
        return DirichletCharacter(modulus, tuple(exps))

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "exponents": list(self.exponents),
            "generators": list(self.generators),
        }

    @staticmethod
    def from_json(data: dict) -> "DirichletCharacter":
        chi = DirichletCharacter(int(data["modulus"]), tuple(int(e) for e in data["exponents"]))
        if "generators" in data and list(chi.generators) != list(data["generators"]):
            raise ValueError("generator convention mismatch in character data")
        return chi


def trivial_character(q: int) -> DirichletCharacter:
    _, orders = unit_group_generators(q)
    return DirichletCharacter(q, tuple(0 for _ in orders))


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q, in exponent-vector order."""
    _, orders = unit_group_generators(q)
    return [DirichletCharacter(q, ks) for ks in product(*(range(o) for o in orders))]


def character_by_label(q: int, label: str) -> DirichletCharacter:
    """Resolve a CLI label: 'triv'/'trivial', 'quadratic' (the unique real
    non-trivial character when it exists), or an integer index into
    enumerate_characters(q)."""
    label = label.strip().lower()
    if label in ("triv", "trivial", "1"):
        return trivial_character(q)
    if label == "quadratic":
        quads = [
            chi
            for chi in enumerate_characters(q)
            if not chi.is_trivial and chi == chi.conjugate()
        ]
        if len(quads) != 1:
            raise ValueError(
                f"modulus {q} has {len(quads)} real non-trivial characters; "
                "use an explicit index"
            )
        return quads[0]
    try:
        idx = int(label)
    except ValueError:
        raise ValueError(f"unknown character label {label!r}") from None
    chars = enumerate_characters(q)
    if not 0 <= idx < len(chars):
        raise ValueError(f"character index {idx} out of range for modulus {q}")
    return chars[idx]


def conductor(chi: DirichletCharacter) -> int:
    """Smallest f | q such that chi factors through a character mod f.

    Checked exactly: f works iff chi(a) = 1 for every unit a = 1 (mod f).
    """
    q = chi.modulus
    divisors = sorted(
        d for d in range(1, q + 1) if q % d == 0
    )
    for f in divisors:
        ok = True
        for a in range(1, q + 1, f):
            if math.gcd(a, q) != 1:
                continue
            if chi.rational_exponent(a) != 0:
                ok = False
                break
        if ok:
            return f
    return q


def gauss_sum(psi: DirichletCharacter) -> complex:
    """tau(psi) = sum_{a mod m} psi(a) e^{2 pi i a / m}."""
    m = psi.modulus
    return sum(psi(a) * cmath.exp(2j * math.pi * a / m) for a in range(m))


def c_psi(chi: DirichletCharacter, psi: DirichletCharacter, level: int) -> complex:
    """Twist constant chi(m) psi(-N) tau(psi) / tau(conj psi) for a primitive
    psi of conductor m coprime to the level N; equals chi(m) psi(N) tau(psi)^2 / m.
    """
    m = psi.modulus
    if math.gcd(m, level) != 1:
        raise ValueError(f"conductor {m} not coprime to level {level}")
    if not psi.is_primitive:
        raise ValueError("psi must be primitive")
    tau = gauss_sum(psi)
    tau_bar = gauss_sum(psi.conjugate())
    val = chi(m) * psi(-level) * tau / tau_bar
    alt = chi(m) * psi(level) * tau * tau / m
    if abs(val - alt) > 1e-10 * max(1.0, abs(val)):
        raise AssertionError(
            f"the two closed forms of the twist constant disagree: {val} vs {alt}"
        )
    return val
