"""Dirichlet characters modulo q, identified by integer exponent vectors.

A character is stored by its exponent vector on a fixed generating set of
(Z/qZ)^*: the modulus is CRT-split into prime powers, each odd prime power
contributes one generator (a lifted primitive root), and 2^e contributes
{-1, 5} for e >= 3 (just {-1} for e = 2).  Construction keeps that vector,
the generators, their orders and lam = lcm(orders).

What each read costs:
  - arithmetic on the exponent vector, no table: `conductor`, `parity`,
    `is_primitive`, `is_trivial`, and every read of the trivial character;
  - one column of the modulus' shared discrete-log table (`_unit_logs`,
    kept for the last 32 moduli read): a single value chi(n),
    `rational_exponent(n)`, and the generator reads of products and induced
    characters;
  - the character's own residue tables, built on first read: the exact
    exponents n(a), chi(a) = e^{2 pi i n(a)/lam}, and the values chi(a),
    read whole by a gather over many residues and by the Gauss sum, which is
    then kept on the character (and on its conjugate, which is made once).
Every value is _root(n(a), lam), whichever way it is read, so the bits agree.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

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


@lru_cache(maxsize=32)
def _unit_logs(q: int) -> np.ndarray:
    """Integer table of shape (r + 1, q) for the r generators of (Z/qZ)^*.

    Row i < r holds the exponent of each residue a (mod q) on generator i of
    unit_group_generators(q), so a = prod g_i^{row_i[a]}; the last row is 1
    on units and 0 elsewhere (non-units read exponent 0 in every row).

    The tables of the last 32 moduli read are kept: a benchmark run reads
    at most 20 (the converse workload with its warm-ups), and a sweep over
    many moduli holds 32 tables, not one per modulus (15 MB at q = 10^6).
    """
    gens, orders = unit_group_generators(q)
    ks = np.indices(orders).reshape(len(orders), math.prod(orders))
    units = np.full(ks.shape[1], 1 % q, dtype=np.int64)
    for g, o, k in zip(gens, orders, ks):
        powers = np.ones(1, dtype=np.int64)  # g^0 .. g^(o-1) by doubling
        while len(powers) < o:
            powers = np.concatenate([powers, powers * pow(g, len(powers), q) % q])
        units = units * powers[k] % q
    table = np.zeros((len(orders) + 1, q), dtype=np.int64)
    table[:-1, units] = ks
    table[-1, units] = 1
    table.setflags(write=False)
    return table


@lru_cache(maxsize=1 << 15)
def _root(j: int, lam: int) -> complex:
    """e^{2 pi i j / lam}, shared by every character whose orders have lcm lam."""
    return cmath.exp(2j * math.pi * (j / lam))  # j / lam is the correctly rounded quotient


class DirichletCharacter:
    """Dirichlet character mod q, identified by its exponent vector on the
    canonical generators: chi(g_i) = e^{2 pi i exponents_i / orders_i}.

    Eager: modulus, exponents, generators, gen_orders, _lam.  Arithmetic, no
    table: conductor, parity, is_primitive, is_trivial.  chi(n) and
    rational_exponent(n) read gcd(n, q) alone for the trivial character,
    else one column of the modulus' shared _unit_logs.  Built on first read,
    read-only: `_num`, n(a) per residue (-1 on non-units); `values`, chi(a),
    for whole-table reads; `gauss_sum`, tau(chi); and the conjugate.
    """

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
        self._lam = math.lcm(*orders)

    @cached_property
    def _steps(self) -> tuple[int, ...]:
        """The exponents scaled to lam: chi(g_i) = e^{2 pi i _steps_i / lam}."""
        return tuple(e * (self._lam // o) for e, o in zip(self.exponents, self.gen_orders))

    @cached_property
    def _num(self) -> np.ndarray:
        logs, lam = _unit_logs(self.modulus), self._lam
        # one scaled row per generator: cheaper than an integer matmul
        num = np.where(logs[-1], sum(s * row for s, row in zip(self._steps, logs)) % lam, -1)
        num.setflags(write=False)
        return num

    @cached_property
    def values(self) -> np.ndarray:
        lam = self._lam
        roots = np.zeros(lam + 1, dtype=complex)  # roots[-1] = 0 on non-units
        for j in range(0, lam, math.gcd(lam, *self._steps)):  # the n(a) that occur
            roots[j] = _root(j, lam)
        values = roots[self._num]
        values.setflags(write=False)
        return values

    # -- evaluation ---------------------------------------------------------

    def _exponent(self, n: int) -> int:
        """n(a) at the residue a of n, -1 on a non-unit: by gcd alone for the
        trivial character, else from n's column of the modulus' discrete-log
        table."""
        q = self.modulus
        if self.is_trivial:
            return 0 if math.gcd(n, q) == 1 else -1
        *logs, unit = _unit_logs(q)[:, n % q].tolist()
        return sum(map(operator.mul, self._steps, logs)) % self._lam if unit else -1

    def __call__(self, n: int) -> complex:
        j = self._exponent(n)
        return _root(j, self._lam) if j >= 0 else 0j

    def rational_exponent(self, n: int) -> Fraction | None:
        """Exact r with chi(n) = e^{2 pi i r}, or None when chi(n) = 0."""
        j = self._exponent(n)
        return None if j < 0 else Fraction(j, self._lam)

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
        return not any(self.exponents)

    @property
    def parity(self) -> int:
        """chi(-1), exactly +1 or -1.  -1 is g^(o/2) at each odd prime's
        generator g of order o and is the generator -1 at a power of two,
        so chi(-1) is -1 to the sum of the exponents on all generators but 5
        (the second one when 8 | q)."""
        on_five = self.exponents[1] if self.modulus % 8 == 0 else 0
        return -1 if (sum(self.exponents) - on_five) % 2 else 1

    @cached_property
    def conductor(self) -> int:
        return conductor(self)

    @cached_property
    def gauss_sum(self) -> complex:
        return gauss_sum(self)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    def conjugate(self) -> "DirichletCharacter":
        """The conjugate character: self when every exponent e has -e = e
        mod its order (a real character, whose tables are then shared),
        else a character of exponents -e, made on the first call and kept,
        whose own conjugate is self, so tau of either is summed once."""
        bar = self.__dict__.get("_conjugate")
        if bar is None:
            exps = tuple(-e % o for e, o in zip(self.exponents, self.gen_orders))
            if exps == self.exponents:
                return self
            bar = DirichletCharacter(self.modulus, exps)
            self._conjugate, bar._conjugate = bar, self
        return bar

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        """Product character modulo lcm of the moduli (exact)."""
        return _from_generator_values(math.lcm(self.modulus, other.modulus), (self, other))

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


def _from_generator_values(modulus: int, chis) -> DirichletCharacter:
    """The character mod `modulus` whose value at each unit is the product of
    the chis' values there (every chi's modulus divides `modulus`): at each
    generator, the sum of their exponents over lam, the lcm of their lams."""
    gens, orders = unit_group_generators(modulus)
    lam = math.lcm(*(chi._lam for chi in chis))
    exps = []
    for g, o in zip(gens, orders):
        j = sum(chi._exponent(g) * (lam // chi._lam) for chi in chis) * o
        assert j % lam == 0, "exponent at a generator must be integral"
        exps.append(j // lam % o)
    return DirichletCharacter(modulus, tuple(exps))


def trivial_character(q: int) -> DirichletCharacter:
    return DirichletCharacter(q, (0,) * len(unit_group_generators(q)[1]))


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) Dirichlet characters mod q, in exponent-vector order."""
    _, orders = unit_group_generators(q)
    return [DirichletCharacter(q, ks) for ks in product(*(range(o) for o in orders))]


def character_by_label(q: int, label: str) -> DirichletCharacter:
    """Resolve a CLI label: 'triv'/'trivial', 'quadratic' (the unique real
    non-trivial character when it exists), or an integer index into
    enumerate_characters(q), whose entry 0 is the trivial character."""
    label = label.strip().lower()
    if label in ("triv", "trivial"):
        return trivial_character(q)
    if label == "quadratic":
        # every generator order is even, so the real characters are the
        # exponent vectors with entries in {0, o/2}: 2^r - 1 non-trivial ones
        _, orders = unit_group_generators(q)
        if not orders:
            raise ValueError(f"modulus {q} has no real non-trivial character")
        if len(orders) != 1:
            raise ValueError(
                f"modulus {q} has {2 ** len(orders) - 1} real non-trivial characters; "
                "use an explicit index"
            )
        return DirichletCharacter(q, (orders[0] // 2,))
    try:
        idx = int(label)
    except ValueError:
        raise ValueError(f"unknown character label {label!r}") from None
    _, orders = unit_group_generators(q)
    if not 0 <= idx < math.prod(orders):
        raise ValueError(f"character index {idx} out of range for modulus {q}")
    # unravel_index in C order is the order of enumerate_characters' product
    return DirichletCharacter(q, tuple(map(int, np.unravel_index(idx, orders))))


def _valuation(a: int, p: int) -> int:
    """v_p(a) for a != 0."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def conductor(chi: DirichletCharacter) -> int:
    """Smallest f | q such that chi factors through a character mod f.

    The product over p^e || q of p^c, with c read off the exponents on that
    prime power's generators (c = 0 when they are all 0): for odd p and
    exponent a, c = e - min(v_p(a), e - 1), as chi is trivial on 1 + p^c
    exactly when p^(e - c) | a; for 2^2, c = 2; for 2^e (e >= 3) with
    exponents a on -1 and b on 5, c = 2 when b = 0 and else e - v_2(b), as
    1 + 2^c (c >= 2) is generated by 5^(2^(c - 2)).
    """
    f, exps = 1, iter(chi.exponents)
    for p, e in _prime_factors(chi.modulus):
        if p == 2:
            if e == 1:
                continue
            a, b = next(exps), (next(exps) if e > 2 else 0)
            f *= 2 ** (e - _valuation(b, 2)) if b else (4 if a else 1)
        else:
            a = next(exps)
            f *= p ** (e - min(_valuation(a, p), e - 1)) if a else 1
    return f


def gauss_sum(psi: DirichletCharacter) -> complex:
    """tau(psi) = sum_{a mod m} psi(a) e^{2 pi i a / m}, summed left to right.
    Read it as psi.gauss_sum to sum once per character."""
    m = psi.modulus
    return sum(v * cmath.exp(2j * math.pi * a / m) for a, v in enumerate(psi.values.tolist()))


def c_psi(chi: DirichletCharacter, psi: DirichletCharacter, level: int) -> complex:
    """Twist constant chi(m) psi(-N) tau(psi) / tau(conj psi) for a primitive
    psi of conductor m coprime to the level N; equals chi(m) psi(N) tau(psi)^2 / m.
    """
    m = psi.modulus
    if math.gcd(m, level) != 1:
        raise ValueError(f"conductor {m} not coprime to level {level}")
    if not psi.is_primitive:
        raise ValueError("psi must be primitive")
    tau, tau_bar = psi.gauss_sum, psi.conjugate().gauss_sum  # kept on psi and its conjugate
    val = chi(m) * psi(-level) * tau / tau_bar
    alt = chi(m) * psi(level) * tau * tau / m
    if abs(val - alt) > 1e-10 * max(1.0, abs(val)):
        raise AssertionError(
            f"the two closed forms of the twist constant disagree: {val} vs {alt}"
        )
    return val
