"""Dirichlet characters modulo an odd prime.

A character chi mod q is stored as (q, index): with g the least primitive
root mod q, chi(g**k) = e(index * k / (q-1)).  Index 0 is the
principal character; mod a prime every non-principal character is
primitive.  Evaluation goes through a per-modulus discrete-log table,
which scatters the exponents k to the powers g**k of unit_powers(q).
chi.eval(n) then takes the root from the reduced fraction (RationalAngle).
Arrays of values come from one gather, character_rows, whose row for
index a holds unit_roots(q - 1)[a * dlog[x] mod (q - 1)] at each unit x;
the fraction is not reduced, so it may differ from eval in the last bits.
value_array() is its one-row call, so a single character never builds the
rows of the others.

unit_powers(q) lists the units of any prime power q in generator order,
and unit_cycles(q) lays them out as the unit group; expsums takes its
inverse tables and its Kloosterman rows from that layout.  The powers,
discrete-log and root tables are kept in numcore.table_memo, whose
docstring states its bounds, and shared read-only, so characters are
cheap value objects safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, LimitExceeded, NotPrime
from .numcore import RationalAngle, check_odd_prime, factorize, reduce_mod, table_memo

MAX_CHARACTER_MODULUS = 10**6


def primitive_root(q):
    """Smallest primitive root modulo the odd prime q."""
    prime_divisors = [p for p, _ in factorize(q - 1).factors]
    for g in range(2, q):
        if all(pow(g, (q - 1) // s, q) != 1 for s in prime_divisors):
            return g
    raise NotPrime(f"no primitive root mod {q}")


def prime_power_root(p, k):
    """A generator of the units mod p**k for an odd prime p: the least
    primitive root g mod p, or g + p when k >= 2 and g**(p-1) = 1 mod p**2.
    Then g + p has order p(p-1) mod p**2, and so generates the units mod
    every power of p (the least prime where the lift is needed is 40487)."""
    g = primitive_root(p)
    if k >= 2 and pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _geometric(r, count, q):
    """[r**i mod q for i < count] in Python ints."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * r % q)
    return out


def _powers(g, n, q):
    """g**k mod q for k < n in int64, in blocks of B >= sqrt(n): the block
    g**(jB + i), i < B, is g**(jB) times g**i.  Both factors are below
    q <= 2**31, so every product is exact."""
    block = math.isqrt(n - 1) + 1
    small = _geometric(g, block, q)
    big = _geometric(small[-1] * g % q, -(-n // block), q)
    return reduce_mod(np.multiply.outer(np.array(big, dtype=np.int64),
                                        np.array(small, dtype=np.int64)).ravel()[:n], q)


@table_memo
def unit_powers(q):
    """The units mod the prime power q in generator order, memoised per
    modulus: g**k for k < phi(q) with g = prime_power_root(p, e) for odd
    q = p**e, and 5**j for j < phi(q)/2 followed by -5**j for q = 2**e,
    e >= 2 (the units mod 2**e are +-1 times the cyclic group of 5)."""
    factors = factorize(q).factors
    if len(factors) != 1:
        raise InvalidValue(f"{q} is not a prime power")
    ((p, e),) = factors
    if p == 2:
        if e == 1:
            powers = np.ones(1, dtype=np.int64)
        else:
            fives = _powers(5, q // 4, q)
            powers = np.concatenate((fives, q - fives))
    else:
        powers = _powers(prime_power_root(p, e), q - q // p, q)
    powers.setflags(write=False)
    return powers


def unit_cycles(q):
    """unit_powers(q) viewed as the unit group, Z/phi(q) or, for q = 2**e, e >= 2,
    Z/2 x Z/(q/4) (rows 5**j and -5**j): entry k is h(k), and h(k) h(k') = h(k + k')."""
    return unit_powers(q).reshape((2, -1) if q % 4 == 0 else -1)


@table_memo
def discrete_log_table(q):
    """table[x] = k with g**k = x mod the odd prime q (table[0] = -1), the
    positions of unit_powers(q) scattered to their values; memoised."""
    table = np.full(q, -1, dtype=np.int64)
    table[unit_powers(q)] = np.arange(q - 1)
    table.setflags(write=False)
    return table


@table_memo
def unit_roots(n):
    """Array of the n-th roots of unity e(j/n), j = 0..n-1, memoised."""
    w = np.exp(2j * np.pi * np.arange(n) / n)
    w.setflags(write=False)
    return w


def _check_character_modulus(q):
    check_odd_prime(q)
    if q > MAX_CHARACTER_MODULUS:
        raise LimitExceeded(f"character modulus {q} exceeds {MAX_CHARACTER_MODULUS}")


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod an odd prime q, indexed against the least primitive root."""

    modulus: int
    index: int

    @classmethod
    def from_index(cls, q, index):
        _check_character_modulus(q)
        return cls(q, index % (q - 1))

    @classmethod
    def principal(cls, q):
        return cls.from_index(q, 0)

    @classmethod
    def legendre(cls, q):
        return cls.from_index(q, (q - 1) // 2)

    @property
    def is_principal(self):
        return self.index == 0

    def conjugate(self):
        return DirichletCharacter(self.modulus, (-self.index) % (self.modulus - 1))

    def eval(self, n):
        """chi(n): 0 on multiples of q, else the exact root of unity."""
        q = self.modulus
        n %= q
        if n == 0:
            return 0j
        k = int(discrete_log_table(q)[n])
        return RationalAngle(self.index * k, q - 1).to_complex()

    def parity(self):
        """chi(-1); -1 means odd.  Equals (-1)**index since -1 = g**((q-1)/2)."""
        return -1 if self.index % 2 else 1

    def value_array(self):
        """chi at every residue 0..q-1 (chi(0) = 0): the one-row call of character_rows."""
        return character_rows(self.modulus, [self.index])[0]


def character_rows(q, indices):
    """chi at residues 0..q-1 of each index's character mod the odd prime q,
    a row each; rows of equal index are equal bit for bit."""
    _check_character_modulus(q)
    dlog = discrete_log_table(q)
    rows = np.zeros((len(indices), q), dtype=np.complex128)
    idx = reduce_mod(np.multiply.outer(np.asarray(indices, dtype=np.int64), dlog[1:]), q - 1)
    rows[:, 1:] = unit_roots(q - 1)[idx]
    return rows


def enumerate_characters(q):
    """All q-1 characters mod the odd prime q, by ascending index."""
    _check_character_modulus(q)
    return [DirichletCharacter(q, a) for a in range(q - 1)]
