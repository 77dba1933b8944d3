"""Exact integer, residue, and rational-angle arithmetic.

Everything in this module is exact.  Modular work uses Python integers
(reduce_mod, int64 arrays) but rejects moduli above 2**31, so any product
of two moduli stays below 2**62 and the same numbers are reproducible in
fixed-width reimplementations.
Elements of Q/Z are stored as reduced fractions with bounded denominator.
It also holds the package's memo for per-modulus tables, table_memo.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, LimitExceeded, NotInvertible

MAX_MODULUS = 1 << 31
MAX_FACTOR_INPUT = 1 << 40
MAX_DENOMINATOR = 1 << 62

TAU = 2.0 * math.pi

MEMO_MAX_ENTRIES = 1 << 20  # a table of more entries (16 MB of complex) is not memoised
MEMO_MAX_BYTES = 64 << 20  # the most bytes of tables that one memo holds

CacheInfo = namedtuple("CacheInfo", "misses maxsize currsize nbytes")


def _nbytes(table):
    return sum(a.nbytes for a in (table if isinstance(table, tuple) else (table,)))


def table_memo(fn):
    """Memoise fn(n), a table of at most n entries (an array or a tuple of
    arrays): the most recently built tables with n <= MEMO_MAX_ENTRIES, at
    most 256 of them and at most MEMO_MAX_BYTES together, evicting the
    oldest first.  A hit is one dict lookup, without the lock, so
    cache_info() counts misses (builds of a memoisable table) but not hits.
    A larger table is built on every call and freed with its last use, so
    a few sums near the budget do not pin hundreds of megabytes for the
    life of the process, and the byte bound keeps many tables just below
    that size from doing so together.  Two threads racing on a missing
    table may each build it (two misses); both builds are equal, and the
    first one stored is kept."""
    memo = {}
    lock = threading.Lock()
    held = misses = 0

    @functools.wraps(fn)
    def table(n):
        nonlocal held, misses
        found = memo.get(n)
        if found is not None:
            return found
        if n > MEMO_MAX_ENTRIES:
            return fn(n)
        built = fn(n)
        with lock:
            misses += 1
            if n not in memo:
                memo[n] = built
                held += _nbytes(built)
                while len(memo) > 256 or held > MEMO_MAX_BYTES:
                    held -= _nbytes(memo.pop(next(iter(memo))))
            return memo.get(n, built)

    def cache_info():
        with lock:
            return CacheInfo(misses, 256, len(memo), held)

    def cache_clear():
        nonlocal held, misses
        with lock:
            memo.clear()
            held = misses = 0

    table.cache_info, table.cache_clear = cache_info, cache_clear
    return table


def reduce_mod(v, c):
    """v mod c in [0, c) for an int64 array v and an integer c > 0, in
    place: v - (v // c) * c.  numpy divides an array by a scalar through
    libdivide, but its % takes a slower path; both give the same integers
    for any sign of v with |v| < 2**62.  Below about a thousand entries the
    two extra calls cost more than they save, so short arrays take %."""
    if v.size < 1024:
        return np.remainder(v, c, out=v)
    q = v // c
    q *= c
    v -= q
    return v


def check_modulus(m):
    if m < 1:
        raise InvalidValue(f"modulus must be positive, got {m}")
    if m > MAX_MODULUS:
        raise LimitExceeded(f"modulus {m} exceeds the supported bound 2**31")
    return m


def mod_inv(a, m):
    """Inverse of a modulo m, in [0, m).  mod_inv(anything, 1) is 0."""
    check_modulus(m)
    if m == 1:
        return 0
    if math.gcd(a, m) != 1:
        raise NotInvertible(f"gcd({a}, {m}) > 1")
    return pow(a, -1, m)


@dataclass(frozen=True)
class Factorization:
    """Canonical factorization n = prod p**e, primes ascending."""

    n: int
    factors: tuple[tuple[int, int], ...]


def factorize(n):
    if n < 1:
        raise InvalidValue(f"cannot factor {n}")
    if n > MAX_FACTOR_INPUT:
        raise LimitExceeded(f"{n} exceeds the factorization bound 2**40")
    m = n
    factors = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    d = 5
    while d * d <= m:
        # wheel over 6k+-1
        for q in (d, d + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                factors.append((q, e))
        d += 6
    if m > 1:
        factors.append((m, 1))
    factors.sort()
    return Factorization(n, tuple(factors))


def arithmetic_functions(n):
    """(phi(n), mu(n), d(n)) from the canonical factorization."""
    fac = factorize(n)
    phi, mu, dd = 1, 1, 1
    for p, e in fac.factors:
        phi *= p ** (e - 1) * (p - 1)
        mu = 0 if e > 1 else -mu
        dd *= e + 1
    return phi, mu, dd


def euler_phi(n):
    return arithmetic_functions(n)[0]


def divisor_count(n):
    return arithmetic_functions(n)[2]


def is_prime(n):
    """Deterministic trial-division primality test (n <= 2**40)."""
    if n < 2:
        return False
    if n > MAX_FACTOR_INPUT:
        raise LimitExceeded(f"{n} exceeds the primality bound 2**40")
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def primes_between(lo, hi):
    """Primes p with lo < p < hi (both ends exclusive)."""
    return [p for p in range(max(lo + 1, 2), hi) if is_prime(p)]


@dataclass(frozen=True)
class RationalAngle:
    """An element of Q/Z stored as a reduced fraction in [0, 1).

    Equality is exact; denominators are capped at 2**62 so that all
    intermediates of angle arithmetic stay representable in 64-bit
    reimplementations.
    """

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator < 1:
            raise InvalidValue("denominator must be positive")
        num = self.numerator % self.denominator
        g = math.gcd(num, self.denominator)
        num //= g
        den = self.denominator // g
        if den > MAX_DENOMINATOR:
            raise LimitExceeded(f"denominator {den} exceeds 2**62")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def __neg__(self):
        return RationalAngle(-self.numerator, self.denominator)

    def to_complex(self):
        """e(x) = exp(2*pi*i*x), evaluated from the reduced fraction."""
        t = TAU * self.numerator / self.denominator
        return complex(math.cos(t), math.sin(t))


def angle_add(a, b):
    """Exact reduced sum in Q/Z."""
    g = math.gcd(a.denominator, b.denominator)
    den = a.denominator // g * b.denominator
    num = a.numerator * (b.denominator // g) + b.numerator * (a.denominator // g)
    return RationalAngle(num, den)
