import math

import numpy as np
import pytest

from deltasum.errors import NotInvertible, OutOfRange
from deltasum.numcore import (
    RationalAngle,
    angle_add,
    arithmetic_functions,
    factorize,
    is_prime,
    mod_inv,
    primes_between,
    reduce_mod,
)
from deltasum.scan import Lcg


def test_mod_inv_examples():
    assert mod_inv(1, 7) == 1
    assert mod_inv(3, 7) == 5
    assert (3 * mod_inv(3, 7)) % 7 == 1
    with pytest.raises(NotInvertible):
        mod_inv(2, 4)
    assert mod_inv(123456, 1) == 0
    assert mod_inv(-3, 7) == 2
    with pytest.raises(OutOfRange):
        mod_inv(3, 2**31 + 2)  # moduli are capped so products fit in 62 bits
    with pytest.raises(OutOfRange):
        mod_inv(3, 0)


def test_mod_inv_random_pairs():
    rng = Lcg(11)
    for _ in range(10**4):
        m = 2 + rng.below(2**31 - 2)
        a = 1 + rng.below(m - 1)
        if math.gcd(a, m) != 1:
            continue
        x = mod_inv(a, m)
        assert 0 <= x < m
        assert (a * x) % m == 1


def test_factorize_examples():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1386).factors == ((2, 1), (3, 2), (7, 1), (11, 1))
    with pytest.raises(OutOfRange):
        factorize(0)
    with pytest.raises(OutOfRange):
        factorize(2**40 + 1)


def test_factorize_recompose_and_primality():
    for n in range(1, 3000):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac.factors) == n
        for p, e in fac.factors:
            assert is_prime(p)
            assert e >= 1


def _sieve_tables(limit):
    # independent sieve oracles for phi, mu, d
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    mu = [1] * (limit + 1)
    primes = [p for p in range(2, limit + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]
    for p in primes:
        for k in range(p, limit + 1, p):
            mu[k] = -mu[k]
        for k in range(p * p, limit + 1, p * p):
            mu[k] = 0
    d = [0] * (limit + 1)
    for i in range(1, limit + 1):
        for k in range(i, limit + 1, i):
            d[k] += 1
    return phi, mu, d


def test_arithmetic_functions_examples_and_oracle():
    assert arithmetic_functions(1) == (1, 1, 1)
    assert arithmetic_functions(4) == (2, 0, 3)
    assert arithmetic_functions(154) == (60, -1, 8)
    phi, mu, d = _sieve_tables(10**4)
    for n in range(1, 10**4 + 1):
        assert arithmetic_functions(n) == (phi[n], mu[n], d[n])


def test_angle_examples():
    zero = angle_add(RationalAngle(1, 3), RationalAngle(2, 3))
    assert zero == RationalAngle(0, 1)
    assert angle_add(RationalAngle(2, 5), RationalAngle(3, 5)) == RationalAngle(0, 1)
    assert angle_add(RationalAngle(2, 5), RationalAngle(1, 15)) == RationalAngle(7, 15)


def test_angle_normalization_and_overflow():
    a = RationalAngle(7, 3)
    assert (a.numerator, a.denominator) == (1, 3)
    b = RationalAngle(-1, 4)
    assert (b.numerator, b.denominator) == (3, 4)
    with pytest.raises(OutOfRange):
        angle_add(RationalAngle(1, 4294967311), RationalAngle(1, 4294967357))


def test_angle_add_associative_commutative():
    rng = Lcg(5)
    for _ in range(500):
        den = [2 + rng.below(10**6) for _ in range(3)]
        num = [rng.below(d) for d in den]
        a, b, c = (RationalAngle(n, d) for n, d in zip(num, den))
        assert angle_add(a, b) == angle_add(b, a)
        assert angle_add(angle_add(a, b), c) == angle_add(a, angle_add(b, c))


def test_angle_to_complex():
    z = RationalAngle(1, 4).to_complex()
    assert abs(z - 1j) < 1e-15
    assert RationalAngle(0, 7).to_complex() == 1.0 + 0.0j


def test_primes_between_is_open_on_both_ends():
    assert primes_between(5, 10) == [7]
    assert primes_between(10, 20) == [11, 13, 17, 19]
    assert primes_between(1, 3) == [2]
    assert primes_between(2, 3) == []


@pytest.mark.parametrize("c", [1, 2, 3, 1999, 65536, 9999991, 2**31 - 1, 2**31])
def test_reduce_mod_equals_numpy_remainder(c):
    rng = np.random.default_rng(c)
    residues = rng.integers(0, c, 4000, dtype=np.int64)
    v = np.concatenate([
        rng.integers(-2**62, 2**62, 4000, dtype=np.int64),  # either sign, up to 2**62
        residues * rng.integers(0, c, 4000, dtype=np.int64),  # products of residues
        -residues, np.array([0, 1, -1, c - 1, c, -c, 2**62 - 1, -2**62], dtype=np.int64)])
    for part in (v, v[:1000], v[-8:]):  # long arrays, and short ones that take %
        got = reduce_mod(part.copy(), c)
        assert got.dtype == np.int64
        assert np.array_equal(got, part % c)
