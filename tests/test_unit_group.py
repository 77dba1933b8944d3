"""The unit-group layer: generator powers (characters.unit_powers), the
discrete-log and inverse tables and the Rader Kloosterman rows built from
them, and the jump-ahead block draws of the seeded generator."""

import math

import numpy as np
import pytest

from deltasum.characters import (
    discrete_log_table,
    prime_power_root,
    primitive_root,
    unit_cycles,
    unit_powers,
    unit_roots,
)
from deltasum.errors import InvalidValue
from deltasum.expsums import (
    TRANSFORM_EPS,
    UNIT_EPS,
    _kloosterman_unit_row,
    kloosterman,
    units_and_inverses,
)
from deltasum.numcore import euler_phi, factorize, primes_between
from deltasum.scan import LCG_BLOCK, Lcg

EPS = 2.0**-53


def _prime_powers(limit):
    """(q, p, k) for every prime power 1 < q <= limit."""
    out = []
    for q in range(2, limit + 1):
        factors = factorize(q).factors
        if len(factors) == 1:
            out.append((q, *factors[0]))
    return out


# ------------------------------------------------------------- block draws

@pytest.mark.parametrize("count", [0, 1, LCG_BLOCK - 1, LCG_BLOCK, LCG_BLOCK + 1, 10**5])
@pytest.mark.parametrize("skip", [0, 12345])
def test_block_draws_equal_a_loop_of_next_u32(count, skip):
    block, loop = Lcg(7), Lcg(7)
    for _ in range(skip):  # part-way through the stream
        block.next_u32()
        loop.next_u32()
    got = block.next_u32_block(count)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tolist() == [loop.next_u32() for _ in range(count)]
    assert block.state == loop.state
    assert block.next_u32() == loop.next_u32()


def test_block_draws_continue_each_other():
    rng, ref = Lcg(5), Lcg(5)
    got = np.concatenate([rng.next_u32_block(n) for n in (3, LCG_BLOCK + 5, 0, 17)])
    assert got.tolist() == [ref.next_u32() for _ in range(got.size)]


# ------------------------------------------------------- generator powers

def test_powers_are_a_permutation_of_the_units():
    for q, _, _ in _prime_powers(2048) + [(999983, 999983, 1)]:
        units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
        assert np.array_equal(np.sort(unit_powers(q)), units), q


def test_powers_start_at_one_and_follow_the_generator():
    for q, p, k in _prime_powers(300):
        powers = unit_powers(q).tolist()
        if q == 2:
            assert powers == [1]
            continue
        if p == 2:  # 5**j, then -5**j
            fives, negatives = powers[:len(powers) // 2], powers[len(powers) // 2:]
            assert negatives == [q - x for x in fives]
            g, powers = 5, fives
        else:
            g = prime_power_root(p, k)
        assert powers[0] == 1
        assert all(b == a * g % q for a, b in zip(powers, powers[1:]))


def test_generator_is_lifted_where_the_least_root_fails_mod_p_squared():
    # 5 is the least primitive root mod 40487 and 5**40486 = 1 mod 40487**2,
    # so mod 40487**k, k >= 2, the generator must be lifted to 5 + 40487
    p = 40487
    assert primitive_root(p) == 5 and pow(5, p - 1, p * p) == 1
    assert prime_power_root(p, 1) == 5
    g = prime_power_root(p, 2)
    order = p * (p - 1)
    primes = [s for s, _ in factorize(p - 1).factors] + [p]
    assert all(pow(g, order // s, p * p) != 1 for s in primes)
    for q in primes_between(2, 200):
        assert prime_power_root(q, 1) == primitive_root(q)
        assert pow(prime_power_root(q, 3), q - 1, q * q) != 1


def test_powers_reject_what_is_not_a_prime_power():
    for n in (1, 6, 12, 2 * 3**5):
        with pytest.raises(InvalidValue):
            unit_powers(n)


@pytest.mark.parametrize("q, shape", [(2, (1,)), (4, (2, 1)), (8, (2, 2)), (9, (6,)),
                                      (27, (18,))])
def test_unit_cycles_lay_the_powers_out_as_the_unit_group(q, shape):
    cycles = unit_cycles(q)
    assert cycles.shape == shape
    assert cycles.ravel().tolist() == unit_powers(q).tolist()
    if q % 4 == 0:  # the rows 5**j and -5**j
        assert cycles[1].tolist() == [q - x for x in cycles[0].tolist()]


# ------------------------------------------------------------ discrete logs

def _discrete_log_loop(q):
    """The discrete-log table by stepping through g**k, as a list."""
    g = primitive_root(q)
    table = [-1] * q
    acc = 1
    for k in range(q - 1):
        table[acc] = k
        acc = acc * g % q
    return table


def test_discrete_log_table_equals_the_loop():
    for q in primes_between(2, 3000) + [999983]:
        assert discrete_log_table(q).tolist() == _discrete_log_loop(q), q


# ----------------------------------------------------------- inverse tables
# (the pins against pow(x, -1, c) up to 9,999,991 are in test_regression_pins)

def test_composite_inverses_go_through_every_prime_power():
    for c in (2 * 3 * 5 * 7 * 11 * 13, 2**5 * 3**4 * 7, 9699690 // 19):
        xs, inv = units_and_inverses(c)
        assert xs.size == euler_phi(c)
        assert np.all(xs * inv % c == 1), c


# ----------------------------------------------------------- Rader rows

def _bluestein_row(q):
    """K[a] = S(1, a; q) by one FFT of length q over the inverse table: with
    y = x^-1, S(1, a; q) = sum over units y of e(y^-1/q) e(a y/q).  The
    reference for every prime power's Rader row, 2**k included."""
    xs, inv = units_and_inverses(q)
    u = np.zeros(q, dtype=np.complex128)
    u[xs] = unit_roots(q)[inv]
    return np.fft.ifft(u) * q


def _row_bound(q):
    """The expsums docstring's bound on an entry of a Rader row: two
    transforms and a square of length phi(q)."""
    return (3 * TRANSFORM_EPS * math.log2(q) + 2 * UNIT_EPS + math.sqrt(5) * EPS) * q


def test_rader_rows_match_the_length_q_transform_and_the_scalar_sum():
    rng = Lcg(61)
    powers = _prime_powers(2048)
    assert [q for q, p, _ in powers if p == 2] == [2**k for k in range(1, 12)]
    for q, p, k in powers:
        row = _kloosterman_unit_row(q)
        reference = _bluestein_row(q)
        bound = _row_bound(q) + (TRANSFORM_EPS * math.log2(q) + UNIT_EPS) * q
        assert np.max(np.abs(row - reference)) <= bound, q
        non_units = row[::p]
        if k == 1:
            assert non_units.tolist() == [-1.0]
        else:
            assert np.all(non_units == 0), q
        for _ in range(20):
            a = rng.below(q)
            scalar = kloosterman(1, a, q)
            assert abs(row[a] - scalar.value) <= _row_bound(q) + scalar.est_error, (q, a)
