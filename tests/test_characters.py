import cmath
import math

import pytest

from deltasum.characters import (
    DirichletCharacter,
    character_rows,
    enumerate_characters,
    primitive_root,
)
from deltasum.errors import NotPrime
from deltasum.expsums import gauss_sum
from deltasum.numcore import is_prime, primes_between
from deltasum.scan import Lcg


def test_enumeration():
    assert len(enumerate_characters(3)) == 2
    chars5 = enumerate_characters(5)
    assert len(chars5) == 4
    assert sum(1 for chi in chars5 if chi.parity() == -1) == 2
    with pytest.raises(NotPrime):
        enumerate_characters(4)
    with pytest.raises(NotPrime):
        enumerate_characters(2)


def test_eval_examples():
    principal = DirichletCharacter.principal(5)
    assert abs(principal.eval(3) - 1) < 1e-15
    for chi in enumerate_characters(7):
        assert chi.eval(7) == 0
        assert chi.eval(14) == 0
    legendre7 = DirichletCharacter.legendre(7)
    assert abs(legendre7.eval(3) - (-1)) < 1e-15
    squares = {x * x % 7 for x in range(1, 7)}
    for n in range(1, 7):
        want = 1 if n in squares else -1
        assert abs(legendre7.eval(n) - want) < 1e-15


def test_parity_examples():
    assert DirichletCharacter.principal(11).parity() == 1
    assert DirichletCharacter.legendre(3).parity() == -1
    assert DirichletCharacter.legendre(13).parity() == 1  # -1 is a QR mod 13
    for q in (3, 5, 7, 11, 13):
        for chi in enumerate_characters(q):
            direct = chi.eval(q - 1)
            assert abs(direct - chi.parity()) < 1e-12


def test_odd_character_count():
    for q in primes_between(2, 102):
        odd = sum(1 for chi in enumerate_characters(q) if chi.parity() == -1)
        assert odd == (q - 1) // 2


def test_complete_multiplicativity():
    rng = Lcg(17)
    for q in (7, 31, 97):
        chars = enumerate_characters(q)
        for _ in range(3400):
            chi = chars[rng.below(len(chars))]
            m = rng.below(3 * q)
            n = rng.below(3 * q)
            assert abs(chi.eval(m * n) - chi.eval(m) * chi.eval(n)) < 1e-12


def test_orthogonality():
    for p in primes_between(2, 102):
        chars = enumerate_characters(p)
        for x in range(p):
            total = sum(chi.eval(x) for chi in chars)
            want = (p - 1) if x % p == 1 else 0
            assert abs(total - want) <= 1e-9 * p


def test_nonprincipal_sums_to_zero_over_residues():
    # the vanishing stratum behind the partial evaluation of the a-sum:
    # sum_a chi(a) e(t a / q) with t = 0 collapses to sum_a chi(a) = 0
    for q in (5, 7, 13, 31):
        for chi in enumerate_characters(q):
            total = sum(chi.eval(a) for a in range(q))
            want = 0 if not chi.is_principal else q - 1
            assert abs(total - want) < 1e-10


def test_gauss_sum_examples():
    g3 = gauss_sum(DirichletCharacter.legendre(3)).value
    assert abs(g3 - cmath.sqrt(-3)) < 1e-12  # i*sqrt(3)
    g5 = gauss_sum(DirichletCharacter.legendre(5)).value
    assert abs(g5 - math.sqrt(5)) < 1e-12
    for q in (3, 7, 23):
        assert abs(gauss_sum(DirichletCharacter.principal(q)).value - (-1)) < 1e-12


def test_gauss_sum_magnitude_and_conjugate():
    for q in primes_between(2, 500):
        cached = {}
        for chi in enumerate_characters(q):
            cached[chi.index] = gauss_sum(chi).value
        for chi in enumerate_characters(q):
            if chi.is_principal:
                continue
            g = cached[chi.index]
            assert abs(abs(g) ** 2 - q) <= 1e-6 * q
            g_conj = cached[(-chi.index) % (q - 1)]
            assert abs(g * g_conj - chi.parity() * q) <= 1e-6 * q


def test_primitive_root_is_smallest():
    known = {3: 2, 5: 2, 7: 3, 11: 2, 13: 2, 23: 5, 41: 6, 71: 7}
    for q, g in known.items():
        assert primitive_root(q) == g


def test_character_is_primitive_root_based():
    chi = DirichletCharacter.from_index(13, 5)
    g = primitive_root(13)
    assert is_prime(13) and g == 2
    # chi(g^k) = e(index*k/(q-1))
    for k in range(12):
        want = cmath.exp(2j * cmath.pi * (5 * k % 12) / 12)
        assert abs(chi.eval(pow(g, k, 13)) - want) < 1e-12


def test_value_array_matches_eval():
    for q in (5, 13):
        for chi in enumerate_characters(q):
            vals = chi.value_array()
            for n in range(q):
                assert abs(vals[n] - chi.eval(n)) < 1e-14


def test_concurrent_discrete_log_construction():
    # single construction, many readers: all threads must agree
    from concurrent.futures import ThreadPoolExecutor

    def probe(_):
        return DirichletCharacter.from_index(9973, 5).eval(12345)

    with ThreadPoolExecutor(max_workers=8) as pool:
        values = list(pool.map(probe, range(32)))
    assert all(v == values[0] for v in values)


def test_character_rows_are_value_arrays_bit_for_bit():
    for q in primes_between(3, 100):
        rows = character_rows(q, range(q - 1))
        assert rows.shape == (q - 1, q)
        for a in range(q - 1):
            assert rows[a].tobytes() == DirichletCharacter(q, a).value_array().tobytes(), (q, a)
    with pytest.raises(NotPrime):
        character_rows(9, [1])
