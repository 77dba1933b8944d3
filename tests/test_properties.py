"""Property-based checks of the Kloosterman and Ramanujan identities and of
the batched kernels (kloosterman_terms, voronoi_char_sums_raw) against a
pure-Python direct sum over the units, within identity_tolerance, of
kloosterman_screen against kloosterman within the gap it returns, of
Q/Z reciprocity, and of the dsum-cancel screen against d_sum within its gap."""

import cmath
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltasum.characters import DirichletCharacter
from deltasum.expsums import (
    d_sum,
    dsum_screen,
    fsum_rows,
    identity_tolerance,
    kloosterman,
    kloosterman_screen,
    kloosterman_terms,
    ramanujan_sum,
    voronoi_char_sums_closed,
    voronoi_char_sums_raw,
)
from deltasum.numcore import primes_between
from deltasum.suites import reciprocity_case

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

moduli = st.integers(min_value=1, max_value=400)
residues = st.integers(min_value=-10**6, max_value=10**6)


def e(num, den):
    return cmath.exp(2j * math.pi * (num % den) / den)


def direct_kloosterman(m, n, c):
    """S(m, n; c) term by term; for c = 1 the residue 0 is the one unit."""
    units = [x for x in range(c) if math.gcd(x, c) == 1]
    return sum(e(m * x + n * pow(x, -1, c), c) for x in units), len(units)


@PROPERTY_SETTINGS
@given(residues, residues, moduli)
def test_kloosterman_symmetric_in_m_and_n(m, n, c):
    # x -> x^-1 permutes the units, so both sides reduce the same multiset
    # of table entries; fsum is correctly rounded, so the bits agree.
    assert kloosterman(m, n, c).value == kloosterman(n, m, c).value


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60),
       residues, residues)
def test_kloosterman_twisted_multiplicativity(c1, c2, m, n):
    assume(math.gcd(c1, c2) == 1)
    lhs = kloosterman(m, n, c1 * c2).value
    c2b, c1b = pow(c2, -1, c1), pow(c1, -1, c2)
    rhs = (kloosterman(c2b * m, c2b * n, c1).value
           * kloosterman(c1b * m, c1b * n, c2).value)
    assert abs(lhs - rhs) <= identity_tolerance(3 * c1 * c2, abs(lhs), abs(rhs))


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(residues, residues), min_size=1, max_size=6), moduli)
def test_batched_kloosterman_rows_match_direct_sum(pairs, c):
    ms, ns = zip(*pairs)
    rows = fsum_rows(kloosterman_terms(ms, ns, c))
    for (m, n), got in zip(pairs, rows):
        want, count = direct_kloosterman(m, n, c)
        assert abs(got - want) <= identity_tolerance(2 * count, abs(got), abs(want))
        assert got == kloosterman(m, n, c).value


@st.composite
def prime_power_cases(draw):
    """(m, n, c) with c = p**k * r for p**k among 2**k, 3**k, p**2 and p**3,
    and m, n both divisible by p (often by a higher power), so that the
    screen's p-adic descent runs."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    k = draw(st.integers(min_value=1, max_value=8)) if p <= 3 else draw(st.sampled_from([2, 3]))
    q = p ** k
    r = draw(st.sampled_from([x for x in range(1, 400 // q + 2) if x % p]))
    m, n = (p ** draw(st.integers(min_value=1, max_value=k + 1)) * draw(residues)
            for _ in range(2))
    return m, n, q * r


def assert_screen_matches_scalar(cases):
    ms, ns, cs = (np.array(col, dtype=np.int64) for col in zip(*cases))
    sums, gap, _ = kloosterman_screen(ms, ns, cs)
    screened, est = sums.value, sums.est_error
    for (m, n, c), got, e, g in zip(cases, screened, est, gap):
        want = kloosterman(m, n, c)
        assert abs(got - want.value) <= g  # the weil sweep's slack
        assert e == want.est_error


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(residues, residues, moduli), min_size=1, max_size=8))
def test_kloosterman_screen_within_slack_of_scalar(cases):
    assert_screen_matches_scalar(cases)


@PROPERTY_SETTINGS
@given(st.lists(prime_power_cases(), min_size=1, max_size=8))
def test_kloosterman_screen_descends_through_prime_powers(cases):
    assert_screen_matches_scalar(cases)


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=2000), residues)
def test_ramanujan_closed_form_equals_raw_sum(q, n):
    # c_q(n) = sum over units a mod q of e(a n / q) = S(0, n; q)
    closed = ramanujan_sum(q, n)
    want, count = direct_kloosterman(0, n, q)
    raw = kloosterman(0, n, q).value
    for got in (want, raw):
        assert abs(closed - got) <= identity_tolerance(2 * count, abs(closed), abs(got))


@st.composite
def voronoi_groups(draw):
    """One (m, m', c, d) group and admissible (r, ell, M) rows of it, as the
    voronoi-char suite builds them (but drawn, so the (ell, M) may repeat)."""
    m = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.integers(min_value=1, max_value=30))
    d = draw(st.sampled_from([x for x in range(1, c + 1) if c % x == 0]))
    m_prime = draw(st.sampled_from([x for x in range(1, 13) if (m * c) % x == 0]))
    c1 = math.gcd(m_prime, c // d)
    rows = draw(st.lists(st.tuples(
        st.integers(min_value=1, max_value=40),
        st.sampled_from([x for x in (2, 3, 5, 7) if c1 % x != 0]),
        st.sampled_from([x for x in (13, 29, 31) if math.gcd(x, c) == 1])),
        min_size=1, max_size=6))
    return (m, m_prime, c, d), rows


def direct_beta_sum(n, m, m_prime, c, d, r, ell, M):
    """sum over units beta mod m*c/m' with r*ell*M^-1 + beta*m' = 0 mod c/d
    of e(beta^-1 n / (m*c/m')), term by term."""
    modulus, cc = m * c // m_prime, c // d
    m_bar = pow(M, -1, cc)
    kept = [b for b in range(modulus) if math.gcd(b, modulus) == 1
            and (r * ell * m_bar + b * m_prime) % cc == 0]
    return sum(e(pow(b, -1, modulus) * n, modulus) for b in kept), len(kept)


@PROPERTY_SETTINGS
@given(voronoi_groups(),
       st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=5))
def test_voronoi_group_rows_match_direct_sum(group_rows, ns):
    group, rows = group_rows
    m, m_prime, c, d = group
    raw = voronoi_char_sums_raw(ns, rows, *group)
    raw, counts = raw.value, raw.terms[:, 0]
    closed = voronoi_char_sums_closed(ns, rows, *group).value
    for i, (r, ell, M) in enumerate(rows):
        for j, n in enumerate(ns):
            want, count = direct_beta_sum(n, m, m_prime, c, d, r, ell, M)
            assert counts[i] == count
            for got in (raw[i, j], closed[i, j]):
                assert abs(got - want) <= identity_tolerance(
                    count + m * c // m_prime, abs(got), abs(want))


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=2**31), st.integers(min_value=1, max_value=2**31),
       st.integers(min_value=-10**30, max_value=10**30))
def test_reciprocity_holds_for_coprime_moduli(a, b, n):
    # abar n/b + bbar n/a = n/(ab) in Q/Z, exactly, whenever gcd(a, b) = 1
    assume(math.gcd(a, b) == 1)
    assert reciprocity_case(a, b, n) == 0.0


@PROPERTY_SETTINGS
@given(st.sampled_from(primes_between(2, 301)), st.data())
def test_dsum_rows_match_d_sum(M, data):
    chi_index = data.draw(st.integers(min_value=1, max_value=M - 2))
    u = data.draw(st.integers(min_value=0, max_value=M - 1))
    rows, est, gap = dsum_screen(M)
    want = d_sum(u, M, DirichletCharacter.from_index(M, chi_index))
    assert est == want.est_error
    assert abs(rows[chi_index - 1, u] - abs(want.value)) <= gap
