"""A 40-digit oracle for the Voronoi beta-sums: every raw and closed row of
voronoi_char_sums_raw/_closed is within its own est_error of the direct
sum, evaluated term by term in mpmath.

The oracle's own rounding, at most 1e-38 per term, is added to the bound;
it matters only where est_error is 0, on the vanishing closed rows.
"""

import math

import pytest

mpmath = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from deltasum.expsums import UNIT_EPS, voronoi_char_sums_closed, voronoi_char_sums_raw

mp = mpmath.mp.clone()
mp.dps = 40
ORACLE_EPS = mpmath.mpf("1e-38")  # per-term rounding of the 40-digit sum, with room


def exact_beta_sum(n, m, m_prime, c, d, r, ell, M):
    """The beta-sum of voronoi_char_sum_raw at 40 digits, term by term, and
    its summand count."""
    modulus, cc = m * c // m_prime, c // d
    m_bar = pow(M, -1, cc) if cc > 1 else 0
    units = [b for b in range(modulus) if math.gcd(b, modulus) == 1] if modulus > 1 else [0]
    kept = [b for b in units if (r * ell * m_bar + b * m_prime) % cc == 0]
    inv = [pow(b, -1, modulus) if modulus > 1 else 0 for b in kept]
    total = mp.fsum(mp.expjpi(mp.mpf(2 * (x * n % modulus)) / modulus) for x in inv)
    return total, len(kept)


def check_block(group, rows, ns):
    """Every raw and closed entry of one block against the oracle; returns
    the number of vanishing closed entries."""
    m, m_prime, c, d = group
    raw, counts = voronoi_char_sums_raw(ns, rows, *group)
    closed = voronoi_char_sums_closed(ns, rows, *group)
    terms = m * c // m_prime
    vanishing = 0
    for i, (r, ell, M) in enumerate(rows):
        for j, n in enumerate(ns):
            exact, count = exact_beta_sum(n, *group, r, ell, M)
            assert counts[i] == count
            slack = ORACLE_EPS * max(count, 1)
            value = complex(raw[i, j])
            assert abs(mp.mpc(value) - exact) <= UNIT_EPS * max(count, 1) + slack
            value = complex(closed[i, j])
            est = min(UNIT_EPS * abs(value), 1e-12 * terms)  # voronoi_char_sum_closed's
            assert abs(mp.mpc(value) - exact) <= est + slack
            vanishing += value == 0
    return vanishing


def grid_rows(group, r_max=6):
    c1 = math.gcd(group[1], group[2] // group[3])
    return [(r, ell, M) for ell in (2, 3, 5, 7) if c1 % ell
            for M in (13, 29, 31) if math.gcd(M, group[2]) == 1 for r in range(1, r_max + 1)]


@pytest.mark.parametrize("group", [(1, 4, 8, 1), (2, 1, 2, 2), (1, 1, 12, 1), (3, 1, 1, 1),
                                   (2, 3, 12, 2), (3, 9, 30, 5), (3, 2, 12, 1)])
def test_beta_sum_blocks_are_within_est_error_of_the_oracle(group):
    rows = grid_rows(group)
    assert len({(ell, M) for _, ell, M in rows}) > 1
    check_block(group, rows, list(range(1, 9)))


def test_oracle_covers_vanishing_rows():
    # c1 = 4 with r = 3, and q2 = 2 with odd n: the closed form is exactly 0
    assert check_block((1, 4, 8, 1), [(3, 5, 13), (4, 3, 29)], [1, 2]) >= 2
    assert check_block((2, 1, 2, 2), [(4, 5, 13), (1, 7, 31)], [1, 3]) == 4


@st.composite
def blocks(draw):
    m = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.integers(min_value=1, max_value=30))
    d = draw(st.sampled_from([x for x in range(1, c + 1) if c % x == 0]))
    m_prime = draw(st.sampled_from([x for x in range(1, 13) if (m * c) % x == 0]))
    c1 = math.gcd(m_prime, c // d)
    rows = draw(st.lists(st.tuples(
        st.integers(min_value=1, max_value=40),
        st.sampled_from([x for x in (2, 3, 5, 7) if c1 % x != 0]),
        st.sampled_from([x for x in (13, 29, 31) if math.gcd(x, c) == 1])),
        min_size=1, max_size=5))
    ns = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=4))
    return (m, m_prime, c, d), rows, ns


@settings(max_examples=40, deadline=None)
@given(blocks())
def test_drawn_beta_sum_blocks_are_within_est_error_of_the_oracle(block):
    check_block(*block)
