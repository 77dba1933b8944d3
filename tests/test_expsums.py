import cmath
import math
from collections import namedtuple

import numpy as np
import pytest

from deltasum import suites
from deltasum.characters import DirichletCharacter, enumerate_characters, unit_roots
from deltasum.errors import (
    BudgetExceeded,
    InvalidValue,
    ModulusMismatch,
    NotPrime,
    NotUnit,
    ParameterInconsistency,
    PrincipalCharacter,
    SharedFactor,
)
from deltasum.expsums import (
    SCREEN_SLACK,
    UNIT_EPS,
    ExpSumValue,
    c1_sums,
    c2_sums,
    c3_closed,
    c3_raw,
    c4_correlation,
    d_sum,
    dsum_screen,
    fsum_rows,
    identity_tolerance,
    kloosterman,
    kloosterman_screen,
    kloosterman_terms,
    psi_average_closed,
    psi_average_raw,
    psi_average_sums_closed,
    psi_average_sums_raw,
    ramanujan_sum,
    twisted_kloosterman,
    twisted_split_check,
    units_and_inverses,
    voronoi_char_sum_closed,
    voronoi_char_sum_raw,
    voronoi_char_sums_closed,
    voronoi_char_sums_raw,
)
from deltasum.numcore import RationalAngle, arithmetic_functions, divisor_count, mod_inv
from deltasum.scan import Lcg
from deltasum.suites import run_suite


# ----------------------------------------------------------- oracle helpers

def _e(num, den):
    return cmath.exp(2j * cmath.pi * num / den)


def _inv(a, m):
    return pow(a, -1, m) if m > 1 else 0


def _units(c):
    return [x for x in range(c) if math.gcd(x, c) == 1] if c > 1 else [0]


def kloosterman_oracle(m, n, c):
    """Independent scalar enumeration, no shared code with the library path."""
    return sum(_e((m * x + n * _inv(x, c)) % c, c) for x in _units(c))


def close(lhs, rhs, terms=10):
    return abs(lhs - rhs) <= identity_tolerance(terms, abs(lhs), abs(rhs))


# ------------------------------------------------------------- kloosterman

def test_kloosterman_examples():
    assert kloosterman(5, 9, 1).value == 1.0 + 0j
    s = kloosterman(1, 1, 3)
    assert abs(s.value - (-1.0)) < 1e-12
    assert s.terms == 2
    for c in (4, 6, 9, 12):
        for n in range(c):
            assert close(kloosterman(0, n, c).value, ramanujan_sum(c, n), c)


def test_kloosterman_matches_oracle():
    rng = Lcg(23)
    for _ in range(300):
        c = 1 + rng.below(150)
        m = rng.below(1000)
        n = rng.below(1000)
        got = kloosterman(m, n, c)
        want = kloosterman_oracle(m, n, c)
        assert abs(got.value - want) <= identity_tolerance(2 * got.terms, abs(want), abs(want))


def test_kloosterman_reality_and_symmetry():
    rng = Lcg(29)
    for c in range(1, 501):
        m = rng.below(10**6)
        n = rng.below(10**6)
        s = kloosterman(m, n, c)
        assert abs(s.value.imag) <= 1e-9 * c
    for c in range(1, 101):
        for _ in range(4):
            m = rng.below(10**4)
            n = rng.below(10**4)
            a = kloosterman(m, n, c)
            b = kloosterman(n, m, c)
            assert abs(a.value - b.value) <= identity_tolerance(a.terms + b.terms,
                                                                abs(a.value), abs(b.value))
    # exhaustive symmetry on a small block
    for c in range(1, 26):
        for m in range(c):
            for n in range(m, c):
                assert close(kloosterman(m, n, c).value, kloosterman(n, m, c).value, 2 * c)


def test_kloosterman_twisted_multiplicativity():
    rng = Lcg(31)
    checked = 0
    while checked < 150:
        c1 = 2 + rng.below(99)
        c2 = 2 + rng.below(99)
        if math.gcd(c1, c2) != 1:
            continue
        m = rng.below(10**4)
        n = rng.below(10**4)
        lhs = kloosterman(m, n, c1 * c2).value
        c2b = _inv(c2, c1)
        c1b = _inv(c1, c2)
        rhs = kloosterman(c2b * m, c2b * n, c1).value * kloosterman(c1b * m, c1b * n, c2).value
        assert abs(lhs - rhs) <= identity_tolerance(3 * c1 * c2, abs(lhs), abs(rhs))
        checked += 1


def test_weil_bound_sampled():
    rng = Lcg(37)
    for c in range(1, 301):
        for _ in range(5):
            m = 1 + rng.below(10**6)
            n = 1 + rng.below(10**6)
            s = kloosterman(m, n, c)
            bound = divisor_count(c) * math.sqrt(math.gcd(m, math.gcd(n, c)) * c)
            assert abs(s.value) <= bound + s.est_error


def _weil_grid(c_max, pairs_per_c, seed):
    """The weil suite's cases (m, n, c), drawn in its order."""
    rng = Lcg(seed)
    return [(1 + rng.below(10**6), 1 + rng.below(10**6), c)
            for c in range(1, c_max + 1) for _ in range(pairs_per_c)]


@pytest.mark.parametrize("c_max, pairs_per_c, seed, c_limit", [
    (2000, 20, 5, 500),  # the default grid, every row with c <= 500
    (200, 5, 1, 200),  # the smoke grid
    (200, 5, 11, 200),
])
def test_kloosterman_screen_within_slack_on_weil_grids(c_max, pairs_per_c, seed, c_limit):
    cases = [case for case in _weil_grid(c_max, pairs_per_c, seed) if case[2] <= c_limit]
    ms, ns, cs = (np.array(col, dtype=np.int64) for col in zip(*cases))
    screened, est, gap, divisors = kloosterman_screen(ms, ns, cs)
    for (m, n, c), got, e, g, d in zip(cases, screened.tolist(), est, gap, divisors):
        want = kloosterman(m, n, c)
        assert abs(got - want.value) <= g
        assert (e, d) == (want.est_error, divisor_count(c))


def test_kloosterman_screen_edges():
    assert [a.shape for a in kloosterman_screen([], [], [])] == [(0,)] * 4
    # unsorted and repeated moduli come back in input order
    cases = [(3, 7, 30), (0, 0, 8), (5, 1, 1), (3, 7, 7)]
    got, est, gap, divisors = kloosterman_screen(*zip(*cases))
    want = [kloosterman(3, 7, 30).value, 4, 1, kloosterman(3, 7, 7).value]
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert np.all(np.abs(got - want) <= gap)
    assert est.tolist() == [kloosterman(*case).est_error for case in cases]
    assert gap.tolist() == [SCREEN_SLACK * phi for phi in (8, 4, 1, 6)]
    assert divisors.tolist() == [8, 4, 1, 2]
    with pytest.raises(BudgetExceeded):
        kloosterman_screen([1, 1], [1, 1], [5, 10**7 + 1])
    with pytest.raises(InvalidValue):
        kloosterman_screen([1], [1], [0])


def test_kloosterman_budget():
    with pytest.raises(BudgetExceeded):
        kloosterman(1, 1, 10**7 + 1)
    with pytest.raises(BudgetExceeded):
        kloosterman(1, 1, 100, budget=50)


# --------------------------------------------------------------- ramanujan

def test_ramanujan_examples():
    assert ramanujan_sum(6, 0) == 2
    assert ramanujan_sum(6, 1) == 1
    assert ramanujan_sum(4, 2) == -2
    assert ramanujan_sum(1, 5) == 1
    for q in range(1, 61):
        assert ramanujan_sum(q, 0) == arithmetic_functions(q)[0]
        for n in range(q + 1):
            want = sum(_e(a * n % q, q) for a in _units(q)) if q > 1 else 1
            assert abs(ramanujan_sum(q, n) - want) < 1e-8


# ----------------------------------------------------------------- twisted

def test_twisted_principal_reduces_to_restricted_kloosterman():
    rng = Lcg(41)
    for p in (3, 5, 7):
        psi0 = DirichletCharacter.principal(p)
        for _ in range(40):
            c = p * (1 + rng.below(30))
            m = rng.below(100)
            n = rng.below(100)
            got = twisted_kloosterman(psi0, m, n, c)
            want = sum(_e((m * x + n * _inv(x, c)) % c, c) for x in _units(c))
            assert abs(got.value - want) <= identity_tolerance(2 * got.terms,
                                                               abs(want), abs(want))


def test_twisted_example_odd_character_mod_3():
    psi = DirichletCharacter.from_index(3, 1)
    assert psi.parity() == -1
    s = twisted_kloosterman(psi, 1, 1, 3)
    want = _e(2, 3) - _e(1, 3)  # = -i sqrt(3)
    assert abs(s.value - want) < 1e-12
    assert abs(s.value - (-1j * math.sqrt(3))) < 1e-12


def test_twisted_oracle_p5_c10():
    psi = DirichletCharacter.from_index(5, 1)
    got = twisted_kloosterman(psi, 1, 1, 10)
    vals = {x: psi.eval(x) for x in range(10)}
    want = sum(vals[x % 5] * _e((x + _inv(x, 10)) % 10, 10) for x in _units(10))
    assert abs(got.value - want) < 1e-12
    assert got.terms == 4


def test_twisted_requires_dividing_modulus():
    psi = DirichletCharacter.from_index(5, 1)
    with pytest.raises(ModulusMismatch):
        twisted_kloosterman(psi, 1, 1, 12)


# -------------------------------------------------------------------- dsum

def _dsum_oracle(u, M, chi):
    total = 0j
    for b in range(M):
        if b % M in (0, 1):
            continue
        total += chi.eval(b - 1).conjugate() * _e(((_inv(b, M) - 1) * u) % M, M)
    return total


def test_dsum_zero_frequency():
    for M in (5, 7, 11, 13):
        for chi in enumerate_characters(M)[1:]:
            want = -chi.eval(-1).conjugate()
            assert abs(d_sum(0, M, chi).value - want) < 1e-10


def test_dsum_oracle_and_periodicity():
    for M in (5, 7):
        for chi in enumerate_characters(M)[1:]:
            for u in range(M):
                got = d_sum(u, M, chi)
                assert abs(got.value - _dsum_oracle(u, M, chi)) < 1e-10
                shifted = d_sum(u + M, M, chi)
                assert got.value == shifted.value
    legendre = DirichletCharacter.legendre(5)
    assert abs(d_sum(1, 5, legendre).value - _dsum_oracle(1, 5, legendre)) < 1e-12


def test_dsum_rejects_principal():
    with pytest.raises(PrincipalCharacter):
        d_sum(1, 7, DirichletCharacter.principal(7))


@pytest.mark.parametrize("M", [2, 9, 15])
def test_dsum_screen_takes_odd_primes_only(M):
    with pytest.raises(NotPrime):
        dsum_screen(M)


def test_dsum_cancellation_small():
    for M in (5, 7, 11, 13, 17, 19, 23):
        for chi in enumerate_characters(M)[1:]:
            for u in range(1, M):
                assert abs(d_sum(u, M, chi).value) <= 4 * math.sqrt(M)


# ------------------------------------------------------------- psi average

_Psi = namedtuple("_Psi", "r m c p M")  # the arguments of psi_average_raw/_closed


def _psi_average_oracle(params):
    """Orthogonality route: (p-1) [sum_{x=1 mod p} - sum_{x=-1 mod p}]."""
    c_total = params.c * params.p * params.M
    plus = sum(_e((params.r * x + params.m * _inv(x, c_total)) % c_total, c_total)
               for x in _units(c_total) if x % params.p == 1)
    minus = sum(_e((params.r * x + params.m * _inv(x, c_total)) % c_total, c_total)
                for x in _units(c_total) if x % params.p == params.p - 1)
    return (params.p - 1) * (plus - minus)


def test_psi_average_examples():
    for tup in ((1, 1, 1, 3, 5), (2, 3, 2, 5, 7)):
        params = _Psi(*tup)
        raw = psi_average_raw(*params)
        closed = psi_average_closed(*params)
        assert abs(raw.value - closed.value) <= identity_tolerance(
            raw.terms + closed.terms, abs(raw.value), abs(closed.value))
        assert abs(raw.value - _psi_average_oracle(params)) < 1e-9


def test_psi_average_even_characters_cancel():
    params = _Psi(2, 5, 2, 3, 5)
    raw = psi_average_raw(*params)
    assert abs(raw.value - _psi_average_oracle(params)) < 1e-9


def test_psi_average_zero_bracket():
    # r + m = 0 mod p makes the closed form vanish exactly
    params = _Psi(1, 2, 1, 3, 5)
    closed = psi_average_closed(*params)
    assert closed.value == 0j
    raw = psi_average_raw(*params)
    assert abs(raw.value) <= identity_tolerance(raw.terms, abs(raw.value), 0.0)


def _psi_average_scalar_reference(params):
    """psi_average_raw and psi_average_closed as they were before the block
    kernels, one (r, m) at a time; the wrappers must give their bits."""
    p, cM = params.p, params.c * params.M
    c_total = cM * p
    summands = kloosterman_terms((params.r,), (params.m,), c_total)
    xs, _ = units_and_inverses(c_total)
    table = np.array([psi.value_array() for psi in enumerate_characters(p) if psi.parity() == -1])
    values = fsum_rows(table[:, xs % p] * summands)
    row_est = 2 * UNIT_EPS * xs.size
    total, est = 0j, 0.0
    for value in values:
        total += 2 * value
        est += 2 * row_est
    count = (p - 1) * xs.size
    raw = ExpSumValue(total, count, est + UNIT_EPS * count)
    if math.gcd(p, cM) != 1:
        return raw, None
    pbar = pow(p, -1, cM) if cM > 1 else 0
    s = kloosterman(pbar * params.r, pbar * params.m, cM)
    w = RationalAngle(pow(cM, -1, p) * (params.r + params.m), p)
    value = (p - 1) * s.value * (w.to_complex() - (-w).to_complex())
    est = (p - 1) * 2 * (s.est_error + UNIT_EPS * abs(s.value))
    return raw, ExpSumValue(value, count, min(est, 1e-12 * count))


def _bits(v):
    return None if v is None else (v.value.real.hex(), v.value.imag.hex(), v.terms,
                                   v.est_error.hex())


def test_psi_average_wrappers_equal_scalar_reference():
    for p, M in ((3, 5), (5, 7), (7, 13), (11, 3)):
        for c in range(1, 8):
            for r, m in ((1, 1), (2, 9), (5, 3), (10, 10)):
                params = _Psi(r, m, c, p, M)
                raw, closed = _psi_average_scalar_reference(params)
                assert _bits(psi_average_raw(*params)) == _bits(raw), params
                if closed is not None:
                    assert _bits(psi_average_closed(*params)) == _bits(closed), params


def test_psi_average_blocks_equal_their_entries():
    pairs = [(r, m) for r in range(1, 5) for m in (1, 2, 7)]
    raw = psi_average_sums_raw(pairs, 4, 5, 3)
    closed = psi_average_sums_closed(pairs, 4, 5, 3)
    for (r, m), lhs, rhs in zip(pairs, raw, closed, strict=True):
        params = _Psi(r, m, 4, 5, 3)
        assert _bits(lhs) == _bits(psi_average_raw(*params))
        assert _bits(rhs) == _bits(psi_average_closed(*params))
    with pytest.raises(InvalidValue):
        psi_average_sums_raw([(1, 1), (0, 2)], 4, 5, 3)
    with pytest.raises(SharedFactor):
        psi_average_sums_closed(pairs, 5, 5, 3)


def test_psi_average_closed_requires_coprimality():
    with pytest.raises(SharedFactor):
        psi_average_closed(*_Psi(1, 1, 3, 3, 5))
    # the raw path still works there
    raw = psi_average_raw(*_Psi(1, 1, 3, 3, 5))
    assert abs(raw.value - _psi_average_oracle(_Psi(1, 1, 3, 3, 5))) < 1e-9


# ------------------------------------------------------------------- c1, c2

def _c1_reference(c, p, M, n, ell):
    """c1's two routes as the c1 suite computed them before c1_sums: one
    kloosterman call per residue a, its terms added (+=) in ascending a."""
    pm_bar = mod_inv(p * M, c)
    roots = unit_roots(c)
    total = 0j
    terms = 0
    for a in range(c):
        s = kloosterman(pm_bar * a, pm_bar * n * ell, c)
        total += s.value * roots[(-pm_bar * (a + n * ell)) % c]
        terms += s.terms + 1
    lhs = ExpSumValue(total, max(terms, 1), 4 * UNIT_EPS * max(terms, 1))
    return lhs, ExpSumValue(complex(c), c, 0.0)


def _c2_reference(M, chi, p, c, n, ell):
    """c2's two routes as the c2 suite computed them before c2_sums, with
    the Gauss sum fsummed as a bare complex number."""
    pc_bar = mod_inv(p * c, M)
    chiv = chi.value_array()
    roots = unit_roots(M)
    total = 0j
    terms = 0
    for a in range(M):
        s = kloosterman(pc_bar * a, pc_bar * n * ell, M)
        total += chiv[a] * s.value * roots[(-pc_bar * (a + n * ell)) % M]
        terms += s.terms + 1
    lhs = ExpSumValue(total, max(terms, 1), 6 * UNIT_EPS * max(terms, 1))
    d = d_sum(pc_bar * n * ell, M, chi)
    g = chiv[1:] * roots[1:]
    gauss = complex(math.fsum(g.real.tolist()), math.fsum(g.imag.tolist()))
    closed = chi.eval(p * c) * gauss * d.value
    return lhs, ExpSumValue(closed, M * d.terms, 6 * UNIT_EPS * M * d.terms)


def _suite_cases(monkeypatch, suite):
    """The arguments of every case a c1 or c2 sweep evaluates at the
    default and the smoke grid, in order."""
    cases = []
    monkeypatch.setattr(suites, f"{suite}_case", lambda *args: cases.append(args[:-1]) or 0.0)
    for preset in ("default", "smoke"):
        run_suite(suite, preset)
    return cases


def test_c1_sums_equal_the_per_residue_loop(monkeypatch):
    box = [(c, p, M, 1 + (7 * c + M) % 20, (2, 3, 5)[c % 3])
           for c in range(1, 61) for M in (5, 7, 11, 13, 29) for p in (3, 11)
           if math.gcd(p * M, c) == 1]
    box += [(263, 3, 5, 7, 2), (512, 3, 7, 11, 5)]  # gathered in more than one block
    cases = _suite_cases(monkeypatch, "c1")
    assert (len(cases), len(box)) == (48 + 20, 429)
    for case in cases + box:
        want = _c1_reference(*case)
        assert [_bits(v) for v in c1_sums(*case)] == [_bits(v) for v in want], case


def test_c2_sums_equal_the_per_residue_loop(monkeypatch):
    # c enters only through (pc)^-1 mod M, so every third c <= 60 suffices
    box = [(M, chi, p, c, 1 + (c * chi.index) % 10, (2, 3, 5)[chi.index % 3])
           for M in (5, 7, 11, 13, 29) for chi in enumerate_characters(M)[1:]
           for c in range(1, 61, 3) for p in [(3, 11, 13)[c % 9 // 3]]
           if math.gcd(p * c, M) == 1]
    cases = [(M, DirichletCharacter.from_index(M, a), *rest)
             for M, a, *rest in _suite_cases(monkeypatch, "c2")]
    assert (len(cases), len(box)) == (27 + 7, 897)
    for case in cases + box:
        want = _c2_reference(*case)
        assert [_bits(v) for v in c2_sums(*case)] == [_bits(v) for v in want], case


# ---------------------------------------------------------------------- c3

def test_c3_diagonal_value():
    for M in (5, 7, 11, 13):
        for chi in enumerate_characters(M)[1:]:
            raw = c3_raw(1, M, chi)
            closed = c3_closed(1, M, chi)
            assert round(raw.value.real) == M * (M - 2)
            assert abs(raw.value.imag) < 1e-9
            assert round(closed.value.real) == M * (M - 2)


def test_c3_raw_equals_closed_exhaustive():
    for M in (5, 7, 11, 13):
        for chi in enumerate_characters(M)[1:]:
            for v in range(1, M):
                raw = c3_raw(v, M, chi)
                closed = c3_closed(v, M, chi)
                assert abs(raw.value - closed.value) <= identity_tolerance(
                    raw.terms + closed.terms, abs(raw.value), abs(closed.value))
                if v % M != 1:
                    assert abs(raw.value) <= 3 * M


def test_c3_definition_route():
    # c3(v) = sum over u mod M of D(u) conj(D(u vbar)), straight from the definition
    M = 7
    for chi in enumerate_characters(M)[1:]:
        for v in range(1, M):
            vbar = _inv(v, M)
            definition = sum(
                d_sum(u, M, chi).value * d_sum(u * vbar % M, M, chi).value.conjugate()
                for u in range(M))
            assert abs(definition - c3_raw(v, M, chi).value) < 1e-8


def test_c3_fully_closed_form():
    # off the diagonal the value collapses to -M(1 + conj(chi)(vbar))
    for M in (5, 11):
        for chi in enumerate_characters(M)[1:]:
            for v in range(2, M):
                want = -M * (1 + chi.eval(_inv(v, M)).conjugate())
                assert abs(c3_closed(v, M, chi).value - want) < 1e-9


def test_c3_rejects_bad_input():
    chi = DirichletCharacter.legendre(7)
    with pytest.raises(NotUnit):
        c3_raw(7, 7, chi)
    with pytest.raises(PrincipalCharacter):
        c3_closed(1, 7, DirichletCharacter.principal(7))


# ---------------------------------------------------------------------- c4

def _c4_delta_oracle(c2, q2t, p, pp, q1, m2, M, h, n, rp, l1, l2):
    """Collapse the a-sum to a congruence over unit pairs (x, y)."""
    a1, a2, big = rp * l1, rp * l2, rp * l1 * l2
    m1 = (c2 - q2t * _inv(p, a1)) % a1
    m1p = (c2 - q2t * _inv(pp, a2)) % a2
    t1 = _inv(q1 * q2t, a1) * (m2 * M * h) % a1
    t2 = _inv(q1 * q2t, a2) * (m2 * M * h) % a2
    total = 0j
    for x in _units(a1):
        xb = _inv(x, a1)
        for y in _units(a2):
            yb = _inv(y, a2)
            if (t1 * xb * l2 + t2 * yb * l1 + n) % big == 0:
                total += _e(m1 * x % a1, a1) * _e(m1p * y % a2, a2)
    return big * total


def test_c4_against_independent_oracle():
    rng = Lcg(43)
    checked = 0
    while checked < 10:
        args = (1 + rng.below(9), rng.choice([1, 2]), rng.choice([11, 13]),
                rng.choice([17, 19]), rng.choice([1, 2]), rng.choice([1, 2, 3]),
                101, rng.choice([1, 2]), rng.below(105), 3, 5, 7)
        (c2, q2t, p, pp, q1, m2, M, h, n, rp, l1, l2) = args
        got = c4_correlation(*args)
        want = _c4_delta_oracle(*args)
        assert abs(got.value - want) <= identity_tolerance(
            2 * got.terms, abs(got.value), abs(want))
        checked += 1


def test_c4_degenerate_reduces_to_ramanujan_products():
    # with both first arguments = 0 the inner sums are Ramanujan sums
    rp, l1, l2 = 3, 5, 7
    a1, a2, big = rp * l1, rp * l2, rp * l1 * l2
    p, pp = 11, 17
    q2t_p = _inv(p, a1)
    # choose c2 = q2t * pbar mod a1 AND mod a2: force with q2t=1 via CRT
    # simplest degenerate family: q2t = 0 is not allowed, so check against
    # the explicit sum instead with m1 arguments manually zeroed via oracle.
    for n in (0, 1, 8):
        got = c4_correlation(0, 1, p, pp, 1, 1, 101, 1, n, rp, l1, l2)
        m1 = (0 - _inv(p, a1)) % a1
        m1p = (0 - _inv(pp, a2)) % a2
        t1 = (101) % a1
        t2 = (101) % a2
        want = sum(
            kloosterman_oracle(m1, t1 * a % a1, a1)
            * kloosterman_oracle(m1p, t2 * a % a2, a2) * _e(a * n % big, big)
            for a in range(big))
        assert abs(got.value - want) <= identity_tolerance(
            2 * got.terms, abs(got.value), abs(want))
    # a genuinely degenerate Kloosterman row: S(0, y; c) = ramanujan(c, y)
    for y in range(a1):
        assert abs(kloosterman_oracle(0, y, a1) - ramanujan_sum(a1, y)) < 1e-9


def test_c4_rejects_inconsistent_parameters():
    with pytest.raises(ParameterInconsistency):
        c4_correlation(1, 1, 3, 11, 1, 1, 101, 1, 0, 3, 5, 7)  # p | r'ell
    with pytest.raises(ParameterInconsistency):
        c4_correlation(1, 1, 11, 13, 5, 1, 101, 1, 0, 5, 3, 7)  # q1 | r'ell


# ------------------------------------------------------------------ voronoi

def _voronoi_raw_oracle(n, m, mp, c, d, r, l, M):
    B = m * c // mp
    cc = c // d
    total = 0j
    for b in _units(B):
        if cc > 1 and (r * l * _inv(M % cc, cc) + b * mp) % cc != 0:
            continue
        total += _e((_inv(b, B) * n) % B, B)
    return total


def test_voronoi_raw_equals_closed_small_grid():
    for m in (1, 2, 3):
        for c in (1, 2, 4, 6, 9, 12):
            for d in [x for x in (1, 2, 3, 4, 6, 12) if c % x == 0]:
                for mp in [x for x in range(1, 13) if (m * c) % x == 0]:
                    cc = c // d
                    if math.gcd(mp, cc) % 5 == 0:
                        continue
                    for (r, n) in ((1, 1), (2, 3), (4, 6), (6, 4)):
                        raw = voronoi_char_sum_raw(n, m, mp, c, d, r, 5, 13)
                        closed = voronoi_char_sum_closed(n, m, mp, c, d, r, 5, 13)
                        assert abs(raw.value - _voronoi_raw_oracle(n, m, mp, c, d, r, 5, 13)) < 1e-9
                        assert abs(raw.value - closed.value) <= identity_tolerance(
                            raw.terms + closed.terms, abs(raw.value), abs(closed.value))


def test_voronoi_vanishing_strata():
    # c1 does not divide r -> 0
    raw = voronoi_char_sum_raw(1, 1, 4, 8, 1, 3, 5, 13)
    closed = voronoi_char_sum_closed(1, 1, 4, 8, 1, 3, 5, 13)
    assert math.gcd(4, 8) == 4 and 3 % 4 != 0
    assert abs(raw.value) < 1e-12 and closed.value == 0j
    # q2 does not divide n -> 0
    raw = voronoi_char_sum_raw(1, 2, 1, 2, 2, 4, 5, 13)
    closed = voronoi_char_sum_closed(1, 2, 1, 2, 2, 4, 5, 13)
    assert closed.value == 0j
    assert abs(raw.value) < 1e-12


def test_voronoi_rejects_structure_failures():
    with pytest.raises(ParameterInconsistency):
        voronoi_char_sum_raw(1, 1, 3, 4, 1, 1, 5, 13)  # m' does not divide m*c
    with pytest.raises(ParameterInconsistency):
        voronoi_char_sum_raw(1, 1, 1, 4, 3, 1, 5, 13)  # d does not divide c
    with pytest.raises(ParameterInconsistency):
        voronoi_char_sum_closed(1, 1, 1, 13, 1, 1, 5, 13)  # gcd(M, c) > 1
    with pytest.raises(ParameterInconsistency):
        voronoi_char_sum_closed(1, 1, 5, 10, 2, 1, 5, 13)  # ell | c1



def _voronoi_block_rows(m, m_prime, c, d, r_max=6):
    """Every admissible (r, ell, M) of one group, ell in {2, 3, 5, 7} and
    M in {13, 29, 31}, in (ell, M, r) order."""
    c1 = math.gcd(m_prime, c // d)
    return [(r, ell, M) for ell in (2, 3, 5, 7) if c1 % ell
            for M in (13, 29, 31) if math.gcd(M, c) == 1 for r in range(1, r_max + 1)]


# (m, m', c, d): c1 = 4 (r = 3 vanishes), q2 = 2 (odd n vanish), c2 = 1, c = 1,
# and two groups whose c/d has two primes
VORONOI_BLOCKS = [(1, 4, 8, 1), (2, 1, 2, 2), (1, 1, 12, 1), (3, 1, 1, 1),
                  (2, 3, 12, 2), (3, 9, 30, 5)]


def _hex(z):
    return complex(z).real.hex(), complex(z).imag.hex()


@pytest.mark.parametrize("group", VORONOI_BLOCKS)
def test_voronoi_block_entries_equal_one_entry_calls(group):
    rows = _voronoi_block_rows(*group)
    ns = list(range(1, 7))
    raw, counts = voronoi_char_sums_raw(ns, rows, *group)
    closed = voronoi_char_sums_closed(ns, rows, *group)
    assert len({(ell, M) for _, ell, M in rows}) > 1
    for i, (r, ell, M) in enumerate(rows):
        for j, n in enumerate(ns):
            raw_s = voronoi_char_sum_raw(n, *group, r, ell, M)
            closed_s = voronoi_char_sum_closed(n, *group, r, ell, M)
            assert _hex(raw[i, j]) == _hex(raw_s.value)
            assert _hex(closed[i, j]) == _hex(closed_s.value)
            assert counts[i] == raw_s.terms
            assert raw_s.est_error.hex() == (UNIT_EPS * max(int(counts[i]), 1)).hex()
            want = min(UNIT_EPS * abs(complex(closed[i, j])), 1e-12 * closed_s.terms)
            assert closed_s.est_error.hex() == want.hex()
    if group in VORONOI_BLOCKS[:2]:  # the two blocks with vanishing rows
        assert (closed == 0).any()


@pytest.mark.parametrize("bad_row", [
    (0, 3, 13),   # r < 1
    (1, 4, 13),   # ell not prime
    (1, 3, 15),   # M not prime
    (1, 3, 2),    # M even
    (1, 3, 3),    # gcd(M, c) > 1
    (1, 2, 13),   # ell | c1
])
def test_voronoi_block_rejects_an_inadmissible_row(bad_row):
    group = (1, 2, 12, 2)  # c/d = 6, c1 = 2
    rows = [(1, 5, 13), (2, 7, 29), bad_row, (3, 5, 13)]
    r, ell, M = bad_row
    for kernel, scalar in ((voronoi_char_sums_raw, voronoi_char_sum_raw),
                           (voronoi_char_sums_closed, voronoi_char_sum_closed)):
        with pytest.raises(ParameterInconsistency) as from_scalar:
            scalar(1, *group, r, ell, M)
        with pytest.raises(ParameterInconsistency) as from_block:
            kernel((1, 2), rows, *group)
        assert str(from_block.value) == str(from_scalar.value)


# ------------------------------------------------------------ twisted split

def test_twisted_split_example():
    # (n, p, M, r, ell, c) = (1, 3, 5, 1, 2, 2), every psi mod 3
    for psi in enumerate_characters(3):
        lhs, rhs1, rhs2 = twisted_split_check(1, 3, 5, 1, 2, 2, psi)
        assert rhs1 is not None and rhs2 is not None
        tol = identity_tolerance(lhs.terms + rhs1.terms, abs(lhs.value), abs(rhs1.value))
        assert abs(lhs.value - rhs1.value) <= tol
        tol = identity_tolerance(rhs1.terms + rhs2.terms, abs(rhs1.value), abs(rhs2.value))
        assert abs(rhs1.value - rhs2.value) <= tol


def test_twisted_split_vanishes_when_M_divides_c():
    for psi in enumerate_characters(3):
        lhs, rhs1, rhs2 = twisted_split_check(1, 3, 5, 1, 2, 5, psi)
        assert rhs1 is None and rhs2 is None
        assert abs(lhs.value) <= identity_tolerance(lhs.terms, abs(lhs.value), 0.0)


def test_twisted_split_p_divides_c_gates_rhs2():
    for psi in enumerate_characters(3):
        lhs, rhs1, rhs2 = twisted_split_check(1, 3, 7, 1, 2, 3, psi)
        assert rhs1 is not None and rhs2 is None
        assert abs(lhs.value - rhs1.value) <= identity_tolerance(
            lhs.terms + rhs1.terms, abs(lhs.value), abs(rhs1.value))


def test_twisted_split_rejects_bad_parameters():
    psi = DirichletCharacter.from_index(3, 1)
    with pytest.raises(ParameterInconsistency):
        twisted_split_check(1, 3, 5, 5, 2, 1, psi)  # gcd(r ell, M) > 1
    with pytest.raises(ModulusMismatch):
        twisted_split_check(1, 5, 7, 1, 2, 1, psi)  # psi modulus mismatch


# ------------------------------------------------------------ value objects

def test_expsumvalue_invariants():
    s = kloosterman(3, 4, 101)
    assert abs(s.value) <= s.terms + s.est_error
    assert s.est_error <= 1e-12 * s.terms
    with pytest.raises(Exception):
        ExpSumValue(5.0 + 0j, 2, 0.0)
