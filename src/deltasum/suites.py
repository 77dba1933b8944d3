"""Named, reproducible verification campaigns.

Every suite walks a deterministic grid (seeded through the documented LCG
when it is random), evaluates the raw and closed-form routes of one
identity or one bound, and reports the worst normalized deviation and its
witness.  Pass thresholds are the owning modules' tolerances and screen
slacks their error bounds (`bessel-decay`'s two thresholds, NEGLIGIBLE and
TRIVIAL_RATIO_CEILING, and `c3`'s C3_DIAGONAL_TOLERANCE belong to no
kernel and live here): the suites add no slack of their own.

Only this module sweeps cases and builds reports; the kernels only
compute.  One accumulator, `_Sweep`, keeps the bookkeeping of every
suite, so all twelve share one witness rule and one pass rule.  The
witness is the first case that reaches the maximum: a case replaces the
running worst only if its deviation is strictly larger, and the first
case offered always sets it.  A suite passes when its worst deviation is
at most its ceiling: 1.0 for the normalized deviations, 0.0 for the exact
checks (`reciprocity`, `exponent`) and the |D(u; M)|/sqrt(M) ceiling 4.0
for `dsum-cancel`.

Each suite has a matching *_case function that re-evaluates one witness,
so a stored report can be re-checked bit for bit.  A suite declares only
the keywords it reads; `run_suite` rejects any other with InvalidValue.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np

from . import expsums
from .characters import DirichletCharacter
from .errors import BudgetExceeded, InvalidValue
from .exponent import minimize_max, paper_bound_problem, staged_elimination
from .expsums import (
    c1_sums,
    c2_sums,
    c3_closed,
    c3_raw,
    c4_correlation,
    d_sum,
    identity_tolerance,
    kloosterman,
    psi_average_closed,
    psi_average_raw,
    psi_average_sums_closed,
    psi_average_sums_raw,
    twisted_split_check,
    voronoi_char_sum_closed,
    voronoi_char_sum_raw,
    voronoi_char_sums_closed,
    voronoi_char_sums_raw,
)
from .numcore import RationalAngle, angle_add, divisor_count, mod_inv, primes_between
from .oscillatory import (
    TOY_PARAMS,
    TOY_THETA,
    WindowFunction,
    bessel_j,
    integral_value_and_error,
    transition_cutoff,
)
from .scan import Lcg, ScanReport


class _Sweep:
    """Case count, worst deviation and witness of one suite run, and its clock.

    `add` takes cases one at a time (or a block whose worst is known);
    `offer` takes a batch of deviations that only nominate candidates.  In
    grid order, a batched case is re-evaluated through its scalar *_case
    function when its batched deviation exceeds the running worst minus its
    slack, and only that scalar value is compared and kept.  While every
    slack bounds |batched - scalar|, a skipped case could not have raised
    the worst, so the result is exactly that of the case-by-case sweep.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.cases, self.worst, self.witness = 0, 0.0, None

    def add(self, witness, dev, count=1):
        if dev > self.worst or not self.cases:
            self.worst, self.witness = dev, witness
        self.cases += count

    def offer(self, devs, slacks, witness_of, case_fn):
        start = self.cases
        # Case j's scalar deviation is at least devs[j] - slacks[j], so the
        # running worst before case i is at least floor[i] >= worst; only a
        # case with devs[i] > floor[i] - slacks[i] can raise it, and only
        # cases with devs > worst - slacks can pass that or raise floor.
        maybe = devs > self.worst - slacks
        maybe[:1] |= start == 0  # the first case offered always sets the witness
        idx = np.flatnonzero(maybe)
        d, s = devs[idx], slacks[idx]
        floor = np.fmax.accumulate(np.concatenate(([self.worst], d[:-1] - s[:-1])))
        for i in idx[(d > floor - s) | (idx + start == 0)].tolist():
            if devs[i] > self.worst - slacks[i] or start + i == 0:
                witness = witness_of(i)
                self.add(witness, case_fn(*witness))
        self.cases = start + devs.size

    def report(self, name, grid, ceiling=1.0, notes=None):
        runtime_ms = int((time.perf_counter() - self.t0) * 1000)
        witness = self.witness
        if witness is not None:
            witness = tuple(x.item() if hasattr(x, "item") else x for x in witness)
        notes = {k: (float(v) if isinstance(v, float) else v) for k, v in (notes or {}).items()}
        return ScanReport(name, grid, int(self.cases), float(self.worst), witness,
                          bool(self.worst <= ceiling), runtime_ms, notes)


def _deviation(lhs, rhs, tolerance_scale=1.0):
    """|LHS-RHS| normalized by the identity tolerance (<= 1 passes)."""
    tol = identity_tolerance(lhs.terms + rhs.terms, abs(lhs.value), abs(rhs.value),
                             tolerance_scale)
    return abs(lhs.value - rhs.value) / tol


def _batched_deviations(lhs, rhs, terms, tolerance_scale):
    """_deviation of every entry of two complex arrays of values, bit for
    bit.  The magnitudes are np.hypot of the real and imaginary parts: both
    it and Python's abs(complex) call libm's hypot, whereas np.abs may take
    a SIMD kernel whose last bit differs."""
    def magnitude(z):
        return np.hypot(z.real, z.imag)

    tol = identity_tolerance(terms, magnitude(lhs), magnitude(rhs), tolerance_scale)
    return magnitude(lhs - rhs) / tol


# ---------------------------------------------------------------- psi average

def psi_average_case(r, m, c, p, M, tolerance_scale=1.0):
    return _deviation(psi_average_raw(r, m, c, p, M), psi_average_closed(r, m, c, p, M),
                      tolerance_scale)


def suite_psi_average(grid=None, tolerance_scale=1.0):
    """Raw = closed for the psi-average, one (p, M, c) block of (r, m)
    cases at a time."""
    sweep = _Sweep()
    grid = grid or {"p": [3, 5, 7], "M": [11, 13], "c_max": 6, "r_max": 10, "m_max": 10}
    pairs = [(r, m) for r in range(1, grid["r_max"] + 1) for m in range(1, grid["m_max"] + 1)]
    skipped = 0

    def case(*witness):
        return psi_average_case(*witness, tolerance_scale=tolerance_scale)

    for p in grid["p"]:
        for M in grid["M"]:
            for c in range(1, grid["c_max"] + 1):
                if math.gcd(p, c * M) != 1:
                    skipped += len(pairs)
                    continue
                raw = psi_average_sums_raw(pairs, c, p, M)
                closed = psi_average_sums_closed(pairs, c, p, M)
                lhs = np.array([v.value for v in raw], dtype=np.complex128)
                rhs = np.array([v.value for v in closed], dtype=np.complex128)
                terms = np.array([a.terms + b.terms for a, b in zip(raw, closed)])
                devs = _batched_deviations(lhs, rhs, terms, tolerance_scale)
                sweep.offer(devs, np.zeros_like(devs),
                            lambda i, c=c, p=p, M=M: (*pairs[i], c, p, M), case)
    return sweep.report("psi-average", dict(grid, skipped=skipped))


# ---------------------------------------------------------------- reciprocity

def reciprocity_case(a, b, n):
    """abar*n/b + bbar*n/a = n/(ab) in Q/Z, exactly."""
    lhs = angle_add(RationalAngle(mod_inv(a, b) * n, b), RationalAngle(mod_inv(b, a) * n, a))
    rhs = RationalAngle(n, a * b)
    return 0.0 if lhs == rhs else 1.0


RECIPROCITY_MAX_MODULUS = 10**6  # a, b and n are drawn from 1..this


def suite_reciprocity(trials=10**4, seed=1):
    """Exact Q/Z reciprocity at seeded coprime (a, b) and n.  More trials
    than expsums.DEFAULT_BUDGET raise BudgetExceeded before any draw."""
    if trials > expsums.DEFAULT_BUDGET:
        raise BudgetExceeded(f"{trials} trials exceed the budget {expsums.DEFAULT_BUDGET}")
    sweep = _Sweep()
    rng = Lcg(seed)
    while sweep.cases < trials:
        a = 1 + rng.below(RECIPROCITY_MAX_MODULUS)
        b = 1 + rng.below(RECIPROCITY_MAX_MODULUS)
        if math.gcd(a, b) != 1:
            continue
        n = 1 + rng.below(RECIPROCITY_MAX_MODULUS)
        sweep.add((a, b, n), reciprocity_case(a, b, n))
    grid = {"trials": trials, "seed": seed, "max_modulus": RECIPROCITY_MAX_MODULUS}
    return sweep.report("reciprocity", grid, ceiling=0.0)


# ------------------------------------------------------------------------ c1

def c1_case(c, p, M, n, ell, tolerance_scale=1.0):
    return _deviation(*c1_sums(c, p, M, n, ell), tolerance_scale)


def suite_c1(c_max=20, seed=2, tolerance_scale=1.0):
    sweep = _Sweep()
    rng = Lcg(seed)
    small_primes = [3, 5, 7, 11, 13]
    skipped = 0
    for c in range(1, c_max + 1):
        for _try in range(3):
            p = rng.choice(small_primes)
            M = rng.choice(small_primes)
            n = 1 + rng.below(20)
            ell = rng.choice([2, 3, 5])
            if math.gcd(p * M, c) != 1:
                skipped += 1
                continue
            sweep.add((c, p, M, n, ell), c1_case(c, p, M, n, ell, tolerance_scale))
    return sweep.report("c1", {"c_max": c_max, "seed": seed, "skipped": skipped})


# ------------------------------------------------------------------------ c2

def c2_case(M, chi_index, p, c, n, ell, tolerance_scale=1.0):
    chi = DirichletCharacter.from_index(M, chi_index)
    return _deviation(*c2_sums(M, chi, p, c, n, ell), tolerance_scale)


def suite_c2(M_list=(5, 7), seed=3, tolerance_scale=1.0):
    sweep = _Sweep()
    rng = Lcg(seed)
    for M in M_list:
        for chi_index in range(1, M - 1):
            for _try in range(4):
                p = rng.choice([3, 11, 13])
                c = 1 + rng.below(6)
                n = 1 + rng.below(10)
                ell = rng.choice([2, 3, 5])
                if math.gcd(p * c, M) != 1:
                    continue
                sweep.add((M, chi_index, p, c, n, ell),
                          c2_case(M, chi_index, p, c, n, ell, tolerance_scale))
    return sweep.report("c2", {"M_list": list(M_list), "seed": seed})


# ------------------------------------------------------------------------ c3

def c3_case(M, chi_index, v, tolerance_scale=1.0):
    """Composite deviation: raw-vs-closed mismatch, plus the exact M(M-2)
    check at v = 1, plus the |value|/(3M) ceiling ratio off the diagonal."""
    return _c3_check(M, DirichletCharacter.from_index(M, chi_index), v, tolerance_scale)[0]


def _c3_check(M, chi, v, tolerance_scale):
    """(c3_case's deviation, the closed-form value) for one character."""
    raw = c3_raw(v, M, chi)
    closed = c3_closed(v, M, chi)
    dev = _deviation(raw, closed, tolerance_scale)
    if v % M == 1:
        dev = max(dev, float(abs(round(raw.value.real) - M * (M - 2))),
                  abs(raw.value - round(raw.value.real)) / C3_DIAGONAL_TOLERANCE)
    else:
        dev = max(dev, abs(raw.value) / (3 * M))
    return dev, closed


def suite_c3(M_list=(5, 7, 11, 13), tolerance_scale=1.0):
    """Raw = closed for every chi and unit v; at v = 1 the value is M(M-2)
    exactly; off v = 1 the magnitude stays below 3M."""
    sweep = _Sweep()
    observed_off_max = 0.0
    for M in M_list:
        for chi_index in range(1, M - 1):
            chi = DirichletCharacter.from_index(M, chi_index)
            for v in range(1, M):
                dev, closed = _c3_check(M, chi, v, tolerance_scale)
                if v != 1:
                    observed_off_max = max(observed_off_max, abs(closed.value) / M)
                sweep.add((M, chi_index, v), dev)
    notes = {"observed_max_over_M_off_diagonal": observed_off_max}
    return sweep.report("c3", {"M_list": list(M_list)}, notes=notes)


# ------------------------------------------------------------------------ c4

def _c4_sample(rng):
    """One admissible random instance; resamples deterministically."""
    while True:
        r_prime = rng.choice([1, 2, 3, 4, 5])
        ell = rng.choice([3, 5, 7])
        ell_prime = rng.choice([3, 5, 7])
        if ell == ell_prime:
            continue
        p = rng.choice([11, 13, 17, 19])
        p_prime = rng.choice([11, 13, 17, 19])
        q1 = rng.choice([1, 2, 3])
        q2t = rng.choice([1, 2])
        m2 = rng.choice([1, 2, 3])
        M = rng.choice([101, 103])
        h = rng.choice([1, 2])
        big = r_prime * ell * ell_prime
        if math.gcd(q1 * q2t, big) != 1:
            continue
        if math.gcd(p, r_prime * ell) != 1 or math.gcd(p_prime, r_prime * ell_prime) != 1:
            continue
        n = rng.below(big)
        c2 = 1 + rng.below(9)
        return (c2, q2t, p, p_prime, q1, m2, M, h, n, r_prime, ell, ell_prime)


def c4_case(args):
    """Ratio |c4| / (10 sqrt(Q) sqrt(r'ell) sqrt(r'ell') sqrt(gcd(n, Q)))."""
    (c2, q2t, p, p_prime, q1, m2, M, h, n, r_prime, ell, ell_prime) = args
    val = c4_correlation(*args)
    big = r_prime * ell * ell_prime
    bound = 10.0 * math.sqrt(big * (r_prime * ell) * (r_prime * ell_prime)
                             * max(1, math.gcd(n, big)))
    return abs(val.value) / bound


def suite_c4(instances=200, seed=4):
    sweep = _Sweep()
    rng = Lcg(seed)
    for _i in range(instances):
        args = _c4_sample(rng)
        sweep.add(args, c4_case(args))
    # x -> fl(10 x) is monotone, so this is the largest of the cases' 10 * dev
    notes = {"observed_max_normalized_ratio": 10.0 * sweep.worst}
    return sweep.report("c4", {"instances": instances, "seed": seed}, notes=notes)


# ---------------------------------------------------------------- voronoi

def voronoi_case(n, m, m_prime, c, d, r, ell, M, tolerance_scale=1.0):
    raw = voronoi_char_sum_raw(n, m, m_prime, c, d, r, ell, M)
    closed = voronoi_char_sum_closed(n, m, m_prime, c, d, r, ell, M)
    return _deviation(raw, closed, tolerance_scale)


def suite_voronoi_char(grid=None, tolerance_scale=1.0):
    """Raw = closed for the beta-sum, one (m, m', c, d) group of
    (ell, M, r, n) cases at a time."""
    sweep = _Sweep()
    grid = grid or {"m_max": 3, "c_max": 12, "m_prime_max": 12,
                    "ell": [3, 5, 7], "M": [13, 29], "r_max": 8, "n_max": 8}
    vanishing = 0
    rs = range(1, grid["r_max"] + 1)
    ns = range(1, grid["n_max"] + 1)

    def case(*witness):
        return voronoi_case(*witness, tolerance_scale=tolerance_scale)

    for m in range(1, grid["m_max"] + 1):
        for c in range(1, grid["c_max"] + 1):
            for d in [x for x in range(1, c + 1) if c % x == 0]:
                for m_prime in [x for x in range(1, grid["m_prime_max"] + 1)
                                if (m * c) % x == 0]:
                    c1 = math.gcd(m_prime, c // d)
                    # (ell, M, r) order, so rows x ns flattens in grid order
                    rows = [(r, ell, M) for ell in grid["ell"] if c1 % ell
                            for M in grid["M"] if math.gcd(M, c) == 1 for r in rs]
                    if not rows:
                        continue
                    raw, counts = voronoi_char_sums_raw(ns, rows, m, m_prime, c, d)
                    closed = voronoi_char_sums_closed(ns, rows, m, m_prime, c, d).ravel()
                    terms = np.repeat(counts, len(ns)) + m * c // m_prime
                    devs = _batched_deviations(raw.ravel(), closed, terms, tolerance_scale)
                    vanishing += int(np.count_nonzero(closed == 0))

                    def witness_of(i, m=m, m_prime=m_prime, c=c, d=d, rows=rows):
                        row, n = divmod(i, len(ns))
                        r, ell, M = rows[row]
                        return (ns[n], m, m_prime, c, d, r, ell, M)

                    sweep.offer(devs, np.zeros_like(devs), witness_of, case)
    return sweep.report("voronoi-char", dict(grid, vanishing_cases=vanishing))


# ------------------------------------------------------------- twisted split

def twisted_split_case(n, p, M, r, ell, c, psi_index, tolerance_scale=1.0):
    psi = DirichletCharacter.from_index(p, psi_index)
    lhs, rhs1, rhs2 = twisted_split_check(n, p, M, r, ell, c, psi)
    if rhs1 is None:  # M | c: the sum must vanish
        return abs(lhs.value) / identity_tolerance(lhs.terms, abs(lhs.value), 0.0,
                                                   tolerance_scale)
    dev = _deviation(lhs, rhs1, tolerance_scale)
    if rhs2 is not None:
        dev = max(dev, _deviation(rhs1, rhs2, tolerance_scale))
    return dev


def suite_twisted_split(grid=None, tolerance_scale=1.0):
    sweep = _Sweep()
    grid = grid or {"p": [3, 5], "M": [7, 11], "c_max": 8,
                    "n": [1, 2], "r": [1, 3], "ell": [2, 5]}
    for p in grid["p"]:
        for M in grid["M"]:
            for c in range(1, grid["c_max"] + 1):
                for psi_index in range(p - 1):
                    for n in grid["n"]:
                        for r in grid["r"]:
                            for ell in grid["ell"]:
                                if math.gcd(r * ell, M) != 1:
                                    continue
                                sweep.add((n, p, M, r, ell, c, psi_index),
                                          twisted_split_case(n, p, M, r, ell, c, psi_index,
                                                             tolerance_scale))
    return sweep.report("twisted-split", dict(grid))


# ---------------------------------------------------------------------- weil

def weil_case(m, n, c):
    """|S(m,n;c)| / (d(c) gcd(m,n,c)^(1/2) c^(1/2) + est_error)."""
    s = kloosterman(m, n, c)
    bound = divisor_count(c) * math.sqrt(math.gcd(m, math.gcd(n, c)) * c)
    return abs(s.value) / (bound + s.est_error)


def suite_weil(c_max=2000, pairs_per_c=20, seed=5):
    """One kloosterman_screen over the whole grid locates the candidates,
    which weil_case re-evaluates by the fsum route."""
    expsums.check_budget(max(c_max, 1), expsums.DEFAULT_BUDGET)  # before drawing the grid
    sweep = _Sweep()
    rng = Lcg(seed)
    pairs = max(pairs_per_c, 0)
    size = 2 * pairs * max(c_max, 0)
    draws = (rng.next_u32_block(size) % np.uint64(10**6)).astype(np.int64) + 1  # rng.below
    ms, ns = draws[0::2], draws[1::2]
    cs = np.repeat(np.arange(1, c_max + 1, dtype=np.int64), pairs)
    sums, est, gap, divisors = expsums.kloosterman_screen(ms, ns, cs)
    # gcd(m, n, c), taking the small c first: fewer Euclid steps, same integers
    scale = divisors * np.sqrt(np.gcd(np.gcd(ms, cs), ns) * cs) + est
    sweep.offer(np.abs(sums) / scale, gap / scale,
                lambda i: (int(ms[i]), int(ns[i]), int(cs[i])), weil_case)
    return sweep.report("weil", {"c_max": c_max, "pairs_per_c": pairs_per_c, "seed": seed})


# --------------------------------------------------------------- dsum cancel

def dsum_cancel_case(M, chi_index, u):
    chi = DirichletCharacter.from_index(M, chi_index)
    return abs(d_sum(u, M, chi).value) / math.sqrt(M)


DSUM_CEILING = 4.0  # the pass ceiling of |D(u; M)| / sqrt(M)


def suite_dsum_cancel(M_max=300):
    """expsums.dsum_screen screens every (chi, u != 0) of a prime M, in
    grid order, with its gap over sqrt(M) as slack."""
    sweep = _Sweep()
    for M in primes_between(2, M_max + 1):
        rows, gap = expsums.dsum_screen(M)
        devs = (rows[:, 1:] / math.sqrt(M)).ravel()  # drop u = 0
        sweep.offer(devs, np.full(devs.size, gap / math.sqrt(M)),
                    lambda i, M=M: (M, i // (M - 1) + 1, i % (M - 1) + 1), dsum_cancel_case)
    return sweep.report("dsum-cancel", {"M_max": M_max, "ceiling": DSUM_CEILING},
                        ceiling=DSUM_CEILING)


# -------------------------------------------------------------- bessel decay

TOY_L = 10.0 ** (36.0 / 77.0)
TOY_P = 10.0 ** (80.0 / 77.0)
DECAY_EPS = 0.01
DECAY_CUTOFF = transition_cutoff(TOY_PARAMS.N, TOY_L, TOY_P, TOY_PARAMS.M, TOY_PARAMS.m,
                                 DECAY_EPS)
NEGLIGIBLE = 1e-15  # the |I| ceiling once t >= 4
C3_DIAGONAL_TOLERANCE = 1e-6  # c3 at v = 1: |raw - round(raw.real)| per unit of deviation
TRIVIAL_RATIO_CEILING = 100.0  # the second-derivative bound, with a generous constant


def _decay_row(t):
    """|I| at c = t * DECAY_CUTOFF, its ratio to the trivial bound c P M m/(N L),
    and whether it is negligible."""
    c, base = t * DECAY_CUTOFF, TOY_PARAMS
    window = WindowFunction("plateau", TOY_THETA)
    val = float(abs(integral_value_and_error(replace(base, c=c), window)[0]))
    trivial_scale = c * TOY_P * base.M * base.m / (base.N * TOY_L)
    return {"multiplier": float(t), "c": float(c), "abs_integral": val,
            "trivial_ratio": val / trivial_scale, "negligible": bool(val <= NEGLIGIBLE)}


def bessel_decay_case(kind, *params):
    """Re-evaluate one bessel-decay witness at the toy parameters."""
    if kind == "recurrence":
        nu, x = int(params[0]), float(params[1])
        j = bessel_j(nu, x)
        res = abs(bessel_j(nu - 1, x) + bessel_j(nu + 1, x) - (2.0 * nu / x) * j)
        return res / (1e-9 * max(1.0, abs(j)))
    row = _decay_row(float(params[0]))
    if kind == "negligible":
        return row["abs_integral"] / NEGLIGIBLE
    return row["trivial_ratio"] / TRIVIAL_RATIO_CEILING


def suite_bessel_decay(multipliers=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0)):
    """For each multiplier t, |I| <= 100 times the trivial bound, and
    |I| <= 1e-15 once t >= 4; plus the recurrence residual grid."""
    sweep = _Sweep()
    rows = [_decay_row(t) for t in multipliers]
    for t, row in zip(multipliers, rows):
        sweep.add(("trivial-bound", t), row["trivial_ratio"] / TRIVIAL_RATIO_CEILING)
        if t >= 4:
            sweep.add(("negligible", t), row["abs_integral"] / NEGLIGIBLE, count=0)
    for nu in range(6, 61, 6):
        for x in np.geomspace(0.1, 200.0, 12).tolist():
            sweep.add(("recurrence", nu, x), bessel_decay_case("recurrence", nu, x))
    toy = {k: v for k, v in asdict(TOY_PARAMS).items() if k != "c"}  # report key order
    grid = {"multipliers": list(multipliers), **toy, "L": TOY_L, "P": TOY_P,
            "eps": DECAY_EPS, "cutoff": DECAY_CUTOFF, "recurrence_nu": "6..60 step 6"}
    return sweep.report("bessel-decay", grid, notes={"rows": rows})


# ------------------------------------------------------------------ exponent

def suite_exponent():
    """The optimizer must land exactly on theta = 1/154, value = 115/154,
    by both the LP and the staged route, with and without the growth
    constraint 4 theta + xL <= xP."""
    sweep = _Sweep()
    expected_point = (Fraction(20, 77), Fraction(9, 77), Fraction(1, 154))
    expected_value = Fraction(115, 154)
    lp = minimize_max(paper_bound_problem())
    staged = staged_elimination(paper_bound_problem())
    free = minimize_max(paper_bound_problem(include_growth_constraint=False))
    growth_ok = free.point[0] >= 4 * free.point[2] + free.point[1]
    checks = [
        lp.value == expected_value,
        lp.point == expected_point,
        staged.point == lp.point and staged.value == lp.value,
        free.point == lp.point and free.value == lp.value,
        growth_ok,
        paper_bound_problem().feasible(lp.point),
    ]
    sweep.add(None, 0.0 if all(checks) else 1.0, count=len(checks))
    notes = {
        "theta": str(lp.point[2]),
        "xP": str(lp.point[0]),
        "xL": str(lp.point[1]),
        "value": str(lp.value),
        "active_terms": list(lp.active_terms),
        "unconstrained_matches": bool(free.point == lp.point),
        "growth_condition_satisfied_unconstrained": bool(growth_ok),
    }
    return sweep.report("exponent", {}, ceiling=0.0, notes=notes)


SUITES = {
    "psi-average": suite_psi_average,
    "reciprocity": suite_reciprocity,
    "c1": suite_c1,
    "c2": suite_c2,
    "c3": suite_c3,
    "c4": suite_c4,
    "voronoi-char": suite_voronoi_char,
    "twisted-split": suite_twisted_split,
    "weil": suite_weil,
    "dsum-cancel": suite_dsum_cancel,
    "bessel-decay": suite_bessel_decay,
    "exponent": suite_exponent,
}

SMOKE_OVERRIDES = {
    "psi-average": {"grid": {"p": [3], "M": [11], "c_max": 2, "r_max": 3, "m_max": 3}},
    "reciprocity": {"trials": 200},
    "c1": {"c_max": 8},
    "c2": {"M_list": (5,)},
    "c3": {"M_list": (5, 7)},
    "c4": {"instances": 20},
    "voronoi-char": {"grid": {"m_max": 2, "c_max": 6, "m_prime_max": 6,
                              "ell": [3], "M": [13], "r_max": 4, "n_max": 4}},
    "twisted-split": {"grid": {"p": [3], "M": [7], "c_max": 4,
                               "n": [1], "r": [1], "ell": [2]}},
    "weil": {"c_max": 200, "pairs_per_c": 5},
    "dsum-cancel": {"M_max": 60},
    "bessel-decay": {"multipliers": (0.5, 4.0)},
    "exponent": {},
}


def run_suite(name, preset="default", **kwargs):
    """Run one suite at a grid preset; keywords override the suite's own.

    A keyword given as None counts as not given.  Any other keyword the
    suite does not declare raises InvalidValue: no setting is ignored.  So
    does a tolerance_scale that is not finite and > 0.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    if preset not in ("default", "smoke"):
        raise KeyError(f"unknown grid preset {preset!r}")
    suite = SUITES[name]
    given = {key: value for key, value in kwargs.items() if value is not None}
    undeclared = sorted(set(given) - set(inspect.signature(suite).parameters))
    if undeclared:
        flags = ", ".join(f"{key} (--{key.replace('_', '-')})" for key in undeclared)
        raise InvalidValue(f"suite {name!r} does not take {flags}")
    scale = given.get("tolerance_scale", 1.0)
    if not (scale > 0 and math.isfinite(scale)):  # a scale <= 0 would switch every check off
        raise InvalidValue(f"tolerance_scale must be finite and > 0, got {scale}")
    overrides = SMOKE_OVERRIDES[name] if preset == "smoke" else {}
    return suite(**{**overrides, **given})
