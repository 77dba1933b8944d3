"""Complete exponential and character sums, raw and closed-form.

Conventions shared by every sum here:

* every reported sum is a correctly rounded fsum (fsum_rows) of its
  summands, nested where a sum holds sums, so results are reproducible
  and do not depend on the order of the terms;
* the raw sums take their roots of unity from the per-modulus tables
  unit_roots(c), which evaluate np.exp(2*pi*i*j/c) without reducing j/c;
  the closed forms evaluate theirs through RationalAngle, from the reduced
  fraction.  The two routes may differ in the last bits of a root;
* each result carries the summand count and a conservative bound on the
  accumulated rounding error (UNIT_EPS per tabulated root of unity);
* the raw direct-summation path is always available next to a closed
  form, and the verification suites compare the two - the closed form is
  never trusted alone;
* kloosterman_screen and dsum_screen only nominate cases and none of
  their values is ever reported, so only a bound on their distance from
  kloosterman and d_sum matters (their last bits may change with numpy's
  SIMD level).  With eps = 2**-53, a transform of size n is within C eps
  log2(n) |x| of exact in the 2-norm, taking C = 64 (C eps is
  TRANSFORM_EPS) for pocketfft's radix and Bluestein lengths (Bluestein
  runs three transforms of length below 4n and two chirp products); an
  n-D transform runs one along each axis, and the log2 of the sizes sum.
  Every prime power's row is Rader's: f holds n = phi(q) roots e(x/q)
  over the units x, each within UNIT_EPS, so |F| = |fftn(f)| = n and F
  is within (C eps log2 n + UNIT_EPS) n.  Each exact F_j is a Gauss sum
  of a character of the unit group, so |F_j| <= sqrt(q), and the square
  F**2 (sqrt(5) eps per complex product) is within 2 sqrt(q) (C eps
  log2 n + UNIT_EPS) n + sqrt(5) eps sqrt(q) n, with |F**2| <= sqrt(q) n.
  The inverse transform divides by sqrt(n) in the 2-norm and adds C eps
  log2 n of its input, so every entry of the row is within (3 C eps
  log2 q + 2 UNIT_EPS + sqrt(5) eps) q of S(1, a; q).  The p-adic descent
  scales an entry of the row of q' = q/p**j by phi(q)/phi(q') <= q/q', so
  every factor keeps the bound of its q.  A product of omega(c) factors,
  each of size at most q_i, and omega - 1 complex products is then within
  c (3 C eps log2 c + omega (2 UNIT_EPS + sqrt(5) eps) + (omega - 1)
  sqrt(5) eps) of S(m, n; c), to first order, and kloosterman's fsum is
  within UNIT_EPS phi(c) plus half an ulp.  For c <= 2000 (omega <= 4,
  c/phi(c) <= 4.375) the gap is at most 1.2e-12 phi(c), for c <= 10**7
  (omega <= 8, c/phi(c) < 5.3) at most 2.9e-12 phi(c): kloosterman_screen's
  SCREEN_SLACK phi(c) holds about 350 times over.  Measured against a
  long-double reference, the rows of the odd prime powers up to 2048 are
  within 0.97 eps log2(q) q and those of the powers of 2 within 0.34, and
  the default weil grid's gap is at most 5.9e-16 phi(c).

The sums share one array-level layer: a gather builds a summand matrix
with one row per parameter tuple (kloosterman_terms), and fsum_rows
reduces each row; _kloosterman_sums gathers many Kloosterman rows of one
modulus in blocks of at most 2**16 summands.  The block kernels evaluate
one parameter group at once: voronoi_char_sums_raw/_closed one (m, m',
c, d) for many (r, ell, M) rows and n, psi_average_sums_raw/_closed one
(c, p, M) for many (r, m).  The scalar functions are their one-entry
calls, so a block entry has the scalar value's bits.  Sweeps may locate
their worst case with an approximate kernel (kloosterman_screen, one FFT
row per prime power, or dsum_screen, one per character) that returns its
gap from the scalar function, but it only picks candidates: every number
that is reported still comes from the scalar function, reduced by fsum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum, gcd, log2

import numpy as np

from .characters import character_rows, discrete_log_table, unit_cycles, unit_roots
from .errors import (
    BudgetExceeded,
    InvalidValue,
    LimitExceeded,
    ModulusMismatch,
    NotUnit,
    ParameterInconsistency,
    PrincipalCharacter,
    SharedFactor,
)
from .numcore import (
    RationalAngle,
    check_modulus,
    check_odd_prime,
    euler_phi,
    factorize,
    is_prime,
    mod_inv,
    reduce_mod,
    table_memo,
)

UNIT_EPS = 2e-15  # per-summand error bound for a tabulated unit-modulus value
TRANSFORM_EPS = 64 * 2.0**-53  # C eps of a transform's bound (module docstring)
SCREEN_SLACK = 1e-9  # kloosterman_screen is within SCREEN_SLACK phi(c) (module docstring)
DEFAULT_BUDGET = 10**7


def breaks_contract(abs_values, terms, est_errors):
    """Where the ExpSumValue invariants fail: est_error > 1e-12 * max(terms, 1)
    or |value| > terms + est_error + 1e-9.  Built from operators only, so
    it takes scalars or arrays (elementwise)."""
    return (((est_errors > 1e-12 * terms) & (est_errors > 1e-12))
            | (abs_values > terms + est_errors + 1e-9))


_CONTRACT = "a sum breaks the contract est_error <= 1e-12 * terms, |value| <= terms + est_error"


@dataclass(frozen=True)
class ExpSumValue:
    """A complex sum with its summand count and rounding-error estimate."""

    value: complex
    terms: int
    est_error: float

    def __post_init__(self):
        object.__setattr__(self, "value", complex(self.value))
        object.__setattr__(self, "terms", int(self.terms))
        object.__setattr__(self, "est_error", float(self.est_error))
        if breaks_contract(abs(self.value), self.terms, self.est_error):
            raise LimitExceeded(_CONTRACT)


def identity_tolerance(total_terms, lhs_abs, rhs_abs, scale=1.0):
    """Allowed |LHS-RHS| for an identity over total_terms roots of unity.

    Root-of-unity rounding grows like sqrt(T) in the worst random-walk
    case, plus a relative guard on the magnitudes themselves.  Accepts
    scalars (returns a float) or arrays (elementwise, with the same IEEE
    operations, so each entry has the bits of the scalar call).
    """
    tol = 1e-6 * np.sqrt(np.maximum(total_terms, 1)) * scale + 1e-9 * (lhs_abs + rhs_abs)
    return tol if np.ndim(tol) else float(tol)


def fsum_rows(terms):
    """math.fsum of each row of a 2-D complex array, real and imaginary
    parts apart.  fsum is correctly rounded, so a row's value does not
    depend on the order of its terms."""
    return [complex(fsum(re), fsum(im))
            for re, im in zip(terms.real.tolist(), terms.imag.tolist())]


def check_rows(values, terms, est_error):
    """The ExpSumValue invariants over a batch of row values that is not
    wrapped in ExpSumValue objects."""
    if breaks_contract(np.abs(values), terms, est_error).any():
        raise LimitExceeded(_CONTRACT)


def _prime_power_inverses(q):
    """inv[x] = x**-1 mod the prime power q for every residue x (0 at the
    non-units).  In unit_cycles(q) the inverse of h(k) sits at -k, which is
    k along an axis of length 2: a reversed gather along the last axis."""
    cycles = unit_cycles(q)
    table = np.zeros(q, dtype=np.int64)
    table[cycles] = np.concatenate((cycles[..., :1], cycles[..., :0:-1]), axis=-1)
    return table


@table_memo
def units_and_inverses(c):
    """(units mod c ascending, their inverses), memoised per modulus by
    numcore.table_memo.

    Units come from sieving out the prime factors of c.  The inverses of a
    prime power come from its generator powers (_prime_power_inverses).  A
    composite c goes by CRT: x**-1 = sum over q || c of (x mod q)**-1 e_q
    mod c, with e_q = 1 mod q and 0 mod c/q; each term is below q c and the
    sum below c**2 <= 2**62, so one reduction at the end is exact in int64.
    For c = 1 the single residue 0 counts as the unit with inverse 0, so
    empty-modulus sums come out as a single e(0) term.
    """
    check_modulus(c)
    if c == 1:
        xs = np.array([0], dtype=np.int64)
        inv = np.array([0], dtype=np.int64)
    else:
        factors = factorize(c).factors
        mask = np.ones(c, dtype=bool)
        for p, _ in factors:
            mask[::p] = False
        xs = np.flatnonzero(mask).astype(np.int64, copy=False)
        if len(factors) == 1:
            inv = _prime_power_inverses(c)[xs]
        else:
            inv = np.zeros_like(xs)
            for p, k in factors:
                q = p ** k
                r = c // q
                inv += _prime_power_inverses(q)[reduce_mod(xs.copy(), q)] * (r * pow(r, -1, q))
            reduce_mod(inv, c)
    xs.setflags(write=False)
    inv.setflags(write=False)
    return xs, inv


def check_budget(c, budget):
    if c < 1:
        raise InvalidValue(f"modulus must be positive, got {c}")
    if c > budget:
        raise BudgetExceeded(f"modulus {c} exceeds the summation budget {budget}")


def kloosterman_terms(ms, ns, c, budget=DEFAULT_BUDGET):
    """Summands of S(m, n; c) for every pair (m, n) of ms, ns at once.

    Row i holds e((m_i x + n_i x^-1)/c) over the units x mod c ascending;
    reduce it with fsum_rows for the reported value.
    """
    check_budget(c, budget)
    xs, inv = units_and_inverses(c)
    # In place: fresh temporaries of this size cost more than the arithmetic.
    idx = np.multiply.outer(np.array([m % c for m in ms], dtype=np.int64), xs)
    idx += np.multiply.outer(np.array([n % c for n in ns], dtype=np.int64), inv)
    return unit_roots(c)[reduce_mod(idx, c)]


def kloosterman(m, n, c, budget=DEFAULT_BUDGET):
    """S(m, n; c) = sum over units x mod c of e((m x + n x^-1)/c)."""
    terms = kloosterman_terms((m,), (n,), c, budget)
    return ExpSumValue(fsum_rows(terms)[0], terms.shape[1], UNIT_EPS * terms.shape[1])


def _kloosterman_sums(ms, ns, c):
    """kloosterman(m_i, n_i, c).value for every pair of ms, ns: gathers of
    2**16 // c rows (at least one), so at most 2**16 summands each when
    c <= 2**16, each row reduced by fsum_rows."""
    step = max(1, 2**16 // c)
    return [s for lo in range(0, len(ms), step)
            for s in fsum_rows(kloosterman_terms(ms[lo:lo + step], ns[lo:lo + step], c))]


def _kloosterman_unit_row(q):
    """K[a] = S(1, a; q) for every a mod the prime power q.

    Rader's reindexing over the unit group, laid out as unit_cycles(q):
    the units are h(k) with h(k) h(k') = h(k + k').  With f(k) = e(h(k)/q),
    S(1, h(k); q) = sum over k' of f(k') f(k - k'), the cyclic
    self-convolution ifftn(fftn(f)**2) over the layout's axes.  It is real
    (x -> -x conjugates it), so the inverse is irfftn of the first half of
    fftn(f)**2.  The non-units are exact: K[0] = mu(q) = -1 for a prime
    (q = 2 included), and K[a] = 0 for p | a once q = p**k, k >= 2."""
    cycles = unit_cycles(q)
    f = np.fft.fftn(np.exp(cycles * (2j * np.pi / q)))[..., :cycles.shape[-1] // 2 + 1]
    row = np.zeros(q, dtype=np.complex128)
    row[cycles] = np.fft.irfftn(f * f, cycles.shape, range(cycles.ndim))  # K is real
    if cycles.size == q - 1:  # q prime: K[0] = S(1, 0; q) = -1
        row[0] = -1.0
    return row


def _prime_power_screen(a, b, p, k, rows):
    """S(a_i, b_i; p**k) for a, b reduced mod p**k.  Where a or b is a unit,
    S(a, b; q) = S(1, ab; q), one entry of rows[k] = K for q = p**k (built
    on first use).  Where p divides both, S(a, b; p**k) = (phi(p**k) /
    phi(p**(k-1))) S(a/p, b/p; p**(k-1)), down to S(., .; 1) = 1."""
    if k == 0:
        return np.ones(a.size, dtype=np.complex128)
    q = p ** k
    if k not in rows:
        rows[k] = _kloosterman_unit_row(q)
    out = rows[k][reduce_mod(a * b, q)]
    both = np.flatnonzero((a // p * p == a) & (b // p * p == b))
    if both.size:
        out[both] = (p - 1 if k == 1 else p) * _prime_power_screen(
            a[both] // p, b[both] // p, p, k - 1, rows)
    return out


def kloosterman_screen(ms, ns, cs):
    """(sums, est, gap, divisors) for int64 arrays ms, ns, cs: sums[i] is an
    approximate S(m_i, n_i; c_i), for sweeps that only nominate candidates
    (no value of it is ever reported), est[i] is kloosterman's est_error
    UNIT_EPS phi(c_i), gap[i] = SCREEN_SLACK phi(c_i) bounds |sums[i] -
    kloosterman(m_i, n_i, c_i).value| (module docstring), and divisors[i]
    is d(c_i); phi and d come from the one factorisation of each modulus.

    By twisted multiplicativity S(m, n; c) is the product over the prime
    powers q exactly dividing c of S(m rbar, n rbar; q), with r = c/q and
    rbar its inverse mod q.  Each factor is an entry of one FFT row per
    prime power (_prime_power_screen).  rbar is taken once per modulus;
    the (case, prime power) pairs are then laid out in one pass, grouped
    by prime power, so the loop runs once per prime power, and one prime's
    rows are alive at a time.  Each case multiplies its factors in
    ascending p.  A modulus above DEFAULT_BUDGET raises BudgetExceeded,
    one below 1 InvalidValue.
    """
    ms, ns, cs = (np.asarray(x, dtype=np.int64) for x in (ms, ns, cs))
    moduli, which = np.unique(cs, return_inverse=True)
    for c in moduli[:1].tolist() + moduli[-1:].tolist():  # the smallest first
        check_budget(c, DEFAULT_BUDGET)
    factors = []  # (p, k, modulus, rbar) of every p**k || c of every modulus
    funcs = []  # (phi(c), d(c)) of each modulus
    for j, c in enumerate(moduli.tolist()):
        phi = divisors = 1
        for p, k in factorize(c).factors:
            q = p ** k
            phi, divisors = phi * (q - q // p), divisors * (k + 1)
            factors.append((p, k, j, pow(c // q, -1, q)))
        funcs.append((phi, divisors))
    factors.sort()  # by prime, then exponent
    p, k, j, rbar = np.array(factors, dtype=np.int64).reshape(-1, 4).T
    # one entry per case and prime power of its modulus, factor by factor
    per_modulus = np.bincount(which, minlength=moduli.size)
    counts = per_modulus[j]
    entry = np.repeat(np.arange(p.size), counts)
    head = np.cumsum(counts) - counts  # the first entry of each factor
    first_case = (np.cumsum(per_modulus) - per_modulus)[j]
    case = np.argsort(which, kind="stable")[
        first_case[entry] + np.arange(entry.size) - head[entry]]
    q, rbar = (p ** k)[entry], rbar[entry]
    a = ms[case] % q * rbar % q
    b = ns[case] % q * rbar % q
    groups = np.flatnonzero(np.diff(p, prepend=0) | np.diff(k, prepend=0))  # each (p, k)
    bounds = np.append(head[groups], entry.size).tolist()
    out = np.ones(cs.size, dtype=np.complex128)
    rows, last = {}, None
    for lo, hi, prime, e in zip(bounds, bounds[1:], p[groups].tolist(), k[groups].tolist()):
        if prime != last:
            rows, last = {}, prime
        out[case[lo:hi]] *= _prime_power_screen(a[lo:hi], b[lo:hi], prime, e, rows)
    phi, divisors = np.array(funcs, dtype=np.int64).reshape(-1, 2)[which].T
    est = UNIT_EPS * phi
    check_rows(out, phi, est)
    return out, est, SCREEN_SLACK * phi, divisors


def twisted_kloosterman(psi, m, n, c, budget=DEFAULT_BUDGET):
    """S_psi(m, n; c) with psi mod p lifted to modulus c via reduction mod p.

    Requires p | c; summands with gcd(x, c) > 1 contribute 0 (unit-group
    convention), and every remaining x is prime to p, so the lift never
    evaluates psi at 0.
    """
    p = psi.modulus
    if c % p != 0:
        raise ModulusMismatch(f"character modulus {p} does not divide {c}")
    terms = kloosterman_terms((m,), (n,), c, budget)
    xs, _ = units_and_inverses(c)
    terms = psi.value_array()[xs % p] * terms
    return ExpSumValue(fsum_rows(terms)[0], xs.size, 2 * UNIT_EPS * xs.size)


def ramanujan_sum(q, n):
    """c_q(n) by the closed form mu(q/g) * phi(q) / phi(q/g), g = gcd(n, q),
    with mu(q/g) and phi(q/g) read off the one factorization of q."""
    if q < 1:
        raise InvalidValue("q must be positive")
    g = gcd(n, q)
    phi_q = mu_qg = phi_qg = 1
    for p, e in factorize(q).factors:
        phi_q *= p ** (e - 1) * (p - 1)
        while g % p == 0:  # g divides q, so this removes at most e factors
            g //= p
            e -= 1
        if e:  # p**e exactly divides q/g
            phi_qg *= p ** (e - 1) * (p - 1)
            mu_qg = 0 if e > 1 else -mu_qg
    return mu_qg * phi_q // phi_qg


def gauss_sum(chi):
    """g_chi = sum over a mod q of chi(a) e(a/q), by direct summation; its
    bound 2 UNIT_EPS q covers q - 1 products of two tabulated roots."""
    q = chi.modulus
    terms = chi.value_array()[1:] * unit_roots(q)[1:]
    return ExpSumValue(fsum_rows(terms[None])[0], q - 1, 2 * UNIT_EPS * q)


def _require_nonprincipal(chi, M):
    if chi.modulus != M:
        raise ModulusMismatch(f"character modulus {chi.modulus} != {M}")
    if chi.is_principal:
        raise PrincipalCharacter("the sum needs a non-principal character")
    check_odd_prime(M)


def d_sum(u, M, chi):
    """D(u; M) = sum over b mod M, b != 0,1 of conj(chi)(b-1) e((b^-1 - 1)u/M)."""
    _require_nonprincipal(chi, M)
    _, inv = units_and_inverses(M)
    bs = np.arange(2, M, dtype=np.int64)
    inv_b = inv[bs - 1]  # inverses of 2..M-1 (units array skips 0)
    chib = np.conj(chi.value_array())[bs - 1]
    terms = chib * unit_roots(M)[((inv_b - 1) * (u % M)) % M]
    return ExpSumValue(fsum_rows(terms[None])[0], M - 2, 2 * UNIT_EPS * (M - 2))


def dsum_screen(M):
    """(rows, gap): rows[a - 1, u] approximates |D(u; M)| at the character
    of index a, 0 < a < M - 1, and every u mod M, only to nominate cases;
    gap bounds its distance from |d_sum|.  A row is |M ifft(f)|, with
    f[t] = conj(chi)(b - 1) at t = b^-1 - 1.  As b - 1 = -t/(t + 1), f[t] is
    conj(e)(a (dlog(-1) + dlog t - dlog(t + 1)) / (M - 1)): one gather of
    M - 2 roots per row, each within UNIT_EPS, so M ifft(f) is within
    (TRANSFORM_EPS log2 M + UNIT_EPS) M of D (module docstring), and d_sum
    within its est_error 2 UNIT_EPS (M - 2)."""
    check_odd_prime(M)
    dlog = discrete_log_table(M)
    ts = np.arange(1, M - 1)  # the columns t, and the indices a of the rows
    f = np.zeros((M - 2, M), dtype=np.complex128)
    k = reduce_mod(dlog[-1] + dlog[ts] - dlog[ts + 1], M - 1)  # dlog(b - 1)
    f[:, 1:-1] = np.conj(unit_roots(M - 1))[reduce_mod(np.multiply.outer(ts, k), M - 1)]
    gap = (TRANSFORM_EPS * log2(M) + UNIT_EPS) * M + 2 * UNIT_EPS * (M - 2)
    return np.abs(np.fft.ifft(f, axis=1) * M), gap


def _a_sum(q, bar, t, chiv=None):
    """(total, count): the sum over a mod q of chiv[a] S(bar a, bar t; q)
    e(-bar (a + t)/q) (no chiv[a] when chiv is None) and its summand count
    q (phi(q) + 1).  Each S comes from _kloosterman_sums, so it has
    kloosterman's bits; each term is a product of scalars, and the terms
    are reduced by fsum_rows."""
    sums = _kloosterman_sums([bar * a for a in range(q)], [bar * t] * q, q)
    roots, terms = unit_roots(q), []
    for a, s in enumerate(sums):
        root = roots[(-bar * (a + t)) % q]
        terms.append(s * root if chiv is None else chiv[a] * s * root)
    return fsum_rows(np.array([terms]))[0], q * (euler_phi(q) + 1)


def c1_sums(c, p, M, n, ell):
    """(raw, closed) of the c1 identity: with bar = (pM)^-1 mod c, the sum
    over a mod c of S(bar a, bar n ell; c) e(-bar (a + n ell)/c) equals c.
    The raw a-sum carries 4 UNIT_EPS per summand, the closed value none."""
    total, count = _a_sum(c, mod_inv(p * M, c), n * ell)
    return ExpSumValue(total, count, 4 * UNIT_EPS * count), ExpSumValue(complex(c), c, 0.0)


def c2_sums(M, chi, p, c, n, ell):
    """(raw, closed) of the c2 identity: with bar = (pc)^-1 mod M, the sum
    over a mod M of chi(a) S(bar a, bar n ell; M) e(-bar (a + n ell)/M)
    equals chi(pc) g_chi D(bar n ell; M).  Both carry 6 UNIT_EPS per summand."""
    bar = mod_inv(p * c, M)
    total, count = _a_sum(M, bar, n * ell, chi.value_array())
    d = d_sum(bar * n * ell, M, chi)
    closed = chi.eval(p * c) * gauss_sum(chi).value * d.value
    return (ExpSumValue(total, count, 6 * UNIT_EPS * count),
            ExpSumValue(closed, M * d.terms, 6 * UNIT_EPS * M * d.terms))


def _check_psi_average(pairs, c, p, M):
    if min([c, *map(min, pairs)]) < 1:
        raise InvalidValue("r, m, c must be positive")
    check_odd_prime(p)
    check_odd_prime(M)
    if p == M:
        raise ParameterInconsistency("p and M must be distinct primes")


def psi_average_sums_raw(pairs, c, p, M):
    """psi_average_raw at every (r, m) of pairs, at one (c, p, M): a list
    of ExpSumValue in the order of pairs.

    The summands of every pair are one kloosterman_terms gather.  For each
    pair, one characters x units block holds the twisted summands of every
    odd character (the even ones carry weight 0), and fsum_rows reduces its
    rows, so tolist() never holds more than one pair's block.  One more
    fsum_rows call reduces the character values of every pair, and each
    total is doubled.
    """
    _check_psi_average(pairs, c, p, M)
    c_total = c * p * M
    summands = kloosterman_terms([r for r, _ in pairs], [m for _, m in pairs], c_total)
    xs, _ = units_and_inverses(c_total)
    psi = character_rows(p, range(1, p - 1, 2))[:, xs % p]  # the odd ones: psi(-1) = (-1)**index
    row_est = 2 * UNIT_EPS * xs.size  # twisted_kloosterman's bound for one character
    count = (p - 1) * xs.size
    rows = np.array([fsum_rows(psi * row) for row in summands])
    check_rows(rows, xs.size, row_est)
    est = (p - 1) * row_est + UNIT_EPS * count
    return [ExpSumValue(2 * total, count, est) for total in fsum_rows(rows)]


def psi_average_sums_closed(pairs, c, p, M):
    """psi_average_closed at every (r, m) of pairs, at one (c, p, M): a list
    of ExpSumValue in the order of pairs.

    The sums S(pbar r, pbar m; cM) of every pair come from
    _kloosterman_sums; each value is then the Python-complex product
    (p-1) * S * (e(w) - e(-w)).
    """
    _check_psi_average(pairs, c, p, M)
    cM = c * M
    if gcd(p, cM) != 1:
        raise SharedFactor(f"gcd(p, cM) = {gcd(p, cM)} > 1")
    pbar = mod_inv(p, cM)
    sums = _kloosterman_sums([pbar * r for r, _ in pairs], [pbar * m for _, m in pairs], cM)
    phi = euler_phi(cM)
    s_est = UNIT_EPS * phi  # kloosterman's bound
    check_rows(sums, phi, s_est)
    cm_bar = mod_inv(cM, p)
    count = (p - 1) * euler_phi(c * p * M)
    brackets = {}  # e(w) - e(-w), which depends on (r + m) mod p only
    values = []
    for (r, m), s in zip(pairs, sums):
        k = (r + m) % p
        if k not in brackets:
            w = RationalAngle(cm_bar * k, p)
            brackets[k] = w.to_complex() - (-w).to_complex()
        est = (p - 1) * 2 * (s_est + UNIT_EPS * abs(s))
        values.append(ExpSumValue((p - 1) * s * brackets[k], count, min(est, 1e-12 * count)))
    return values


def psi_average_raw(r, m, c, p, M):
    """sum over psi mod p of (1 - psi(-1)) S_psi(r, m; cpM), directly: the
    one entry of psi_average_sums_raw."""
    return psi_average_sums_raw(((r, m),), c, p, M)[0]


def psi_average_closed(r, m, c, p, M):
    """Exact orthogonality evaluation of psi_average_raw: the one entry of
    psi_average_sums_closed.

    Equals (p-1) S(pbar r, pbar m; cM) (e(w) - e(-w)) with pbar = p^-1 mod
    cM and w = ((cM)^-1 mod p)(r + m)/p.  The count in front is exactly
    p - 1 and the two sign terms enter as a difference; both follow from
    summing psi over the full character group mod p.
    """
    return psi_average_sums_closed(((r, m),), c, p, M)[0]


def _c3_context(v, M, chi):
    _require_nonprincipal(chi, M)
    if v % M == 0:
        raise NotUnit(f"v = {v} is not a unit mod {M}")
    _, inv = units_and_inverses(M)
    return v % M, np.asarray(inv), chi.value_array()


def c3_raw(v, M, chi):
    """Autocorrelation of D over the scaling v, as the congruence pair sum.

    M * sum over admissible b, b' mod M with b'^-1 = 1 + (b^-1 - 1)v of
    conj(chi)(b-1) chi(b'-1); enumerated directly over b, each term a
    product of scalars, and the terms reduced by fsum_rows.
    """
    v, inv, chiv = _c3_context(v, M, chi)
    terms = []
    for b in range(2, M):
        ib = int(inv[b - 1])
        w = (1 + (ib - 1) * v) % M
        if w == 0:
            continue
        bp = int(inv[w - 1])
        if bp <= 1:
            continue
        terms.append(chiv[b - 1].conjugate() * chiv[bp - 1])
    total = fsum_rows(np.array([terms], dtype=np.complex128))[0]
    count = M * (M - 2)
    return ExpSumValue(M * total, count, 2 * UNIT_EPS * count)


def c3_closed(v, M, chi):
    """Closed form M * sum over b mod M, b != 0,1 of conj(chi)(1 + b(v^-1 - 1)),
    reduced by fsum_rows."""
    v, inv, chiv = _c3_context(v, M, chi)
    vbar = int(inv[v - 1])
    bs = np.arange(2, M, dtype=np.int64)
    idx = (1 + bs * (vbar - 1)) % M
    total = fsum_rows(np.conj(chiv)[idx][None])[0]  # chi(0) = 0 drops the two excluded shifts
    terms = M * (M - 2)
    return ExpSumValue(M * total, terms, 2 * UNIT_EPS * terms)


def c4_correlation(c2, q2_tilde, p, p_prime, q1, m_dprime, M, h, n,
                   r_prime, ell, ell_prime, budget=DEFAULT_BUDGET):
    """Correlation of two Kloosterman sums against an additive character.

    sum over a mod r'*ell*ell' of
      S(c2 - q2t/p, (q1 q2t)^-1 m'' M h a; r' ell)
      * S(c2 - q2t/p', (q1 q2t)^-1 m'' M h a; r' ell')
      * e(a n / (r' ell ell'))
    with every inverse taken modulo the Kloosterman modulus it sits in.
    """
    if not (is_prime(ell) and is_prime(ell_prime)):
        raise ParameterInconsistency("ell and ell' must be prime")
    mod1 = r_prime * ell
    mod2 = r_prime * ell_prime
    big = r_prime * ell * ell_prime
    check_budget(big, budget)
    phi1, phi2 = euler_phi(mod1), euler_phi(mod2)
    row = max(mod1 * phi1, mod2 * phi2)  # the summands of one Kloosterman row
    if row > budget:
        raise BudgetExceeded(f"a Kloosterman row of {row} summands exceeds the budget {budget}")
    if gcd(p, mod1) != 1 or gcd(p_prime, mod2) != 1:
        raise ParameterInconsistency("r' ell (resp. r' ell') must be prime to p (resp. p')")
    if gcd(q1 * q2_tilde, big) != 1:
        raise ParameterInconsistency("q1 * q2-tilde must be prime to r' ell ell'")
    m1 = (c2 - q2_tilde * mod_inv(p, mod1)) % mod1
    m2 = (c2 - q2_tilde * mod_inv(p_prime, mod2)) % mod2
    t1 = mod_inv(q1 * q2_tilde, mod1) * (m_dprime * M * h) % mod1
    t2 = mod_inv(q1 * q2_tilde, mod2) * (m_dprime * M * h) % mod2
    row1 = np.array(_kloosterman_sums([m1] * mod1, range(mod1), mod1))  # S(m1, y; mod1)
    row2 = np.array(_kloosterman_sums([m2] * mod2, range(mod2), mod2))
    a = np.arange(big, dtype=np.int64)
    terms = row1[t1 * a % mod1] * row2[t2 * a % mod2] * unit_roots(big)[(n % big) * a % big]
    value = fsum_rows(terms[None])[0]
    count = big * phi1 * phi2
    return ExpSumValue(value, count, 4 * UNIT_EPS * count)


def _voronoi_setup(ns, rows, m, m_prime, c, d):
    """Validate one (m, m', c, d) group for every n in ns and every
    (r, ell, M) in rows, each distinct (ell, M) once; returns (c/d, c1)."""
    if min(min(ns), *[min(row) for row in rows], m, m_prime, c, d) < 1:
        raise ParameterInconsistency("all parameters must be positive")
    if c % d != 0:
        raise ParameterInconsistency(f"d = {d} does not divide c = {c}")
    if (m * c) % m_prime != 0:
        raise ParameterInconsistency(f"m' = {m_prime} does not divide m*c = {m * c}")
    cc = c // d
    c1 = gcd(m_prime, cc)
    for ell, M in dict.fromkeys((ell, M) for _, ell, M in rows):
        if not is_prime(ell):
            raise ParameterInconsistency(f"ell = {ell} is not prime")
        if M % 2 == 0 or not is_prime(M) or gcd(M, c) != 1:
            raise ParameterInconsistency("M must be an odd prime coprime to c")
        if c1 % ell == 0:
            raise ParameterInconsistency("the generic case requires ell not dividing c1")
    return cc, c1


def voronoi_char_sums_raw(ns, rows, m, m_prime, c, d):
    """The raw beta-sums of one (m, m', c, d) group, every (r, ell, M) of
    rows and every n of ns at once.

    Returns (values, counts): values[i, j] is the sum at rows[i] = (r, ell,
    M) and n = ns[j], and counts[i] the number of units beta kept for
    rows[i].  The summands e(beta^-1 n / (m*c/m')) of every unit and every
    n form one gather, with the units grouped by the class of beta*m' mod
    c/d.  The congruence for (r, ell, M) keeps exactly one class, a block of
    columns, whose rows are reduced with fsum once per class, whichever
    rows share it; fsum is order-free, so regrouping the units leaves every
    value bit for bit as in ascending order.
    """
    cc, _ = _voronoi_setup(ns, rows, m, m_prime, c, d)
    modulus = m * c // m_prime
    check_budget(modulus, DEFAULT_BUDGET)
    xs, inv = units_and_inverses(modulus)
    classes = (xs * (m_prime % cc)) % cc
    order = np.argsort(classes, kind="stable")
    bounds = np.searchsorted(classes[order], np.arange(cc + 1)).tolist()
    n_col = np.array([n % modulus for n in ns], dtype=np.int64)[:, None]
    summands = unit_roots(modulus)[(inv[order] * n_col) % modulus]
    m_bars = {M: mod_inv(M, cc) for M in {M for _, _, M in rows}}
    by_class = {}
    values, counts = [], []
    for r, ell, M in rows:
        j = (-r * ell * m_bars[M]) % cc
        lo, hi = bounds[j], bounds[j + 1]
        if j not in by_class:
            by_class[j] = fsum_rows(summands[:, lo:hi])
        values.append(by_class[j])
        counts.append(hi - lo)
    values = np.array(values, dtype=np.complex128).reshape(len(rows), len(ns))
    counts = np.array(counts, dtype=np.int64)
    check_rows(values, counts[:, None], UNIT_EPS * np.maximum(counts, 1)[:, None])
    return values, counts


def voronoi_char_sum_raw(n, m, m_prime, c, d, r, ell, M):
    """The beta-sum produced by Voronoi summation, by direct enumeration:
    the one entry of voronoi_char_sums_raw.

    sum over units beta mod m*c/m' subject to r*ell*M^-1 + beta*m' = 0
    mod c/d, of e(beta^-1 n / (m*c/m')).
    """
    values, counts = voronoi_char_sums_raw((n,), ((r, ell, M),), m, m_prime, c, d)
    k = int(counts[0])
    return ExpSumValue(values[0, 0], k, UNIT_EPS * max(k, 1))


def _c2_part(q, c2):
    """Largest divisor of q supported on the primes of c2."""
    out = 1
    g = gcd(q, c2)
    while g > 1:
        out *= g
        q //= g
        g = gcd(q, c2)
    return out


def voronoi_char_sums_closed(ns, rows, m, m_prime, c, d):
    """Closed forms of the beta-sums of one (m, m', c, d) group:
    values[i, j] at rows[i] = (r, ell, M) and n = ns[j].  Every summand
    count is m*c/m'.

    Each value is 0 off the divisibility strata, else
    q2 * c_{q1}(n) * e(-(r' ell)^-1 m'' M (n/q2) q1^-1 / c2).

    Writes c/d = c1*c2 with c1 = gcd(m', c/d), m'' = m'/c1, q = m*d/m''
    and q = q1*q2 with q2 the part of q supported on the primes of c2.
    Vanishes unless c1 | r and q2 | n (and unless the congruence is
    solvable at all, which needs gcd(r' ell, c2) = 1).  All inverses in
    the phase are taken mod c2; this is the exact CRT evaluation of the
    raw sum.  Only the phase g0 depends on the row: c2, q1, q2, the
    Ramanujan factors and the roots e(j/c2) are computed once per group,
    and each row of values once per g0.
    """
    cc, c1 = _voronoi_setup(ns, rows, m, m_prime, c, d)
    c2 = cc // c1
    m_dp = m_prime // c1
    if (m * d) % m_dp != 0:
        raise ParameterInconsistency("m'' does not divide m*d")
    q = m * d // m_dp
    q2 = _c2_part(q, c2)
    q1 = q // q2
    ramanujan = {n: ramanujan_sum(q1, n) for n in ns if n % q2 == 0}
    roots = [RationalAngle(j, c2).to_complex() for j in range(c2)]
    q1_bar = mod_inv(q1, c2)
    values = np.zeros((len(rows), len(ns)), dtype=np.complex128)
    by_phase = {}
    for i, (r, ell, M) in enumerate(rows):
        r_p = r // c1
        if r % c1 != 0 or (c2 > 1 and gcd(r_p * ell, c2) != 1):
            continue
        g0 = (-mod_inv(r_p * ell, c2) * m_dp * M) % c2 if c2 > 1 else 0
        if g0 not in by_phase:
            by_phase[g0] = [q2 * ramanujan[n] * roots[g0 * (n // q2) * q1_bar % c2]
                            if n in ramanujan else 0j for n in ns]
        values[i] = by_phase[g0]
    terms = m * c // m_prime
    check_rows(values, terms, np.minimum(UNIT_EPS * np.abs(values), 1e-12 * terms))
    return values


def voronoi_char_sum_closed(n, m, m_prime, c, d, r, ell, M):
    """Closed form of the beta-sum: the one entry of voronoi_char_sums_closed."""
    value = complex(voronoi_char_sums_closed((n,), ((r, ell, M),), m, m_prime, c, d)[0, 0])
    terms = m * c // m_prime
    return ExpSumValue(value, terms, min(UNIT_EPS * abs(value), 1e-12 * terms))


def twisted_split_check(n, p, M, r, ell, c, psi):
    """The three stages of splitting S_psi(n p^2 M, r ell; c p M).

    Returns (lhs, rhs1, rhs2) where

      lhs  = S_psi(n p^2 M, r ell; c p M),
      rhs1 = -S_psi(n p^2, r ell M^-1; c p)        (None when M | c),
      rhs2 = -psi(r ell) conj(psi)(c M) g_{conj(psi)} S(n, r ell M^-1; c)
                                                    (None when p | c or p | r ell).

    When M | c the sum vanishes, so only lhs is returned.  The minus sign
    carries through both reductions: the mod-M factor of lhs is the
    Ramanujan sum c_M(unit) = -1, and the remaining factor of rhs1
    evaluates exactly to psi(r ell) conj(psi)(c M) g_{conj(psi)} S(...).
    """
    check_odd_prime(M)
    if gcd(r * ell, M) != 1:
        raise ParameterInconsistency("r ell must be prime to M")
    if psi.modulus != p:
        raise ModulusMismatch("psi must be a character mod p")
    lhs = twisted_kloosterman(psi, n * p * p * M, r * ell, c * p * M)
    if c % M == 0:
        return lhs, None, None
    mbar_cp = mod_inv(M, c * p)
    s1 = twisted_kloosterman(psi, n * p * p, r * ell * mbar_cp, c * p)
    rhs1 = ExpSumValue(-s1.value, s1.terms, s1.est_error)
    if c % p == 0 or (r * ell) % p == 0:
        return lhs, rhs1, None
    mbar_c = mbar_cp % c if c > 1 else 0
    s = kloosterman(n, r * ell * mbar_c, c)
    front = psi.eval(r * ell) * psi.conjugate().eval(c * M) * gauss_sum(psi.conjugate()).value
    value = -front * s.value
    terms = s.terms * p
    est = abs(front) * s.est_error + abs(s.value) * (p * UNIT_EPS + 3 * UNIT_EPS * abs(front))
    rhs2 = ExpSumValue(value, terms, min(est, 1e-12 * terms))
    return lhs, rhs1, rhs2
