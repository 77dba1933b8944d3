"""Bessel kernels of the first kind and the oscillatory window integrals.

bessel_j uses three regimes:

* the alternating power series while x*x/4 <= nu+1 (terms decrease from
  the first one, so there is no cancellation and the truncation error is
  bounded by the first omitted term);
* Miller's backward recurrence with the even-order normalization
  J_0 + 2*sum J_{2k} = 1 for the mid range;
* the Hankel large-argument expansion once x >> nu**2, where the
  recurrence would cost O(x).

bessel_j also takes a 1-D array of arguments.  Each element is classified
by the same thresholds; the Miller elements share one backward loop over
the order, vectorised over the elements, in which every element starts at
its own order and rescales on its own overflow test, so it goes through
exactly the operations of the scalar recurrence and gets the same bits.

The window integral is done by adaptive bisection with fixed-order
Gauss-Legendre panels whose initial width is capped below one oscillation
of the integrand's phase, which is robust at desk scale without any
stationary-phase machinery.  Bisection runs level by level: each level
evaluates the whole/left/right panels of every pending panel with one
batched integrand call per chunk of at most _MAX_BATCH_NODES nodes, then
accepts or splits each panel.  Initial panels are taken in blocks of at
most _MAX_PANELS, and a level that would need more pending panels raises
QuadratureNonConvergence, so memory stays bounded however small c or tol
is.  Panel sums add the nodes in Gauss-Legendre order, and the value and
error estimate are combined in the depth-first order of the recursive
rule, so both are bit-identical to evaluating the panels one by one.

The module only computes: the kernels, the window, the integral, the
truncation scale of transition_cutoff and the toy preset.  Sweeping a
grid and judging it is left to the suites (the bessel-decay suite).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, QuadratureNonConvergence

MAX_BESSEL_ORDER = 200
_GL_ORDER = 15
_MAX_DEPTH = 48
_MAX_BATCH_NODES = 8192  # integrand nodes per batched call
_MAX_PANELS = 2**17  # pending panels per bisection level


def _series_j(nu, x):
    half = 0.5 * x
    term = 1.0
    for i in range(1, nu + 1):
        term *= half / i
        if term == 0.0:
            return 0.0
    total = term
    x2 = -half * half
    for j in range(1, 400):
        term *= x2 / (j * (nu + j))
        total += term
        if abs(term) <= 1e-17 * max(abs(total), 1e-280):
            break
    return total


def _miller_j(nu, x):
    start = max(nu, int(x)) + 40 + int(1.5 * math.sqrt(max(nu, x)))
    if start % 2:
        start += 1
    fp = 0.0          # J_{k+1} (unnormalized)
    f = 1e-300        # J_k
    norm = 0.0
    result = 0.0
    for k in range(start, 0, -1):
        fm = (2.0 * k / x) * f - fp
        fp, f = f, fm
        kk = k - 1
        if kk == nu:
            result = f
        if kk % 2 == 0:
            norm += f if kk == 0 else 2.0 * f
        if abs(f) > 1e250:
            f *= 1e-250
            fp *= 1e-250
            norm *= 1e-250
            result *= 1e-250
    return result / norm


def _hankel_j(nu, x):
    mu = 4.0 * nu * nu
    p_sum, q_sum = 1.0, 0.0
    term = 1.0
    prev = math.inf
    for k in range(1, 30):
        term *= (mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        if abs(term) >= prev:
            break  # asymptotic series: stop at the smallest term
        prev = abs(term)
        contrib = term if k % 4 in (0, 1) else -term
        if k % 2:
            q_sum += contrib
        else:
            p_sum += contrib
        if abs(term) < 1e-17:
            break
    omega = x - (0.5 * nu + 0.25) * math.pi
    return math.sqrt(2.0 / (math.pi * x)) * (math.cos(omega) * p_sum - math.sin(omega) * q_sum)


def _miller_j_batch(nu, x):
    """_miller_j on each element of the 1-D array x, in one backward loop.

    Elements are sorted by their starting order, so the ones already
    running at order k are a prefix of the arrays; each step does on that
    prefix exactly what _miller_j does on one element.
    """
    starts = np.array([max(nu, int(xi)) + 40 + int(1.5 * math.sqrt(max(nu, xi)))
                       for xi in x.tolist()])
    starts += starts % 2
    order = np.argsort(-starts, kind="stable")
    starts = starts[order]
    xs = x[order]
    size = xs.size
    fp = np.zeros(size)      # J_{k+1} (unnormalized)
    f = np.zeros(size)       # J_k
    fm = np.empty(size)
    norm = np.zeros(size)
    result = np.zeros(size)
    big = np.empty(size, dtype=bool)
    n = 0
    for k in range(int(starts[0]), 0, -1):
        began = n
        while n < size and starts[n] == k:
            n += 1
        f[began:n] = 1e-300  # the elements whose recurrence starts at k
        fp[began:n] = 0.0
        np.divide(2.0 * k, xs[:n], out=fm[:n])
        np.multiply(fm[:n], f[:n], out=fm[:n])
        np.subtract(fm[:n], fp[:n], out=fm[:n])
        fp, f, fm = f, fm, fp
        kk = k - 1
        if kk == nu:
            result[:n] = f[:n]
        if kk % 2 == 0:
            norm[:n] += f[:n] if kk == 0 else 2.0 * f[:n]
        np.greater(np.abs(f[:n]), 1e250, out=big[:n])
        if big[:n].any():
            hit = np.flatnonzero(big[:n])
            f[hit] *= 1e-250
            fp[hit] *= 1e-250
            norm[hit] *= 1e-250
            result[hit] *= 1e-250
    out = np.empty(size)
    out[order] = result / norm
    return out


def _bessel_j_array(nu, x):
    x = x.astype(float, copy=False)
    if x.ndim != 1:
        raise InvalidValue(f"argument must be a scalar or a 1-D array, got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x) | (x < 0))
    if bad.size:
        raise InvalidValue(f"argument must be finite and >= 0, got {float(x[bad[0]])}")
    out = np.zeros(x.size)
    zero = x == 0.0
    out[zero] = 1.0 if nu == 0 else 0.0
    with np.errstate(over="ignore"):  # x*x = inf for x > 1e154 is still a valid test
        series = ~zero & (x * x <= 4.0 * (nu + 1))
    hankel = ~series & (x > max(1e4, 3.0 * nu * nu))
    miller = ~zero & ~series & ~hankel
    for i in np.flatnonzero(series):
        out[i] = _series_j(nu, float(x[i]))
    for i in np.flatnonzero(hankel):
        out[i] = _hankel_j(nu, float(x[i]))
    if miller.any():
        out[miller] = _miller_j_batch(nu, x[miller])
    return out


def bessel_j(nu, x):
    """J_nu(x) for integer 0 <= nu <= 200 and real x >= 0.

    x may also be a 1-D numpy array; the result is then the array of J_nu
    at each element, each bit-identical to the scalar call.
    """
    if not isinstance(nu, (int, np.integer)) or nu < 0 or nu > MAX_BESSEL_ORDER:
        raise InvalidValue(f"order must be an integer in [0, {MAX_BESSEL_ORDER}], got {nu}")
    if isinstance(x, np.ndarray) and x.ndim:
        return _bessel_j_array(nu, x)
    x = float(x)
    if x < 0 or not math.isfinite(x):
        raise InvalidValue(f"argument must be finite and >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    if x * x <= 4.0 * (nu + 1):
        return _series_j(nu, x)
    if x > max(1e4, 3.0 * nu * nu):
        return _hankel_j(nu, x)
    return _miller_j(nu, x)


def _smoothstep(t):
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    a = math.exp(-1.0 / t)
    b = math.exp(-1.0 / (1.0 - t))
    return a / (a + b)


@dataclass(frozen=True)
class WindowFunction:
    """Either a smooth bump on [1, 2] or a plateau window.

    The plateau kind is supported on [M**(-4*theta), 4], equals 1 on
    [2*M**(-4*theta), 2], and rolls off smoothly on both sides; the bump
    kind is the usual exp-type bump rescaled to [1, 2] with peak 1.
    """

    kind: str = "plateau"
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("bump", "plateau"):
            raise InvalidValue(f"unknown window kind {self.kind!r}")
        if self.theta < 0:
            raise InvalidValue("theta must be nonnegative")

    def support(self, M):
        if self.kind == "bump":
            return 1.0, 2.0
        return float(M) ** (-4.0 * self.theta), 4.0

    def __call__(self, y, M):
        if self.kind == "bump":
            t = 2.0 * (y - 1.5)
            if abs(t) >= 1.0:
                return 0.0
            return math.exp(1.0 - 1.0 / (1.0 - t * t))
        a = float(M) ** (-4.0 * self.theta)
        if y <= a or y >= 4.0:
            return 0.0
        return _smoothstep((y - a) / a) * _smoothstep((4.0 - y) / 2.0)


@dataclass(frozen=True)
class IntegralParams:
    """Parameters of the window integral.

    N is the dyadic length, n the dual variable (of size about N at the
    transition), p and ell primes, M the large prime, m the secondary
    dyadic index and k the weight (k = 3 mod 4, k >= 7).  c is kept real:
    in the sums it is a positive integer, but the bessel-decay suite
    evaluates the integral at arbitrary positive multiples of the
    transition scale.
    """

    N: float
    n: int
    p: int
    ell: int
    c: float
    M: int
    m: int = 1
    k: int = 43

    def __post_init__(self):
        if min(self.N, self.n, self.p, self.ell, self.c, self.M, self.m) <= 0:
            raise InvalidValue("all parameters must be positive")
        if self.k < 7 or self.k % 4 != 3:
            raise InvalidValue("the weight k must be >= 7 with k = 3 mod 4")


# The toy preset: `integral --preset toy` (flags override single fields) and
# the bessel-decay suite (which replaces c) both start from it.
TOY_PARAMS = IntegralParams(N=1e6, n=10**6, p=11, ell=3, c=29.0, M=10**4, m=1, k=43)
TOY_THETA = 1.0 / 154.0  # theta of the toy preset's plateau window


@functools.cache
def _gauss_nodes():
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _panel_values(f, a, b):
    """The Gauss-Legendre panel on [a[i], b[i]] for every i, as a complex array.

    f maps a 1-D array of nodes to the complex integrand there; it is called
    once per chunk of at most _MAX_BATCH_NODES nodes.  Each panel adds its
    node terms in Gauss-Legendre order, as a one-by-one sum does.
    """
    x, w = _gauss_nodes()
    out = np.empty(a.size, dtype=complex)
    step = max(1, _MAX_BATCH_NODES // x.size)
    for lo in range(0, a.size, step):
        aa, bb = a[lo:lo + step], b[lo:lo + step]
        mid = 0.5 * (aa + bb)
        half = 0.5 * (bb - aa)
        vals = f((mid[:, None] + half[:, None] * x).ravel()).reshape(aa.size, x.size)
        re = np.zeros(aa.size)
        im = np.zeros(aa.size)
        for j in range(x.size):
            re += w[j] * vals[:, j].real
            im += w[j] * vals[:, j].imag
        out[lo:lo + step].real = half * re
        out[lo:lo + step].imag = half * im
    return out


def _bisect(f, a, b, tol, depth):
    """Adaptive rule on the consecutive panels [a[i], b[i]], level by level.

    Each panel is compared with its two halves and accepted when they
    differ by at most tol, or when it is narrower than 1e-13; otherwise
    both halves are bisected again with tol halved, at most depth times.
    Returns the value of each given panel and the accepted differences in
    depth-first (left to right) order.
    """
    levels = []
    while a.size:
        mid = 0.5 * (a + b)
        both = _panel_values(f, np.concatenate([a, a, mid]), np.concatenate([b, mid, b]))
        whole, left, right = np.split(both, 3)
        halves = left + right
        diff = np.array([abs(d) for d in (whole - halves).tolist()])
        done = (diff <= tol) | ((b - a) < 1e-13)
        levels.append((a, halves, diff, done))
        split = np.flatnonzero(~done)
        if split.size and depth <= 0:
            i = split[0]
            raise QuadratureNonConvergence(
                f"panel [{float(a[i])}, {float(b[i])}] stalled at error {diff[i]}")
        if 2 * split.size > _MAX_PANELS:
            raise QuadratureNonConvergence(
                f"bisection needs {2 * split.size} panels in one level (limit {_MAX_PANELS})")
        a = np.stack([a[split], mid[split]], axis=1).ravel()
        b = np.stack([mid[split], b[split]], axis=1).ravel()
        tol /= 2
        depth -= 1
    value = None
    for _, halves, _, done in reversed(levels):  # a split panel is the sum of its halves
        if value is not None:
            halves = halves.copy()
            halves[~done] = value[0::2] + value[1::2]
        value = halves
    starts = np.concatenate([lo[done] for lo, _, _, done in levels])
    diffs = np.concatenate([diff[done] for _, _, diff, done in levels])
    return value, diffs[np.argsort(starts, kind="stable")]


def _adaptive(f, edges, tol, depth=_MAX_DEPTH):
    """Adaptive Gauss-Legendre integral of f over consecutive panels.

    f maps a 1-D array of nodes to the complex integrand there.  The panels
    are bisected in blocks of at most _MAX_PANELS, left to right, so the
    bookkeeping stays bounded however many panels there are.  Returns
    (value, sum of the accepted differences), both added in the depth-first
    order of the recursive rule.
    """
    edges = np.asarray(edges, dtype=float)
    total, err = 0j, 0.0
    for lo in range(0, edges.size - 1, _MAX_PANELS):
        block = edges[lo:lo + _MAX_PANELS + 1]
        values, diffs = _bisect(f, block[:-1], block[1:], tol, depth)
        for v in values:
            total += v
        for d in diffs:
            err += d
    return total, err


def integral_value_and_error(params, window, tol=1e-12):
    """The window integral and an accumulated error estimate.

    integral over y of e((N ell y + n ell)/(c p M)) J_{k-1}(4 pi
    sqrt(N n ell^2 y)/(c p M)) V(y) dy over the support of V.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise InvalidValue(f"tol must be finite and > 0, got {tol}")
    lo, hi = window.support(params.M)
    if hi <= lo:
        return 0j, 0.0
    cpm = params.c * params.p * params.M
    freq = params.N * params.ell / cpm
    coeff = 4.0 * math.pi * math.sqrt(params.N * params.n) * params.ell / cpm
    const = params.n * params.ell / cpm
    nu = params.k - 1

    def f(y):  # e(phase) * J * V, multiplied in that order
        phase = (2.0 * math.pi * (freq * y + const)).tolist()
        jv = bessel_j(nu, coeff * np.sqrt(y))
        win = np.array([window(v, params.M) for v in y.tolist()])
        out = np.empty(y.size, dtype=complex)
        out.real = [math.cos(v) for v in phase]
        out.imag = [math.sin(v) for v in phase]
        out.real *= jv
        out.imag *= jv
        out.real *= win
        out.imag *= win
        return out

    bessel_freq = coeff / (4.0 * math.pi * math.sqrt(lo))
    wavelength = 1.0 / max(freq + bessel_freq, 1.0 / (hi - lo))
    width = min((hi - lo) / 4.0, 0.5 * wavelength)
    n_panels = max(4, int(math.ceil((hi - lo) / width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    total, err = _adaptive(f, edges, tol / n_panels)
    return total, max(err, tol)


def transition_cutoff(N, L, P, M, m=1, eps=0.01):
    """The scale N*L*M**eps/(P*M*m) beyond which the Bessel kernel makes the
    c-sum negligible."""
    if min(N, L, P, M, m) <= 0:
        raise InvalidValue("all parameters must be positive")
    return N * L * M**eps / (P * M * m)
