"""Bessel kernels of the first kind and the oscillatory window integrals.

bessel_j uses three regimes:

* the alternating power series while x*x/4 <= nu+1 (terms decrease from
  the first one, so there is no cancellation and the truncation error is
  bounded by the first omitted term);
* Miller's backward recurrence with the even-order normalization
  J_0 + 2*sum J_{2k} = 1 for the mid range;
* the Hankel large-argument expansion once x >> nu**2, where the
  recurrence would cost O(x).

A scalar Miller call does not run its own recurrence: one backward run from
a start order at x gives every order below the start, so the calls at one
x whose start orders agree (as the recurrence check's J_{nu-1}, J_nu and
J_{nu+1} mostly do) share one run.  _miller_run keeps orders 0..201 of the
last four runs (a bounded memo of at most 4 x 202 floats, whatever x is),
and each value is bit-identical to a run of its own.

bessel_j also takes a 1-D array of arguments.  Each element is classified
by the same thresholds (_regime_edges).  Both batch loops step the whole
array.  The Miller elements share one backward loop over the order, from
the highest start down; an element holds exact zeros until the loop
reaches its own start.  The series elements share one loop over the
terms, under a mask that drops each element on its own stopping test.
Either way every element goes through exactly the operations of the
scalar call and gets the same bits.  The scalar _series_j stays for
scalar calls, where a one-element batch costs about thirty times as much
(at nu = 42).

The window integral's integrand runs on arrays too: WindowFunction.values
masks the nodes off the support and on the plateau, and calls math.exp
only on the nodes where the window rolls off.  Its transcendentals
(cos, sin and exp) come from libm through _libm, never from numpy:
numpy's exp may take a SIMD kernel whose last bit differs from libm's
(np.exp and math.exp differ on 46,256 of 10**6 points evenly spaced in
[-50, 0] under AVX-512, and on none with numpy limited to SSE4.2 or
AVX2), which would tie the integral's bits to the CPU.  np.sqrt is
correctly rounded at every level.

The window integral is done by adaptive bisection with fixed-order
Gauss-Legendre panels whose initial width is capped below one oscillation
of the integrand's phase, which is robust at desk scale without any
stationary-phase machinery.  Bisection runs level by level: each level
evaluates the whole/left/right panels of every pending panel with one
batched integrand call per chunk of at most _MAX_BATCH_NODES nodes, then
accepts or splits each panel.  The initial grid counts as level 0: a
level that would need more than _MAX_PANELS panels raises
QuadratureNonConvergence, so memory stays bounded however small c or tol
is.  A panel narrower than 1e-13 is always accepted, so the loop ends
after at most 45 levels on any support in (0, 4] split into at least 4
panels.  Panel sums add the nodes in Gauss-Legendre order; the value and
the error estimate are fsums of the accepted panels, correctly rounded
and so independent of the order of panels, levels and chunks.

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


def _series_j_batch(nu, x):
    """_series_j on each element of the 1-D array x, in one loop over j.

    Every step runs on the whole array under the mask live, which drops an
    element on its own stopping test, so each element takes exactly the
    scalar's steps and gets the same bits.
    """
    half = 0.5 * x
    term = np.ones(x.size)
    for i in range(1, nu + 1):
        term *= half / i
    # a term that is 0.0 here made the scalar return 0.0; one that underflows
    # in the loop below keeps its running total
    live = term != 0.0
    total = term.copy()
    x2 = -half * half
    for j in range(1, 400):
        np.multiply(term, x2 / (j * (nu + j)), out=term, where=live)
        np.add(total, term, out=total, where=live)
        live &= np.abs(term) > 1e-17 * np.maximum(np.abs(total), 1e-280)
        if not live.any():
            break
    return total


def _miller_start(nu, x):
    """The even order at which the backward recurrence for J_nu(x) starts."""
    start = max(nu, int(x)) + 40 + int(1.5 * math.sqrt(max(nu, x)))
    return start + start % 2


def _miller_starts(nu, x):
    """_miller_start(nu, xi) for each element xi of the 1-D array x."""
    starts = (np.maximum(nu, x.astype(np.int64)) + 40
              + (1.5 * np.sqrt(np.maximum(nu, x))).astype(np.int64))
    return starts + starts % 2


# The recurrence check reads J_{nu-1}, J_nu and J_{nu+1} at one x, which start
# at up to three orders; four runs keep them all, in about 26 KB.
@functools.lru_cache(maxsize=4)
def _miller_run(start, x):
    """One backward recurrence from order start at x: (the unnormalized J_k(x)
    for k = 0 .. min(start, MAX_BESSEL_ORDER + 2) - 1, the normalization).

    J_nu(x) = values[nu] / norm for every nu whose _miller_start is start.
    Orders above MAX_BESSEL_ORDER + 1 are run through and not kept, so a run
    holds at most 202 floats however large x is.
    """
    # |f| <~ 1e-300/|J_start(x)| < 1e-80 for nu <= 200 (test_miller_overflow_headroom)
    keep = min(start, MAX_BESSEL_ORDER + 2)
    fp = 0.0          # J_{k+1} (unnormalized)
    f = 1e-300        # J_k
    norm = 0.0
    t = 2.0 * start   # 2.0 * k, exact
    for _ in range((start - keep) // 2):  # start is even: two orders per pass
        fp = (t / x) * f - fp
        t -= 2.0
        f = (t / x) * fp - f
        t -= 2.0
        norm += 2.0 * f
    values = [0.0] * keep
    for k in range(keep - 1, 0, -2):  # orders k (odd) and k - 1
        fp = (t / x) * f - fp
        t -= 2.0
        f = (t / x) * fp - f
        t -= 2.0
        values[k] = fp
        values[k - 1] = f
        norm += 2.0 * f if k > 1 else f
    return tuple(values), norm


def _miller_j(nu, x):
    values, norm = _miller_run(_miller_start(nu, x), x)
    return values[nu] / norm


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

    Every order k runs on the whole array.  An element that starts below k
    holds exact zeros there ((2k/x)*0 - 0 = 0 for every x > 2), so each
    element takes exactly _miller_run's operations from its own start.
    """
    starts = _miller_starts(nu, x)
    begins = set(starts.tolist())  # the orders at which some element starts
    fp = np.zeros(x.size)      # J_{k+1} (unnormalized)
    f = np.zeros(x.size)       # J_k
    fm = np.empty(x.size)
    norm = np.zeros(x.size)
    for k in range(int(starts.max()), 0, -1):
        if k in begins:
            f[starts == k] = 1e-300
        np.divide(2.0 * k, x, out=fm)
        fm *= f
        fm -= fp
        fp, f, fm = f, fm, fp
        kk = k - 1
        if kk == nu:
            result = f.copy()
        if kk % 2 == 0:
            norm += f if kk == 0 else 2.0 * f
    return result / norm


def _regime_edges(nu):
    """(series, hankel): J_nu(x) takes the series while x*x <= series, the
    Hankel expansion once x > hankel and Miller's recurrence between."""
    return 4.0 * (nu + 1), max(1e4, 3.0 * nu * nu)


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
    series_edge, hankel_edge = _regime_edges(nu)
    with np.errstate(over="ignore"):  # x*x = inf for x > 1e154 is still a valid test
        series = ~zero & (x * x <= series_edge)
    hankel = ~series & (x > hankel_edge)
    miller = ~zero & ~series & ~hankel
    if series.any():
        out[series] = _series_j_batch(nu, x[series])
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
    series_edge, hankel_edge = _regime_edges(nu)
    if x * x <= series_edge:
        return _series_j(nu, x)
    if x > hankel_edge:
        return _hankel_j(nu, x)
    return _miller_j(nu, x)


def _libm(fn, t):
    """fn (a math function) at each element of the 1-D array t, as an array.

    numpy's own transcendentals may take a SIMD kernel whose last bit
    differs from libm's, so the window integral takes libm's through here.
    """
    return np.fromiter(map(fn, t.tolist()), float, t.size)


def _smoothsteps(t):
    """The smooth step at each element of t: 0 for t <= 0, 1 for t >= 1, and
    a/(a + b) with a = exp(-1/t), b = exp(-1/(1 - t)) between."""
    out = (t >= 1.0).astype(float)
    ramp = np.flatnonzero(~((t <= 0.0) | (t >= 1.0)))
    t = t[ramp]
    a = _libm(math.exp, -1.0 / t)
    b = _libm(math.exp, -1.0 / (1.0 - t))
    out[ramp] = a / (a + b)
    return out


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
        if not 0 <= self.theta < math.inf:
            raise InvalidValue(f"theta must be finite and nonnegative, got {self.theta}")

    def support(self, M):
        if self.kind == "bump":
            return 1.0, 2.0
        lo = float(M) ** (-4.0 * self.theta)
        if lo == 0.0:
            raise InvalidValue(f"the window's lower edge M**(-4 theta) underflows to 0 "
                               f"at M = {M}, theta = {self.theta}")
        return lo, 4.0

    def values(self, y, M):
        """The window at each element of the 1-D array y.

        Elements off the support are 0.0 by mask, and math.exp runs only
        on the elements where the window rolls off; every element takes
        the IEEE operations of a one-element call, in the same order.
        """
        out = np.zeros(y.size)
        if self.kind == "bump":
            t = 2.0 * (y - 1.5)
            inside = np.flatnonzero(~(np.abs(t) >= 1.0))
            t = t[inside]
            out[inside] = _libm(math.exp, 1.0 - 1.0 / (1.0 - t * t))
            return out
        a = float(M) ** (-4.0 * self.theta)
        inside = np.flatnonzero(~((y <= a) | (y >= 4.0)))
        y = y[inside]
        out[inside] = _smoothsteps((y - a) / a) * _smoothsteps((4.0 - y) / 2.0)
        return out

    def __call__(self, y, M):
        return float(self.values(np.array([y], dtype=float), M)[0])


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
        values = (self.N, self.n, self.p, self.ell, self.c, self.M, self.m)
        if not all(0 < v < math.inf for v in values):  # no float(): ints may be huge
            raise InvalidValue("all parameters must be finite and positive")
        # The integral forms n*ell, N*ell and N*n.  An int product that no
        # float holds would raise OverflowError there; a float product that
        # overflows is inf, which the quadrature reports as a panel-limit
        # failure (exit 3).
        try:
            for v in values + (self.n * self.ell, self.N * self.ell, self.N * self.n):
                float(v)
        except OverflowError:
            raise InvalidValue("every parameter, and the products n*ell, N*ell and N*n, "
                               "must fit in a float (at most 1.8e308)") from None
        if self.k < 7 or self.k % 4 != 3:
            raise InvalidValue(f"the weight k must be >= 7 with k = 3 mod 4, got {self.k}")
        if self.k - 1 > MAX_BESSEL_ORDER:
            raise InvalidValue(f"the weight k must be at most {MAX_BESSEL_ORDER + 1}, since the "
                               f"kernel J_(k-1) has order at most {MAX_BESSEL_ORDER}; got {self.k}")


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


def _adaptive(f, edges, tol):
    """Adaptive Gauss-Legendre integral of f over the consecutive panels
    between edges, level by level.

    f maps a 1-D array of nodes to the complex integrand there.  Each panel
    is compared with its two halves and accepted when they differ by at
    most tol, or when it is narrower than 1e-13; otherwise both halves go
    to the next level with tol halved.  Returns (value, error estimate):
    the fsums of the accepted halves and of their differences.
    """
    a, b = np.asarray(edges[:-1], float), np.asarray(edges[1:], float)
    values, diffs = [], []
    while a.size:
        mid = 0.5 * (a + b)
        both = _panel_values(f, np.concatenate([a, a, mid]), np.concatenate([b, mid, b]))
        whole, left, right = np.split(both, 3)
        halves = left + right
        d = whole - halves
        diff = np.hypot(d.real, d.imag)  # libm's hypot, which abs(complex) calls too
        done = (diff <= tol) | ((b - a) < 1e-13)
        values.append(halves[done])
        diffs.append(diff[done])
        split = np.flatnonzero(~done)
        if 2 * split.size > _MAX_PANELS:
            raise QuadratureNonConvergence(
                f"bisection needs {2 * split.size} panels in one level (limit {_MAX_PANELS})")
        a = np.stack([a[split], mid[split]], axis=1).ravel()
        b = np.stack([mid[split], b[split]], axis=1).ravel()
        tol /= 2
    v, e = np.concatenate(values), np.concatenate(diffs)
    return complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist())), math.fsum(e.tolist())


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
    products = (("N*ell/(c*p*M)", freq), ("4*pi*sqrt(N*n)*ell/(c*p*M)", coeff),
                ("n*ell/(c*p*M)", const))
    for name, value in products:
        if not math.isfinite(value):
            raise QuadratureNonConvergence(
                f"bisection needs more than {_MAX_PANELS} panels in one level (the initial "
                f"grid): {name} overflowed to {value}")
    nu = params.k - 1

    def f(y):  # e(phase) * J * V, multiplied in that order
        phase = 2.0 * math.pi * (freq * y + const)
        jv = bessel_j(nu, coeff * np.sqrt(y))
        win = window.values(y, params.M)
        out = np.empty(y.size, dtype=complex)
        out.real = _libm(math.cos, phase)
        out.imag = _libm(math.sin, phase)
        out.real *= jv
        out.imag *= jv
        out.real *= win
        out.imag *= win
        return out

    bessel_freq = coeff / (4.0 * math.pi * math.sqrt(lo))
    wavelength = 1.0 / max(freq + bessel_freq, 1.0 / (hi - lo))
    width = min((hi - lo) / 4.0, 0.5 * wavelength)
    if hi - lo > _MAX_PANELS * width:  # compared, not divided: width may underflow to 0
        raise QuadratureNonConvergence(
            f"bisection needs more than {_MAX_PANELS} panels in one level (the initial grid)")
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
