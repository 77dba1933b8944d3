"""Bessel kernels of the first kind and the oscillatory window integrals.

bessel_j uses three regimes:

* the alternating power series while x*x/4 <= nu+1 (terms decrease from
  the first one, so there is no cancellation and the truncation error is
  bounded by the first omitted term);
* Miller's backward recurrence with the even-order normalization
  J_0 + 2*sum J_{2k} = 1 for the mid range;
* the Hankel large-argument expansion once x >> nu**2, where the
  recurrence would cost O(x).

The window integral is done by adaptive bisection with fixed-order
Gauss-Legendre panels whose initial width is capped below one oscillation
of the integrand's phase, which is robust at desk scale without any
stationary-phase machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidValue, QuadratureNonConvergence
from .scan import ScanReport

MAX_BESSEL_ORDER = 200
_GL_ORDER = 15
_gl_nodes = None


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


def bessel_j(nu, x):
    """J_nu(x) for integer 0 <= nu <= 200 and real x >= 0."""
    if not isinstance(nu, (int, np.integer)) or nu < 0 or nu > MAX_BESSEL_ORDER:
        raise InvalidValue(f"order must be an integer in [0, {MAX_BESSEL_ORDER}], got {nu}")
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
    in the sums it is a positive integer, but the decay scans evaluate
    the integral at arbitrary positive multiples of the transition scale.
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


def _gauss_nodes():
    global _gl_nodes
    if _gl_nodes is None:
        x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
        _gl_nodes = (x, w)
    return _gl_nodes


def _panel(f, a, b):
    x, w = _gauss_nodes()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0j
    for xi, wi in zip(x, w):
        total += wi * f(mid + half * xi)
    return half * total


def _adapt(f, a, b, tol, depth, err_acc):
    whole = _panel(f, a, b)
    mid = 0.5 * (a + b)
    left = _panel(f, a, mid)
    right = _panel(f, mid, b)
    diff = abs(whole - (left + right))
    if diff <= tol or (b - a) < 1e-13:
        err_acc[0] += diff
        return left + right
    if depth <= 0:
        raise QuadratureNonConvergence(f"panel [{a}, {b}] stalled at error {diff}")
    return (_adapt(f, a, mid, tol / 2, depth - 1, err_acc)
            + _adapt(f, mid, b, tol / 2, depth - 1, err_acc))


def integral_value_and_error(params, window, tol=1e-12):
    """The window integral and an accumulated error estimate.

    integral over y of e((N ell y + n ell)/(c p M)) J_{k-1}(4 pi
    sqrt(N n ell^2 y)/(c p M)) V(y) dy over the support of V.
    """
    lo, hi = window.support(params.M)
    if hi <= lo:
        return 0j, 0.0
    cpm = params.c * params.p * params.M
    freq = params.N * params.ell / cpm
    coeff = 4.0 * math.pi * math.sqrt(params.N * params.n) * params.ell / cpm
    const = params.n * params.ell / cpm
    nu = params.k - 1

    def f(y):
        phase = 2.0 * math.pi * (freq * y + const)
        return complex(math.cos(phase), math.sin(phase)) * bessel_j(nu, coeff * math.sqrt(y)) * window(y, params.M)

    bessel_freq = coeff / (4.0 * math.pi * math.sqrt(lo))
    wavelength = 1.0 / max(freq + bessel_freq, 1.0 / (hi - lo))
    width = min((hi - lo) / 4.0, 0.5 * wavelength)
    n_panels = max(4, int(math.ceil((hi - lo) / width)))
    edges = np.linspace(lo, hi, n_panels + 1)
    total = 0j
    err_acc = [0.0]
    for a, b in zip(edges[:-1], edges[1:]):
        total += _adapt(f, float(a), float(b), tol / n_panels, 48, err_acc)
    return total, max(err_acc[0], tol)


def integral_I(params, window, tol=1e-12):
    return integral_value_and_error(params, window, tol)[0]


def transition_cutoff(N, L, P, M, m=1, eps=0.01, mode="bessel-c", theta=None):
    """Truncation scales for the oscillatory kernels.

    mode "bessel-c" returns the scale N*L*M**eps/(P*M*m) beyond which the
    Bessel kernel makes the c-sum negligible.  mode "voronoi-r" returns
    the two endpoints (M**2*P/(N*L*M**eps), M**(2+4*theta)*M**eps*P/(N*L))
    that bracket the surviving dual r-range.
    """
    if min(N, L, P, M, m) <= 0:
        raise InvalidValue("all parameters must be positive")
    if mode == "bessel-c":
        return N * L * M**eps / (P * M * m)
    if mode == "voronoi-r":
        if theta is None:
            raise InvalidValue("mode voronoi-r needs theta")
        lower = M**2 * P / (N * L * M**eps)
        upper = M ** (2 + 4 * theta) * M**eps * P / (N * L)
        return lower, upper
    raise InvalidValue(f"unknown mode {mode!r}")


def poisson_length(N, L, C, P, m=1, eps=0.01, n0=1.0):
    """max(N0, N*L/(C*P*m)) * M-epsilon-free scale for the squared sum.

    N0 is an external normalization that this toolkit does not pin down;
    it defaults to 1 and is exposed so scans can vary it.
    """
    return max(n0, N * L / (C * P * m)) * math.exp(eps)


NEGLIGIBLE = 1e-15
TRIVIAL_RATIO_CEILING = 100.0


def decay_scan(base, c_multipliers, L, P, eps=0.01, window=None, tol=1e-12):
    """Evaluate |integral| at c = t * cutoff for each multiplier t.

    Checks (a) |I| <= 1e-15 once t >= 4 (the kernel is far past its
    transition there) and (b) |I| * N * L/(c P M m) <= 100 for every t
    (the second-derivative bound with a generous constant).
    """
    if window is None:
        window = WindowFunction("plateau", 1.0 / 154.0)
    cutoff = transition_cutoff(base.N, L, P, base.M, base.m, eps)
    rows = []
    worst = (0.0, None)
    cases = 0
    for t in c_multipliers:
        c = t * cutoff
        params = IntegralParams(base.N, base.n, base.p, base.ell, c, base.M, base.m, base.k)
        val = float(abs(integral_I(params, window, tol)))
        trivial_scale = c * P * base.M * base.m / (base.N * L)
        ratio = val / trivial_scale
        negligible = bool(val <= NEGLIGIBLE)
        rows.append({"multiplier": float(t), "c": float(c), "abs_integral": val,
                     "trivial_ratio": ratio, "negligible": negligible})
        cases += 1
        checks = [(ratio / TRIVIAL_RATIO_CEILING, ("trivial-bound", t))]
        if t >= 4:
            checks.append((val / NEGLIGIBLE, ("negligible", t)))
        for dev, witness in checks:
            if dev > worst[0]:
                worst = (dev, witness)
    passed = worst[0] <= 1.0
    grid = {"multipliers": list(c_multipliers), "N": base.N, "n": base.n, "p": base.p,
            "ell": base.ell, "M": base.M, "m": base.m, "k": base.k,
            "L": L, "P": P, "eps": eps, "cutoff": cutoff}
    return ScanReport("bessel-decay", grid, cases, worst[0], worst[1], passed,
                      notes={"rows": rows})
