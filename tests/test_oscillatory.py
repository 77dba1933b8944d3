import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from deltasum.errors import InvalidValue, OutOfRange
from deltasum.oscillatory import (
    MAX_BESSEL_ORDER,
    TOY_PARAMS,
    TOY_THETA,
    IntegralParams,
    WindowFunction,
    _miller_run,
    _miller_start,
    _miller_starts,
    bessel_j,
    integral_value_and_error,
    transition_cutoff,
)
from deltasum.suites import TOY_L, TOY_P

# frozen high-precision oracle values (40-digit arithmetic, computed offline)
BESSEL_ORACLE = [
    (0, 0.5, 0.9384698072408129),
    (1, 0.1, 0.049937526036242),
    (2, 1.0, 0.11490348493190047),
    (5, 2.0, 0.007039629755871685),
    (7, 3.5, 0.006743000315638399),
    (10, 10.0, 0.20748610663335887),
    (20, 7.0, 1.7314903330306922e-08),
    (42, 20.0, 6.510388186153584e-11),
    (42, 47.0, 0.1291662642811565),
    (42, 95.0, 0.0864236874897283),
    (60, 200.0, 0.03415650000127193),
    (100, 50.0, 1.1159273690838094e-21),
    (150, 150.0, 0.08418505788340284),
    (200, 30.0, 6.821118570244632e-141),
    (200, 250.0, -0.005902167915233969),
    (0, 1000.0, 0.024786686152420176),
    (3, 12000.0, 0.0072485840927084925),
    (5, 500000.0, 0.0009270399323927392),
]


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    for nu in (1, 2, 50, 200):
        assert bessel_j(nu, 0.0) == 0.0


def test_bessel_series_oracle_exact_fractions():
    # 30-term alternating series for J_2(1) in exact rational arithmetic
    total = Fraction(0)
    for j in range(30):
        term = Fraction((-1) ** j, 4 ** (j + 1))  # (1/2)^(2+2j) = 4^-(j+1)
        term /= math.factorial(j) * math.factorial(2 + j)
        total += term
    assert abs(bessel_j(2, 1.0) - float(total)) < 1e-14


def test_bessel_matches_frozen_oracle():
    for nu, x, want in BESSEL_ORACLE:
        got = bessel_j(nu, x)
        if abs(want) > 1e-250:
            assert abs(got - want) <= 2e-10 * abs(want) + 1e-14
        else:
            assert abs(got - want) <= 1e-14


def test_bessel_recurrence_residuals():
    for nu in range(1, 61, 3):
        for x in np.geomspace(0.1, 200.0, 25):
            x = float(x)
            res = bessel_j(nu - 1, x) + bessel_j(nu + 1, x) - (2 * nu / x) * bessel_j(nu, x)
            assert abs(res) <= 1e-9 * max(1.0, abs(bessel_j(nu, x)))


def test_bessel_bounded_by_one():
    rng = np.random.default_rng(7)
    for _ in range(300):
        nu = int(rng.integers(0, 201))
        x = float(rng.uniform(0, 500))
        assert abs(bessel_j(nu, x)) <= 1.0 + 1e-12


def test_bessel_domain_errors():
    with pytest.raises(OutOfRange):
        bessel_j(-1, 1.0)
    with pytest.raises(OutOfRange):
        bessel_j(201, 1.0)
    with pytest.raises(OutOfRange):
        bessel_j(3, -0.5)


def test_window_bump():
    w = WindowFunction("bump")
    assert w.support(10**4) == (1.0, 2.0)
    assert w(1.5, 10**4) == 1.0
    assert w(1.0, 10**4) == 0.0
    assert w(2.0, 10**4) == 0.0
    assert 0 < w(1.2, 10**4) < 1


def test_window_plateau():
    theta = 1.0 / 154.0
    w = WindowFunction("plateau", theta)
    M = 10**4
    a = M ** (-4 * theta)
    lo, hi = w.support(M)
    assert math.isclose(lo, a) and hi == 4.0
    assert w(a / 2, M) == 0.0
    assert w(4.5, M) == 0.0
    for y in np.linspace(2 * a, 2.0, 7):
        assert w(float(y), M) == 1.0
    assert 0 < w(3.0, M) < 1
    with pytest.raises(OutOfRange):
        WindowFunction("plateau", -0.1)


def test_integral_empty_support_is_zero():
    from deltasum.oscillatory import _adaptive

    val, _ = _adaptive(lambda y: np.ones(y.size, dtype=complex), [2.0, 2.0], 1e-12, 5)
    assert abs(val) < 1e-15


def _jagged(y):
    return np.sin(1.0 / np.maximum(y, 1e-9)).astype(complex)


def test_quadrature_non_convergence_raises():
    from deltasum.errors import QuadratureNonConvergence
    from deltasum.oscillatory import _adaptive

    with pytest.raises(QuadratureNonConvergence):
        _adaptive(_jagged, [1e-6, 1.0], 1e-300, 3)


def test_bisection_panel_limit_raises(monkeypatch):
    from deltasum import oscillatory
    from deltasum.errors import QuadratureNonConvergence

    monkeypatch.setattr(oscillatory, "_MAX_PANELS", 8)
    with pytest.raises(QuadratureNonConvergence, match="panels in one level"):
        oscillatory._adaptive(_jagged, [1e-6, 1.0], 1e-300)


@pytest.mark.parametrize("changes, product", [
    ({"N": 1e308}, "N*ell/(c*p*M)"),
    ({"N": 1.0, "n": 10**300, "c": 1e-170}, "4*pi*sqrt(N*n)*ell/(c*p*M)"),
    ({"N": 1.0, "n": 10**307, "c": 1e-8}, "n*ell/(c*p*M)"),
])
def test_overflowed_product_is_named(changes, product):
    from dataclasses import replace

    from deltasum.errors import QuadratureNonConvergence

    params = replace(TOY_PARAMS, **changes)
    window = WindowFunction("plateau", TOY_THETA)
    with pytest.raises(QuadratureNonConvergence) as err:
        integral_value_and_error(params, window)
    assert str(err.value).endswith(f"(the initial grid): {product} overflowed to inf")


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
def test_integral_rejects_bad_tolerance(tol):
    params = IntegralParams(N=1e6, n=10**6, p=11, ell=3, c=29.0, M=10**4)
    with pytest.raises(InvalidValue):
        integral_value_and_error(params, WindowFunction("plateau", 1.0 / 154.0), tol)


def _recursive_rule(f, edges, tol, depth=48):
    """The panel-by-panel recursive rule that the level-synchronous loop
    replaced: (value, sum of the accepted differences), depth first."""
    x, w = np.polynomial.legendre.leggauss(15)
    err_acc = [0.0]

    def panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        total = 0j
        for xi, wi in zip(x, w):
            total += wi * f(mid + half * xi)
        return half * total

    def adapt(a, b, tol, depth):
        mid = 0.5 * (a + b)
        whole, left, right = panel(a, b), panel(a, mid), panel(mid, b)
        diff = abs(whole - (left + right))
        if diff <= tol or (b - a) < 1e-13:
            err_acc[0] += diff
            return left + right
        assert depth > 0
        return adapt(a, mid, tol / 2, depth - 1) + adapt(mid, b, tol / 2, depth - 1)

    total = 0j
    for a, b in zip(edges[:-1], edges[1:]):
        total += adapt(float(a), float(b), tol, depth)
    return total, err_acc[0]


@pytest.mark.parametrize("c, tol", [(8.0, 1e-15), (15.0, 1e-14)])
def test_level_loop_equals_recursive_rule_bit_for_bit(c, tol):
    # bump-window integrands that bisect two or three levels deep
    from deltasum.oscillatory import _adaptive

    params = IntegralParams(N=1e6, n=10**6, p=11, ell=3, c=c, M=10**4, m=1, k=43)
    window = WindowFunction("bump")
    cpm = params.c * params.p * params.M
    freq = params.N * params.ell / cpm
    coeff = 4.0 * math.pi * math.sqrt(params.N * params.n) * params.ell / cpm
    const = params.n * params.ell / cpm

    def f(y):
        phase = 2.0 * math.pi * (freq * y + const)
        return (complex(math.cos(phase), math.sin(phase))
                * bessel_j(params.k - 1, coeff * math.sqrt(y)) * window(y, params.M))

    edges = np.linspace(1.0, 2.0, 21)
    want = _recursive_rule(f, edges, tol)
    got = _adaptive(lambda ys: np.array([f(y) for y in ys.tolist()]), edges, tol)
    assert (got[0].real.hex(), got[0].imag.hex(), float(got[1]).hex()) == \
        (want[0].real.hex(), want[0].imag.hex(), float(want[1]).hex())


def _regime_points(nu):
    """x = 0 and both sides of the series/Miller and Miller/Hankel thresholds."""
    points = [0.0]
    for edge in (math.sqrt(4.0 * (nu + 1)), max(1e4, 3.0 * nu * nu)):
        points += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf),
                   0.999 * edge, 1.001 * edge]
    return points


@pytest.mark.parametrize("nu", [0, 1, 2, 42, 100, 200])
def test_bessel_array_equals_scalar_bit_for_bit(nu):
    rng = np.random.default_rng(nu)
    xs = np.concatenate([_regime_points(nu), rng.uniform(0.0, 60.0, 40),
                         rng.uniform(0.0, 1.1 * max(1e4, 3.0 * nu * nu), 12)])
    got = bessel_j(nu, xs)
    assert got.shape == xs.shape
    assert [v.hex() for v in got.tolist()] == [bessel_j(nu, x).hex() for x in xs.tolist()]


def test_bessel_array_rejects_bad_elements():
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(InvalidValue):
            bessel_j(3, np.array([1.0, bad, 2.0]))
    with pytest.raises(InvalidValue):
        bessel_j(3, np.ones((2, 2)))
    with pytest.raises(InvalidValue):
        bessel_j(201, np.array([1.0]))


@pytest.mark.parametrize("nu", [0, 1, 42, 100, 200])
def test_bessel_mpmath_oracle_at_regime_boundaries(nu):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for x in _regime_points(nu):
            assert abs(bessel_j(nu, x) - float(mpmath.besselj(nu, x))) <= 1.6e-13, x


def test_miller_overflow_headroom():
    """_miller_j needs no rescaling: its recurrence starts at 1e-300 and then
    runs near 1e-300 * J_k(x) / J_start(x), with |J_k| <= 1, so it stays far
    below 1e250.  Checked for every order just above the series threshold,
    where the headroom is least, and for every 20th order on a log grid of x."""
    mpmath = pytest.importorskip("mpmath")

    def first_miller_x(nu):
        x = math.sqrt(4.0 * (nu + 1))
        while x * x <= 4.0 * (nu + 1):
            x = math.nextafter(x, math.inf)
        return x

    def peak(nu, x):  # in mpmath's arbitrary exponent range, so nothing underflows
        return 1e-300 / abs(mpmath.besselj(_miller_start(nu, x), x))

    for nu in range(MAX_BESSEL_ORDER + 1):
        x = first_miller_x(nu)
        assert peak(nu, x) < 1e250, (nu, x)
    for nu in range(0, MAX_BESSEL_ORDER + 1, 20):
        for x in np.geomspace(first_miller_x(nu), 3000.0, 12).tolist():
            assert peak(nu, x) < 1e250, (nu, x)


def _one_order_miller(nu, x):
    """Miller's recurrence run for one order, the loop each scalar call ran
    before calls at one x shared a run: the reference for _miller_run."""
    start = _miller_start(nu, x)
    fp = 0.0
    f = 1e-300
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
    return result / norm


def _miller_points(nu, count=6):
    """Miller-regime x for J_nu: its first and last x, both sides of nu + 1
    (where J_{nu-1}, J_nu and J_{nu+1} start at different orders, or at one),
    and seeded log-uniform draws up to the Hankel edge."""
    lo = math.nextafter(math.sqrt(4.0 * (nu + 1)), math.inf)
    hi = max(1e4, 3.0 * nu * nu)
    rng = np.random.default_rng(1000 + nu)
    points = [lo, hi, float(nu + 1), nu + 1.5, math.nextafter(nu + 1.0, 0.0)]
    points += np.exp(rng.uniform(math.log(lo), math.log(hi), count)).tolist()
    return [x for x in points if lo <= x <= hi]


@pytest.mark.parametrize("nu", [0, 1, 2, 42, 199, 200])
def test_scalar_miller_equals_one_order_reference(nu):
    neighbours = [o for o in (nu + 1, nu - 1) if 0 <= o <= MAX_BESSEL_ORDER]
    for x in _miller_points(nu):
        want = _one_order_miller(nu, x).hex()
        assert bessel_j(nu, x).hex() == want, x  # the memo as earlier points left it
        _miller_run.cache_clear()
        assert bessel_j(nu, x).hex() == want, x  # a cold run
        _miller_run.cache_clear()
        for order in neighbours:  # warmed by the recurrence check's other orders
            bessel_j(order, x)
        assert bessel_j(nu, x).hex() == want, x


def test_miller_memo_is_bounded():
    assert _miller_run.cache_info().maxsize is not None
    values, _ = _miller_run(_miller_start(200, 1e5), 1e5)
    assert isinstance(values, tuple)  # a memoised run cannot be altered by a caller
    assert len(values) <= MAX_BESSEL_ORDER + 2


@pytest.mark.parametrize("nu", [0, 1, 42, 199, 200])
def test_miller_start_array_equals_scalar(nu):
    """The array start rule of _miller_j_batch against the scalar one, where
    int() or the sqrt term is about to step: integer x and x near
    (2j/3)**2, plus both sides of the series and Hankel edges."""
    xs = [float(i) for i in range(1, 400)] + np.geomspace(400.0, 1.3e5, 200).round().tolist()
    xs += [(2.0 * j / 3.0) ** 2 for j in range(1, 540)]
    xs += [math.sqrt(4.0 * (nu + 1)), max(1e4, 3.0 * nu * nu)]
    xs += [math.nextafter(x, d) for x in xs for d in (0.0, math.inf)]
    got = _miller_starts(nu, np.array(xs))
    assert got.tolist() == [_miller_start(nu, x) for x in xs]


def test_integral_tiny_bessel_argument():
    # 4 pi sqrt(N n ell^2)/(c p M) << 1 with k = 43: astronomically small
    params = IntegralParams(N=100.0, n=1, p=11, ell=3, c=1000.0, M=10**4, k=43)
    val, _ = integral_value_and_error(params, WindowFunction("plateau", 1.0 / 154.0))
    assert abs(val) <= 1e-20


def test_integral_simpson_cross_check():
    params = IntegralParams(N=1e6, n=10**6, p=11, ell=3, c=29.0, M=10**4, m=1, k=43)
    window = WindowFunction("plateau", 1.0 / 154.0)
    got, err = integral_value_and_error(params, window, 1e-12)

    lo, hi = window.support(params.M)
    cpm = params.c * params.p * params.M
    freq = params.N * params.ell / cpm
    coeff = 4 * math.pi * math.sqrt(params.N * params.n) * params.ell / cpm
    const = params.n * params.ell / cpm

    def f(y):
        return (cmath.exp(2j * math.pi * (freq * y + const))
                * bessel_j(params.k - 1, coeff * math.sqrt(y)) * window(y, params.M))

    n_pts = 40001  # fixed-grid composite Simpson at double-ish resolution
    ys = np.linspace(lo, hi, n_pts)
    vals = [f(float(y)) for y in ys]
    h = (hi - lo) / (n_pts - 1)
    simpson = vals[0] + vals[-1]
    simpson += 4 * sum(vals[1:-1:2]) + 2 * sum(vals[2:-1:2])
    simpson *= h / 3
    assert abs(got - simpson) < 1e-9


def test_integral_tolerance_halving():
    params = IntegralParams(N=1e6, n=10**6, p=11, ell=3, c=15.0, M=10**4, m=1, k=43)
    window = WindowFunction("plateau", 1.0 / 154.0)
    v1, err1 = integral_value_and_error(params, window, 1e-10)
    v2, _ = integral_value_and_error(params, window, 5e-11)
    assert abs(v1 - v2) <= err1


def test_transition_cutoff_examples():
    M = 10**4
    N = M**1.5
    L = M ** (9 / 77)
    P = M ** (20 / 77)
    c0 = transition_cutoff(N, L, P, M, m=1, eps=0.01)
    assert c0 > 0
    assert transition_cutoff(N, L, 2 * P, M, m=1, eps=0.01) < c0
    assert math.isclose(transition_cutoff(N, 2 * L, P, M, m=1, eps=0.01), 2 * c0)
    assert math.isclose(transition_cutoff(N, L, P, M, m=2, eps=0.01), c0 / 2)
    with pytest.raises(OutOfRange):
        transition_cutoff(N, L, P, M, m=0)


def test_decay_scan_higher_weight_decays_more():
    window = WindowFunction("plateau", TOY_THETA)
    cutoff = transition_cutoff(TOY_PARAMS.N, TOY_L, TOY_P, TOY_PARAMS.M, 1, 0.01)
    c = 4.0 * cutoff
    low = IntegralParams(TOY_PARAMS.N, TOY_PARAMS.n, TOY_PARAMS.p, TOY_PARAMS.ell,
                         c, TOY_PARAMS.M, 1, 11)
    high = IntegralParams(TOY_PARAMS.N, TOY_PARAMS.n, TOY_PARAMS.p, TOY_PARAMS.ell,
                          c, TOY_PARAMS.M, 1, 43)
    assert (abs(integral_value_and_error(high, window)[0])
            <= abs(integral_value_and_error(low, window)[0]) + 1e-18)
