"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Input generation uses only the standard library (``random.Random.random``,
whose stream is stable across Python versions), so the same seed gives the
same inputs and the program receives nothing but those inputs.  ``run_pass``
needs ``deltasum`` importable; it looks ``cli.main`` up on every request so
that the tracer's wrappers, or a test's injected fault, are seen.

Workloads (the names are fixed; later changes cite them):

* ``verify-default`` - all 12 suites at ``--grid-preset default`` through
  ``cli.main(["verify", ...])``.  The contractual end-to-end run; almost all
  of its time is in ``expsums`` and ``suites``.
* ``integral-sweep`` - the toy-preset window integral for c in
  {29, 8, 4, 2, 1} plus a seeded ``bessel_j`` grid over all three regimes.
  Exercises ``oscillatory`` almost alone.
* ``cli-requests`` - a closed loop with one caller issuing a seeded stream
  of ``cli.main`` requests against a fresh cache; about half repeat an
  earlier argv, so they are cache reads.  Exercises ``cli``, the result
  cache and ``exponent``, over a working set of moduli the memos keep.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time

SUITE_NAMES = ("bessel-decay", "c1", "c2", "c3", "c4", "dsum-cancel", "exponent",
               "psi-average", "reciprocity", "twisted-split", "voronoi-char", "weil")
# Default seeds of the seeded suites (they appear in each report's grid).
# Benchmark seed s runs each of them at default + s, so s = 0 reproduces the
# contractual default reports; the other suites ignore the seed.
SUITE_SEEDS = {"reciprocity": 1, "c1": 2, "c2": 3, "c4": 4, "weil": 5}

# Toy preset of the window integral (the CLI's `integral --preset toy`).
TOY = {"N": 1e6, "n": 10**6, "p": 11, "ell": 3, "M": 10**4, "m": 1, "k": 43}
TOY_THETA = 1.0 / 154.0
INTEGRAL_TOL = 1e-12
INTEGRAL_CS = (29.0, 8.0, 4.0, 2.0, 1.0)

# bessel_j points per regime; Miller is the majority so that the median
# point sits inside one cluster of costs.
BESSEL_POINTS = {"series": 30, "miller": 90, "hankel": 30}
MILLER_X_CAP = 2000.0  # keeps any single backward recurrence short
HANKEL_X_MAX = 2e5

REQUESTS = 1000
KLOOSTERMAN_CHECKS = 5  # misses re-summed in pure Python per pass
ODD_PRIMES = (101, 211, 307, 401, 503, 601, 701, 809, 907, 1009, 1511, 2003, 2503, 3001)
# Shares of the new (cache-miss) requests, apart from the four optimize
# variants, which each appear once as new.  The shares are chosen, not
# measured from real traffic.  Fixed counts keep the latency distribution's
# shape the same for every seed.  Integral misses are the costliest kind and
# 8% of all requests, so req_p95_ms falls inside their cluster, not on an
# edge between clusters: the p95 is set by toy integrals at c in [8, 40].
NEW_REQUEST_MIX = (("kloosterman", 0.36), ("bessel", 0.18), ("integral", 0.16),
                   ("dsum", 0.10), ("gauss", 0.10), ("ramanujan", 0.10))
INTEGRAL_C_RANGE = (8.0, 40.0)
OPTIMIZE_VARIANTS = (
    ["optimize", "--paper", "--exact"],
    ["optimize", "--paper", "--staged", "--exact"],
    ["optimize", "--paper", "--exact", "--json"],
    ["optimize", "--paper", "--staged", "--exact", "--json"],
)


# ------------------------------------------------------------------ inputs

def _shuffled(rng, items):
    return sorted(items, key=lambda _item: rng.random())


def _strata(rng, count):
    """One jittered point in each of `count` equal slices of [0, 1), shuffled.

    Stratifying keeps the spread of costs nearly the same for every seed,
    so the seed changes the inputs without changing the workload's shape.
    """
    return _shuffled(rng, [(i + rng.random()) / count for i in range(count)])


def verify_inputs(seed, smoke=False):
    """One `verify` argv per suite, seeded suites at their default + seed."""
    preset = "smoke" if smoke else "default"
    ops = []
    for suite in SUITE_NAMES:
        argv = ["verify", suite, "--json", "--grid-preset", preset]
        if suite in SUITE_SEEDS:
            argv += ["--seed", str(SUITE_SEEDS[suite] + seed)]
        ops.append(argv)
    return ops


def _bessel_point(regime, nu_u, x_u):
    """(nu, x) inside `regime` for the centre order; nu in [1, 199] so that
    both recurrence neighbours stay in the supported range."""
    nu = 1 + int(nu_u * 199)
    if regime == "series":
        x = 2.0 * math.sqrt(nu + 1) * (0.02 + 0.98 * x_u)
    elif regime == "miller":
        lo = 2.0 * math.sqrt(nu + 2) + 1.0
        x = lo + (MILLER_X_CAP - lo) * x_u
    else:
        lo = 1.01 * max(1e4, 3.0 * (nu + 1) ** 2)
        x = lo * (HANKEL_X_MAX / lo) ** x_u
    return nu, x


def integral_inputs(seed, smoke=False):
    """Each window integral followed by one round of a stratified seeded
    bessel_j grid.  A round takes a few tens of milliseconds; spreading the
    rounds over the pass lets the percentiles of the short Bessel latencies
    see the machine at several moments, not one."""
    rng = random.Random(seed)
    grid = []
    for regime, count in BESSEL_POINTS.items():
        count = 2 if smoke else count
        for nu_u, x_u in zip(_strata(rng, count), _strata(rng, count)):
            grid.append(("bessel",) + _bessel_point(regime, nu_u, x_u))
    ops = []
    for c in INTEGRAL_CS[:2] if smoke else INTEGRAL_CS:
        ops += [("integral", c)] + grid
    return ops


def _new_requests(rng, count):
    """`count` distinct new argvs in a seeded order: each kind's parameters
    are stratified, Kloosterman moduli cycle through a working set of six
    values in [1e3, 6e4] that the program's memos keep: one near each of six
    log-spaced points, jittered by at most 4% so that a Kloosterman sum,
    which costs about its modulus, costs nearly the same for every seed."""
    moduli = [int(1000 * 60 ** ((i + 0.45 + 0.1 * rng.random()) / 6)) for i in range(6)]
    rest = count - len(OPTIMIZE_VARIANTS)
    kinds = []
    for i in range(rest):
        u = (i + 0.5) / rest
        for kind, share in NEW_REQUEST_MIX:
            u -= share
            if u < 0:
                break
        kinds.append(kind)
    strata = {kind: iter(_strata(rng, kinds.count(kind))) for kind, _ in NEW_REQUEST_MIX}
    argvs = [list(v) for v in OPTIMIZE_VARIANTS]
    for i, kind in enumerate(kinds):
        u = next(strata[kind])
        if kind == "kloosterman":
            argvs.append(["sum", "kloosterman", "--m", str(1 + int(rng.random() * 10**6)),
                          "--n", str(1 + int(rng.random() * 10**6)),
                          "--c", str(moduli[int(u * len(moduli))]), "--json"])
        elif kind in ("dsum", "gauss"):
            M = ODD_PRIMES[int(u * len(ODD_PRIMES))]
            argv = ["sum", kind, "--modulus", str(M),
                    "--chi-index", str(1 + int(rng.random() * (M - 2)))]
            if kind == "dsum":
                argv += ["--u", str(1 + int(rng.random() * (M - 1)))]
            argvs.append(argv + (["--json"] if i % 2 else []))
        elif kind == "ramanujan":
            argvs.append(["sum", "ramanujan", "--q", str(1 + int(rng.random() * 10**6)),
                          "--n", str(1 + int(rng.random() * 10**6))])
        elif kind == "bessel":
            regime = ("series", "miller", "hankel")[int(u * 3)]
            nu, x = _bessel_point(regime, rng.random(), (u * 3) % 1.0)
            argvs.append(["bessel", "--nu", str(nu), "--x", repr(x)])
        else:
            lo, hi = INTEGRAL_C_RANGE
            argvs.append(["integral", "--preset", "toy", "--c", repr(round(lo + (hi - lo) * u, 6)),
                          "--json"])
    return _shuffled(rng, argvs)


def request_inputs(seed, smoke=False):
    """A stream of cli.main argvs: half new (computed and written to the
    cache), half repeats of an earlier argv (cache reads)."""
    rng = random.Random(seed)
    count = 40 if smoke else REQUESTS
    repeat_slots = set(_shuffled(rng, range(1, count))[:count // 2])
    new = iter(_new_requests(rng, count - len(repeat_slots)))
    stream = []
    for i in range(count):
        if i in repeat_slots:
            stream.append(list(stream[int(rng.random() * len(stream))]))
        else:
            stream.append(next(new))
    return stream


INPUTS = {"verify-default": verify_inputs, "integral-sweep": integral_inputs,
          "cli-requests": request_inputs}
WORKLOADS = tuple(INPUTS)


# --------------------------------------------------------------- execution

def _call_cli(argv):
    from deltasum import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def run_pass(workload, ops, workdir):
    """Run every op once, timing each; returns (latencies_s, outputs, wall_s).

    `workdir` is an empty directory used as the CLI cache.  Outputs are
    (exit_code, stdout) for CLI ops, (value, err_estimate) for integrals and
    (J_{nu-1}, J_nu, J_{nu+1}) for Bessel points.
    """
    latencies, outputs = [], []
    clock = time.perf_counter
    if workload == "integral-sweep":
        from deltasum import oscillatory

        window = oscillatory.WindowFunction("plateau", TOY_THETA)
        t_start = clock()
        for op in ops:
            t0 = clock()
            if op[0] == "integral":
                params = oscillatory.IntegralParams(c=op[1], **TOY)
                out = oscillatory.integral_value_and_error(params, window, INTEGRAL_TOL)
            else:
                _, nu, x = op
                out = tuple(oscillatory.bessel_j(order, x) for order in (nu - 1, nu, nu + 1))
            latencies.append(clock() - t0)
            outputs.append(out)
        return latencies, outputs, clock() - t_start
    t_start = clock()
    for argv in ops:
        t0 = clock()
        out = _call_cli(argv + ["--cache-dir", workdir])
        latencies.append(clock() - t0)
        outputs.append(out)
    return latencies, outputs, clock() - t_start


# ------------------------------------------------------------------ checks

def identity_tolerance(total_terms, lhs_abs, rhs_abs):
    """The package's identity tolerance (README), restated independently."""
    return 1e-6 * math.sqrt(max(total_terms, 1)) + 1e-9 * (lhs_abs + rhs_abs)


def direct_kloosterman(m, n, c):
    """S(m, n; c) by a plain Python sum over the units, angles reduced exactly."""
    re = im = 0.0
    terms = 0
    for x in range(c):
        if math.gcd(x, c) != 1:
            continue
        angle = 2.0 * math.pi * ((m * x + n * pow(x, -1, c)) % c) / c
        re += math.cos(angle)
        im += math.sin(angle)
        terms += 1
    return complex(re, im), terms


def report_sha256(stdout):
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def check_verify(ops, outputs):
    """Each suite exits 0 and reports passed; returns (fail flags, hashes)."""
    failed, hashes = [], {}
    for argv, (code, stdout) in zip(ops, outputs):
        try:
            ok = code == 0 and json.loads(stdout)["passed"] is True
        except (ValueError, KeyError, TypeError):
            ok = False
        failed.append(not ok)
        hashes[argv[1]] = report_sha256(stdout)
    return failed, hashes


def bessel_residual_ratio(nu, x, values):
    """Three-term recurrence residual over 1e-9 max(1, |J_nu|) (<= 1 passes);
    the threshold of the package's bessel-decay suite."""
    jm, j, jp = values
    res = abs(jm + jp - (2.0 * nu / x) * j)
    return res / (1e-9 * max(1.0, abs(j)))


def check_integral(ops, outputs, reference):
    """Integrals within their own err_estimate of the recorded reference;
    Bessel points within the recurrence threshold."""
    failed = []
    for op, out in zip(ops, outputs):
        if op[0] == "integral":
            value, err = out
            ref = reference.get(repr(op[1]))
            ok = ref is not None and abs(value - complex(*ref)) <= err
        else:
            ok = bessel_residual_ratio(op[1], op[2], out) <= 1.0
        failed.append(not ok)
    return failed


def _optimize_ok(argv, stdout):
    if "--json" in argv:
        try:
            payload = json.loads(stdout)
        except ValueError:
            return False
        return payload.get("theta") == "1/154" and payload.get("exponent") == "115/154"
    lines = stdout.splitlines()
    return "theta = 1/154" in lines and "exponent = 115/154" in lines


def _kloosterman_ok(argv, stdout):
    flags = dict(zip(argv[2::2], argv[3::2]))
    m, n, c = (int(flags[k]) for k in ("--m", "--n", "--c"))
    try:
        payload = json.loads(stdout)
        value = complex(payload["re"], payload["im"])
    except (ValueError, KeyError, TypeError):
        return False
    direct, terms = direct_kloosterman(m, n, c)
    return abs(value - direct) <= identity_tolerance(2 * terms, abs(value), abs(direct))


def check_requests(ops, outputs, seed):
    """Per request: exit 0; a repeat's stdout equals the first run's; optimize
    prints theta = 1/154 and exponent 115/154; a seeded sample of
    Kloosterman misses matches a direct sum.  Returns (fail flags, hit flags)."""
    first = {}
    failed, hits = [], []
    kloosterman_misses = []
    for i, (argv, (code, stdout)) in enumerate(zip(ops, outputs)):
        key = tuple(argv)
        hit = key in first
        ok = code == 0
        if hit:
            ok = ok and stdout == first[key]
        else:
            first[key] = stdout
            if argv[:2] == ["sum", "kloosterman"]:
                kloosterman_misses.append(i)
        if argv[0] == "optimize":
            ok = ok and _optimize_ok(argv, stdout)
        failed.append(not ok)
        hits.append(hit)
    rng = random.Random(seed)
    for i in sorted(kloosterman_misses, key=lambda _i: rng.random())[:KLOOSTERMAN_CHECKS]:
        if not _kloosterman_ok(ops[i], outputs[i][1]):
            failed[i] = True
    return failed, hits
