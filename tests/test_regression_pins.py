"""Byte-level pins: the inverse table against pow(), every suite's smoke and
default-grid report against its recorded sha256, and the window integrals'
bits.

The smoke hashes were recorded with the scalar case-by-case sweeps,
before the batched kernels replaced them; the default-grid hashes, before
one sweep accumulator replaced each suite's own bookkeeping (they equal
perfbench/meta.json's suite_sha256); and the integral bits with the
panel-by-panel recursive quadrature and scalar Bessel calls, before the
level-synchronous batched loop replaced them; a faster path must not move
a single byte of any report or a single bit of any integral.

One exception, re-pinned on purpose: `dsum-cancel` (smoke and default).
Its sweep used to re-evaluate only the argmax of its FFT screen per
modulus, which is not always the case-by-case maximum, since the screen
may misorder cases that lie within its rounding of each other.  It now
nominates through _Sweep.offer like the other screened suites, and both
pins were re-recorded; only max_deviation and worst_witness moved, to the
case-by-case values (smoke (31, 2, 2) -> (31, 28, 29), default
(173, 48, 66) -> (173, 124, 107)), so the default pin no longer equals
perfbench/meta.json's entry for dsum-cancel.

A second one: `c1`, `c2` and `c4` (smoke and default), when every
reported sum in expsums became one correctly rounded fsum of its
summands.  The a-sums of c1 and c2 used to add their terms with +=, and
c4's Kloosterman rows used numpy's pairwise np.sum per entry (they now
have kloosterman's bits).  Only max_deviation moved, in its last bits;
every witness stayed.  These pins no longer equal perfbench/meta.json's
entries either.

A third one: `c3` and `dsum-cancel` (smoke and default), when every
normalized suite came to pass at ceiling 1.  `c3` compares its raw route
with the exact closed form, M(M - 2) at v = 1 and -M(1 + chi(v)) off it,
in place of a composite with an empirical 3M ceiling (worst smoke
0.6666666666666666 at (5, 2, 4) -> 9.985948354774705e-10 at (7, 1, 3),
default 0.666666666666667 at (13, 4, 12) -> 3.500350567182128e-09 at
(13, 11, 12)), and its report lost the observed-ceiling note.
`dsum-cancel` divides |D| by Weil's 2 sqrt(M) + est_error, not by sqrt(M)
under a ceiling 4 (smoke 1.9958403126749917 -> 0.9979201563374855,
default 1.99975643639674 -> 0.9998782181983439, witnesses unchanged), and
its grid lost the "ceiling" key.  `twisted-split` did not move.

A fourth one: the window integral bits at plateau c = 8, 4, 2 and 1 and
bump c = 8, and `bessel-decay` (smoke and default), when the quadrature
came to add its accepted panels and differences by one fsum each, in
place of += in the recursive rule's depth-first order.  The values moved
by 1-15 ulp (plateau c = 1 imag 0x1.f21bda9cfb033p-13 ->
0x1.f21bda9cfb024p-13); the c = 29 bits and every error estimate did
not.  In `bessel-decay` only the last bits of notes.rows[*].abs_integral
and trivial_ratio moved; max_deviation and the witness did not, so its
default pin no longer equals perfbench/meta.json's entry.
"""

import hashlib
import os
import pathlib
import platform
import subprocess
import sys

import numpy as np
import pytest

from deltasum.cli import SUMS, main
from deltasum.expsums import units_and_inverses
from deltasum.oscillatory import IntegralParams, WindowFunction, integral_value_and_error
from deltasum.suites import SUITES

SMOKE_REPORT_SHA256 = {
    "bessel-decay": "2a6e622071f3a3e68568fe2372f3c528a3237aeecedefc128a47d004437e7449",
    "c1": "e6e8436e226683cc6c1018ab54844a2d449dda6c37d4857fbe7923937c4e8a74",
    "c2": "dbe973bd9af7da858e9205a1584021450e358a10210a107bc728208561dd5ec1",
    "c3": "c20a797b62f62ed90d7b199933ebb776ab59a6538e664b3ae83e4987f4fbe287",
    "c4": "395fe42d5cda1b66c2a18700311041d3b43a06b1dd49a6fa8c0c0051e44cb55f",
    "dsum-cancel": "bdcd8471dc988735ea3e7766464ba702c1694a50b8ca14f682d2ee99598085c3",
    "exponent": "efe510abe394d6b569d7f6ce1c42d29e3295892aaeb3c35f3960616a13b60017",
    "psi-average": "7151376cec47218f4c14afe75002d84d5a0aa7037cfdb7dbccd19f99c3b2d913",
    "reciprocity": "eae54e6dd95f7ea6e43010eac45844ca0b9285b8ba3e6430310cc59fb58cc3c7",
    "twisted-split": "69cad04e26ca94af175475e8d2bdc0c2589ff0e930ce67370ae4953d776fc444",
    "voronoi-char": "4e3f1165d68f422c4c2da338e56f0b3f376440a4e368299f0c0eab14b621cfc7",
    "weil": "b2af98aeb9b1db5dfc7032e607a5880fccb119ecc371908c69e5a890e95e93c8",
}

# `verify <suite> --json --grid-preset default`, the contractual grids
DEFAULT_REPORT_SHA256 = {
    "bessel-decay": "ab681d0bb5f015f53c98249240ffcf4a3616dd7d99b990724fc14f95fbe7d0ed",
    "c1": "e65f92d7782187e8749bfe5be675d8313f48a3c5aa23a4152c6e969a50d6307a",
    "c2": "45f069aecc0ee2f6e73dc4a92fe150cfa3c613378d615ae89dff3dc3d3221565",
    "c3": "5c82cfd59eaaa818cad3621712a23aa9f25d1b8367c1b930526b7a8133cd58a8",
    "c4": "d7691bd5c863b8b4b1e27169b29984b23340bc7ed70a9004dc2054435c756a47",
    "dsum-cancel": "c35ade0485861330aa959a21dcb20d8f5d0c8c21c37e1c5f8b2c481f8dc80750",
    "exponent": "efe510abe394d6b569d7f6ce1c42d29e3295892aaeb3c35f3960616a13b60017",
    "psi-average": "3cce5d3bdfe8b2600b040b63c957dac0dd4971a173867ecce5b70ffd12cd1e45",
    "reciprocity": "c67caf58f1b4dfe71d0d573baa90a702e9be3038488897e73eb513c6503696b8",
    "twisted-split": "5fb2de6d94ba97476df45cc0decbf8a90cbdf035412d62b98c3a9b8d37f85c03",
    "voronoi-char": "04097c68a8af570477cad45cbd67e58fd6a1cad983d8d259483342b308ff1034",
    "weil": "5df06fcb048bd6dbe0b9b81b4a11d9fa41a603e9e2cb85413f54c74a7bc8ab35",
}


def test_pins_cover_every_suite():
    assert set(SMOKE_REPORT_SHA256) == set(DEFAULT_REPORT_SHA256) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(SMOKE_REPORT_SHA256))
def test_smoke_report_bytes_pinned(suite, tmp_path, capsys):
    code = main(["verify", suite, "--json", "--grid-preset", "smoke",
                 "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SMOKE_REPORT_SHA256[suite]


@pytest.mark.parametrize("suite", sorted(DEFAULT_REPORT_SHA256))
def test_default_report_bytes_pinned(suite, tmp_path, capsys):
    code = main(["verify", suite, "--json", "--grid-preset", "default",
                 "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEFAULT_REPORT_SHA256[suite]


def test_inverse_table_matches_pow_small_moduli():
    for c in range(2, 3001):
        xs, inv = units_and_inverses(c)
        assert inv.tolist() == [pow(x, -1, c) for x in xs.tolist()], c
    xs, inv = units_and_inverses(1)
    assert xs.tolist() == [0] and inv.tolist() == [0]


@pytest.mark.parametrize("c", [2**20, 9999991, 3**13])  # power of 2, prime, odd prime power
def test_inverse_table_matches_pow_large_moduli(c):
    xs, inv = units_and_inverses(c)
    assert xs.size == {2**20: 2**19, 9999991: 9999990, 3**13: 2 * 3**12}[c]
    assert np.all(xs * inv % c == 1)
    sample = np.linspace(0, xs.size - 1, 2000).astype(np.int64)
    assert inv[sample].tolist() == [pow(x, -1, c) for x in xs[sample].tolist()]
    units_and_inverses.cache_clear()  # release the large tables


# (window, c, tol) -> float.hex of (re, im, err_estimate) at the toy parameters
INTEGRAL_BITS = {
    ("plateau", 29.0, 1e-12): ("0x1.5d1dd078b912bp-35", "0x1.6f2f072edc7dbp-36", "0x1.19799812dea11p-40"),
    ("plateau", 8.0, 1e-12): ("-0x1.614c310009961p-11", "-0x1.f1f10f0e021bfp-11", "0x1.19799812dea11p-40"),
    ("plateau", 4.0, 1e-12): ("-0x1.962d7457e96b4p-10", "0x1.67f5dbb0535c1p-9", "0x1.19799812dea11p-40"),
    ("plateau", 2.0, 1e-12): ("0x1.56dcc7b10a6b0p-10", "0x1.e77ab499bc8dep-11", "0x1.19799812dea11p-40"),
    ("plateau", 1.0, 1e-12): ("-0x1.4f0b74da60430p-11", "0x1.f21bda9cfb024p-13", "0x1.19799812dea11p-40"),
    # bisects one level below the initial panels
    ("bump", 8.0, 1e-12): ("-0x1.31057e176dd24p-9", "0x1.ba2b29c78bfb9p-10", "0x1.19799812dea11p-40"),
}


@pytest.mark.parametrize("kind, c, tol", sorted(INTEGRAL_BITS))
def test_integral_bits_pinned(kind, c, tol):
    params = IntegralParams(N=1e6, n=10**6, p=11, ell=3, c=c, M=10**4, m=1, k=43)
    window = WindowFunction(kind, 1.0 / 154.0 if kind == "plateau" else 0.0)
    value, err = integral_value_and_error(params, window, tol)
    assert (value.real.hex(), value.imag.hex(), float(err).hex()) == INTEGRAL_BITS[(kind, c, tol)]


# c = 29 runs the series, the others Miller; at c = 4 and 2 the Miller
# starts span 130-230 and 210-410 across the 45-node chunks
@pytest.mark.parametrize("c", [29.0, 8.0, 4.0, 2.0])
def test_integral_bits_independent_of_batch_size(c, monkeypatch):
    from deltasum import oscillatory

    monkeypatch.setattr(oscillatory, "_MAX_BATCH_NODES", 45)  # three panels per call
    test_integral_bits_pinned("plateau", c, 1e-12)


# numpy picks its SIMD kernels at run time; NPY_ENABLE_CPU_FEATURES limits a
# process to the listed level.  Every reported sum is an fsum, the window
# integral takes its transcendentals from libm, and numpy's other real
# array operations are correctly rounded at every level, so these pins must
# not move with the CPU: every report pin, the integral bits and the `sum`
# stdouts, in a subprocess at each level.
#
# CPU_DEPENDENT_PINS are left out.  Their cause is ROADMAP item 1: a numpy
# complex array product reaches each of them (gauss_sum and d_sum for c2
# and `sum gauss`, c4_correlation's row1 * row2 * root for c4), and numpy
# fuses its multiply-add at some levels and not at others.  The fix, also
# item 1, builds those products from separate real ufunc calls, which no
# level fuses; this list is then empty.
CPU_DEPENDENT_PINS = ["test_regression_pins.py::test_smoke_report_bytes_pinned[c4]",
                      "test_regression_pins.py::test_default_report_bytes_pinned[c2]",
                      "test_regression_pins.py::test_default_report_bytes_pinned[c4]",
                      "test_cli.py::test_sum_stdout_pinned[gauss]",
                      "test_cli.py::test_sum_stdout_pinned[c4]"]
PINS_AT_CPU_LEVEL = ["test_regression_pins.py::test_integral_bits_pinned",
                     "test_regression_pins.py::test_smoke_report_bytes_pinned",
                     "test_regression_pins.py::test_default_report_bytes_pinned",
                     "test_cli.py::test_sum_stdout_pinned"]


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the CPU feature levels are x86-64 ones")
@pytest.mark.parametrize("level", ["SSE42", "X86_V3"])
def test_integral_pins_hold_at_cpu_level(level):
    tests = pathlib.Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES=level,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode:
        pytest.skip(f"numpy does not run at {level} on this host: {probe.stderr[-200:]}")
    deselect = [arg for pin in CPU_DEPENDENT_PINS for arg in ("--deselect", f"tests/{pin}")]
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-o", "addopts=", *deselect,
                           *[f"tests/{pin}" for pin in PINS_AT_CPU_LEVEL]],
                          env=env, cwd=tests.parent, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]
    kept = (len(INTEGRAL_BITS) + len(SMOKE_REPORT_SHA256) + len(DEFAULT_REPORT_SHA256)
            + len(SUMS) - len(CPU_DEPENDENT_PINS))
    assert f"{kept} passed, {len(CPU_DEPENDENT_PINS)} deselected" in done.stdout
