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
"""

import hashlib

import numpy as np
import pytest

from deltasum.cli import main
from deltasum.expsums import units_and_inverses
from deltasum.oscillatory import IntegralParams, WindowFunction, integral_value_and_error
from deltasum.suites import SUITES

SMOKE_REPORT_SHA256 = {
    "bessel-decay": "ab719448a9218a9eb1039dbd3f20157e97f89b67d64a735bca2cddfe78609ac1",
    "c1": "0b99e6f92ba4be88f17ae63d6f94b5bfc9960eb8848eb23dd1b9ffda9f3afdfa",
    "c2": "0d649cf57803c0124c70d5eb503fea27ce51ad6c02bbd52539e1ec2523fc6253",
    "c3": "277eb359b5b7de03e71173ee2ef7506f3f8688b1eb7cd0cd1abcb492e2a67e52",
    "c4": "f3b602f0b43e9fbd083f5c178ad089717798e272b55894c68eb44c8157beb82c",
    "dsum-cancel": "001865dcbf14f3cc248a26145a2380344b01419a3b9a78c10073308c9eb941d4",
    "exponent": "efe510abe394d6b569d7f6ce1c42d29e3295892aaeb3c35f3960616a13b60017",
    "psi-average": "7151376cec47218f4c14afe75002d84d5a0aa7037cfdb7dbccd19f99c3b2d913",
    "reciprocity": "eae54e6dd95f7ea6e43010eac45844ca0b9285b8ba3e6430310cc59fb58cc3c7",
    "twisted-split": "69cad04e26ca94af175475e8d2bdc0c2589ff0e930ce67370ae4953d776fc444",
    "voronoi-char": "4e3f1165d68f422c4c2da338e56f0b3f376440a4e368299f0c0eab14b621cfc7",
    "weil": "b2af98aeb9b1db5dfc7032e607a5880fccb119ecc371908c69e5a890e95e93c8",
}

# `verify <suite> --json --grid-preset default`, the contractual grids
DEFAULT_REPORT_SHA256 = {
    "bessel-decay": "a69d33d845226e7c8c8e9229ecea32150c3b17dd059120c420b474b845d2811b",
    "c1": "43f2bbb0446329c1b3425bad6cb439afe36114a75cd0f6e4027abfe2c146afa3",
    "c2": "a36f24660cc47b435499c6e614f866e67817b545c4830726f1d4359da3f1b544",
    "c3": "ba232c9739679f75cbd1ab43c7b793766a1b7f70f43ed8d333b21a56f8db1cf9",
    "c4": "377d72ecbce2d7a75a21206c143708bdea697d8082703f6e4da80b93f9834fa5",
    "dsum-cancel": "ba19979c2b41d4766893a3686650fa9222f04ab0f40a12fb99fcf72660b00ab9",
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
    ("plateau", 8.0, 1e-12): ("-0x1.614c310009962p-11", "-0x1.f1f10f0e021b2p-11", "0x1.19799812dea11p-40"),
    ("plateau", 4.0, 1e-12): ("-0x1.962d7457e96b5p-10", "0x1.67f5dbb0535c0p-9", "0x1.19799812dea11p-40"),
    ("plateau", 2.0, 1e-12): ("0x1.56dcc7b10a6b1p-10", "0x1.e77ab499bc8d8p-11", "0x1.19799812dea11p-40"),
    ("plateau", 1.0, 1e-12): ("-0x1.4f0b74da6042dp-11", "0x1.f21bda9cfb033p-13", "0x1.19799812dea11p-40"),
    # bisects one level below the initial panels
    ("bump", 8.0, 1e-12): ("-0x1.31057e176dd22p-9", "0x1.ba2b29c78bfb9p-10", "0x1.19799812dea11p-40"),
}


@pytest.mark.parametrize("kind, c, tol", sorted(INTEGRAL_BITS))
def test_integral_bits_pinned(kind, c, tol):
    params = IntegralParams(N=1e6, n=10**6, p=11, ell=3, c=c, M=10**4, m=1, k=43)
    window = WindowFunction(kind, 1.0 / 154.0 if kind == "plateau" else 0.0)
    value, err = integral_value_and_error(params, window, tol)
    assert (value.real.hex(), value.imag.hex(), float(err).hex()) == INTEGRAL_BITS[(kind, c, tol)]


@pytest.mark.parametrize("c", [29.0, 8.0])
def test_integral_bits_independent_of_batch_size(c, monkeypatch):
    from deltasum import oscillatory

    monkeypatch.setattr(oscillatory, "_MAX_BATCH_NODES", 45)  # three panels per call
    test_integral_bits_pinned("plateau", c, 1e-12)
