"""Byte-level pins: the inverse table against pow(), and every suite's
smoke report against its recorded sha256.

The report hashes were recorded with the scalar case-by-case sweeps,
before the batched kernels replaced them; a faster path must not move a
single byte of any report.
"""

import hashlib

import numpy as np
import pytest

from deltasum.cli import main
from deltasum.expsums import units_and_inverses
from deltasum.suites import SUITES

SMOKE_REPORT_SHA256 = {
    "bessel-decay": "ab719448a9218a9eb1039dbd3f20157e97f89b67d64a735bca2cddfe78609ac1",
    "c1": "0b99e6f92ba4be88f17ae63d6f94b5bfc9960eb8848eb23dd1b9ffda9f3afdfa",
    "c2": "0d649cf57803c0124c70d5eb503fea27ce51ad6c02bbd52539e1ec2523fc6253",
    "c3": "277eb359b5b7de03e71173ee2ef7506f3f8688b1eb7cd0cd1abcb492e2a67e52",
    "c4": "f3b602f0b43e9fbd083f5c178ad089717798e272b55894c68eb44c8157beb82c",
    "dsum-cancel": "719fefb1463e45893722cd4a31477e1c45500519efe05b2c61268f1c48beec95",
    "exponent": "efe510abe394d6b569d7f6ce1c42d29e3295892aaeb3c35f3960616a13b60017",
    "psi-average": "7151376cec47218f4c14afe75002d84d5a0aa7037cfdb7dbccd19f99c3b2d913",
    "reciprocity": "eae54e6dd95f7ea6e43010eac45844ca0b9285b8ba3e6430310cc59fb58cc3c7",
    "twisted-split": "69cad04e26ca94af175475e8d2bdc0c2589ff0e930ce67370ae4953d776fc444",
    "voronoi-char": "4e3f1165d68f422c4c2da338e56f0b3f376440a4e368299f0c0eab14b621cfc7",
    "weil": "b2af98aeb9b1db5dfc7032e607a5880fccb119ecc371908c69e5a890e95e93c8",
}


def test_pins_cover_every_suite():
    assert set(SMOKE_REPORT_SHA256) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(SMOKE_REPORT_SHA256))
def test_smoke_report_bytes_pinned(suite, tmp_path, capsys):
    code = main(["verify", suite, "--json", "--grid-preset", "smoke",
                 "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SMOKE_REPORT_SHA256[suite]


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
