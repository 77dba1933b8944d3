"""Scan reports and the seeded generator behind every random grid.

The generator is a plain 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64

with 32-bit outputs taken from the high half of the state.  The constants
are fixed here (Knuth's MMIX multiplier) so that a reimplementation in any
language reproduces the same parameter grids from the same seed.

A ScanReport's canonical JSON rendering deliberately omits runtime_ms:
re-running a suite with the same seed must produce byte-identical JSON,
and wall time is the one field that cannot be reproducible.  The runtime
is still recorded on the object and in the CSV ledger.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1

LEDGER_COLUMNS = ("suite", "cases", "max_deviation", "worst_witness", "passed", "runtime_ms")


class Lcg:
    """Seeded 64-bit LCG; below(n) uses next_u32 mod n (bias is negligible
    for the desk-scale n used in grids)."""

    def __init__(self, seed):
        self.state = (seed ^ LCG_INCREMENT) & LCG_MASK
        self.next_u32()

    def next_u32(self):
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & LCG_MASK
        return self.state >> 32

    def below(self, n):
        return self.next_u32() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]


@dataclass
class ScanReport:
    """Machine-readable record of one verification campaign."""

    suite: str
    grid: dict
    cases: int
    max_deviation: float
    worst_witness: tuple | list | None
    passed: bool
    runtime_ms: int = 0
    notes: dict = field(default_factory=dict)

    def payload(self):
        out = {
            "suite": self.suite,
            "grid": self.grid,
            "cases": self.cases,
            "max_deviation": self.max_deviation,
            "worst_witness": list(self.worst_witness) if self.worst_witness is not None else None,
            "passed": self.passed,
        }
        if self.notes:
            out["notes"] = self.notes
        return out

    def to_json(self):
        return json.dumps(self.payload(), indent=2)

    def csv_row(self):
        witness = json.dumps(list(self.worst_witness) if self.worst_witness is not None else None)
        return [self.suite, str(self.cases), repr(self.max_deviation), witness,
                str(self.passed).lower(), str(self.runtime_ms)]


def append_ledger(report, cache_dir):
    """Append one CSV row to the ledger in cache_dir (created on demand)."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, "ledger.csv")
    line = ",".join('"%s"' % cell.replace('"', '""') for cell in report.csv_row()) + "\n"
    if not os.path.exists(path):
        header = ",".join(LEDGER_COLUMNS) + "\n"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(header + line)
    else:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line)
    return path
