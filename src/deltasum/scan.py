"""Scan reports and the seeded generator behind every random grid.

The generator is a plain 64-bit linear congruential generator,

    state <- (6364136223846793005 * state + 1442695040888963407) mod 2**64

with 32-bit outputs taken from the high half of the state.  The constants
are fixed here (Knuth's MMIX multiplier) so that a reimplementation in any
language reproduces the same parameter grids from the same seed.

Lcg.next_u32_block(count) draws the same outputs a whole block at a time by
jumping ahead: j steps from state s give

    state_j = (A_j * s + C_j) mod 2**64,  A_j = a**j,
    C_j = c * (a**(j-1) + ... + a + 1),

with a the multiplier and c the increment.  The table of (A_j, C_j) for
j = 1..LCG_BLOCK is built on first use by doubling: A_(m+j) = A_j A_m and
C_(m+j) = A_j C_m + C_j.

A ScanReport's canonical JSON rendering deliberately omits runtime_ms:
re-running a suite with the same seed must produce byte-identical JSON,
and wall time is the one field that cannot be reproducible.  The runtime
is still recorded on the object and in the CSV ledger.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field

import numpy as np

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1
LCG_BLOCK = 1 << 12  # states per jump-ahead block of next_u32_block

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

    def next_u32_block(self, count):
        """The next count outputs of next_u32, as a uint64 array, leaving
        state where count calls of next_u32 would.  numpy's uint64
        products wrap mod 2**64, as the recurrence needs."""
        steps, shifts = _jump_table()
        out = np.empty(count, dtype=np.uint64)
        for lo in range(0, count, LCG_BLOCK):
            states = steps[:count - lo] * np.uint64(self.state) + shifts[:count - lo]
            out[lo:lo + states.size] = states >> np.uint64(32)
            self.state = int(states[-1])
        return out

    def below(self, n):
        return self.next_u32() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]


@functools.cache
def _jump_table():
    """(A_j, C_j) for j = 1..LCG_BLOCK as uint64 arrays (see the module
    docstring), built on first use."""
    steps = np.array([LCG_MULTIPLIER], dtype=np.uint64)
    shifts = np.array([LCG_INCREMENT], dtype=np.uint64)
    while steps.size < LCG_BLOCK:
        steps, shifts = (np.concatenate((steps, steps * steps[-1])),
                         np.concatenate((shifts, steps * shifts[-1] + shifts)))
    steps.setflags(write=False)
    shifts.setflags(write=False)
    return steps, shifts


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


def csv_line(cells):
    """The cells as one CSV line, each quoted, with inner quotes doubled."""
    return ",".join('"%s"' % cell.replace('"', '""') for cell in cells)


def append_ledger(report, cache_dir):
    """Append one CSV row to the ledger in cache_dir (created on demand)."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, "ledger.csv")
    header = "" if os.path.exists(path) else ",".join(LEDGER_COLUMNS) + "\n"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(header + csv_line(report.csv_row()) + "\n")
    return path
