"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Grids and tolerances are the contractual ones; the runtime limits
are asserted where the criterion states one.
"""

import inspect
import json
import time
from fractions import Fraction

from deltasum.characters import enumerate_characters
from deltasum.cli import main
from deltasum.exponent import minimize_max, paper_bound_problem, staged_elimination
from deltasum.expsums import c3_raw
from deltasum.suites import SUITES, run_suite


def _report(criterion, detail):
    print(f"PASS: criterion {criterion} - {detail}")


def test_criterion_1_exponent_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["verify", "exponent", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["notes"]["theta"] == "1/154"
    assert payload["notes"]["value"] == "115/154"
    assert Fraction(115, 154) == Fraction(3, 4) - Fraction(1, 308)
    lp = minimize_max(paper_bound_problem())
    staged = staged_elimination(paper_bound_problem())
    assert lp == staged
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"theta=1/154, exponent=115/154, staged==LP, {elapsed:.3f}s < 1s")


def test_criterion_2_psi_average_identity(capsys):
    t0 = time.perf_counter()
    report = run_suite("psi-average")
    elapsed = time.perf_counter() - t0
    assert report.passed, report.worst_witness
    assert report.cases >= 2900  # ~ 3 * 2 * 6 * 100 minus the gcd-filtered points
    assert report.grid["p"] == [3, 5, 7] and report.grid["M"] == [11, 13]
    assert elapsed < 30.0
    with capsys.disabled():
        _report(2, f"{report.cases} cases, worst normalized deviation "
                   f"{report.max_deviation:.3g} <= 1, {elapsed:.1f}s < 30s")


def test_criterion_3_c3_closed_form(capsys):
    t0 = time.perf_counter()
    report = run_suite("c3")  # M in {5,7,11,13}, all chi, all v
    elapsed = time.perf_counter() - t0
    assert report.passed, report.worst_witness
    for M in (5, 7, 11, 13):
        for chi in enumerate_characters(M)[1:]:
            raw = c3_raw(1, M, chi)
            assert round(raw.value.real) == M * (M - 2)
            for v in range(2, M):
                assert abs(c3_raw(v, M, chi).value) <= 3 * M
    assert elapsed < 60.0
    with capsys.disabled():
        _report(3, f"raw=closed on {report.cases} cases, v=1 gives M(M-2) exactly, "
                   f"off-diagonal <= 3M, {elapsed:.1f}s < 60s")


def test_criterion_4_weil_bound(capsys):
    t0 = time.perf_counter()
    report = run_suite("weil")  # c <= 2000, 20 random pairs per c
    elapsed = time.perf_counter() - t0
    assert report.passed, report.worst_witness
    assert report.cases == 2000 * 20
    assert report.max_deviation <= 1.0
    assert elapsed < 300.0
    with capsys.disabled():
        _report(4, f"|S| <= d(c) gcd^1/2 sqrt(c) + est on {report.cases} cases, "
                   f"max ratio {report.max_deviation:.6f}, {elapsed:.1f}s < 5min")


def test_criterion_5_voronoi_character_sum(capsys):
    report = run_suite("voronoi-char")
    assert report.passed, report.worst_witness
    assert report.grid["vanishing_cases"] > 0  # both vanishing strata exercised
    with capsys.disabled():
        _report(5, f"raw beta-sum = closed form on {report.cases} admissible cases "
                   f"({report.grid['vanishing_cases']} vanishing), tolerance 1e-6 sqrt(T)")


def test_criterion_6_twisted_splitting(capsys):
    report = run_suite("twisted-split")
    assert report.passed, report.worst_witness
    assert report.grid["p"] == [3, 5] and report.grid["M"] == [7, 11]
    assert report.grid["c_max"] == 8
    with capsys.disabled():
        _report(6, f"S_psi splitting identities on {report.cases} cases "
                   f"(exhaustive psi), worst {report.max_deviation:.3g} <= 1")


def test_criterion_7_bessel_integral_claims(capsys):
    report = run_suite("bessel-decay")
    assert report.passed, report.worst_witness
    rows = {row["multiplier"]: row for row in report.notes["rows"]}
    for t, row in rows.items():
        if t >= 4:
            assert row["abs_integral"] <= 1e-15
        assert row["trivial_ratio"] <= 100.0
    with capsys.disabled():
        _report(7, "toy-scale integral negligible past 4x cutoff, trivial-bound "
                   "ratio <= 100, recurrence residuals <= 1e-9")


def test_criterion_8_c4_cancellation(capsys):
    report = run_suite("c4")  # 200 seeded instances
    assert report.passed, report.worst_witness
    assert report.cases == 200
    assert "observed_max_normalized_ratio" in report.notes
    with capsys.disabled():
        _report(8, f"|c4| <= 10 sqrt(Q (r'l)(r'l') gcd(n,Q)) on 200 instances; "
                   f"observed max ratio {report.notes['observed_max_normalized_ratio']:.3f}")


def test_criterion_9_dsum_cancellation(capsys):
    report = run_suite("dsum-cancel")  # all primes M <= 300, all chi, all u != 0
    assert report.passed, report.worst_witness
    assert report.max_deviation <= 4.0
    with capsys.disabled():
        _report(9, f"max |D(u;M)|/sqrt(M) = {report.max_deviation:.4f} <= 4 over "
                   f"{report.cases} (M, chi, u) points, M <= 300")


def test_criterion_10_determinism(capsys):
    mismatches = []
    for name in ("psi-average", "reciprocity", "c1", "c2", "c3", "c4", "weil",
                 "dsum-cancel", "exponent"):
        seed = 3 if "seed" in inspect.signature(SUITES[name]).parameters else None
        r1 = run_suite(name, preset="smoke", seed=seed)
        r2 = run_suite(name, preset="smoke", seed=seed)
        if r1.to_json().encode() != r2.to_json().encode():
            mismatches.append(name)
    assert not mismatches
    with capsys.disabled():
        _report(10, "byte-identical JSON reports on re-run with the same seed")
