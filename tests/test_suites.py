import csv
import importlib.util
import inspect
import json
import math
import pathlib

import numpy as np
import pytest

from deltasum import suites
from deltasum.characters import enumerate_characters
from deltasum.errors import BudgetExceeded, InvalidValue
from deltasum.expsums import (
    dsum_screen,
    identity_tolerance,
    units_and_inverses,
    voronoi_char_sum_closed,
)
from deltasum.numcore import primes_between
from deltasum.scan import Lcg, ScanReport, append_ledger
from deltasum.suites import (
    CASES,
    SMOKE_OVERRIDES,
    SUITES,
    _Sweep,
    bessel_decay_case,
    c1_case,
    c2_case,
    c3_case,
    c4_case,
    dsum_cancel_case,
    psi_average_case,
    reciprocity_case,
    run_suite,
    twisted_split_case,
    voronoi_case,
    weil_case,
)

CASE_RERUNNERS = {
    "psi-average": lambda w: psi_average_case(*w),
    "reciprocity": lambda w: reciprocity_case(*w),
    "c1": lambda w: c1_case(*w),
    "c2": lambda w: c2_case(*w),
    "c3": lambda w: c3_case(*w),
    "c4": lambda w: c4_case(*w),
    "voronoi-char": lambda w: voronoi_case(*w),
    "twisted-split": lambda w: twisted_split_case(*w),
    "weil": lambda w: weil_case(*w),
    "dsum-cancel": lambda w: dsum_cancel_case(*w),
    "bessel-decay": lambda w: bessel_decay_case(*w),
}


def test_lcg_is_reproducible_and_documented():
    a = Lcg(12345)
    b = Lcg(12345)
    seq_a = [a.next_u32() for _ in range(10)]
    seq_b = [b.next_u32() for _ in range(10)]
    assert seq_a == seq_b
    assert Lcg(1).next_u32() != Lcg(2).next_u32()
    from deltasum.scan import LCG_INCREMENT, LCG_MULTIPLIER

    assert LCG_MULTIPLIER == 6364136223846793005
    assert LCG_INCREMENT == 1442695040888963407


def test_every_smoke_suite_passes():
    for name in SUITES:
        report = run_suite(name, preset="smoke")
        assert report.passed, f"{name}: {report.max_deviation} at {report.worst_witness}"
        assert report.cases > 0
        assert report.suite in (name, "bessel-decay")


def test_reports_are_deterministic_across_reruns():
    for name in SUITES:
        seed = 9 if "seed" in inspect.signature(SUITES[name]).parameters else None
        r1 = run_suite(name, preset="smoke", seed=seed)
        r2 = run_suite(name, preset="smoke", seed=seed)
        assert r1.to_json() == r2.to_json()
        assert r1.to_json().encode() == r2.to_json().encode()


def test_seed_changes_random_grids():
    r1 = run_suite("weil", preset="smoke", seed=1)
    r2 = run_suite("weil", preset="smoke", seed=2)
    assert r1.worst_witness != r2.worst_witness


def test_worst_witness_reproduces_max_deviation():
    for name, rerun in CASE_RERUNNERS.items():
        report = run_suite(name, preset="smoke")
        if report.worst_witness is None:
            continue
        again = rerun(report.worst_witness)
        assert repr(again) == repr(report.max_deviation), name


def test_report_json_schema():
    report = run_suite("c3", preset="smoke")
    payload = json.loads(report.to_json())
    assert set(payload) >= {"suite", "grid", "cases", "max_deviation",
                            "worst_witness", "passed"}
    assert "runtime_ms" not in payload  # only the CSV ledger carries wall time
    assert report.runtime_ms >= 0 and report.csv_row()[-1] == str(report.runtime_ms)


def test_ledger_append(tmp_path):
    report = run_suite("reciprocity", preset="smoke")
    path = append_ledger(report, str(tmp_path))
    path2 = append_ledger(report, str(tmp_path))
    assert path == path2
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["suite", "cases", "max_deviation", "worst_witness",
                       "passed", "runtime_ms"]
    assert len(rows) == 3
    assert rows[1][0] == "reciprocity"
    assert rows[1][4] == "true"


def test_report_payload_rejects_nothing_exotic():
    report = ScanReport("demo", {"a": 1}, 2, 0.5, (1, 2), True, 17)
    payload = report.payload()
    json.dumps(payload)
    assert report.runtime_ms == 17 and report.csv_row()[-1] == "17"


def test_exponent_suite_reports_exact_strings():
    report = run_suite("exponent")
    assert report.passed
    assert report.notes["theta"] == "1/154"
    assert report.notes["value"] == "115/154"
    assert report.notes["xP"] == "20/77"
    assert report.notes["xL"] == "9/77"
    assert report.notes["growth_condition_satisfied_unconstrained"] is True


def test_psi_average_grid_skips_shared_factors():
    report = run_suite("psi-average", preset="smoke")
    assert report.grid["skipped"] >= 0


def test_run_suite_rejects_unknown():
    with pytest.raises(KeyError):
        run_suite("nope")
    with pytest.raises(KeyError):
        run_suite("weil", preset="huge")


@pytest.mark.parametrize("name, keyword", [("weil", "trials"), ("exponent", "seed"),
                                           ("weil", "tolerance_scale"),
                                           ("psi-average", "budget"), ("c3", "seed"),
                                           ("dsum-cancel", "ceiling"),
                                           ("reciprocity", "max_modulus"),
                                           ("twisted-split", "typo"), ("psi-average", "grid")])
def test_run_suite_rejects_undeclared_keywords(name, keyword):
    with pytest.raises(InvalidValue, match=keyword):
        run_suite(name, preset="smoke", **{keyword: 1})
    run_suite(name, preset="smoke", **{keyword: None})  # None means not given


@pytest.mark.parametrize("name, keyword, value", [
    ("c3", "M_list", 5), ("psi-average", "p", 3), ("twisted-split", "c_max", 2.5),
    ("weil", "seed", 1.5), ("c1", "c_max", True), ("reciprocity", "trials", 2.5)])
def test_run_suite_rejects_values_that_do_not_fit_the_default(name, keyword, value):
    with pytest.raises(InvalidValue, match=keyword):
        run_suite(name, preset="smoke", **{keyword: value})


def test_suites_declare_only_what_they_read():
    for name, suite in SUITES.items():
        params = inspect.signature(suite).parameters.values()
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params), name


def test_partial_grid_takes_the_other_defaults():
    report = run_suite("psi-average", p=[3])
    assert report.grid == {"p": [3], "M": [11, 13], "c_max": 6, "r_max": 10, "m_max": 10,
                           "skipped": 400}  # c = 3 and 6
    assert report.cases == 800 and report.passed


@pytest.mark.parametrize("name, field", [("psi-average", "r_max"), ("voronoi-char", "n_max"),
                                         ("voronoi-char", "r_max"), ("twisted-split", "c_max")])
def test_empty_grids_sweep_no_case(name, field):
    report = run_suite(name, preset="smoke", **{field: 0})
    assert (report.cases, report.worst_witness, report.passed) == (0, None, True)


def _perfbench_workloads():
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_case_enumerators_take_their_suites_keywords():
    assert set(CASES) == set(SUITES) - {"bessel-decay", "exponent"}
    params = {name: inspect.signature(suite).parameters for name, suite in SUITES.items()}
    for name, cases in CASES.items():
        want = [(key, p.default) for key, p in params[name].items() if key != "tolerance_scale"]
        got = [(key, p.default) for key, p in inspect.signature(cases).parameters.items()]
        assert got == want, name
    seeds = {name: p["seed"].default for name, p in params.items() if "seed" in p}
    assert _perfbench_workloads().SUITE_SEEDS == seeds  # the benchmark runs these by default


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_equals_the_case_by_case_sweep_of_its_enumerator(name):
    """Each case of the enumerator at the smoke grid through its *_case (a
    block (arguments, size, witness_of) stands for witness_of(0..size-1)),
    with the sweep's witness rule."""
    worst, witness, cases = 0.0, None, 0
    for item in CASES[name](**SMOKE_OVERRIDES[name]):
        if callable(item[-1]):
            _args, size, witness_of = item
            witnesses = map(witness_of, range(size))
        else:
            witnesses = [item]
        for w in witnesses:
            dev = CASE_RERUNNERS[name](w)
            if not cases or dev > worst:
                worst, witness = dev, tuple(w)
            cases += 1
    report = run_suite(name, preset="smoke")
    assert report.max_deviation.hex() == worst.hex()
    assert (report.worst_witness, report.cases) == (witness, cases)


def test_sweep_witness_is_first_case_reaching_the_max():
    sweep = _Sweep()
    for witness, dev in [("a", 0.0), ("b", 0.0), ("c", 0.5), ("d", 0.5), ("e", 0.25)]:
        sweep.add(witness, dev)
    report = sweep.report("demo", {}, ceiling=0.5)
    assert (report.cases, report.max_deviation, report.worst_witness) == (5, 0.5, ("c",))
    assert report.passed and not sweep.report("demo", {}, ceiling=0.4).passed
    # the first case offered sets the witness even when every deviation is 0
    sweep = _Sweep()
    sweep.offer(np.zeros(3), np.zeros(3), lambda i: (i,), lambda i: 0.0)
    assert (sweep.cases, sweep.worst, sweep.witness) == (3, 0.0, (0,))


def test_sweep_offer_matches_add_case_by_case():
    devs = np.round(np.random.default_rng(0).random(200), 1)  # many ties
    by_add, by_offer = _Sweep(), _Sweep()
    for i, dev in enumerate(devs.tolist()):
        by_add.add((i,), dev)
    for block in np.split(np.arange(200), [7, 50, 51, 120]):
        by_offer.offer(devs[block], np.full(block.size, 1e-3),
                       lambda i, block=block: (int(block[i]),), lambda i: float(devs[i]))
    expected = (200, float(devs.max()), (int(np.argmax(devs)),))
    assert (by_offer.cases, by_offer.worst, by_offer.witness) == expected
    assert (by_add.cases, by_add.worst, by_add.witness) == expected


def test_c3_identity_implies_the_3M_ceiling():
    # Off the diagonal |closed| = M |1 + chi(v)| <= 2M, so |raw| >= 3M means
    # |raw - closed| >= |raw| - 2M, which outgrows the tolerance as |raw|
    # grows: such a raw value fails the identity once the tolerance at
    # |raw| = 3M, |closed| = 2M (terms 2M(M - 2)) is below M.
    for M in inspect.signature(suites.suite_c3).parameters["M_list"].default:
        assert identity_tolerance(2 * M * (M - 2), 3 * M, 2 * M) < M


def test_bessel_decay_toy():
    report = run_suite("bessel-decay", multipliers=(0.25, 1.0, 4.0, 8.0))
    assert report.passed
    rows = {row["multiplier"]: row for row in report.notes["rows"]}
    assert rows[4.0]["negligible"] and rows[8.0]["negligible"]
    assert all(row["trivial_ratio"] <= 100.0 for row in report.notes["rows"])


def test_bessel_decay_witnesses_rerun_bit_for_bit():
    report = run_suite("bessel-decay", preset="smoke")
    assert tuple(report.worst_witness) == ("trivial-bound", 0.5)
    assert repr(bessel_decay_case(*report.worst_witness)) == repr(report.max_deviation)
    # the negligible checks never win here (the recurrence residuals are larger),
    # so the rerun is compared with the deviation the sweep was offered
    (row,) = [row for row in report.notes["rows"] if row["multiplier"] >= 4]
    assert row["negligible"]
    assert (repr(bessel_decay_case("negligible", row["multiplier"]))
            == repr(row["abs_integral"] / 1e-15))
    assert (repr(bessel_decay_case("trivial-bound", row["multiplier"]))
            == repr(row["trivial_ratio"] / 100.0))


def test_smoke_overrides_cover_every_suite():
    assert set(SMOKE_OVERRIDES) == set(SUITES)


# The batched sweeps must report exactly what the case-by-case sweeps they
# replaced report; these loops are those sweeps, kept as the reference.

@pytest.mark.parametrize("seed", [1, 11])
def test_weil_sweep_matches_case_by_case_reference(seed):
    grid = SMOKE_OVERRIDES["weil"]
    rng = Lcg(seed)
    worst, witness = 0.0, None
    for c in range(1, grid["c_max"] + 1):
        for _ in range(grid["pairs_per_c"]):
            m = 1 + rng.below(10**6)
            n = 1 + rng.below(10**6)
            dev = weil_case(m, n, c)
            if dev > worst:
                worst, witness = dev, (m, n, c)
    report = run_suite("weil", preset="smoke", seed=seed)
    assert (report.max_deviation, tuple(report.worst_witness)) == (worst, witness)
    assert report.cases == grid["c_max"] * grid["pairs_per_c"]


# weil's payloads at the edges of its grid, as the per-modulus sweep gave them
WEIL_EMPTY = {"cases": 0, "max_deviation": 0.0, "worst_witness": None, "passed": True}
WEIL_C1 = {"max_deviation": 0.999999999999998, "worst_witness": [301177, 17879, 1],
           "passed": True}


@pytest.mark.parametrize("grid, pinned", [
    ({"c_max": 0}, WEIL_EMPTY),
    ({"c_max": -5}, WEIL_EMPTY),
    ({"pairs_per_c": 0}, WEIL_EMPTY),
    ({"c_max": -5, "pairs_per_c": -1}, WEIL_EMPTY),
    ({"c_max": 1}, {"cases": 20, **WEIL_C1}),
    ({"c_max": 30, "pairs_per_c": 1}, {"cases": 30, **WEIL_C1}),
])
def test_weil_edge_grids_pinned(grid, pinned):
    payload = run_suite("weil", **grid).payload()
    full_grid = {"c_max": 2000, "pairs_per_c": 20, "seed": 5, **grid}
    assert payload == {"suite": "weil", "grid": full_grid, **pinned}


def test_weil_rejects_moduli_above_the_budget_before_drawing():
    with pytest.raises(BudgetExceeded):
        run_suite("weil", c_max=10**7 + 1)


def test_voronoi_sweep_matches_case_by_case_reference():
    grid = {"m_max": 2, "c_max": 8, "m_prime_max": 8, "ell": [3, 5], "M": [13],
            "r_max": 5, "n_max": 5}
    worst, witness, cases, vanishing = 0.0, None, 0, 0
    for m in range(1, grid["m_max"] + 1):
        for c in range(1, grid["c_max"] + 1):
            for d in [x for x in range(1, c + 1) if c % x == 0]:
                for m_prime in [x for x in range(1, grid["m_prime_max"] + 1)
                                if (m * c) % x == 0]:
                    for ell in grid["ell"]:
                        if math.gcd(m_prime, c // d) % ell == 0:
                            continue
                        for M in grid["M"]:
                            if math.gcd(M, c) != 1:
                                continue
                            for r in range(1, grid["r_max"] + 1):
                                for n in range(1, grid["n_max"] + 1):
                                    args = (n, m, m_prime, c, d, r, ell, M)
                                    dev = voronoi_case(*args)
                                    vanishing += voronoi_char_sum_closed(*args).value == 0
                                    cases += 1
                                    if dev > worst:
                                        worst, witness = dev, args
    report = run_suite("voronoi-char", **grid)
    assert (report.max_deviation, tuple(report.worst_witness)) == (worst, witness)
    assert (report.cases, report.grid["vanishing_cases"]) == (cases, vanishing)


@pytest.mark.parametrize("name", ["voronoi-char", "psi-average"])
def test_block_sweeps_offer_the_scalar_deviations_with_zero_slack(monkeypatch, name):
    offers = []
    real_offer = _Sweep.offer

    def recording_offer(self, devs, slacks, witness_of, case_fn):
        offers.append((devs.copy(), np.broadcast_to(slacks, devs.shape).copy(), witness_of,
                       case_fn))
        real_offer(self, devs, slacks, witness_of, case_fn)

    monkeypatch.setattr(_Sweep, "offer", recording_offer)
    report = run_suite(name, preset="smoke")
    assert sum(devs.size for devs, *_ in offers) == report.cases
    for devs, slacks, witness_of, case_fn in offers:
        assert not slacks.any()
        for i, dev in enumerate(devs.tolist()):
            assert dev.hex() == case_fn(*witness_of(i)).hex()


def test_voronoi_sweep_calls_each_block_kernel_once_per_group(monkeypatch):
    calls = {"raw": [], "closed": [], "case": 0, "case_outside_offer": 0}
    in_offer = [False]

    def counting(key, fn):
        def wrapped(ns, rows, *group):
            calls[key].append((group, rows))
            return fn(ns, rows, *group)
        return wrapped

    def counting_case(*args, **kwargs):
        calls["case"] += 1
        calls["case_outside_offer"] += not in_offer[0]
        return voronoi_case(*args, **kwargs)

    real_offer = _Sweep.offer

    def offer(self, *args):
        in_offer[0] = True
        try:
            real_offer(self, *args)
        finally:
            in_offer[0] = False

    monkeypatch.setattr(suites, "voronoi_char_sums_raw",
                        counting("raw", suites.voronoi_char_sums_raw))
    monkeypatch.setattr(suites, "voronoi_char_sums_closed",
                        counting("closed", suites.voronoi_char_sums_closed))
    monkeypatch.setattr(suites, "voronoi_case", counting_case)
    monkeypatch.setattr(_Sweep, "offer", offer)
    report = run_suite("voronoi-char")
    grid = report.grid
    blocks = []
    for m in range(1, grid["m_max"] + 1):
        for c in range(1, grid["c_max"] + 1):
            for d in [x for x in range(1, c + 1) if c % x == 0]:
                for m_prime in [x for x in range(1, grid["m_prime_max"] + 1)
                                if (m * c) % x == 0]:
                    # grid order: ell, then M, then r (n runs along each row)
                    rows = [(r, ell, M) for ell in grid["ell"]
                            if math.gcd(m_prime, c // d) % ell
                            for M in grid["M"] if math.gcd(M, c) == 1
                            for r in range(1, grid["r_max"] + 1)]
                    if rows:
                        blocks.append(((m, m_prime, c, d), rows))
    assert calls["raw"] == calls["closed"] == blocks
    assert calls["case_outside_offer"] == 0
    assert 1 <= calls["case"] <= 50


def test_hypot_equals_python_abs_bit_for_bit():
    rng = np.random.default_rng(20261018)
    size = 100_000
    mags = 10.0 ** rng.uniform(-320, 308, size=(2, size))
    parts = mags * rng.choice([-1.0, 1.0], size=(2, size))
    parts[:, rng.random(size) < 0.05] = 0.0  # zeros, alone and with the other part
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 1e-310, 1.0, -1.0]
    pairs = [(a, b) for a in special for b in special]
    re = np.concatenate([parts[0], [a for a, _ in pairs]])
    im = np.concatenate([parts[1], [b for _, b in pairs]])

    def python_abs(a, b):
        try:
            return abs(complex(a, b))
        except OverflowError:  # where hypot returns inf, Python raises instead
            return math.inf

    with np.errstate(over="ignore"):
        got = np.hypot(re, im).tolist()
    want = [python_abs(a, b) for a, b in zip(re.tolist(), im.tolist())]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert got.count(math.inf) == 4  # the maximum float with itself, in both signs


@pytest.mark.parametrize("grid, skips", [
    (SMOKE_OVERRIDES["psi-average"], 0),
    ({"p": [3, 5], "M": [7], "c_max": 4, "r_max": 4, "m_max": 3}, 12),  # c = 3 at p = 3
])
def test_psi_average_sweep_matches_case_by_case_reference(grid, skips):
    worst, witness, cases, skipped = 0.0, None, 0, 0
    for p in grid["p"]:
        for M in grid["M"]:
            for c in range(1, grid["c_max"] + 1):
                if math.gcd(p, c * M) != 1:
                    skipped += grid["r_max"] * grid["m_max"]
                    continue
                for r in range(1, grid["r_max"] + 1):
                    for m in range(1, grid["m_max"] + 1):
                        dev = psi_average_case(r, m, c, p, M)
                        cases += 1
                        if witness is None or dev > worst:
                            worst, witness = dev, (r, m, c, p, M)
    report = run_suite("psi-average", **grid)
    assert (report.max_deviation, tuple(report.worst_witness)) == (worst, witness)
    assert (report.cases, report.grid["skipped"]) == (cases, skipped)
    assert skipped == skips


def test_dsum_rows_match_one_transform_per_character():
    for M in primes_between(3, 61):
        _, inv = units_and_inverses(M)
        bs = np.arange(2, M)
        t_idx = (inv[bs - 1] - 1) % M
        rows = np.zeros((M - 2, M), dtype=np.complex128)
        for row, chi in enumerate(enumerate_characters(M)[1:]):
            f = np.zeros(M, dtype=np.complex128)
            f[t_idx] = np.conj(chi.value_array())[bs - 1]
            rows[row] = np.fft.ifft(f) * M
        assert dsum_screen(M)[0].tobytes() == np.abs(rows).tobytes(), M


def test_dsum_sweep_matches_case_by_case_reference(monkeypatch):
    offers = []
    real_offer = _Sweep.offer

    def recording_offer(self, devs, slacks, witness_of, case_fn):
        offers.append((devs.copy(), np.broadcast_to(slacks, devs.shape).copy()))
        real_offer(self, devs, slacks, witness_of, case_fn)

    monkeypatch.setattr(_Sweep, "offer", recording_offer)
    report = run_suite("dsum-cancel", preset="smoke")
    worst, witness, devs = 0.0, None, []
    for M in primes_between(2, SMOKE_OVERRIDES["dsum-cancel"]["M_max"] + 1):
        for chi_index in range(1, M - 1):
            for u in range(1, M):
                devs.append(dsum_cancel_case(M, chi_index, u))
                if witness is None or devs[-1] > worst:
                    worst, witness = devs[-1], (M, chi_index, u)
    assert (report.max_deviation, tuple(report.worst_witness)) == (worst, witness)
    assert report.cases == len(devs) == 15470
    # the screen is offered in the loop's order, each value within its slack
    screened, slacks = (np.concatenate(x) for x in zip(*offers))
    assert np.all(np.abs(screened - np.array(devs)) <= slacks)
