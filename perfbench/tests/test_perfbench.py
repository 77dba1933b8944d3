"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    make = workloads.INPUTS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_default_seed_runs_the_suites_at_their_own_seeds():
    from deltasum import suites

    for argv in workloads.verify_inputs(0):
        name = argv[1]
        if "seed" in suites.run_suite(name, preset="smoke").grid:  # the report records it
            default = inspect.signature(suites.SUITES[name]).parameters["seed"].default
            assert argv[-2:] == ["--seed", str(default)]
        else:
            assert "--seed" not in argv


def test_corrupted_cache_hit_counts_as_failed(tmp_path, monkeypatch):
    from deltasum import cli

    real_main = cli.main
    seen = set()

    def corrupting_main(argv):
        key = tuple(argv)
        if key in seen:  # a repeat: serve a damaged copy of the cached output
            sys.stdout.write("corrupted\n")
            return 0
        seen.add(key)
        return real_main(argv)

    monkeypatch.setattr(cli, "main", corrupting_main)
    ops = workloads.request_inputs(3, smoke=True)
    _, outputs, _ = workloads.run_pass("cli-requests", ops, str(tmp_path))
    failed, hits = workloads.check_requests(ops, outputs, 3)
    assert sum(hits) >= 1
    assert failed == hits


def test_wrong_integral_and_bessel_values_count_as_failed():
    from deltasum import bessel_j

    ops = [("integral", 29.0), ("bessel", 10, 3.0)]
    reference = {"29.0": [1.0, 0.0]}
    values = tuple(bessel_j(nu, 3.0) for nu in (9, 10, 11))
    right = [(1.0 + 0j, 1e-12), values]
    assert workloads.check_integral(ops, right, reference) == [False, False]
    wrong = [(1.0 + 2e-12j, 1e-12), (values[0], values[1] + 1e-8, values[2])]
    assert workloads.check_integral(ops, wrong, reference) == [True, True]


def test_report_that_changes_between_passes_fails_that_suite_once(monkeypatch):
    import run

    suites = workloads.SUITE_NAMES
    spawned = []

    def fake_spawn(args, deadline):
        if args == ["--probe"]:
            return {"setup_s": 0.1}
        spawned.append(args)
        hashes, failed = dict.fromkeys(suites, "a"), [False] * len(suites)
        if len(spawned) == 2:  # weil fails its own check and changes its report
            hashes["weil"] = "b"
            failed[suites.index("weil")] = True
        return {"setup_s": 0.1, "wall_s": 1.0, "latencies_s": [0.1] * len(suites),
                "peak_rss_mb": 1.0, "numpy": "", "failed": failed,
                "hashes": hashes, "layers": dict.fromkeys(run.LAYER_METRICS, 0),
                "untraced_names": []}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    result, _ = run.measure("verify-default", 0, 0, 1, smoke=True)
    assert len(spawned) == 2
    assert (result["attempted"], result["failed"]) == (2 * len(suites), 1)
