"""deltasum benchmark: the command that runs the workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout.  For one workload it starts fresh child
interpreters one after another (single-threaded, no wrappers unless
traced): three that only import ``deltasum``, then one full pass per child
until --seconds have gone by.  Without --workload it runs all three.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones: medians
over the passes, with each child's times scaled to a reference machine
speed by its own speed samples (see child.py).  With --trace 1 untraced and traced passes alternate; the
metrics are the per-layer ones from the traced passes, and the tracing
overhead is the difference of the two sides' median wall times.
The line before it, "detail: {...}", carries provenance, sample counts,
informational figures and the layer-to-end-to-end map.  Any crash exits
non-zero with no result.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "req_p50_ms": "ms", "req_p95_ms": "ms"}
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run, children included


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def provenance():
    rev, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "--git-dir", os.path.join(ROOT, ".git"), "--work-tree", ROOT]
        try:
            rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30, check=True).stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30, check=True)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_revision": rev, "git_dirty": dirty, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg())}


class ChildFailed(RuntimeError):
    pass


def spawn(args, deadline):
    """Run child.py to completion and return its result object."""
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               DELTASUM_CACHE=os.path.join(ROOT, ".perfbench", "unused-cache"))
    env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")] + args,
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"child {args} ran past the deadline")
    if proc.returncode != 0:
        raise ChildFailed(f"child {args} exited {proc.returncode}:\n{err}")
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"child {args} printed no result:\n{out}\n{err}")


def percentile(values, q):
    """The q-th percentile (inclusive method), as a float."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_metrics(probes, passes, reference_s=None):
    """Operation latencies (ms) and the timed end-to-end metrics.

    With a reference_s each child's times are multiplied by reference_s over
    a median speed sample (see child.py): set-up time by that of the samples
    taken right after the import, wall time by that of the pass's samples,
    and each operation's latency by that of the samples taken near it.
    Every pass runs the same operations, so each operation's latency is its
    median over the passes; the percentiles are taken over those, and a
    burst of machine noise in one pass moves no operation.
    """
    def scale(speed):
        return reference_s / speed if reference_s else 1.0

    latencies = [statistics.median(ts) * 1e3 for ts in zip(
        *([t * scale(v) for t, v in zip(p["latencies_s"], p["op_speed_s"])] for p in passes))]
    return latencies, {
        "setup_s": statistics.median(p["setup_s"] * scale(p["setup_speed_s"])
                                     for p in probes + passes),
        "wall_s": statistics.median(p["wall_s"] * scale(p["speed_s"]) for p in passes),
        "req_p50_ms": statistics.median(latencies),
        "req_p95_ms": percentile(latencies, 95)}


def measure(workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns (result line object, detail object)."""
    meta = load_json(os.path.join(HERE, "meta.json"))
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    started = time.monotonic()
    deadline = started + DEADLINE_S
    detail = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "why": whys[workload], "provenance": provenance(),
              "layer_map": meta["layer_map"]}
    probes = [spawn(["--probe"], deadline) for _ in range(SETUP_PROBES)]
    base = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    passes, traced = [], []
    while not passes or time.monotonic() - started < seconds:
        passes.append(spawn(base, deadline))
        if trace:  # alternate, so that drift moves both sides of the overhead alike
            traced.append(spawn(base + ["--trace"], deadline))
    runs = passes + traced
    detail["numpy"] = runs[0]["numpy"]
    detail["passes"] = len(passes)
    detail["traced_passes"] = len(traced)
    detail["setup_samples"] = len(probes) + len(runs)

    if workload == "verify-default":
        # Canonical reports must be byte-identical across repetitions.
        # A pass whose report differs from the first pass's fails that suite.
        first = runs[0]["hashes"]
        for p in runs[1:]:
            for i, suite in enumerate(workloads.SUITE_NAMES):
                p["failed"][i] = p["failed"][i] or p["hashes"][suite] != first[suite]
        detail["suite_sha256"] = first
        if not smoke:  # informational: a kernel change that moves the last bits
            reference = meta["suite_sha256"]
            comparable = [s for s in first
                          if seed == meta["reference_seed"] or s not in workloads.SUITE_SEEDS]
            detail["suite_sha256_changed"] = sorted(s for s in comparable
                                                    if reference[s] != first[s])
    attempted = sum(len(p["failed"]) for p in runs)
    failed = sum(sum(p["failed"]) for p in runs)
    detail["ops_failed_ratio"] = {"failed": failed, "attempted": attempted,
                                  "ratio": failed / attempted}

    if trace:
        metrics = {}
        for name, unit in LAYER_METRICS.items():
            value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        untraced_wall = statistics.median(p["wall_s"] for p in passes)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        detail["trace_overhead_s"] = traced_wall - untraced_wall
        detail["untraced_wall_s"] = untraced_wall
        detail["traced_wall_s"] = traced_wall
        detail["untraced_names"] = traced[0]["untraced_names"]
    else:
        latencies, values = time_metrics(probes, passes, meta["speed_reference_s"])
        values["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        detail["unscaled"] = time_metrics(probes, passes)[1]
        detail["speed_s"] = statistics.median(p["speed_s"] for p in passes)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        detail["operations"] = len(latencies)
        if workload == "cli-requests":
            hits = passes[0]["hits"]
            hit_ms = [t for t, h in zip(latencies, hits) if h]
            miss_ms = [t for t, h in zip(latencies, hits) if not h]
            detail.update(req_hit_p50_ms=statistics.median(hit_ms), hits=len(hit_ms),
                          req_miss_p50_ms=statistics.median(miss_ms), misses=len(miss_ms))
        detail["cache_files"] = statistics.median(p["cache_files"] for p in passes)
        detail["cache_bytes"] = statistics.median(p["cache_bytes"] for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measuring time per workload (BENCHMARK.json uses 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the harness itself")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        for name in names:
            result, detail = measure(name, args.seed, args.seconds, args.trace, args.smoke)
            for metric, entry in result["metrics"].items():
                print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
            ratio = detail["ops_failed_ratio"]
            print(f"{name}  ops_failed_ratio = {ratio['ratio']:.6g} "
                  f"({ratio['failed']} of {ratio['attempted']} operations)")
            for metric in ("req_hit_p50_ms", "req_miss_p50_ms"):
                if metric in detail:
                    print(f"{name}  {metric} = {detail[metric]:.6g} ms")
            if args.trace:
                print(f"{name}  tracing overhead = {detail['trace_overhead_s']:.3f} s "
                      f"(traced {detail['traced_wall_s']:.3f} s, "
                      f"untraced {detail['untraced_wall_s']:.3f} s)")
            print("detail: " + json.dumps(detail))
            print(json.dumps(result), flush=True)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
