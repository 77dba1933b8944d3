"""One benchmark pass in a fresh interpreter, started by run.py.

Importing ``deltasum`` and ``deltasum.cli`` (what the console script
loads) comes first: set-up time runs from run.py's spawn timestamp
(PERFBENCH_SPAWNED, CLOCK_MONOTONIC, which every process shares) to the
end of that import.  The last stdout line is one JSON
object with the pass's raw samples; run.py aggregates the passes.

Each child also samples the machine's speed (see `speed_sample`), so run.py
can scale its times to a reference speed.

    python3 perfbench/child.py --workload NAME --seed N [--trace] [--smoke]
    python3 perfbench/child.py --probe        # set-up time only
"""

import os
import sys
import time

START = time.monotonic()

import deltasum  # noqa: E402  (the set-up being measured)
import deltasum.cli  # noqa: E402

SETUP_S = time.monotonic() - float(os.environ.get("PERFBENCH_SPAWNED", START))

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, directory_usage  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEED_LOOP = 2000
SETUP_SPEED_SAMPLES = 50
SAMPLE_EVERY_S = 0.02
NEAR_OP_S = 0.05


def speed_sample():
    """Time of a fixed pure-Python loop that does not touch deltasum.

    A shared machine can change the speed a process gets by half within
    seconds, in CPU time as well as in wall time.  So each child times this
    loop SETUP_SPEED_SAMPLES times right after its import, and every
    SAMPLE_EVERY_S seconds of its pass from a timer signal, which runs it
    between two bytecodes of whatever the pass is doing.  A change to the
    program cannot move the loop's time; the speed the child gets does.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(SPEED_LOOP):
        acc += (i * i) % 7
    return time.perf_counter() - t0


def speeds_near_ops(samples, t_pass, latencies):
    """For each operation, the median speed sample taken while it ran or
    within NEAR_OP_S of it (the pass's median if there is none).  The
    operations ran back to back from t_pass; samples are (time, duration)
    in time order."""
    times = [t for t, _ in samples]
    whole = statistics.median(d for _, d in samples)
    speeds, t = [], t_pass
    for latency in latencies:
        near = samples[bisect.bisect_left(times, t - NEAR_OP_S):
                       bisect.bisect_right(times, t + latency + NEAR_OP_S)]
        speeds.append(statistics.median(d for _, d in near) if near else whole)
        t += latency
    return speeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    source = os.path.realpath(os.path.join(ROOT, "src", "deltasum"))
    if os.path.dirname(os.path.realpath(deltasum.__file__)) != source:
        print(f"deltasum imported from {deltasum.__file__}, not {source}", file=sys.stderr)
        return 2
    result = {"setup_s": SETUP_S, "setup_speed_s": statistics.median(
        speed_sample() for _ in range(SETUP_SPEED_SAMPLES))}
    if args.probe:
        print(json.dumps(result))
        return 0
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "meta.json"),
              encoding="utf-8") as fh:
        meta = json.load(fh)
    ops = workloads.INPUTS[args.workload](args.seed, args.smoke)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    cache_dir = tempfile.mkdtemp(dir=work_root)
    samples = [(time.perf_counter(), speed_sample())]
    signal.signal(signal.SIGALRM,
                  lambda *_: samples.append((time.perf_counter(), speed_sample())))
    try:
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            t_pass = time.perf_counter()
            latencies, outputs, wall = workloads.run_pass(args.workload, ops, cache_dir)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        result["speed_s"] = statistics.median(d for _, d in samples)
        result["op_speed_s"] = speeds_near_ops(samples, t_pass, latencies)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.metrics(cache_dir)
            result["untraced_names"] = tracer.missing
        else:
            result["cache_files"], result["cache_bytes"] = directory_usage(cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    result.update(wall_s=wall, latencies_s=latencies, numpy=numpy.__version__)
    if args.workload == "verify-default":
        result["failed"], result["hashes"] = workloads.check_verify(ops, outputs)
    elif args.workload == "integral-sweep":
        result["failed"] = workloads.check_integral(ops, outputs, meta["integral_reference"])
    else:
        result["failed"], result["hits"] = workloads.check_requests(ops, outputs, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
