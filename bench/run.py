"""Run one benchmark workload and print its metrics as a JSON line.

    python3 bench/run.py --workload canonical --seed 1 --seconds 20 --trace 0

One client calls the package in a closed loop: each operation starts when
the previous one has returned. The run repeats whole rounds of the
workload's operations until the timed operations add up to ``--seconds``;
every round starts with the package's caches cleared, as in a fresh
process. Answers are checked after the last round, outside every timed
interval. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` wraps
the package's layers (see tracing.py) and reports the per-layer metrics
instead. The last line of standard output is the result; a summary and any
failed operation go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (imports the package; fails without it)
from tracing import Tracer  # noqa: E402

# child processes that each time imports plus input generation
SETUP_PROBES = 7
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import workloads
workloads.WORKLOADS[sys.argv[2]](int(sys.argv[3]), 0)
print(time.perf_counter() - t0)
"""


def setup_seconds(workload, seed):
    """Median set-up time over fresh interpreter processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(workloads.BENCH_DIR), workload,
             str(seed)], capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name == "polyhom" or name.startswith("polyhom."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_rounds(build, seed, seconds, tracer=None):
    """Whole rounds until the timed operations reach ``seconds``.

    Returns one list per round of (op, output, error, seconds)."""
    rounds = []
    timed = 0.0
    while not rounds or timed < seconds:
        ops = build(seed, len(rounds))
        clear_package_caches()
        gc.collect()
        records = []
        for op in ops:
            start = perf_counter()
            try:
                out, err = op.call(), None
            except Exception as e:  # a failed operation; the run goes on
                out, err = None, "%s: %s" % (type(e).__name__, e)
            took = perf_counter() - start
            if tracer is not None:
                tracer.end_op(op.label, took)
            records.append((op, out, err, took))
            timed += took
        rounds.append(records)
    return rounds


def check_rounds(rounds):
    """Returns (attempted, failed, wrong): failed counts operations that
    raised or answered wrongly, wrong only the latter."""
    attempted = failed = wrong = 0
    for records in rounds:
        for op, out, err, _ in records:
            attempted += 1
            if err is None:
                try:
                    err = op.check(out)
                except Exception as e:  # a malformed answer is a wrong one
                    err = "check raised %s: %s" % (type(e).__name__, e)
                wrong += err is not None
            if err is not None:
                failed += 1
                print("FAILED %s: %s" % (op.label, err), file=sys.stderr)
    return attempted, failed, wrong


def round_tail(records):
    """The highest percentile of the round's operation times that still has
    at least ten samples beyond it."""
    ordered = sorted(t for *_, t in records)
    return ordered[max(0, len(ordered) - 11)]


def end_to_end_metrics(rounds, setup_s):
    """Per round medians, so that the number of rounds a run fits does not
    move a metric; op_p50_ms pools the operations of all rounds."""
    took = [t for records in rounds for *_, t in records]
    walls = [sum(t for *_, t in records) for records in rounds]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(took) * 1000, "ms"),
        "op_tail_ms": (statistics.median(map(round_tail, rounds)) * 1000,
                       "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    build = workloads.WORKLOADS[args.workload]

    if args.trace:
        setup_s = None
        tracer = Tracer()
        tracer.install()
        try:
            rounds = run_rounds(build, args.seed, args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(len(rounds))
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        rounds = run_rounds(build, args.seed, args.seconds)
        metrics = end_to_end_metrics(rounds, setup_s)

    attempted, failed, wrong = check_rounds(rounds)
    walls = [sum(t for *_, t in records) for records in rounds]
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "rounds": len(rounds),
               "round_wall_s": walls, "setup_s": setup_s}
    print(json.dumps(summary), file=sys.stderr)
    if args.trace:
        workloads.OUT_DIR.mkdir(exist_ok=True)
        dump = workloads.OUT_DIR / ("trace-%s-seed%d.json"
                                    % (args.workload, args.seed))
        dump.write_text(json.dumps(
            {**summary, "metrics": metrics,
             "ops": [{"label": label, "seconds": s, "layers": values}
                     for label, s, values in tracer.ops]}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
