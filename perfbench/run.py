"""The repository's benchmark: one workload per run, one JSON result.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Run from the repository root. ``--trace 0`` measures and prints the
end-to-end metrics; ``--trace 1`` wraps every traced layer and prints
the per-layer metrics instead. The last line of standard output is the
result object; the line before it is the run's record (stamps, sample
counts, check tallies). Any failed check exits with code 1.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools must be pinned before numpy is first imported.
_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in _BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def lingering() -> list:
    """Threads or child processes still alive, after a grace period."""
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=5.0)
    alive = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    alive += [f"process {p.pid}" for p in multiprocessing.active_children()]
    return alive


def end_to_end(outcome) -> tuple:
    """The end-to-end metrics, and the latency tail the record reports."""
    import spans
    from workloads import TAIL_PERCENTILE

    tail = spans.tail(outcome.latencies_ms, TAIL_PERCENTILE)
    if not outcome.log_ratios:  # the run failed before its evaluation
        ratio = None
    elif outcome.ratio_statistic == "median":
        ratio = math.exp(spans.median(outcome.log_ratios))
    else:
        ratio = math.exp(math.fsum(outcome.log_ratios) / len(outcome.log_ratios))
    metrics = {
        "setup_s": (spans.median(outcome.setup_s), "s"),
        "throughput": (spans.block_rate(outcome.done_at), "ops/s"),
        "latency_p50_ms": (tail["p50"], "ms"),
        "plan_cost_ratio": (ratio, "ratio"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, tail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-hot", "serve-cold", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The program's threads share one interpreter lock, so they use about
    # one CPU; keeping them on one CPU stops the lock from bouncing
    # between cores, which made run-to-run throughput bimodal.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    import numpy as np

    import layers
    import spans
    from workloads import WORKLOADS

    trace = layers.LayerTrace() if args.trace else None
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, trace)
    metrics, tail = end_to_end(outcome)
    left = lingering()
    failures = list(outcome.check_failures)
    if left:
        failures.append(f"still running at exit: {left}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "measured_s": outcome.measured_s,
        "overall_rate": sum(n for _, n in outcome.done_at) / outcome.measured_s,
        "latency_samples": tail["n"],
        "tail_percentile": tail["percentile"],
        "latency_tail_ms": tail["value"],
        "samples_beyond_tail": tail["beyond"],
        "latency_ms_at": {
            str(q): spans.quantile(outcome.latencies_ms, q / 100.0)
            for q in (50, 90, 95, 99, 99.9)
        },
        "plan_cost_ratio_samples": len(outcome.log_ratios),
        "plan_cost_ratio_statistic": outcome.ratio_statistic,
        "setup_s_samples": outcome.setup_s,
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(ROOT),
        "checks": outcome.info,
        "check_failures": failures[:20],
        "errors": outcome.errors[:20],
    }
    if args.trace:
        record["end_to_end_while_traced"] = metrics
    print(json.dumps({"record": record}, default=str))
    result = {
        "correct": not failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.layers if args.trace else metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
