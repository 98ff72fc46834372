"""hyperbessel benchmark: seeded closed-loop workloads checked against mpmath.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout's root (the package is imported from ``src/``).  Each
workload runs in its own worker process with one client that sends its
next request when the previous one returns.

``--trace 0`` starts ``SETUPS[workload]`` workers.  Each is timed from spawn to ready
(import, input generation, warm-up); the last one then runs the timed phase
for ``--seconds``.  It prints the end-to-end metrics.

``--trace 1`` runs the timed phase untraced, then the same requests in a
fresh worker with every layer traced.  It prints the per-layer metrics and
the tracing overhead, and writes the spans to ``perfbench/out/``.

Outputs are checked after timing by ``check.py``.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  The line before it holds
the environment, sample counts and check results.  Exit status is nonzero,
with no result printed, when the package source is missing or a worker fails.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True

import mpmath  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

#: set-ups per untraced run; setup_s is their median.  More where one set-up
#: is cheap; series_sweep's fills mpmath's gamma table (~9 s) each time.
SETUPS = {"series_sweep": 2, "compound_cold": 7, "compound_sweep": 7, "golden_tables": 5}
#: workers still running this long after the benchmark started are killed
RUN_LIMIT_S = 170
_START = time.perf_counter()


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload, seed, *extra):
    """Start a worker; returns (seconds from spawn to ready, its report or None)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), workload, str(seed), *extra],
                            stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(RUN_LIMIT_S - (time.perf_counter() - _START), 1), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker {workload} {' '.join(extra)} exited with status {code}")
    return setup, (json.loads(rest) if rest.strip() else None)


def check_outputs(workload, seed, outputs):
    """Check outcomes for the outputs of the first len(outputs) requests.

    ``met``/``missed`` count values (or table rows) inside/outside their
    stated accuracy; ``incorrect`` counts outputs that make the run incorrect;
    ``max_error_ratio`` is the largest |error| / stated accuracy of a value.
    """
    _, timed = workloads.plan(workload, seed, count=len(outputs))
    counts = dict.fromkeys(("failed", "met", "missed", "incorrect", "reference_failures",
                            "max_error_ratio"), 0)
    for request, out in zip(timed, outputs):
        if "error" in out or out.get("exit") not in (None, 0, 1):
            counts["failed"] += 1
        elif "exit" in out:
            rows, failing, correct = check.check_tables(out["exit"], out["stdout"])
            counts["met"] += rows - failing
            counts["missed"] += failing
            counts["incorrect"] += not correct
        else:
            status, ratio = check.check_value(request, check.decode_mpf(out["value"]),
                                              check.decode_mpf(out["error_estimate"]))
            if status == check.REF_FAILED:
                counts["reference_failures"] += 1
            else:
                counts["met" if status == check.MET else "missed"] += 1
                counts["incorrect"] += status == check.WRONG
                counts["max_error_ratio"] = max(counts["max_error_ratio"], ratio)
    return counts


def summarize(counts, attempted):
    checked = counts["met"] + counts["missed"]
    return {"fail_frac": counts["failed"] / attempted,
            "bound_miss_frac": counts["missed"] / max(checked, 1),
            "incorrect": counts["incorrect"], "reference_failures": counts["reference_failures"],
            "max_error_ratio": counts["max_error_ratio"]}


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def environment(seed):
    """Where the numbers come from; compare only runs with equal backend and nproc."""
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hyperbessel").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": len(os.sched_getaffinity(0)),
            "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed}


def end_to_end(workload, seed, seconds):
    setups = [run_worker(workload, seed, "--setup-only")[0] for _ in range(SETUPS[workload] - 1)]
    setup, report = run_worker(workload, seed, "--seconds", str(seconds))
    setups.append(setup)
    latencies = report["latencies"]
    counts = check_outputs(workload, seed, report["outputs"])
    completed = [lat for lat, out in zip(latencies, report["outputs"]) if "error" not in out]
    if not completed:
        raise BenchError(f"no request of {workload} completed")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_eval_per_s": (len(completed) / report["elapsed"], "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(completed), "ms"),
        "latency_p90_ms": (1e3 * percentile(completed, 0.9), "ms"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
    }
    detail = {"setup_samples_s": setups, "latency_samples": len(completed),
              "elapsed_s": report["elapsed"], **summarize(counts, len(latencies))}
    return metrics, counts, len(latencies), detail


def per_layer(workload, seed, seconds):
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    _, plain = run_worker(workload, seed, "--seconds", str(seconds))
    n = len(plain["latencies"])
    if n == 0:
        raise BenchError(f"no request of {workload} was attempted")
    _, traced = run_worker(workload, seed, "--count", str(n), "--trace", str(spans_path))
    counts = check_outputs(workload, seed, plain["outputs"])
    for key, value in check_outputs(workload, seed, traced["outputs"]).items():
        counts[key] = max(counts[key], value) if key == "max_error_ratio" else counts[key] + value
    summary = summarize(counts, 2 * n)
    metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
    metrics.update({
        "trace.overhead_s": ((traced["elapsed"] - plain["elapsed"]) / n, "s/req"),
        "trace.overhead_frac": (traced["elapsed"] / plain["elapsed"] - 1, "frac"),
        "check.fail_frac": (summary["fail_frac"], "frac"),
        "check.bound_miss_frac": (summary["bound_miss_frac"], "frac"),
        "check.reference_failures": (summary["reference_failures"], "count"),
    })
    detail = {"requests": n, "untraced_s": plain["elapsed"], "traced_s": traced["elapsed"],
              "spans_file": str(spans_path.relative_to(ROOT)), **summary}
    return metrics, counts, 2 * n, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hyperbessel" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}/hyperbessel; run from a checkout",
              file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, counts, attempted, detail = measure(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct = counts["incorrect"] == 0
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "env": environment(args.seed), **detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": counts["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
