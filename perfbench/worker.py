"""One workload process: set up, report ready, run the closed loop, report.

Usage (started by run.py with ``PYTHONPATH`` set to the checkout's ``src``):

    python3 perfbench/worker.py WORKLOAD SEED --seconds S   # timed closed loop
    python3 perfbench/worker.py WORKLOAD SEED --count N --trace SPANS.jsonl
    python3 perfbench/worker.py WORKLOAD SEED --setup-only

Set-up is the import, generating the inputs and one untimed warm-up pass;
the worker then prints ``READY``.  The timed phase runs requests one after
another until ``--seconds`` have passed or ``--count`` requests are done,
and prints one JSON line with each request's latency and encoded output.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads
from check import encode_mpf

HERE = Path(__file__).resolve().parent
TABLES_CLI = HERE / "tables_cli.py"
TABLES_ARGS = ("tables", "--table", "all", "--format", "json")
TABLES_TIMEOUT_S = 150


class Runner:
    """Turns requests into calls on hyperbessel (or on its CLI, for tables)."""

    def __init__(self, workload):
        self.trace_dir = None       # set when table runs record spans
        self.span_files = []
        if workload != "golden_tables":
            import hyperbessel
            if not Path(hyperbessel.__file__).resolve().is_relative_to(HERE.parent / "src"):
                raise SystemExit(f"hyperbessel imported from {hyperbessel.__file__}, not src/")
            self.hb = hyperbessel

    def __call__(self, request):
        kind = request[0]
        if kind == "tables":
            return self._tables()
        hb = self.hb
        if kind == "humbert_J":
            _, m, nu, x, target = request
            return hb.humbert_J(m, nu, x, target_digits=target)
        params = hb.derive_params(request[1], request[2])
        if kind == "series_eval":
            return hb.series_eval(params, request[3], target_digits=request[4])
        return hb.compound_eval(params, request[3])

    def _tables(self):
        env = dict(os.environ)
        if self.trace_dir is not None:
            path = Path(self.trace_dir) / f"spans-{len(self.span_files)}.jsonl"
            self.span_files.append(path)
            env[tracing.SPANS_ENV] = str(path)
        proc = subprocess.run([sys.executable, str(TABLES_CLI), *TABLES_ARGS], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=TABLES_TIMEOUT_S)
        return proc.returncode, proc.stdout


def encode(result):
    """JSON form of one output; exact for mpmath numbers."""
    if isinstance(result, tuple):            # (exit code, stdout) of a tables run
        return {"exit": result[0], "stdout": result[1]}
    return {"value": encode_mpf(result.value), "error_estimate": encode_mpf(result.error_estimate)}


def closed_loop(runner, requests, seconds=None, count=None, tracer=None):
    """Run requests back to back; returns (latencies, outputs, elapsed).

    Each output is encoded as soon as its request is timed, so results are
    not kept alive and the next request starts with the program's own heap.
    """
    latencies, outputs = [], []
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds
    for i, request in enumerate(requests):
        if count is not None and i >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = runner(request)
            else:
                tracer.request = i
                with tracer.span(tracing.ROOT):
                    result = runner(request)
            latency = time.perf_counter() - t0
            # a non-finite value cannot be encoded; it counts as a failed request
            output = encode(result)
        except Exception as exc:    # a failed request is counted, not fatal
            latency = time.perf_counter() - t0
            output = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(latency)
        outputs.append(output)
        result = None
    return latencies, outputs, time.perf_counter() - start


def _peak_rss_kb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "golden_tables" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def _child_spans(runner, offset):
    """Spans written by traced table runs, re-indexed into one list.

    A run's top span becomes a child of that request's root span (request i
    is span i), so the root's self time is the process overhead.
    """
    spans = []
    for request, path in enumerate(runner.span_files):
        base = offset + len(spans)
        with open(path) as fh:
            for line in fh:
                span = json.loads(line)
                span[3] = span[3] + base if span[3] >= 0 else request
                span[4] = request
                spans.append(span)
    return spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--count", type=int)
    parser.add_argument("--trace", help="record spans and write them to this file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    runner = Runner(args.workload)
    warmup, timed = workloads.plan(args.workload, args.seed)
    for request in warmup:
        runner(request)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if not args.trace:
        latencies, outputs, elapsed = closed_loop(runner, timed, args.seconds, args.count)
        layers = None
    else:
        tracer = tracing.Tracer()
        if args.workload != "golden_tables":
            tracing.install(tracer)
        with tempfile.TemporaryDirectory(dir=Path(args.trace).parent) as tmp:
            runner.trace_dir = tmp
            latencies, outputs, elapsed = closed_loop(runner, timed, args.seconds, args.count,
                                                      tracer)
            tracer.spans += _child_spans(runner, len(tracer.spans))
        tracer.dump(args.trace)
        layers = tracing.layer_metrics(tracer.spans, len(latencies))
    print(json.dumps({"latencies": latencies, "outputs": outputs, "elapsed": elapsed,
                      "peak_rss_kb": _peak_rss_kb(args.workload), "layers": layers}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
