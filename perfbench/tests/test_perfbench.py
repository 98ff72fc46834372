"""Tests of the benchmark itself: generator, checker, tracer and entry point.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import check
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _x(request):
    return request[3]


def _key(request):
    if request[0] == "humbert_J":
        return workloads.params_key(3, (request[1] + 1, request[2] + 1))
    return workloads.params_key(request[1], request[2])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_deterministic_per_seed(workload):
    assert workloads.plan(workload, 7) == workloads.plan(workload, 7)
    if workload != "golden_tables":
        assert workloads.plan(workload, 7) != workloads.plan(workload, 8)


def test_compound_cold_never_repeats_params():
    warmup, timed = workloads.plan("compound_cold", 3)
    keys = [_key(r) for r in warmup + timed]
    assert len(keys) == len(set(keys)) == len(warmup) + workloads.POOL["compound_cold"]


@pytest.mark.parametrize("workload", ["series_sweep", "compound_cold", "compound_sweep"])
def test_warmup_is_disjoint_and_reaches_the_maximum(workload):
    warmup, timed = workloads.plan(workload, 11)
    assert not {_key(r) for r in timed} & {_key(r) for r in warmup}
    assert max(map(_x, warmup)) >= max(map(_x, timed))
    if workload == "series_sweep":
        assert max(r[4] for r in warmup) == max(r[4] for r in timed)


def test_series_sweep_mix():
    _, timed = workloads.plan("series_sweep", 5, count=400)
    share = sum(r[0] == "humbert_J" for r in timed) / len(timed)
    assert share == pytest.approx(0.25, abs=0.02)
    assert all(workloads.SERIES_X[0] <= _x(r) <= workloads.SERIES_X[1] for r in timed)


def test_compound_sweep_prefixes_cover_the_grid_over_fixed_sets():
    sets = workloads.SWEEP_SETS
    lo, hi = workloads.SWEEP_X
    points = int((hi - lo) / workloads.SWEEP_STEP)      # the offset grid stops short of hi
    _, timed = workloads.plan("compound_sweep", 2, count=points * len(sets))
    assert [(r[1], r[2]) for r in timed] == list(sets) * points
    xs = [_x(r) for r in timed[::len(sets)]]
    assert all(_x(r) == xs[i // len(sets)] for i, r in enumerate(timed))
    grid = sorted(xs)
    assert len(set(grid)) == points and lo <= grid[0] and grid[-1] <= hi
    assert all(b - a == workloads.SWEEP_STEP for a, b in zip(grid, grid[1:]))
    # a run that stops after any eight grid points has seen every quarter of the range
    for stop in range(8, points):
        assert {int(4 * (x - lo) // (hi - lo)) for x in xs[:stop]} == {0, 1, 2, 3}


def test_checker_flags_a_perturbed_value():
    import hyperbessel as hb
    request = ("series_eval", 3, (Fraction(2, 3), Fraction(5, 6)), Fraction(25), 20)
    result = hb.series_eval(hb.derive_params(3, request[2]), request[3], target_digits=20)
    assert check.check_value(request, result.value)[0] == check.MET
    with mp.workdps(60):
        status, ratio = check.check_value(request, result.value * (1 + mp.mpf("1e-19")))
        assert status == check.MISSED and ratio == pytest.approx(10, rel=0.01)
        assert check.check_value(request, result.value * (1 + mp.mpf("1e-15")))[0] == check.WRONG


def test_checker_holds_compound_results_to_their_error_estimate():
    request = ("compound_eval", 3, (Fraction(2, 3), Fraction(5, 6)), Fraction(12))
    ref = check.reference_value(request, 80)
    with mp.workdps(80):
        estimate = mp.mpf("1e-8")
        assert check.check_value(request, ref + estimate / 2, estimate)[0] == check.MET
        assert check.check_value(request, ref + 10 * estimate, estimate)[0] == check.MISSED
        assert check.check_value(request, ref + 10 ** 4 * estimate, estimate)[0] == check.WRONG


def test_a_failing_reference_is_counted_apart(monkeypatch):
    from mpmath.libmp import NoConvergence

    def no_convergence(request, dps):
        raise NoConvergence("reference did not converge")

    request = ("compound_eval", 3, (Fraction(2, 3), Fraction(5, 6)), Fraction(12))
    monkeypatch.setattr(check, "reference_value", no_convergence)
    assert check.check_value(request, mp.mpf(1), mp.mpf("1e-8")) == (check.REF_FAILED, None)


def test_a_non_finite_result_counts_as_a_failed_request():
    import worker

    def nan_result(request):
        return type("Result", (), {"value": mp.nan, "error_estimate": mp.mpf(1)})()

    latencies, outputs, _ = worker.closed_loop(nan_result, [("compound_eval",)] * 2)
    assert len(latencies) == 2
    assert all(out["error"].startswith("ValueError") for out in outputs)


def test_mpf_encoding_is_exact():
    with mp.workdps(300):
        value = -mp.pi * mp.mpf(10) ** 200
        assert check.decode_mpf(check.encode_mpf(value)) == value


def _table_rows(failing):
    rows = []
    for k in range(check.TABLE_ROWS - len(failing)):
        rows.append(("T1", {"b": "2/3;5/6", "j": str(k)}, "0.250", "0.2501", True))
    for table, b, x in failing:
        rows.append((table, {"b": b, "x": x}, "1.0e-10", "1.0e-12", False))
    reports = {}
    for table, inputs, ref, computed, passed in rows:
        reports.setdefault(table, []).append({"inputs": inputs, "reference_value": ref,
                                              "computed_value": computed, "passed": passed})
    return json.dumps([{"table": t, "rows": r} for t, r in reports.items()])


def test_tables_check_expects_exactly_the_documented_failures():
    documented = sorted(check.DOCUMENTED_FAILURES)
    assert check.check_tables(1, _table_rows(documented)) == (51, 8, True)
    assert check.check_tables(0, _table_rows(documented))[2] is False
    assert check.check_tables(1, _table_rows(documented[:-1]))[2] is False
    extra = documented + [("T2", "2/3;5/6", "30")]
    assert check.check_tables(1, _table_rows(extra))[2] is False


def test_traced_self_times_sum_to_the_root_span(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "compound_cold", "1",
                           "--count", "2", "--trace", str(spans_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    own = tracing.self_times(spans)
    assert min(own) > -1e-9
    roots = [i for i, s in enumerate(spans) if s[0] == tracing.ROOT]
    assert len(roots) == 2
    for root in roots:
        request = spans[root][4]
        inner = sum(t for s, t in zip(spans, own) if s[4] == request and s[0] != tracing.ROOT)
        duration = spans[root][2] - spans[root][1]
        assert inner <= duration and duration - inner < 0.05 * duration
        assert duration <= report["latencies"][request]
    layers = report["layers"]
    children = ("powerseries.exp.s", "powerseries.reciprocal_linear.s")
    assert all(layers["powerseries.mul.s"][0] > layers[c][0] for c in children)
    assert layers["coeffs.stirling.repeat_params_frac"][0] == 0


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = set(tracing.layer_metrics([], 1))
    declared = {m["name"] for m in spec["per_layer"]}
    assert emitted <= declared
    assert {n.split(".")[0] for n in declared - emitted} <= {"trace", "check"}


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "series_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
