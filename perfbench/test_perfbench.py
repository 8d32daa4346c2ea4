"""Tests of the benchmark itself: accounting, self time, and tiny smoke runs.

Run with the package on the path, e.g.
    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib.util
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from poincarelab import littlewood, preimage  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _declared(section):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in doc[section]}


def test_self_time_subtracts_nested_children():
    # A [0,10] holds B [1,4] and D [5,6]; B holds C [2,3]
    spans = [
        ["A", 0.0, 10.0, -1, 0],
        ["B", 1.0, 4.0, 0, 0],
        ["C", 2.0, 3.0, 1, 0],
        ["D", 5.0, 6.0, 0, 0],
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [["A", 0.0, 10.0, -1, 0], ["B", 1.0, 5.0, 0, 0], ["C", 3.0, 7.0, 0, 0]]
    assert tracer.self_times(spans)[0] == pytest.approx(4.0)


def test_summarize_splits_phases_and_sums_amounts():
    spans = [
        ["setup", 0.0, 2.0, -1, 0],
        ["x", 0.5, 1.0, 0, 3],
        ["x", 2.0, 4.0, -1, 5],
        ["y", 2.5, 3.0, 2, 0],
    ]
    solve = tracer.summarize(spans, 2)
    assert solve["x"] == {"calls": 1, "total_s": 2.0, "self_s": 1.5, "amount": 5}
    assert "setup" not in solve
    assert tracer.summarize(spans, 0, 2)["setup"]["self_s"] == pytest.approx(1.5)


def test_installed_wrappers_are_removed_and_can_be_suspended():
    original = preimage.poincare_eval
    t = tracer.Tracer()
    with t.installed():
        wrapped = preimage.poincare_eval
        assert wrapped is not original
        with t.suspended():
            assert preimage.poincare_eval is original
        assert preimage.poincare_eval is wrapped
    assert preimage.poincare_eval is original


def test_one_bad_residual_is_one_failed_operation():
    tally = workloads.Tally()
    points = [(1 + 1j, 1e-13), (2 + 0j, 1.6e-12), (3 - 1j, 1e-6), (complex(math.inf, 0), 0.0)]
    tally.add([workloads.orbit_point_fails(z, r) for z, r in points])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_frac == 0.5


def test_integral_failure_rules():
    good = littlewood.IntegralEstimate(value=1.0, error_bound=5e-5, evaluations=10, degree=2)
    assert not workloads.integral_fails(good, 1e-4, 1.00005, 1e-4)
    assert workloads.integral_fails(good, 1e-4, 1.001, 1e-4)
    loose = littlewood.IntegralEstimate(value=1.0, error_bound=2e-4, evaluations=10, degree=2)
    assert workloads.integral_fails(loose, 1e-4, None, 1e-4)
    spent = littlewood.IntegralEstimate(value=1.0, error_bound=0.0, evaluations=10, degree=2,
                                        budget_exceeded=True)
    assert workloads.integral_fails(spent, 1e-4, None, 1e-4)


def test_expected_argument_counts():
    assert [workloads.expected_count(r) for r in (10, 100, 1000, 10000)] == [1, 3, 11, 31]


def test_raising_repetition_fails_all_its_operations():
    class Broken:
        ops_per_rep = 7

        def run(self, inputs, seed, span):
            raise ArithmeticError("boom")

    meas = bench.Measurement(Broken(), 1, None, workloads.no_span, workloads.Tally())
    meas.repeat_until(None, 0.0, min_reps=1)
    assert meas.times == [] and meas.first_metrics == {}
    assert (meas.tally.attempted, meas.tally.failed) == (7 * bench.MIN_REPS, 7 * bench.MIN_REPS)
    assert meas.problems and "boom" in meas.problems[0]


def test_differing_repetitions_are_a_problem():
    class Drifting:
        ops_per_rep = 1
        calls = 0

        def run(self, inputs, seed, span):
            self.calls += 1
            return self.calls

        def check(self, inputs, out, tally, ref):
            tally.add([False])

        def fingerprint(self, out):
            return str(out)

        def output_metrics(self, out):
            return {}

    meas = bench.Measurement(Drifting(), 1, None, workloads.no_span, workloads.Tally())
    meas.repeat_until(None, 0.0, min_reps=2)
    assert meas.history_problems()


def test_speed_probe_samples_during_work_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    probe = bench.SpeedProbe(interval=0.01)
    t0 = time.perf_counter()
    out, work, scaled = probe.time(lambda: sum(range(3_000_000)))
    wall = time.perf_counter() - t0
    assert out == sum(range(3_000_000))
    assert len(probe.samples) >= 2  # timer probes during the work plus one after
    assert 0 < work < wall - sum(probe.samples[:-1]) + 1e-3
    assert scaled == pytest.approx(work * probe.ref_s / statistics.fmean(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_speed_probe_without_interval_sets_no_timer():
    probe = bench.SpeedProbe(interval=None)
    _, work, _ = probe.time(lambda: time.sleep(0.05))
    assert len(probe.samples) == 1 and work >= 0.045


def test_tail_percentile_leaves_ten_samples_beyond():
    assert bench.tail_percentile(20) == 50
    assert bench.tail_percentile(40) == 75
    assert bench.tail_percentile(10) == 0


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("quadrature", 0), ("quadrature", 1), ("pullback", 0), ("pullback", 1), ("survey", 1),
])
def test_tiny_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _declared("per_layer" if trace else "end_to_end")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "survey":
        assert m["preimage.steps_per_continuation"] >= 8
        assert m["poincare.deriv.calls"] > 0 and m["littlewood.evaluations"] == 0
    if trace and workload == "quadrature":
        assert m["littlewood.evaluations"] > 0 and m["poincare.eval.calls"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "quadrature", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
