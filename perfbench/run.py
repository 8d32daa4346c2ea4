"""poincarelab benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

Run from the repository root; the package is imported from ./src.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 reports the end-to-end metrics (set-up and
solve time in reference-speed seconds, see SpeedProbe, and peak memory);
--trace 1 reports the per-layer metrics from a traced run, and writes its
spans under .perfbench/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = Path(".perfbench")
MIN_REPS = 2
PROBE_INTERVAL_S = 0.1
# each probe part's seconds in the host's fast state, the speed reported times refer to
PROBE_REF_S = {"floats": 0.001, "ints": 0.00055, "arrays": 0.00045}
WORKLOAD_NAMES = ("survey", "quadrature", "pullback")


def _import_package():
    """Import poincarelab from this checkout's src/, never from elsewhere."""
    if not (SRC / "poincarelab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'poincarelab'}")
    sys.path.insert(0, str(SRC))
    import poincarelab

    if Path(poincarelab.__file__).resolve().parent != SRC / "poincarelab":
        sys.exit(f"perfbench: imported poincarelab from {poincarelab.__file__}, not {SRC}")


class SpeedProbe:
    """Times work in reference-speed seconds.

    The host's speed swings by up to 1.9x within seconds (README.md, Noise),
    so wall seconds of the same work do not repeat between runs.  While work
    runs, SIGALRM fires every `interval` seconds and its handler times a
    fixed probe of about 2 ms that does not touch the package, made of the
    kinds of work the workloads do: a float list comprehension ("floats"),
    an integer loop ("ints") and a few numpy passes ("arrays").  The host's
    slow state slows these by different amounts, so each workload probes
    with the parts that slow as it does.  The probe's mean time over the
    work measures the host's speed during exactly that work; the work's own
    seconds (wall minus probe time) are scaled by the parts' PROBE_REF_S
    over that mean.  One more probe follows each measurement, so work
    shorter than the interval still has a sample.  interval=None never sets
    the timer, for traced runs whose spans must not contain probes."""

    def __init__(self, parts=tuple(PROBE_REF_S), interval: float | None = PROBE_INTERVAL_S):
        import numpy as np

        self.np, self.parts, self.interval = np, set(parts), interval
        self.ref_s = sum(PROBE_REF_S[p] for p in self.parts)
        self.floats = [1.0 + 0.37 * i for i in range(3000)]
        self.array = np.linspace(0.0, 1.0, 1 << 16) + 0.5j
        self.samples: list[float] = []  # every probe time, for the env record
        self.current: list[float] = []

    def probe(self, *_signal_args) -> None:
        np = self.np
        t0 = time.perf_counter()
        if "floats" in self.parts:
            [max(0, math.ceil(math.log(x / 3.0) / 0.7)) for x in self.floats]
        if "ints" in self.parts:
            acc = 0
            for i in range(8000):
                acc += i * i % 7
        if "arrays" in self.parts:
            b = self.array.copy()
            for _ in range(3):
                np.multiply(b, b, out=b)
                np.add(b, 0.1, out=b)
        self.current.append(time.perf_counter() - t0)

    def time(self, fn):
        """(fn(), its seconds, its reference-speed seconds)."""
        self.current = []
        if self.interval:
            previous = signal.signal(signal.SIGALRM, self.probe)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        work = wall - sum(self.current)
        self.probe()
        self.samples += self.current
        return out, work, work * self.ref_s / statistics.fmean(self.current)


def environment(args, wl) -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": wl.name, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "params": wl.p,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def load_reference(wl, size: str):
    """The committed reference for this workload and size (None when the
    workload has none); a missing one is a broken checkout."""
    if not wl.has_reference:
        return None
    try:
        return json.loads(REFERENCE.read_text())[wl.name][size]
    except (OSError, KeyError) as exc:
        sys.exit(f"perfbench: no committed reference for {wl.name}/{size}: {exc!r}")


def declared_metrics() -> dict:
    """name -> unit for every metric BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


class Measurement:
    """Timed repetitions of one workload, their checks and their outputs'
    fingerprints.  Checks run outside the timed region.  No repetition's
    outputs outlive it, so peak memory does not depend on how many
    repetitions a run fits."""

    def __init__(self, wl, seed, ref, span, tally, unobserved=contextlib.nullcontext,
                 probe=None):
        self.wl, self.seed, self.ref, self.span, self.tally = wl, seed, ref, span, tally
        self.unobserved = unobserved  # context for the checks, outside any trace
        self.probe = probe or SpeedProbe()
        self.times, self.prints, self.problems = [], [], []
        self.scaled = []  # self.times in reference-speed seconds
        self.first_metrics = {}  # wl.output_metrics of the first repetition
        self.busy = 0.0

    def repeat_until(self, inputs, busy_target: float, min_reps: int) -> None:
        """Run repetitions until the timed work adds up to busy_target
        seconds, and at least min_reps more of them.  A repetition that
        raises fails all its operations; after MIN_REPS of those, stop."""
        done = 0
        while done < min_reps or self.busy < busy_target:
            t0 = time.perf_counter()
            try:
                out, work, scaled = self.probe.time(
                    lambda: self.wl.run(inputs, self.seed, self.span))
            except Exception as exc:  # a failed repetition is counted, not fatal
                self.busy += time.perf_counter() - t0
                self.tally.lose(self.wl.ops_per_rep)
                self.problems.append(f"repetition raised {exc!r}")
                if len(self.problems) >= MIN_REPS:
                    return
                continue
            self.busy += time.perf_counter() - t0
            self.times.append(work)
            self.scaled.append(scaled)
            done += 1
            with self.unobserved():
                self.wl.check(inputs, out, self.tally, self.ref)
                self.prints.append(self.wl.fingerprint(out))
                if len(self.times) == 1:
                    self.first_metrics = self.wl.output_metrics(out)
            del out

    def history_problems(self) -> list[str]:
        if len(set(self.prints)) > 1:
            return ["repetitions gave different outputs (history dependence)"]
        return []


def measure(wl, args, blocks: int, setups_per_block: int) -> dict:
    """The untraced run, in blocks that each set up and then repeat, so that
    set-up and solve times both sample the whole run rather than one end of
    it.  The reference check follows the first set-up."""
    from workloads import Tally, no_span

    ref = load_reference(wl, args.size)
    probe = SpeedProbe(wl.probe_parts)
    meas = Measurement(wl, args.seed, ref, no_span, Tally(), probe=probe)
    setup_times, setup_scaled, problems = [], [], []
    for b in range(blocks):
        for _ in range(setups_per_block):
            inputs, work, scaled = probe.time(lambda: wl.setup(args.seed))
            setup_times.append(work)
            setup_scaled.append(scaled)
        if b == 0:
            problems += wl.reference_problems(inputs, ref)
        meas.repeat_until(inputs, args.seconds * (b + 1) / blocks,
                          min_reps=math.ceil(MIN_REPS / blocks))
    return {"meas": meas, "setup_times": setup_times, "setup_scaled": setup_scaled,
            "probes": probe.samples, "ref": ref,
            "problems": problems + meas.problems + meas.history_problems()}


def _pct(sorted_vals, q):
    """Linearly interpolated percentile q in [0, 100] of sorted values."""
    if not sorted_vals:
        return 0.0
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it (0
    when there are ten samples or fewer)."""
    return math.floor(100.0 * (n - 10) / n) if n > 10 else 0


def per_layer(spans, marks, rep_times, outputs_metrics) -> dict:
    """The per-layer metrics of a traced run.  Calls and self times are for
    one set-up plus one timed repetition, which is what one CLI run does;
    layers a workload does not call read 0."""
    from tracer import summarize

    setup_lo, solve_lo, extra_lo = marks
    reps = max(1, len(rep_times))
    setup = summarize(spans, setup_lo, solve_lo)
    solve = summarize(spans, solve_lo, extra_lo)
    extra = summarize(spans, extra_lo)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0}

    def get(phase, name, key):
        return phase.get(name, zero)[key]

    def per_run(name, key):
        v = get(setup, name, key) + get(solve, name, key) / reps
        return round(v) if key in ("calls", "amount") else v

    def per_rep(name, key):
        return get(solve, name, key) / reps

    m = {
        "preimage.find_base_preimage.s": get(setup, "preimage.find_base_preimage", "total_s"),
        "siegel.build_siegel_map.s": get(setup, "siegel.build_siegel_map", "total_s"),
    }
    for name in ("poincare.eval", "poincare.deriv", "series.derivative",
                 "preimage.branch_continue", "siegel.h_inverse"):
        m[f"{name}.calls"] = per_run(name, "calls")
        m[f"{name}.self_s"] = per_run(name, "self_s")

    # a continuation served from the branch cache calls no lower layer
    solve_spans = spans[solve_lo:extra_lo]
    parents = {s[3] for s in solve_spans}
    continues = [i for i, s in enumerate(solve_spans, solve_lo)
                 if s[0] == "preimage.branch_continue"]
    misses = sum(1 for i in continues if i in parents)
    m["preimage.branch_cache_hit_ratio"] = 1.0 - misses / len(continues) if continues else 0.0
    m["preimage.continuation_steps"] = per_run("siegel.h_eval", "calls")
    m["preimage.steps_per_continuation"] = (get(solve, "siegel.h_eval", "calls") / misses
                                           if misses else 0.0)
    m["sets.contains_many.self_s"] = per_run("sets.contains_many", "self_s")

    orbit_ms = sorted(1e3 * (s[2] - s[1]) for s in solve_spans if s[0] == "exceptional.orbit")
    nn = tail_percentile(len(orbit_ms))
    m["exceptional.orbit.p50_ms"] = _pct(orbit_ms, 50)
    m["exceptional.orbit.pNN_ms"] = _pct(orbit_ms, nn)
    m["exceptional.orbit.pNN_pct"] = nn
    m["exceptional.orbit.samples"] = len(orbit_ms)

    m["littlewood.evaluations"] = 0
    for k in range(1, 6):
        m[f"littlewood.iterate_n{k}.s"] = per_rep(f"quadrature.iterate_n{k}", "total_s")
        m[f"littlewood.iterate_n{k}.evaluations"] = 0
    m["littlewood.monomials.s"] = per_rep("quadrature.monomials", "total_s")
    m["littlewood.evaluator.self_s"] = (per_rep("littlewood.evaluator.iterate", "self_s")
                                        + per_rep("littlewood.evaluator.monomial", "self_s"))
    iter_s = get(solve, "littlewood.evaluator.iterate", "self_s")
    m["littlewood.evaluator.point_iters_per_s"] = (
        get(solve, "littlewood.evaluator.iterate", "amount") / iter_s if iter_s else 0.0)
    m["littlewood.cells.self_s"] = per_rep("littlewood.disk_integral", "self_s")
    m["littlewood.budget_fallbacks"] = 0
    m["littlewood.max_err_over_tol"] = 0.0

    many_s = get(solve, "poincare.eval_many", "total_s")
    m["poincare.eval_many.self_s"] = per_rep("poincare.eval_many", "self_s")
    m["poincare.eval_many.points_per_s"] = (
        get(solve, "poincare.eval_many", "amount") / many_s if many_s else 0.0)
    m["poincare.pullback_depth.self_s"] = get(extra, "poincare.pullback_depth", "self_s")
    m["series.eval.self_s"] = per_run("series.eval", "self_s")
    m["preimage.argument_count.nodes"] = per_run("poincare.eval_on_circle", "amount")
    m["preimage.argument_count.self_s"] = per_run("preimage.argument_count", "self_s")
    m["render.domain_coloring.s"] = per_rep("render.domain_coloring", "total_s")

    path = (get(solve, "exceptional.orbit", "total_s")
            + get(solve, "sets.contains_many", "total_s"))
    m["trace.blocking_path_frac"] = path / sum(rep_times) if rep_times else 0.0
    m.update(outputs_metrics)
    return m


def traced(wl, args):
    """Untraced repetitions for the baseline, then one traced set-up and the
    traced repetitions.  The traced outputs must equal the untraced ones."""
    from tracer import Tracer

    base = measure(wl, args, blocks=1, setups_per_block=1)
    untraced = base["meas"]
    tracer = Tracer()
    meas = Measurement(wl, args.seed, base["ref"], tracer.span, untraced.tally,
                       unobserved=tracer.suspended, probe=SpeedProbe(wl.probe_parts, interval=None))
    with tracer.installed():
        setup_lo = len(tracer.spans)
        inputs = wl.setup(args.seed, tracer)
        solve_lo = len(tracer.spans)
        meas.repeat_until(inputs, args.seconds, MIN_REPS)
        extra_lo = len(tracer.spans)
        wl.trace_extras(inputs, tracer.span)
    problems = base["problems"] + meas.problems + meas.history_problems()
    if meas.prints[:1] != untraced.prints[:1]:
        problems.append("traced outputs differ from untraced outputs")
    m = per_layer(tracer.spans, (setup_lo, solve_lo, extra_lo), meas.times,
                  meas.first_metrics)
    m["trace.overhead_frac"] = (
        statistics.median(meas.times) / statistics.median(untraced.times) - 1.0
        if meas.times and untraced.times else math.nan)
    m["machine.calib_s"] = statistics.median(base["probes"])
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{wl.name}-{args.size}-seed{args.seed}.json")
    return m, meas.tally, problems


def run_one(args) -> int:
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.size)
    units = declared_metrics()
    env = environment(args, wl)
    print(f"perfbench {wl.name} seed={args.seed} size={args.size} trace={args.trace}")
    if args.trace:
        metrics, tally, problems = traced(wl, args)
        env["machine.calib_s"] = metrics["machine.calib_s"]
    else:
        res = measure(wl, args, wl.p["blocks"], wl.p["setups_per_block"])
        meas = res["meas"]
        tally, problems = meas.tally, res["problems"]
        metrics = {
            "setup_s": statistics.median(res["setup_scaled"]),
            "solve_s": statistics.median(meas.scaled) if meas.scaled else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        env["machine.calib_s"] = statistics.median(res["probes"])
        env["probe_samples"] = len(res["probes"])
        env["setup_times_s"] = res["setup_times"]
        env["solve_times_s"] = meas.times
        env["setup_scaled_s"] = res["setup_scaled"]
        env["solve_scaled_s"] = meas.scaled
        env["setup_wall_median_s"] = statistics.median(res["setup_times"])
        env["solve_wall_median_s"] = statistics.median(meas.times) if meas.times else math.nan
    for k, v in metrics.items():
        print(f"  {k:42s} {v:.6g} {units[k]}")
    print(f"  {'fail_frac':42s} {tally.fail_frac:.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for p in problems:
        print(f"  problem: {p}")
    print("env " + json.dumps(env))
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        print(f"{'workload':12s} {'setup_s':>10s} {'solve_s':>10s} {'peak_rss_mb':>12s} "
              f"{'fail_frac':>10s}  correct")
        for name, r in rows.items():
            m = r["metrics"]
            print(f"{name:12s} {m['setup_s']['value']:10.4f} {m['solve_s']['value']:10.4f} "
                  f"{m['peak_rss_mb']['value']:12.1f} {r['failed'] / r['attempted']:10.3g}  "
                  f"{r['correct']}")
    print(json.dumps(rows))
    return 0


def write_reference(args) -> int:
    """Recompute the committed reference for one workload and size."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.size)
    if not wl.has_reference:
        sys.exit(f"perfbench: {wl.name} has no committed reference")
    data = wl.reference(wl.setup(args.seed))
    doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    doc.setdefault(wl.name, {})[args.size] = data
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {wl.name}/{args.size} to {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed work per run (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute the committed reference for --workload and --size")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    _import_package()
    if args.write_reference:
        return write_reference(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
