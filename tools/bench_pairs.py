"""Benchmark a change against its parent in alternating pairs of runs.

Usage:

    python tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        --pairs N --seeds S1 S2 ... --out BENCH_<pr>.json [--seconds T]

PARENT_TREE and CHANGE_TREE are checkouts of the repository.  Pair i runs
`python3 perfbench/run.py --workload W --seed S --seconds T` once in each
tree, from the tree's root so that each imports its own src; the parent
runs first in even pairs and the change first in odd ones, and S cycles
through the seeds.  The last line of each run's output is its JSON result
(with --workload all, one result per workload); its `env` lines give the
machine.  A run that exits nonzero stops the script.

The output file holds, for every workload and end-to-end metric of the
change tree's BENCHMARK.json: each side's values in pair order, median and
quartiles (statistics.quantiles, inclusive method), the number of pairs in
which the change did better, the median gap against the parent's
quartile distance, and a verdict, printed beside the medians:

    unresolved  the parent's quartile distance exceeds the metric's bound
                (relative to the parent's median), so the runs cannot
                tell a move within the bound from noise;
    regression  the change's median is worse than the parent's by more
                than the bound;
    gain        the change did better in at least nine tenths of the
                pairs, and its median is better by more than the
                parent's quartile distance;
    none        none of these.

Beside `setup_s` and `solve_s`, which are reference-speed seconds, it
keeps the same statistics of each run's wall medians
(`setup_wall_median_s` and `solve_wall_median_s` of the workload's `env`
line): the probe that corrects for the host's speed shares the cache
with the work, so a change that alters cache state should be judged on
both.  Per workload it also records whether every run was correct and how
many operations failed; and the seeds, the run order and the machine
(nproc, CPU, Python, numpy and scipy versions).  Nothing in either tree is
written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


WALL = {"setup_s": "setup_wall_median_s", "solve_s": "solve_wall_median_s"}


def run_once(tree: Path, workload: str, seed: int, seconds: float):
    """(results by workload, env records by workload) of one perfbench run
    in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    results = last if workload == "all" else {workload: last}
    envs = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    return results, {e["workload"]: e for e in envs}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def compare(vals: dict, lower: bool) -> dict:
    """Both sides' summaries of one metric, the change's wins and its median
    gap against the parent's quartile distance."""
    wins = sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"]))
    parent, change = summary(vals["parent"]), summary(vals["change"])
    return {
        "parent": parent, "change": change, "change_wins": wins,
        "median_rel_change": change["median"] / parent["median"] - 1.0,
        "median_gap": abs(change["median"] - parent["median"]),
        "parent_iqr": parent["q3"] - parent["q1"],
    }


def verdict(m: dict, pairs: int) -> str:
    """unresolved, regression, gain or none for one metric's comparison
    (the first that applies, in that order)."""
    worse = m["median_rel_change"] if m["better"] == "lower" else -m["median_rel_change"]
    if m["parent_iqr"] > m["bound"] * abs(m["parent"]["median"]):
        return "unresolved"
    if worse > m["bound"]:
        return "regression"
    if 10 * m["change_wins"] >= 9 * pairs and worse < 0 and m["median_gap"] > m["parent_iqr"]:
        return "gain"
    return "none"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    walls = {"parent": [], "change": []}
    order, seeds, env = [], [], {}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in first:
            results, envs = run_once(sides[side], args.workload, seed, args.seconds)
            runs[side].append(results)
            walls[side].append(envs)
            env.setdefault(side, next(iter(envs.values())))
            print(f"pair {i} seed {seed} {side}: " + ", ".join(
                f"{w} {r['metrics']['solve_s']['value']:.4g}" for w, r in results.items()),
                flush=True)
        order.append(list(first))
        seeds.append(seed)

    workloads = {}
    for w in runs["change"][0]:
        metrics = {}
        for m in declared:
            name = m["name"]
            vals = {side: [r[w]["metrics"][name]["value"] for r in runs[side]]
                    for side in sides}
            metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                             **compare(vals, m["better"] == "lower")}
            metrics[name]["verdict"] = verdict(metrics[name], args.pairs)
        wall = {key: compare({side: [e[w][key] for e in walls[side]] for side in sides}, True)
                for key in WALL.values()}
        workloads[w] = {
            "metrics": metrics,
            "wall_medians": wall,
            "all_correct": all(r[w]["correct"] for side in sides for r in runs[side]),
            "failed_operations": sum(r[w]["failed"] for side in sides for r in runs[side]),
        }

    machine = {k: env["change"][k] for k in ("nproc", "cpu_model", "python", "numpy", "scipy")}
    doc = {
        "command": f"python3 perfbench/run.py --workload {args.workload} "
                   f"--seconds {args.seconds:g} --seed SEED",
        "pairs": args.pairs, "seeds": seeds, "order": order,
        "machine": machine, "workloads": workloads,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for w, data in workloads.items():
        for name, m in data["metrics"].items():
            line = (f"{w:11s} {name:12s} {m['parent']['median']:10.4g} -> "
                    f"{m['change']['median']:10.4g} ({m['median_rel_change']:+.1%}) "
                    f"{m['verdict']}, change better in {m['change_wins']}/{args.pairs}")
            if name in WALL:
                wm = data["wall_medians"][WALL[name]]
                line += (f"; wall {wm['parent']['median']:.4g} -> {wm['change']['median']:.4g} "
                         f"({wm['median_rel_change']:+.1%}), better in {wm['change_wins']}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
