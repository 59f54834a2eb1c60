"""Run the benchmark on two sets of ten seeds and check that it is steady.

    python3 benchmarks/sweep.py [--first-seed 1] [--out .bench_out/sweep.json]

Set 1 runs seeds first .. first+9 of every workload in BENCHMARK.json,
untraced, for its `run_seconds`. Set 2 then runs the next ten seeds the
same way, so the two sets stand where a parent and a change measured one
after the other would stand. One traced run per workload (seed `first`)
follows.

For each set, workload and end-to-end metric the sweep reports the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread: the
interquartile range as a share of the median. It marks every spread,
setup_s included, that is not below a third of the metric's bound. Between
the sets it reports each metric's drift: the larger median over the
smaller one, minus 1. Either set could be the parent, so a drift above the bound in
either direction would flag unchanged code as a regression; the sweep marks
it. It exits 0 only when every check passed, every spread is steady and
every drift is within its bound. Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS_PER_SET = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's final JSON line plus its recorded machine block and digests."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(Path(f".bench_out/result-{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    doc.update(machine=record["machine"], digests=record["digests"])
    return doc


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=".bench_out/sweep.json")
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "workloads": {
        w: {"sets": [], "failed": 0, "attempted": 0} for w in workloads}}
    steady = True
    for s in range(2):
        first = args.first_seed + s * SEEDS_PER_SET
        seeds = list(range(first, first + SEEDS_PER_SET))
        for workload in workloads:
            runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
            summary.setdefault("machine", runs[0]["machine"])
            entry = summary["workloads"][workload]
            entry["failed"] += sum(r["failed"] for r in runs)
            entry["attempted"] += sum(r["attempted"] for r in runs)
            stats = {name: spread([r["metrics"][name]["value"] for r in runs])
                     for name in bounds}
            entry["sets"].append({"seeds": seeds,
                                  "digests": {seed: r["digests"]
                                              for seed, r in zip(seeds, runs)},
                                  "end_to_end": stats})
            for name, bound in bounds.items():
                ok = stats[name]["spread"] < bound / 3
                steady &= ok
                print(f"set {s + 1} {workload:14s} {name:12s} "
                      f"median={stats[name]['median']:.6g} "
                      f"spread={stats[name]['spread']:.4f} bound={bound} "
                      f"{'ok' if ok else 'NOT STEADY'}", flush=True)

    for workload in workloads:
        entry = summary["workloads"][workload]
        entry["drift"] = {}
        for name, bound in bounds.items():
            a, b = (st["end_to_end"][name]["median"] for st in entry["sets"])
            entry["drift"][name] = drift = max(a, b) / min(a, b) - 1.0
            ok = drift <= bound
            steady &= ok
            print(f"drift {workload:14s} {name:12s} set1={a:.6g} set2={b:.6g} "
                  f"drift={drift:.4f} bound={bound} {'ok' if ok else 'TOO LARGE'}",
                  flush=True)
        traced = run_once(workload, args.first_seed, seconds, 1)
        entry["failed"] += traced["failed"]
        entry["attempted"] += traced["attempted"]
        entry["per_layer"] = {m["name"]: traced["metrics"][m["name"]]["value"]
                              for m in bench["per_layer"]}
        print(f"{workload:14s} checks failed {entry['failed']} of {entry['attempted']}",
              flush=True)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    clean = all(w["failed"] == 0 for w in summary["workloads"].values())
    return 0 if steady and clean else 1


if __name__ == "__main__":
    sys.exit(main())
