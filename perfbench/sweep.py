#!/usr/bin/env python3
"""Run workloads over several seeds and summarise the spread of every metric.

    python3 perfbench/sweep.py                        # every workload, 10 seeds, --trace 0 and 1
    python3 perfbench/sweep.py --workloads wide_plastic --seeds 5 --trace 0
    python3 perfbench/sweep.py --first-seed 101 --trace 0 \
        --compare perfbench/out/sweep-seed1-trace0.json

Each run is its own ``perfbench/run.py`` process, started after the previous
one has ended.  For each metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile spread as a
share of the median; an end-to-end metric is marked STEADY when that spread
is below a third of its bound in BENCHMARK.json.  ``--compare`` checks that
no median is worse than the earlier summary's by more than the bound.
The summary is written to ``perfbench/out/sweep-seed<first>-trace<modes>.json``.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    parser.add_argument("--compare", type=Path, help="earlier summary to compare medians with")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary, ok = {}, True
    for workload in args.workloads:
        for trace in args.trace:
            results = [run_one(workload, seed, args.seconds, trace)
                       for seed in range(args.first_seed, args.first_seed + args.seeds)]
            good = [r for r in results if r is not None and r["correct"]]
            attempted = sum(r["attempted"] for r in results if r)
            failed = sum(r["failed"] for r in results if r)
            print(f"\n{workload} --trace {trace}: {len(good)} of {len(results)} records correct, "
                  f"{failed} of {attempted} runs failed")
            ok &= len(good) == len(results)
            if len(good) < 2:
                continue
            for name, first in good[0]["metrics"].items():
                stats = summarise([r["metrics"][name]["value"] for r in good])
                stats["unit"] = first["unit"]
                summary[f"{workload}/{name}"] = stats
                verdict = ""
                if name in bounds and name != "setup_s":
                    steady = stats["spread"] < bounds[name] / 3
                    ok &= stats["spread"] <= bounds[name]
                    verdict = "STEADY" if steady else f"SPREAD > bound/3 ({bounds[name]})"
                print(f"  {name:36s} {stats['median']:12.6g} {first['unit']:16s} "
                      f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                      f"spread {stats['spread']:7.2%}  {verdict}")

    if args.compare:
        earlier = json.loads(args.compare.read_text(encoding="utf-8"))
        print(f"\nmedians against {args.compare}:")
        for key, stats in summary.items():
            name = key.split("/", 1)[1]
            if name in bounds and key in earlier:
                change = stats["median"] / earlier[key]["median"] - 1.0
                within = change <= bounds[name]
                ok &= within
                print(f"  {key:40s} {change:+7.2%}  {'ok' if within else 'WORSE than bound'}")

    trace = "".join(str(t) for t in args.trace)
    out = HERE / "out" / f"sweep-seed{args.first_seed}-trace{trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
