"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload large-table --seeds 1-10 --out spread.json

For every metric in the final JSON lines of run.py: the median over the
runs, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread (third minus first quartile) as a share of the median,
next to the bound BENCHMARK.json fixes. A benchmark is steady on a
workload when each spread, setup_s aside, stays below a third of its
bound. The same file records a commit's baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summarize(runs: list, bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write runs and summary as JSON here")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["stamp"] = next(
            (json.loads(line.split("stamp: ", 1)[1]) for line in lines if line.strip().startswith("stamp: ")), None
        )
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}", flush=True)
    summary = summarize(runs, bounds)
    for name, row in summary.items():
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
        bound = "" if row["bound"] is None else f" (bound {row['bound']}, third {row['bound'] / 3:.4f})"
        print(f"{name:<60} median {row['median']:.6g} {row['unit']}, spread {spread}{bound}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seconds": seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
