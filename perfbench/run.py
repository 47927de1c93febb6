"""okishio-lab benchmark: one command for every workload and metric.

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload near-decomposable --seed 3 --seconds 30 --trace 0

For each workload: generate the seeded inputs (set-up, not timed), time a
few fresh imports of okishio_lab (``setup_s``), then run the workload in
a fresh worker process (worker.py). ``--trace 1`` instead runs each pool
item untraced and traced back to back in one worker, and reports the
per-layer metrics plus the tracing overhead. The last stdout line is
one JSON object: correct, attempted, failed, metrics. Metric names and
units come from BENCHMARK.json. See README.md in this directory for why
each workload exists and what each layer is expected to move.

The program is run from this checkout's ``src/`` and nowhere else; the
command fails without a result when that tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("sweep-small", "large-table", "near-decomposable")
# One BLAS thread: at or below nproc on any machine, and no thread
# scheduling noise on a shared one.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh-process imports per run; setup_s is the median with the worker's own.
IMPORT_PROBES = 5
# A pool item's first repeat may take this many times its sustained time
# before the run warns that later repeats may be served from a cache.
COLD_LIMIT = 1.5
# Every run ends, result or not, within this many seconds.
DEADLINE_S = 170
PROBE = (
    "import time; t = time.perf_counter(); import okishio_lab, okishio_lab.cli; "
    "print(time.perf_counter() - t)"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _run(cmd, deadline: float) -> str:
    """Run a child to completion (or kill it at the deadline); return stdout."""
    done = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{os.path.basename(cmd[1])} exited with {done.returncode}")
    return done.stdout


def blas_info() -> dict:
    """OpenBLAS version from numpy's build and the thread count it runs with."""
    import ctypes

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(ctypes.CDLL(lib), symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = func()
                break
        if threads is not None:
            break
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def stamp(workload: str, seed: int, manifest: dict) -> dict:
    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **blas_info(),
        "workload": workload,
        "seed": seed,
        "rng_key": manifest["rng_key"],
        "sweep_seeds": manifest.get("seeds"),
    }


def input_summary(manifest: dict) -> list:
    """Per-economy properties (n, |lambda_2|/rho, JSON bytes), matrices left out."""
    keep = ("n", "ratio", "json_bytes", "target_ratio")
    return [{k: e[k] for k in keep if k in e} for e in manifest.get("economies", [])]


def run_worker(workload, manifest_path, seconds, trace, deadline, spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--manifest", manifest_path, "--seconds", repr(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    result = json.loads(_run(cmd, deadline).strip().splitlines()[-1])
    if not os.path.abspath(result["package_file"]).startswith(SRC + os.sep):
        raise RuntimeError(f"okishio_lab imported from {result['package_file']}, not {SRC}")
    return result


def run_one(workload: str, seed: int, seconds: float, trace: int, declared: dict) -> tuple:
    import economies

    deadline = time.monotonic() + DEADLINE_S
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    manifest = economies.plan(workload, seed, workdir)
    manifest_path = os.path.join(workdir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    tag = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        run = run_worker(workload, manifest_path, seconds, 1, deadline,
                         os.path.join(WORK, "results", f"{tag}.spans.jsonl"))
        values = run["layers"]
    else:
        probes = [float(_run([sys.executable, "-c", PROBE], deadline)) for _ in range(IMPORT_PROBES)]
        run = run_worker(workload, manifest_path, seconds, 0, deadline)
        values = {key: run[key] for key in ("economies_per_s", "economy_ms_p50", "economy_ms_tail", "peak_rss_mb")}
        values["setup_s"] = statistics.median(probes + [run["setup_s"]])
    attempted = run["economies"]
    failed = run["failed"]
    report = {
        "correct": failed == 0 and run["gate_passed"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    detail = {
        "stamp": stamp(workload, seed, manifest),
        "failed_share": failed / attempted,
        "tail": {"percentile": run["tail_percentile"], "samples": run["samples"]},
        "cold_ratio": run["cold_ratio"],
        "inputs": input_summary(manifest),
        "all_layers": run.get("layers"),
        "run": {k: v for k, v in run.items() if k != "layers"},
    }
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump({**report, **detail}, handle, indent=1)
    return report, detail


def show(workload: str, report: dict, detail: dict) -> None:
    inputs = detail["inputs"]
    print(f"== {workload}: attempted {report['attempted']}, failed {report['failed']}, "
          f"failed_share {detail['failed_share']:.4g}, correct {report['correct']}")
    if inputs:
        ns = [e["n"] for e in inputs]
        ratios = [e["ratio"] for e in inputs]
        print(f"   inputs: {len(inputs)} economies, n {min(ns)}..{max(ns)}, "
              f"|l2|/rho {min(ratios):.4f}..{max(ratios):.4f}, "
              f"json {min(e['json_bytes'] for e in inputs)}..{max(e['json_bytes'] for e in inputs)} B")
    tail = detail["tail"]
    print(f"   economy_ms_tail is p{tail['percentile']:.4g} of {tail['samples']} samples")
    for name, metric in report["metrics"].items():
        print(f"   {name:<60} {metric['value']:>14.6g} {metric['unit']}")
    wall = detail["run"]
    print(f"   wall clock: {wall['economies_per_s_wall']:.6g} economies/s, "
          f"median {wall['economy_ms_p50_wall']:.6g} ms per economy")
    cold = detail["cold_ratio"]
    if cold is not None:
        print(f"   first repeat over sustained time, median over pool items: {cold:.4g}")
        if cold > COLD_LIMIT:
            message = (f"warning: {workload}'s first repeats run {cold:.3g} times as long as later ones; "
                       "a cache across repeated inputs may be inflating the figures")
            print("   " + message)
            print(message, file=sys.stderr)
    if detail["all_layers"]:
        shares = {k[: -len(".self_share")]: v for k, v in detail["all_layers"].items() if k.endswith(".self_share")}
        print("   all traced functions, by self_share (calls/economy, ms/call, self_share):")
        for label in sorted(shares, key=shares.get, reverse=True):
            layers = detail["all_layers"]
            print(f"     {label:<48} {layers[label + '.calls_per_economy']:>8.4g} "
                  f"{layers[label + '.ms_per_call']:>10.4g} {shares[label]:>8.4f}")
    print("   stamp: " + json.dumps(detail["stamp"]))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "okishio_lab", "__init__.py")):
        print(f"error: no okishio_lab package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    group = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    try:
        for workload in workloads:
            report, detail = run_one(workload, args.seed, args.seconds, args.trace, declared)
            show(workload, report, detail)
            reports[workload] = report
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        print(json.dumps(reports[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "metrics": {f"{w}.{k}": v for w, r in reports.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
