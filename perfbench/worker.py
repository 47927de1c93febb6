"""Runs one workload in a fresh process and prints its measurements.

Usage (run.py does this; the manifest comes from economies.plan):

    python3 perfbench/worker.py --workload near-decomposable \\
        --manifest .bench_work/near-decomposable-seed1/manifest.json \\
        --seconds 30 --trace 0

Order of work: import okishio_lab (timed: that is ``setup_s``), load the
inputs, replay the worked example once as the correctness gate (traced
when ``--trace 1``), then a closed loop with one client until
``--seconds`` have passed. With ``--trace 1`` the loop runs each pool
item twice back to back, once untraced and once traced, so the tracer's
overhead is measured on the same inputs in the same process. The last
stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import statistics
import sys
import time
import traceback

CONSTANT_VERDICT = "ProfitFellExploitationConstant"
RISING_VERDICT = "ProfitFellExploitationRose"
# The fixed-bundle control may not lower the profit rate by more than this.
CONTROL_SLACK = 1e-9
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count). Below 2 * TAIL_BEYOND
    samples that percentile would sit under the median, which is no tail,
    so the maximum is returned as p100 instead.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, count
    rank = count - TAIL_BEYOND  # 1-based order statistic
    return ordered[rank - 1], 100.0 * rank / count, count


class Loop:
    """Closed loop: one unit of work at a time until the time is up.

    A unit is one economy, or one sweep call of ``--count`` economies. The
    inputs form a pool that the loop cycles through, so each pool item is
    repeated several times in a run. Traced units are kept apart: they
    feed the per-layer metrics and the paired overhead ratios, never the
    end-to-end figures.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.samples_ms: list = []  # per economy, one per untraced unit
        self.by_item: dict = {}  # pool item -> its untraced samples_ms
        self.economies = 0
        self.failed = 0
        self.timed_s = 0.0
        self.traced_s = 0.0
        self.overhead_ratios: list = []  # traced over untraced, per pair

    def running(self) -> bool:
        return self.timed_s < self.seconds

    def record(self, item: int, elapsed_s: float, economies: int, failed: int, traced: bool = False) -> None:
        self.timed_s += elapsed_s
        self.economies += economies
        self.failed += failed
        if traced:
            self.traced_s += elapsed_s
            return
        sample = 1e3 * elapsed_s / economies
        self.samples_ms.append(sample)
        self.by_item.setdefault(item, []).append(sample)

    def sustained_ms(self) -> list:
        """Each pool item's upper-quartile repeat, in ms per economy.

        Shared hosts speed up for seconds to minutes at a time when their
        neighbours idle, so a run's average depends on how much of it was
        boosted. The upper quartile of an item's repeats sits above the
        boosted spells and below rare single spikes. Over ten seeds per
        workload the spread (IQR over median) of wall-clock throughput was
        0.10 to 0.18 in a noisy spell; that of these figures 0.04 to 0.09.
        """
        return [sorted(samples)[int(0.75 * (len(samples) - 1))] for samples in self.by_item.values()]

    def cold_ratio(self):
        """Median over pool items of their first repeat over their sustained time.

        Every item is repeated, and the program under test never sees the
        same economy twice in real use (run_suite draws each one afresh).
        A cache keyed on an input or on an object would make the later
        repeats much faster than the cold first one, and this ratio shows
        it. None when no item was repeated.
        """
        ratios = [
            samples[0] / sustained
            for samples, sustained in zip(self.by_item.values(), self.sustained_ms())
            if len(samples) > 1
        ]
        return statistics.median(ratios) if ratios else None


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ``ru_maxrss`` would not do: Linux carries it across fork and exec, so a
    worker would report its parent's peak (run.py's input generation).
    """
    with open("/proc/self/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _quiet_call(main, argv, path):
    """cli.main with stdout sent to ``path``, as ``> path`` does in a shell."""
    with open(path, "w", encoding="utf-8") as handle, contextlib.redirect_stdout(handle):
        return main(argv)


def drive(loop, pool: int, unit, tracer) -> None:
    """Cycle the pool through ``unit(item, tracer)`` until the time is up.

    ``unit`` returns (elapsed seconds, economies, failed). Untraced, each
    turn runs one item. Traced, each turn runs one item twice in a row,
    untraced and traced in alternating order, and records their ratio.
    """
    turn = 0
    while loop.running():
        item = turn % pool
        if tracer is None:
            loop.record(item, *unit(item, None))
        else:
            per_economy = {}
            for traced in (False, True) if turn % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    elapsed, economies, failed = unit(item, tracer if traced else None)
                finally:
                    if traced:
                        tracer.uninstall()
                loop.record(item, elapsed, economies, failed, traced)
                per_economy[traced] = elapsed / economies
            loop.overhead_ratios.append(per_economy[True] / per_economy[False])
        turn += 1


def check_sweep_csv(path: str) -> tuple:
    """(SHA-256, rows, rows with a failed verdict, sizes seen) of a sweep CSV.

    Streamed, so the check holds one row at a time and adds nothing to the
    process's peak_rss_mb.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    rows = bad = 0
    sizes = set()
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            rows += 1
            bad += row["verdict"] != CONSTANT_VERDICT or row["okishio_ok"] != "True" or row["rising_ok"] != "True"
            sizes.add(int(row["n"]))
    return digest.hexdigest(), rows, bad, sizes


def run_sweep(cli, manifest, loop, workdir, tracer):
    count = manifest["count"]
    out = os.path.join(workdir, "sweep.csv")
    digests = {}
    sizes = set()

    def unit(item, _tracer):
        # A traced sweep delimits its economies itself (tracing.BOUNDARY).
        seed = manifest["seeds"][item]
        argv = ["sweep", "--seed", str(seed), "--count", str(count), "--format", "csv"]
        start = time.perf_counter()
        try:
            code = _quiet_call(cli.main, argv, out)
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        failed = count
        if code == 0:
            digest, rows, bad, seen = check_sweep_csv(out)
            if rows == count and digests.setdefault(seed, digest) == digest:
                failed = bad
                sizes.update(seen)
        return elapsed, count, failed

    drive(loop, len(manifest["seeds"]), unit, tracer)
    return {"csv_sha256": digests, "n_seen": sorted(sizes)}


def _large_table_chain(economy, outdir):
    """The CLI commands one user runs on one table, with their output files."""
    path = economy["path"]
    tc = os.path.join(outdir, "change.json")
    wage = os.path.join(outdir, "constant.json")
    rising = os.path.join(outdir, "rising.json")
    fmt = ["--format", "json"]
    return [
        (["analyze", "--economy", path, *fmt], os.path.join(outdir, "analyze.json")),
        (["synth-tc", "--economy", path, "--sector", str(economy["sector"] + 1), *fmt], tc),
        (["synth-wage", "--economy", path, "--tc", tc, "--seed", str(economy["constant_seed"]), *fmt], wage),
        (["synth-wage", "--economy", path, "--tc", tc, "--seed", str(economy["rising_seed"]),
          "--strategy", "rising", *fmt], rising),
        (["verify", "--economy", path, "--tc", tc, "--wage", wage, *fmt],
         os.path.join(outdir, "verify-constant.json")),
        (["verify", "--economy", path, "--tc", tc, *fmt], os.path.join(outdir, "verify-control.json")),
        (["verify", "--economy", path, "--tc", tc, "--wage", rising, *fmt],
         os.path.join(outdir, "verify-rising.json")),
    ]


def _verdicts_hold(constant, control, rising) -> bool:
    return (
        constant["verdict"] == CONSTANT_VERDICT
        and control["post_pi"] >= control["pre_pi"] - CONTROL_SLACK
        and rising["verdict"] == RISING_VERDICT
    )


def run_large_table(cli, manifest, loop, workdir, tracer):
    def unit(item, tracer):
        commands = _large_table_chain(manifest["economies"][item], workdir)
        if tracer:
            tracer.begin_economy()
        start = time.perf_counter()
        passed = True
        try:
            for argv, path in commands:
                if _quiet_call(cli.main, argv, path) != 0:
                    passed = False
                    break
        except Exception:
            traceback.print_exc()
            passed = False
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_economy()
        if passed:
            reports = []
            for _, path in commands[-3:]:
                with open(path, encoding="utf-8") as handle:
                    report = json.load(handle)
                reports.append(
                    {"verdict": report["verdict"], "pre_pi": report["pre"]["pi"], "post_pi": report["post"]["pi"]}
                )
            passed = _verdicts_hold(*reports)
        return elapsed, 1, 0 if passed else 1

    drive(loop, len(manifest["economies"]), unit, tracer)
    return {}


def near_decomposable_chain(ok, inputs, labor, goods, knobs):
    """The per-economy body of verify.run_suite, called through the package.

    The economy is built afresh from copies of its arrays, as run_suite's
    random_economy builds each one, so validation is timed on every
    repeat and no object or array is ever seen twice. This is a copy of
    run_suite's loop body: it has to follow run_suite when that changes.
    """
    tech = ok.Technology(inputs.copy(), labor.copy())
    bundle = ok.WageBundle(goods.copy())
    equilibrium = ok.uniform_profit_rate(tech, bundle)
    synthesized = ok.synthesize_culs_change(
        tech, bundle, equilibrium, knobs["sector"], knobs["epsilon_frac"], knobs["labor_frac"]
    )
    values = ok.labor_values(tech)
    bundle_value = ok.value_of_bundle(values, bundle)
    classification = ok.classify(tech, equilibrium, synthesized.change)
    new_values = ok.labor_values(ok.apply_change(tech, synthesized.change))
    region = ok.build_region(equilibrium, new_values, bundle_value, classification)
    constant = ok.sample_constant_exploitation(region, knobs["constant_seed"])
    rising = ok.sample_rising_exploitation(region, knobs["rising_seed"])
    change = synthesized.change
    return [ok.run_scenario(tech, bundle, change, new) for new in (constant, bundle, rising)]


def scenarios_hold(reports) -> bool:
    """_verdicts_hold on the constant, control and rising ScenarioReports."""
    return _verdicts_hold(
        *({"verdict": r.verdict.value, "pre_pi": r.pre_profit, "post_pi": r.post_profit} for r in reports)
    )


def run_near_decomposable(ok, manifest, loop, tracer):
    import numpy as np

    economies = [
        (np.array(item["A"]), np.array(item["L"]), np.array(item["b"]), item) for item in manifest["economies"]
    ]

    def unit(item, tracer):
        inputs, labor, goods, knobs = economies[item]
        if tracer:
            tracer.begin_economy()
        start = time.perf_counter()
        try:
            reports = near_decomposable_chain(ok, inputs, labor, goods, knobs)
        except Exception:
            traceback.print_exc()
            reports = None
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.end_economy()
        passed = reports is not None and scenarios_hold(reports)
        return elapsed, 1, 0 if passed else 1

    drive(loop, len(economies), unit, tracer)
    return {}


def run_workload(workload, manifest, seconds, trace, workdir, spans_path=None) -> dict:
    start = time.perf_counter()
    import okishio_lab as ok
    from okishio_lab import cli, worked_example

    setup_s = time.perf_counter() - start
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.economy = tracing.GATE
    gate_passed = worked_example.replay().passed
    if tracer:
        tracer.economy = None
        tracer.uninstall()
    loop = Loop(seconds)
    if workload == "sweep-small":
        extra = run_sweep(cli, manifest, loop, workdir, tracer)
    elif workload == "large-table":
        extra = run_large_table(cli, manifest, loop, workdir, tracer)
    else:
        extra = run_near_decomposable(ok, manifest, loop, tracer)
    sustained = loop.sustained_ms()
    value, percentile, count = tail(sustained)
    result = {
        "workload": workload,
        "setup_s": setup_s,
        "gate_passed": gate_passed,
        "economies": loop.economies,
        "failed": loop.failed,
        "timed_s": loop.timed_s,
        "economies_per_s": 1e3 * len(sustained) / sum(sustained),
        "economy_ms_p50": statistics.median(sustained),
        "economies_per_s_wall": 1e3 * len(loop.samples_ms) / sum(loop.samples_ms),
        "economy_ms_p50_wall": statistics.median(loop.samples_ms),
        "economy_ms_tail": value,
        "tail_percentile": percentile,
        "samples": count,
        "cold_ratio": loop.cold_ratio(),
        "samples_ms": loop.samples_ms,
        "peak_rss_mb": peak_rss_mb(),
        "package_file": ok.__file__,
        **extra,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.economies, int(loop.traced_s * 1e9))
        result["layers"]["trace.overhead_share"] = statistics.median(loop.overhead_ratios) - 1.0
        result["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write(spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep-small", "large-table", "near-decomposable"))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file for the traced spans (JSON lines)")
    args = parser.parse_args(argv)
    with open(args.manifest, encoding="utf-8") as handle:
        manifest = json.load(handle)
    workdir = os.path.dirname(os.path.abspath(args.manifest))
    result = run_workload(args.workload, manifest, args.seconds, args.trace, workdir, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
