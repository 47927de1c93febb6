"""Tests of the benchmark itself (not of okishio_lab).

    python3 -m pytest -q perfbench/tests

The run tests start real, one-second benchmark runs, so this file takes
about a minute.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import economies
import tracing
import worker

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep-small", "large-table", "near-decomposable"])
def test_output_names_match_benchmark_json(workload, trace):
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = load_spec()["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace:
        path = os.path.join(ROOT, ".bench_work", "results", f"{workload}-seed3-trace1.json")
        with open(path, encoding="utf-8") as handle:
            layers = json.load(handle)["all_layers"]
        traced = {f"{label}.{field}" for label in tracing.TRACED for field in tracing.FIELDS}
        assert set(layers) == traced | {"trace.overhead_share"}


def test_benchmark_json_per_layer_names_are_traced():
    spec = load_spec()
    traced = {f"{label}.{field}" for label in tracing.TRACED for field in tracing.FIELDS}
    extra = {"trace.overhead_share"}
    assert {m["name"] for m in spec["per_layer"]} <= traced | extra
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"])
    setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound <= 0.25 for m in spec["end_to_end"])


def test_generators_are_deterministic():
    first = economies.near_decomposable_plan(5)
    assert first == economies.near_decomposable_plan(5)
    assert first != economies.near_decomposable_plan(6)
    assert economies.sweep_plan(5) == economies.sweep_plan(5) != economies.sweep_plan(6)
    one = economies.large_table_economy(np.random.default_rng([5, 1]), n=40)
    two = economies.large_table_economy(np.random.default_rng([5, 1]), n=40)
    for a, b in zip(one, two):
        np.testing.assert_array_equal(a, b)


def test_near_decomposable_inputs_meet_the_screen():
    plan = economies.near_decomposable_plan(7)["economies"]
    lo, hi = economies.NEAR_DECOMPOSABLE_RATIO
    assert len(plan) == economies.NEAR_DECOMPOSABLE_POOL
    for item, target, n in zip(plan, economies.ratio_targets(), economies.sector_counts()):
        assert lo <= item["ratio"] <= hi
        assert abs(item["ratio"] - target) <= economies.RATIO_TARGET_TOL
        assert item["n"] == n and 8 <= n <= 24
        bundle = np.array(item["b"])
        n1 = int(np.count_nonzero(bundle))
        coupling = np.array(item["A"])[n1:, :n1]
        assert np.count_nonzero(coupling) == 1 and 1e-4 <= coupling.max() <= 1e-3
    assert set(economies.sector_counts()) == set(range(8, 25))


UNTRACED_PROBE = """
import json, sys
sys.path[:0] = [{bench!r}, {src!r}]
import economies, worker
plan = economies.near_decomposable_plan(1)
plan["economies"] = plan["economies"][:2]
worker.run_workload("near-decomposable", plan, 0.2, 0, {workdir!r})
import okishio_lab
from okishio_lab import verify, cli
wrapped = [f for f in (okishio_lab.uniform_profit_rate, verify.uniform_profit_rate, cli.main,
                       okishio_lab.Technology.__post_init__) if hasattr(f, "__wrapped__")]
print(json.dumps({{"tracing": "tracing" in sys.modules, "wrapped": len(wrapped)}}))
"""


def test_untraced_run_imports_no_wrapper(tmp_path):
    code = UNTRACED_PROBE.format(bench=BENCH, src=os.path.join(ROOT, "src"), workdir=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.strip().splitlines()[-1]) == {"tracing": False, "wrapped": 0}


def test_tracer_wraps_cross_imports_and_counts_exactly():
    import okishio_lab
    from okishio_lab import cli, equilibrium, linear_economy, verify

    original = equilibrium.uniform_profit_rate
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert verify.uniform_profit_rate is okishio_lab.uniform_profit_rate is equilibrium.uniform_profit_rate
        assert equilibrium.uniform_profit_rate.__wrapped__ is original
        assert cli.run_suite.__wrapped__ is not None
        verify.run_suite(seed=11, count=4)
    finally:
        tracer.uninstall()
    assert equilibrium.uniform_profit_rate is original is verify.uniform_profit_rate
    assert not hasattr(linear_economy.Technology.__post_init__, "__wrapped__")
    metrics = tracing.layer_metrics(tracer.spans, tracer.economies, 10**9)
    assert tracer.economies == 4
    assert metrics["equilibrium.uniform_profit_rate.calls_per_economy"] == 8
    assert metrics["linear_economy.labor_values.calls_per_economy"] == 10
    assert metrics["linear_economy.Technology.calls_per_economy"] == 5
    assert metrics["verify.run_scenario.calls_per_economy"] == 3
    assert metrics["verify.run_suite.calls_per_economy"] == 0.25


def test_self_time_subtracts_traced_children():
    ms = 1_000_000
    spans = [
        ["worked_example.replay", -1, tracing.GATE, 0, 2 * ms],
        ["verify.run_scenario", -1, 1, 0, 10 * ms],
        ["equilibrium.uniform_profit_rate", 1, 1, 1 * ms, 4 * ms],
        ["linear_economy.labor_values", 1, 1, 5 * ms, 6 * ms],
        ["verify.run_scenario", -1, 2, 10 * ms, 20 * ms],
    ]
    metrics = tracing.layer_metrics(spans, economies=2, timed_ns=20 * ms)
    assert metrics["verify.run_scenario.ms_per_call"] == 10.0
    assert metrics["verify.run_scenario.self_share"] == pytest.approx((6 + 10) / 20)
    assert metrics["equilibrium.uniform_profit_rate.self_share"] == pytest.approx(3 / 20)
    assert metrics["equilibrium.uniform_profit_rate.calls_per_economy"] == 0.5
    assert metrics["worked_example.replay.ms_per_call"] == 2.0
    assert metrics["worked_example.replay.self_share"] == 0.0


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 101))
    value, percentile, count = worker.tail(samples)
    assert (value, percentile, count) == (90, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "sweep-small", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_sustained_time_is_each_items_upper_quartile():
    loop = worker.Loop(seconds=10)
    for ms in (50, 10, 40, 20, 30):
        loop.record(0, ms / 1e3, 1, 0)
    loop.record(1, 0.2, 2, 0)
    assert loop.sustained_ms() == pytest.approx([40.0, 100.0])
    assert loop.economies == 7 and loop.timed_s == pytest.approx(0.35)


def test_cold_ratio_compares_first_repeat_with_sustained_time():
    loop = worker.Loop(seconds=10)
    for ms in (90, 10, 10, 10, 10):
        loop.record(0, ms / 1e3, 1, 0)
    for ms in (30, 30, 30, 30, 30):
        loop.record(1, ms / 1e3, 1, 0)
    loop.record(2, 0.05, 1, 0)
    assert loop.cold_ratio() == pytest.approx(5.0)
    loop.record(3, 1.0, 1, 0, traced=True)
    assert 3 not in loop.by_item and loop.traced_s == pytest.approx(1.0)


class CountingTracer:
    def __init__(self):
        self.installed = 0

    def install(self):
        self.installed += 1

    def uninstall(self):
        pass


def test_traced_drive_pairs_each_item_untraced_and_traced():
    loop = worker.Loop(seconds=0.5)
    tracer = CountingTracer()
    seen = []

    def unit(item, active):
        seen.append((item, active is not None))
        return (0.06 if active else 0.05), 1, 0

    worker.drive(loop, 3, unit, tracer)
    assert seen[:6] == [(0, False), (0, True), (1, True), (1, False), (2, False), (2, True)]
    assert tracer.installed == sum(traced for _, traced in seen)
    assert loop.overhead_ratios and all(r == pytest.approx(1.2) for r in loop.overhead_ratios)
    assert all(len(s) >= 1 for s in loop.by_item.values())


def test_sweep_csv_check_streams_digest_and_verdicts(tmp_path):
    path = tmp_path / "sweep.csv"
    rows = [
        "index,n,verdict,okishio_ok,rising_ok",
        f"0,3,{worker.CONSTANT_VERDICT},True,True",
        f"1,5,{worker.CONSTANT_VERDICT},True,False",
    ]
    path.write_bytes(("\r\n".join(rows) + "\r\n").encode())
    digest, count, bad, sizes = worker.check_sweep_csv(str(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert (count, bad, sizes) == (2, 1, {3, 5})


def test_near_decomposable_builds_each_economy_afresh():
    import okishio_lab

    item = economies.near_decomposable_plan(2)["economies"][0]
    arrays = [np.array(item[key]) for key in ("A", "L", "b")]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            tracer.begin_economy()
            reports = worker.near_decomposable_chain(okishio_lab, *arrays, item)
            tracer.end_economy()
    finally:
        tracer.uninstall()
    assert worker.scenarios_hold(reports)
    metrics = tracing.layer_metrics(tracer.spans, tracer.economies, 10**9)
    # One Technology per economy built by the benchmark, four by the chain.
    assert metrics["linear_economy.Technology.calls_per_economy"] == 5
