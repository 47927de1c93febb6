"""Spans around calls into okishio_lab's public functions, from outside.

The package is not edited: ``Tracer.install`` rebinds each traced name in
every okishio_lab namespace that binds it (the package itself, the
defining module, and cross-imports such as ``verify.uniform_profit_rate``
or ``cli.run_suite``), so calls between modules are caught as well as
the benchmark's own. ``Technology`` is a class, so its validation hook
``__post_init__`` is wrapped instead of the name.

Spans stay in memory as ``[name, parent, economy, start_ns, end_ns]``
and are written out once, after the run. Only the worker imports this
module, and only for a traced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import time

# Layer -> traced public functions. Layers are okishio_lab's modules.
LAYERS = {
    "linear_economy": ("Technology", "check_productive_indecomposable", "labor_values", "load_economy"),
    "equilibrium": ("uniform_profit_rate",),
    "technical_change": ("classify", "apply_change", "check_properties"),
    "synthesis": (
        "synthesize_culs_change",
        "build_region",
        "sample_constant_exploitation",
        "sample_rising_exploitation",
    ),
    "verify": ("random_economy", "run_scenario", "run_suite", "suite_csv"),
    "cli": ("main",),
    "worked_example": ("replay",),
}
TRACED = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)
FIELDS = ("calls_per_economy", "ms_per_call", "self_share")

PACKAGE = "okishio_lab"
# Economy id of the correctness gate that runs before timing.
GATE = "gate"
# A sweep makes many economies inside one CLI call, one random_economy
# call each: entering BOUNDARY starts a new economy and returning from
# BATCH ends the current one. Only a sweep calls either.
BOUNDARY = "verify.random_economy"
BATCH = "verify.run_suite"


class Tracer:
    """Records one span per traced call; single-threaded by design."""

    def __init__(self):
        self.spans: list = []
        self.economy = None
        self.economies = 0
        self._stack: list = []
        self._undo: list = []

    def begin_economy(self) -> None:
        self.economies += 1
        self.economy = self.economies

    def end_economy(self) -> None:
        self.economy = None

    def wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if name == BOUNDARY:
                self.begin_economy()
            record = [name, stack[-1] if stack else -1, self.economy, clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
                if name == BATCH:
                    self.end_economy()

        return traced

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"{package.__name__}.{layer}")
            for fname in names:
                original = getattr(home, fname)
                label = f"{layer}.{fname}"
                if isinstance(original, type):
                    hook = original.__post_init__
                    self._undo.append((original, "__post_init__", hook))
                    original.__post_init__ = self.wrap(label, hook)
                    continue
                wrapper = self.wrap(label, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._undo.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def layer_metrics(spans, economies: int, timed_ns: int) -> dict:
    """Per-function metrics over the timed spans (the gate is left out).

    * ``calls_per_economy``: the median over economies of each economy's
      call count, so rare retries inside the program do not make it
      differ between runs; for spans outside any economy (a sweep's
      ``cli.main``, ``run_suite``, ``suite_csv``), calls over economies.
    * ``ms_per_call``: mean inclusive time per call. The gate's replay is
      the one function reported from the gate, as it runs only there.
    * ``self_share``: time inside the function but outside any traced
      child, over the timed wall time.
    """
    child_ns = [0] * len(spans)
    for name, parent, economy, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = {label: 0 for label in TRACED}
    total_ns = dict.fromkeys(TRACED, 0)
    self_ns = dict.fromkeys(TRACED, 0)
    batch_calls = dict.fromkeys(TRACED, 0)
    per_economy = {label: {} for label in TRACED}
    gate = {label: [] for label in TRACED}
    for index, (name, parent, economy, start, end) in enumerate(spans):
        if economy == GATE:
            gate[name].append(end - start)
            continue
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += end - start - child_ns[index]
        if economy is None:
            batch_calls[name] += 1
        else:
            per_economy[name][economy] = per_economy[name].get(economy, 0) + 1
    metrics = {}
    for label in TRACED:
        if batch_calls[label]:
            per = calls[label] / max(economies, 1)
        else:
            counts = per_economy[label]
            per = statistics.median([counts.get(k, 0) for k in range(1, economies + 1)] or [0])
        if calls[label]:
            ms = total_ns[label] / calls[label] / 1e6
        elif gate[label]:
            ms = sum(gate[label]) / len(gate[label]) / 1e6
        else:
            ms = 0.0
        metrics[f"{label}.calls_per_economy"] = float(per)
        metrics[f"{label}.ms_per_call"] = ms
        metrics[f"{label}.self_share"] = self_ns[label] / timed_ns if timed_ns else 0.0
    return metrics
