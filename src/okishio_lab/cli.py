"""Command-line interface.

Commands:

* ``analyze``            solve an economy and report its equilibrium
* ``check-tc``           classify a technical change (optionally with a bundle)
* ``synth-tc``           construct a viable capital-using labor-saving change
* ``synth-wage``         sample a replacement wage bundle for a change
* ``verify``             run a full before/after scenario
* ``reproduce-example``  replay the embedded worked example
* ``sweep``              run the random verification suite

Exit codes: 0 success, 1 golden-replay mismatch, 2 input validation
failure, 3 internal guarantee violation. Text output rounds to 7
significant digits; JSON carries full precision. No command takes a
solver tolerance: every price solve is certified by its Collatz–Wielandt
bracket and checked against the fixed ``tolerances.RESIDUAL_TOL``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .errors import EconomyError
from .equilibrium import admissibility, max_profit_rate, uniform_profit_rate
from .linear_economy import load_economy, load_wage, value_system, wage_payload
from .synthesis import (
    EqualOffPivot, PivotUniform, analyze_change, sample_constant_exploitation,
    sample_rising_exploitation, synthesize_culs_change,
)
from .technical_change import check_properties, classify, load_tech_change, tech_change_payload
# run_suite is bound here for perfbench/tracing.py, which wraps each name
# in every module that binds it, and for its tests.
from .verify import (  # noqa: F401
    SCENARIO_FLAG_NAMES, SUITE_CSV_COLUMNS, iter_suite_rows, run_scenario, run_suite,
    suite_summary,
)
from .worked_example import replay


def _fmt(x) -> str:
    return format(float(x), ".7g")


def _fmt_vec(vec) -> str:
    return "  ".join(_fmt(x) for x in vec)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_analyze(args) -> int:
    tech, bundle = load_economy(args.economy)
    equilibrium = uniform_profit_rate(tech, bundle)
    system = value_system(tech, bundle)
    values, bundle_value = system.values, system.bundle_value
    flags = admissibility(equilibrium.prices, values, bundle_value)
    ratios = equilibrium.prices / values
    ceiling = max_profit_rate(tech)
    if args.format == "json":
        _emit_json(
            {
                "n": tech.n,
                "rho_inputs": tech.spectral_radius,
                "productivity_bound": tech.productivity_bound,
                "max_profit_rate": ceiling,
                "equilibrium": equilibrium.to_json_dict(),
                "labor_values": [float(x) for x in values],
                "bundle_value": bundle_value,
                "exploitation": system.exploitation,
                "price_value_ratios": [float(x) for x in ratios],
                "max_ratio": flags.max_ratio,
                "max_ratio_sector": flags.max_ratio_sector + 1,
                "nonnegative_surplus": flags.nonnegative_surplus,
                "ratio_headroom": flags.ratio_headroom,
                "admissible": flags.admissible,
            }
        )
        return 0
    print(f"sectors:                  {tech.n}")
    print(f"spectral radius (inputs): {_fmt(tech.spectral_radius)}")
    print(f"spectral radius (wage-augmented): {_fmt(equilibrium.spectral_radius)}")
    print(f"profit rate:              {_fmt(equilibrium.profit_rate)}")
    print(f"max profit rate (zero wage): {_fmt(ceiling)}")
    print(f"prices (bundle costs 1):  {_fmt_vec(equilibrium.prices)}")
    print(f"labor values:             {_fmt_vec(values)}")
    print(f"bundle value:             {_fmt(bundle_value)}")
    print(f"exploitation rate:        {_fmt(system.exploitation)}")
    print(f"price/value ratios:       {_fmt_vec(ratios)}")
    # Full precision: downstream constructions are sensitive to this ratio.
    print(f"max ratio:                {flags.max_ratio!r} (sector {flags.max_ratio_sector + 1})")
    print(
        f"admissible bundle:        {_yesno(flags.admissible)} "
        f"(surplus {_yesno(flags.nonnegative_surplus)}, "
        f"headroom {_yesno(flags.ratio_headroom)})"
    )
    print(f"residual:                 {equilibrium.residual:.3e}")
    return 0


def cmd_check_tc(args) -> int:
    tech, bundle = load_economy(args.economy)
    change = load_tech_change(args.tc)
    equilibrium = uniform_profit_rate(tech, bundle)
    properties = None
    if args.wage is None:
        # Pricing alone: a patched technique that is not productive still classifies.
        classification = classify(tech, equilibrium, change)
    else:
        new_bundle = load_wage(args.wage)
        analysis = analyze_change(tech, bundle, equilibrium, change)
        classification = analysis.classification
        values, new_values = analysis.values.values, analysis.new_values
        properties = check_properties(
            tech, change, equilibrium, values, new_values, bundle, new_bundle
        )
    payload = {
        "sector": change.sector + 1,
        "viable": classification.viable,
        "culs": classification.culs,
        "cost_pre": classification.cost_pre,
        "cost_post": classification.cost_post,
        "cost_drop": classification.cost_drop,
        "saving_rate": classification.saving_rate,
        "break_even_wage": classification.break_even_wage,
    }
    if properties is not None:
        payload.update((name, getattr(properties, name)) for name in (
            "more_expensive", "value_constant", "saving_bounded", "surplus_ok_post",
            "new_bundle_cost", "bundle_value_pre", "bundle_value_post", "labor_cost_margin"))
    if args.format == "json":
        _emit_json(payload)
        return 0
    print(f"sector:           {change.sector + 1}")
    print(f"viable:           {_yesno(classification.viable)}")
    print(f"culs:             {_yesno(classification.culs)}")
    print(f"cost before:      {_fmt(classification.cost_pre)}")
    print(f"cost after:       {_fmt(classification.cost_post)}")
    print(f"cost drop:        {_fmt(classification.cost_drop)}")
    print(f"saving rate:      {_fmt(classification.saving_rate)}")
    print(f"break-even wage:  {_fmt(classification.break_even_wage)}")
    if properties is not None:
        print(f"bundle dearer than old wage: {_yesno(properties.more_expensive)}")
        print(f"bundle value unchanged:      {_yesno(properties.value_constant)}")
        print(f"saving below labor margin:   {_yesno(properties.saving_bounded)}")
        print(f"post surplus in (0, 1]:      {_yesno(properties.surplus_ok_post)}")
        print(f"new bundle cost:             {_fmt(properties.new_bundle_cost)}")
    return 0


def cmd_synth_tc(args) -> int:
    tech, bundle = load_economy(args.economy)
    equilibrium = uniform_profit_rate(tech, bundle)
    synthesized = synthesize_culs_change(
        tech,
        bundle,
        equilibrium,
        args.sector - 1,
        epsilon_frac=args.epsilon_frac,
        labor_frac=args.labor_frac,
    )
    if args.format == "json":
        _emit_json(tech_change_payload(synthesized.change))
        return 0
    lo, hi = synthesized.labor_interval
    print(f"sector:           {args.sector}")
    print(f"pivot sector:     {synthesized.pivot_sector + 1}")
    print(f"column increment: {_fmt(synthesized.column_increment)}")
    print(f"labor window:     ({_fmt(lo)}, {_fmt(hi)})")
    print(f"new labor:        {_fmt(synthesized.change.new_labor)}")
    print(f"new column:       {_fmt_vec(synthesized.change.new_column)}")
    return 0


def _require_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {seed}")


def cmd_synth_wage(args) -> int:
    _require_seed(args.seed)
    if args.strategy != "equal-off-pivot" and (args.pivot, args.pivot_value) != (None, None):
        raise ValueError("--pivot and --pivot-value apply only to --strategy equal-off-pivot")
    tech, bundle = load_economy(args.economy)
    change = load_tech_change(args.tc)
    equilibrium = uniform_profit_rate(tech, bundle)
    region = analyze_change(tech, bundle, equilibrium, change).region
    if args.strategy == "rising":
        sampled = sample_rising_exploitation(region, args.seed)
    elif args.strategy == "equal-off-pivot":
        pivot = None if args.pivot is None else args.pivot - 1
        strategy = EqualOffPivot(pivot=pivot, value=args.pivot_value)
        sampled = sample_constant_exploitation(region, args.seed, strategy)
    else:
        weights = tuple(float(x) for x in bundle.quantities)
        sampled = sample_constant_exploitation(
            region, args.seed, PivotUniform(weights=weights)
        )
    if args.format == "json":
        _emit_json(wage_payload(sampled))
        return 0
    print(f"bundle: {_fmt_vec(sampled.quantities)}")
    print(f"cost at old prices: {_fmt(float(region.prices @ sampled.quantities))}")
    print(f"labor value:        {_fmt(float(region.new_values @ sampled.quantities))}")
    return 0


def _scenario_payload(report) -> dict:
    flags = report.flags
    return {
        "pre": {
            "pi": report.pre_profit,
            "p": [float(x) for x in report.pre_prices],
            "values": [float(x) for x in report.pre_values],
            "exploitation": report.pre_exploitation,
        },
        "post": {
            "pi": report.post_profit,
            "p": [float(x) for x in report.post_prices],
            "values": [float(x) for x in report.post_values],
            "exploitation": report.post_exploitation,
        },
        "flags": {name: getattr(flags, name) for name in SCENARIO_FLAG_NAMES},
        "verdict": report.verdict.value,
    }


def cmd_verify(args) -> int:
    tech, bundle = load_economy(args.economy)
    change = load_tech_change(args.tc)
    new_bundle = load_wage(args.wage) if args.wage is not None else bundle
    report = run_scenario(tech, bundle, change, new_bundle)
    if args.format == "json":
        _emit_json(_scenario_payload(report))
        return 0
    flags = report.flags
    print(f"verdict:     {report.verdict.value}")
    print(f"profit rate:       {_fmt(report.pre_profit)} -> {_fmt(report.post_profit)}")
    print(
        f"exploitation rate: {_fmt(report.pre_exploitation)} -> "
        f"{_fmt(report.post_exploitation)}"
    )
    print(f"prices:      {_fmt_vec(report.pre_prices)} -> {_fmt_vec(report.post_prices)}")
    print(f"values:      {_fmt_vec(report.pre_values)} -> {_fmt_vec(report.post_values)}")
    print(
        "flags:       "
        f"viable {_yesno(flags.viable)}, culs {_yesno(flags.culs)}, "
        f"dearer {_yesno(flags.more_expensive)}, "
        f"value-constant {_yesno(flags.value_constant)}, "
        f"saving-bounded {_yesno(flags.saving_bounded)}"
    )
    print(
        "             "
        f"admissible-pre {_yesno(flags.admissible_pre)}, "
        f"surplus-post {_yesno(flags.surplus_ok_post)}, "
        f"region-feasible {_yesno(flags.region_feasible)}, "
        f"ratio-condition {_yesno(flags.ratio_condition)}"
    )
    return 0


def cmd_reproduce_example(args) -> int:
    report = replay(perturb=args.perturb)
    if args.format == "json":
        _emit_json(
            {
                "passed": report.passed,
                "elapsed_seconds": report.elapsed,
                "checks": [
                    {
                        "name": check.name,
                        "expected": check.expected,
                        "actual": check.actual,
                        "ok": check.ok,
                    }
                    for check in report.checks
                ],
            }
        )
        return 0 if report.passed else 1
    failed = 0
    for check in report.checks:
        status = "ok  " if check.ok else "FAIL"
        if not check.ok:
            failed += 1
        print(
            f"{status}  {check.name:<28} expected {check.expected:<12.7g} "
            f"actual {check.actual:.7g}"
        )
    total = len(report.checks)
    print(
        f"{total} checks, {total - failed} ok, {failed} failed "
        f"({report.elapsed:.3f} s)"
    )
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    _require_seed(args.seed)
    rows = iter_suite_rows(seed=args.seed, count=args.count, n_range=(args.n_min, args.n_max))
    if args.format == "csv":
        rows = _echoed_as_csv(rows)
    try:
        summary = suite_summary(rows)
    except BrokenPipeError:
        # The reader closed the pipe early (``sweep ... | head``) and has the
        # rows it read; what is still buffered goes nowhere at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if args.format == "json":
        _emit_json(summary)
    elif args.format == "text":
        print(f"scenarios:          {summary['count']}")
        for verdict, count in summary["verdicts"].items():
            print(f"  {verdict:<34} {count}")
        print(f"okishio violations: {summary['okishio_violations']}")
        print(f"rising violations:  {summary['rising_violations']}")
        print(f"violations:         {summary['violations']}")
    return 3 if summary["violations"] > 0 else 0


def _echoed_as_csv(rows):
    """Pass sweep rows on, writing each to stdout as it comes."""
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(SUITE_CSV_COLUMNS)
    for row in rows:
        writer.writerow(row)
        yield row


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okishio-lab",
        description=(
            "Long-run equilibria of circulating-capital economies: prices of "
            "production, profit and exploitation rates, and constructive "
            "technical-change scenarios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, formats=("text", "json")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(func=func)
        cmd.add_argument(
            "--format",
            choices=formats,
            default="text",
            help="output format (default text)",
        )
        return cmd

    analyze = add("analyze", cmd_analyze, "solve an economy and report equilibrium")
    analyze.add_argument("--economy", required=True, help="economy JSON file")

    check = add("check-tc", cmd_check_tc, "classify a technical change")
    check.add_argument("--economy", required=True)
    check.add_argument("--tc", required=True, help="technical change JSON file")
    check.add_argument(
        "--wage", help="optional replacement bundle JSON to check jointly"
    )

    synth_tc = add(
        "synth-tc", cmd_synth_tc, "construct a viable capital-using change"
    )
    synth_tc.add_argument("--economy", required=True)
    synth_tc.add_argument("--sector", type=int, required=True, help="target sector (1-based)")
    synth_tc.add_argument(
        "--epsilon-frac",
        type=float,
        default=0.5,
        help="share of the sector's labor cost turned into input increment",
    )
    synth_tc.add_argument(
        "--labor-frac",
        type=float,
        default=0.5,
        help="position of the new labor inside its admissible window",
    )

    synth_wage = add(
        "synth-wage", cmd_synth_wage, "sample a replacement wage bundle"
    )
    synth_wage.add_argument("--economy", required=True)
    synth_wage.add_argument("--tc", required=True)
    synth_wage.add_argument("--seed", type=int, default=1000)
    synth_wage.add_argument(
        "--strategy",
        choices=("pivot-uniform", "equal-off-pivot", "rising"),
        default="pivot-uniform",
        help="pivot-uniform and equal-off-pivot keep the bundle value "
        "constant; rising samples strictly below it",
    )
    synth_wage.add_argument(
        "--pivot", type=int, help="pivot sector for equal-off-pivot (1-based)"
    )
    synth_wage.add_argument(
        "--pivot-value", type=float, help="fixed pivot coordinate for equal-off-pivot"
    )

    verify = add("verify", cmd_verify, "run a full before/after scenario")
    verify.add_argument("--economy", required=True)
    verify.add_argument("--tc", required=True)
    verify.add_argument(
        "--wage", help="replacement bundle JSON (defaults to the old bundle)"
    )

    reproduce = add(
        "reproduce-example", cmd_reproduce_example, "replay the worked example"
    )
    reproduce.add_argument(
        "--perturb",
        action="store_true",
        help="negative control: perturb the embedded data to force a mismatch",
    )

    sweep = add(
        "sweep", cmd_sweep, "run the random verification suite", ("text", "json", "csv")
    )
    sweep.add_argument("--seed", type=int, default=1000)
    sweep.add_argument("--count", type=int, default=100)
    sweep.add_argument("--n-min", type=int, default=2, help="smallest economy size")
    sweep.add_argument("--n-max", type=int, default=8, help="largest economy size")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EconomyError, ValueError, OSError) as err:
        notes = "".join(f" ({note})" for note in getattr(err, "__notes__", ()))
        print(f"error: {err}{notes}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
