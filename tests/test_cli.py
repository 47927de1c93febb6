"""Command-line interface, exercised in-process through main().

One sweep test shells out to a fresh interpreter to confirm output is
reproducible across processes, not just within one.
"""

import collections
import hashlib
import importlib
import json
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import okishio_lab
from okishio_lab import (
    NegativeExploitationWarning,
    ScenarioReport,
    SweepRecord,
    SynthesizedChange,
    Technology,
    Verdict,
    WageBundle,
    WageRegion,
    cli,
    linear_economy,
    load_tech_change,
    run_suite,
    suite_csv,
    suite_summary,
    verify,
)
from okishio_lab.cli import main
from okishio_lab.verify import suite_block


REF_ECONOMY = {
    "A": [
        [0.35, 0.05, 0.25],
        [0.15, 0.45, 0.05],
        [0.15, 0.15, 0.35],
    ],
    "L": [0.2, 0.15, 0.25],
    "b": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
}
REF_CHANGE = {"sector": 3, "column": [0.27, 0.07, 0.37], "labor": 0.18}
SOLVED_WAGE = {"b": [0.008613446793178136, 1.170977, 0.008613446793178136]}


@pytest.fixture
def economy_file(tmp_path):
    path = tmp_path / "economy.json"
    path.write_text(json.dumps(REF_ECONOMY))
    return str(path)


@pytest.fixture
def tc_file(tmp_path):
    path = tmp_path / "tc.json"
    path.write_text(json.dumps(REF_CHANGE))
    return str(path)


@pytest.fixture
def wage_file(tmp_path):
    path = tmp_path / "wage.json"
    path.write_text(json.dumps(SOLVED_WAGE))
    return str(path)


# Input files of the wrong shape, each as (command, the option naming the
# file, what the file holds, what the error must name). np.array(...,
# dtype=float) and float() read "0.2" as 0.2, true as 1.0 and null as NaN,
# so strings, booleans and null among numbers are refused one by one.
A_WITH_TRUE = [[0.35, 0.05, 0.25], [0.15, True, 0.05], [0.15, 0.15, 0.35]]
MALFORMED = {
    "change labor null": ("check-tc", "--tc", dict(REF_CHANGE, labor=None), "'labor'"),
    "change column object": ("check-tc", "--tc", dict(REF_CHANGE, column={"a": 1}), "'column'"),
    "change file a number": ("check-tc", "--tc", 5, "JSON object"),
    "change labor string": ("check-tc", "--tc", dict(REF_CHANGE, labor="0.18"), "'labor'"),
    "change column string": ("check-tc", "--tc", dict(REF_CHANGE, column=[0.27, "0.07", 0.37]),
                             "'column'"),
    "change column true": ("check-tc", "--tc", dict(REF_CHANGE, column=[0.27, True, 0.37]),
                           "'column'"),
    "change column nested": ("check-tc", "--tc", dict(REF_CHANGE, column=[[0.27, 0.07, 0.37]]),
                             "'column'"),
    "economy A object": ("analyze", "--economy", dict(REF_ECONOMY, A={"x": 1}), "'A'"),
    "economy A true": ("analyze", "--economy", dict(REF_ECONOMY, A=A_WITH_TRUE), "'A'"),
    "economy A flat": ("analyze", "--economy", dict(REF_ECONOMY, A=[0.1, 0.2, 0.3]), "'A'"),
    "economy L strings and true": ("analyze", "--economy",
                                   dict(REF_ECONOMY, L=["0.2", 0.15, True]), "'L'"),
    "economy L true": ("analyze", "--economy", dict(REF_ECONOMY, L=[0.2, True, 0.25]), "'L'"),
    "economy L nested": ("analyze", "--economy", dict(REF_ECONOMY, L=[[0.2, 0.15, 0.25]]), "'L'"),
    "economy b null": ("analyze", "--economy", dict(REF_ECONOMY, b=[0.3, None, 0.3]), "'b'"),
    "economy file a number": ("analyze", "--economy", 5, "JSON object"),
    "wage file null": ("verify", "--wage", None, "JSON object"),
    "wage b object": ("verify", "--wage", {"b": {"x": 1}}, "'b'"),
    "wage b string": ("verify", "--wage", {"b": ["0.0086", 1.17, 0.0086]}, "'b'"),
    "wage b nested": ("verify", "--wage", {"b": [[0.0086, 1.17, 0.0086]]}, "'b'"),
}
# Files that are not strict JSON, as raw bytes, which json.dump cannot write.
ECONOMY_BYTES = json.dumps(REF_ECONOMY).encode()
ECONOMY_NOT_JSON = "economy file is not valid JSON"
NOT_JSON = {
    "economy empty": ("analyze", "--economy", b"", ECONOMY_NOT_JSON),
    "economy trailing comma": ("analyze", "--economy", ECONOMY_BYTES[:-1] + b",}",
                               ECONOMY_NOT_JSON),
    "economy NaN": ("analyze", "--economy", ECONOMY_BYTES.replace(b"0.2,", b"NaN,"),
                    ECONOMY_NOT_JSON),
    "economy overflow": ("analyze", "--economy", ECONOMY_BYTES.replace(b"0.2,", b"1e400,"),
                         ECONOMY_NOT_JSON),
    "economy BOM": ("analyze", "--economy", b"\xef\xbb\xbf" + ECONOMY_BYTES, ECONOMY_NOT_JSON),
    "economy byte ff": ("analyze", "--economy", b"\xff" + ECONOMY_BYTES, ECONOMY_NOT_JSON),
    "wage trailing comma": ("verify", "--wage", json.dumps(SOLVED_WAGE).encode()[:-1] + b",}",
                            "wage file is not valid JSON"),
}
# Files that parse but whose entries build no economy, change or bundle.
INVALID = {
    "economy b negative": ("analyze", "--economy", dict(REF_ECONOMY, b=[0.3, -0.1, 0.3]),
                           "error: economy file is invalid: wage bundle quantities"),
    "economy b too short": ("analyze", "--economy", dict(REF_ECONOMY, b=[0.5, 0.5]),
                            "error: economy file is invalid: wage bundle length 2"),
    "wage b negative": ("verify", "--wage", {"b": [0.1, -1.0, 0.1]},
                        "error: wage file is invalid: wage bundle quantities"),
    "change column negative": ("check-tc", "--tc", dict(REF_CHANGE, column=[0.27, -0.07, 0.37]),
                               "error: technical change file is invalid: replacement input"),
}
BAD_FILES = {**MALFORMED, **NOT_JSON, **INVALID}
FILE_OPTIONS = {
    "analyze": ("--economy",),
    "check-tc": ("--economy", "--tc"),
    "verify": ("--economy", "--tc", "--wage"),
}


@pytest.mark.parametrize("command, option, content, named", BAD_FILES.values(), ids=BAD_FILES)
def test_malformed_file_is_an_input_error(
    command, option, content, named, economy_file, tc_file, wage_file, tmp_path, capsys
):
    files = {"--economy": economy_file, "--tc": tc_file, "--wage": wage_file}
    files[option] = str(tmp_path / "malformed.json")
    with open(files[option], "wb") as handle:
        handle.write(content if isinstance(content, bytes) else json.dumps(content).encode())
    argv = [command] + [part for name in FILE_OPTIONS[command] for part in (name, files[name])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("command", ["check-tc", "verify", "synth-wage"])
def test_sector_outside_the_economy_is_named_from_one(
    command, economy_file, wage_file, tmp_path, capsys
):
    path = tmp_path / "tc.json"
    path.write_text(json.dumps(dict(REF_CHANGE, sector=5)))
    argv = [command, "--economy", economy_file, "--tc", str(path)]
    assert main(argv + (["--wage", wage_file] if command == "verify" else [])) == 2
    assert capsys.readouterr().err == "error: sector 5 outside range 1..3\n"


def test_change_for_a_larger_economy_is_named_from_one(
    economy_file, wage_file, tmp_path, capsys
):
    path = tmp_path / "tc.json"
    path.write_text(json.dumps({"sector": 4, "column": [0.1, 0.1, 0.1, 0.1], "labor": 0.1}))
    assert main(["verify", "--economy", economy_file, "--tc", str(path), "--wage", wage_file]) == 2
    assert capsys.readouterr().err == (
        "error: sector 4 outside range 1..3 (scenario with 3 sectors, change in sector 4)\n"
    )


class TestAnalyze:
    def test_text_report(self, economy_file, capsys):
        assert main(["analyze", "--economy", economy_file]) == 0
        out = capsys.readouterr().out
        assert "profit rate:              0.1764706" in out
        assert "1.8181818" in out
        assert "(sector 2)" in out
        assert "exploitation rate:        0.75" in out
        assert "admissible bundle:        yes" in out

    def test_json_report(self, economy_file, capsys):
        assert main(["analyze", "--economy", economy_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 3
        assert payload["rho_inputs"] == pytest.approx(0.65, abs=1e-9)
        assert payload["productivity_bound"] >= payload["rho_inputs"] * (1.0 - 1e-14)
        assert payload["equilibrium"]["pi"] == pytest.approx(
            0.17647058823529413, abs=1e-9
        )
        assert payload["equilibrium"]["rho"] == pytest.approx(0.85, abs=1e-9)
        assert payload["equilibrium"]["p"][0] == pytest.approx(1.0, abs=1e-9)
        assert payload["exploitation"] == pytest.approx(0.75, abs=1e-9)
        assert payload["max_ratio"] == pytest.approx(20.0 / 11.0, abs=1e-9)
        assert payload["max_ratio_sector"] == 2
        assert payload["admissible"] is True

    def test_json_reports_the_solver_certificate(self, economy_file, capsys):
        assert main(["analyze", "--economy", economy_file, "--format", "json"]) == 0
        equilibrium = json.loads(capsys.readouterr().out)["equilibrium"]
        lo, hi = equilibrium["rho_bounds"]
        assert lo <= equilibrium["rho"] <= hi
        assert (hi - lo) / hi <= 1e-14
        assert isinstance(equilibrium["iterations"], int)
        assert equilibrium["iterations"] > 0

    def test_screens_the_input_matrix_once(self, economy_file, capsys, monkeypatch):
        # Technology certifies productivity from its value solve, and
        # rho_inputs and the max profit rate read one lazy radius solve.
        eigensolves, radius_solves = [], []
        original_eigvals = np.linalg.eigvals
        original = linear_economy._left_perron
        inputs = np.array(REF_ECONOMY["A"])

        def counted_eigvals(*args, **kwargs):
            eigensolves.append(args)
            return original_eigvals(*args, **kwargs)

        def counted(stack):
            radius_solves.extend(m for m in stack if np.array_equal(m, inputs))
            return original(stack)

        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        package = okishio_lab
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
        assert main(["analyze", "--economy", economy_file, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert eigensolves == []
        assert len(radius_solves) == 1
        assert payload["max_profit_rate"] == 1.0 / payload["rho_inputs"] - 1.0

    def test_wage_radius_far_above_one(self, tmp_path, capsys):
        # A bundle a billion times the reference's: rho(M) is about 2e8.
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(dict(REF_ECONOMY, b=[1e9 / 3.0] * 3)))
        with pytest.warns(NegativeExploitationWarning):
            assert main(["analyze", "--economy", str(path), "--format", "json"]) == 0
        equilibrium = json.loads(capsys.readouterr().out)["equilibrium"]
        assert equilibrium["rho"] > 1e8
        assert equilibrium["residual"] <= 1e-9

    def test_unproductive_economy_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"A": [[0.6, 0.6], [0.6, 0.6]], "L": [0.1, 0.1], "b": [0.1, 0.1]})
        )
        assert main(["analyze", "--economy", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "not productive" in err

    def test_negative_labor_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"A": [[0.2, 0.1], [0.1, 0.2]], "L": [-0.1, 0.1], "b": [0.1, 0.1]}
            )
        )
        assert main(["analyze", "--economy", str(path)]) == 2
        assert "labor vector must be strictly positive" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["analyze", "--economy", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"A": [[0.2]], "L": [0.1]}))
        assert main(["analyze", "--economy", str(path)]) == 2
        assert "'b'" in capsys.readouterr().err


class TestCheckTc:
    def test_text_classification(self, economy_file, tc_file, capsys):
        assert main(["check-tc", "--economy", economy_file, "--tc", tc_file]) == 0
        out = capsys.readouterr().out
        assert "viable:           yes" in out
        assert "culs:             yes" in out
        assert "cost before:      0.9272727" in out
        assert "cost after:       0.9172727" in out
        assert "break-even wage:  1.055556" in out

    def test_text_with_bundle_properties(
        self, economy_file, tc_file, wage_file, capsys
    ):
        code = main(
            [
                "check-tc",
                "--economy",
                economy_file,
                "--tc",
                tc_file,
                "--wage",
                wage_file,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bundle dearer than old wage: yes" in out
        assert "bundle value unchanged:      yes" in out
        assert "saving below labor margin:   yes" in out
        assert "post surplus in (0, 1]:      yes" in out

    def test_json_payload(self, economy_file, tc_file, wage_file, capsys):
        code = main(
            [
                "check-tc",
                "--economy",
                economy_file,
                "--tc",
                tc_file,
                "--wage",
                wage_file,
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sector"] == 3
        assert payload["viable"] is True
        assert payload["culs"] is True
        assert payload["cost_drop"] == pytest.approx(0.01, abs=1e-9)
        assert payload["saving_rate"] == pytest.approx(1.0 / 18.0, abs=1e-9)
        assert payload["break_even_wage"] == pytest.approx(19.0 / 18.0, abs=1e-9)
        assert payload["value_constant"] is True
        assert payload["bundle_value_post"] == pytest.approx(4.0 / 7.0, abs=1e-9)

    def test_unproductive_patch_still_classifies(
        self, economy_file, wage_file, tmp_path, capsys
    ):
        heavy = dict(REF_CHANGE, column=[1.25, 1.05, 1.35])
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(heavy))
        argv = ["check-tc", "--economy", economy_file, "--tc", str(path)]
        assert main(argv) == 0
        assert "viable:           no" in capsys.readouterr().out
        assert main(argv + ["--wage", wage_file]) == 2
        assert "not productive" in capsys.readouterr().err

    def test_bad_sector_in_file(self, economy_file, tmp_path, capsys):
        path = tmp_path / "tc.json"
        path.write_text(json.dumps({"sector": 0, "column": [0.1], "labor": 0.1}))
        assert main(["check-tc", "--economy", economy_file, "--tc", str(path)]) == 2
        assert "1-based" in capsys.readouterr().err

    def test_short_new_bundle_is_refused(self, economy_file, tc_file, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"b": [0.5, 0.5]}))
        argv = ["check-tc", "--economy", economy_file, "--tc", tc_file, "--wage", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: wage bundle length 2 does not match 3 sectors\n"

    @pytest.mark.parametrize("sector", [3.9, True], ids=["fractional", "boolean"])
    def test_non_integer_sector_in_file(self, sector, economy_file, tmp_path, capsys):
        path = tmp_path / "tc.json"
        path.write_text(json.dumps(dict(REF_CHANGE, sector=sector)))
        assert main(["check-tc", "--economy", economy_file, "--tc", str(path)]) == 2
        assert "whole number" in capsys.readouterr().err


class TestSynthTc:
    def test_json_output_round_trips(self, economy_file, tmp_path, capsys):
        code = main(
            [
                "synth-tc",
                "--economy",
                economy_file,
                "--sector",
                "3",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sector"] == 3
        out_file = tmp_path / "synth.json"
        out_file.write_text(json.dumps(payload))
        change = load_tech_change(str(out_file))
        assert change.sector == 2
        np.testing.assert_allclose(
            change.new_column, np.array(payload["column"]), atol=0
        )

    def test_synthesized_change_verifies(self, economy_file, tmp_path, capsys):
        main(
            [
                "synth-tc",
                "--economy",
                economy_file,
                "--sector",
                "1",
                "--format",
                "json",
            ]
        )
        tc_path = tmp_path / "tc1.json"
        tc_path.write_text(capsys.readouterr().out)
        assert (
            main(["check-tc", "--economy", economy_file, "--tc", str(tc_path)]) == 0
        )
        out = capsys.readouterr().out
        assert "viable:           yes" in out
        assert "culs:             yes" in out

    def test_text_output(self, economy_file, capsys):
        assert main(["synth-tc", "--economy", economy_file, "--sector", "3"]) == 0
        out = capsys.readouterr().out
        assert "pivot sector:     2" in out
        assert "labor window:" in out
        assert "new column:" in out

    def test_missing_sector_flag(self, economy_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth-tc", "--economy", economy_file])
        assert excinfo.value.code == 2
        assert "the following arguments are required: --sector" in capsys.readouterr().err

    def test_sector_out_of_range(self, economy_file, capsys):
        assert main(["synth-tc", "--economy", economy_file, "--sector", "4"]) == 2
        assert "1..3" in capsys.readouterr().err

    def test_sector_is_checked_by_the_library_and_named_from_one(self, economy_file, capsys):
        for sector in ("0", "4"):
            assert main(["synth-tc", "--economy", economy_file, "--sector", sector]) == 2
            assert capsys.readouterr().err == f"error: sector {sector} outside range 1..3\n"

    @pytest.mark.parametrize("knobs, bound", [
        (["--epsilon-frac", "0.999999999", "--labor-frac", "0.99"], "relative unit-cost drop"),
        (["--epsilon-frac", "1e-13"], "smallest relative input rise"),
    ], ids=["cost-drop", "input-rise"])
    def test_change_its_classifier_would_reject_exits_2(
        self, economy_file, knobs, bound, capsys
    ):
        assert main(["synth-tc", "--economy", economy_file, "--sector", "3", *knobs]) == 2
        assert bound in capsys.readouterr().err

    def test_headroom_near_zero_exits_2(self, tmp_path, capsys):
        # A = 1/8 + 1e-11 R has price-value headroom of about 2e-12.
        inputs = 1.0 / 8.0 + 1e-11 * np.random.default_rng(3).uniform(size=(4, 4))
        tech = Technology(inputs, np.full(4, 0.2))
        path = tmp_path / "economy.json"
        path.write_text(json.dumps({"A": inputs.tolist(), "L": [0.2] * 4,
                                    "b": [0.5 / tech.values.sum()] * 4}))
        assert main(["synth-tc", "--economy", str(path), "--sector", "1"]) == 2
        assert "relative unit-cost drop" in capsys.readouterr().err

    def test_bad_fraction(self, economy_file, capsys):
        code = main(
            [
                "synth-tc",
                "--economy",
                economy_file,
                "--sector",
                "3",
                "--epsilon-frac",
                "1.5",
            ]
        )
        assert code == 2


class TestSynthWage:
    def test_equal_off_pivot_reproduces_reference(
        self, economy_file, tc_file, capsys
    ):
        code = main(
            [
                "synth-wage",
                "--economy",
                economy_file,
                "--tc",
                tc_file,
                "--strategy",
                "equal-off-pivot",
                "--pivot",
                "2",
                "--pivot-value",
                "1.170977",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(
            payload["b"],
            [0.008613446793178136, 1.170977, 0.008613446793178136],
            atol=1e-9,
        )

    def test_change_that_is_not_viable_has_no_bundle(self, economy_file, tmp_path, capsys):
        # A dearer column with more labor raises the unit cost at old prices.
        # The missing region is named before a pivot outside the range is.
        path = tmp_path / "dearer.json"
        path.write_text(json.dumps({"sector": 3, "column": [0.26, 0.06, 0.36], "labor": 0.25}))
        for flags in ([], ["--strategy", "equal-off-pivot", "--pivot", "5"]):
            assert main(["synth-wage", "--economy", economy_file, "--tc", str(path), *flags]) == 2
            assert "only defined for a viable change" in capsys.readouterr().err

    def test_pinned_pivot_that_cannot_carry_a_bundle(self, economy_file, tc_file, capsys):
        # Sector 1's value intercept lies below its price intercept, so no
        # drawn coordinate works there; a pinned value still gives a bundle.
        base = ["synth-wage", "--economy", economy_file, "--tc", tc_file,
                "--strategy", "equal-off-pivot", "--pivot", "1"]
        assert main(base) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sector 1 cannot carry a bundle: its value intercept")
        assert main(base + ["--pivot-value", "0.5"]) == 0
        assert capsys.readouterr().out.startswith("bundle: 0.5 ")

    def test_pivot_is_checked_and_named_from_one(self, economy_file, tc_file, capsys):
        base = ["synth-wage", "--economy", economy_file, "--tc", tc_file,
                "--strategy", "equal-off-pivot", "--pivot"]
        for pivot in ("0", "5"):
            assert main(base + [pivot]) == 2
            assert capsys.readouterr().err == f"error: pivot sector {pivot} outside range 1..3\n"

    def test_negative_seed_is_refused_naming_the_flag(self, economy_file, tc_file, capsys):
        argv = ["synth-wage", "--economy", economy_file, "--tc", tc_file, "--seed", "-1"]
        assert main(argv) == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", ["pivot-uniform", "rising"])
    def test_pivot_flags_need_equal_off_pivot(
        self, strategy, economy_file, tc_file, capsys
    ):
        base = ["synth-wage", "--economy", economy_file, "--tc", tc_file]
        for flags in (["--pivot", "2"], ["--pivot-value", "99"]):
            assert main(base + ["--strategy", strategy] + flags) == 2
            assert "equal-off-pivot" in capsys.readouterr().err

    def test_sampled_bundle_verifies_constant(
        self, economy_file, tc_file, tmp_path, capsys
    ):
        main(
            [
                "synth-wage",
                "--economy",
                economy_file,
                "--tc",
                tc_file,
                "--seed",
                "7",
                "--format",
                "json",
            ]
        )
        wage_path = tmp_path / "sampled.json"
        wage_path.write_text(capsys.readouterr().out)
        code = main(
            [
                "verify",
                "--economy",
                economy_file,
                "--tc",
                tc_file,
                "--wage",
                str(wage_path),
            ]
        )
        assert code == 0
        assert (
            "verdict:     ProfitFellExploitationConstant"
            in capsys.readouterr().out
        )

    def test_rising_bundle_verifies_rising(
        self, economy_file, tc_file, tmp_path, capsys
    ):
        main(
            [
                "synth-wage",
                "--economy",
                economy_file,
                "--tc",
                tc_file,
                "--strategy",
                "rising",
                "--seed",
                "7",
                "--format",
                "json",
            ]
        )
        wage_path = tmp_path / "rising.json"
        wage_path.write_text(capsys.readouterr().out)
        main(
            [
                "verify",
                "--economy",
                economy_file,
                "--tc",
                tc_file,
                "--wage",
                str(wage_path),
            ]
        )
        assert (
            "verdict:     ProfitFellExploitationRose" in capsys.readouterr().out
        )

    def test_same_seed_same_bundle(self, economy_file, tc_file, capsys):
        argv = [
            "synth-wage",
            "--economy",
            economy_file,
            "--tc",
            tc_file,
            "--seed",
            "42",
            "--format",
            "json",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_different_seed_different_bundle(self, economy_file, tc_file, capsys):
        base = ["synth-wage", "--economy", economy_file, "--tc", tc_file]
        main(base + ["--seed", "1", "--format", "json"])
        first = json.loads(capsys.readouterr().out)
        main(base + ["--seed", "2", "--format", "json"])
        second = json.loads(capsys.readouterr().out)
        assert first["b"] != second["b"]

    def test_text_output_reports_cost_and_value(
        self, economy_file, tc_file, capsys
    ):
        assert (
            main(["synth-wage", "--economy", economy_file, "--tc", tc_file]) == 0
        )
        out = capsys.readouterr().out
        assert "bundle:" in out
        assert "cost at old prices:" in out
        assert "labor value:        0.5714286" in out


class TestVerify:
    def test_constant_exploitation_scenario(
        self, economy_file, tc_file, wage_file, capsys
    ):
        code = main(
            [
                "verify",
                "--economy",
                economy_file,
                "--tc",
                tc_file,
                "--wage",
                wage_file,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:     ProfitFellExploitationConstant" in out
        assert "profit rate:       0.1764706 -> 0.1604551" in out
        assert "exploitation rate: 0.75 -> 0.75" in out
        assert "viable yes, culs yes" in out

    def test_default_wage_is_okishio_control(self, economy_file, tc_file, capsys):
        assert main(["verify", "--economy", economy_file, "--tc", tc_file]) == 0
        out = capsys.readouterr().out
        assert "verdict:     OkishioRise" in out
        assert "0.1811024" in out

    def test_error_names_the_scenario(self, economy_file, tmp_path, capsys):
        # The change raises sector 3's column by 1.0: the patched technique
        # is not productive, and the error says which scenario failed.
        heavy = tmp_path / "heavy.json"
        heavy.write_text(json.dumps(dict(REF_CHANGE, column=[1.25, 1.05, 1.35])))
        assert main(["verify", "--economy", economy_file, "--tc", str(heavy)]) == 2
        err = capsys.readouterr().err
        assert "spectral radius 1.650000 is not below 1" in err
        assert "scenario with 3 sectors, change in sector 3" in err

    def test_json_scenario(self, economy_file, tc_file, wage_file, capsys):
        code = main(
            [
                "verify",
                "--economy",
                economy_file,
                "--tc",
                tc_file,
                "--wage",
                wage_file,
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "ProfitFellExploitationConstant"
        assert payload["pre"]["pi"] == pytest.approx(0.17647058823529413, abs=1e-9)
        assert payload["post"]["pi"] == pytest.approx(0.16045512011280572, abs=1e-9)
        assert payload["flags"]["region_feasible"] is True
        assert payload["flags"]["ratio_condition"] is True
        assert len(payload["post"]["p"]) == 3


class TestReproduceExample:
    def test_replay_passes(self, capsys):
        assert main(["reproduce-example"]) == 0
        out = capsys.readouterr().out
        assert "29 checks, 29 ok, 0 failed" in out
        assert "FAIL" not in out
        assert "profit_rate" in out

    def test_replay_json(self, capsys):
        assert main(["reproduce-example", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 29
        assert all(check["ok"] for check in payload["checks"])

    def test_perturbed_replay_fails(self, capsys):
        assert main(["reproduce-example", "--perturb"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "profit_rate" in out


class TestFormats:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--economy", "economy.json"],
            ["verify", "--economy", "economy.json", "--tc", "tc.json"],
            ["reproduce-example"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_only_on_sweep(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--format", "csv"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err


class TestSweep:
    def test_csv_shape_and_determinism(self, capsys):
        argv = ["sweep", "--count", "5", "--format", "csv"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        lines = first.splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("index,seed,n,")
        assert "ProfitFellExploitationConstant" in lines[1]

    def test_csv_deterministic_across_processes(self, capsys):
        argv = ["sweep", "--count", "5", "--format", "csv"]
        assert main(argv) == 0
        in_process = capsys.readouterr().out
        result = subprocess.run(
            [sys.executable, "-m", "okishio_lab.cli"] + argv,
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout == in_process

    def test_reader_closing_the_pipe_early_is_not_an_error(self):
        # Rows stream out block by block, so `sweep | head` closes the pipe
        # while later blocks are still being written. 400 rows are more than
        # a pipe buffer holds, so the writer cannot finish before the close.
        process = subprocess.Popen(
            [sys.executable, "-m", "okishio_lab.cli", "sweep", "--count", "400",
             "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert process.stdout.readline().startswith(b"index,")
        process.stdout.close()
        assert process.wait(timeout=120) == 0
        assert process.stderr.read() == b""
        process.stderr.close()

    def test_zero_count_prints_header_only(self, capsys):
        assert main(["sweep", "--count", "0", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith("index,")

    def test_json_summary_clean(self, capsys):
        assert main(["sweep", "--count", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 5
        assert payload["violations"] == 0
        assert payload["verdicts"]["ProfitFellExploitationConstant"] == 5

    def test_violations_are_counted_and_exit_3(self, monkeypatch, capsys):
        # Each economy verifies a constant, the old and a rising bundle, in
        # that order, and with one sector count all six form one group.
        # Every second economy gets OkishioRise and Inconclusive for its
        # sampled bundles, and the okishio test reads its brackets the wrong
        # way round, so every control's profit rate "falls".
        original_fell = verify._profit_fell
        healthy = [verify._VERDICTS.index(verdict) for verdict in (
            Verdict.PROFIT_FELL_EXPLOITATION_CONSTANT, Verdict.OKISHIO_RISE,
            Verdict.PROFIT_FELL_EXPLOITATION_ROSE)]
        violating = [verify._VERDICTS.index(Verdict.OKISHIO_RISE),
                     verify._VERDICTS.index(Verdict.INCONCLUSIVE)]

        def violating_codes(pre_bounds, post_bounds, pre_exploitation, post_exploitation):
            codes = np.tile(healthy, len(post_bounds) // 3)
            codes.reshape(-1, 3)[::2, [0, 2]] = violating
            return codes

        monkeypatch.setattr(verify, "_verdict_codes", violating_codes)
        monkeypatch.setattr(verify, "_profit_fell", lambda pre, post: original_fell(post, pre))
        argv = ["sweep", "--count", "6", "--n-min", "2", "--n-max", "2", "--format", "json"]
        assert main(argv) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"] == {"ProfitFellExploitationConstant": 3,
                                       "ProfitFellExploitationRose": 0, "OkishioRise": 3,
                                       "Inconclusive": 0}
        assert payload["okishio_violations"] == 6
        assert payload["rising_violations"] == 3
        assert payload["violations"] == 3 + 6 + 3

    def test_text_summary(self, capsys):
        assert main(["sweep", "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "scenarios:          3" in out
        assert "violations:         0" in out

    def test_narrow_sector_range(self, capsys):
        code = main(
            ["sweep", "--count", "3", "--n-min", "2", "--n-max", "2", "--format", "csv"]
        )
        assert code == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            assert line.split(",")[2] == "2"

    def test_bad_range_rejected(self, capsys):
        assert main(["sweep", "--count", "1", "--n-min", "0"]) == 2
        assert "range" in capsys.readouterr().err
        # One sector never has ratio headroom, so no economy could be drawn.
        assert main(["sweep", "--count", "1", "--n-min", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "range" in err

    def test_negative_count_rejected(self, capsys):
        assert main(["sweep", "--count", "-1"]) == 2

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_negative_seed_is_refused_naming_the_flag(self, fmt, capsys):
        assert main(["sweep", "--seed", "-1", "--count", "1", "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--seed" in err

    @pytest.mark.parametrize("argv, n_range", [
        (["--count", "600"], (2, 8)),
        (["--count", str(suite_block(12) + 5), "--n-min", "2", "--n-max", "12"], (2, 12)),
    ], ids=["two-blocks", "wide"])
    def test_csv_is_the_records_csv(self, argv, n_range, capsys):
        # The CLI writes its rows from each block's arrays; run_suite builds
        # every record. Both make the same bytes, over two blocks each.
        count = int(argv[1])
        assert count > suite_block(n_range[1])
        assert main(["sweep", "--seed", "1000", *argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == suite_csv(run_suite(1000, count, n_range))

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_summary_is_the_records_summary(self, fmt, monkeypatch, capsys):
        argv = ["sweep", "--seed", "1000", "--count", "600", "--format", fmt]
        assert main(argv) == 0
        from_rows = capsys.readouterr().out
        if fmt == "json":
            assert json.loads(from_rows) == suite_summary(run_suite(1000, 600))
        monkeypatch.setattr(cli, "iter_suite_rows", verify.iter_suite)
        assert main(argv) == 0
        assert capsys.readouterr().out == from_rows

    def test_sweep_builds_no_per_economy_object(self, monkeypatch, capsys):
        built = collections.Counter()

        def counted(name, original):
            def count(*args, **kwargs):
                built[name] += 1
                return original(*args, **kwargs)
            return count

        for owner, name in ((Technology, "_certified"), (WageBundle, "_checked")):
            original = getattr(owner, name).__func__
            monkeypatch.setattr(owner, name, classmethod(counted(name, original)))
        for owner in (ScenarioReport, SweepRecord, SynthesizedChange, WageRegion):
            monkeypatch.setattr(owner, "__init__", counted(owner.__name__, owner.__init__))
        assert main(["sweep", "--count", "50", "--format", "csv"]) == 0
        assert capsys.readouterr().out.count("\n") == 51
        assert built == {}
        # The same counters see every object the records are built from.
        run_suite(count=5)
        assert built == {"_certified": 5, "_checked": 15, "ScenarioReport": 15,
                         "SweepRecord": 5, "SynthesizedChange": 5, "WageRegion": 5}

    def test_failing_block_prints_none_of_its_rows(self, monkeypatch, capsys):
        # The group of the second block's last economy samples a negative
        # bundle: the first block's rows are written, none of the second's.
        block = suite_block(8)
        count = block + 5
        expected = suite_csv(run_suite(seed=1000, count=block))
        original_group, original_sample = verify._sweep_group, verify._sample_rows
        poisoned = [False]

        def group(seed, indices, rngs, n):
            poisoned[0] = count - 1 in indices
            return original_group(seed, indices, rngs, n)

        def sample(regions, seeds, *args, **kwargs):
            sampled = original_sample(regions, seeds, *args, **kwargs)
            if poisoned[0]:
                sampled[0, 0] = -1.0
            return sampled

        monkeypatch.setattr(verify, "_sweep_group", group)
        monkeypatch.setattr(verify, "_sample_rows", sample)
        assert main(["sweep", "--seed", "1000", "--count", str(count), "--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == "error: wage bundle quantities must be nonnegative\n"


# The SHA-256 of outputs that are fixed byte for byte: five sweep CSVs, and
# the worked example's three verify reports for a change synthesized in
# sector 3 with a constant-exploitation bundle, the old bundle and a
# rising-exploitation bundle. The same hashes pin the installed script.
PINNED_SWEEPS = {
    ("--count", "500"): "f9c3cd8a733f1127a9a516c56c6be66892b9f2041a6b82750833e39f26e5203b",
    ("--seed", "1016164991", "--count", "500"):
        "0582e6e104877e2082f1a810eb0d98c25a0f78988d001bde894afa89ef383b5e",
    ("--count", "2000"): "b249d4d95982527916c4531ff3ef05070d17f8f190f4c26cb8ff98d9f2f6dcd9",
    ("--count", "500", "--n-min", "2", "--n-max", "12"):
        "649a2cc56abb380da5cecf486d43cd296f4c980f1094a53d1d6657fba8150b36",
    ("--seed", "4294967296", "--count", "200"):
        "f666a99e573d322e4252fdc20c66e693653c40d66a625eae4cd3dc723f6f42b1",
}
PINNED_REPORTS = {
    "constant": "932d6f5907d1c159f12dc816dacbb29c84565e6b008adba05a03d86302a8083c",
    "old": "09c62b8809ec0d8695e83b3e5eae6f4ca53f048e88e6bbbdce64839dcbbb41cf",
    "rising": "0436f9e6ade5ef57cbc114affc4dbdb67924594f0e014e19bfa6515b80d2bbbf",
}


def test_pinned_outputs_match_their_hashes(tmp_path, capsys):
    def output(*argv):
        assert main(list(argv)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        return captured.out

    def digest(*argv):
        return hashlib.sha256(output(*argv).encode()).hexdigest()

    sweeps = {args: digest("sweep", *args, "--format", "csv") for args in PINNED_SWEEPS}
    assert sweeps == PINNED_SWEEPS
    economy, tc = str(tmp_path / "economy.json"), tmp_path / "tc.json"
    okishio_lab.save_economy(economy, *okishio_lab.worked_example.economy())
    tc.write_text(output("synth-tc", "--economy", economy, "--sector", "3", "--format", "json"))
    base = ["--economy", economy, "--tc", str(tc)]
    wages = {"constant": [], "old": None, "rising": ["--strategy", "rising"]}
    reports = {}
    for name, strategy in wages.items():
        wage = []
        if strategy is not None:
            path = tmp_path / f"{name}.json"
            path.write_text(output("synth-wage", *base, *strategy, "--format", "json"))
            wage = ["--wage", str(path)]
        reports[name] = digest("verify", *base, *wage, "--format", "json")
    assert reports == PINNED_REPORTS
