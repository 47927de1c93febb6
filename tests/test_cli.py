"""Command-line interface, exercised in-process through main().

One sweep test shells out to a fresh interpreter to confirm output is
reproducible across processes, not just within one.
"""

import importlib
import json
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import okishio_lab
from okishio_lab import linear_economy, load_tech_change
from okishio_lab.cli import main


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


class TestEnvironmentTolerance:
    def test_unreachable_tolerance_fails(self, economy_file, capsys, monkeypatch):
        monkeypatch.setenv("OKISHIO_LAB_TOL", "1e-30")
        assert main(["analyze", "--economy", economy_file]) == 2
        assert "residual" in capsys.readouterr().err

    def test_loose_tolerance_passes(self, economy_file, capsys, monkeypatch):
        monkeypatch.setenv("OKISHIO_LAB_TOL", "0.5")
        assert main(["analyze", "--economy", economy_file]) == 0

    def test_nonpositive_rejected(self, economy_file, capsys, monkeypatch):
        monkeypatch.setenv("OKISHIO_LAB_TOL", "-1")
        assert main(["analyze", "--economy", economy_file]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_garbage_rejected(self, economy_file, capsys, monkeypatch):
        monkeypatch.setenv("OKISHIO_LAB_TOL", "three")
        assert main(["analyze", "--economy", economy_file]) == 2

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_rejected(self, raw, economy_file, capsys, monkeypatch):
        # nan would switch the residual check off: residual > nan is never true.
        monkeypatch.setenv("OKISHIO_LAB_TOL", raw)
        assert main(["analyze", "--economy", economy_file]) == 2
        assert "finite" in capsys.readouterr().err


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
        assert main(["synth-tc", "--economy", economy_file]) == 2
        assert "--sector" in capsys.readouterr().err

    def test_sector_out_of_range(self, economy_file, capsys):
        assert main(["synth-tc", "--economy", economy_file, "--sector", "4"]) == 2
        assert "1..3" in capsys.readouterr().err

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

    def test_negative_count_rejected(self, capsys):
        assert main(["sweep", "--count", "-1"]) == 2
