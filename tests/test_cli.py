import ast
import argparse
import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bfw import DataFormatError, bfw_cdf, bfw_sample, BFWParams, ingest
from bfw import cli
from bfw.cli import main

ROOT = Path(__file__).parent.parent
SCHEMA = json.loads((ROOT / "docs" / "output_schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, err


class TestIngest:
    def test_bundled_pumps(self):
        data = ingest("pumps")
        assert data.n == 23
        assert data.label == "pumps"
        assert data.times[0] == 2.160
        assert data.times[-1] == 5.320

    def test_file_with_mixed_separators(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1.0 2.0\n3.0")
        data = ingest(path)
        assert list(data.times) == [1.0, 2.0, 3.0]

    def test_commas(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5, 1.5,2.5\n")
        assert list(ingest(path).times) == [0.5, 1.5, 2.5]

    def test_negative_value_rejected_with_position(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n3.0 -1.0")
        with pytest.raises(DataFormatError) as excinfo:
            ingest(path)
        assert excinfo.value.line == 2
        assert excinfo.value.column == 5

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 fish")
        with pytest.raises(DataFormatError) as excinfo:
            ingest(path)
        assert excinfo.value.line == 1
        assert excinfo.value.column == 5

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(DataFormatError):
            ingest(path)


class TestFitCommand:
    def test_json_schema_and_fields(self, capsys):
        code, payload, _ = run_json(
            capsys, "fit", "--data", "pumps", "--family", "bfw", "--starts", "8"
        )
        assert code == 0
        result = payload["result"]
        for key in ("estimates", "log_likelihood", "covariance", "ci"):
            assert key in result
        assert set(result["estimates"]) == {"alpha", "beta", "p", "q"}
        assert result["converged"] is True
        assert payload["meta"]["command"] == "fit"

    def test_fw_estimates_bundled_units(self, capsys):
        code, payload, _ = run_json(capsys, "fit", "--data", "pumps", "--family", "fw")
        assert code == 0
        estimates = payload["result"]["estimates"]
        # the published row (0.0207, 2.5875) in hundreds of hours maps to
        # (0.207, 0.2588) in the bundled thousands-of-hours units
        assert estimates["alpha"] == pytest.approx(0.20710, abs=2e-4)
        assert estimates["beta"] == pytest.approx(0.25876, abs=2e-4)

    def test_nonexistent_file(self, capsys):
        code, out, err = run_cli(capsys, "fit", "--data", "/nonexistent/file.txt")
        assert code == 3
        assert "error" in err.lower()
        assert out == ""

    def test_same_fields_for_every_family(self, capsys):
        fields = {}
        for family in ("bfw", "fw", "weibull"):
            code, payload, _ = run_json(capsys, "fit", "--data", "pumps", "--family", family,
                                        "--starts", "8")
            assert code == 0
            result = payload["result"]
            fields[family] = set(result)
            assert set(result["ci"]) == {"level", *result["estimates"]}
            assert len(result["score"]) == len(result["covariance"]) == len(result["estimates"])
        assert fields["bfw"] == fields["fw"] == fields["weibull"]
        assert {"iterations", "multistart_best_of", "condition_number"} <= fields["fw"]

    def test_csv_json_numeric_equality(self, capsys, tmp_path):
        code_c, csv_out, _ = run_cli(capsys, "fit", "--data", "pumps", "--family", "weibull")
        code_j, payload, _ = run_json(capsys, "fit", "--data", "pumps", "--family", "weibull")
        assert code_c == code_j == 0
        fields = dict(
            line.split(",", 1) for line in csv_out.strip().splitlines()[1:]
        )
        assert float(fields["log_likelihood"]) == payload["result"]["log_likelihood"]
        assert float(fields["estimate.shape"]) == payload["result"]["estimates"]["shape"]
        assert float(fields["ks"]) == payload["result"]["ks"]


class TestCompareCommand:
    def test_three_rows_sorted(self, capsys):
        code, payload, _ = run_json(
            capsys, "compare", "--data", "pumps", "--families", "bfw,fw,weibull",
            "--starts", "8",
        )
        assert code == 0
        rows = payload["result"]["rows"]
        assert len(rows) == 3
        aics = [row["aic"] for row in rows]
        assert aics == sorted(aics)

    def test_single_family(self, capsys):
        code, payload, _ = run_json(capsys, "compare", "--data", "pumps", "--families", "fw")
        assert code == 0
        assert len(payload["result"]["rows"]) == 1

    def test_csv_matches_json(self, capsys):
        code_c, csv_out, _ = run_cli(capsys, "compare", "--data", "pumps",
                                     "--families", "fw,weibull")
        code_j, payload, _ = run_json(capsys, "compare", "--data", "pumps",
                                      "--families", "fw,weibull")
        assert code_c == code_j == 0
        lines = csv_out.strip().splitlines()
        header = lines[0].split(",")
        for line, row in zip(lines[1:], payload["result"]["rows"]):
            cells = dict(zip(header, line.split(",")))
            assert cells["model"] == row["model"]
            assert float(cells["aic"]) == row["aic"]
            assert float(cells["ks"]) == row["ks"]


class TestSampleCommand:
    def test_deterministic(self, capsys):
        args = ("sample", "--n", "5", "--params", "0.5,0.5,2,2", "--seed", "42")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.strip().splitlines()) == 5

    def test_empty_sample(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "0", "--params",
                               "0.5,0.5,2,2", "--seed", "1")
        assert code == 0
        assert out == ""

    def test_roundtrip_through_ingest(self, capsys, tmp_path):
        path = tmp_path / "draws.txt"
        code = main(["sample", "--n", "50", "--params", "0.052,0.024,35.077,20.328",
                     "--seed", "7", "--output", str(path)])
        assert code == 0
        from bfw import bfw_sample
        reread = ingest(path)
        expected = bfw_sample(50, BFWParams(0.052, 0.024, 35.077, 20.328), 7)
        assert np.array_equal(reread.times, expected)

    def test_missing_params_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "sample", "--n", "5", "--seed", "1")
        assert code == 2

    def test_json_meta_records_seed(self, capsys):
        code, payload, _ = run_json(capsys, "sample", "--n", "2",
                                    "--params", "1,1,1,1", "--seed", "99")
        assert code == 0
        assert payload["meta"]["seed"] == 99
        assert len(payload["result"]["values"]) == 2


class TestEvalCommand:
    def test_grid_rows_and_monotone_cdf(self, capsys):
        code, payload, _ = run_json(
            capsys, "eval", "--family", "bfw",
            "--params", "0.052,0.024,35.077,20.328", "--grid", "0.01:7:200",
        )
        assert code == 0
        rows = payload["result"]["rows"]
        assert len(rows) == 200
        columns = payload["result"]["columns"]
        cdf_index = columns.index("cdf")
        cdf = [row[cdf_index] for row in rows]
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))

    def test_cdf_column_matches_library(self, capsys):
        code, payload, _ = run_json(
            capsys, "eval", "--family", "bfw",
            "--params", "0.052,0.024,35.077,20.328", "--grid", "0.01:7:200",
        )
        params = BFWParams(0.052, 0.024, 35.077, 20.328)
        rows = payload["result"]["rows"]
        xs = np.array([row[0] for row in rows])
        nearest = int(np.argmin(np.abs(xs - 2.160)))
        assert rows[nearest][2] == pytest.approx(
            float(bfw_cdf(xs[nearest], params)), abs=1e-12
        )

    def test_non_positive_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--family", "fw", "--params", "1,1",
                               "--grid", "0:5:10")
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("form", ["scale", "rate"])
    @pytest.mark.parametrize("params", ["1,nan", "inf,1"])
    def test_weibull_parameters_validated(self, capsys, form, params):
        code, out, err = run_cli(capsys, "eval", "--family", "weibull", "--weibull-form", form,
                                 "--params", params, "--grid", "1:2:2")
        assert code == 2
        assert out == ""
        assert "strictly positive and finite" in err

    def test_eval_fw_family(self, capsys):
        code, payload, _ = run_json(capsys, "eval", "--family", "fw",
                                    "--params", "0.207,0.2588", "--grid", "0.1:5:50")
        assert code == 0
        assert len(payload["result"]["rows"]) == 50


class TestKmCommand:
    def test_step_curves(self, capsys):
        code, payload, _ = run_json(capsys, "km", "--data", "pumps")
        assert code == 0
        rows = payload["result"]["rows"]
        assert len(rows) == 24  # t = 0 plus one row per distinct time
        assert rows[0] == [0.0, 0.0, 1.0]
        assert rows[-1][1] == pytest.approx(1.0)
        assert rows[-1][2] == pytest.approx(0.0)
        km_vals = [row[2] for row in rows]
        assert all(b <= a for a, b in zip(km_vals, km_vals[1:]))

    def test_csv_header(self, capsys):
        code, out, _ = run_cli(capsys, "km", "--data", "pumps")
        assert code == 0
        assert out.splitlines()[0] == "time,ecdf,km_survival"


class TestErrorEnvelope:
    def test_json_error_object(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1.0 -2.0")
        code, out, err = run_cli(capsys, "fit", "--data", str(bad), "--format", "json")
        assert code == 3
        payload = json.loads(out)
        jsonschema.validate(payload, SCHEMA)
        assert payload["error"]["type"] == "DataFormatError"
        assert "result" not in payload

    def test_usage_error_exit_code(self, capsys):
        assert main(["fit"]) == 2  # --data missing
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestJsonRenderer:
    """``cli._json`` writes what ``json.dumps(indent=2)`` wrote of the
    sanitized envelope, byte for byte."""

    @staticmethod
    def sanitize(obj):
        # the reference: what fed json.dumps(indent=2) before cli._json
        if type(obj) is float:
            return None if math.isnan(obj) else obj
        if isinstance(obj, dict):
            return {k: TestJsonRenderer.sanitize(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [TestJsonRenderer.sanitize(v) for v in obj]
        if isinstance(obj, float) and math.isnan(obj):
            return None
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.integer):
            return int(obj)
        return obj

    def reference(self, envelope):
        return json.dumps(self.sanitize(envelope), indent=2, allow_nan=False) + "\n"

    def assert_main_matches(self, capsys, argv):
        args = cli.build_parser().parse_args(argv)
        envelope = {"meta": cli._meta(args), "result": cli._COMMANDS[args.command](args)}
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == self.reference(envelope)
        return json.loads(out)

    @pytest.fixture(scope="class")
    def draw_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("draw") / "n1000.txt"
        draw = bfw_sample(1000, BFWParams(0.052, 0.024, 35.077, 20.328), seed=11)
        path.write_text("".join(f"{v!r}\n" for v in draw.tolist()))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "pumps"],
        ["fit", "--family", "weibull", "--data", "DRAW"],
        ["fit", "--family", "fw", "--data", "pumps", "--weibull-form", "rate"],
        ["compare", "--data", "pumps"],
        ["eval", "--params", "0.052,0.024,35.077,20.328", "--grid", "0.01:7:200"],
        ["sample", "--n", "100000", "--params", "0.052,0.024,35.077,20.328", "--seed", "7"],
        ["sample", "--n", "0", "--params", "1,1,1,1", "--seed", "7"],
        ["km", "--data", "pumps"],
    ], ids=lambda argv: "-".join(argv[:3]))
    def test_commands_byte_identical(self, capsys, draw_file, argv):
        argv = [draw_file if a == "DRAW" else a for a in argv] + ["--format", "json"]
        self.assert_main_matches(capsys, argv)

    def test_compare_with_a_failed_row(self, capsys):
        payload = self.assert_main_matches(
            capsys, ["compare", "--data", "pumps", "--starts", "2", "--tol", "1e-18",
                     "--families", "bfw,weibull", "--format", "json"])
        failed = [row for row in payload["result"]["rows"] if row["error"]]
        assert failed and failed[0]["aic"] is None and failed[0]["estimates"] is None

    def test_error_envelope(self, capsys):
        args = cli.build_parser().parse_args(["km", "--data", "missing.txt", "--format", "json"])
        exc = FileNotFoundError(2, "No such file or directory: 'missing.txt', \"quoted\"")
        assert cli._fail(args, cli.EXIT_DATA, exc) == cli.EXIT_DATA
        envelope = {"meta": cli._meta(args),
                    "error": {"type": "FileNotFoundError", "message": str(exc)}}
        assert capsys.readouterr().out == self.reference(envelope)

    def test_numeric_failure_envelope(self, capsys):
        # 1 - cdf rounds to 0 at x = 30, so eval exits 5 with the error envelope
        argv = ["eval", "--params", "0.052,0.024,35.077,20.328", "--grid", "1:30:4",
                "--format", "json"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == cli.EXIT_NUMERIC
        envelope = {"meta": cli._meta(cli.build_parser().parse_args(argv)),
                    "error": {"type": "SaturationError",
                              "message": "survival underflowed to zero on the requested grid"}}
        assert out == self.reference(envelope)

    @pytest.mark.parametrize("obj", [
        {}, [], {"a": [], "b": {}}, [[]], [{}], [[], {}],
        {"x": [1.5, math.nan, None, True, 3, -0.0, 1e300, 5e-324]},
        {"s": ["a, b", "c"], "t": (1.0, 2.0)},
        [1, [2, 3]], [1.0, "x, y"], [None, {"k": 1}],
        [np.float64(2.5), np.int64(3)], [np.float32(0.1)], {"k": np.int64(5), "j": np.nan},
        [np.int64(1), np.float64(math.nan)], {"z": np.float64(math.nan)},
        {"rows": [[1.0, 2.0], [math.nan, 4]], "label": "a\u00e9\n"},
    ])
    def test_containers_and_scalars(self, obj):
        assert cli._json(obj) + "\n" == self.reference(obj)

    def test_infinities_are_null(self, capsys):
        # a singular information has condition number inf; json.dumps raised on it
        args = argparse.Namespace(command="fit", format="json", output="-")
        cli._emit(args, {"condition_number": math.inf, "score": [-math.inf, 1.0, math.nan]})
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == {"condition_number": None, "score": [None, 1.0, None]}


class TestExitCodes:
    def test_convergence_failure_is_exit_4(self, capsys):
        # an unreachable stationarity tolerance fails every start
        code, out, err = run_cli(capsys, "fit", "--data", "pumps", "--family", "bfw",
                                 "--starts", "2", "--tol", "1e-18")
        assert code == 4
        assert "error" in err.lower()

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, command, tol):
        code, out, err = run_cli(capsys, command, "--data", "pumps", "--tol", tol)
        assert code == 2
        assert out == ""
        assert err == "bfw: error: score tolerance must be strictly positive and finite\n"

    def test_compare_takes_only_the_offered_family_names(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--data", "pumps", "--families", "fw,wd")
        assert code == 2
        assert err == "bfw: error: unknown model family 'wd'\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_level_outside_the_unit_interval_is_a_usage_error(self, capsys, fmt):
        argv = ["fit", "--data", "pumps", "--level", "1.5", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == "bfw: error: confidence level must lie in (0, 1)\n"
        if fmt == "csv":
            assert out == ""
        else:
            payload = json.loads(out)
            jsonschema.validate(payload, SCHEMA)
            assert payload == {
                "meta": cli._meta(cli.build_parser().parse_args(argv)),
                "error": {"type": "DomainError", "message": "confidence level must lie in (0, 1)"},
            }

    def test_numeric_failure_is_exit_5(self, capsys):
        # far beyond the right tail the survival underflows to zero
        code, out, err = run_cli(capsys, "eval", "--family", "bfw",
                                 "--params", "0.052,0.024,35.077,20.328",
                                 "--grid", "1:2000:5")
        assert code == 5
        assert "survival" in err


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bfw", "sample", "--n", "2",
             "--params", "1,1,1,1", "--seed", "3"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert len(proc.stdout.strip().splitlines()) == 2


def run_fresh(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)


class TestLazyScipy:
    """scipy.special costs twice as much to import as numpy; only kernels that
    call it load it.  No command loads ``statistics``, which imports
    ``decimal``, ``fractions`` and ``random``."""

    @staticmethod
    def main_in_fresh_process(*argv):
        # stdout carries the command's output; stderr ends with the exit code and
        # whether scipy.special and statistics loaded
        proc = run_fresh(
            "import sys\nfrom bfw.cli import main\n"
            f"code = main({list(argv)!r})\n"
            "sys.stderr.write(f\"{code} {'scipy.special' in sys.modules} "
            "{'statistics' in sys.modules}\")"
        )
        return proc.stdout, proc.stderr.split()

    def test_import_leaves_scipy_special_unloaded(self):
        proc = run_fresh("import sys, bfw, bfw.cli; print('scipy.special' in sys.modules)")
        assert proc.stdout.split() == ["False"]

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["km", "--data", "pumps"],
        ["sample", "--n", "1000", "--params", "0.052,0.024,35.077,20.328", "--seed", "5",
         "--format", "json"],
    ])
    def test_commands_without_special_functions_leave_it_unloaded(self, argv):
        stdout, status = self.main_in_fresh_process(*argv)
        assert stdout
        assert status == ["0", "False", "False"]

    @pytest.mark.parametrize("argv", [
        ["fit", "--data", "pumps", "--family", "weibull"],
        ["fit", "--data", "pumps", "--family", "weibull", "--format", "json"],
        ["fit", "--data", "pumps", "--family", "fw"],
        ["fit", "--data", "pumps", "--family", "fw", "--format", "json"],
        ["eval", "--family", "weibull", "--params", "1.5,2", "--grid", "0.5:5:10"],
        ["eval", "--family", "fw", "--params", "0.207,0.2588", "--grid", "0.5:5:10"],
    ], ids=lambda argv: "-".join(argv[:4]))
    def test_two_parameter_commands_load_neither_scipy_special_nor_statistics(self, argv):
        stdout, status = self.main_in_fresh_process(*argv)
        assert stdout
        assert status == ["0", "False", "False"]

    @pytest.mark.parametrize("argv", [
        ["compare", "--data", "pumps", "--starts", "4"],
        ["eval", "--params", "0.052,0.024,35.077,20.328", "--grid", "0.5:5:10"],
    ], ids=lambda argv: argv[0])
    def test_four_parameter_commands_load_scipy_special(self, argv):
        stdout, status = self.main_in_fresh_process(*argv)
        assert stdout
        assert status == ["0", "True", "False"]

    def test_fit_loads_it_on_first_use_and_matches_in_process(self, capsys):
        stdout, status = self.main_in_fresh_process("fit", "--data", "pumps", "--format", "json")
        assert status == ["0", "True", "False"]
        code, payload, _ = run_json(capsys, "fit", "--data", "pumps")
        assert code == 0
        assert json.loads(stdout)["result"] == payload["result"]


class TestTracerContract:
    """perfbench/tracing.py times ``import bfw.cli`` per bfw module and patches
    module attributes by name; both break silently if the names move."""

    @staticmethod
    def contract():
        tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
        assigned = {
            node.targets[0].id: node.value
            for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        }
        modules = ast.literal_eval(assigned["IMPORT_MODULES"])
        targets = [tuple(ast.literal_eval(e) for e in t.elts[:2]) for t in assigned["TARGETS"].elts]
        return modules, targets

    def test_import_of_cli_imports_every_traced_module(self):
        modules, _ = self.contract()
        proc = run_fresh("import sys, bfw.cli; print(*sorted(sys.modules))")
        assert modules
        assert set(modules) <= set(proc.stdout.split())

    def test_patched_attributes_exist(self):
        _, targets = self.contract()
        assert targets
        for module, attr in targets:
            assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


class TestOutputPrecision:
    def test_seventeen_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "3",
                               "--params", "0.5,0.5,2,2", "--seed", "42")
        assert code == 0
        for line in out.strip().splitlines():
            assert float(line) == float(repr(float(line)))  # lossless round-trip
