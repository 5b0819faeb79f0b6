import argparse
import json
import math

import numpy as np
import pytest

from puffer_lasso.cli import (
    Dataset,
    RunConfig,
    _build_parser,
    _fmt,
    _json,
    load_dataset,
    main,
    run,
)
from puffer_lasso.errors import DataError
from puffer_lasso.penalties import lasso, mcp
from puffer_lasso.solver import lambda_max


def write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def small_csv(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.standard_normal((12, 3))
    y = x @ np.array([1.5, -0.5, 0.0]) + 0.2 * rng.standard_normal(12)
    path = tmp_path / "data.csv"
    write_csv(path, ["y", "a", "b", "c"], np.column_stack([y, x]).tolist())
    return path


class TestLoadDataset:
    def test_basic_shape(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["y", "x1", "x2"], [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 0, 2]])
        data = load_dataset(str(path), "y")
        assert data.x.shape == (4, 2)
        assert data.feature_names == ("x1", "x2")
        assert data.response_name == "y"
        assert np.array_equal(data.y, [1, 4, 7, 1])

    def test_response_by_index(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        data = load_dataset(str(path), "1")
        assert data.response_name == "b"
        assert np.array_equal(data.y, [2, 4])

    def test_blank_cell_names_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y,x1\n1.0,2.0\n3.0,\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"row 3, column 'x1'"):
            load_dataset(str(path), "y")

    def test_duplicate_headers(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["y", "x", "x"], [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(str(path), "y")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(str(tmp_path / "nope.csv"), "y")

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["y", "x"], [[1, 2]])
        with pytest.raises(DataError, match="at least 2"):
            load_dataset(str(path), "y")

    def test_unknown_response(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["y", "x"], [[1, 2], [3, 4]])
        with pytest.raises(DataError, match="response column"):
            load_dataset(str(path), "z")

    def test_large_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(123)
        data = rng.standard_normal((1000, 21))
        path = tmp_path / "big.csv"
        header = ["y"] + [f"x{i}" for i in range(20)]
        lines = [",".join(header)]
        for row in data:
            lines.append(",".join(_fmt(v) for v in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_dataset(str(path), "y")
        assert np.array_equal(loaded.y, data[:, 0])
        assert np.array_equal(loaded.x, data[:, 1:])


class TestJsonSerializer:
    def test_seventeen_digit_floats_roundtrip(self):
        values = [0.1, 1 / 3, math.pi, 1e-300, -2.5e17, 3.0]
        for v in values:
            assert float(_fmt(v)) == v

    def test_shapes(self):
        payload = {"a": [1, 2.5, None, True], "b": "x\"y\n", "c": {"d": np.float64(0.25)}, "e": "a\x01b"}
        parsed = json.loads(_json(payload))
        assert parsed == {"a": [1, 2.5, None, True], "b": 'x"y\n', "c": {"d": 0.25}, "e": "a\x01b"}

    def test_numpy_array(self):
        assert json.loads(_json(np.array([1.0, 2.0]))) == [1.0, 2.0]

    def test_rejects_nonfinite(self):
        from puffer_lasso.errors import NumericalError

        with pytest.raises(NumericalError):
            _json(float("nan"))


class TestRunConfigValidation:
    def test_fit_requires_lambda(self):
        with pytest.raises(DataError, match="lambda"):
            RunConfig(command="fit", input_path="x.csv", response_column="y")

    def test_fit_rejects_grid(self):
        with pytest.raises(DataError):
            RunConfig(
                command="fit", input_path="x.csv", response_column="y",
                lam=0.1, lambda_grid=(1.0, 0.5),
            )

    def test_path_rejects_single_lambda(self):
        with pytest.raises(DataError):
            RunConfig(command="path", input_path="x.csv", response_column="y", lam=0.1)

    def test_puffer_tau_requires_tau(self):
        with pytest.raises(DataError, match="tau"):
            RunConfig(
                command="fit", input_path="x.csv", response_column="y",
                lam=0.1, transform="puffer_tau",
            )

    def test_input_required(self):
        with pytest.raises(DataError, match="--input"):
            RunConfig(command="fit", lam=0.1)

    def test_trials_must_be_positive(self):
        with pytest.raises(DataError, match="^--trials must be positive, got 0$"):
            RunConfig(command="verify", trials=0)

    @pytest.mark.parametrize(
        "flag, overrides",
        [
            ("--lambda", {"lam": math.nan}),
            ("--lambda", {"lam": math.inf}),
            ("--lambda-grid", {"command": "path", "lam": None, "lambda_grid": (1.0, math.nan)}),
            ("--tau", {"tau": math.inf}),
            ("--sigma", {"sigma": math.inf}),
            ("--penalty-param", {"penalty": mcp(math.inf)}),
        ],
    )
    def test_rejects_nonfinite(self, flag, overrides):
        kwargs = {"command": "fit", "input_path": "x.csv", "response_column": "y", "lam": 0.1}
        with pytest.raises(DataError, match=f"{flag} must be finite"):
            RunConfig(**{**kwargs, **overrides})


class TestFitCommand:
    def test_fit_json_output(self, small_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--input", str(small_csv), "--response", "y",
            "--lambda", "0.4", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["meta"]["version"]
        assert payload["meta"]["config"]["command"] == "fit"
        assert len(payload["result"]["beta"]) == 3
        assert payload["result"]["converged"] is True

    def test_fit_above_lambda_max_is_all_zero(self, small_csv, tmp_path):
        data = load_dataset(str(small_csv), "y")
        top = lambda_max(data.x, data.y)
        out = tmp_path / "fit.json"
        code = main([
            "fit", "--input", str(small_csv), "--response", "y",
            "--lambda", str(2.0 * top), "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["beta"] == [0, 0, 0]
        assert payload["result"]["active_set"] == []

    def test_fit_csv_format(self, small_csv, capsys):
        code = main([
            "fit", "--input", str(small_csv), "--response", "y",
            "--lambda", "0.4", "--format", "csv",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "lambda,feature,coefficient"
        assert len(lines) == 4

    def test_fit_with_elastic_net(self, small_csv, tmp_path):
        out = tmp_path / "enet.json"
        code = main([
            "fit", "--input", str(small_csv), "--response", "y",
            "--penalty", "enet", "--penalty-param", "0.7",
            "--lambda", "0.2", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["penalty"] == {"kind": "elastic_net", "param": 0.7}

    def test_byte_identical_reruns(self, small_csv, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "fit", "--input", str(small_csv), "--response", "y",
            "--penalty", "mcp", "--lambda", "0.2",
        ]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPathCommand:
    def test_default_grid_has_fifty_points(self, small_csv, tmp_path):
        out = tmp_path / "path.json"
        code = main(["path", "--input", str(small_csv), "--response", "y", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        fits = payload["result"]["path"]
        assert len(fits) == 50
        data = load_dataset(str(small_csv), "y")
        top = lambda_max(data.x, data.y)
        assert fits[0]["lambda"] == pytest.approx(top)
        assert fits[-1]["lambda"] == pytest.approx(1e-4 * top)

    def test_explicit_grid(self, small_csv, tmp_path):
        out = tmp_path / "path.json"
        code = main([
            "path", "--input", str(small_csv), "--response", "y",
            "--lambda-grid", "1.0,0.5,0.1", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert [f["lambda"] for f in payload["result"]["path"]] == [1.0, 0.5, 0.1]


class TestPreconditionCommand:
    def test_roundtrip_consistency(self, small_csv, tmp_path):
        # precondition + fit(no transform) must equal fit(transform) to 1e-8
        pre = tmp_path / "pre.csv"
        assert main([
            "precondition", "--input", str(small_csv), "--response", "y",
            "--transform", "puffer", "--output", str(pre),
        ]) == 0
        direct = tmp_path / "direct.json"
        viapre = tmp_path / "viapre.json"
        assert main([
            "fit", "--input", str(small_csv), "--response", "y",
            "--transform", "puffer", "--lambda", "0.3", "--output", str(direct),
        ]) == 0
        assert main([
            "fit", "--input", str(pre), "--response", "y",
            "--lambda", "0.3", "--output", str(viapre),
        ]) == 0
        beta_direct = json.loads(direct.read_text())["result"]["beta"]
        beta_viapre = json.loads(viapre.read_text())["result"]["beta"]
        assert np.max(np.abs(np.array(beta_direct) - beta_viapre)) <= 1e-8

    def test_header_preserved(self, small_csv, tmp_path, capsys):
        assert main([
            "precondition", "--input", str(small_csv), "--response", "y",
            "--transform", "puffer_scaled",
        ]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == "y,a,b,c"


class TestInspectCommand:
    def test_json_fields(self, small_csv, tmp_path):
        out = tmp_path / "inspect.json"
        assert main([
            "inspect", "--input", str(small_csv), "--response", "y",
            "--sigma", "0.2", "--output", str(out),
        ]) == 0
        result = json.loads(out.read_text())["result"]
        assert result["sigma_source"] == "user_supplied"
        assert len(result["p_values"]) == 3
        assert all(0 <= p <= 1 for p in result["p_values"])

    def test_sigma_estimated_when_missing(self, small_csv, tmp_path):
        out = tmp_path / "inspect.json"
        assert main([
            "inspect", "--input", str(small_csv), "--response", "y", "--output", str(out),
        ]) == 0
        assert json.loads(out.read_text())["result"]["sigma_source"] == "residual_estimate"

    def test_wide_data_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path = tmp_path / "wide.csv"
        header = ["y"] + [f"x{i}" for i in range(6)]
        write_csv(path, header, rng.standard_normal((4, 7)).tolist())
        code = main(["inspect", "--input", str(path), "--response", "y"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "DataError"
        assert "requires n > p" in err["message"]


# designs of unit columns, whose SVD is exact: the in-span residual is
# exactly zero, and the duplicated column's singular value exactly 0.0
IN_SPAN = [[2, 1, 0], [-1, 0, 1], [0, 0, 0], [0, 0, 0], [0, 0, 0]]
DUPLICATE_COLUMN = [[1, 1, 0, 1], [2, 0, 1, 0], [3, 0, 0, 0], [4, 0, 0, 0], [5, 0, 0, 0]]
RANK_RECORD = (
    "matrix is column-rank deficient: rank 2 < 3 columns "
    "(singular value 0.000e+00 <= tol 1.570e-15)"
)


class TestEstimatorErrorRecords:
    @pytest.mark.parametrize(
        "argv,rows,message",
        [
            (
                ["inspect"],
                IN_SPAN,
                "degenerate fit: the response lies exactly in the column span, "
                "so the residual noise-scale estimate is zero; supply --sigma",
            ),
            (["inspect"], np.arange(16.0).reshape(4, 4) % 5, "sigma_hat requires n > p + 1, got n=4, p=3"),
            (["inspect"], DUPLICATE_COLUMN, RANK_RECORD),
            (
                ["fit", "--transform", "puffer", "--lambda", "0.1"],
                np.arange(28.0).reshape(4, 7) % 3,
                "puffer requires n > p, got n=4, p=6",
            ),
            (
                ["fit", "--transform", "puffer_scaled", "--lambda", "0.1"],
                np.arange(28.0).reshape(4, 7) % 3,
                "gram_inverse_diagonal requires n > p, got n=4, p=6",
            ),
            (["fit", "--transform", "puffer_scaled", "--lambda", "0.1"], DUPLICATE_COLUMN, RANK_RECORD),
        ],
        ids=["degenerate_sigma", "n_is_p_plus_1", "inspect_rank", "puffer_wide", "scaled_wide", "scaled_rank"],
    )
    def test_exact_record(self, tmp_path, capsys, argv, rows, message):
        rows = np.asarray(rows, dtype=float)
        path = tmp_path / "data.csv"
        write_csv(path, ["y"] + [f"x{j}" for j in range(1, rows.shape[1])], rows.tolist())
        code = main([argv[0], "--input", str(path), "--response", "y", *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == json.dumps(
            {"error": "DataError", "message": message, "exit_code": 2}, separators=(",", ":")
        ) + "\n"


class TestErrorHandling:
    def test_missing_input_exit_code(self, capsys):
        code = main(["fit", "--input", "/nonexistent.csv", "--response", "y", "--lambda", "0.1"])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["exit_code"] == 2

    def test_bad_penalty_param(self, small_csv, capsys):
        code = main([
            "fit", "--input", str(small_csv), "--response", "y",
            "--lambda", "0.1", "--penalty", "scad", "--penalty-param", "1.0",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--input", "-missing.csv"),
            ("--response", "-1"),
            ("--penalty", "-x"),
            ("--penalty-param", "-inf"),
            ("--lambda", "-inf"),
            ("--lambda", "-1e-3"),
            ("--lambda-grid", "-1,2"),
            ("--tau", "-inf"),
            ("--ta", "-inf"),
            ("--sigma", "-inf"),
            ("--transform", "-x"),
            ("--seed", "-1"),
            ("--trials", "-1"),
            ("--output", "-out.json"),
            ("--format", "-x"),
        ],
    )
    def test_value_starting_with_dash(self, small_csv, tmp_path, monkeypatch, capsys, flag, value):
        # "--flag value" must behave exactly like "--flag=value", also when
        # the value starts with '-' without being a plain negative number
        monkeypatch.chdir(tmp_path)
        owner = {"--lambda-grid": "path", "--sigma": "inspect", "--seed": "verify", "--trials": "verify"}
        command = owner.get(flag, "fit")
        base = [command]
        if command != "verify":
            base += ["--input", str(small_csv), "--response", "y"]
        if command == "fit" and flag != "--lambda":
            base += ["--lambda", "0.1"]
        if flag == "--seed":
            base += ["--trials", "1"]  # keeps the suite short

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        joined = outcome(base + [f"{flag}={value}"])
        assert outcome(base + [flag, value]) == joined
        if flag in ("--lambda", "--lambda-grid"):
            assert joined[0] == 2
            record = json.loads(joined[2])
            assert record["error"] == "DataError" and record["exit_code"] == 2

    def test_error_record_single_line(self, capsys):
        code = main(["fit", "--input", "/nonexistent.csv", "--response", "y", "--lambda", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1

    def test_numerical_failure_exits_three(self, small_csv, monkeypatch, capsys):
        from puffer_lasso import cli as cli_module
        from puffer_lasso.errors import NumericalError

        def boom(*args, **kwargs):
            raise NumericalError("iteration diverged")

        monkeypatch.setattr(cli_module, "solve", boom)
        code = main(["fit", "--input", str(small_csv), "--response", "y", "--lambda", "0.1"])
        assert code == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NumericalError"
        assert record["exit_code"] == 3


class TestVerifyCommand:
    def test_small_verify_exits_zero(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main([
            "verify", "--seed", "1", "--trials", "10", "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["result"]["all_passed"] is True
        ids = [r["theorem_id"] for r in payload["result"]["reports"]]
        assert ids == [
            "lemma1", "thm1", "thm2", "thm3_active", "thm3_inactive",
            "eq10_gap", "lemma2", "thm1_general", "thm2_general",
        ]

    def test_verify_csv_format(self, tmp_path, capsys):
        code = main(["verify", "--seed", "1", "--trials", "6", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("theorem_id,")
        assert len(lines) == 10

    def test_failed_verification_exits_one(self, monkeypatch, capsys):
        from puffer_lasso import cli as cli_module
        from puffer_lasso import verify as verify_module

        failing = verify_module._report("lemma1", 5, 1.0, 1e-6, 3)
        monkeypatch.setattr(cli_module.verify, "default_suite", lambda *a, **k: [failing])
        code = main(["verify", "--seed", "0"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"]["all_passed"] is False


def record(message):
    """The exact stderr line of a DataError."""
    payload = {"error": "DataError", "message": message, "exit_code": 2}
    return json.dumps(payload, separators=(",", ":")) + "\n"


FIT_FLAGS = {
    "--input", "--response", "--penalty", "--penalty-param", "--transform", "--tau",
    "--lambda", "--lambda-grid", "--output", "--format",
}
COMMAND_FLAGS = {
    "fit": FIT_FLAGS,
    "path": FIT_FLAGS,
    "precondition": {"--input", "--response", "--transform", "--tau", "--output"},
    "inspect": {"--input", "--response", "--sigma", "--output", "--format"},
    "verify": {"--seed", "--trials", "--output", "--format"},
}


def registered_flags():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {flag for action in command._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, command in sub.choices.items()
    }


class TestPerCommandFlags:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_registered_options(self, command):
        assert registered_flags()[command] == COMMAND_FLAGS[command]

    def test_thirty_four_options_in_all(self):
        flags = registered_flags()
        assert set(flags) == set(COMMAND_FLAGS)
        assert sum(len(f) for f in flags.values()) == 34

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--input", "x.csv", "--lambda", "0.1", "--seed", "3"],
            ["path", "--input", "x.csv", "--trials", "3"],
            ["precondition", "--input", "x.csv", "--format", "csv"],
            ["inspect", "--input", "x.csv", "--transform", "puffer"],
            ["verify", "--penalty", "scad"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_foreign_flag_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: puffer-lasso")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_trials_abbreviation(self, capsys):
        assert main(["verify", "--t", "0"]) == 2
        assert capsys.readouterr().err == record("--trials must be positive, got 0")

    def test_echo_keeps_the_runconfig_defaults(self, monkeypatch, capsys):
        from puffer_lasso import cli as cli_module

        seen = {}

        def suite(seed, *, trials):
            seen.update(seed=seed, trials=trials)
            return []

        monkeypatch.setattr(cli_module.verify, "default_suite", suite)
        assert main(["verify", "--trials", "9"]) == 0
        assert seen == {"seed": 0, "trials": 9}
        config = json.loads(capsys.readouterr().out)["meta"]["config"]
        assert config == {
            "command": "verify", "input": None, "response": "0", "penalty": "lasso",
            "penalty_param": 0, "lambda": None, "lambda_grid": None, "tau": None, "sigma": None,
            "transform": "none", "seed": 0, "trials": 9, "format": "json",
        }


PARAM_WITH_LASSO = "--penalty-param does not apply to --penalty lasso"
TAU_WITHOUT_PUFFER_TAU = "--tau applies only to --transform puffer_tau, got "


class TestFlagRecords:
    @pytest.mark.parametrize(
        "argv,message",
        [
            # with only --lambda-grid registered on path, argparse would read
            # "path --lambda 1" as an abbreviation of it and fit a one-point path
            (["path", "--lambda", "1"], "path takes --lambda-grid (not --lambda)"),
            (["fit", "--lambda-grid", "1,0.5"], "fit takes exactly --lambda (not --lambda-grid)"),
            # values that would be silently ignored
            (["fit", "--lambda", "0.1", "--penalty-param", "0.5"], PARAM_WITH_LASSO),
            (["path", "--penalty", "lasso", "--penalty-param", "nan"], PARAM_WITH_LASSO),
            (["fit", "--lambda", "0.1", "--tau", "0.5"], TAU_WITHOUT_PUFFER_TAU + "none"),
            (["precondition", "--transform", "puffer", "--tau", "0"], TAU_WITHOUT_PUFFER_TAU + "puffer"),
            # checks that already failed keep their records
            (["fit", "--lambda", "0.1", "--tau", "-inf"], "tau must be nonnegative, got -inf"),
            (["fit", "--lambda", "0.1", "--tau", "inf"], "--tau must be finite, got inf"),
            (["fit", "--lambda", "-1", "--penalty-param", "0.5"], "lambda must be nonnegative, got -1.0"),
        ],
        ids=[
            "path_lambda", "fit_lambda_grid", "param_implicit_lasso", "param_lasso", "tau_none", "tau_puffer",
            "tau_neg_inf", "tau_inf", "lambda",
        ],
    )
    def test_exact_record(self, small_csv, capsys, argv, message):
        code = main([argv[0], "--input", str(small_csv), "--response", "y", *argv[1:]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == record(message)
