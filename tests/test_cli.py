import argparse
import csv
import dataclasses
import io
import json
import math
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from puffer_lasso import cli as cli_module
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
from puffer_lasso.errors import DataError, NumericalError
from puffer_lasso.penalties import lasso, mcp
from puffer_lasso.preconditioners import puffer, puffer_scaled, puffer_tau
from puffer_lasso.solver import lambda_max
from test_acceptance import package_env


GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_response_owns_its_memory(self, small_csv):
        # a view of the parsed block would keep all of it, and its stride
        # would change the bits of the transforms' products with y
        data = load_dataset(str(small_csv), "y")
        assert data.y.base is None
        assert data.y.flags.c_contiguous

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

    @settings(deadline=None, max_examples=200)
    @given(values=st.lists(st.floats(width=64), max_size=12))
    def test_float_array_matches_the_list_path(self, values):
        # one join over the array's floats: the same text, and the same
        # error for the first non-finite cell
        array = np.array(values, dtype=np.float64)
        try:
            expected = oracles.json_array_reference(array)
        except NumericalError as exc:
            with pytest.raises(NumericalError) as raised:
                _json(array)
            assert str(raised.value) == str(exc)
        else:
            assert _json(array) == expected

    @pytest.mark.parametrize("array", [np.arange(3), np.array([[0.5, -0.0], [1e-310, 2.0]]), np.zeros(0)], ids=str)
    def test_other_arrays_take_the_list_path(self, array):
        assert _json(array) == oracles.json_array_reference(array)


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

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(DataError, match="^--seed must be nonnegative, got -1$"):
            RunConfig(command="verify", seed=-1)
        # an int past the float range is finite, and numpy takes it as a seed
        assert RunConfig(command="verify", seed=10**400).seed == 10**400

    @pytest.mark.parametrize(
        "flag, overrides",
        [
            ("--lambda", {"lam": math.nan}),
            ("--lambda", {"lam": math.inf}),
            ("--lambda-grid", {"command": "path", "lam": None, "lambda_grid": (1.0, math.nan)}),
            ("--tau", {"tau": math.inf}),
            ("--sigma", {"sigma": math.inf}),
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

    @pytest.mark.parametrize("command", [["fit", "--lambda", "0.1"], ["path"]], ids=["fit", "path"])
    def test_loaded_design_is_released_before_the_solve(self, tmp_path, monkeypatch, command):
        # under a transform the solve needs only X~: the X read from the CSV
        # must be gone by then, not held through the fit beside X~
        rng = np.random.default_rng(8)
        path = tmp_path / "wide.csv"
        write_csv(path, ["y", *(f"x{j}" for j in range(12))], rng.standard_normal((6, 13)).tolist())
        loaded = []

        def load(*args):
            data = load_dataset(*args)
            loaded.append(weakref.ref(data.x))
            return data

        def released(real):
            def call(*args, **kwargs):
                assert loaded and loaded[0]() is None, "the loaded X is alive during the solve"
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(cli_module, "load_dataset", load)
        monkeypatch.setattr(cli_module, "solve", released(cli_module.solve))
        monkeypatch.setattr(cli_module, "solve_path", released(cli_module.solve_path))
        argv = [*command, "--input", str(path), "--response", "y", "--transform", "puffer_tau", "--tau", "1"]
        assert main([*argv, "--output", str(tmp_path / "out.json")]) == 0

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


QUOTED_NAMES = ['say "hi"', "a,b", "line\nbreak", "plain"]


@pytest.fixture
def quoted_names_csv(tmp_path):
    """A CSV whose names need quoting: the response is 'say "hi"'."""
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((12, len(QUOTED_NAMES)))
    path = tmp_path / "quoted.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([QUOTED_NAMES, *rows.tolist()])
    return path


class TestNamesThatNeedQuoting:
    def test_precondition_output_loads_back(self, quoted_names_csv, tmp_path):
        out = tmp_path / "pre.csv"
        assert main(["precondition", "--input", str(quoted_names_csv), "--output", str(out)]) == 0
        data = load_dataset(str(quoted_names_csv), "0")
        back = load_dataset(str(out), "0")
        assert (back.response_name, *back.feature_names) == tuple(QUOTED_NAMES)
        assert back.x.tobytes() == data.x.tobytes() and back.y.tobytes() == data.y.tobytes()

    @pytest.mark.parametrize(
        "argv",
        [["fit", "--lambda", "0.1"], ["path", "--lambda-grid", "1,0.1"], ["inspect"]],
        ids=lambda argv: argv[0],
    )
    def test_csv_rows_have_header_width(self, quoted_names_csv, capsys, argv):
        assert main([*argv, "--input", str(quoted_names_csv), "--format", "csv"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert [row[header.index("feature")] for row in rows[:3]] == QUOTED_NAMES[1:]
        assert {len(row) for row in rows} == {len(header)}


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
ORTHOGONAL_RESPONSE = [[1, 1, 0], [-1, 1, 0], [1, 0, 1], [-1, 0, 1]]
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
                "puffer_scaled requires n > p, got n=4, p=6",
            ),
            (["fit", "--transform", "puffer_scaled", "--lambda", "0.1"], DUPLICATE_COLUMN, RANK_RECORD),
            # X'Y = 0, so the default grid's lambda_max is 0
            (["path"], ORTHOGONAL_RESPONSE, "response is orthogonal to every feature; lambda grid is undefined"),
        ],
        ids=[
            "degenerate_sigma", "n_is_p_plus_1", "inspect_rank", "puffer_wide", "scaled_wide", "scaled_rank",
            "orthogonal_response",
        ],
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

    @pytest.mark.parametrize(
        "body,row",
        [
            (b"y,a\n1,2\n3,4\n5,6\n7," + b"x" * 200_000 + b"\n", 5),
            (b"y," + b"x" * 200_000 + b"\n1,2\n3,4\n", 1),
        ],
        ids=["last_cell", "header_cell"],
    )
    def test_cell_over_csv_field_limit(self, tmp_path, capsys, body, row):
        path = tmp_path / "data.csv"
        path.write_bytes(body)
        code = main(["inspect", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == record(f"{path}: row {row}: field larger than field limit (131072)")

    @pytest.mark.parametrize(
        "target,reason",
        [("missing/out.json", "No such file or directory"), (".", "Is a directory")],
        ids=["missing_directory", "directory"],
    )
    def test_output_that_cannot_be_opened(self, small_csv, tmp_path, capsys, target, reason):
        out = tmp_path / target
        code = main(["fit", "--input", str(small_csv), "--response", "y", "--lambda", "0.1", "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == record(f"cannot open --output {out}: {reason}")

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

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError("Unable to allocate 298. GiB for an array"), "Unable to allocate 298. GiB for an array"),
            (MemoryError(), "out of memory"),
        ],
        ids=["allocation", "no_message"],
    )
    def test_out_of_memory_exits_three(self, small_csv, monkeypatch, capsys, exc, message):
        def oom(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_module, "solve", oom)
        code = main(["fit", "--input", str(small_csv), "--response", "y", "--lambda", "0.1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        payload = {"error": "MemoryError", "message": message, "exit_code": 3}
        assert captured.err == json.dumps(payload, separators=(",", ":")) + "\n"

    def test_nan_certificate_exits_three(self, monkeypatch, capsys):
        # lemma1 runs first, on the single seed of its block, and fits its
        # lambda grid with one solve_path
        solve_path = cli_module.verify.solver.solve_path

        def nan_path(*args, **kwargs):
            return [dataclasses.replace(f, beta=np.full_like(f.beta, np.nan)) for f in solve_path(*args, **kwargs)]

        monkeypatch.setattr(cli_module.verify.solver, "solve_path", nan_path)
        code = main(["verify", "--trials", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        message = "lemma1: max_discrepancy is nan at seed 1000003"
        payload = {"error": "NumericalError", "message": message, "exit_code": 3}
        assert captured.err == json.dumps(payload, separators=(",", ":")) + "\n"

    def test_nan_local_minimum_exits_three(self, monkeypatch, capsys):
        # thm3 gets a converged minimum with NaN coefficients; it used to end
        # in project_rowspace's "vector contains NaN or Inf entries", exit 2
        minima = cli_module.verify.solver.multistart_local_minima

        def nan_multistart(*args, **kwargs):
            return [dataclasses.replace(f, beta=np.full_like(f.beta, np.nan)) for f in minima(*args, **kwargs)]

        monkeypatch.setattr(cli_module.verify.solver, "multistart_local_minima", nan_multistart)
        code = main(["verify", "--trials", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        message = "thm3_active: max_discrepancy is nan at seed 4000012"
        payload = {"error": "NumericalError", "message": message, "exit_code": 3}
        assert captured.err == json.dumps(payload, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize(
        "argv, shape, scale, message",
        [
            *[
                pytest.param(argv, (8, 4), 1e160, f"{name} overflows float64; rescale the data", id=label)
                for argv, name, label in (
                    (["fit", "--lambda", "0.1"], "X'X", "fit"),
                    (["path"], "X'Y", "path"),
                    (["inspect"], "the residual norm", "inspect"),
                    (["inspect", "--sigma", "1"], "X'X", "inspect_sigma"),
                    (["fit", "--transform", "puffer_scaled", "--lambda", "0.1"], "X'X", "fit_puffer_scaled"),
                )
            ],
            *[
                pytest.param([command, *extra, "--transform", "puffer_tau", "--tau", tau], (6, 13), scale,
                             f"{name} overflows float64; rescale the data", id=f"{command}_puffer_tau{tau}_{label}")
                for command, extra in (("fit", ["--lambda", "0.1"]), ("path", []), ("precondition", []))
                for tau, scale, label, name in (
                    ("0", 1e160, "huge", "XX' + tau I"),
                    ("1", 1e160, "huge", "XX' + tau I"),
                    ("0", 1e-165, "tiny", "(XX' + tau I)^-1/2"),
                )
            ],
        ],
    )
    def test_overflowing_design_exits_three(self, tmp_path, capsys, argv, shape, scale, message):
        # X'X, X'Y and the residual norm overflow float64 here: fit used to
        # sweep NaN for MAX_ITER sweeps, path to reject a grid the user never
        # gave, and inspect to call the fit degenerate, all with numpy warnings;
        # squaring the singular values for diag((X'X)^-1) made nu 0, so
        # inspect --sigma 1 rejected its own Z statistics and puffer_scaled
        # reported rank 0. On a wide design, d^2 + tau overflowing made
        # puffer_tau's design all zeros (exit 0), and d^2 underflowing at
        # tau = 0 made it inf, which the solver blamed on the input (exit 2)
        self.assert_exit_three(tmp_path, capsys, argv, shape, scale, message)

    @pytest.mark.parametrize("argv", [["fit", "--lambda", "0.1"], ["path"]], ids=["fit", "path"])
    @pytest.mark.parametrize(
        "transform, shape", [([], (8, 4)), (["--transform", "puffer_tau", "--tau", "1"], (6, 13))],
        ids=["tall", "puffer_tau1"],
    )
    def test_underflowing_design_exits_three(self, tmp_path, capsys, argv, transform, shape):
        # X'X and X'Y underflow to 0 here while the design stays finite: fit
        # printed every beta 0 at exit 0, and path (exit 2) called the
        # response orthogonal to every feature
        message = "X'X underflows float64; rescale the data"
        self.assert_exit_three(tmp_path, capsys, argv + transform, shape, 1e-165, message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--lambda", "0.1"],
            ["fit", "--lambda", "0.1", "--transform", "puffer"],
            ["fit", "--lambda", "0.1", "--transform", "puffer_scaled"],
            ["path"],
        ],
        ids=["fit", "fit_puffer", "fit_puffer_scaled", "path"],
    )
    def test_overflowing_response_exits_three(self, tmp_path, capsys, argv):
        # X'X and X'Y stay finite, but the objective squares the residual
        path = tmp_path / "response.csv"
        path.write_text("y,a,b\n1e308,1,0\n1,0,1\n2,1,1\n3,2,1\n")
        code = main([argv[0], "--input", str(path), "--response", "y", *argv[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        payload = {"error": "NumericalError", "message": "Y'Y overflows float64; rescale the data", "exit_code": 3}
        assert captured.err == json.dumps(payload, separators=(",", ":")) + "\n"

    @staticmethod
    def assert_exit_three(tmp_path, capsys, argv, shape, scale, message):
        path = tmp_path / "scaled.csv"
        header = ",".join(["y", *(f"x{j}" for j in range(shape[1] - 1))])
        np.savetxt(path, np.random.default_rng(0).standard_normal(shape) * scale, delimiter=",",
                   header=header, comments="")
        code = main([argv[0], "--input", str(path), *argv[1:]])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        payload = {"error": "NumericalError", "message": message, "exit_code": 3}
        assert captured.err == json.dumps(payload, separators=(",", ":")) + "\n"


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
        text = capsys.readouterr().out
        lines = text.strip().splitlines()
        assert lines[0] == "theorem_id,trials,max_discrepancy,tolerance,passed,worst_case_seed,details"
        assert len(lines) == 10
        assert main(["verify", "--seed", "1", "--trials", "6"]) == 0
        reports = json.loads(capsys.readouterr().out)["result"]["reports"]
        rows = list(csv.DictReader(io.StringIO(text)))
        assert [json.loads(row["details"]) for row in rows] == [r["details"] for r in reports]

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
            # each numeric flag is checked for finiteness, then for its sign,
            # and every record names it with --
            (["fit", "--lambda", "0.1", "--tau", "-inf"], "--tau must be finite, got -inf"),
            (["fit", "--lambda", "0.1", "--tau", "inf"], "--tau must be finite, got inf"),
            (["fit", "--lambda", "-1", "--penalty-param", "0.5"], "--lambda must be nonnegative, got -1.0"),
            (["precondition", "--transform", "puffer_tau", "--tau", "-1"], "--tau must be nonnegative, got -1.0"),
            (["path", "--lambda-grid", "1,-1"], "--lambda-grid must be positive, got -1.0"),
            (["inspect", "--sigma", "0"], "--sigma must be positive, got 0.0"),
            # the grid solve_path accepts: positive and strictly descending
            (["path", "--lambda-grid", "1,0"], "--lambda-grid must be positive, got 0.0"),
            (["path", "--lambda-grid", "1,2"], "--lambda-grid must be strictly descending, got 1.0 then 2.0"),
            (["path", "--lambda-grid", "2,1,1"], "--lambda-grid must be strictly descending, got 1.0 then 1.0"),
            (["path", "--lambda-grid", "1,x"], "could not parse --lambda-grid '1,x'"),
            # NaN is reported as non-finite, like inf, not as out of the penalty's range
            (["fit", "--lambda", "0.1", "--penalty", "mcp", "--penalty-param", "nan"], "--penalty-param must be finite, got nan"),
            (["fit", "--lambda", "0.1", "--penalty", "mcp", "--penalty-param", "inf"], "--penalty-param must be finite, got inf"),
            (["path", "--penalty", "scad", "--penalty-param", "nan"], "--penalty-param must be finite, got nan"),
            (["fit", "--lambda", "0.1", "--penalty", "enet", "--penalty-param", "-inf"], "--penalty-param must be finite, got -inf"),
            # numpy's own "expected non-negative integer" named no flag
            (["verify", "--seed", "-1"], "--seed must be nonnegative, got -1"),
            (["verify", "--seed", "-1000004", "--trials", "1"], "--seed must be nonnegative, got -1000004"),
        ],
        ids=[
            "path_lambda", "fit_lambda_grid", "param_implicit_lasso", "param_lasso", "tau_none", "tau_puffer",
            "tau_neg_inf", "tau_inf", "lambda", "tau_negative", "lambda_grid_negative", "sigma_zero",
            "lambda_grid_zero", "lambda_grid_ascending", "lambda_grid_repeated", "lambda_grid_unparsed",
            "param_mcp_nan", "param_mcp_inf", "param_scad_nan", "param_enet_neg_inf",
            "seed_negative", "seed_below_every_block",
        ],
    )
    def test_exact_record(self, small_csv, capsys, argv, message):
        if argv[0] != "verify":
            argv = [argv[0], "--input", str(small_csv), "--response", "y", *argv[1:]]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == record(message)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["path", "--lambda-grid", "1,2"], "--lambda-grid must be strictly descending, got 1.0 then 2.0"),
            (["path", "--lambda-grid", "1,0"], "--lambda-grid must be positive, got 0.0"),
            (["fit", "--lambda", "1", "--penalty", "mcp", "--penalty-param", "nan"], "--penalty-param must be finite, got nan"),
        ],
    )
    def test_reported_before_the_input_is_read(self, tmp_path, capsys, argv, message):
        code = main([argv[0], "--input", str(tmp_path / "missing.csv"), *argv[1:]])
        assert code == 2
        assert capsys.readouterr().err == record(message)


def outcome(loader, path, response):
    """Everything a loader returns, bytes and layout included, or the type
    and message of what it raises."""
    try:
        data = loader(str(path), response)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        data.x.shape, data.x.strides, data.x.tobytes(), data.y.strides, data.y.tobytes(),
        data.feature_names, data.response_name,
    )


BOM = b"\xef\xbb\xbf"
LONG_BODY = b"1.5,-2e-3\n" * 3000  # past the first 8 KiB read of the file
SEVENTEEN_DIGITS = np.random.default_rng(5).standard_normal((300, 2)) * [1e-3, 1e3]
INGEST_CASES = {
    "plain": b"y,a\n1.5,-2\n3e-5,4.25\n",
    "seventeen_digits": ("y,a\n" + "".join(f"{_fmt(u)},{_fmt(v)}\n" for u, v in SEVENTEEN_DIGITS)).encode(),
    "underscore": b"y,a\n1_0,2\n3,4\n",
    "arabic_indic_digits": "y,a\n\u0663.\u0665,2\n3,4\n".encode(),
    "quoted_cells": b'y,a\n"1",2\n3,"4.5"\n',
    "hash_line": b"y,a\n# a comment\n1,2\n3,4\n",
    "hash_cell": b"y,a\n1,2\n#3,4\n5,6\n",
    "blank_lines": b"y,a\n1,2\n\n3,4\n\n",
    "whitespace_line": b"y,a\n1,2\n   \n3,4\n",
    "whitespace_line_one_column": b"y\n1\n\t\n3\n",
    "crlf": b"y,a\r\n1,2\r\n3,4\r\n",
    "crlf_blank_line": b"y,a\r\n1,2\r\n\r\n3,4\r\n",
    "lone_cr": b"y,a\r1,2\r3,4\r",
    "cr_inside_row": b"y,a\n1\r,2\n3,4\n",
    "trailing_comma": b"y,a\n1,2,\n3,4,\n",
    "trailing_comma_in_header": b"y,a,\n1,2,\n3,4,\n",
    "short_row": b"y,a\n1\n3,4\n",
    "long_row": b"y,a\n1,2,3\n3,4\n",
    "every_row_long": b"y,a\n1,2,3\n4,5,6\n",
    "every_row_short": b"y,a,b\n1,2\n4,5\n",
    "empty_cell": b"y,a\n1,\n3,4\n",
    "space_cell": b"y,a\n1, \n3,4\n",
    "nan": b"y,a\nnan,2\n3,4\n",
    "inf": b"y,a\n1,2\n3,-inf\n",
    "overflow": b"y,a\n1e400,2\n3,4\n",
    "negative_zero": b"y,a\n-0,2\n3,-0.0\n",
    "padded_cells": b"y,a\n 1 ,\t2\n3,4 \n",
    "no_break_space": "y,a\n\u00a01,2\n3,4\u00a0\n".encode(),
    "extremes": b"y,a\n5e-324,1.7976931348623157e308\n-1e308,2.2250738585072014e-308\n",
    "no_final_newline": b"y,a\n1,2\n3,4",
    "empty_file": b"",
    "header_only": b"y,a\n",
    "header_without_newline": b"y,a",
    "header_and_blank_lines": b"y,a\n\n\n",
    "one_data_row": b"y,a\n1,2\n",
    "one_column": b"y\n1\n2\n",
    "duplicate_headers": b"y,a,a\n1,2,3\n4,5,6\n",
    "duplicate_headers_bad_body": b"y,a,a\n1,x\n",
    "quoted_multiline_header": b'"y\nz",a\n1,2\n3,4\n',
    "byte_order_mark": BOM + b"y,a\n1,2\n3,4\n",
    "byte_order_mark_per_cell": BOM + b"y,a\n1_0,2\n3,4\n",
    "nul_cell": b"y,a\n1,\x002\n3,4\n",
    "invalid_utf8_header": b"y,\xffa\n1,2\n3,4\n",
    "invalid_utf8_body": b"y,a\n1,2\n3,\xff\n",
    "invalid_utf8_late": b"y,a\n" + LONG_BODY + b"3,\xff4\n",
    "bad_cell_late": b"y,a\n" + LONG_BODY + b"3,x\n",
    "non_finite_late": b"y,a\n" + LONG_BODY + b"3,inf\n",
    "cell_over_field_limit": b"y,a\n1,2\n\n3," + b"x" * 200_000 + b"\n",
}


class TestIngestMatchesPerCellParser:
    """load_dataset against the per-cell parser it replaced as the common
    path: the same arrays to the byte, or the same exception and message.
    A UTF-8 byte-order mark is not part of the first name: a file with one
    loads as the reference loads the same bytes without it."""

    @pytest.mark.parametrize("response", ["0", "a"])
    @pytest.mark.parametrize("body", INGEST_CASES.values(), ids=INGEST_CASES.keys())
    def test_same_outcome(self, tmp_path, body, response):
        path = tmp_path / "data.csv"
        path.write_bytes(body.removeprefix(BOM))
        expected = outcome(oracles.load_dataset_reference, path, response)
        path.write_bytes(body)
        assert outcome(load_dataset, path, response) == expected

    @pytest.mark.parametrize("name", ["header_only", "header_and_blank_lines", "one_data_row"])
    def test_no_warning_escapes(self, tmp_path, name):
        # np.loadtxt warns on a body without rows; the CLI prints only its
        # JSON record, whatever the warning filters
        path = tmp_path / "data.csv"
        path.write_bytes(INGEST_CASES[name])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DataError, match="at least 2 data rows"):
                load_dataset(str(path), "0")
        assert caught == []

    @pytest.mark.parametrize("name", ["plain", "seventeen_digits", "blank_lines", "crlf", "lone_cr", "padded_cells", "negative_zero", "extremes"])
    def test_numeric_csv_skips_the_per_cell_parser(self, tmp_path, monkeypatch, name):
        # a plain numeric body that fell back would still load correctly,
        # only at the per-cell parser's speed
        path = tmp_path / "data.csv"
        path.write_bytes(INGEST_CASES[name])
        expected = outcome(oracles.load_dataset_reference, path, "0")

        def fallback(*args):
            raise AssertionError("numeric CSV reached the per-cell parser")

        monkeypatch.setattr(cli_module, "_parse_cells", fallback)
        assert outcome(load_dataset, path, "0") == expected


def mixed_extremes_csv(path):
    values = [
        [-0.0, 5e-324, 1e308],
        [1e-310, -1e308, 1.7976931348623157e308],
        [0.1, -2.5e17, -2.2250738585072014e-308],
        [1 / 3, 0.0, -0.0],
    ]
    write_csv(path, ["y", "a", "b"], [[repr(v) for v in row] for row in values])


class TestByteOrderMark:
    def test_response_by_name(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(BOM + b"y,a,b\n1,2,0\n3,4,1\n2,7,5\n6,1,2\n")
        assert main(["inspect", "--input", str(path), "--response", "y", "--format", "csv"]) == 0
        assert "\ufeff" not in capsys.readouterr().out

    def test_precondition_output_unchanged(self, small_csv, tmp_path, capsys):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(BOM + small_csv.read_bytes())
        outputs = []
        for path in (small_csv, marked):
            assert main(["precondition", "--input", str(path), "--transform", "puffer"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestClosedStdout:
    """A reader that stops early (`| head -1`) ends the command quietly with
    128 + SIGPIPE, not a traceback and 1, the code of a failed verify."""

    @pytest.mark.parametrize("argv", [["precondition"], ["path", "--format", "csv"]])
    def test_exit_141_without_stderr(self, tmp_path, argv):
        # over 64 KiB of output, so the command is still writing when the
        # pipe closes: 200 x 41 cells for precondition, 50 x 40 rows for path
        rng = np.random.default_rng(3)
        path = tmp_path / "deep.csv"
        write_csv(path, ["y"] + [f"x{j}" for j in range(40)], rng.standard_normal((200, 41)).tolist())
        with subprocess.Popen(
            [sys.executable, "-m", "puffer_lasso", argv[0], "--input", str(path), *argv[1:]],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=package_env(),
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == 141
        assert err == b""

    def test_stdout_without_descriptor(self, small_csv, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["precondition", "--input", str(small_csv)]) == 141


class TestPreconditionOutput:
    """precondition's rows against one _fmt call per value."""

    @pytest.mark.parametrize("transform", ["none", "puffer", "puffer_scaled"])
    def test_matches_per_value_format(self, small_csv, tmp_path, capsys, transform):
        data = oracles.load_dataset_reference(str(small_csv), "y")
        if transform == "none":
            x, y = data.x, data.y
        else:
            pair = {"puffer": puffer, "puffer_scaled": puffer_scaled}[transform](data.x, data.y)
            x, y = pair.x_tilde, pair.y_tilde
        expected = oracles.precondition_csv_reference(data, x, y)
        argv = ["precondition", "--input", str(small_csv), "--response", "y", "--transform", transform]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "pre.csv"
        assert main(argv + ["--output", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("csv_name, flags, transform", [
        ("tall.csv", ["puffer"], puffer),
        ("tall.csv", ["puffer_scaled"], puffer_scaled),
        ("wide.csv", ["puffer_tau", "--tau", "0"], lambda x, y: puffer_tau(x, y, 0.0)),
        ("wide.csv", ["puffer_tau", "--tau", "1"], lambda x, y: puffer_tau(x, y, 1.0)),
    ], ids=["puffer", "puffer_scaled", "puffer_tau-0", "puffer_tau-1"])
    def test_matches_library_on_contiguous_inputs(self, capsys, csv_name, flags, transform):
        # a library caller holding the loaded numbers in contiguous arrays
        # reproduces the CLI's bytes
        path = str(GOLDEN / csv_name)
        data = oracles.load_dataset_reference(path, "y")
        pair = transform(np.ascontiguousarray(data.x), np.ascontiguousarray(data.y))
        expected = oracles.precondition_csv_reference(data, pair.x_tilde, pair.y_tilde)
        assert main(["precondition", "--input", path, "--response", "y", "--transform", *flags]) == 0
        assert capsys.readouterr().out == expected

    def test_signed_zeros_subnormals_and_extremes(self, tmp_path, capsys):
        path = tmp_path / "extremes.csv"
        mixed_extremes_csv(path)
        data = oracles.load_dataset_reference(str(path), "y")
        expected = oracles.precondition_csv_reference(data, data.x, data.y)
        assert "-0," in expected and "4.9406564584124654e-324" in expected
        assert main(["precondition", "--input", str(path), "--response", "y"]) == 0
        assert capsys.readouterr().out == expected
        out = tmp_path / "pre.csv"
        assert main(["precondition", "--input", str(path), "--response", "y", "--output", str(out)]) == 0
        assert out.read_bytes() == expected.encode()

    def test_finite_columns_are_not_stacked(self, small_csv, monkeypatch, capsys):
        # each float column is checked by itself: a stacked copy of the
        # table would double the memory of a tall precondition
        def refuse(*args, **kwargs):
            raise AssertionError("np.column_stack called")

        data = oracles.load_dataset_reference(str(small_csv), "y")
        pair = puffer(data.x, data.y)
        expected = oracles.precondition_csv_reference(data, pair.x_tilde, pair.y_tilde)
        monkeypatch.setattr(np, "column_stack", refuse)
        assert main(["precondition", "--input", str(small_csv), "--response", "y", "--transform", "puffer"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("to_file", [False, True])
    def test_non_finite_transform_writes_nothing(self, small_csv, tmp_path, monkeypatch, capsys, to_file):
        def corrupted(x, y):
            pair = puffer(x, y)
            pair.x_tilde[2, 1] = -np.inf
            pair.x_tilde[5, 0] = np.nan
            pair.y_tilde[4] = np.inf
            return pair

        monkeypatch.setattr(cli_module, "puffer", corrupted)
        data = load_dataset(str(small_csv), "y")
        pair = corrupted(data.x, data.y)
        with pytest.raises(NumericalError) as expected:
            oracles.precondition_csv_reference(data, pair.x_tilde, pair.y_tilde)
        out = tmp_path / "pre.csv"
        argv = ["precondition", "--input", str(small_csv), "--response", "y", "--transform", "puffer"]
        code = main(argv + (["--output", str(out)] if to_file else []))
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert not out.exists()
        payload = {"error": "NumericalError", "message": str(expected.value), "exit_code": 3}
        assert captured.err == json.dumps(payload, separators=(",", ":")) + "\n"
        assert str(expected.value) == "cannot serialize non-finite value -inf"
