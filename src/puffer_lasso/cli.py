"""Command-line surface: CSV in, JSON or CSV out.

Subcommands:

  fit           one penalized fit at a single lambda
  path          warm-started fits along a descending lambda grid
  precondition  write the transformed (X, Y) back out as CSV
  verify        run the full equivalence-certificate suite
  inspect       OLS coefficients, Z statistics and marginal p-values

Exit codes: 0 success (verify: all checks passed), 1 verification
failure, 2 input error, 3 numerical failure. Errors print a single-line
JSON record to stderr. Floats are serialized with 17 significant digits
so identical runs produce byte-identical output that round-trips
losslessly.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, estimators, verify
from .errors import DataError, NumericalError
from .penalties import PenaltySpec, elastic_net, lasso, mcp, scad
from .preconditioners import PreconditionedPair, puffer, puffer_scaled, puffer_tau
from .solver import FitResult, lambda_max, solve, solve_path

PENALTY_FLAGS = ("lasso", "enet", "scad", "mcp")
TRANSFORM_FLAGS = ("none", "puffer", "puffer_scaled", "puffer_tau")

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    response_name: str


@dataclass(frozen=True)
class RunConfig:
    command: str
    input_path: str | None = None
    response_column: str = "0"
    penalty: PenaltySpec = lasso()
    lam: float | None = None
    lambda_grid: tuple[float, ...] | None = None
    tau: float | None = None
    sigma: float | None = None
    transform: str = "none"
    seed: int = 0
    trials: int | None = None
    output_path: str | None = None
    output_format: str = "json"

    def __post_init__(self):
        if self.command in ("fit", "path", "precondition", "inspect") and not self.input_path:
            raise DataError(f"{self.command} requires --input")
        if self.command == "fit":
            if self.lam is None or self.lambda_grid is not None:
                raise DataError("fit takes exactly --lambda (not --lambda-grid)")
        if self.command == "path" and self.lam is not None:
            raise DataError("path takes --lambda-grid (not --lambda)")
        if self.transform == "puffer_tau" and self.tau is None:
            raise DataError("transform=puffer_tau requires --tau")
        if self.output_format not in ("json", "csv"):
            raise DataError(f"format must be json or csv, got {self.output_format}")
        if self.transform not in TRANSFORM_FLAGS:
            raise DataError(f"unknown transform {self.transform!r}")
        numeric = [("--lambda", self.lam, "nonnegative"), ("--tau", self.tau, "nonnegative")]
        numeric += [("--sigma", self.sigma, "positive")]
        numeric += [("--lambda-grid", t, "nonnegative") for t in self.lambda_grid or ()]
        numeric += [("--penalty-param", self.penalty.param, None)]
        for flag, value, sign in numeric:
            if value is None:
                continue
            if not math.isfinite(value):
                raise DataError(f"{flag} must be finite, got {value}")
            if sign == "nonnegative" and value < 0 or sign == "positive" and value <= 0:
                raise DataError(f"{flag} must be {sign}, got {value}")
        if self.trials is not None and self.trials < 1:
            raise DataError(f"--trials must be positive, got {self.trials}")
        if self.tau is not None and self.transform != "puffer_tau":
            raise DataError(f"--tau applies only to --transform puffer_tau, got {self.transform}")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def load_dataset(path: str, response_column: str | int) -> Dataset:
    """Read a headered CSV into a design matrix and response vector.

    All cells must be numeric ('.' decimal separator, no thousands
    separators); parse problems report the 1-based row and the column
    name. No intercept column is added implicitly.
    """
    file = Path(path)
    if not file.is_file():
        raise DataError(f"input file not found: {path}")
    with file.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dupes = sorted({h for h in header if header.count(h) > 1})
            raise DataError(f"{path}: duplicate header names {dupes}")
        rows: list[list[float]] = []
        for lineno, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != len(header):
                raise DataError(
                    f"{path}: row {lineno} has {len(raw)} cells, expected {len(header)}"
                )
            parsed = []
            for name, cell in zip(header, raw):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {lineno}, column {name!r}: "
                        f"non-numeric cell {cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: row {lineno}, column {name!r}: non-finite value {cell.strip()!r}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, found {len(rows)}")

    if isinstance(response_column, str):
        try:
            response_idx = int(response_column)
        except ValueError:
            if response_column not in header:
                raise DataError(
                    f"{path}: response column {response_column!r} not in header {header}"
                ) from None
            response_idx = header.index(response_column)
    else:
        response_idx = int(response_column)
    if not 0 <= response_idx < len(header):
        raise DataError(f"{path}: response column index {response_idx} out of range")

    data = np.asarray(rows, dtype=np.float64)
    mask = np.ones(len(header), dtype=bool)
    mask[response_idx] = False
    if not mask.any():
        raise DataError(f"{path}: no feature columns besides the response")
    return Dataset(
        x=data[:, mask],
        y=data[:, response_idx],
        feature_names=tuple(h for i, h in enumerate(header) if i != response_idx),
        response_name=header[response_idx],
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """17-significant-digit decimal form; round-trips float64 exactly."""
    v = float(value)
    if not math.isfinite(v):
        raise NumericalError(f"cannot serialize non-finite value {v!r}")
    return format(v, ".17g")


# JSON string escapes: the two mandatory ones, the short forms of \n, \r
# and \t, and \u00XX for every other control character.
_JSON_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)}
_JSON_ESCAPES.update(
    {ord("\\"): "\\\\", ord('"'): '\\"', ord("\n"): "\\n", ord("\r"): "\\r", ord("\t"): "\\t"}
)


def _json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return f'"{obj.translate(_JSON_ESCAPES)}"'
    if isinstance(obj, np.ndarray):
        return _json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = ",".join(f"{_json(str(k))}:{_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _config_echo(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "input": config.input_path,
        "response": config.response_column,
        "penalty": config.penalty.kind,
        "penalty_param": config.penalty.param,
        "lambda": config.lam,
        "lambda_grid": list(config.lambda_grid) if config.lambda_grid else None,
        "tau": config.tau,
        "sigma": config.sigma,
        "transform": config.transform,
        "seed": config.seed,
        "trials": config.trials,
        "format": config.output_format,
    }


def _envelope(config: RunConfig, result) -> dict:
    return {
        "meta": {"version": __version__, "seed": config.seed, "config": _config_echo(config)},
        "result": result,
    }


def _fit_record(fit: FitResult) -> dict:
    return {
        "beta": fit.beta,
        "lambda": fit.lam,
        "penalty": {"kind": fit.penalty.kind, "param": fit.penalty.param},
        "iterations": fit.iterations,
        "converged": fit.converged,
        "kkt_residual": fit.kkt_residual,
        "objective": fit.objective,
        "active_set": list(fit.active_set),
    }


def _report_record(report: verify.TheoremReport) -> dict:
    return {
        "theorem_id": report.theorem_id,
        "trials": report.trials,
        "max_discrepancy": report.max_discrepancy,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "worst_case_seed": report.worst_case_seed,
        "details": report.details,
    }


def _emit(config: RunConfig, text: str) -> None:
    if config.output_path:
        Path(config.output_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _transform_pair(
    config: RunConfig, data: Dataset
) -> tuple[np.ndarray, np.ndarray, PreconditionedPair | None]:
    if config.transform == "none":
        return data.x, data.y, None
    if config.transform == "puffer":
        pair = puffer(data.x, data.y)
    elif config.transform == "puffer_scaled":
        pair = puffer_scaled(data.x, data.y)
    else:
        pair = puffer_tau(data.x, data.y, config.tau)
    return pair.x_tilde, pair.y_tilde, pair


def _transform_meta(config: RunConfig, pair: PreconditionedPair | None) -> dict:
    meta: dict = {"name": config.transform}
    if pair is not None and pair.tau is not None:
        meta["tau"] = pair.tau
    if pair is not None and pair.n_diag is not None:
        meta["n_diag"] = pair.n_diag
    return meta


def _default_grid(x: np.ndarray, y: np.ndarray) -> tuple[float, ...]:
    """50 log-spaced values from lambda_max down to 1e-4 * lambda_max."""
    top = lambda_max(x, y)
    if top <= 0:
        raise DataError("response is orthogonal to every feature; lambda grid is undefined")
    return tuple(float(t) for t in np.geomspace(top, 1e-4 * top, 50))


def _coefficients_csv(fits: list[FitResult], names: tuple[str, ...]) -> str:
    lines = ["lambda,feature,coefficient"]
    for fit in fits:
        for name, b in zip(names, fit.beta):
            lines.append(f"{_fmt(fit.lam)},{name},{_fmt(b)}")
    return "\n".join(lines) + "\n"


def _run_fit(config: RunConfig) -> int:
    data = load_dataset(config.input_path, config.response_column)
    x, y, pair = _transform_pair(config, data)
    fit = solve(x, y, config.lam, config.penalty)
    if config.output_format == "csv":
        _emit(config, _coefficients_csv([fit], data.feature_names))
        return EXIT_OK
    record = _fit_record(fit)
    record["transform"] = _transform_meta(config, pair)
    record["features"] = list(data.feature_names)
    _emit(config, _json(_envelope(config, record)) + "\n")
    return EXIT_OK


def _run_path(config: RunConfig) -> int:
    data = load_dataset(config.input_path, config.response_column)
    x, y, pair = _transform_pair(config, data)
    grid = config.lambda_grid or _default_grid(x, y)
    fits = solve_path(x, y, grid, config.penalty)
    if config.output_format == "csv":
        _emit(config, _coefficients_csv(fits, data.feature_names))
        return EXIT_OK
    record = {
        "path": [_fit_record(f) for f in fits],
        "transform": _transform_meta(config, pair),
        "features": list(data.feature_names),
    }
    _emit(config, _json(_envelope(config, record)) + "\n")
    return EXIT_OK


def _run_precondition(config: RunConfig) -> int:
    data = load_dataset(config.input_path, config.response_column)
    x, y, _ = _transform_pair(config, data)
    lines = [",".join([data.response_name, *data.feature_names])]
    for i in range(x.shape[0]):
        lines.append(",".join([_fmt(y[i]), *(_fmt(v) for v in x[i])]))
    _emit(config, "\n".join(lines) + "\n")
    return EXIT_OK


def _run_inspect(config: RunConfig) -> int:
    data = load_dataset(config.input_path, config.response_column)
    n, p = data.x.shape
    if n <= p:
        raise DataError(
            f"inspect requires n > p for Z statistics and p-values, got n={n}, p={p}"
        )
    result = estimators.inference(data.x, data.y, config.sigma)
    if config.output_format == "csv":
        lines = ["feature,beta_ols,z_stat,p_value"]
        for j, name in enumerate(data.feature_names):
            lines.append(
                f"{name},{_fmt(result.beta_ols[j])},"
                f"{_fmt(result.z_stats[j])},{_fmt(result.p_values[j])}"
            )
        _emit(config, "\n".join(lines) + "\n")
        return EXIT_OK
    record = {
        "features": list(data.feature_names),
        "beta_ols": result.beta_ols,
        "z_stats": result.z_stats,
        "p_values": result.p_values,
        "sigma": result.sigma,
        "sigma_source": result.sigma_source,
    }
    _emit(config, _json(_envelope(config, record)) + "\n")
    return EXIT_OK


def _run_verify(config: RunConfig) -> int:
    reports = verify.default_suite(config.seed, trials=config.trials)
    all_passed = all(r.passed for r in reports)
    if config.output_format == "csv":
        lines = ["theorem_id,trials,max_discrepancy,tolerance,passed,worst_case_seed"]
        for r in reports:
            lines.append(
                f"{r.theorem_id},{r.trials},{_fmt(r.max_discrepancy)},"
                f"{_fmt(r.tolerance)},{str(r.passed).lower()},{r.worst_case_seed}"
            )
        _emit(config, "\n".join(lines) + "\n")
    else:
        record = {
            "reports": [_report_record(r) for r in reports],
            "all_passed": all_passed,
        }
        _emit(config, _json(_envelope(config, record)) + "\n")
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    handlers = {
        "fit": _run_fit,
        "path": _run_path,
        "precondition": _run_precondition,
        "inspect": _run_inspect,
        "verify": _run_verify,
    }
    try:
        return handlers[config.command](config)
    except DataError as exc:
        _error_record("DataError", exc, EXIT_INPUT_ERROR)
        return EXIT_INPUT_ERROR
    except NumericalError as exc:
        _error_record("NumericalError", exc, EXIT_NUMERICAL_ERROR)
        return EXIT_NUMERICAL_ERROR
    except ValueError as exc:
        _error_record("ValueError", exc, EXIT_INPUT_ERROR)
        return EXIT_INPUT_ERROR


def _error_record(kind: str, exc: Exception, code: int) -> None:
    message = str(exc).replace("\n", " ")
    sys.stderr.write(_json({"error": kind, "message": message, "exit_code": code}) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


# Every option takes exactly one value. "dest" is the RunConfig field it
# sets, and no option has a default: an absent flag leaves the RunConfig
# default in place.
_FLAGS = {
    "--input": {"dest": "input_path", "help": "CSV file with a header row"},
    "--response": {"dest": "response_column", "help": "response column name or index (default: the first)"},
    "--penalty": {"choices": PENALTY_FLAGS},
    "--penalty-param": {"type": float, "help": "enet alpha / scad a / mcp gamma"},
    "--lambda": {"dest": "lam", "type": float},
    "--lambda-grid": {"help": "comma-separated descending values"},
    "--tau": {"type": float},
    "--sigma": {"type": float},
    "--transform": {"choices": TRANSFORM_FLAGS},
    "--seed": {"type": int},
    "--trials": {"type": int, "help": "per-check trial count"},
    "--output": {"dest": "output_path", "help": "output file (default: stdout)"},
    "--format": {"dest": "output_format", "choices": ("json", "csv")},
}
# Each subcommand's help and flags. fit and path take both lambda flags so
# that RunConfig names the wrong one: argparse would otherwise read
# "path --lambda 1" as an abbreviation of --lambda-grid.
_FIT = (
    "--input --response --penalty --penalty-param --lambda --lambda-grid --tau --transform --output --format"
)
_COMMANDS = {
    "fit": ("one penalized fit at a single lambda", _FIT),
    "path": ("fits along a descending lambda grid", _FIT),
    "precondition": ("write transformed (X, Y) as CSV", "--input --response --tau --transform --output"),
    "verify": ("run the equivalence-certificate suite", "--seed --trials --output --format"),
    "inspect": ("OLS coefficients, Z statistics, p-values", "--input --response --sigma --output --format"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="puffer-lasso",
        description="Preconditioned penalized least squares and equivalence verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _attach_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag value`` as ``--flag=value`` where the value starts
    with a single '-'. argparse takes such a token (-inf, -1,2, -1e-3) for
    an option unless it reads as a plain negative number, and would exit
    with a usage message instead of reaching the input checks. A flag is
    an option of the subcommand argv[0] or, as argparse allows, a prefix
    of exactly one; a value starting with '--', and -h, stay options."""
    flags = _COMMANDS[argv[0]][1].split() if argv and argv[0] in _COMMANDS else ()
    out: list[str] = []
    i = 0
    while i < len(argv):
        token = argv[i]
        value = argv[i + 1] if i + 1 < len(argv) else ""
        is_flag = token in flags or (
            token.startswith("--") and sum(f.startswith(token) for f in flags) == 1
        )
        if is_flag and value.startswith("-") and not value.startswith("--") and value != "-h":
            out.append(f"{token}={value}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def _penalty_from_args(name: str, param: float | None) -> PenaltySpec:
    if name == "lasso":
        return lasso()
    if name == "enet":
        return elastic_net(param) if param is not None else elastic_net()
    if name == "scad":
        return scad(param) if param is not None else scad()
    return mcp(param) if param is not None else mcp()


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = dict(vars(args))
    if "lambda_grid" in values:
        try:
            values["lambda_grid"] = tuple(float(t) for t in values["lambda_grid"].split(","))
        except ValueError:
            raise DataError(f"could not parse --lambda-grid {values['lambda_grid']!r}") from None
    param = values.pop("penalty_param", None)
    if "penalty" in values:
        try:
            values["penalty"] = _penalty_from_args(values["penalty"], param)
        except ValueError as exc:
            raise DataError(str(exc)) from None
    config = RunConfig(**values)
    if param is not None and config.penalty.kind == "lasso":
        raise DataError("--penalty-param does not apply to --penalty lasso")
    return config


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_attach_values(argv))
    try:
        config = _config_from_args(args)
    except DataError as exc:
        _error_record("DataError", exc, EXIT_INPUT_ERROR)
        return EXIT_INPUT_ERROR
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
