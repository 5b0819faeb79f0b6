"""Golden outputs: the CLI's output on fixed inputs, compared under the
regression contract that README's "Golden outputs" section states.

``tests/golden/`` holds three CSVs (tall.csv, 30 x 6, wide.csv, 10 x 24,
and wider.csv, 70 x 300, whose fits fill more than one block of the
p > n X'X store, release rows and build some again), one file per case
in CASES with the output the case's argv printed when it was recorded,
and stack.json, the numpy version and machine it was recorded on. Rules:

- exact: keys and their order, meta, report ids, trials, tolerances,
  ``passed``, ``converged``, every count, and the active set of every fit;
- bounded: beta to BETA_BOUND * max(1, max |beta|), ``objective`` to
  OBJECTIVE_REL relative, ``kkt_residual`` of a converged fit to
  ``KKT_TOL``, and each certificate discrepancy below its gate, and on
  the recorded stack also byte-equal;
- free: a report's ``worst_case_seed`` together with its worst
  component's ``penalty`` and ``tau``, and, off the recorded stack, a
  fit's ``iterations``;
- every fit (``objective`` aside), every CSV output and every other
  number are byte-equal on the recorded stack, ``iterations`` included;
  on any other stack their floats are held to the beta bound instead
  (a ``--format csv`` fit's coefficients per lambda, its ``feature``
  column exactly).

Every case run a second time in the same process must print the same
bytes as its first run.

A golden ``converged: false`` may become true only where DECLARED names
the fit and why; such a fit must then meet the KKT bound and end at an
objective no higher than the recorded one.

Regenerate (only when a change declares new outputs) with
``PYTHONPATH=src python tests/test_golden.py [case ...]`` from the
repository root; it rewrites the named cases, or every case when none is
named.
"""

import csv
import functools
import json
import math
import os
import platform
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from puffer_lasso.cli import main
from puffer_lasso.solver import KKT_TOL
from puffer_lasso.verify import NEGATIVE_CONTROL_MIN

GOLDEN = Path(__file__).resolve().parent / "golden"
BETA_BOUND = 1e-6
OBJECTIVE_REL = 1e-12
PENALTIES = ("lasso", "enet", "scad", "mcp")
# a fit's lambda: about a tenth of tall's and wide's lambda_max (140.2
# and 20.1), and a hundredth of wider's (173.9)
FIT_LAMBDA = {"tall": "14", "wide": "2", "wider": "1.7"}
# the transforms each CSV admits: puffer and puffer_scaled need n > p,
# puffer_tau p >= n
TRANSFORMS = {"tall": (("puffer",), ("puffer_scaled",)), "wide": (("puffer_tau", "0"), ("puffer_tau", "1"))}


def _cases() -> dict[str, list[str]]:
    cases = {"verify.json": ["verify", "--seed", "0", "--trials", "2"]}
    cases["verify.csv"] = [*cases["verify.json"], "--format", "csv"]
    for data in ("tall", "wide"):
        source = ["--input", f"{data}.csv", "--response", "y"]
        for pen in PENALTIES:
            cases[f"fit-{data}-{pen}.json"] = ["fit", *source, "--penalty", pen, "--lambda", FIT_LAMBDA[data]]
            cases[f"path-{data}-{pen}.json"] = ["path", *source, "--penalty", pen]
        for transform, *tau in TRANSFORMS[data]:
            flags = ["--transform", transform] + (["--tau", *tau] if tau else [])
            label = "-".join([data, transform, *tau])
            cases[f"precondition-{label}.csv"] = ["precondition", *source, *flags]
            cases[f"path-{label}-lasso.json"] = ["path", *source, "--penalty", "lasso", *flags]
        for command in ("fit", "path"):
            argv = cases[f"{command}-{data}-lasso.json"]
            cases[f"{command}-{data}-lasso.csv"] = [*argv, "--format", "csv"]
    source = ["--input", "wider.csv", "--response", "y"]
    for pen in ("lasso", "mcp"):
        cases[f"fit-wider-{pen}.json"] = ["fit", *source, "--penalty", pen, "--lambda", FIT_LAMBDA["wider"]]
        cases[f"path-wider-{pen}.json"] = ["path", *source, "--penalty", pen]
    return cases


CASES = _cases()
# (golden file, index on its path) -> why a recorded converged=false fit
# may now converge
DECLARED: dict[tuple[str, int], str] = {}


def run_cli(argv: list[str]) -> str:
    """stdout of the CLI run on argv from inside tests/golden, so the
    config echo names each input the same way wherever the suite runs."""
    out = StringIO()
    cwd = Path.cwd()
    try:
        os.chdir(GOLDEN)
        with redirect_stdout(out):
            assert main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return out.getvalue()


def recorded_stack() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


class Number(str):
    """A JSON number as its literal text."""


def load(text: str):
    """JSON with every number kept as its literal text, so that equal
    strings mean equal bytes (json would read -0 and 0 as one int)."""
    return json.loads(text, parse_int=Number, parse_float=Number)


def report_rows(text: str) -> list[dict]:
    """The reports of a ``verify --format csv`` output, every cell as its
    text and ``details`` read as ``load`` reads JSON."""
    return [{**row, "details": load(row["details"])} for row in csv.DictReader(StringIO(text))]


def key_tree(obj):
    """Every dict's keys in order, nested as the document nests them."""
    if isinstance(obj, dict):
        return [(k, key_tree(v)) for k, v in obj.items()]
    if isinstance(obj, list):
        return [key_tree(v) for v in obj]
    return None


class Comparator:
    def __init__(self, name: str, same_stack: bool):
        self.name = name
        self.same_stack = same_stack

    def floats(self, new, old, where):
        """Byte-equal on the recorded stack, else within the beta bound."""
        new, old = np.atleast_1d(new), np.atleast_1d(old)
        assert new.shape == old.shape, where
        if self.same_stack:
            assert new.tolist() == old.tolist(), where
            return
        a, b = new.astype(float), old.astype(float)
        assert np.max(np.abs(a - b)) <= BETA_BOUND * max(1.0, float(np.max(np.abs(b)))), where

    def document(self, new, old):
        assert key_tree(new) == key_tree(old), self.name
        assert new["meta"] == old["meta"], self.name
        if "reports" in old["result"]:
            self.verify(new["result"], old["result"])
            return
        result_new, result_old = new["result"], old["result"]
        assert result_new["features"] == result_old["features"], self.name
        for key, value in result_old["transform"].items():
            if key == "n_diag":
                self.floats(result_new["transform"][key], value, (self.name, key))
            else:
                assert result_new["transform"][key] == value, (self.name, key)
        if "path" in result_old:
            assert len(result_new["path"]) == len(result_old["path"]), self.name
            for i, (fit, ref) in enumerate(zip(result_new["path"], result_old["path"])):
                self.fit(fit, ref, (self.name, i), DECLARED.get((self.name, i)))
        else:
            self.fit(result_new, result_old, (self.name,), DECLARED.get((self.name, 0)))

    def fit(self, new, old, where, declared):
        objective, golden_objective = float(new["objective"]), float(old["objective"])
        assert new["penalty"] == old["penalty"], where
        self.floats(new["lambda"], old["lambda"], where)
        if declared is not None:
            assert (old["converged"], new["converged"]) == (False, True), (where, declared)
            assert float(new["kkt_residual"]) <= KKT_TOL, where
            assert objective <= golden_objective + OBJECTIVE_REL * abs(golden_objective), where
            return
        assert abs(objective - golden_objective) <= OBJECTIVE_REL * abs(golden_objective), where
        assert new["converged"] == old["converged"], where
        assert new["active_set"] == old["active_set"], where
        self.floats(new["beta"], old["beta"], where)
        self.floats(new["kkt_residual"], old["kkt_residual"], where)
        if self.same_stack:
            assert new["iterations"] == old["iterations"], where
        if new["converged"]:
            assert float(new["kkt_residual"]) <= KKT_TOL, where

    def verify(self, new, old):
        assert new["all_passed"] == old["all_passed"], self.name
        self.reports(new["reports"], old["reports"])

    def reports(self, new, old):
        assert len(new) == len(old), self.name
        for report, ref in zip(new, old):
            where = (self.name, ref["theorem_id"])
            for key in ("theorem_id", "trials", "tolerance", "passed"):
                assert report[key] == ref[key], (where, key)
            assert float(report["max_discrepancy"]) <= float(report["tolerance"]), where
            if self.same_stack:
                assert report["max_discrepancy"] == ref["max_discrepancy"], where
            for key, value in ref["details"].items():
                got = report["details"][key]
                if key in ("penalty", "tau"):  # the worst component's, free
                    continue
                if key == "negative_control_max":
                    assert float(got) > NEGATIVE_CONTROL_MIN, (where, key)
                    assert abs(float(got) - float(value)) <= 1e-6 * float(value), (where, key)
                else:
                    assert got == value, (where, key)

    def precondition(self, new: str, old: str):
        rows_new, rows_old = new.splitlines(), old.splitlines()
        assert rows_new[0] == rows_old[0], self.name
        if self.same_stack:
            assert new == old, self.name
            return
        self.floats([r.split(",") for r in rows_new[1:]], [r.split(",") for r in rows_old[1:]], self.name)

    def verify_table(self, new: str, old: str):
        """``verify --format csv``: one row per report, each held to the
        JSON golden's rules, and the whole text byte-equal on the
        recorded stack."""
        assert new.splitlines()[0] == old.splitlines()[0], self.name
        if self.same_stack:
            assert new == old, self.name
        self.reports(report_rows(new), report_rows(old))

    def coefficients(self, new: str, old: str):
        """``fit``/``path --format csv``: rows of lambda, feature, coefficient."""
        rows_new, rows_old = new.splitlines(), old.splitlines()
        assert rows_new[0] == rows_old[0], self.name
        if self.same_stack:
            assert new == old, self.name
            return
        assert len(rows_new) == len(rows_old), self.name
        lam_new, feature_new, beta_new = np.array([r.split(",") for r in rows_new[1:]]).T
        lam_old, feature_old, beta_old = np.array([r.split(",") for r in rows_old[1:]]).T
        assert feature_new.tolist() == feature_old.tolist(), self.name
        self.floats(lam_new, lam_old, self.name)
        for lam in dict.fromkeys(lam_old.tolist()):
            fit = lam_old == lam
            self.floats(beta_new[fit], beta_old[fit], (self.name, lam))


def compare(name: str, new: str, old: str, same_stack: bool) -> None:
    """Raise AssertionError where ``new`` breaks the contract against the
    golden ``old`` of case ``name``."""
    check = Comparator(name, same_stack)
    if name.startswith("precondition"):
        check.precondition(new, old)
    elif name == "verify.csv":
        check.verify_table(new, old)
    elif name.endswith(".csv"):
        check.coefficients(new, old)
    else:
        check.document(load(new), load(old))


@pytest.fixture(scope="module")
def same_stack() -> bool:
    return json.loads((GOLDEN / "stack.json").read_text()) == recorded_stack()


@functools.cache
def first_run(name: str) -> str:
    return run_cli(CASES[name])


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, same_stack):
    compare(name, first_run(name), (GOLDEN / name).read_text(encoding="utf-8"), same_stack)


@pytest.mark.parametrize("name", sorted(CASES))
def test_same_bytes_when_run_twice(name):
    # the byte-level rule: a later run of the case in the same process
    # (in a full run, after every case's first run) prints the same bytes
    assert run_cli(CASES[name]) == first_run(name)


def test_every_golden_file_is_a_case():
    inputs = {"tall.csv", "wide.csv", "wider.csv", "stack.json", "deep_path_reference.json"}
    recorded = {p.name for p in GOLDEN.iterdir()} - inputs
    assert recorded == set(CASES)


def _times(factor: float):
    return lambda text: Number(repr(float(text) * factor))


def _next_up(text: str) -> Number:
    return Number(repr(float(np.nextafter(float(text), math.inf))))


def _beyond_bound(beta: list) -> list:
    values = np.array(beta, dtype=float)
    j = int(np.argmax(np.abs(values)))
    values[j] += 2 * BETA_BOUND * max(1.0, abs(values[j]))
    return [Number(repr(float(b))) for b in values]


def _reordered(record: dict) -> dict:
    record = dict(record)
    record["objective"] = record.pop("objective")
    return record


# label -> (golden file, keys from "result" to the edited value, edit)
MUTANTS = {
    "lasso beta off by twice the bound": ("fit-tall-lasso.json", ("beta",), _beyond_bound),
    "convex active set grows": ("fit-tall-lasso.json", ("active_set",), lambda a: [*a, Number("5")]),
    "converged flips": ("path-tall-enet.json", ("path", 3, "converged"), lambda c: not c),
    "objective off by 1e-11": ("path-wide-lasso.json", ("path", -1, "objective"), _times(1 + 1e-11)),
    "kkt residual above KKT_TOL": ("fit-wide-enet.json", ("kkt_residual",), lambda _: Number("2e-07")),
    "scad beta moves one ulp": ("fit-tall-scad.json", ("beta", 0), _next_up),
    "lasso beta moves one ulp": ("fit-wide-lasso.json", ("beta", 0), _next_up),
    "enet kkt residual moves one ulp": ("path-tall-enet.json", ("path", -1, "kkt_residual"), _next_up),
    "lasso iterations change": ("path-wide-lasso.json", ("path", -1, "iterations"), lambda _: Number("1")),
    "mcp zero changes sign": ("path-wide-mcp.json", ("path", 0, "beta", 0), lambda _: Number("-0")),
    "report fails": ("verify.json", ("reports", 0, "passed"), lambda _: False),
    "discrepancy above its gate": ("verify.json", ("reports", 1, "max_discrepancy"), lambda _: Number("2e-06")),
    "discrepancy one ulp off": ("verify.json", ("reports", 3, "max_discrepancy"), _next_up),
    "count changes": ("verify.json", ("reports", 5, "details", "pairs_checked"), _times(0.5)),
    "key order changes": ("fit-tall-mcp.json", (), _reordered),
}
FREE_EDITS = {
    "iterations": ("path-wide-lasso.json", ("path", -1, "iterations"), lambda _: Number("1")),
    "worst case seed": ("verify.json", ("reports", 3, "worst_case_seed"), lambda _: Number("7")),
    "worst component's penalty": ("verify.json", ("reports", 3, "details", "penalty"), lambda _: "scad"),
    "objective within its bound": ("path-wide-scad.json", ("path", -1, "objective"), _times(1 + 1e-13)),
}
# free edits that the recorded stack holds byte-equal
OFF_STACK_ONLY = {"iterations"}


def _dump(doc) -> str:
    """The inverse of load: numbers are written back as their text."""
    if isinstance(doc, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_dump(v)}" for k, v in doc.items()) + "}"
    if isinstance(doc, list):
        return "[" + ",".join(_dump(v) for v in doc) + "]"
    return doc if isinstance(doc, Number) else json.dumps(doc)


def _edited(name: str, keys: tuple, edit) -> str:
    doc = load((GOLDEN / name).read_text())
    parent, last = doc, "result"
    for key in keys:
        parent, last = parent[last], key
    parent[last] = edit(parent[last])
    return _dump(doc)


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_comparator_rejects(mutant):
    name, keys, edit = MUTANTS[mutant]
    golden = (GOLDEN / name).read_text()
    with pytest.raises(AssertionError):
        compare(name, _edited(name, keys, edit), golden, same_stack=True)


@pytest.mark.parametrize("edit", sorted(FREE_EDITS))
def test_comparator_allows(edit):
    name, keys, change = FREE_EDITS[edit]
    golden = (GOLDEN / name).read_text()
    compare(name, _edited(name, keys, change), golden, same_stack=edit not in OFF_STACK_ONLY)


def test_comparator_rejects_a_precondition_cell_one_ulp_off():
    name = "precondition-tall-puffer.csv"
    golden = (GOLDEN / name).read_text()
    head, first, *rest = golden.splitlines(keepends=True)
    cells = first.rstrip("\n").split(",")
    cells[1] = "%.17g" % np.nextafter(float(cells[1]), math.inf)
    with pytest.raises(AssertionError):
        compare(name, head + ",".join(cells) + "\n" + "".join(rest), golden, same_stack=True)


@pytest.mark.parametrize("same_stack", [True, False])
def test_comparator_rejects_a_csv_coefficient_off(same_stack):
    # the last fit's largest coefficient, one ulp off on the recorded
    # stack and twice the beta bound off elsewhere
    name = "path-wide-lasso.csv"
    golden = (GOLDEN / name).read_text()
    head, *rows = golden.splitlines(keepends=True)
    cells = [r.rstrip("\n").split(",") for r in rows]
    last = [i for i, c in enumerate(cells) if c[0] == cells[-1][0]]
    i = max(last, key=lambda i: abs(float(cells[i][2])))
    value = float(cells[i][2])
    value = np.nextafter(value, math.inf) if same_stack else value + 2 * BETA_BOUND * max(1.0, abs(value))
    cells[i][2] = "%.17g" % value
    with pytest.raises(AssertionError):
        compare(name, head + "".join(",".join(c) + "\n" for c in cells), golden, same_stack=same_stack)


def _verify_cell_edited(report: int, column: str, edit) -> str:
    """verify.csv with one cell of one report's row replaced by edit(cell)."""
    rows = list(csv.reader(StringIO((GOLDEN / "verify.csv").read_text())))
    row = rows[report + 1]
    i = rows[0].index(column)
    row[i] = edit(row[i])
    out = StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# label -> (report, column, edit, rejected on the recorded stack, rejected off it)
VERIFY_CSV_EDITS = {
    "report fails": (0, "passed", lambda _: "false", True, True),
    "discrepancy above its gate": (1, "max_discrepancy", lambda _: "2e-06", True, True),
    "discrepancy one ulp off": (3, "max_discrepancy", lambda c: repr(float(_next_up(c))), True, False),
    "count changes": (5, "details", lambda c: c.replace('"pairs_checked":97', '"pairs_checked":48'), True, True),
    "trials change": (2, "trials", lambda _: "3", True, True),
    "worst case seed": (3, "worst_case_seed", lambda _: "7", True, False),
}


@pytest.mark.parametrize("same_stack", [True, False])
@pytest.mark.parametrize("edit", sorted(VERIFY_CSV_EDITS))
def test_comparator_on_verify_csv(edit, same_stack):
    report, column, change, *rejected = VERIFY_CSV_EDITS[edit]
    golden = (GOLDEN / "verify.csv").read_text()
    edited = _verify_cell_edited(report, column, change)
    assert edited != golden
    if rejected[not same_stack]:
        with pytest.raises(AssertionError):
            compare("verify.csv", edited, golden, same_stack=same_stack)
    else:
        compare("verify.csv", edited, golden, same_stack=same_stack)


def test_comparator_rejects_a_renamed_csv_feature_off_the_stack():
    name = "fit-tall-lasso.csv"
    golden = (GOLDEN / name).read_text()
    with pytest.raises(AssertionError):
        compare(name, golden.replace(",x2,", ",x9,"), golden, same_stack=False)


if __name__ == "__main__":
    for case in sys.argv[1:] or CASES:
        (GOLDEN / case).write_text(run_cli(CASES[case]), encoding="utf-8")
    (GOLDEN / "stack.json").write_text(json.dumps(recorded_stack()) + "\n", encoding="utf-8")
    sys.exit(0)
