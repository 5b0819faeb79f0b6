"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run). The heavy checks run once in
session-scoped fixtures and are shared across criteria.
"""

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import puffer_lasso
from puffer_lasso.penalties import lasso, mcp, pen_derivative, scad
from puffer_lasso.preconditioners import puffer_tau
from puffer_lasso.solver import (
    KKT_TOL,
    lambda_max,
    multistart_local_minima,
    solve,
    solve_path,
)
from puffer_lasso.verify import (
    THM3_PENALTIES,
    THM3_TAUS,
    check_generalized_theorem1,
    check_generalized_theorem2,
    check_lemma1,
    check_lemma2,
    check_local_min_gap,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    wide_problems,
)

SEED = 20240901


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def announce(criterion: str, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


def package_env() -> dict:
    """Environment for a child process that imports the same puffer_lasso as
    this one, from any working directory: the absolute directory holding the
    imported package goes first on PYTHONPATH, before any existing entries
    (a relative ``PYTHONPATH=src`` would resolve against the child's cwd)."""
    env = dict(os.environ)
    root = str(Path(puffer_lasso.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def lemma1_run():
    return timed(check_lemma1, trials=200, seed=SEED)


@pytest.fixture(scope="session")
def theorem1_run():
    return timed(check_theorem1, trials=200, seed=SEED + 1)


@pytest.fixture(scope="session")
def theorem2_run():
    return timed(check_theorem2, trials=200, seed=SEED + 2)


@pytest.fixture(scope="session")
def theorem3_run():
    start = time.perf_counter()
    reports = [
        check_theorem3(trials=8, pen=pen, tau=tau, seed=SEED + 3 + 13 * i)
        for i, (pen, tau) in enumerate(
            (pen, tau) for pen in THM3_PENALTIES for tau in THM3_TAUS
        )
    ]
    return reports, time.perf_counter() - start


def test_criterion_1_lemma1(lemma1_run):
    report, elapsed = lemma1_run
    ok = report.passed and report.trials >= 200 and elapsed < 30.0
    announce(
        "1 (orthonormal thresholding identity)",
        ok,
        f"max discrepancy {report.max_discrepancy:.3e} <= 1e-6 over "
        f"{report.trials} trials x 10 lambdas in {elapsed:.1f}s (< 30s)",
    )
    assert report.passed
    assert report.tolerance == 1e-6
    assert report.trials >= 200
    assert elapsed < 30.0


def test_criterion_2_theorem1(theorem1_run):
    report, elapsed = theorem1_run
    control = report.details["negative_control_max"]
    ok = report.passed and control > 1e-2 and elapsed < 60.0
    announce(
        "2 (full-rank preconditioned identity)",
        ok,
        f"max discrepancy {report.max_discrepancy:.3e} <= 1e-6 over {report.trials} trials; "
        f"negative control {control:.3f} > 1e-2; {elapsed:.1f}s (< 60s)",
    )
    assert report.passed
    assert report.trials >= 200
    assert control > 1e-2
    assert elapsed < 60.0


def test_criterion_3_theorem2(theorem2_run):
    report, elapsed = theorem2_run
    ok = (
        report.passed
        and report.details["set_mismatches"] == 0
        and report.details["rule_005_mismatches"] == 0
    )
    announce(
        "3 (selection equals Z-rule equals p-rule)",
        ok,
        f"0 mismatches over {report.trials} trials x 25 lambdas "
        f"({report.details['boundary_ties_excluded']} boundary ties excluded); "
        f"coefficient identity {report.max_discrepancy:.3e} <= 1e-6; "
        f"0.05-rule mismatches {report.details['rule_005_mismatches']}; {elapsed:.1f}s",
    )
    assert report.passed
    assert report.trials >= 200
    assert report.details["set_mismatches"] == 0
    assert report.details["rule_005_mismatches"] == 0


def test_criterion_4_theorem3(theorem3_run):
    reports, elapsed = theorem3_run
    worst_active = max(a.max_discrepancy for a, _ in reports)
    worst_inactive = max(i.max_discrepancy for _, i in reports)
    all_pass = all(a.passed and i.passed for a, i in reports)
    ok = all_pass and elapsed < 120.0
    announce(
        "4 (ridge gap identity at every local minimum)",
        ok,
        f"9 (penalty, tau) combinations x 8 trials; active gap {worst_active:.3e} <= 1e-6, "
        f"inactive slack {worst_inactive:.3e} <= 1e-6; {elapsed:.1f}s (< 120s)",
    )
    assert all_pass
    assert len(reports) == 9
    assert elapsed < 120.0


def test_criterion_5_lemma2():
    report, elapsed = timed(check_lemma2, trials=500, seed=SEED + 50)
    ok = report.passed and report.trials >= 500
    announce(
        "5 (projection and ridge factorization identities)",
        ok,
        f"max discrepancy {report.max_discrepancy:.3e} <= 1e-8 over {report.trials} tuples; "
        f"{elapsed:.1f}s",
    )
    assert report.passed
    assert report.tolerance == 1e-8
    assert report.trials >= 500


def test_criterion_6_local_minima_gap():
    report, elapsed = timed(check_local_min_gap, trials=48, seed=SEED + 60)
    ok = report.passed and report.details["pairs_checked"] >= 1
    announce(
        "6 (2-lambda gap between local minima)",
        ok,
        f"{report.details['pairs_checked']} pairs (same and cross penalty/lambda) within "
        f"bound; worst violation {report.max_discrepancy:.3e} <= 1e-6; {elapsed:.1f}s",
    )
    assert report.passed
    assert report.details["pairs_checked"] >= 1


def test_criterion_7_generalized_penalties():
    start = time.perf_counter()
    reports = []
    for i, pen in enumerate((scad(), mcp())):
        reports.append(check_generalized_theorem1(trials=100, pen=pen, seed=SEED + 70 + i))
        reports.append(check_generalized_theorem2(trials=100, pen=pen, seed=SEED + 80 + i))
    elapsed = time.perf_counter() - start
    worst = max(r.max_discrepancy for r in reports)
    ok = all(r.passed for r in reports) and all(r.trials >= 100 for r in reports)
    announce(
        "7 (SCAD/MC+ thresholding identities)",
        ok,
        f"4 identity/penalty combinations x 100 trials; worst {worst:.3e} <= 1e-6; {elapsed:.1f}s",
    )
    assert all(r.passed for r in reports)
    assert all(r.trials >= 100 for r in reports)


def test_criterion_8_kkt_certificates():
    # every converged fit must pass an independently recomputed
    # first-order check at the solver tolerance
    rng = np.random.default_rng(SEED)
    checked = 0
    start = time.perf_counter()

    def recheck(x, y, fit):
        nonlocal checked
        if not fit.converged:
            return
        grad = x.T @ (y - x @ fit.beta)
        worst = 0.0
        for j, b in enumerate(fit.beta):
            if b != 0.0:
                worst = max(worst, abs(grad[j] - fit.lam * pen_derivative(fit.penalty, float(b))))
            else:
                worst = max(worst, abs(grad[j]) - fit.lam)
        checked += 1
        assert worst <= KKT_TOL, f"independent KKT residual {worst:.3e} above {KKT_TOL}"

    for pen in (lasso(), scad(), mcp()):
        for trial in range(12):
            x = rng.standard_normal((14, 5))
            y = x @ rng.uniform(-2, 2, 5) + 0.4 * rng.standard_normal(14)
            top = lambda_max(x, y)
            for lam in (0.5 * top, 0.1 * top, 0.01 * top):
                recheck(x, y, solve(x, y, lam, pen))
            for fit in solve_path(x, y, np.geomspace(top, 1e-3 * top, 8), pen):
                recheck(x, y, fit)
    for trial in range(12):
        x, y, _ = wide_problems(SEED + trial)
        pair = puffer_tau(x, y, 0.0)
        lam = 0.3 * lambda_max(pair.x_tilde, pair.y_tilde)
        for pen in (scad(), mcp()):
            for fit in multistart_local_minima(pair.x_tilde, pair.y_tilde, lam, pen):
                recheck(pair.x_tilde, pair.y_tilde, fit)
    elapsed = time.perf_counter() - start
    announce(
        "8 (independent KKT certificates)",
        True,
        f"100% of {checked} converged fits pass at kkt_tol {KKT_TOL:g}; {elapsed:.1f}s",
    )
    assert checked >= 300


# The reports of verify --seed 0 in order: id, trials, tolerance and the
# details keys in order, with every integer count pinned (None: the key
# must be present, its value is not pinned).
VERIFY_SEED0_REPORTS = [
    ("lemma1", 200, 1e-6, {}),
    ("thm1", 200, 1e-6, {"negative_control_max": None}),
    ("thm2", 200, 1e-6, {
        "set_mismatches": 0, "rule_005_mismatches": 0, "boundary_ties_excluded": 0,
        "negative_control_max": None,
    }),
    ("thm3_active", 72, 1e-6, {"penalty": None, "tau": None, "nonconverged_excluded": 0, "components": 9}),
    ("thm3_inactive", 72, 1e-6, {"penalty": None, "tau": None, "nonconverged_excluded": 0, "components": 9}),
    ("eq10_gap", 48, 1e-6, {"pairs_checked": 3081, "trials_without_pairs": 0, "nonconverged_excluded": 0}),
    ("lemma2", 500, 1e-8, {}),
    ("thm1_general", 120, 1e-6, {"penalty": None, "components": 2}),
    ("thm2_general", 120, 1e-6, {"penalty": None, "components": 2}),
]


# sha256 of the output of verify --seed 0 on the stack the goldens were
# recorded on (tests/golden/stack.json), with any number of BLAS threads
VERIFY_SEED0_SHA256 = "e9d28d005cdcc430f105c4afc54d965a451d7f66b693d03b7a442657f70b0120"
STACK = Path(__file__).resolve().parent / "golden" / "stack.json"
# wide factorizations (linalg._wide_svd calls) that verify --seed 0 makes:
# 620 in puffer_tau, one per trial; 72 in the projectors of thm3 at tau = 0
# and of eq10_gap, one per trial; and 125 in lemma2's direct projections,
# one per tau = 0 trial. Each projected vector took its own: 4,644 in all.
VERIFY_SEED0_WIDE_FACTORIZATIONS = 817
# X'X rows (solver._Gram.__missing__ calls) that verify --seed 0 builds on
# the recorded stack; a store that dropped each released row at once built
# 47,093
VERIFY_SEED0_ROWS_BUILT = 6869
# python -m puffer_lasso with linalg._wide_svd and solver._Gram.__missing__
# counted; the counts are the last two stderr lines
COUNTED_MAIN = """
import runpy, sys
from puffer_lasso import linalg, solver
calls, factor = [], linalg._wide_svd
linalg._wide_svd = lambda m: calls.append(None) or factor(m)
rows, build = [], solver._Gram.__missing__
solver._Gram.__missing__ = lambda self, j: rows.append(None) or build(self, j)
try:
    runpy.run_module("puffer_lasso", run_name="__main__", alter_sys=True)
finally:
    print(f"wide factorizations: {len(calls)}", file=sys.stderr)
    print(f"X'X rows built: {len(rows)}", file=sys.stderr)
"""


def test_criterion_9_cli_verify_end_to_end(tmp_path):
    out = tmp_path / "verify.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", COUNTED_MAIN, "verify", "--seed", "0", "--output", str(out)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=package_env(),
        timeout=300,
    )
    elapsed = time.perf_counter() - start
    payload = json.loads(out.read_text()) if out.exists() else {}
    reports = payload.get("result", {}).get("reports", [])
    ok = proc.returncode == 0 and elapsed < 300.0 and len(reports) == 9
    announce(
        "9 (CLI verify end to end)",
        ok,
        f"exit {proc.returncode}; {len(reports)} reports, all_passed="
        f"{payload.get('result', {}).get('all_passed')}; {elapsed:.1f}s (< 300s)",
    )
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 300.0
    assert len(reports) == 9
    factorizations, rows = proc.stderr.splitlines()[-2:]
    assert factorizations == f"wide factorizations: {VERIFY_SEED0_WIDE_FACTORIZATIONS}"
    assert payload["result"]["all_passed"] is True
    assert [r["theorem_id"] for r in reports] == [e[0] for e in VERIFY_SEED0_REPORTS]
    for r, (theorem_id, trials, tolerance, details) in zip(reports, VERIFY_SEED0_REPORTS):
        assert (r["trials"], r["tolerance"], r["passed"]) == (trials, tolerance, True), theorem_id
        assert list(r["details"]) == list(details), theorem_id
        counts = {k: v for k, v in details.items() if v is not None}
        assert {k: r["details"][k] for k in counts} == counts, theorem_id
    if json.loads(STACK.read_text()) == {"numpy": np.__version__, "machine": platform.machine()}:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SEED0_SHA256
        assert rows == f"X'X rows built: {VERIFY_SEED0_ROWS_BUILT}"


def test_readme_quick_start_runs(tmp_path):
    # the README's python block, run against the package under test, so
    # that an API change cannot leave the documented example broken
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=tmp_path, env=package_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
