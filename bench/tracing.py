"""Traced in-process run: spans and counters around the package's layers.

The wrappers replace module attributes where the callers look them up
(every ``puffer_lasso`` module that binds the function, including the
CLI's ``from`` imports) and are removed afterwards; nothing under src/
changes. The run makes three in-process passes over the workload's
commands through ``puffer_lasso.cli.main``: one untraced, to take the
tracing overhead against, then two traced, whose named counts must agree
exactly. Span times are the mean of the two traced passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import Child, Command

# Public functions wrapped in a span, by layer (module of puffer_lasso).
SPANS = {
    "cli": ("main", "load_dataset"),
    "linalg": ("svd", "gram_inverse_diagonal", "pseudoinverse_gram"),
    "preconditioners": (
        "puffer", "puffer_scaled", "puffer_tau", "scaling_matrix", "project_rowspace", "ridge_via_precond",
    ),
    "estimators": ("ols", "ridge", "z_stats", "sigma_hat", "inference", "p_values"),
    "solver": ("solve", "solve_path", "multistart_local_minima", "lambda_max"),
    "verify": (
        "default_suite", "check_lemma1", "check_theorem1", "check_theorem2", "check_theorem3",
        "check_lemma2", "check_local_min_gap", "check_generalized_theorem1", "check_generalized_theorem2",
    ),
}
# verify.<id>_s is the time spent in each certificate check.
CHECK_IDS = {
    "check_lemma1": "lemma1", "check_theorem1": "thm1", "check_theorem2": "thm2",
    "check_theorem3": "thm3", "check_lemma2": "lemma2", "check_local_min_gap": "eq10_gap",
    "check_generalized_theorem1": "thm1_general", "check_generalized_theorem2": "thm2_general",
}
# Counts that a deterministic program must repeat exactly between passes.
REPEATED = (
    "linalg.svd_calls", "solver.sweeps", "penalties.threshold_calls",
    "solver.solve_calls", "verify.thm3_nonconverged_excluded",
)


class Tracer:
    """Spans in memory, with per-name call counts, total and self time."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent id, name, start ns, end ns, command)
        self.stack: list[list[int]] = []  # [span id, ns covered by child spans]
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.command = ""
        self._next_id = 0

    def span(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self.stack[-1][0] if self.stack else None
            self.stack.append([sid, 0])
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                _, covered = self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += end - start
                self.calls[name] += 1
                self.total_ns[name] += end - start
                self.self_ns[name] += end - start - covered
                self.spans.append((sid, parent, name, start, end, self.command))
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return wrapper

    def threshold_counter(self, fn):
        counts = self.counts

        def counted(pen, z, lam):
            counts["penalties.threshold_calls"] += 1
            return fn(pen, z, lam)

        return counted

    def seconds(self, name: str, self_time: bool = False) -> float:
        return (self.self_ns if self_time else self.total_ns)[name] / 1e9


def _observe_solve(counts, args, fit):
    p = fit.beta.size
    counts["solver.sweeps"] += fit.iterations
    counts["solver.coord_updates"] += fit.iterations * p
    counts["solver.nonconverged"] += not fit.converged
    counts["solver.gram_mb_computed"] += p * p * 8 / 1e6


def _observe_multistart(counts, args, fits):
    counts["solver.minima_found"] += len(fits)


def _observe_load(counts, args, data):
    counts["cli.bytes_loaded"] += os.path.getsize(args[0])


def _observe_theorem3(counts, args, reports):
    # Both reports of one call carry the same count: take it once per
    # (penalty, tau) component, since merging keeps only the worst one's.
    counts["verify.thm3_nonconverged_excluded"] += reports[0].details.get("nonconverged_excluded", 0)


def _observe_gap(counts, args, report):
    counts["verify.eq10_pairs_checked"] += report.details.get("pairs_checked", 0)


OBSERVERS = {
    "solver.solve": _observe_solve,
    "solver.multistart_local_minima": _observe_multistart,
    "cli.load_dataset": _observe_load,
    "verify.check_theorem3": _observe_theorem3,
    "verify.check_local_min_gap": _observe_gap,
}


@contextlib.contextmanager
def installed(tracer: Tracer, package: dict):
    """Rebind every module attribute that names a wrapped function. A name
    the package no longer has is skipped, and its metrics read 0."""
    replacements = {}
    for layer, names in SPANS.items():
        for name in names:
            fn = getattr(package[layer], name, None)
            if fn is None:
                continue
            key = f"{layer}.{name}"
            replacements[id(fn)] = tracer.span(key, fn, OBSERVERS.get(key))
    threshold = package["penalties"].univariate_threshold
    replacements[id(threshold)] = tracer.threshold_counter(threshold)
    # The solver's binding is the one its sweep loop calls; verify's own
    # binding computes the certificates' reference side and stays uncounted.
    restore = []
    for module in package.values():
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and not (module is package["verify"] and value is threshold):
                restore.append((module, attr, value))
                setattr(module, attr, replacements[id(value)])
    try:
        yield
    finally:
        for module, attr, value in restore:
            setattr(module, attr, value)


def in_process_pass(main, commands: list[Command], tracer: Tracer | None = None) -> list[Child]:
    children = []
    for cmd in commands:
        if tracer is not None:
            tracer.command = cmd.name
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
        children.append(Child(wall, code, out.getvalue().encode(), err.getvalue().encode()))
    return children


def threshold_ns(penalties) -> dict[str, float]:
    """Median ns per ``univariate_threshold`` call over a fixed (z, lam)
    sample that reaches every branch: z = 0, both signs, each SCAD and MC+
    piece, and lam on both sides of the MC+ gamma and the SCAD a - 1."""
    sample = [(-12.0 + 0.1 * i, lam) for lam in (0.25, 1.0, 2.0, 3.5, 5.0) for i in range(241)]
    sample += [(0.0, lam) for lam in (0.25, 3.5)]
    f = penalties.univariate_threshold
    out = {}
    for pen in (penalties.lasso(), penalties.scad(), penalties.mcp()):
        per_call = []
        for _ in range(5):
            start = time.perf_counter_ns()
            for _ in range(20):
                for z, lam in sample:
                    f(pen, z, lam)
            per_call.append((time.perf_counter_ns() - start) / (20 * len(sample)))
        out[pen.kind] = statistics.median(per_call)
    return out


def _layer_metrics(t: Tracer) -> dict[str, float]:
    load_s = t.seconds("cli.load_dataset")
    m = {
        "cli.load_dataset_s": load_s,
        "cli.parse_mb_per_s": t.counts["cli.bytes_loaded"] / 1e6 / load_s if load_s else 0.0,
        "cli.serialize_s": t.seconds("cli.main", self_time=True),
        "linalg.svd_calls": t.calls["linalg.svd"],
        "linalg.svd_s": t.seconds("linalg.svd"),
        "preconditioners.transform_s": sum(
            t.seconds(f"preconditioners.{n}", self_time=True) for n in SPANS["preconditioners"]
        ),
        "estimators.inference_s": t.seconds("estimators.inference"),
        "estimators.ols_calls": t.calls["estimators.ols"],
        "penalties.threshold_calls": t.counts["penalties.threshold_calls"],
        "solver.solve_calls": t.calls["solver.solve"],
        "solver.solve_s": t.seconds("solver.solve"),
    }
    for name in ("sweeps", "coord_updates", "nonconverged", "gram_mb_computed"):
        m[f"solver.{name}"] = t.counts[f"solver.{name}"]
    m["solver.multistart_calls"] = t.calls["solver.multistart_local_minima"]
    m["solver.minima_found"] = t.counts["solver.minima_found"]
    for fn, check in CHECK_IDS.items():
        m[f"verify.{check}_s"] = t.seconds(f"verify.{fn}")
    m["verify.thm3_nonconverged_excluded"] = t.counts["verify.thm3_nonconverged_excluded"]
    m["verify.eq10_pairs_checked"] = t.counts["verify.eq10_pairs_checked"]
    return m


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "MB/s"
    if name.endswith("_s"):
        return "s"
    return "MB" if name.endswith("_mb_computed") else "count"


def _write_spans(t: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for sid, parent, name, start, end, command in t.spans:
            handle.write(json.dumps({"id": sid, "parent": parent, "name": name, "start_ns": start,
                                     "end_ns": end, "command": command}) + "\n")


def traced_run(commands: list[Command], src: Path, spans_path: Path):
    """Return the three passes, the per-layer metrics and any problems."""
    sys.path.insert(0, str(src))
    os.environ.pop("PUFFER_LASSO_THREADS", None)
    from puffer_lasso import cli, estimators, linalg, penalties, preconditioners, solver, verify

    package = {"cli": cli, "linalg": linalg, "preconditioners": preconditioners, "estimators": estimators,
               "penalties": penalties, "solver": solver, "verify": verify}
    untraced = in_process_pass(cli.main, commands)
    tracers, traced = [], []
    for _ in range(2):
        tracer = Tracer()
        with installed(tracer, package):
            traced.append(in_process_pass(cli.main, commands, tracer))
        tracers.append(tracer)
    _write_spans(tracers[0], spans_path)

    problems = []
    layers = [_layer_metrics(t) for t in tracers]
    for name in REPEATED:
        if layers[0][name] != layers[1][name]:
            problems.append(f"count {name} differs between traced passes: {layers[0][name]} vs {layers[1][name]}")
    for cmd, base, *runs in zip(commands, untraced, *traced):
        if any(r.stdout != base.stdout for r in runs):
            problems.append(f"tracing changed the output of {cmd.name}")

    metrics = {}
    for name, first in layers[0].items():
        unit = _unit(name)
        value = (first + layers[1][name]) / 2 if unit in ("s", "MB/s") else first
        metrics[name] = {"value": value, "unit": unit}
    for kind, ns in threshold_ns(penalties).items():
        metrics[f"penalties.threshold_ns.{kind}"] = {"value": ns, "unit": "ns"}
    untraced_s = sum(c.wall_s for c in untraced)
    traced_s = statistics.mean(sum(c.wall_s for c in run) for run in traced)
    metrics["trace.overhead_s"] = {"value": traced_s - untraced_s, "unit": "s"}
    return [untraced, *traced], metrics, problems
