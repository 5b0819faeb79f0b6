"""End-to-end benchmark of the puffer-lasso CLI.

Run from the repository root:

    python3 bench/run.py --workload tall_cli --seed 1 --seconds 20 --trace 0

--trace 0 times the CLI in child processes, one at a time, and reports
the end-to-end metrics. Times are CPU seconds (user + system) of each
command, and numpy's BLAS runs one thread, so that a busy host slows the
wall clock but not the figures. --trace 1 runs the same commands in this
process through ``puffer_lasso.cli.main`` with span and counter wrappers around
the package's layers (see tracing.py) and reports the per-layer metrics.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. The exit
code is nonzero when any output fails its oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

# One BLAS thread, set before numpy is first imported, here and in every
# command: on a shared two-core host, a second BLAS thread mostly measures
# the scheduler (spin-waits of seconds on an otherwise 1 s command).
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import workloads  # noqa: E402
from workloads import Child, Command, Outcome  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 21


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PUFFER_LASSO_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], env: dict) -> Child:
    """Run one command through spawn.py, draining its stdout and the
    spawner's report through pipes."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "spawn.py"), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 20)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    if proc.wait() != 0:
        raise RuntimeError(f"spawn.py failed: {b''.join(chunks[proc.stderr]).decode(errors='replace')}")
    report = json.loads(b"".join(chunks[proc.stderr]))
    return Child(
        wall_s=report["wall_s"],
        cpu_s=report["cpu_s"],
        code=report["code"],
        stdout=b"".join(chunks[proc.stdout]),
        stderr=report["stderr"].encode(),
        maxrss_mb=report["maxrss_mb"],
    )


def timed_passes(commands: list[Command], seconds: float) -> list[list[Child]]:
    """Repeat the workload's commands, sequentially, while another pass
    still fits in ``seconds``; at least one pass. An output equal to the
    first pass's shares its bytes, so repeats cost no memory."""
    env = child_env()
    passes = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        children = [run_child([sys.executable, "-m", "puffer_lasso", *c.argv], env) for c in commands]
        if passes:
            children = [replace(c, stdout=f.stdout) if c.stdout == f.stdout else c
                        for c, f in zip(children, passes[0])]
        passes.append(children)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def check_passes(commands: list[Command], passes: list[list[Child]]):
    """Oracle outcome of every output, plus a self-test on the first pass:
    a corrupted copy of each good output must be rejected."""
    total = Outcome(attempted=0)
    digests: dict[str, list[str]] = {c.name: [] for c in commands}
    seen: dict[tuple[str, str], Outcome] = {}
    for children in passes:
        for cmd, child in zip(commands, children):
            digest = hashlib.sha256(child.stdout).hexdigest()
            digests[cmd.name].append(digest)
            key = (cmd.name, digest)
            if key not in seen or child.code != 0:  # identical bytes, identical verdict
                seen[key] = workloads.evaluate(cmd, child)
            out = seen[key]
            total.attempted += out.attempted
            total.failed += out.failed
            total.mismatches.extend(out.mismatches)
    for cmd, child in zip(commands, passes[0]):
        if child.code == 0:
            bad = Child(child.wall_s, 0, workloads.corrupt(child.stdout), b"", child.cpu_s)
            if not workloads.evaluate(cmd, bad).mismatches:
                total.mismatch(f"self-test: a corrupted {cmd.name} output was accepted")
    return total, digests


def setup_samples() -> list[float]:
    """CPU seconds of interpreter start plus ``import puffer_lasso``, each
    in a fresh process."""
    env = child_env()
    argv = [sys.executable, "-c", "import puffer_lasso"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        child = run_child(argv, env)
        if child.code != 0:
            raise SystemExit(f"cannot import puffer_lasso: {child.stderr.decode(errors='replace')}")
        samples.append(child.cpu_s)
    return samples


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<40} {value:>16.6f} {unit:<6} {note}")


def end_to_end(commands, passes, setup) -> dict:
    cpus = [sum(c.cpu_s for c in children) for children in passes]
    walls = [sum(c.wall_s for c in children) for children in passes]
    rss = [max(c.maxrss_mb for c in children) for children in passes]
    k = len(passes)
    show("setup_s", statistics.median(setup), "s", f"CPU, median of {len(setup)}")
    show("cpu_s", statistics.median(cpus), "s", f"median of {k} passes")
    show("wall_s", statistics.median(walls), "s", f"median of {k} passes")
    for i, cmd in enumerate(commands):
        show(f"{cmd.name}_s", statistics.median(p[i].wall_s for p in passes), "s", f"median of {k}")
        show(f"{cmd.name}_cpu_s", statistics.median(p[i].cpu_s for p in passes), "s", f"CPU, median of {k}")
    show("peak_rss_mb", statistics.median(rss), "MB", f"median of {k}")
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "puffer_lasso" / "__init__.py").is_file():
        print(f"bench: no puffer_lasso package under {SRC}", file=sys.stderr)
        return 2

    # Inputs are named relative to the root, so that the paths echoed in the
    # CLI's output, and hence its digests, do not depend on the checkout.
    os.chdir(ROOT)
    workdir = Path("bench", ".work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        commands = workloads.build(args.workload, args.seed, workdir)
        print(f"bench {args.workload} seed={args.seed} trace={args.trace}")
        if args.trace:
            import tracing

            spans = Path("bench", ".out", f"spans-{args.workload}-seed{args.seed}.jsonl")
            passes, metrics, problems = tracing.traced_run(commands, SRC, spans)
            for name, value in metrics.items():
                show(name, value["value"], value["unit"])
        else:
            setup = setup_samples()
            passes = timed_passes(commands, args.seconds)
            metrics = end_to_end(commands, passes, setup)
            problems = []
        total, digests = check_passes(commands, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatches = problems + total.mismatches
    show("fail_ratio", total.failed / total.attempted, "1", f"{total.failed} of {total.attempted} operations")
    for name, seen in digests.items():
        print(f"  sha256 {name:<14} {' '.join(sorted(set(seen)))}")
    for what in mismatches[:20]:
        print(f"  MISMATCH {what}")
    if len(mismatches) > 20:
        print(f"  ... and {len(mismatches) - 20} more mismatches")
    correct = not mismatches
    print(json.dumps({"correct": correct, "attempted": total.attempted, "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
