"""datransport benchmark: closed-loop solve workloads timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shared_network --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client runs one operation at a time, back to back, for ``--seconds``
and at least two operations.  Every operation is
a fresh child process that imports ``datransport`` from ``src`` (through
``PYTHONPATH``), so its time includes the interpreter start and imports a
user's call pays.  BLAS and OpenMP threads are pinned to at most two.

With ``--trace 0`` the run reports the end-to-end metrics (``op_s``,
``setup_s``, ``peak_rss_mb``).  With ``--trace 1`` it runs the operation
once untraced, once with spans recorded around datransport's public
functions (see ``tracing.py``) and once with one BLAS thread, and reports
the per-layer metrics.  Every operation's outputs are checked; a failed
check counts the operation as failed.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")
THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPS = 6
MIN_OPS = 2
PLAN_TOP_K = 500
CHILD_TIMEOUT_S = 150.0

SCALE_NT = (100, 200, 400, 800)
# Reference profile of the shared three-route network (a 300-sweep cProfile
# of scenario_63_network): share of per-sweep engine time, (low, high) percent.
SPLIT_RANGES = {
    "messages": (40.0, 50.0),
    "sweep_self": (25.0, 30.0),
    "cost": (15.0, 20.0),
    "objective": (5.0, 12.0),
}


@dataclass
class Child:
    """Outcome of one child process: wall time, exit code, peak RSS and output."""

    wall_s: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], logdir: Path, threads: int = THREADS) -> Child:
    """Run ``argv`` from the checkout root and wait for it, reading its rusage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    out_path, err_path = logdir / "child.out", logdir / "child.err"
    waited: list = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            waited.extend([perf_counter(), status, usage])

        waiter = threading.Thread(target=reap)
        waiter.start()
        try:
            waiter.join(CHILD_TIMEOUT_S)
        finally:
            if waiter.is_alive():
                proc.kill()
                waiter.join()
    end, status, usage = waited
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(end - start, proc.returncode, usage.ru_maxrss / 1024.0,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


# ----------------------------------------------------------------------
# operations and their correctness checks


def op_argv(workload: str, scenario: Path, outdir: Path) -> tuple[str, list[str]]:
    """(kind, arguments) of one operation; kind is ``cli`` or ``fine_chain``."""
    if workload == "shared_network":
        return "cli", ["solve", str(scenario), "--output", str(outdir), "--check-properties"]
    if workload == "coupled_split":
        return "cli", ["extract-plan", str(scenario), "--top-k", str(PLAN_TOP_K),
                       "--output", str(outdir)]
    return "fine_chain", [str(scenario), str(outdir)]


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def _nonfinite(text: str) -> bool:
    """Any non-finite number in a CSV, except in ``cap`` (uncapped nodes have cap inf)."""
    lines = text.splitlines()
    skip = {i for i, col in enumerate(lines[0].split(",")) if col == "cap"} if lines else set()
    for row in _csv_rows(text):
        for i, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                continue
            if i not in skip and not math.isfinite(value):
                return True
    return False


def check_op(workload: str, spec: dict, outdir: Path,
             child: Child) -> tuple[list[str], dict[str, bytes]]:
    """Problems found in one operation's outputs, and the files to compare across runs.

    ``summary.json`` is compared with its ``wall_time_s`` field removed.
    """
    problems = []
    if child.code != 0:
        problems.append(f"exit code {child.code}: {child.stderr.strip()[-300:]}")
    files: dict[str, bytes] = {}
    if outdir.is_dir():
        for path in sorted(outdir.iterdir()):
            data = path.read_bytes()
            if path.name == "summary.json":
                summary = json.loads(data)
                summary.pop("wall_time_s", None)
                data = json.dumps(summary, sort_keys=True).encode()
            files[path.name] = data
    if not files:
        return problems + ["no output files"], files
    for name, data in files.items():
        if name.endswith(".csv") and _nonfinite(data.decode()):
            problems.append(f"non-finite value in {name}")

    if workload == "shared_network":
        summary = json.loads(files.get("summary.json", b"{}"))
        if summary.get("converged") is not True:
            problems.append("solve did not converge")
        n_props = len(spec["expected_properties"])
        if "[FAIL]" in child.stdout or child.stdout.count("[PASS]") != n_props:
            problems.append("expected property failed")
    elif workload == "coupled_split":
        totals = []
        for line in child.stdout.splitlines():
            if "mass)" in line:
                totals.append(float(line.rsplit(" of ", 1)[1].split()[0]))
        if len(totals) != 2 or abs(sum(totals) - 1.0) > 1e-5:
            problems.append(f"route masses {totals} do not sum to 1")
        for name in ("plan_p0.csv", "plan_p1.csv"):
            rows = _csv_rows(files.get(name, b"").decode())
            if len(rows) != PLAN_TOP_K:
                problems.append(f"{name} has {len(rows)} cells, want {PLAN_TOP_K}")
            elif not all(float(r[0]) < float(r[1]) < float(r[2]) and float(r[3]) > 0
                         for r in rows):
                problems.append(f"{name} has a cell out of time order or without mass")
    else:
        result = json.loads(files.get("result.json", b"{}"))
        if result.get("iterations") != spec["solver"]["max_iter"]:
            problems.append(f"ran {result.get('iterations')} sweeps")
        if not result.get("properties") or not all(result["properties"].values()):
            problems.append("expected property failed")
        if not math.isfinite(result.get("residual", math.nan)):
            problems.append("non-finite residual")
    return problems, files


def diff_files(ref: dict[str, bytes], got: dict[str, bytes]) -> list[str]:
    if sorted(ref) != sorted(got):
        return [f"output files {sorted(got)} differ from {sorted(ref)}"]
    return [f"{name} differs from the reference run" for name in ref if ref[name] != got[name]]


class Run:
    """One benchmark run of one workload: its scratch directory and operation log."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.spec = workloads.GENERATORS[workload](seed)
        self.scenario = workdir / f"{workload}.json"
        self.scenario.write_text(json.dumps(self.spec, sort_keys=True), encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, bytes] | None = None
        self.ops = 0

    def child(self, argv: list[str], threads: int = THREADS) -> Child:
        return run_child(argv, self.workdir, threads)

    def operation(self, traced_spans: Path | None = None, threads: int = THREADS,
                  compare: bool = True) -> tuple[Child, Path]:
        """Run one operation in its own output directory and check it."""
        self.ops += 1
        outdir = self.workdir / f"op{self.ops}"
        kind, args = op_argv(self.workload, self.scenario, outdir)
        if traced_spans is not None:
            argv = [sys.executable, CHILD, "traced", str(traced_spans), str(self.ops), kind, *args]
        elif kind == "cli":
            argv = [sys.executable, "-m", "datransport.cli", *args]
        else:
            argv = [sys.executable, CHILD, "fine_chain", *args]
        child = self.child(argv, threads)
        problems, files = check_op(self.workload, self.spec, outdir, child)
        if compare and not problems:
            if self.reference is None:
                self.reference = files
            else:
                problems += diff_files(self.reference, files)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op {self.ops} failed: {'; '.join(problems)}", flush=True)
        return child, outdir


# ----------------------------------------------------------------------
# the two kinds of run


def setup_times(run: Run, reps: int) -> list[float]:
    times = []
    for _ in range(reps):
        child = run.child([sys.executable, CHILD, "setup", str(run.scenario)])
        if child.code != 0:
            raise RuntimeError(f"setup failed: {child.stderr.strip()[-300:]}")
        times.append(child.wall_s)
    return times


def end_to_end(run: Run, seconds: float) -> dict:
    setup_times(run, 1)  # warm the file cache and the bytecode cache first
    # half the set-ups before the operations and half after, so that the
    # median spans the run rather than one burst of machine noise
    setups = setup_times(run, SETUP_REPS // 2)
    walls, rss = [], []
    deadline = perf_counter() + seconds
    while True:
        child, outdir = run.operation()
        walls.append(child.wall_s)
        rss.append(child.rss_mb)
        if outdir != run.workdir / "op1":
            shutil.rmtree(outdir, ignore_errors=True)
        if perf_counter() >= deadline and len(walls) >= MIN_OPS:
            break
    setups += setup_times(run, SETUP_REPS - SETUP_REPS // 2)
    return {"op_s": (walls, "s"), "setup_s": (setups, "s"), "peak_rss_mb": (rss, "MB")}


def per_layer(run: Run) -> dict:
    plain, _ = run.operation()
    spans_path = run.workdir / "spans.json"
    traced, traced_out = run.operation(traced_spans=spans_path)
    blas1, _ = run.operation(threads=1, compare=False)
    layers = run.child([sys.executable, CHILD, "layers", str(run.scenario), str(run.seed),
                        *map(str, SCALE_NT)])
    if layers.code != 0:
        raise RuntimeError(f"layer probe failed: {layers.stderr.strip()[-300:]}")
    probe = json.loads(layers.stdout.splitlines()[-1])
    if not spans_path.is_file():
        raise RuntimeError(f"traced operation wrote no spans: {traced.stderr.strip()[-300:]}")
    dump = json.loads(spans_path.read_text(encoding="utf-8"))
    spans = dump["spans"]
    totals = tracing.layer_totals(spans)

    def get(name: str, key: str = "total_s") -> float:
        return totals.get(name, {}).get(key, 0)

    sweeps = get("engine.sweep", "calls")
    phases = {"engine.messages", "engine.sweep", "engine.objective", "engine.cost"}
    phase_s = tracing.outermost_time(spans, phases)
    parts = {"messages": get("engine.messages"), "sweep_self": get("engine.sweep", "self_s"),
             "cost": get("engine.cost"), "objective": get("engine.objective")}
    part_sum = sum(parts.values()) or 1.0
    shares = {key: 100.0 * value / part_sum for key, value in parts.items()}
    m = {
        "scenarios.build_s": (get("scenarios.load") + get("scenarios.build"), "s"),
        "scenarios.check_s": (get("scenarios.check"), "s"),
        "kernels.build_s": (get("kernels.build"), "s"),
        "kernels.builds": (get("kernels.build", "calls"), "count"),
        "feasibility.check_s": (probe["feasibility.check_s"], "s"),
        "engine.sweeps": (sweeps, "count"),
        "engine.ms_per_sweep": (1e3 * phase_s / sweeps if sweeps else 0.0, "ms"),
        "engine.messages_s": (get("engine.messages"), "s"),
        "engine.messages_calls": (get("engine.messages", "calls"), "count"),
        "engine.sweep_self_s": (get("engine.sweep", "self_s"), "s"),
        "engine.objective_s": (get("engine.objective"), "s"),
        "engine.cost_s": (get("engine.cost"), "s"),
        "engine.marginals_s": (get("engine.marginals"), "s"),
        "engine.extract_s": (get("engine.extract"), "s"),
        "engine.extract_cells": (get("engine.extract", "count"), "count"),
        "engine.residual": (dump["last"].get("engine.sweep", 0.0), "1"),
    }
    curve = []
    for n_t in SCALE_NT:
        m[f"engine.messages_ms.nt{n_t}"] = (probe[f"engine.messages_ms.nt{n_t}"], "ms")
        curve.append(f"n_t={n_t}: {m[f'engine.messages_ms.nt{n_t}'][0]:.3g} ms, "
                     f"{n_t * n_t * 8} B per kernel")
    m["cli.import_s"] = (dump["import_s"], "s")
    m["cli.self_s"] = (get("cli.main", "self_s"), "s")
    m["cli.bytes_written"] = (sum(p.stat().st_size for p in traced_out.iterdir()), "B")
    m["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    m["op_s.blas1"] = (blas1.wall_s, "s")

    idle = sorted({t[2] for t in tracing.TARGETS} - {s[0] for s in spans})
    print(f"trace: {len(spans)} spans; wrapped names with no calls on this workload: "
          f"{', '.join(idle) or 'none'}; names not found: {', '.join(dump['missing']) or 'none'}")
    print("compute_messages on the fine_chain route (kernel bytes computed, all fit in L3): "
          + "; ".join(curve))
    split = []
    for key, (lo, hi) in SPLIT_RANGES.items():
        split.append(f"{key} {shares[key]:.1f}%")
        if run.workload == "shared_network":
            split[-1] += f" ({'in' if lo <= shares[key] <= hi else 'OUTSIDE'} {lo:g}-{hi:g})"
    print("per-sweep split: " + ", ".join(split))
    return {name: ([value], unit) for name, (value, unit) in m.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = ROOT / ".bench_build"
    bench.mkdir(exist_ok=True)
    workdir = bench / f"perfbench-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        run = Run(workload, seed, workdir)
        env = run.child([sys.executable, CHILD, "env"])
        if env.code != 0:
            raise RuntimeError(f"environment probe failed: {env.stderr.strip()[-300:]}")
        print(f"env: {env.stdout.strip()}")
        print(f"workload {workload}: seed {seed}, closed loop, 1 client, "
              f"{'traced' if trace else f'{seconds:g} s'}")
        metrics = per_layer(run) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    medians = {name: statistics.median(samples) for name, (samples, _) in metrics.items()}
    for name, (samples, unit) in metrics.items():
        line = f"  {name}: {medians[name]:.6g} {unit}"
        if len(samples) > 1:
            line += f" (median of {len(samples)}: {', '.join(f'{x:.4g}' for x in samples)})"
        print(line)
    print(f"  fail_rate: {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} operations failed)")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": medians[name], "unit": unit}
                    for name, (_, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.RUN_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "datransport" / "__init__.py").is_file():
        print(f"error: no datransport sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.GENERATORS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
