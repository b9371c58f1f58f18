"""Entry points the benchmark runs in fresh child processes.

    python perfbench/child.py env
    python perfbench/child.py setup SCENARIO
    python perfbench/child.py fine_chain SCENARIO OUTDIR
    python perfbench/child.py traced SPANS_JSON OP_ID (cli ARGS... | fine_chain SCENARIO OUTDIR)
    python perfbench/child.py layers SCENARIO SEED N_T...

``datransport`` is imported from ``src`` through ``PYTHONPATH``; the runner
sets it, together with the BLAS and OpenMP thread counts.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter


def _fmt(x) -> str:
    return repr(float(x))


def cmd_env() -> int:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    print(json.dumps({
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": openblas, "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }, sort_keys=True))
    return 0


def cmd_setup(scenario: str) -> int:
    """What every solve pays before its first sweep: import, load, build, compile."""
    from datransport import PathSystem, ScenarioSpec

    built = ScenarioSpec.load(scenario).build()
    PathSystem(built.net, built.paths, mode=built.mode, config=built.config,
               joints=built.joints or None)
    return 0


def cmd_fine_chain(scenario: str, outdir: str) -> int:
    """One library ``solve()`` call: writes node marginals, the trace and a result file."""
    import numpy as np
    from datransport import ScenarioSpec, aggregate_marginals, check_property, solve

    built = ScenarioSpec.load(scenario).build()
    state, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
    checks = [check_property(p, built, state, report) for p in built.expected_properties]
    marginals = aggregate_marginals(state).m
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    centers = built.net.grid.centers
    lines = ["node,bin_center,mass,cap"]
    for node in built.paths[0].nodes:
        cap = built.net.capacity_for(node)
        lines += [f"{node},{_fmt(t)},{_fmt(m)},{_fmt(c)}"
                  for t, m, c in zip(centers, marginals[node], cap)]
    (out / "marginals.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    lines = ["iter,E0,ET,V,objective"]
    lines += [f"{i + 1},{_fmt(a)},{_fmt(b)},{_fmt(c)},{_fmt(d)}"
              for i, (a, b, c, d) in enumerate(zip(report.e0, report.et, report.v,
                                                    report.objective))]
    (out / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    residual = float(report.e0[-1] + report.et[-1] + report.v[-1])
    result = {
        "iterations": report.iterations,
        "residual": residual,
        "properties": {c.kind: c.passed for c in checks},
    }
    (out / "result.json").write_text(json.dumps(result, sort_keys=True) + "\n",
                                     encoding="utf-8")
    finite = all(np.all(np.isfinite(marginals[n])) for n in marginals) and math.isfinite(residual)
    return 0 if finite and all(c.passed for c in checks) else 3


def cmd_traced(spans_path: str, op_id: str, op: str, args: list[str]) -> int:
    """Run one operation with spans recorded around datransport's public functions."""
    start = perf_counter()
    import datransport.cli
    import_s = perf_counter() - start

    from tracing import Tracer

    tracer = Tracer(int(op_id))
    tracer.install()
    try:
        if op == "cli":
            code = datransport.cli.main(args)
        else:
            code = cmd_fine_chain(*args)
    finally:
        dump = tracer.dump()
        dump["import_s"] = import_s
        Path(spans_path).write_text(json.dumps(dump), encoding="utf-8")
    return code


def cmd_layers(scenario: str, seed: str, *sizes: str) -> int:
    """Standalone timings of layers that no operation isolates.

    The feasibility precheck on the workload's own instance, and one
    ``compute_messages`` call on the fine_chain route at each grid size.
    """
    from datransport import PathSystem, ScenarioSpec
    from datransport.scenarios import precheck_feasibility

    import workloads

    def median_time(fn, reps: int) -> float:
        fn()
        times = []
        for _ in range(reps):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        return statistics.median(times)

    built = ScenarioSpec.load(scenario).build()
    out = {"feasibility.check_s": median_time(lambda: precheck_feasibility(built), 20)}
    for n_t in map(int, sizes):
        fc = ScenarioSpec.from_dict(workloads.fine_chain(int(seed), n_t=n_t)).build()
        system = PathSystem(fc.net, fc.paths, mode=fc.mode, config=fc.config)
        state = system.initial_state()
        out[f"engine.messages_ms.nt{n_t}"] = 1e3 * median_time(
            lambda: system.compute_messages(state), 7)
    print(json.dumps(out, sort_keys=True))
    return 0


def main(argv: list[str]) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "env":
        return cmd_env()
    if cmd == "setup":
        return cmd_setup(*rest)
    if cmd == "fine_chain":
        return cmd_fine_chain(*rest)
    if cmd == "traced":
        return cmd_traced(rest[0], rest[1], rest[2], rest[3:])
    if cmd == "layers":
        return cmd_layers(*rest)
    raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
