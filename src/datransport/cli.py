"""Command-line surface: scenarios, feasibility checks, solving, exports.

Exit codes: 0 success/converged, 2 invalid input (scenario, run dir, or
infeasible verdict from the feasibility subcommand), 3 solver did not
converge or stopped on a non-finite value, 4 target mass proved unreachable.

All data files are written deterministically (header row, '.' decimal,
LF line endings, UTF-8, shortest round-trip float formatting); wall time
appears only in summary.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path as FsPath

import numpy as np

from .errors import NonFiniteError, SizeCapError, TransportError, UnreachableMassError
from .grid_measures import TimeGrid
from .kernels import build_pair_kernel
from .reference_oracle import dense_sinkhorn, chain_cost_tensor
from .scenarios import (
    GENERATORS,
    BuiltScenario,
    ScenarioSpec,
    check_property,
    min_travel_delta,
    precheck_feasibility,
)
from .sinkhorn_engine import (check_path_index, check_plan_options, extract_plan,
                              node_marginals, solve)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CONVERGED = 3
EXIT_UNREACHABLE = 4


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: FsPath, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _load_scenario(path: str) -> tuple[ScenarioSpec, BuiltScenario] | None:
    try:
        spec = ScenarioSpec.load(path)
        return spec, spec.build()
    except (OSError, TransportError, ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid scenario {path}: {exc}", file=sys.stderr)
        return None


def _apply_overrides(built: BuiltScenario, args) -> None:
    """Replace the scenario's solver config by one with the CLI overrides, validated."""
    changes = {name: getattr(args, name) for name in ("epsilon", "tol", "max_iter")
               if getattr(args, name) is not None}
    built.config = replace(built.config, **changes)


def _node_role(built: BuiltScenario, node: str) -> str:
    if node in built.net.sources:
        return "source"
    if node in built.net.sinks:
        return "sink"
    return "interior"


def _run_solver(built: BuiltScenario):
    return solve(built.net, built.paths, mode=built.mode, config=built.config,
                 joints=built.joints or None)


def _write_run(outdir: FsPath, built: BuiltScenario, state, report, wall: float) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    centers = built.net.grid.centers
    marginals = node_marginals(state)
    nodes_manifest = {}
    path_nodes = {n for p in built.paths for n in p.nodes}
    for node in sorted(path_nodes):
        role = _node_role(built, node)
        cap = built.net.capacity_for(node)
        fname = f"{node}.csv"
        _write_csv(outdir / fname, ["bin_center", "mass", "cap"],
                   zip(centers, marginals[node], cap))
        nodes_manifest[node] = {"role": role, "file": fname}
    _write_csv(outdir / "trace.csv", ["iter", "E0", "ET", "V", "objective"],
               ((str(i + 1), report.e0[i], report.et[i], report.v[i], report.objective[i])
                for i in range(report.iterations)))
    summary = {
        "scenario": built.name,
        "mode": built.mode,
        "config": {
            "epsilon": built.config.epsilon,
            "tol": built.config.tol,
            "max_iter": built.config.max_iter,
        },
        "log_domain": state.system.log_domain,
        "final": {"E0": float(report.e0[-1]), "ET": float(report.et[-1]),
                  "V": float(report.v[-1])},
        "iterations": report.iterations,
        "converged": report.converged,
        "wall_time_s": wall,
        "nodes": nodes_manifest,
        "files": sorted([f"{n}.csv" for n in path_nodes] + ["trace.csv", "summary.json"]),
    }
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    (outdir / "summary.json").write_text(text + "\n", encoding="utf-8")
    return summary


def _cmd_scenario(args) -> int:
    name = args.name if args.name.startswith("scenario_") else f"scenario_{args.name}"
    if name not in GENERATORS:
        print(f"error: unknown scenario {args.name!r}; choose from {sorted(GENERATORS)}",
              file=sys.stderr)
        return EXIT_INVALID
    spec = GENERATORS[name]()
    if args.emit:
        spec.save(args.emit)
        print(f"wrote {args.emit}")
    else:
        sys.stdout.write(spec.to_json())
    return EXIT_OK


def _cmd_feasibility(args) -> int:
    loaded = _load_scenario(args.scenario)
    if loaded is None:
        return EXIT_INVALID
    _, built = loaded
    if args.delta is not None:
        built.delta = args.delta
    verdicts = precheck_feasibility(built)
    for path, verdict in verdicts:
        status = "feasible" if verdict.feasible else "infeasible"
        extra = "" if verdict.violation_time is None else f" violation near t={verdict.violation_time!r}"
        print(f"{path}: {status} delta={min_travel_delta(built, path)!r} "
              f"margin={verdict.margin!r}{extra}")
    return EXIT_OK if all(verdict.feasible for _, verdict in verdicts) else EXIT_INVALID


def _cmd_solve(args) -> int:
    loaded = _load_scenario(args.scenario)
    if loaded is None:
        return EXIT_INVALID
    _, built = loaded
    _apply_overrides(built, args)
    outdir = FsPath(args.output) if args.output else FsPath(f"{FsPath(args.scenario).stem}_out")
    start = time.perf_counter()
    state, report = _run_solver(built)
    wall = time.perf_counter() - start
    _write_run(outdir, built, state, report, wall)
    final = report.e0[-1] + report.et[-1] + report.v[-1]
    print(f"{built.name}: iterations={report.iterations} E0+ET+V={final:.3e} "
          f"converged={report.converged} -> {outdir}")
    if args.check_properties:
        ok = True
        for prop in built.expected_properties:
            result = check_property(prop, built, state, report)
            print(f"  [{'PASS' if result.passed else 'FAIL'}] {result.kind}: {result.detail}")
            ok &= result.passed
        if not ok:
            return EXIT_NOT_CONVERGED
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_extract_plan(args) -> int:
    loaded = _load_scenario(args.scenario)
    if loaded is None:
        return EXIT_INVALID
    _, built = loaded
    _apply_overrides(built, args)
    # the plan options are rejected before solving, like the overrides
    check_plan_options(args.max_cells, args.top_k, args.min_mass)
    if args.path_index is not None:
        check_path_index(args.path_index, len(built.paths))
    state, report = _run_solver(built)
    outdir = FsPath(args.output) if args.output else FsPath(f"{FsPath(args.scenario).stem}_plan")
    outdir.mkdir(parents=True, exist_ok=True)
    indices = range(len(built.paths)) if args.path_index is None else [args.path_index]
    for p_idx in indices:
        cells = extract_plan(state, p_idx, max_cells=args.max_cells,
                             top_k=args.top_k, min_mass=args.min_mass)
        header = [f"t{k}" for k in range(cells.path.n_p)] + ["mass"]
        rows = ([*(cells.times[i]), cells.mass[i]] for i in range(len(cells.mass)))
        _write_csv(outdir / f"plan_p{p_idx}.csv", header, rows)
        print(f"path {built.paths[p_idx]}: wrote {len(cells.mass)} cells "
              f"({cells.extracted_mass:.6f} of {cells.total_mass:.6f} mass)")
    return EXIT_OK if report.converged else EXIT_NOT_CONVERGED


def _cmd_plotdata(args) -> int:
    rundir = FsPath(args.rundir)
    summary_path = rundir / "summary.json"
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        rows = []
        for node, meta in sorted(summary["nodes"].items()):
            lines = (rundir / meta["file"]).read_text(encoding="utf-8").strip().splitlines()
            for ln in lines[1:]:
                center, mass, cap = ln.split(",")
                rows.append((node, center, mass, cap, meta["role"]))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: malformed run dir {rundir}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    out_lines = ["node,bin_center,mass,cap,role"]
    out_lines += [",".join(r) for r in rows]
    text = "\n".join(out_lines) + "\n"
    if args.output:
        FsPath(args.output).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    loaded = _load_scenario(args.scenario)
    if loaded is None:
        return EXIT_INVALID
    _, built = loaded
    path = built.paths[check_path_index(args.path_index, len(built.paths))]
    grid = built.net.grid
    weights = [built.net.weight(t, h) for t, h in zip(path.nodes[:-1], path.nodes[1:])]
    try:
        cost = chain_cost_tensor(grid.centers, weights)
        targets = [("eq", built.net.sources[path.source].mass)]
        for node in path.interior:
            targets.append(("ub", built.net.capacity_for(node)))
        targets.append(("eq", built.net.sinks[path.sink].mass))
        eps = args.epsilon if args.epsilon is not None else built.config.epsilon
        result = dense_sinkhorn(cost, targets, eps, args.iters)
    except (SizeCapError, UnreachableMassError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    sys.stdout.write("node,bin_center,mass\n")
    for pos, node in enumerate(path.nodes):
        for t, x in zip(grid.centers, result.marginals[pos]):
            sys.stdout.write(f"{node},{_fmt(t)},{_fmt(x)}\n")
    return EXIT_OK


def _cmd_inspect_kernel(args) -> int:
    grid = TimeGrid(t_f=args.t_f, n_t=args.n_t)
    kern = build_pair_kernel(grid, args.weight, args.epsilon)
    out_lines = ["s_center,t_center,k,log_k"]
    for i, s in enumerate(grid.centers):
        for j, t in enumerate(grid.centers):
            out_lines.append(f"{_fmt(s)},{_fmt(t)},{_fmt(kern.K[i, j])},{_fmt(kern.logK[i, j])}")
    text = "\n".join(out_lines) + "\n"
    if args.output:
        FsPath(args.output).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_solver_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=None, help="override regularization")
    p.add_argument("--tol", type=float, default=None, help="override stopping tolerance")
    p.add_argument("--max-iter", type=int, default=None, help="override iteration budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="datransport",
        description="Optimal transport on networks with departure-arrival time "
                    "profiles and nodal flow-rate capacities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenario", help="emit a stock scenario as JSON")
    p.add_argument("name", help="61 | 62_line | 63_network | 64_convergence")
    p.add_argument("--emit", default=None, help="output file (default: stdout)")
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("feasibility", help="shift-dominance feasibility check per path")
    p.add_argument("scenario")
    p.add_argument("--delta", type=float, default=None,
                   help="minimum travel time (default: edges * dt per path)")
    p.set_defaults(func=_cmd_feasibility)

    p = sub.add_parser("solve", help="run the solver and write marginals + trace")
    p.add_argument("scenario")
    p.add_argument("--output", default=None, help="output directory")
    p.add_argument("--check-properties", action="store_true",
                   help="evaluate the scenario's expected properties after solving")
    _add_solver_overrides(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("extract-plan", help="solve and export sparse plan cells per path")
    p.add_argument("scenario")
    p.add_argument("--output", default=None)
    p.add_argument("--path-index", type=int, default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--min-mass", type=float, default=0.0)
    p.add_argument("--max-cells", type=int, default=4_000_000)
    _add_solver_overrides(p)
    p.set_defaults(func=_cmd_extract_plan)

    p = sub.add_parser("plotdata", help="join a run dir into one tidy CSV")
    p.add_argument("rundir")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_plotdata)

    # debugging helpers, hidden from the top-level listing
    p = sub.add_parser("oracle")
    p.add_argument("scenario")
    p.add_argument("--path-index", type=int, default=0)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--epsilon", type=float, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("inspect-kernel")
    p.add_argument("--t-f", type=float, default=1.0)
    p.add_argument("--n-t", type=int, default=16)
    p.add_argument("--weight", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_inspect_kernel)

    return parser


# exit code of each error a command lets through; any other TransportError is invalid input
_EXIT_CODES = {NonFiniteError: EXIT_NOT_CONVERGED, UnreachableMassError: EXIT_UNREACHABLE}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TransportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_INVALID)


if __name__ == "__main__":
    sys.exit(main())
