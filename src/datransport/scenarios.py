"""Replayable benchmark scenarios and the scenario JSON schema.

A scenario file fully describes a solve: grid, nodes, edges, boundary
marginals (mixtures or explicit mass vectors), capacity densities,
admissible paths, solver configuration, and a list of machine-checkable
expected properties.  Generators for the four stock scenarios live here;
their mixture parameters and edge weights are library defaults, exposed in
the emitted JSON so they can be overridden.
"""

from __future__ import annotations

import json
import numbers
import sys
from dataclasses import dataclass, fields
from pathlib import Path as FsPath

import numpy as np

from .errors import BadParamError, ScenarioFormatError
from .grid_measures import JointMeasure, Measure, TimeGrid, gaussian_mixture
from .messages import _Log, _lse_matmul
from .network import CapacityProfile, Path, TransportNetwork, validate_paths
# perfbench's tracer wraps ``datransport.scenarios.extract_plan`` by name
from .plans import extract_plan
from .sinkhorn_engine import (
    ConvergenceReport,
    ModelMarginals,
    SinkhornState,
    SolverConfig,
    _real,
    aggregate_marginals,
)


@dataclass(eq=False)
class BuiltScenario:
    name: str
    net: TransportNetwork
    paths: list[Path]
    config: SolverConfig
    mode: str
    joints: dict[tuple[str, str], JointMeasure]
    expected_properties: list[dict]
    delta: float | None

    def __post_init__(self):
        if self.delta is not None:
            self.delta = _real("delta", self.delta)
            if not 0 <= self.delta < np.inf:
                raise BadParamError(f"delta must be finite and nonnegative, got {self.delta}")


@dataclass(eq=False)
class ScenarioSpec:
    """Validated scenario dictionary; round-trips losslessly through JSON."""

    name: str
    data: dict

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise ScenarioFormatError("scenario must be a JSON object")
        for key in ("grid", "nodes", "edges", "sources", "sinks", "paths"):
            if key not in data:
                raise ScenarioFormatError(f"scenario missing required key {key!r}")
        return cls(name=str(data.get("name", "scenario")), data=data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            return cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"invalid JSON: {exc}") from exc

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        return cls.from_json(FsPath(path).read_text(encoding="utf-8"))

    def to_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True) + "\n"

    # ------------------------------------------------------------------

    def build(self) -> BuiltScenario:
        d = self.data
        try:
            grid = TimeGrid(t_f=_real("grid t_f", d["grid"]["t_f"]), n_t=d["grid"]["n_t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioFormatError(f"bad grid spec: {exc}") from exc
        mode = d.get("mode", "independent")
        if mode not in ("independent", "coupled"):
            raise ScenarioFormatError(f"mode must be independent or coupled, got {mode!r}")

        joints: dict[tuple[str, str], JointMeasure] = {}
        for j in d.get("joints", []):
            pair = (str(j["source"]), str(j["sink"]))
            if pair in joints:
                raise ScenarioFormatError(f"joint target for pair {pair} is given twice")
            joints[pair] = JointMeasure(grid, np.asarray(j["mass"], dtype=float))

        sources = self._boundary_measures(d["sources"], grid, joints, mode, axis=0)
        sinks = self._boundary_measures(d["sinks"], grid, joints, mode, axis=1)

        edges = {}
        for e in d["edges"]:
            if len(e) != 3:
                raise ScenarioFormatError(f"edge entries are [tail, head, weight], got {e!r}")
            edge = (str(e[0]), str(e[1]))
            if edge in edges:
                raise ScenarioFormatError(f"edge {e[0]}->{e[1]} is given twice")
            edges[edge] = _real(f"weight of edge {e[0]}->{e[1]}", e[2])

        capacities = {}
        for node, density in _object(d, "capacities").items():
            name = f"capacity density of {node}"
            capacities[str(node)] = CapacityProfile.from_density(
                grid, [_real(name, x) for x in density] if isinstance(density, list)
                else _real(name, density))

        nodes = tuple(str(n) for n in _array("nodes", d["nodes"]))
        net = TransportNetwork(grid=grid, nodes=nodes, edges=edges, sources=sources, sinks=sinks,
                               capacities=capacities)
        paths = [Path(tuple(_array("each path", p))) for p in _array("paths", d["paths"])]
        validate_paths(net, paths, joints, mode)

        solver = dict(_object(d, "solver"))
        # files written while the sweep was a choice may still name it
        if solver.pop("sweep", "gauss-seidel") != "gauss-seidel":
            raise ScenarioFormatError('Jacobi sweeps were retired; solver "sweep" may only '
                                      'be "gauss-seidel"')
        # ... or the numeric domain, which the engine now picks: always log in
        # independent mode; in coupled mode log only where a linear chain underflows
        log_domain = solver.pop("log_domain", None)
        if not (log_domain is None or (log_domain is True and mode == "independent")):
            raise ScenarioFormatError(
                f'solver "log_domain" may only be null, or true in independent mode: the '
                f'engine picks the numeric domain, linear in coupled mode unless a neutral '
                f'chain underflows (got {log_domain!r} in {mode} mode)')
        known = {f.name for f in fields(SolverConfig)}
        unknown = sorted(set(solver) - known)
        if unknown:
            raise ScenarioFormatError(f"unknown solver keys {unknown}; "
                                      f"known keys are {sorted(known)}")
        config = SolverConfig(**solver)
        expected = d.get("expected_properties", [])
        if not isinstance(expected, list):
            raise ScenarioFormatError(f"expected_properties must be a list, got {expected!r}")
        for prop in expected:
            _property_params(prop)
        return BuiltScenario(name=self.name, net=net, paths=paths, config=config,
                             mode=mode, joints=joints, expected_properties=list(expected),
                             delta=d.get("delta"))

    @staticmethod
    def _boundary_measures(entries, grid: TimeGrid, joints, mode: str,
                           axis: int) -> dict[str, Measure]:
        out: dict[str, Measure] = {}
        for entry in entries:
            node = str(entry["node"])
            if node in out:
                raise ScenarioFormatError(f"boundary node {node} is given twice in "
                                          f"{'sinks' if axis else 'sources'}")
            marg = entry.get("marginal")
            if marg is not None and mode == "coupled":
                # the engine matches the joints only, so a second law could only contradict them
                raise ScenarioFormatError(f"coupled boundary node {node} takes its law from "
                                          f"the joints and may not carry a marginal")
            if marg is None:
                # derive the boundary law from the joints
                sums = [jm.mass.sum(axis=1 - axis) for pair, jm in joints.items()
                        if pair[axis] == node]
                if not sums:
                    raise ScenarioFormatError(f"no marginal and no joint law for node {node}")
                out[node] = Measure(grid, sum(sums, np.zeros(grid.n_t)))
            elif isinstance(marg, dict) and "mixture" in marg:
                out[node] = gaussian_mixture(grid, [tuple(c) for c in marg["mixture"]])
            elif isinstance(marg, dict) and "mass" in marg:
                out[node] = Measure(grid, np.asarray(marg["mass"], dtype=float))
            elif isinstance(marg, list):
                out[node] = Measure(grid, np.asarray(marg, dtype=float))
            else:
                raise ScenarioFormatError(f"unrecognized marginal spec for node {node}: {marg!r}")
        return out


def _object(d: dict, key: str) -> dict:
    """The optional JSON object ``d[key]``, {} when absent; anything else raises."""
    value = d.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{key} must be a JSON object, got {value!r}")
    return value


def _array(name: str, value) -> list:
    """``value`` if it is a JSON array; anything else, a string too, raises."""
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{name} must be a JSON array, got {value!r}")
    return value


def min_travel_delta(built: BuiltScenario, path: Path) -> float:
    """Default feasibility shift: the grid-enforced minimum travel time."""
    if built.delta is not None:
        return built.delta
    return path.n_edges * built.net.grid.dt


def precheck_feasibility(built: BuiltScenario) -> list[tuple[Path, object]]:
    """Advisory shift-dominance verdicts per path (normalized boundary laws)."""
    from .feasibility import check_da_feasibility  # loaded on first use only

    out = []
    for path in built.paths:
        mu0 = built.net.sources[path.source].normalized()
        muT = built.net.sinks[path.sink].normalized()
        out.append((path, check_da_feasibility(mu0, muT, min_travel_delta(built, path))))
    return out


# ----------------------------------------------------------------------
# stock scenarios


def _mixture(weight_mean_std) -> dict:
    return {"mixture": [list(c) for c in weight_mean_std]}


def scenario_61() -> ScenarioSpec:
    """Single interior crossing with a flat rate cap, independent DA."""
    data = {
        "name": "scenario_61",
        "grid": {"t_f": 1.0, "n_t": 100},
        "nodes": ["v0", "v1", "vT"],
        "edges": [["v0", "v1", 1.0], ["v1", "vT", 1.0]],
        "sources": [{"node": "v0", "marginal": _mixture([(1.0, 0.2, 0.05)])}],
        "sinks": [{"node": "vT", "marginal": _mixture([(1.0, 0.8, 0.05)])}],
        "capacities": {"v1": 2.0},
        "paths": [["v0", "v1", "vT"]],
        "solver": {"epsilon": 0.02, "tol": 1e-9, "max_iter": 5000},
        "mode": "independent",
        "expected_properties": [
            {"kind": "capacity_satisfied", "tol": 1e-8},
            {"kind": "boundary_match", "tol": 1e-6},
            {"kind": "monotone_strand", "ridge_floor": 0.01},
        ],
    }
    return ScenarioSpec.from_dict(data)


def scenario_62_line() -> ScenarioSpec:
    """Seven-node line with five interior crossings and time-varying caps."""
    grid = TimeGrid(t_f=1.0, n_t=100)
    t = grid.centers
    capacities = {}
    for k in range(1, 6):
        center = 0.2 + 0.1 * k
        density = 2.2 - 1.4 * np.exp(-((t - center) / 0.1) ** 2)
        capacities[f"v{k}"] = [float(x) for x in density]
    nodes = ["v0", "v1", "v2", "v3", "v4", "v5", "vT"]
    edges = [[a, b, 1.0] for a, b in zip(nodes[:-1], nodes[1:])]
    data = {
        "name": "scenario_62_line",
        "grid": {"t_f": 1.0, "n_t": 100},
        "nodes": nodes,
        "edges": edges,
        "sources": [{"node": "v0", "marginal": _mixture([(1.0, 0.15, 0.05)])}],
        "sinks": [{"node": "vT", "marginal": _mixture([(1.0, 0.85, 0.05)])}],
        "capacities": capacities,
        "paths": [nodes],
        "solver": {"epsilon": 0.05, "tol": 1e-8, "max_iter": 20000},
        "mode": "independent",
        "expected_properties": [
            {"kind": "capacity_satisfied", "tol": 1e-8},
            {"kind": "boundary_match", "tol": 1e-6},
        ],
    }
    return ScenarioSpec.from_dict(data)


def _grid_network_63() -> dict:
    # the 1.4 rate cap forces over 70% of the horizon's nodal throughput to
    # be used; boundary laws at stddev 0.05 make the resulting plateau so
    # stiff that plain block ascent contracts at ~0.99995 per sweep, hence
    # the wider 0.10 default here.  Even at 0.10 plain sweeps need about
    # 20,000 sweeps to tol 1e-8; the Anderson mixing in ``solve`` gets there
    # in about 1,300
    nodes = ["v0", "v1", "v2", "v3", "v4", "v5", "v6", "vT"]
    edges = [["v0", "v1", 1.0], ["v0", "v2", 1.0],
             ["v1", "v3", 1.0], ["v2", "v3", 1.0],
             ["v3", "v4", 1.0],
             ["v4", "v5", 1.0], ["v4", "v6", 1.0],
             ["v5", "vT", 1.0], ["v6", "vT", 1.0]]
    paths = [["v0", "v2", "v3", "v4", "v6", "vT"],
             ["v0", "v1", "v3", "v4", "v5", "vT"],
             ["v0", "v2", "v3", "v4", "v5", "vT"]]
    return {
        "grid": {"t_f": 1.0, "n_t": 100},
        "nodes": nodes,
        "edges": edges,
        "sources": [{"node": "v0", "marginal": _mixture([(1.0, 0.2, 0.10)])}],
        "sinks": [{"node": "vT", "marginal": _mixture([(1.0, 0.8, 0.10)])}],
        "capacities": {f"v{k}": 1.4 for k in range(1, 7)},
        "paths": paths,
        "mode": "independent",
    }


def scenario_63_network() -> ScenarioSpec:
    """Three admissible routes sharing two middle nodes, uniform rate cap."""
    data = _grid_network_63()
    data["name"] = "scenario_63_network"
    data["solver"] = {"epsilon": 0.2, "tol": 1e-8, "max_iter": 40000}
    data["expected_properties"] = [
        {"kind": "capacity_satisfied", "tol": 1e-8},
        {"kind": "mass_delivered", "tol": 1e-8},
        {"kind": "boundary_match", "tol": 1e-6},
    ]
    return ScenarioSpec.from_dict(data)


def scenario_64_convergence() -> ScenarioSpec:
    """Same topology as the three-route network, run for a fixed 1500 sweeps."""
    data = _grid_network_63()
    data["name"] = "scenario_64_convergence"
    data["solver"] = {"epsilon": 0.2, "tol": 0.0, "max_iter": 1500}
    data["expected_properties"] = [
        {"kind": "trace_length", "length": 1500},
        {"kind": "linear_convergence", "start": 200, "min_r2": 0.95},
    ]
    return ScenarioSpec.from_dict(data)


GENERATORS = {
    "scenario_61": scenario_61,
    "scenario_62_line": scenario_62_line,
    "scenario_63_network": scenario_63_network,
    "scenario_64_convergence": scenario_64_convergence,
}


# ----------------------------------------------------------------------
# expected-property checks


# each expected property kind's parameters and their defaults (None: required).
# A parameter is a finite number; ``start`` and ``length`` count sweeps, and
# they and ``tol`` are nonnegative; ``ridge_floor`` lies in [0, 1]
PROPERTY_KINDS = {
    "capacity_satisfied": {"tol": 1e-8},
    "boundary_match": {"tol": 1e-6},
    "mass_delivered": {"tol": 1e-8},
    "monotone_strand": {"ridge_floor": 0.01},
    "linear_convergence": {"start": 200, "min_r2": 0.95},
    "trace_length": {"length": None},
}


def _property_params(prop) -> dict:
    """A property's parameters, defaults filled in; a bad entry raises ScenarioFormatError."""
    kind = prop.get("kind") if isinstance(prop, dict) else None
    if not isinstance(kind, str) or kind not in PROPERTY_KINDS:
        raise ScenarioFormatError(f"unknown expected property kind in {prop!r}; "
                                  f"known kinds are {sorted(PROPERTY_KINDS)}")
    params = {**PROPERTY_KINDS[kind], **prop}
    del params["kind"]
    if set(params) != set(PROPERTY_KINDS[kind]):
        raise ScenarioFormatError(f"{kind} takes the parameters {sorted(PROPERTY_KINDS[kind])}, "
                                  f"got {sorted(set(prop) - {'kind'})}")
    for name, value in params.items():
        count, nonnegative = name in ("start", "length"), name in ("start", "length", "tol")
        if (isinstance(value, bool)
                or not isinstance(value, numbers.Integral if count else numbers.Real)
                or not abs(value) <= sys.float_info.max  # NaN and inf fail
                or nonnegative and value < 0):
            raise ScenarioFormatError(f"{kind} {name} must be a finite{' nonnegative' * nonnegative}"
                                      f" {'integer' if count else 'number'}, got {value!r}")
        if name == "ridge_floor" and not 0 <= value <= 1:  # above 1 no column is kept
            raise ScenarioFormatError(f"{kind} ridge_floor must lie in [0, 1], got {value!r}")
        params[name] = int(value) if count else float(value)
    return params


@dataclass(frozen=True)
class PropertyResult:
    kind: str
    passed: bool
    value: float
    detail: str


def _log_linear_fit(values: np.ndarray, start: int) -> tuple[float, float]:
    """Least-squares slope and R^2 of log10(values) from iteration ``start``.

    In closed form on the centred data, slope = sum(dx * dy) / sum(dx**2):
    numpy's LAPACK line fit would map about 1 MB of LAPACK code into the process.
    """
    y = np.log10(np.maximum(values[start:], 1e-300))
    dx = np.arange(y.size) - (y.size - 1) / 2
    dy = y - y.mean()
    slope = float(dx @ dy) / float(dx @ dx)
    residual = dy - slope * dx
    ss_res, ss_tot = float(residual @ residual), float(dy @ dy)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return slope, r2


def _pairwise_comonotone(cells: np.ndarray) -> bool:
    """No crossing pair in any consecutive coordinate projection."""
    return not any(np.any(np.subtract.outer(x, x) * np.subtract.outer(y, y) < 0)
                   for x, y in zip(cells.T[:-1], cells.T[1:]))


def plan_ridge(state: SinkhornState, path_index: int, floor_frac: float = 0.01) -> np.ndarray:
    """Heaviest cell per crossing-time column (the path's second node): the strand of the plan.

    An entropic plan's top cells always include blur pairs that cross, so
    the strand is read off each column's heaviest cell.  In log units a cell
    sums its interior scalings, its edges' logK and ends[t0, tn] (the pair's
    Lambda, or the source plus the sink scaling), so a backward max-product
    pass (Viterbi) gives each column's maximum without building the plan,
    and argmax reads the cell back, t0 first: of equal cells, the lowest in
    flat order.  Columns without mass, or below ``floor_frac`` of the
    heaviest, are dropped, so a path without mass has an empty ridge.
    """
    system, views = state.system, state.views
    path, head = system.paths[path_index], system._heads[path_index]
    logk = [kern.logK for kern in system.path_kernels[path_index]]
    # best[pos][t0, t]: the heaviest chain from node pos at bin t on, with its scaling and ends[t0]
    best = {path.n_edges: system.dense(head, views[head], _Log) if head in system.joints
            else np.add.outer(views[path.source], views[path.sink])}
    for pos in range(path.n_edges - 1, 0, -1):
        best[pos] = _lse_matmul(best[pos + 1], logk[pos].T, reduce=np.max) + views[path.nodes[pos]]
    first = logk[0] + best[1]  # [t0, t1]
    cells = np.empty((system.n_t, path.n_p), dtype=np.int64)
    cells[:, 0], cells[:, 1] = first.argmax(axis=0), np.arange(system.n_t)
    for pos in range(1, path.n_edges):
        cells[:, pos + 1] = (logk[pos][cells[:, pos]] + best[pos + 1][cells[:, 0]]).argmax(axis=1)
    mass = np.exp(first.max(axis=0))
    return cells[(mass > 0) & (mass >= floor_frac * mass.max())]


def check_property(prop: dict, built: BuiltScenario, state: SinkhornState,
                   report: ConvergenceReport,
                   marginals: ModelMarginals | None = None) -> PropertyResult:
    """Check one expected property of a solve.

    ``marginals``, when given, must be ``aggregate_marginals(state)``: the
    marginal properties read it instead of running a message pass each.
    """
    params = _property_params(prop)
    kind, tol, system = prop["kind"], params.get("tol"), state.system
    if kind in ("capacity_satisfied", "boundary_match", "mass_delivered") and marginals is None:
        marginals = aggregate_marginals(state)
    if kind == "capacity_satisfied":
        worst = max([0.0] + [float(np.maximum(marginals.m[node] - cap, 0.0).max())
                             for node, cap in system.caps.items()])
        return PropertyResult(kind, worst <= tol, worst,
                              f"max capacity excess {worst:.3e} (tol {tol:.1e})")
    if kind == "boundary_match":
        e0, et, _ = system.violations(marginals.model)
        value = max(e0, et)
        # a coupled solve matches the joints only: its whole error is E0, and ET is 0
        errors = (f"joint L1 error {e0:.3e}" if built.mode == "coupled"
                  else f"boundary L1 errors E0={e0:.3e} ET={et:.3e}")
        return PropertyResult(kind, value <= tol, value, f"{errors} (tol {tol:.1e})")
    if kind == "mass_delivered":
        delivered = sum(float(marginals.m[s].sum()) for s in system.muT)
        target = sum(float(mu.sum()) for mu in system.muT.values())
        return PropertyResult(kind, abs(delivered - target) <= tol, delivered,
                              f"delivered mass {delivered!r} (tol {tol:.1e})")
    if kind == "monotone_strand":
        ridges = [plan_ridge(state, p, params["ridge_floor"]) for p in range(len(built.paths))]
        ok = all(_pairwise_comonotone(ridge) for ridge in ridges)
        size = max(len(ridge) for ridge in ridges)
        return PropertyResult(kind, ok, float(size),
                              f"plan ridge ({size} cells) {'is' if ok else 'is NOT'} co-monotone")
    n = report.iterations
    if kind == "linear_convergence":
        start, min_r2 = params["start"], params["min_r2"]
        if n - start < 2:  # a line needs two points
            return PropertyResult(kind, False, 0.0, f"trace length {n} leaves fewer than "
                                                    f"two points past sweep {start}")
        slope0, r20 = _log_linear_fit(report.e0, start)
        slopet, r2t = _log_linear_fit(report.et, start)
        ok = slope0 < 0 and slopet < 0 and r20 >= min_r2 and r2t >= min_r2
        return PropertyResult(kind, ok, min(r20, r2t),
                              f"slopes ({slope0:.2e}, {slopet:.2e}), R2 ({r20:.4f}, {r2t:.4f})")
    # trace_length, the last kind of PROPERTY_KINDS
    return PropertyResult(kind, n == params["length"], float(n),
                          f"trace length {n} (want {params['length']})")
