"""Transport network: weighted digraph, boundary marginals, capacities, paths.

Topology is immutable once built.  Paths are user-prescribed; the library
never enumerates them.  Capacity profiles apply to interior nodes only;
sources and sinks are unconstrained (infinite per-bin cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadEndpointError,
    BadParamError,
    BrokenPathError,
    GridMismatchError,
    MassMismatchError,
)
from .grid_measures import Measure, TimeGrid

BALANCE_TOL = 1e-9

# the two path-family modes: one law per boundary node, or one joint law per (source, sink) pair
INDEPENDENT = "independent"
COUPLED = "coupled"


@dataclass(frozen=True)
class Path:
    """Ordered node sequence from a source to a sink, no repeated nodes."""

    nodes: tuple[str, ...]

    def __post_init__(self):
        nodes = tuple(str(n) for n in self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if len(nodes) < 2:
            raise BadParamError(f"path needs at least two nodes, got {nodes}")
        if len(set(nodes)) != len(nodes):
            raise BadParamError(f"path repeats a node: {nodes}")

    @property
    def n_p(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.nodes) - 1

    @property
    def source(self) -> str:
        return self.nodes[0]

    @property
    def sink(self) -> str:
        return self.nodes[-1]

    @property
    def interior(self) -> tuple[str, ...]:
        return self.nodes[1:-1]

    def __str__(self) -> str:
        return "->".join(self.nodes)


@dataclass(frozen=True, eq=False)
class CapacityProfile:
    """Per-bin mass caps for one node; entries may be +inf."""

    grid: TimeGrid
    cap: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cap, dtype=float)
        if c.shape != (self.grid.n_t,):
            raise BadParamError(f"cap must have shape ({self.grid.n_t},), got {c.shape}")
        finite = np.isfinite(c)
        if np.any(np.isnan(c)) or np.any(c[finite] < 0):
            raise BadParamError("finite cap entries must be nonnegative")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "cap", c)

    @classmethod
    def from_density(cls, grid: TimeGrid, density) -> "CapacityProfile":
        """Build from a flow-rate density (scalar or per-bin vector).

        The per-bin mass cap is ``density(t_k) * dt``.
        """
        d = np.broadcast_to(np.asarray(density, dtype=float), (grid.n_t,))
        return cls(grid, d * grid.dt)


@dataclass(eq=False)
class TransportNetwork:
    """Weighted directed graph with boundary marginals and nodal capacities."""

    grid: TimeGrid
    nodes: tuple[str, ...]
    edges: dict[tuple[str, str], float]
    sources: dict[str, Measure]
    sinks: dict[str, Measure]
    capacities: dict[str, CapacityProfile] = field(default_factory=dict)

    def __post_init__(self):
        self.nodes = tuple(str(n) for n in self.nodes)
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise BadParamError("duplicate node ids")
        for (tail, head), w in self.edges.items():
            if tail not in node_set or head not in node_set:
                raise BadParamError(f"edge ({tail}, {head}) references unknown node")
            if not w > 0:
                raise BadParamError(f"edge ({tail}, {head}) must have positive weight, got {w}")
        if not self.sources or not self.sinks:
            raise BadParamError("need at least one source and one sink")
        overlap = set(self.sources) & set(self.sinks)
        if overlap:
            raise BadEndpointError(f"nodes cannot be both source and sink: {sorted(overlap)}")
        for name, m in {**self.sources, **self.sinks}.items():
            if name not in node_set:
                raise BadParamError(f"boundary node {name} not in node list")
            if m.grid != self.grid:
                raise GridMismatchError(f"marginal at {name} lives on a different grid")
        supply = sum(m.total for m in self.sources.values())
        demand = sum(m.total for m in self.sinks.values())
        if abs(supply - demand) > BALANCE_TOL:
            raise MassMismatchError(f"total supply {supply!r} != total demand {demand!r}")
        for name, prof in self.capacities.items():
            if name not in node_set:
                raise BadParamError(f"capacity references unknown node {name}")
            if name in self.sources or name in self.sinks:
                raise BadParamError(f"capacity on boundary node {name}; boundary caps are implicitly infinite")
            if prof.grid != self.grid:
                raise GridMismatchError(f"capacity at {name} lives on a different grid")

    def weight(self, tail: str, head: str) -> float:
        try:
            return self.edges[(tail, head)]
        except KeyError:
            raise BrokenPathError(f"edge ({tail}, {head}) not in network") from None

    def capacity_for(self, node: str) -> np.ndarray:
        """Per-bin mass cap vector; +inf where unconstrained."""
        prof = self.capacities.get(node)
        if prof is None:
            return np.full(self.grid.n_t, np.inf)
        return prof.cap


def validate_paths(net: TransportNetwork, paths, joints=None,
                   mode: str = INDEPENDENT) -> dict[str, list[tuple[int, int]]]:
    """Check a path family for ``mode``; map each path node to its (path, position) pairs.

    Every rule on a family is here: at least one path; each runs from a
    source to a sink over network edges, crossing no other boundary node;
    every source and sink lies on a path; and ``joints``, the joint targets
    by (source, sink) pair, are given in coupled mode only, one on the
    network's grid for each pair a path joins, and none for a pair no path
    joins, whose mass would silently go undelivered.  The pairs of each
    node are in path order.
    """
    if mode not in (INDEPENDENT, COUPLED):
        raise BadParamError(f"mode must be {INDEPENDENT!r} or {COUPLED!r}")
    if not paths:
        raise BadParamError("need at least one path")
    positions: dict[str, list[tuple[int, int]]] = {}
    for idx, path in enumerate(paths):
        if path.source not in net.sources:
            raise BadEndpointError(f"path {path} does not start at a source node")
        if path.sink not in net.sinks:
            raise BadEndpointError(f"path {path} does not end at a sink node")
        for mid in path.interior:
            if mid in net.sources or mid in net.sinks:
                raise BadEndpointError(f"path {path} crosses boundary node {mid} at an interior position")
        for tail, head in zip(path.nodes[:-1], path.nodes[1:]):
            if (tail, head) not in net.edges:
                raise BrokenPathError(f"path {path} uses missing edge ({tail}, {head})")
        for pos, node in enumerate(path.nodes):
            positions.setdefault(node, []).append((idx, pos))
    joints = joints or {}
    pairs = dict.fromkeys((p.source, p.sink) for p in paths)
    unjoined = [pair for pair in joints if pair not in pairs]
    if unjoined:
        raise BadParamError(f"no path joins the joint target's pair {unjoined[0]}")
    missing = (set(net.sources) | set(net.sinks)) - set(positions)
    if missing:
        raise BadParamError(f"boundary nodes without any path: {sorted(missing)}")
    if mode == COUPLED:
        for pair in pairs:
            if pair not in joints:
                raise BadParamError(f"coupled mode needs a joint target for pair {pair}")
            if joints[pair].grid != net.grid:
                raise BadParamError(f"joint target for {pair} lives on a different grid")
    elif joints:
        raise BadParamError("joint targets are only meaningful in coupled mode")
    return positions


def path_cost_terms(net: TransportNetwork, path: Path) -> np.ndarray:
    """Edge weights along the path, in path order."""
    return np.array([net.weight(t, h) for t, h in zip(path.nodes[:-1], path.nodes[1:])])
