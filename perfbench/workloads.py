"""Seeded scenario generators for the three benchmark workloads.

Each generator draws a few parameters from narrow bands with
``random.Random(seed)`` and returns a scenario dictionary in the format
``datransport.scenarios.ScenarioSpec`` reads.  The bands are chosen so that
every seed stays in the regime the workload is meant to stress: the caps
bind on the shared nodes and the solve converges (or, for ``fine_chain``,
runs its fixed budget) without any operation failing.

Only the standard library is used here, so the benchmark runner itself
never imports numpy and starts no BLAS threads.
"""

from __future__ import annotations

import math
import random

# Seed the benchmark is run with, and a second seed kept back for checking
# a claimed gain on inputs the change was not tuned on.
RUN_SEED = 1
CLAIM_SEED = 2


def _band(rng: random.Random, centre: float, half_width: float) -> float:
    return round(rng.uniform(centre - half_width, centre + half_width), 6)


def _mixture(mean: float, std: float) -> dict:
    return {"mixture": [[1.0, mean, std]]}


def shared_network(seed: int) -> dict:
    """Topology of ``scenario_63_network`` with a looser cap.

    Three routes through six capped interior nodes; ``v3`` and ``v4`` are
    shared by all routes and are where the cap binds.  The stock 1.4 cap
    needs about 20,000 sweeps; a density near 3.0 keeps the shared caps
    binding while converging in about 1,200.
    """
    rng = random.Random(seed)
    cap = _band(rng, 3.0, 0.003)
    src_mean = _band(rng, 0.2, 0.0007)
    snk_mean = _band(rng, 0.8, 0.0007)
    std = _band(rng, 0.10, 0.0002)
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
        "name": f"shared_network_s{seed}",
        "grid": {"t_f": 1.0, "n_t": 100},
        "nodes": nodes,
        "edges": edges,
        "sources": [{"node": "v0", "marginal": _mixture(src_mean, std)}],
        "sinks": [{"node": "vT", "marginal": _mixture(snk_mean, std)}],
        "capacities": {f"v{k}": cap for k in range(1, 7)},
        "paths": paths,
        "solver": {"epsilon": 0.2, "tol": 1e-8, "max_iter": 20000,
                   "sweep": "gauss-seidel", "log_domain": True},
        "mode": "independent",
        "expected_properties": [
            {"kind": "capacity_satisfied", "tol": 1e-8},
            {"kind": "mass_delivered", "tol": 1e-8},
            {"kind": "boundary_match", "tol": 1e-6},
        ],
    }


FINE_CHAIN_SWEEPS = 200


def fine_chain(seed: int, n_t: int = 400) -> dict:
    """One deep route on a fine grid, run for a fixed sweep budget.

    ``log_domain`` is set explicitly, as the README advises for deep
    chains: the linear domain underflows on this chain.
    """
    rng = random.Random(seed)
    cap = _band(rng, 3.0, 0.05)
    src_mean = _band(rng, 0.2, 0.005)
    snk_mean = _band(rng, 0.8, 0.005)
    std = _band(rng, 0.07, 0.002)
    nodes = ["v0", "v1", "v2", "vT"]
    return {
        "name": f"fine_chain_s{seed}",
        "grid": {"t_f": 1.0, "n_t": n_t},
        "nodes": nodes,
        "edges": [[a, b, 1.0] for a, b in zip(nodes[:-1], nodes[1:])],
        "sources": [{"node": "v0", "marginal": _mixture(src_mean, std)}],
        "sinks": [{"node": "vT", "marginal": _mixture(snk_mean, std)}],
        "capacities": {"v1": cap, "v2": cap},
        "paths": [nodes],
        "solver": {"epsilon": 0.05, "tol": 0.0, "max_iter": FINE_CHAIN_SWEEPS,
                   "sweep": "gauss-seidel", "log_domain": True},
        "mode": "independent",
        "expected_properties": [{"kind": "trace_length", "length": FINE_CHAIN_SWEEPS}],
    }


def _joint_blob(n_t: int, mx: float, my: float, width: float, rho: float,
                min_gap: float) -> list[list[float]]:
    """Correlated Gaussian departure/arrival law, zero where arrival < departure + gap."""
    dt = 1.0 / n_t
    centres = [(k + 0.5) * dt for k in range(n_t)]
    scale = 1.0 / (2.0 * (1.0 - rho * rho))
    rows = []
    for s in centres:
        a = (s - mx) / width
        row = []
        for t in centres:
            b = (t - my) / width
            ok = t >= s + min_gap
            row.append(math.exp(-scale * (a * a - 2.0 * rho * a * b + b * b)) if ok else 0.0)
        rows.append(row)
    total = math.fsum(math.fsum(r) for r in rows)
    return [[x / total for x in r] for r in rows]


def coupled_split(seed: int) -> dict:
    """Coupled mode: one joint law split over two parallel routes."""
    rng = random.Random(seed)
    cap = _band(rng, 1.5, 0.02)
    mx = _band(rng, 0.3, 0.005)
    my = _band(rng, 0.7, 0.005)
    width = _band(rng, 0.10, 0.002)
    n_t = 150
    return {
        "name": f"coupled_split_s{seed}",
        "grid": {"t_f": 1.0, "n_t": n_t},
        "nodes": ["v0", "a", "b", "vT"],
        "edges": [["v0", "a", 1.0], ["a", "vT", 1.0],
                  ["v0", "b", 1.2], ["b", "vT", 1.2]],
        "sources": [{"node": "v0"}],
        "sinks": [{"node": "vT"}],
        "joints": [{"source": "v0", "sink": "vT",
                    "mass": _joint_blob(n_t, mx, my, width, 0.5, 0.1)}],
        "capacities": {"a": cap, "b": cap},
        "paths": [["v0", "a", "vT"], ["v0", "b", "vT"]],
        "solver": {"epsilon": 0.2, "tol": 1e-8, "max_iter": 20000,
                   "sweep": "gauss-seidel", "log_domain": None},
        "mode": "coupled",
        "expected_properties": [],
    }


GENERATORS = {
    "shared_network": shared_network,
    "fine_chain": fine_chain,
    "coupled_split": coupled_split,
}
