import numpy as np
import pytest

from datransport import CapacityProfile, Measure, Path, TimeGrid, TransportNetwork


@pytest.fixture
def grid8():
    return TimeGrid(t_f=1.0, n_t=8)


@pytest.fixture
def grid10():
    return TimeGrid(t_f=1.0, n_t=10)


@pytest.fixture
def grid16():
    return TimeGrid(t_f=1.0, n_t=16)


def make_line_net(grid, weights, mu0, muT, caps=None, node_names=None):
    """Line network with len(weights)+1 nodes and optional interior caps."""
    n = len(weights) + 1
    names = node_names or [f"n{k}" for k in range(n)]
    edges = {(names[k], names[k + 1]): float(weights[k]) for k in range(n - 1)}
    capacities = {}
    if caps:
        for node, cap in caps.items():
            capacities[node] = CapacityProfile(grid, np.asarray(cap, dtype=float))
    return TransportNetwork(
        grid=grid, nodes=tuple(names), edges=edges,
        sources={names[0]: Measure(grid, mu0)},
        sinks={names[-1]: Measure(grid, muT)},
        capacities=capacities), Path(tuple(names))


def coupled_tiny_scenario(solver: dict) -> dict:
    """Scenario dict of a coupled three-node line on 8 bins; boundary laws come from its joint."""
    joint = np.zeros((8, 8))
    joint[0, 4] = joint[2, 7] = 0.5
    return {
        "name": "coupled-tiny",
        "grid": {"t_f": 1.0, "n_t": 8},
        "nodes": ["a", "m", "b"],
        "edges": [["a", "m", 1.0], ["m", "b", 1.0]],
        "sources": [{"node": "a"}],
        "sinks": [{"node": "b"}],
        "paths": [["a", "m", "b"]],
        "mode": "coupled",
        "joints": [{"source": "a", "sink": "b", "mass": joint.tolist()}],
        "solver": solver,
    }


def ordered_random_pair(grid, rng, n_edges, slack=3):
    """Feasible boundary pair: the arrival law is a shifted departure law.

    Shifting by n_edges + slack bins keeps the pair dominance-feasible at
    the grid-minimum travel time while leaving each particle a window of
    about slack bins, so moderate caps stay satisfiable.
    """
    n = grid.n_t
    shift = n_edges + slack
    assert shift < n - 1, "grid too small for this path"
    mu0 = np.zeros(n)
    mu0[: n - shift] = rng.uniform(0.1, 1.0, n - shift)
    mu0 /= mu0.sum()
    muT = np.zeros(n)
    muT[shift:] = mu0[: n - shift]
    return mu0, muT


def free_random_pair(grid, rng, n_edges):
    """Reachable (but not necessarily feasible) random boundary pair.

    Fine for fixed-sweep cross-implementation comparisons where nothing
    needs to converge.
    """
    n = grid.n_t
    mu0 = np.zeros(n)
    muT = np.zeros(n)
    mu0[: n - n_edges] = rng.uniform(0.1, 1.0, n - n_edges)
    muT[n_edges:] = rng.uniform(0.1, 1.0, n - n_edges)
    return mu0 / mu0.sum(), muT / muT.sum()
