"""Shared test utilities: independent oracles and small generators."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import maximum_flow
from scipy.special import logsumexp

from datransport import Measure, TimeGrid


def integer_atoms_measure(grid: TimeGrid, rng, n_atoms: int = 40) -> tuple[Measure, np.ndarray]:
    """Random measure built from unit atoms; returns (measure, integer counts)."""
    counts = np.bincount(rng.integers(0, grid.n_t, n_atoms), minlength=grid.n_t)
    return Measure(grid, counts / n_atoms), counts


def maxflow_da_feasible(mu_counts: np.ndarray, nu_counts: np.ndarray, k: int) -> bool:
    """Exact bipartite feasibility via integer max-flow.

    Supply bin i may serve demand bin j iff j - i >= k.  Feasible iff the
    max flow moves the whole (integer) supply.
    """
    n = len(mu_counts)
    total = int(mu_counts.sum())
    if total != int(nu_counts.sum()):
        return False
    n_nodes = 2 * n + 2
    src, snk = 0, n_nodes - 1
    cap = np.zeros((n_nodes, n_nodes), dtype=np.int64)
    for i in range(n):
        cap[src, 1 + i] = mu_counts[i]
        cap[1 + n + i, snk] = nu_counts[i]
        for j in range(n):
            if j - i >= k:
                cap[1 + i, 1 + n + j] = total
    graph = sp.csr_matrix(cap)
    return maximum_flow(graph, src, snk).flow_value == total


def lp_min_cost_coupling(mu: np.ndarray, nu: np.ndarray, cost: np.ndarray) -> np.ndarray:
    """Dense LP transport solve (equality marginals); returns the plan matrix."""
    n, m = cost.shape
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros((n, m))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
        b_eq.append(mu[i])
    for j in range(m):
        col = np.zeros((n, m))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
        b_eq.append(nu[j])
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.x.reshape(n, m)


def log_linear_fit(values: np.ndarray, start: int) -> tuple[float, float]:
    """Slope and R^2 of a straight-line fit to log10(values) from ``start``."""
    y = np.log10(np.maximum(values[start:], 1e-300))
    x = np.arange(start, start + y.size, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return float(slope), 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0


def comonotone_violations(cells: np.ndarray) -> int:
    """Count crossing pairs across consecutive coordinate projections."""
    bad = 0
    for a in range(cells.shape[1] - 1):
        dx = cells[:, a][:, None] - cells[:, a][None, :]
        dy = cells[:, a + 1][:, None] - cells[:, a + 1][None, :]
        bad += int(np.sum((dx * dy) < 0) // 2)
    return bad


def enumerated_ridge(cells, column_axis: int = 1, floor_frac: float = 0.01) -> np.ndarray:
    """Heaviest cell per column of an enumerated plan (``extract_plan``'s ``PlanCells``).

    A column's first cell is its mode, since cells come heaviest first,
    ties lowest flat index first.  Columns below ``floor_frac`` of the
    heaviest column are dropped; the rest are returned columns ascending.
    """
    best: dict[int, tuple[np.ndarray, float]] = {}
    for idx, m in zip(cells.indices, cells.mass):
        best.setdefault(int(idx[column_axis]), (idx, float(m)))
    max_mass = max(m for _, m in best.values())
    rows = [idx for idx, m in best.values() if m >= floor_frac * max_mass]
    return np.array(sorted(rows, key=lambda r: int(r[column_axis])))


def path_node_marginals(log_kernels: list[np.ndarray],
                        log_scalings: list[np.ndarray]) -> np.ndarray:
    """Marginal at each node of one path's plan, from its own log-sum-exp messages: (n_p, n_t).

    ``log_kernels[l]`` is edge l's log kernel, [departure bin, arrival bin],
    and ``log_scalings[k]`` node k's log scaling.  The forward message at a
    node holds its own scaling and the backward one does not.
    """
    fwd = [log_scalings[0]]
    for logk, logs in zip(log_kernels, log_scalings[1:]):
        fwd.append(logsumexp(fwd[-1][:, None] + logk, axis=0) + logs)
    bwd = [np.zeros_like(log_scalings[-1])]
    for logk, logs in zip(log_kernels[::-1], log_scalings[:0:-1]):
        bwd.insert(0, logsumexp(logk + (bwd[0] + logs)[None, :], axis=1))
    return np.exp(np.array(fwd) + np.array(bwd))
