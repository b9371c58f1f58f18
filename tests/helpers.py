"""Shared test utilities: independent oracles and small generators."""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import maximum_flow
from scipy.special import logsumexp

from datransport import CapacityProfile, Measure, PlanCells, TimeGrid
from datransport.feasibility import FEAS_SLACK
from datransport.grid_measures import cdf


def unbounded(grid: TimeGrid) -> CapacityProfile:
    """A capacity profile of +inf on every bin."""
    return CapacityProfile(grid, np.full(grid.n_t, np.inf))


def coordinate_sum(cells: PlanCells, pos: int, n_t: int) -> np.ndarray:
    """The extracted cells' mass per bin at path node ``pos``."""
    return np.bincount(cells.indices[:, pos], weights=cells.mass, minlength=n_t)


def integer_atoms_measure(grid: TimeGrid, rng, n_atoms: int = 40) -> tuple[Measure, np.ndarray]:
    """Random measure built from unit atoms; returns (measure, integer counts)."""
    counts = np.bincount(rng.integers(0, grid.n_t, n_atoms), minlength=grid.n_t)
    return Measure(grid, counts / n_atoms), counts


def loop_da_feasibility(mu0: Measure, muT: Measure, k: int) -> tuple[bool, float, int]:
    """Shifted-CDF dominance at a shift of ``k`` bins, one point at a time.

    Returns the verdict, the margin and the worst departure-side point j
    (ties toward the latest), as ``check_da_feasibility`` takes them.
    """
    n_t = mu0.grid.n_t
    f0, ft = cdf(mu0), cdf(muT)
    margin, worst_j = np.inf, 0
    for j in range(-k, n_t):  # j < 0: arrivals before any shifted departure
        left = f0[j] if j >= 0 else 0.0
        right = ft[j + k] if j + k < n_t else ft[-1]
        if left - right <= margin:
            margin, worst_j = left - right, j
    return margin >= -FEAS_SLACK, float(margin), worst_j


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


def lp_edge_plan_optimum(net, paths) -> float:
    """Unregularized optimum of an independent path family: a sparse HiGHS LP over edge plans.

    Each path-edge has one plan over the grid cells s < t, of cost
    w / (t - s) on the bin centers.  At each interior node of a path the
    mass that arrives at a bin leaves at that bin; the first edges'
    departures, summed over the paths from a source, equal its law, and
    the last edges' arrivals, summed over the paths into a sink, equal its
    law; each capped node's arrivals, summed over its paths, stay within
    the cap on every bin.  Consistent edge plans on a chain glue into one
    path plan, so this equals the LP over every time-ordered path cell,
    with n_t * (n_t - 1) / 2 variables per path-edge instead of n_t ** n_p
    per path.
    """
    n, centers = net.grid.n_t, net.grid.centers
    s_idx, t_idx = np.triu_indices(n, 1)
    edges = [(p, l) for p, path in enumerate(paths) for l in range(path.n_edges)]
    offset = {edge: k * s_idx.size for k, edge in enumerate(edges)}
    cost = np.concatenate([net.weight(*paths[p].nodes[l:l + 2]) / (centers[t_idx] - centers[s_idx])
                           for p, l in edges])

    def rows(groups):
        """Sparse rows and right-hand side of groups of (terms, bound), one row per group and bin.

        A term (edge, axis, sign) adds sign times the edge plan's
        departures (axis 0) or arrivals (axis 1) at each bin.
        """
        r, c, v = [], [], []
        for g, (terms, _) in enumerate(groups):
            for edge, axis, sign in terms:
                r.append(g * n + (s_idx, t_idx)[axis])
                c.append(offset[edge] + np.arange(s_idx.size))
                v.append(np.full(s_idx.size, sign))
        a = sp.csr_matrix((np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                          shape=(len(groups) * n, cost.size))
        b = np.concatenate([bound for _, bound in groups])
        finite = np.isfinite(b)  # an uncapped bin is no row
        return a[finite], b[finite]

    equal = [([((p, l - 1), 1, 1.0), ((p, l), 0, -1.0)], np.zeros(n))
             for p, path in enumerate(paths) for l in range(1, path.n_edges)]
    equal += [([((p, 0), 0, 1.0) for p, path in enumerate(paths) if path.source == node], law.mass)
              for node, law in net.sources.items()]
    equal += [([((p, path.n_edges - 1), 1, 1.0) for p, path in enumerate(paths)
                if path.sink == node], law.mass) for node, law in net.sinks.items()]
    capped = [([((p, path.nodes.index(node) - 1), 1, 1.0) for p, path in enumerate(paths)
                if node in path.interior], net.capacity_for(node)) for node in net.capacities]
    a_eq, b_eq = rows(equal)
    a_ub, b_ub = rows(capped) if capped else (None, None)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    assert res.success, res.message
    return float(res.fun)


def lp_path_cell_optimum(net, paths) -> float:
    """Unregularized optimum of an independent path family: a dense HiGHS LP over path cells.

    Each path has one variable per strictly time-ordered cell t_0 < t_1 <
    ... of its nodes' bins, of cost sum_l w_l / (t_{l+1} - t_l) on the bin
    centers.  Each source's law is matched by the departures of its paths,
    each sink's by their arrivals, and each capped node's coordinate
    sums stay within the cap on every bin.  It has n_t choose n_p variables
    per path, so it is the reference for ``lp_edge_plan_optimum`` on small
    grids only.
    """
    n, centers = net.grid.n_t, net.grid.centers
    cells = [np.array(list(itertools.combinations(range(n), path.n_p))) for path in paths]
    cost = np.concatenate([
        sum(net.weight(*path.nodes[l:l + 2]) / (centers[c[:, l + 1]] - centers[c[:, l]])
            for l in range(path.n_edges)) for path, c in zip(paths, cells)])
    offsets = np.cumsum([0] + [len(c) for c in cells])

    def rows(groups):
        """Dense rows and right-hand side of groups of (sites, bound), one row per group and bin.

        A site (p, pos) adds path p's cells by their bin at node ``pos``.
        """
        a = np.zeros((len(groups) * n, cost.size))
        for g, (sites, _) in enumerate(groups):
            for p, pos in sites:
                a[g * n + cells[p][:, pos], offsets[p] + np.arange(len(cells[p]))] += 1.0
        b = np.concatenate([bound for _, bound in groups])
        finite = np.isfinite(b)  # an uncapped bin is no row
        return a[finite], b[finite]

    def sites(node, pos=None):
        return [(p, path.nodes.index(node) if pos is None else pos)
                for p, path in enumerate(paths) if node in path.nodes]

    equal = [(sites(node, 0), law.mass) for node, law in net.sources.items()]
    equal += [(sites(node, -1), law.mass) for node, law in net.sinks.items()]
    capped = [(sites(node), net.capacity_for(node)) for node in net.capacities]
    a_eq, b_eq = rows(equal)
    a_ub, b_ub = rows(capped) if capped else (None, None)
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                  method="highs")
    assert res.success, res.message
    return float(res.fun)


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
