"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The three-route network criterion performs a full
high-accuracy solve and takes a couple of minutes; everything else is fast.
"""

import time

import numpy as np
import pytest

from helpers import (
    comonotone_violations,
    enumerated_ridge,
    integer_atoms_measure,
    log_linear_fit,
    maxflow_da_feasible,
)

from datransport import (
    CapacityProfile,
    JointMeasure,
    Measure,
    Path,
    TimeGrid,
    TransportNetwork,
    aggregate_marginals,
    chain_cost_tensor,
    check_da_feasibility,
    check_generalized_monge,
    coupled_boundary_update,
    dense_sinkhorn,
    extract_plan,
    solve,
)
from datransport.kernels import reciprocal_pair_cost
from datransport.reference_oracle import dense_coupled_sinkhorn
from datransport.scenarios import scenario_61, scenario_63_network, scenario_64_convergence
from datransport.sinkhorn_engine import PathSystem, SolverConfig


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_capacity_satisfaction():
    built = scenario_61().build()
    start = time.perf_counter()
    state, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
    elapsed = time.perf_counter() - start
    mm = aggregate_marginals(state)
    violation = float(np.maximum(mm.m["v1"] - built.net.capacity_for("v1"), 0.0).max())
    e0 = float(np.abs(mm.m["v0"] - built.net.sources["v0"].mass).sum())
    et = float(np.abs(mm.m["vT"] - built.net.sinks["vT"].mass).sum())
    ok = violation <= 1e-8 and e0 <= 1e-6 and et <= 1e-6 and elapsed <= 10.0
    _report("criterion 1 (capacity satisfaction)", ok,
            f"max violation {violation:.2e} (<=1e-8), E0 {e0:.2e}, ET {et:.2e} "
            f"(<=1e-6), {elapsed:.1f}s (<=10s), {report.iterations} iterations")


def test_criterion_2_linear_convergence():
    built = scenario_64_convergence().build()
    state, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
    assert report.iterations == 1500
    slope0, r20 = log_linear_fit(report.e0, 199)
    slopet, r2t = log_linear_fit(report.et, 199)
    ok = slope0 < 0 and slopet < 0 and r20 >= 0.95 and r2t >= 0.95
    _report("criterion 2 (linear convergence)", ok,
            f"log10 E0 slope {slope0:.2e} R2 {r20:.4f}; "
            f"log10 ET slope {slopet:.2e} R2 {r2t:.4f} (R2 >= 0.95)")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(2024)
    eps_cycle = [0.05, 0.2, 1.0]
    sweeps = 30
    start = time.perf_counter()
    worst = 0.0
    for case in range(50):
        n_t = int(rng.integers(6, 11))
        n_nodes = int(rng.integers(2, 5))
        grid = TimeGrid(1.0, n_t)
        epsilon = eps_cycle[case % 3]
        # keep path costs commensurate with epsilon so the linear-domain
        # dense oracle stays inside float range on supported cells
        weights = rng.uniform(0.5, 2.0, n_nodes - 1) * min(epsilon / 0.2, 1.0)
        n_edges = n_nodes - 1
        mu0 = np.zeros(n_t)
        mu0[: n_t - n_edges] = rng.uniform(0.1, 1.0, n_t - n_edges)
        mu0 /= mu0.sum()
        muT = np.zeros(n_t)
        muT[n_edges:] = rng.uniform(0.1, 1.0, n_t - n_edges)
        muT /= muT.sum()
        names = [f"n{k}" for k in range(n_nodes)]
        caps = {}
        targets = [("eq", mu0)]
        for k in range(1, n_nodes - 1):
            if rng.random() < 0.5:
                cap = np.full(n_t, float(rng.uniform(0.15, 0.5)))
            else:
                cap = np.full(n_t, np.inf)
            caps[names[k]] = CapacityProfile(grid, cap)
            targets.append(("ub", cap))
        targets.append(("eq", muT))
        net = TransportNetwork(
            grid=grid, nodes=tuple(names),
            edges={(names[k], names[k + 1]): float(weights[k]) for k in range(n_edges)},
            sources={names[0]: Measure(grid, mu0)},
            sinks={names[-1]: Measure(grid, muT)},
            capacities=caps)
        cfg = SolverConfig(epsilon=epsilon, tol=0.0, max_iter=sweeps)
        state, _ = solve(net, [Path(tuple(names))], config=cfg)
        mm = aggregate_marginals(state)
        cost = chain_cost_tensor(grid.centers, weights)
        res = dense_sinkhorn(cost, targets, epsilon, sweeps)
        for axis, node in enumerate(names):
            scale = max(float(res.marginals[axis].max()), 1e-300)
            err = float(np.abs(mm.m[node] - res.marginals[axis]).max()) / scale
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 60.0
    _report("criterion 3 (oracle equivalence)", ok,
            f"50 instances, max relative marginal error {worst:.2e} (<=1e-10), "
            f"{elapsed:.1f}s (<=60s)")


def test_criterion_4_feasibility_correctness():
    grid = TimeGrid(1.0, 10)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        mu, mu_counts = integer_atoms_measure(grid, rng, n_atoms=int(rng.integers(10, 60)))
        nu, nu_counts = integer_atoms_measure(grid, rng, n_atoms=int(mu_counts.sum()))
        for k in (0, 1, 3):
            ours = check_da_feasibility(mu, nu, k * grid.dt).feasible
            oracle = maxflow_da_feasible(mu_counts, nu_counts, k)
            assert bool(ours) == bool(oracle), (mu_counts, nu_counts, k)
            checked += 1
    _report("criterion 4 (feasibility correctness)", checked == 600,
            f"{checked} verdicts agree with the max-flow oracle")


def test_criterion_5_monotone_strand():
    built = scenario_61().build()
    built.config.epsilon = 0.02  # criterion pins epsilon <= 0.02
    built.config.tol = 1e-7
    built.config.max_iter = 4000
    state, _ = solve(built.net, built.paths, mode=built.mode, config=built.config)
    cells = extract_plan(state, 0)
    ridge = enumerated_ridge(cells, column_axis=1, floor_frac=0.01)
    bad = comonotone_violations(ridge)
    ok = len(ridge) >= 30 and bad == 0
    _report("criterion 5 (monotone strand)", ok,
            f"plan ridge of {len(ridge)} dominant cells, {bad} crossing pairs "
            f"in (t0,t1) and (t1,tT)")


def test_criterion_6_coupled_exactness():
    grid = TimeGrid(1.0, 8)
    rng = np.random.default_rng(55)
    joint_mass = np.zeros((8, 8))
    for i in range(5):
        for j in range(i + 2, 8):
            joint_mass[i, j] = rng.uniform(0.1, 1.0)
    joint_mass /= joint_mass.sum()
    cap = np.full(8, 0.25)
    net = TransportNetwork(
        grid=grid, nodes=("a", "m", "b"),
        edges={("a", "m"): 1.0, ("m", "b"): 1.0},
        sources={"a": Measure(grid, joint_mass.sum(axis=1))},
        sinks={"b": Measure(grid, joint_mass.sum(axis=0))},
        capacities={"m": CapacityProfile(grid, cap)})
    path = Path(("a", "m", "b"))
    joints = {("a", "b"): JointMeasure(grid, joint_mass)}
    sweeps = 60
    cfg = SolverConfig(epsilon=0.3, tol=0.0, max_iter=sweeps)
    system = PathSystem(net, [path], mode="coupled", config=cfg, joints=joints)
    state = system.initial_state()
    for _ in range(sweeps):
        system.sweep(state)
    cost = chain_cost_tensor(grid.centers, [1.0, 1.0])
    res = dense_coupled_sinkhorn(cost, joint_mass, [cap], 0.3, sweeps)
    cells = extract_plan(state, 0)
    engine_plan = np.zeros((8, 8, 8))
    for (i, j, k), m in zip(cells.indices, cells.mass):
        engine_plan[i, j, k] = m
    scale = float(res.plan.values.max())
    plan_err = float(np.abs(engine_plan - res.plan.values).max()) / scale
    coupled_boundary_update(state, ("a", "b"))
    mm = aggregate_marginals(state)
    joint_err = float(np.abs(mm.joint_m[("a", "b")] - joint_mass).max())
    ok = joint_err <= 1e-10 and plan_err <= 1e-10
    _report("criterion 6 (coupled exactness)", ok,
            f"joint error after update {joint_err:.2e} (<=1e-10), "
            f"plan vs dense oracle {plan_err:.2e} (<=1e-10)")


def test_criterion_7_generalized_monge_sign():
    grid = TimeGrid(1.0, 100)
    report = check_generalized_monge(grid, reciprocal_pair_cost(1.0),
                                     n_samples=10_000, seed=12)
    ok = report.n_samples == 10_000 and report.single_sign and report.sign == -1
    _report("criterion 7 (generalized Monge sign)", ok,
            f"{report.n_nonpositive}/{report.n_samples} cross-differences <= 0, "
            f"max {report.max_cross:.2e}")


def test_criterion_8_shared_node_aggregation():
    built = scenario_63_network().build()
    state, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
    mm = aggregate_marginals(state)
    cap = built.net.capacity_for("v3")
    worst_shared = max(
        float(np.maximum(mm.m["v3"] - cap, 0.0).max()),
        float(np.maximum(mm.m["v4"] - built.net.capacity_for("v4"), 0.0).max()))
    delivered = float(mm.m["vT"].sum())
    ok = report.converged and worst_shared <= 1e-8 and abs(delivered - 1.0) <= 1e-8
    _report("criterion 8 (shared-node aggregation)", ok,
            f"max shared-node excess {worst_shared:.2e} (<=1e-8), delivered mass "
            f"{delivered!r} (1 +/- 1e-8), {report.iterations} iterations")
