import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import make_line_net, ordered_random_pair

from datransport import (
    CapacityProfile,
    JointMeasure,
    Measure,
    Path,
    TimeGrid,
    TransportNetwork,
    aggregate_marginals,
    boundary_update,
    capacity_update,
    chain_cost_tensor,
    coupled_boundary_update,
    dense_sinkhorn,
    extract_plan,
    flux_profile,
    solve,
)
from datransport.errors import (
    BadParamError,
    NonFiniteError,
    PlanTooLargeError,
    UnreachableMassError,
)
from datransport.kernels import build_pair_kernel
from datransport.reference_oracle import dense_coupled_sinkhorn
from datransport.scenarios import scenario_61
from datransport.sinkhorn_engine import (
    ANDERSON_WARMUP,
    PathSystem,
    SolverConfig,
    _lse_cols,
    _lse_rows,
)


def fixed_sweeps(n):
    """Config that runs exactly n update sweeps (tol 0 never triggers)."""
    return dict(tol=0.0, max_iter=n)


class TestLogSumExp:
    @pytest.mark.parametrize("case", ["kernel", "scattered", "finite"])
    def test_matches_scipy(self, case):
        rng = np.random.default_rng(31)
        n = 24
        lv = rng.normal(scale=3.0, size=n)
        if case == "kernel":
            # strict time ordering: all -inf below the diagonal, so the
            # first column and the last row are all -inf
            logk = build_pair_kernel(TimeGrid(t_f=1.0, n_t=n), 1.0, 0.5).logK
            lv[[2, 9]] = -np.inf
        else:
            logk = rng.normal(scale=5.0, size=(n, n))
        if case == "scattered":
            logk[rng.random((n, n)) < 0.3] = -np.inf
            logk[3, :] = -np.inf
            logk[:, 5] = -np.inf
            lv[7] = -np.inf
        kept = logk.copy()
        for ours, ref in ((_lse_cols(logk, lv), logsumexp(logk + lv[:, None], axis=0)),
                          (_lse_rows(logk, lv), logsumexp(logk + lv[None, :], axis=1))):
            dead = np.isneginf(ref)
            assert np.array_equal(np.isneginf(ours), dead)
            assert np.all(np.isfinite(ours[~dead]))
            assert np.max(np.abs(ours[~dead] - ref[~dead])) <= 1e-13
            assert dead.any() == (case != "finite")
        assert np.array_equal(logk, kept)


class TestFluxProfile:
    def test_counting_kernel_limit(self, grid8):
        # in the zero-weight limit every ordered transition has weight one,
        # so the interior profile counts strictly-below times strictly-above
        # pairs; the network requires positive weights, so approximate the
        # limit with a vanishing one
        mu0, muT = np.full(8, 0.125), np.full(8, 0.125)
        net, path = make_line_net(grid8, [1e-9, 1e-9], mu0, muT)
        system = PathSystem(net, [path], config=SolverConfig(epsilon=1.0, log_domain=False))
        state = system.initial_state()
        prof = flux_profile(state, 0, "n1")
        expect = np.array([k * (7 - k) for k in range(8)], dtype=float)
        assert np.allclose(prof, expect, rtol=1e-6)

    def test_total_mass_consistent_across_nodes(self, grid10):
        rng = np.random.default_rng(3)
        mu0, muT = ordered_random_pair(grid10, rng, 3)
        net, path = make_line_net(grid10, [1.0, 0.5, 2.0], mu0, muT)
        for log_domain in (False, True):
            system = PathSystem(net, [path],
                                config=SolverConfig(epsilon=0.3, log_domain=log_domain))
            state = system.initial_state()
            for _ in range(3):
                system.sweep(state)
            totals = []
            for pos, node in enumerate(path.nodes):
                prof = flux_profile(state, 0, node)
                own = (state.u_linear(node) if pos == 0
                       else state.v_linear(node) if pos == path.n_p - 1
                       else state.w_linear(node))
                totals.append(float((prof * own).sum()))
            assert np.allclose(totals, totals[0], rtol=1e-10)

    def test_matches_dense_contraction(self, grid8):
        rng = np.random.default_rng(7)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        net, path = make_line_net(grid8, [1.0, 1.5], mu0, muT)
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.4, log_domain=False))
        state = system.initial_state()
        for _ in range(4):
            system.sweep(state)
        # dense contraction of the same scaled kernel chain, built separately
        cost = chain_cost_tensor(grid8.centers, [1.0, 1.5])
        kernel = np.exp(-cost / 0.4)
        u = state.u_linear("n0")
        w = state.w_linear("n1")
        v = state.v_linear("n2")
        tensor = kernel * u[:, None, None] * w[None, :, None] * v[None, None, :]
        mm = aggregate_marginals(state)
        for axis, node in enumerate(path.nodes):
            dense_marg = tensor.sum(axis=tuple(a for a in range(3) if a != axis))
            scale = max(dense_marg.max(), 1e-300)
            assert np.abs(mm.m[node] - dense_marg).max() / scale <= 1e-12


class TestAggregation:
    def test_single_path_identity_scalings(self, grid8):
        mu0, muT = np.full(8, 0.125), np.full(8, 0.125)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT)
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.5, log_domain=False))
        state = system.initial_state()
        mm = aggregate_marginals(state)
        for node in path.nodes:
            assert np.allclose(mm.m[node], flux_profile(state, 0, node))

    def test_parallel_paths_add(self, grid8):
        # two identical parallel routes through distinct middles vs one route:
        # a shared endpoint aggregate doubles
        mu0 = np.full(8, 0.125)
        muT = np.full(8, 0.125)
        grid = grid8
        net2 = TransportNetwork(
            grid=grid, nodes=("s", "m1", "m2", "t"),
            edges={("s", "m1"): 1.0, ("m1", "t"): 1.0,
                   ("s", "m2"): 1.0, ("m2", "t"): 1.0},
            sources={"s": Measure(grid, mu0)}, sinks={"t": Measure(grid, muT)})
        paths2 = [Path(("s", "m1", "t")), Path(("s", "m2", "t"))]
        system2 = PathSystem(net2, paths2, config=SolverConfig(epsilon=0.5, log_domain=False))
        state2 = system2.initial_state()
        mm2 = aggregate_marginals(state2)

        net1, path1 = make_line_net(grid, [1.0, 1.0], mu0, muT,
                                    node_names=["s", "m1", "t"])
        system1 = PathSystem(net1, [path1], config=SolverConfig(epsilon=0.5, log_domain=False))
        mm1 = aggregate_marginals(system1.initial_state())
        assert np.allclose(mm2.m["s"], 2 * mm1.m["s"])
        assert np.allclose(mm2.m["t"], 2 * mm1.m["t"])
        assert np.allclose(mm2.m["m1"], mm1.m["m1"])


class TestBlockUpdates:
    @pytest.mark.parametrize("log_domain", [False, True])
    def test_boundary_update_exact(self, grid16, log_domain):
        rng = np.random.default_rng(11)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT)
        system = PathSystem(net, [path],
                            config=SolverConfig(epsilon=0.3, log_domain=log_domain))
        state = system.initial_state()
        for _ in range(2):
            system.sweep(state)
        boundary_update(state, "n0")
        mm = aggregate_marginals(state)
        assert np.abs(mm.m["n0"] - mu0).max() <= 1e-10

    def test_boundary_fixed_point(self, grid8):
        rng = np.random.default_rng(41)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT)
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.5, log_domain=False))
        state = system.initial_state()
        for _ in range(80):
            system.sweep(state)
        before = state.u_linear("n0")
        boundary_update(state, "n0")
        diff = np.abs(state.u_linear("n0") - before)
        assert diff[mu0 > 0].max() / before[mu0 > 0].max() <= 1e-9

    def test_unreachable_mass_guard(self, grid8):
        mu0 = np.eye(8)[7]  # departs at the final bin: no room to travel
        muT = np.eye(8)[7] * 0
        muT[6] = 1.0
        net, path = make_line_net(grid8, [1.0], mu0, muT)
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.5, log_domain=False))
        state = system.initial_state()
        with pytest.raises(UnreachableMassError):
            boundary_update(state, "n0")

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_capacity_update(self, grid8, log_domain):
        mu0, muT = np.full(8, 0.125), np.full(8, 0.125)
        slack = {"n1": np.full(8, 1e6)}
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT, caps=slack)
        system = PathSystem(net, [path],
                            config=SolverConfig(epsilon=0.5, log_domain=log_domain))
        state = system.initial_state()
        capacity_update(state, "n1")
        assert np.allclose(state.w_linear("n1"), 1.0)

        # direct ratio: aggregate 0.04 against cap 0.02 gives factor 0.5
        mm = aggregate_marginals(state)
        agg = mm.a["n1"]
        cap = np.where(agg > 0, agg * 0.5, 1.0)
        net2, path2 = make_line_net(grid8, [1.0, 1.0], mu0, muT, caps={"n1": cap})
        system2 = PathSystem(net2, [path2],
                             config=SolverConfig(epsilon=0.5, log_domain=log_domain))
        state2 = system2.initial_state()
        capacity_update(state2, "n1")
        w = state2.w_linear("n1")
        assert np.allclose(w[agg > 0], 0.5)
        assert np.allclose(w[agg <= 0], 1.0)
        mm2 = aggregate_marginals(state2)
        assert np.max(mm2.m["n1"] - cap) <= 1e-10

    def test_wrong_node_kind_rejected(self, grid8):
        mu0, muT = np.full(8, 0.125), np.full(8, 0.125)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT)
        system = PathSystem(net, [path], config=SolverConfig(log_domain=False))
        state = system.initial_state()
        with pytest.raises(BadParamError):
            capacity_update(state, "n0")
        with pytest.raises(BadParamError):
            boundary_update(state, "n1")


class TestClassicReduction:
    def test_two_node_path_is_classic_sinkhorn(self, grid16):
        # no capacities, one path, two marginals: must match the textbook
        # dense bi-marginal iteration exactly
        rng = np.random.default_rng(23)
        mu0, muT = ordered_random_pair(grid16, rng, 1)
        net, path = make_line_net(grid16, [1.3], mu0, muT)
        sweeps = 30
        cfg = SolverConfig(epsilon=0.4, log_domain=False, **fixed_sweeps(sweeps))
        state, report = solve(net, [path], config=cfg)

        t = grid16.centers
        gap = t[None, :] - t[:, None]
        kmat = np.zeros((16, 16))
        kmat[gap > 0] = np.exp(-1.3 / (0.4 * gap[gap > 0]))
        u = np.ones(16)
        v = np.ones(16)
        for _ in range(sweeps):
            ku = kmat @ v
            u = np.divide(mu0, ku, out=np.zeros(16), where=ku > 0)
            kv = kmat.T @ u
            v = np.divide(muT, kv, out=np.zeros(16), where=kv > 0)
        plan = u[:, None] * kmat * v[None, :]
        mm = aggregate_marginals(state)
        assert np.abs(mm.m["n0"] - plan.sum(axis=1)).max() <= 1e-10
        assert np.abs(mm.m["n1"] - plan.sum(axis=0)).max() <= 1e-10
        cells = extract_plan(state, 0)
        dense_from_cells = np.zeros((16, 16))
        for (i, j), m in zip(cells.indices, cells.mass):
            dense_from_cells[i, j] = m
        assert np.abs(dense_from_cells - plan).max() <= 1e-12


class TestDenseOracleEquivalence:
    @pytest.mark.parametrize("log_domain", [False, True])
    def test_three_node_capped(self, grid8, log_domain):
        rng = np.random.default_rng(5)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        cap = np.full(8, 0.22)
        net, path = make_line_net(grid8, [1.0, 1.5], mu0, muT, caps={"n1": cap})
        sweeps = 25
        cfg = SolverConfig(epsilon=0.2, log_domain=log_domain, **fixed_sweeps(sweeps))
        state, _ = solve(net, [path], config=cfg)
        cost = chain_cost_tensor(grid8.centers, [1.0, 1.5])
        res = dense_sinkhorn(cost, [("eq", mu0), ("ub", cap), ("eq", muT)], 0.2, sweeps)
        mm = aggregate_marginals(state)
        for axis, node in enumerate(path.nodes):
            scale = res.marginals[axis].max()
            assert np.abs(mm.m[node] - res.marginals[axis]).max() / scale <= 1e-12

    def test_four_marginals(self, grid8):
        rng = np.random.default_rng(9)
        mu0, muT = ordered_random_pair(grid8, rng, 3)
        caps = {"n1": np.full(8, 0.3), "n2": np.full(8, 0.25)}
        net, path = make_line_net(grid8, [1.0, 0.7, 1.2], mu0, muT, caps=caps)
        sweeps = 20
        cfg = SolverConfig(epsilon=0.3, log_domain=False, **fixed_sweeps(sweeps))
        state, _ = solve(net, [path], config=cfg)
        cost = chain_cost_tensor(grid8.centers, [1.0, 0.7, 1.2])
        res = dense_sinkhorn(cost, [("eq", mu0), ("ub", caps["n1"]),
                                    ("ub", caps["n2"]), ("eq", muT)], 0.3, sweeps)
        mm = aggregate_marginals(state)
        for axis, node in enumerate(path.nodes):
            scale = res.marginals[axis].max()
            assert np.abs(mm.m[node] - res.marginals[axis]).max() / scale <= 1e-12


class TestSolve:
    def test_converges_and_reports(self, grid16):
        rng = np.random.default_rng(2)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(16, 0.2)})
        cfg = SolverConfig(epsilon=0.3, tol=1e-10, max_iter=2000, log_domain=False)
        state, report = solve(net, [path], config=cfg)
        assert report.converged
        assert report.e0[-1] + report.et[-1] + report.v[-1] <= 1e-10
        mm = aggregate_marginals(state)
        assert np.abs(mm.m["n0"] - mu0).sum() <= 1e-9
        assert np.abs(mm.m["n2"] - muT).sum() <= 1e-9
        assert np.max(mm.m["n1"] - 0.2) <= 1e-9
        assert report.iterations == len(report.e0) == len(report.objective)

    def test_dual_ascent_gauss_seidel(self, grid10):
        rng = np.random.default_rng(6)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.25)})
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(120), log_domain=False)
        _, report = solve(net, [path], config=cfg)
        assert np.all(np.diff(report.objective) >= -1e-9)

    def test_dual_ascent_within_blocks(self, grid10):
        # the dual objective may not decrease across ANY single block update
        rng = np.random.default_rng(13)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 2.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.3)})
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.4, log_domain=False))
        state = system.initial_state()
        last = system.dual_objective(state)
        for _ in range(15):
            for node in ["n0", "n1", "n2"]:
                if node == "n1":
                    capacity_update(state, node)
                else:
                    boundary_update(state, node)
                now = system.dual_objective(state)
                assert now >= last - 1e-9
                last = now

    def test_jacobi_updates_from_one_message_pass(self, grid10):
        # every jacobi block must be computed from the same incoming state
        rng = np.random.default_rng(8)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.3)})
        cfg = SolverConfig(epsilon=0.4, sweep="jacobi", log_domain=False)
        system = PathSystem(net, [path], config=cfg)
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        # expected scalings: per-block projections all measured on a frozen copy
        frozen = system.initial_state()
        frozen.u = {k: v.copy() for k, v in state.u.items()}
        frozen.v = {k: v.copy() for k, v in state.v.items()}
        frozen.w = {k: v.copy() for k, v in state.w.items()}
        msgs = system.compute_messages(frozen)
        expect = {}
        for node, kind in (("n0", "b"), ("n1", "c"), ("n2", "b")):
            agg = system._node_aggregate(frozen, msgs, node)
            if kind == "b":
                target = mu0 if node == "n0" else muT
                expect[node] = system._target_over_aggregate(target, agg, False, node)
            else:
                expect[node] = system._cap_over_aggregate(system.caps[node], agg, False)
        system.sweep(state)
        assert np.allclose(state.u["n0"], expect["n0"], rtol=0, atol=0)
        assert np.allclose(state.w["n1"], expect["n1"], rtol=0, atol=0)
        assert np.allclose(state.v["n2"], expect["n2"], rtol=0, atol=0)

    def test_jacobi_carries_no_guarantee_but_reports_honestly(self, grid10):
        # simultaneous boundary updates settle into a gauge-mismatched cycle;
        # the diagnostics must expose the residual instead of hiding it
        rng = np.random.default_rng(8)
        mu0, muT = ordered_random_pair(grid10, rng, 1)
        net, path = make_line_net(grid10, [1.0], mu0, muT)
        cfg = SolverConfig(epsilon=0.5, tol=1e-12, max_iter=400,
                           sweep="jacobi", log_domain=False)
        state, report = solve(net, [path], config=cfg)
        assert np.all(np.isfinite(report.e0))
        assert report.e0[-1] < report.e0[0]

    def test_determinism(self, grid10):
        rng = np.random.default_rng(4)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.2)})
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(50), log_domain=False)
        s1, r1 = solve(net, [path], config=cfg)
        s2, r2 = solve(net, [path], config=cfg)
        assert np.array_equal(r1.e0, r2.e0)
        assert np.array_equal(r1.objective, r2.objective)
        m1 = aggregate_marginals(s1)
        m2 = aggregate_marginals(s2)
        for node in path.nodes:
            assert np.array_equal(m1.m[node], m2.m[node])

    def test_warmup_is_the_plain_iteration(self, grid10):
        rng = np.random.default_rng(4)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.2)})
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(ANDERSON_WARMUP), log_domain=False)
        state, _ = solve(net, [path], config=cfg)
        system = PathSystem(net, [path], config=cfg)
        plain = system.initial_state()
        for _ in range(ANDERSON_WARMUP):
            system.sweep(plain)
        assert np.array_equal(state.u["n0"], plain.u["n0"])
        assert np.array_equal(state.w["n1"], plain.w["n1"])
        assert np.array_equal(state.v["n2"], plain.v["n2"])

    def test_jacobi_is_never_mixed(self, grid10):
        rng = np.random.default_rng(8)
        mu0, muT = ordered_random_pair(grid10, rng, 1)
        net, path = make_line_net(grid10, [1.0], mu0, muT)
        cfg = SolverConfig(epsilon=0.5, sweep="jacobi", log_domain=False,
                           **fixed_sweeps(ANDERSON_WARMUP + 20))
        state, _ = solve(net, [path], config=cfg)
        system = PathSystem(net, [path], config=cfg)
        plain = system.initial_state()
        for _ in range(ANDERSON_WARMUP + 20):
            system.sweep(plain)
        assert np.array_equal(state.u["n0"], plain.u["n0"])
        assert np.array_equal(state.v["n1"], plain.v["n1"])

    def test_mixed_solve_keeps_dual_ascent(self):
        # scenario_61 runs well past the warm-up before it meets its tol
        built = scenario_61().build()
        _, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
        assert report.converged
        assert report.iterations > ANDERSON_WARMUP
        assert np.all(np.diff(report.objective) >= -1e-9)

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_mixing_keeps_dead_bins_dead(self, grid16, log_domain):
        # zero-mass boundary bins carry dead scalings (0, or -inf in the log
        # domain); the solve runs past the warm-up and on into round-off
        rng = np.random.default_rng(21)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(16, 0.12)})
        cfg = SolverConfig(epsilon=0.3, log_domain=log_domain,
                           **fixed_sweeps(ANDERSON_WARMUP + 100))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state, report = solve(net, [path], config=cfg)
        for trace in (report.e0, report.et, report.v, report.objective):
            assert np.all(np.isfinite(trace))
        assert report.e0[-1] + report.et[-1] + report.v[-1] <= 1e-8
        mm = aggregate_marginals(state)
        for node in path.nodes:
            assert np.all(np.isfinite(mm.m[node]))
        assert np.all(state.u_linear("n0")[mu0 == 0] == 0)
        assert np.all(state.v_linear("n2")[muT == 0] == 0)
        assert np.all(mm.m["n0"][mu0 == 0] == 0)
        assert np.all(mm.m["n2"][muT == 0] == 0)

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_swept_dual_needs_no_messages(self, grid16, log_domain):
        # right after a sweep the sinks are matched, so the dual's mass term
        # is the sink target mass on live bins
        rng = np.random.default_rng(22)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(16, 0.12)})
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.3, log_domain=log_domain))
        state = system.initial_state()
        for _ in range(5):
            system.sweep(state)
            assert system._swept_dual_objective(state) == pytest.approx(
                system.dual_objective(state), rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_one_message_pass_per_sweep(self, grid16, log_domain, monkeypatch):
        # the exact Gauss-Seidel solve pays one backward-only message pass per
        # sweep and never the primal cost; the traced dual is still the full one
        rng = np.random.default_rng(23)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(16, 0.12)})
        cfg = SolverConfig(epsilon=0.3, log_domain=log_domain,
                           **fixed_sweeps(ANDERSON_WARMUP))
        calls = []
        compute_messages = PathSystem.compute_messages

        def counted(self, state, **kwargs):
            calls.append(kwargs)
            return compute_messages(self, state, **kwargs)

        def no_cost(self, *args, **kwargs):
            raise AssertionError("transport_cost ran inside solve()")

        monkeypatch.setattr(PathSystem, "compute_messages", counted)
        monkeypatch.setattr(PathSystem, "transport_cost", no_cost)
        _, report = solve(net, [path], config=cfg)
        monkeypatch.undo()
        assert len(calls) == ANDERSON_WARMUP
        assert all(kwargs == {"backward_only": True} for kwargs in calls)
        system = PathSystem(net, [path], config=cfg)
        state = system.initial_state()
        for i in range(ANDERSON_WARMUP):
            full = system.compute_messages(state)
            assert report.objective[i] == pytest.approx(
                system.dual_objective(state, full), rel=1e-12)
            system.sweep(state)

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_backward_only_messages(self, grid10, log_domain):
        rng = np.random.default_rng(24)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 2.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.3)})
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.4, log_domain=log_domain))
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        full = system.compute_messages(state)
        half = system.compute_messages(state, backward_only=True)
        for b_half, b_full in zip(half.bwd[0], full.bwd[0]):
            assert np.array_equal(b_half, b_full)
        # the path mass read at the source end is the one seen at the sink end
        at_sink = float((flux_profile(state, 0, "n2", full) * state.v_linear("n2")).sum())
        assert system.path_masses(state, half)[0] == pytest.approx(at_sink, rel=1e-12)
        for reader in (lambda m: system.model_marginals(state, m),
                       lambda m: flux_profile(state, 0, "n1", m),
                       lambda m: system.transport_cost(state, m)):
            with pytest.raises(BadParamError, match="backward-only"):
                reader(half)

    def test_linear_anneal_overflow_raises(self):
        # halving epsilon squares the linear scalings of scenario_61, which
        # overflow at its first anneal (sweep 300) instead of going NaN
        built = scenario_61().build()
        cfg = replace(built.config, log_domain=False, anneal_every=300, tol=0.0, max_iter=400)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError, match="overflow"):
                solve(built.net, built.paths, mode=built.mode, config=cfg)

    def test_non_finite_row_raises(self, grid10, monkeypatch):
        rng = np.random.default_rng(25)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT)
        sweep = PathSystem.sweep

        def poisoned(self, state, messages=None):
            e0, et, v = sweep(self, state, messages)
            return (np.nan if state.iteration == 2 else e0), et, v

        monkeypatch.setattr(PathSystem, "sweep", poisoned)
        cfg = SolverConfig(epsilon=0.4, log_domain=False, **fixed_sweeps(10))
        with pytest.raises(NonFiniteError, match="sweep 3"):
            solve(net, [path], config=cfg)

    def test_annealing_flagged(self, grid10):
        rng = np.random.default_rng(14)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT)
        cfg = SolverConfig(epsilon=0.4, tol=0.0, max_iter=40, anneal_every=10,
                           epsilon_min=0.1, log_domain=True)
        state, report = solve(net, [path], config=cfg)
        assert report.annealed
        assert report.epsilon_final == pytest.approx(0.1)
        assert state.epsilon == pytest.approx(0.1)

    def test_mass_conserved_after_boundary_updates(self, grid10):
        rng = np.random.default_rng(19)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.3)})
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.4, log_domain=False))
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        boundary_update(state, "n0")
        assert system.path_masses(state).sum() == pytest.approx(1.0, abs=1e-10)


class TestCoupledMode:
    def make_coupled(self, grid, joint_mass, cap=None, log_domain=False, epsilon=0.3):
        joint = JointMeasure(grid, joint_mass)
        mu0 = joint_mass.sum(axis=1)
        muT = joint_mass.sum(axis=0)
        caps = {"n1": cap} if cap is not None else None
        net, path = make_line_net(grid, [1.0, 1.0], mu0, muT, caps=caps)
        cfg = SolverConfig(epsilon=epsilon, log_domain=log_domain, tol=0.0, max_iter=1)
        system = PathSystem(net, [path], mode="coupled", config=cfg,
                            joints={("n0", "n2"): joint})
        return system, joint

    def test_single_pair_target(self, grid8):
        joint_mass = np.zeros((8, 8))
        joint_mass[1, 6] = 1.0
        system, joint = self.make_coupled(grid8, joint_mass)
        state = system.initial_state()
        lam = coupled_boundary_update(state, ("n0", "n2"))
        assert np.count_nonzero(lam) == 1
        mm = aggregate_marginals(state)
        assert np.abs(mm.joint_m[("n0", "n2")] - joint_mass).max() <= 1e-10
        # interior marginal is the conditional chain law between bins 1 and 6
        inner = mm.m["n1"]
        assert inner.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(inner[:2] == 0) and np.all(inner[7:] == 0)

    def test_zero_travel_mass_unreachable(self, grid8):
        joint_mass = np.zeros((8, 8))
        joint_mass[3, 3] = 1.0
        system, _ = self.make_coupled(grid8, joint_mass)
        state = system.initial_state()
        with pytest.raises(UnreachableMassError):
            coupled_boundary_update(state, ("n0", "n2"))

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_matches_dense_coupled_oracle(self, grid8, log_domain):
        rng = np.random.default_rng(31)
        joint_mass = np.zeros((8, 8))
        for i in range(5):
            for j in range(i + 2, 8):
                joint_mass[i, j] = rng.uniform(0.1, 1.0)
        joint_mass /= joint_mass.sum()
        cap = np.full(8, 0.3)
        system, joint = self.make_coupled(grid8, joint_mass, cap=cap,
                                          log_domain=log_domain)
        state = system.initial_state()
        sweeps = 40
        for _ in range(sweeps):
            system.sweep(state)
        cost = chain_cost_tensor(grid8.centers, [1.0, 1.0])
        res = dense_coupled_sinkhorn(cost, joint_mass, [cap], 0.3, sweeps)
        cells = extract_plan(state, 0)
        dense_engine = np.zeros((8, 8, 8))
        for (i, j, k), m in zip(cells.indices, cells.mass):
            dense_engine[i, j, k] = m
        scale = res.plan.values.max()
        assert np.abs(dense_engine - res.plan.values).max() / scale <= 1e-10
        # the joint boundary law holds exactly right after its own update
        coupled_boundary_update(state, ("n0", "n2"))
        mm = aggregate_marginals(state)
        assert np.abs(mm.joint_m[("n0", "n2")] - joint_mass).max() <= 1e-10


class TestExtractPlan:
    def test_full_enumeration_matches_marginals(self, grid8):
        rng = np.random.default_rng(12)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(8, 0.3)})
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(30), log_domain=False)
        state, _ = solve(net, [path], config=cfg)
        cells = extract_plan(state, 0)
        assert len(cells.mass) <= 8 ** 3
        mm = aggregate_marginals(state)
        for pos, node in enumerate(path.nodes):
            assert np.abs(cells.coordinate_sum(pos, 8) - mm.m[node]).max() <= 1e-12

    def test_truncation_bookkeeping(self, grid8):
        rng = np.random.default_rng(3)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT)
        cfg = SolverConfig(epsilon=0.5, **fixed_sweeps(10), log_domain=False)
        state, _ = solve(net, [path], config=cfg)
        top = extract_plan(state, 0, top_k=5)
        assert len(top.mass) == 5
        assert np.all(np.diff(top.mass) <= 0)
        full = extract_plan(state, 0)
        assert top.total_mass == pytest.approx(full.total_mass)
        assert top.extracted_mass <= full.extracted_mass

    def test_too_large_guard(self, grid8):
        rng = np.random.default_rng(4)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT)
        cfg = SolverConfig(epsilon=0.5, **fixed_sweeps(2), log_domain=False)
        state, _ = solve(net, [path], config=cfg)
        with pytest.raises(PlanTooLargeError):
            extract_plan(state, 0, max_cells=100)


class TestSharedNodeNetwork:
    def test_three_route_aggregation(self, grid16):
        # split/merge topology at small size: shared nodes see the sum
        rng = np.random.default_rng(17)
        mu0, muT = ordered_random_pair(grid16, rng, 5)
        nodes = ("v0", "v1", "v2", "v3", "v4", "v5", "v6", "vT")
        edges = {("v0", "v1"): 1.0, ("v0", "v2"): 1.0,
                 ("v1", "v3"): 1.0, ("v2", "v3"): 1.0,
                 ("v3", "v4"): 1.0,
                 ("v4", "v5"): 1.0, ("v4", "v6"): 1.0,
                 ("v5", "vT"): 1.0, ("v6", "vT"): 1.0}
        cap = np.full(16, 0.15)
        net = TransportNetwork(
            grid=grid16, nodes=nodes, edges=edges,
            sources={"v0": Measure(grid16, mu0)},
            sinks={"vT": Measure(grid16, muT)},
            capacities={v: CapacityProfile(grid16, cap) for v in
                        ("v1", "v2", "v3", "v4", "v5", "v6")})
        paths = [Path(("v0", "v2", "v3", "v4", "v6", "vT")),
                 Path(("v0", "v1", "v3", "v4", "v5", "vT")),
                 Path(("v0", "v2", "v3", "v4", "v5", "vT"))]
        cfg = SolverConfig(epsilon=0.3, tol=1e-9, max_iter=6000, log_domain=True)
        state, report = solve(net, paths, config=cfg)
        assert report.converged
        msgs = state.system.compute_messages(state)
        mm = aggregate_marginals(state, msgs)
        summed = np.zeros(16)
        for p_idx in range(3):
            prof = flux_profile(state, p_idx, "v3", msgs)
            summed += prof * state.w_linear("v3")
        assert np.abs(summed - mm.m["v3"]).max() <= 1e-12
        assert np.max(mm.m["v3"] - cap) <= 1e-8
        assert np.max(mm.m["v4"] - cap) <= 1e-8
        delivered = mm.m["vT"].sum()
        assert delivered == pytest.approx(1.0, abs=1e-8)
