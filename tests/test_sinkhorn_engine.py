import itertools
import tracemalloc
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
from datransport import sinkhorn_engine
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
    ABSORB_BAND,
    ANDERSON_WARMUP,
    PathSystem,
    SinkhornState,
    SolverConfig,
    _AbsorbedStep,
    _backward_step,
    _causal_windows,
    _forward_step,
    _lse_cols,
    _lse_matmul,
    _lse_reduce,
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

    def test_matmul_blocks_match_one_reduction(self, monkeypatch):
        rng = np.random.default_rng(32)
        a = rng.normal(scale=4.0, size=(7, 13))
        b = rng.normal(scale=4.0, size=(13, 11))
        a[rng.random(a.shape) < 0.3] = -np.inf
        b[rng.random(b.shape) < 0.3] = -np.inf
        a[2, :] = -np.inf
        b[:, 4] = -np.inf
        # a block above the array's size: one reduction over the whole array
        monkeypatch.setattr(sinkhorn_engine, "_LSE_MATMUL_BLOCK", a.size * b.size)
        ref = _lse_matmul(a, b)
        assert np.isneginf(ref).any() and np.isfinite(ref).any()
        # 3 rows per block: blocks of 3, 3 and 1 rows, then one block
        for block in (3 * 13 * 11, 2 ** 20):
            monkeypatch.setattr(sinkhorn_engine, "_LSE_MATMUL_BLOCK", block)
            assert np.array_equal(_lse_matmul(a, b), ref)
        # and the one reduction is the standard log-sum-exp
        sci = logsumexp(a[:, :, None] + b[None, :, :], axis=1)
        dead = np.isneginf(sci)
        assert np.array_equal(np.isneginf(ref), dead)
        assert np.max(np.abs(ref[~dead] - sci[~dead])) <= 1e-13

    @pytest.mark.parametrize("shape, axis", [((9,), 0), ((9, 6), 0), ((6, 9), 1),
                                             ((9, 4, 5), 0), ((4, 9, 5), 1)])
    def test_non_finite_slices_match_scipy(self, shape, axis):
        # the shapes and axes the engine reduces: path masses (1-D), message
        # steps (2-D) and the blocks of _lse_matmul and the coupled terms (3-D)
        rng = np.random.default_rng(33)
        n = shape[axis]
        big = rng.uniform(710.0, 900.0, n)  # exp overflows beyond about 709.8
        slices = [np.full(n, -np.inf),
                  np.where(np.arange(n) == 1, np.inf, big),
                  np.where(np.arange(n) == 2, np.inf, -np.inf),
                  np.where(np.arange(n) == 3, np.nan, big),
                  big]
        if len(shape) == 1:
            arrays = slices
        else:
            a = rng.normal(scale=5.0, size=shape)
            lanes = np.moveaxis(a, axis, -1)  # a view: lanes[idx] is one reduced slice
            for k, lane in enumerate(slices):
                lanes[np.unravel_index(k, lanes.shape[:-1])] = lane
            arrays = [a]
        for a in arrays:
            ref = np.asarray(logsumexp(a, axis=axis))
            ours = np.asarray(_lse_reduce(a.copy(), axis))
            for pattern in (np.isposinf, np.isneginf, np.isnan):
                assert np.array_equal(pattern(ours), pattern(ref))
            live = np.isfinite(ref)
            err = np.abs(ours[live] - ref[live])
            assert np.all(err <= 1e-13 * np.maximum(np.abs(ref[live]), 1.0))


def _absorbed_reference(logk, x, axis):
    return logsumexp(logk + (x[:, None] if axis == 0 else x[None, :]), axis=axis)


def _absorbed_step(logk, axis):
    return _AbsorbedStep(logk, axis, _causal_windows(logk, axis))


def _absorbed_entry(step, s, t):
    """Entry (s, t) of the step's absorbed kernel, read from the block that stores it."""
    o, i = (t, s) if step.axis == 0 else (s, t)
    for (out, inp), block in zip(step.windows, step.blocks):
        if out.start <= o < out.stop:
            assert inp.start <= i < inp.stop
            rows, cols = (inp, out) if step.axis == 0 else (out, inp)
            return block[s - rows.start, t - cols.start]
    raise AssertionError(f"no block stores ({s}, {t})")


# rows per block: the default (one block on these small grids) and a few
# rows, so that every test runs across several blocks as well
ABSORB_ROWS = [sinkhorn_engine._ABSORB_ROWS, 5]


def _count_absorptions(monkeypatch):
    """Count ``_AbsorbedStep`` calls and the absorptions among them: [calls, absorptions]."""
    counts = [0, 0]
    call, absorb = _AbsorbedStep.__call__, _AbsorbedStep._absorb

    def counted_call(self, x):
        counts[0] += 1
        return call(self, x)

    def counted_absorb(self, x, dead):
        counts[1] += 1
        return absorb(self, x, dead)

    monkeypatch.setattr(_AbsorbedStep, "__call__", counted_call)
    monkeypatch.setattr(_AbsorbedStep, "_absorb", counted_absorb)
    return counts


class TestAbsorbedStep:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_scipy(self, axis, monkeypatch):
        # random walks of the input: drift up to the band, bins dying and
        # bins reviving; the kernel at epsilon 0.01 spans thousands of log
        # units, so most of it underflows in the absorbed blocks
        n = 40
        logk = build_pair_kernel(TimeGrid(t_f=1.0, n_t=n), 1.0, 0.01).logK
        counts = _count_absorptions(monkeypatch)
        for rows, blocks in zip(ABSORB_ROWS, (1, 8)):
            monkeypatch.setattr(sinkhorn_engine, "_ABSORB_ROWS", rows)
            rng = np.random.default_rng(41)
            counts[:] = [0, 0]
            step = _absorbed_step(logk, axis)
            assert len(step.windows) == blocks
            x = rng.normal(scale=20.0, size=n)
            x[rng.random(n) < 0.1] = -np.inf
            changed = {"died": 0, "revived": 0}
            for _ in range(600):
                u, i = rng.random(), rng.integers(n)
                if u < 0.05 and np.isfinite(x[i]):
                    x[i] = -np.inf
                    changed["died"] += 1
                elif u < 0.1 and np.isneginf(x[i]):
                    x[i] = rng.normal(scale=20.0)
                    changed["revived"] += 1
                live = np.isfinite(x)
                x[live] += rng.uniform(-1.0, 1.0, live.sum()) * rng.uniform(0.0, 0.3 * ABSORB_BAND)
                ours = step(x.copy())
                ref = _absorbed_reference(logk, x, axis)
                dead = np.isneginf(ref)
                assert np.array_equal(np.isneginf(ours), dead)
                err = np.abs(ours[~dead] - ref[~dead])
                assert np.all(err <= 1e-13 * np.maximum(np.abs(ref[~dead]), 1.0))
            assert min(changed.values()) >= 5
            # most calls are served from the cache, and some re-absorb
            assert 0 < counts[1] < counts[0] / 2

    def test_band_edge_is_served(self, monkeypatch):
        n = 24
        logk = build_pair_kernel(TimeGrid(t_f=1.0, n_t=n), 1.0, 0.02).logK
        counts = _count_absorptions(monkeypatch)
        for rows, axis in itertools.product(ABSORB_ROWS, (0, 1)):
            monkeypatch.setattr(sinkhorn_engine, "_ABSORB_ROWS", rows)
            rng = np.random.default_rng(42)
            counts[:] = [0, 0]
            step = _absorbed_step(logk, axis)
            x = rng.normal(scale=5.0, size=n)
            step(x)
            # every live bin drifts to just inside the band, then just past it
            sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            ours = step(x + sign * (ABSORB_BAND - 1e-9))
            assert counts == [2, 1]
            ref = _absorbed_reference(logk, x + sign * (ABSORB_BAND - 1e-9), axis)
            dead = np.isneginf(ref)
            assert np.array_equal(np.isneginf(ours), dead)
            err = np.abs(ours[~dead] - ref[~dead])
            assert np.all(err <= 1e-13 * np.maximum(np.abs(ref[~dead]), 1.0))
            step(x + sign * (ABSORB_BAND + 1e-9))
            assert counts == [3, 2]

    def test_dying_bins_reabsorb(self, monkeypatch):
        # forward, live bins 20-25 feed output 26; bin 20's entry dominates
        # it and bin 25's underflows in the absorbed block, so once bins
        # 20-24 die, output 26 is exact only after re-absorbing.  Backward
        # is the mirror image: bins 6-11 feed output 5, and 7-11 die.
        n = 32
        logk = build_pair_kernel(TimeGrid(t_f=1.0, n_t=n), 1.0, 0.01).logK
        for rows, axis in itertools.product(ABSORB_ROWS, (0, 1)):
            monkeypatch.setattr(sinkhorn_engine, "_ABSORB_ROWS", rows)
            mirror = (lambda k: k) if axis == 0 else (lambda k: n - 1 - k)
            step = _absorbed_step(logk, axis)
            x = np.full(n, -np.inf)
            x[[mirror(k) for k in range(20, 26)]] = 0.0
            step(x)
            weak, out = mirror(25), mirror(26)
            assert _absorbed_entry(step, *sorted((weak, out))) == 0.0
            x[[mirror(k) for k in range(20, 25)]] = -np.inf
            ours = step(x)
            ref = _absorbed_reference(logk, x, axis)
            assert np.isfinite(ours[out])
            assert ours[out] == pytest.approx(ref[out], rel=1e-13)
            assert ours[out] < -1000.0

    def test_blocks_keep_the_causal_support(self):
        # at n_t 400 the default blocks store under 0.6 n_t**2 entries, hold
        # every finite kernel entry, and store no input slice that lies
        # wholly at t <= s
        grid = TimeGrid(t_f=1.0, n_t=400)
        mu0, muT = ordered_random_pair(grid, np.random.default_rng(7), 3)
        net, path = make_line_net(grid, [1.0, 0.5, 1.0], mu0, muT)
        system = PathSystem(net, [path])
        system.compute_messages(system.initial_state())
        n = grid.n_t
        for step in (step for pair in system._steps[0] for step in pair):
            assert len(step.windows) > 1
            assert sum(block.size for block in step.blocks) <= 0.6 * n ** 2
            stored = np.zeros((n, n), dtype=int)
            for (out, inp), block in zip(step.windows, step.blocks):
                rows, cols = (inp, out) if step.axis == 0 else (out, inp)
                assert block.shape == (rows.stop - rows.start, cols.stop - cols.start)
                stored[rows, cols] += 1
                s, t = np.arange(n)[rows, None], np.arange(n)[None, cols]
                assert np.all((t > s).any(axis=1 - step.axis))
            finite = np.isfinite(step.logk)
            assert stored.max() == 1 and np.all(stored[finite] == 1)

    def test_log_domain_builds_no_linear_matrices(self, grid16):
        # linear kernels and cost matrices are built on first use only
        system = _pinning_instance("shared", grid16)
        state, _ = solve(system.net, system.paths, config=replace(system.config,
                                                                  **fixed_sweeps(5)))
        aggregate_marginals(state)
        system = state.system
        assert not any("K" in vars(k) for k in system._kernel_cache.values())
        assert not system._cost_mats
        assert system.transport_cost(state) > 0
        assert len(system._cost_mats) == 1

    def test_solve_rarely_reabsorbs(self, monkeypatch):
        spec = scenario_61()
        built = spec.build()
        cfg = replace(built.config, **fixed_sweeps(200))
        counts = _count_absorptions(monkeypatch)
        _, report = solve(built.net, built.paths, config=cfg)
        assert report.iterations == 200
        assert counts[0] >= 200 * 2 * built.paths[0].n_edges
        assert counts[1] < 0.1 * counts[0]


class TestFluxProfile:
    def test_counting_kernel_limit(self, grid8):
        # in the zero-weight limit every ordered transition has weight one,
        # so the interior profile counts strictly-below times strictly-above
        # pairs; the network requires positive weights, so approximate the
        # limit with a vanishing one
        mu0, muT = np.full(8, 0.125), np.full(8, 0.125)
        net, path = make_line_net(grid8, [1e-9, 1e-9], mu0, muT)
        system = PathSystem(net, [path], config=SolverConfig(epsilon=1.0))
        state = system.initial_state()
        prof = flux_profile(state, 0, "n1")
        expect = np.array([k * (7 - k) for k in range(8)], dtype=float)
        assert np.allclose(prof, expect, rtol=1e-6)

    def test_total_mass_consistent_across_nodes(self, grid10):
        rng = np.random.default_rng(3)
        mu0, muT = ordered_random_pair(grid10, rng, 3)
        net, path = make_line_net(grid10, [1.0, 0.5, 2.0], mu0, muT)
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.3))
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
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.4))
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
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.5))
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
        system2 = PathSystem(net2, paths2, config=SolverConfig(epsilon=0.5))
        state2 = system2.initial_state()
        mm2 = aggregate_marginals(state2)

        net1, path1 = make_line_net(grid, [1.0, 1.0], mu0, muT,
                                    node_names=["s", "m1", "t"])
        system1 = PathSystem(net1, [path1], config=SolverConfig(epsilon=0.5))
        mm1 = aggregate_marginals(system1.initial_state())
        assert np.allclose(mm2.m["s"], 2 * mm1.m["s"])
        assert np.allclose(mm2.m["t"], 2 * mm1.m["t"])
        assert np.allclose(mm2.m["m1"], mm1.m["m1"])


class TestBlockUpdates:
    def test_boundary_update_exact(self, grid16):
        rng = np.random.default_rng(11)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT)
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.3))
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
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.5))
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
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.5))
        state = system.initial_state()
        with pytest.raises(UnreachableMassError):
            boundary_update(state, "n0")

    def test_capacity_update(self, grid8):
        mu0, muT = np.full(8, 0.125), np.full(8, 0.125)
        slack = {"n1": np.full(8, 1e6)}
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT, caps=slack)
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.5))
        state = system.initial_state()
        capacity_update(state, "n1")
        assert np.allclose(state.w_linear("n1"), 1.0)

        # direct ratio: aggregate 0.04 against cap 0.02 gives factor 0.5
        mm = aggregate_marginals(state)
        agg = mm.m["n1"]  # w = 1, so the marginal is the aggregate
        cap = np.where(agg > 0, agg * 0.5, 1.0)
        net2, path2 = make_line_net(grid8, [1.0, 1.0], mu0, muT, caps={"n1": cap})
        system2 = PathSystem(net2, [path2], config=SolverConfig(epsilon=0.5))
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
        system = PathSystem(net, [path], config=SolverConfig())
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
        cfg = SolverConfig(epsilon=0.4, **fixed_sweeps(sweeps))
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
    def test_three_node_capped(self, grid8):
        rng = np.random.default_rng(5)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        cap = np.full(8, 0.22)
        net, path = make_line_net(grid8, [1.0, 1.5], mu0, muT, caps={"n1": cap})
        sweeps = 25
        cfg = SolverConfig(epsilon=0.2, **fixed_sweeps(sweeps))
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
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(sweeps))
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
        cfg = SolverConfig(epsilon=0.3, tol=1e-10, max_iter=2000)
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
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(120))
        _, report = solve(net, [path], config=cfg)
        assert np.all(np.diff(report.objective) >= -1e-9)

    def test_dual_ascent_within_blocks(self, grid10):
        # the dual objective may not decrease across ANY single block update
        rng = np.random.default_rng(13)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 2.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.3)})
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.4))
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

    def test_determinism(self, grid10):
        rng = np.random.default_rng(4)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.2)})
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(50))
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
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(ANDERSON_WARMUP))
        state, _ = solve(net, [path], config=cfg)
        system = PathSystem(net, [path], config=cfg)
        plain = system.initial_state()
        for _ in range(ANDERSON_WARMUP):
            system.sweep(plain)
        assert np.array_equal(state.u["n0"], plain.u["n0"])
        assert np.array_equal(state.w["n1"], plain.w["n1"])
        assert np.array_equal(state.v["n2"], plain.v["n2"])

    def test_mixed_solve_keeps_dual_ascent(self):
        # scenario_61 runs well past the warm-up before it meets its tol
        built = scenario_61().build()
        _, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
        assert report.converged
        assert report.iterations > ANDERSON_WARMUP
        assert np.all(np.diff(report.objective) >= -1e-9)

    def test_mixing_keeps_dead_bins_dead(self, grid16):
        # zero-mass boundary bins carry dead scalings (log-scaling -inf); the
        # solve runs past the warm-up and on into round-off
        rng = np.random.default_rng(21)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(16, 0.12)})
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(ANDERSON_WARMUP + 100))
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

    def test_swept_dual_needs_no_messages(self, grid16):
        # right after a sweep the sinks are matched, so the dual's mass term
        # is the sink target mass on live bins
        rng = np.random.default_rng(22)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(16, 0.12)})
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.3))
        state = system.initial_state()
        for _ in range(5):
            system.sweep(state)
            assert system._swept_dual_objective(state) == pytest.approx(
                system.dual_objective(state), rel=1e-12, abs=1e-14)

    def test_one_message_pass_per_sweep(self, grid16, monkeypatch):
        # the exact Gauss-Seidel solve pays one backward-only message pass per
        # sweep and never the primal cost; the traced dual is still the full one
        rng = np.random.default_rng(23)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(16, 0.12)})
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(ANDERSON_WARMUP))
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

    def test_backward_only_messages(self, grid10):
        rng = np.random.default_rng(24)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 2.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.3)})
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.4))
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

    def test_non_finite_row_raises(self, grid10, monkeypatch):
        rng = np.random.default_rng(25)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT)
        sweep = PathSystem.sweep

        def poisoned(self, state, messages=None):
            e0, et, v = sweep(self, state, messages)
            return (np.nan if state.iteration == 2 else e0), et, v

        monkeypatch.setattr(PathSystem, "sweep", poisoned)
        cfg = SolverConfig(epsilon=0.4, **fixed_sweeps(10))
        with pytest.raises(NonFiniteError, match="sweep 3"):
            solve(net, [path], config=cfg)

    def test_mass_conserved_after_boundary_updates(self, grid10):
        rng = np.random.default_rng(19)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.3)})
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.4))
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        boundary_update(state, "n0")
        assert system.path_masses(state).sum() == pytest.approx(1.0, abs=1e-10)


class TestCoupledMode:
    def make_coupled(self, grid, joint_mass, cap=None, epsilon=0.3):
        joint = JointMeasure(grid, joint_mass)
        mu0 = joint_mass.sum(axis=1)
        muT = joint_mass.sum(axis=0)
        caps = {"n1": cap} if cap is not None else None
        net, path = make_line_net(grid, [1.0, 1.0], mu0, muT, caps=caps)
        cfg = SolverConfig(epsilon=epsilon, tol=0.0, max_iter=1)
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
    def test_matches_dense_coupled_oracle(self, grid8, log_domain, monkeypatch):
        rng = np.random.default_rng(31)
        joint_mass = np.zeros((8, 8))
        for i in range(5):
            for j in range(i + 2, 8):
                joint_mass[i, j] = rng.uniform(0.1, 1.0)
        joint_mass /= joint_mass.sum()
        cap = np.full(8, 0.3)
        _pick_domain(monkeypatch, log_domain)
        system, joint = self.make_coupled(grid8, joint_mass, cap=cap)
        assert system.log_domain is log_domain
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


    @pytest.mark.parametrize("log_domain", [False, True])
    def test_chains_start_from_the_kernels(self, grid16, log_domain, monkeypatch):
        # the boundary scalings are neutral in coupled mode, so the first
        # forward and the last backward message of a path are its end
        # kernels: exactly the steps from the identity, without the product
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance("coupled", grid16)
        state = system.initial_state()
        system.sweep(state)
        msgs = system.compute_messages(state)
        eye, unit = system._start, system._unit
        for p_idx, path in enumerate(system.paths):
            kernels, steps = system.path_kernels[p_idx], system._steps[p_idx]
            first = system._kernel(kernels[0], log_domain)
            last = system._kernel(kernels[-1], log_domain)
            assert msgs.fwd[p_idx][1] is first
            assert msgs.bwd[p_idx][path.n_edges - 1] is last
            assert np.array_equal(
                first, _forward_step(kernels[0], eye, unit, log_domain, steps[0][0]))
            assert np.array_equal(
                last, _backward_step(kernels[-1], eye, unit, log_domain, steps[-1][1]))

    def test_linear_contractions_match_einsum(self, grid16):
        system = _pinning_instance("coupled", grid16)
        assert not system.log_domain  # the rule's pick at epsilon 0.3
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        msgs = system.compute_messages(state)
        lam = np.exp(state.lam[("s", "t")])  # the state holds log-scalings in either domain
        for p_idx, path in enumerate(system.paths):
            for pos in range(1, path.n_edges):
                f, b = msgs.fwd[p_idx][pos], msgs.bwd[p_idx][pos]
                np.testing.assert_allclose(system._path_term(state, p_idx, f, b),
                                           np.einsum("ij,it,tj->t", lam, f, b), rtol=1e-12)
            for l in range(1, path.n_p):
                s_prev = system._scaling_at(state, path, l - 1)
                s_next = system._scaling_at(state, path, l)
                left = msgs.fwd[p_idx][l - 1].T @ np.einsum("ij,tj->it", lam, msgs.bwd[p_idx][l])
                ref = left * s_prev[:, None] * system.path_kernels[p_idx][l - 1].K * s_next
                np.testing.assert_allclose(system._edge_pair_marginal(state, msgs, p_idx, l),
                                           ref, rtol=1e-12)

    def test_log_contractions_match_one_piece(self, grid16, monkeypatch):
        # the reference reduces one n_t**3 temporary per contraction; the
        # engine's pair marginal is two blocked _lse_matmul calls instead
        _pick_domain(monkeypatch, True)
        system = _pinning_instance("coupled", grid16)
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        msgs = system.compute_messages(state)
        lam = state.lam[("s", "t")]
        cost = 0.0
        for p_idx, path in enumerate(system.paths):
            for pos in range(1, path.n_edges):
                f, b = msgs.fwd[p_idx][pos], msgs.bwd[p_idx][pos]
                g = logsumexp(lam[:, None, :] + b[None, :, :], axis=2)  # g[i, t]
                ref = logsumexp(f + g, axis=0)
                ours = system._path_term(state, p_idx, f, b)
                dead = np.isneginf(ref)
                assert np.array_equal(np.isneginf(ours), dead) and dead.any()
                np.testing.assert_allclose(ours[~dead], ref[~dead], rtol=1e-13)
            for l in range(1, path.n_p):
                f, b = msgs.fwd[p_idx][l - 1], msgs.bwd[p_idx][l]
                g = logsumexp(lam[:, None, :] + b[None, :, :], axis=2)
                left = logsumexp(f[:, :, None] + g[:, None, :], axis=0)  # left[s, t]
                s_prev = system._scaling_at(state, path, l - 1)
                s_next = system._scaling_at(state, path, l)
                logk = system.path_kernels[p_idx][l - 1].logK
                ref = np.exp(left + s_prev[:, None] + logk + s_next[None, :])
                np.testing.assert_allclose(system._edge_pair_marginal(state, msgs, p_idx, l),
                                           ref, rtol=1e-13, atol=0.0)
                weight = float(system.path_weights[p_idx][l - 1])
                cost += float((ref * system._cost_mat(weight)).sum())
        assert system.transport_cost(state, msgs) == pytest.approx(cost, rel=1e-12, abs=0.0)


class TestExtractPlan:
    def test_full_enumeration_matches_marginals(self, grid8):
        rng = np.random.default_rng(12)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(8, 0.3)})
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(30))
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
        cfg = SolverConfig(epsilon=0.5, **fixed_sweeps(10))
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
        cfg = SolverConfig(epsilon=0.5, **fixed_sweeps(2))
        state, _ = solve(net, [path], config=cfg)
        with pytest.raises(PlanTooLargeError):
            extract_plan(state, 0, max_cells=100)

    def test_negative_top_k_rejected(self, grid8):
        rng = np.random.default_rng(4)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT)
        state = PathSystem(net, [path]).initial_state()
        for top_k in (-1, -3):
            with pytest.raises(BadParamError, match="top_k"):
                extract_plan(state, 0, top_k=top_k)

    def test_bad_path_index_rejected(self, grid8):
        rng = np.random.default_rng(4)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT)
        state = PathSystem(net, [path]).initial_state()
        for index in (1, 5, -1, 0.0, True):
            with pytest.raises(BadParamError, match="path_index"):
                extract_plan(state, index)
            with pytest.raises(BadParamError, match="path_index"):
                flux_profile(state, index, "n1")

    def test_bad_plan_options_rejected(self, grid8):
        rng = np.random.default_rng(4)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT)
        state = PathSystem(net, [path]).initial_state()
        for kwargs in ({"min_mass": np.nan}, {"min_mass": np.nan, "top_k": 5},
                       {"min_mass": -1.0}, {"min_mass": np.inf}, {"min_mass": "0"},
                       {"max_cells": 0}, {"max_cells": 2.5}, {"max_cells": True}):
            with pytest.raises(BadParamError, match=next(iter(kwargs))):
                extract_plan(state, 0, **kwargs)

    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("coupled", False), ("coupled", True)])
    def test_slabs_match_the_dense_plan(self, grid16, kind, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        for _ in range(5):
            system.sweep(state)
        masses = system.path_masses(state)
        for p_idx, path in enumerate(system.paths):
            # three departure bins per slab: 16 rows split as 5 x 3 + 1
            row = 16 ** (path.n_p - 1)
            monkeypatch.setattr(sinkhorn_engine, "_PLAN_SLAB", 3 * row + 5)
            plan = _dense_plan(state, p_idx)
            heaviest = plan.max()
            for kwargs in ({}, {"min_mass": 0.01 * heaviest}, {"top_k": 50},
                           {"top_k": 7, "min_mass": 0.05 * heaviest}):
                cells = extract_plan(state, p_idx, **kwargs)
                keep, mass = _dense_cells(plan, kwargs.get("min_mass", 0.0))
                k = kwargs.get("top_k", keep.size)
                assert 0 < k <= keep.size and (k < keep.size) == ("top_k" in kwargs)
                assert np.array_equal(np.ravel_multi_index(cells.indices.T, plan.shape), keep[:k])
                assert np.array_equal(cells.mass, mass[:k])
                assert cells.total_mass == pytest.approx(masses[p_idx], rel=1e-12, abs=0.0)

    def test_top_k_breaks_ties_by_index(self, grid16, monkeypatch):
        # neutral scalings on an equal-weight line: a cell's mass depends
        # only on its two bin gaps, so many cells tie
        rng = np.random.default_rng(5)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT)
        state = PathSystem(net, [path]).initial_state()
        monkeypatch.setattr(sinkhorn_engine, "_PLAN_SLAB", 3 * 16 ** 2)
        keep, mass = _dense_cells(_dense_plan(state, 0))
        for k in (5, 20, 60):
            assert mass[k - 1] == mass[k]  # the cut falls inside a tie
            cells = extract_plan(state, 0, top_k=k)
            assert np.array_equal(np.ravel_multi_index(cells.indices.T, (16,) * 3), keep[:k])
            assert np.array_equal(cells.mass, mass[:k])

    def test_top_k_beyond_the_cells_kept(self, grid16):
        system = _pinning_instance("line", grid16)
        state = system.initial_state()
        for _ in range(5):
            system.sweep(state)
        kept = extract_plan(state, 0, min_mass=1e-4)
        assert 0 < kept.mass.size < 16 ** 4
        for top_k in (kept.mass.size, kept.mass.size + 10):
            top = extract_plan(state, 0, top_k=top_k, min_mass=1e-4)
            assert np.array_equal(top.indices, kept.indices)
            assert np.array_equal(top.mass, kept.mass)
        assert extract_plan(state, 0, top_k=0).mass.size == 0

    def test_memory_is_one_slab_not_the_plan(self):
        grid = TimeGrid(t_f=1.0, n_t=128)
        mu0, muT = ordered_random_pair(grid, np.random.default_rng(6), 2)
        net, path = make_line_net(grid, [1.0, 1.0], mu0, muT)
        state = PathSystem(net, [path]).initial_state()
        dense_bytes = 8 * 128 ** 3
        assert dense_bytes >= 8 * 2 ** 20
        tracemalloc.start()
        try:
            cells = extract_plan(state, 0, top_k=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells.mass.size == 500
        assert peak < dense_bytes / 4


class TestSharedNodeNetwork:
    def test_three_route_aggregation(self, grid16):
        # split/merge topology at small size: shared nodes see the sum
        rng = np.random.default_rng(17)
        mu0, muT = ordered_random_pair(grid16, rng, 5)
        cap = np.full(16, 0.15)
        net, paths = _three_route_network(grid16, mu0, muT, cap)
        cfg = SolverConfig(epsilon=0.3, tol=1e-9, max_iter=6000)
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


def _pick_domain(monkeypatch, log_domain):
    """Make the coupled-mode domain rule pick ``log_domain``, whatever the neutral chains."""
    monkeypatch.setattr(sinkhorn_engine, "use_log_domain", lambda *args: log_domain)
    monkeypatch.setattr(PathSystem, "_neutral_chain_underflows", lambda self: False)


def _pinning_instance(kind, grid):
    """Small ``PathSystem`` of each sweep shape."""
    rng = np.random.default_rng(51)
    cfg = SolverConfig(epsilon=0.3)
    if kind == "line":
        mu0, muT = ordered_random_pair(grid, rng, 3)
        caps = {"n1": np.full(grid.n_t, 0.2), "n2": np.full(grid.n_t, 0.18)}
        net, path = make_line_net(grid, [1.0, 0.7, 1.2], mu0, muT, caps=caps)
        return PathSystem(net, [path], config=cfg)
    if kind == "shared":
        mu0, muT = ordered_random_pair(grid, rng, 5)
        net, paths = _three_route_network(grid, mu0, muT, np.full(grid.n_t, 0.15))
        return PathSystem(net, paths, config=cfg)
    if kind == "cyclic":
        net, paths = _cyclic_family(grid, rng)
        return PathSystem(net, paths, config=cfg)
    joint = np.zeros((grid.n_t, grid.n_t))
    for i in range(grid.n_t - 4):
        joint[i, i + 4:] = rng.uniform(0.1, 1.0, grid.n_t - 4 - i)
    joint /= joint.sum()
    cap = CapacityProfile(grid, np.full(grid.n_t, 0.12))
    net = TransportNetwork(
        grid=grid, nodes=("s", "a", "b", "t"),
        edges={("s", "a"): 1.0, ("a", "t"): 1.0, ("s", "b"): 1.2, ("b", "t"): 1.2},
        sources={"s": Measure(grid, joint.sum(axis=1))},
        sinks={"t": Measure(grid, joint.sum(axis=0))},
        capacities={"a": cap, "b": cap})
    return PathSystem(net, [Path(("s", "a", "t")), Path(("s", "b", "t"))], mode="coupled",
                      config=cfg, joints={("s", "t"): JointMeasure(grid, joint)})


def _three_route_network(grid, mu0, muT, cap):
    """Split/merge topology: three routes share v3 and v4; all interior nodes capped."""
    nodes = ("v0", "v1", "v2", "v3", "v4", "v5", "v6", "vT")
    edges = {("v0", "v1"): 1.0, ("v0", "v2"): 1.0,
             ("v1", "v3"): 1.0, ("v2", "v3"): 1.0,
             ("v3", "v4"): 1.0,
             ("v4", "v5"): 1.0, ("v4", "v6"): 1.0,
             ("v5", "vT"): 1.0, ("v6", "vT"): 1.0}
    net = TransportNetwork(
        grid=grid, nodes=nodes, edges=edges,
        sources={"v0": Measure(grid, mu0)},
        sinks={"vT": Measure(grid, muT)},
        capacities={v: CapacityProfile(grid, cap) for v in
                    ("v1", "v2", "v3", "v4", "v5", "v6")})
    paths = [Path(("v0", "v2", "v3", "v4", "v6", "vT")),
             Path(("v0", "v1", "v3", "v4", "v5", "vT")),
             Path(("v0", "v2", "v3", "v4", "v5", "vT"))]
    return net, paths


def _cyclic_family(grid, rng):
    """Two routes that cross a and b in opposite orders, both capped: no path-compatible order."""
    mu0, muT = ordered_random_pair(grid, rng, 3)
    cap = CapacityProfile(grid, np.full(grid.n_t, 0.12))
    net = TransportNetwork(
        grid=grid, nodes=("s", "a", "b", "t"),
        edges={("s", "a"): 1.0, ("a", "b"): 1.0, ("b", "t"): 1.0,
               ("s", "b"): 1.0, ("b", "a"): 1.0, ("a", "t"): 1.0},
        sources={"s": Measure(grid, mu0)}, sinks={"t": Measure(grid, muT)},
        capacities={"a": cap, "b": cap})
    return net, [Path(("s", "a", "b", "t")), Path(("s", "b", "a", "t"))]


def _count_message_passes(monkeypatch):
    """Record the keyword arguments of every ``PathSystem.compute_messages`` call."""
    calls = []
    compute_messages = PathSystem.compute_messages

    def counted(self, state, **kwargs):
        calls.append(kwargs)
        return compute_messages(self, state, **kwargs)

    monkeypatch.setattr(PathSystem, "compute_messages", counted)
    return calls


def _dense_plan(state, p_idx):
    """Whole plan tensor of one path, its factors combined in the engine's order."""
    system = state.system
    path = system.paths[p_idx]
    n_t, n_p, log = system.n_t, path.n_p, system.log_domain
    combine = np.add if log else np.multiply

    def view(arr, axes):
        return arr.reshape([n_t if axis in axes else 1 for axis in range(n_p)])

    plan = np.full((n_t,) * n_p, 0.0 if log else 1.0)
    for pos in range(n_p):
        plan = combine(plan, view(system._scaling_at(state, path, pos), (pos,)))
    for l, kern in enumerate(system.path_kernels[p_idx]):
        plan = combine(plan, view(kern.logK if log else kern.K, (l, l + 1)))
    if system.mode == "coupled":
        lam = state.lam[(path.source, path.sink)]
        plan = combine(plan, view(lam if log else np.exp(lam), (0, n_p - 1)))
    return np.exp(plan) if log else plan


def _dense_cells(plan, min_mass=0.0):
    """Flat indices and masses of the cells above ``min_mass``: mass descending, index ascending."""
    flat = plan.ravel()
    keep = np.flatnonzero(flat > min_mass)
    keep = keep[np.lexsort((keep, -flat[keep]))]
    return keep, flat[keep]


def _record_dual_evaluations(monkeypatch, record):
    """Append ``record(state)`` for every state ``PathSystem.dual_objective`` evaluates."""
    seen = []
    dual_objective = PathSystem.dual_objective

    def recorded(self, state, messages=None):
        seen.append(record(state))
        return dual_objective(self, state, messages)

    monkeypatch.setattr(PathSystem, "dual_objective", recorded)
    return seen


class TestNumericDomain:
    @pytest.mark.parametrize("kind", ["line", "shared", "cyclic", "coupled"])
    def test_engine_picks_the_domain(self, grid16, kind, monkeypatch):
        # independent mode runs the log domain whatever the rule says;
        # coupled mode follows the rule, which picks linear at epsilon 0.3
        assert _pinning_instance(kind, grid16).log_domain is (kind != "coupled")
        for rule in (False, True):
            _pick_domain(monkeypatch, rule)
            system = _pinning_instance(kind, grid16)
            assert system.log_domain is (rule or kind != "coupled")

    @pytest.mark.parametrize("n_edges", [3, 5])
    def test_underflowing_neutral_chain_picks_log(self, n_edges):
        # at epsilon 0.06 the rule picks linear, but every target cell's
        # neutral chain is a product of n_edges kernel entries near e^-667:
        # linear messages underflow to 0 there and call the mass unreachable
        grid = TimeGrid(t_f=1.0, n_t=40)
        joint = np.triu(np.ones((40, 40)), k=n_edges)
        joint /= joint.sum()
        net, path = make_line_net(grid, [1.0] * n_edges, joint.sum(axis=1), joint.sum(axis=0))
        cfg = SolverConfig(epsilon=0.06, tol=1e-10, max_iter=50)
        joints = {(path.source, path.sink): JointMeasure(grid, joint)}
        assert not sinkhorn_engine.use_log_domain(cfg.epsilon, 1.0, grid.t_f)
        assert PathSystem(net, [path], mode="coupled", config=cfg, joints=joints).log_domain
        state, report = solve(net, [path], mode="coupled", config=cfg, joints=joints)
        assert report.converged
        mm = aggregate_marginals(state)
        assert np.abs(mm.joint_m[(path.source, path.sink)] - joint).sum() <= 1e-10


class TestFlatState:
    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("shared", True), ("coupled", False), ("coupled", True)])
    def test_views_share_the_flat_array(self, grid16, kind, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        assert state.x.shape == (system._size,) and not np.any(state.x)
        views = [view for bank in (state.u, state.v, state.w, state.lam)
                 for view in bank.values()]
        assert len(views) == len(system._layout)
        assert sum(view.size for view in views) == state.x.size
        for view in views:
            assert np.shares_memory(view, state.x)
        with pytest.raises(TypeError):
            state.w[system.interior_order[0]] = np.zeros(16)

    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("coupled", False), ("coupled", True)])
    def test_accepted_mixing_writes_in_place(self, grid16, kind, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        x = state.x
        mixer = sinkhorn_engine._AndersonMixer(system)
        accepted = 0
        for _ in range(10):
            x_prev = state.x.copy()
            system.sweep(state)
            plain = state.x.copy()
            mixer.step(state, x_prev)
            accepted += not np.array_equal(state.x, plain)
        assert accepted and state.x is x
        views = {**state.u, **state.v, **state.w, **state.lam}
        for block, (part, shape) in system._layout.items():
            assert np.shares_memory(views[block], x)
            assert np.array_equal(views[block], x[part].reshape(shape))


def _layout_instance(kind, grid):
    """Instance with a zero-cap bin, an uncapped bin and sub-threshold target mass on dead bins."""
    rng = np.random.default_rng(61)
    tiny = sinkhorn_engine.NEGLIGIBLE_MASS / 10
    cap = np.full(grid.n_t, 0.15)
    cap[5], cap[9] = 0.0, np.inf
    cfg = SolverConfig(epsilon=0.3)
    if kind == "coupled":
        joint = np.zeros((grid.n_t, grid.n_t))
        for i in range(grid.n_t - 4):
            joint[i, i + 4:] = rng.uniform(0.1, 1.0, grid.n_t - 4 - i)
        joint /= joint.sum()
        joint[-1, 0] = tiny  # no path departs after it arrives
        net = TransportNetwork(
            grid=grid, nodes=("s", "a", "b", "t"),
            edges={("s", "a"): 1.0, ("a", "t"): 1.0, ("s", "b"): 1.2, ("b", "t"): 1.2},
            sources={"s": Measure(grid, joint.sum(axis=1))},
            sinks={"t": Measure(grid, joint.sum(axis=0))},
            capacities={"a": CapacityProfile(grid, cap),
                        "b": CapacityProfile(grid, np.full(grid.n_t, 0.12))})
        return PathSystem(net, [Path(("s", "a", "t")), Path(("s", "b", "t"))],
                          mode="coupled", config=cfg,
                          joints={("s", "t"): JointMeasure(grid, joint)})
    mu0, muT = ordered_random_pair(grid, rng, 3 if kind == "line" else 5)
    mu0[-1] = muT[0] = tiny  # nothing departs at the last bin or arrives at the first
    if kind == "line":
        net, path = make_line_net(grid, [1.0, 0.7, 1.2], mu0, muT,
                                  caps={"n1": cap, "n2": np.full(grid.n_t, 0.18)})
        return PathSystem(net, [path], config=cfg)
    net, paths = _three_route_network(grid, mu0, muT, cap)
    return PathSystem(net, paths, config=cfg)


def _reference_bounds(system):
    """Each block's target (or cap), as the network holds it."""
    bounds = {**system.caps, **system.joints}
    if system.mode != "coupled":
        bounds.update({**system.mu0, **system.muT})
    return bounds


def _reference_dual(system, state):
    """The dual summed block by block, each over its live-bound bins."""
    views = {**state.u, **state.v, **state.w, **state.lam}
    total = 0.0
    for block, bound in _reference_bounds(system).items():
        if block in system.caps:
            keep = np.isfinite(bound) & (bound > 0)
        else:
            keep = bound > sinkhorn_engine.NEGLIGIBLE_MASS
        total += float(np.dot(views[block][keep], bound[keep]))
    return system.epsilon * (total - float(system.path_masses(state).sum()))


def _reference_violations(system, marginals):
    """(E0, ET, V) summed block by block from a block -> model marginal map."""
    bounds = _reference_bounds(system)
    totals = [0.0, 0.0, 0.0]
    for block, model in marginals.items():
        if block in system.caps:
            totals[2] += float(np.maximum(model - bounds[block], 0.0).sum())
        else:
            totals[block in system.muT] += float(np.abs(model - bounds[block]).sum())
    return tuple(totals)


def _reference_sweep(system, state):
    """One Gauss-Seidel sweep through the public block updates; returns its (E0, ET, V)."""
    first = system.pairs if system.mode == "coupled" else system.source_order
    sinks = [] if system.mode == "coupled" else system.sink_order
    marginals = {}
    for block in first + system.interior_order + sinks:
        mm = aggregate_marginals(state)
        marginals[block] = {**mm.m, **mm.joint_m}[block]
        if block in system.caps:
            capacity_update(state, block)
        elif block in system.joints:
            coupled_boundary_update(state, block)
        else:
            boundary_update(state, block)
    return _reference_violations(system, marginals)


class TestFlatLayout:
    @pytest.mark.parametrize("kind", ["line", "shared", "coupled"])
    def test_matches_the_per_block_reference(self, grid16, kind):
        system = _layout_instance(kind, grid16)
        bounds = _reference_bounds(system)
        assert list(system._layout) == (list(system.joints) + system.interior_order
                                         if kind == "coupled" else system.source_order
                                         + system.interior_order + system.sink_order)
        for block, (part, shape) in system._layout.items():
            assert np.array_equal(system.bound[part].reshape(shape), bounds[block])
            with np.errstate(divide="ignore"):
                assert np.array_equal(system.log_bound[part].reshape(shape),
                                      np.log(bounds[block]))
        caps = [system._layout[node][0] for node in system.interior_order]
        assert system._caps_part == slice(caps[0].start, caps[-1].stop)

        state = system.initial_state()
        system.sweep(state)
        # zero-cap bins, sub-threshold target mass and zero-target cells are dead
        tiny = (system.bound > 0) & (system.bound <= sinkhorn_engine.NEGLIGIBLE_MASS)
        assert np.any(tiny) and np.any(system.bound[system._caps_part] == 0)
        assert np.any(np.isinf(system.bound))
        views = {**state.u, **state.v, **state.w, **state.lam}
        for block, bound in bounds.items():
            live = bound > 0 if block in system.caps else bound > sinkhorn_engine.NEGLIGIBLE_MASS
            assert np.all(views[block][~live] == -np.inf)
        for _ in range(2):
            np.testing.assert_allclose(system.dual_objective(state),
                                       _reference_dual(system, state), rtol=1e-12)
            if kind != "coupled":
                np.testing.assert_allclose(system._swept_dual_objective(state),
                                           _reference_dual(system, state), rtol=1e-12)
            mm = aggregate_marginals(state)
            np.testing.assert_allclose(system.violations(mm), _reference_violations(
                system, {**mm.m, **mm.joint_m}), rtol=1e-12)
            reference = SinkhornState(system, state.x.copy())
            np.testing.assert_allclose(system.sweep(state),
                                       _reference_sweep(system, reference), rtol=1e-12)


class TestSweepPinning:
    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("shared", True), ("cyclic", True), ("coupled", False), ("coupled", True)])
    def test_sweep_is_exact_gauss_seidel(self, grid16, kind, log_domain, monkeypatch):
        # a sweep is, bit for bit, the public block updates in sweep order,
        # each of them computed from full messages of the current state.
        # A cached log-domain step rounds according to its last absorption
        # point, so the bitwise comparison makes every step absorb, which
        # is the plain log-sum-exp; with the cache the two agree to 1e-12.

        _pick_domain(monkeypatch, log_domain)

        def sweeps_and_block_updates():
            system = _pinning_instance(kind, grid16)
            assert system.log_domain is log_domain
            swept = system.initial_state()
            blocks = system.initial_state()
            for _ in range(5):
                system.sweep(swept)
                if system.mode == "coupled":
                    for pair in system.pairs:
                        coupled_boundary_update(blocks, pair)
                else:
                    for node in system.source_order:
                        boundary_update(blocks, node)
                for node in system.interior_order:
                    capacity_update(blocks, node)
                if system.mode == "independent":
                    for node in system.sink_order:
                        boundary_update(blocks, node)
            for bank in ("u", "v", "w", "lam"):
                ours, ref = getattr(swept, bank), getattr(blocks, bank)
                assert ours.keys() == ref.keys()
                for key in ours:
                    yield ours[key], ref[key]

        with monkeypatch.context() as patch:
            if log_domain:
                patch.setattr(sinkhorn_engine, "ABSORB_BAND", -1.0)
            for ours, ref in sweeps_and_block_updates():
                assert np.array_equal(ours, ref)
        for ours, ref in sweeps_and_block_updates():
            np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_coupled_solve_one_message_pass_per_sweep(self, grid16, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance("coupled", grid16)
        assert len(system.interior_order) == 2
        calls = _count_message_passes(monkeypatch)
        cfg = replace(system.config, **fixed_sweeps(20))
        joints = {pair: JointMeasure(grid16, mass) for pair, mass in system.joints.items()}
        _, report = solve(system.net, system.paths, mode="coupled", config=cfg, joints=joints)
        assert report.iterations == 20
        assert len(calls) == 20

    def test_cyclic_family_converges(self, grid16, monkeypatch):
        # the cyclic family has no path-compatible order, so its sweeps
        # refresh the messages before every block
        net, paths = _cyclic_family(grid16, np.random.default_rng(51))
        cfg = SolverConfig(epsilon=0.3, tol=1e-9, max_iter=3000)
        system = PathSystem(net, paths, config=cfg)
        calls = _count_message_passes(monkeypatch)
        system.sweep(system.initial_state())
        monkeypatch.undo()
        assert len(calls) == len(system.source_order + system.interior_order
                                 + system.sink_order) == 4
        state, report = solve(net, paths, config=cfg)
        assert report.converged
        assert np.all(np.diff(report.objective) >= -1e-9)
        mm = aggregate_marginals(state)
        assert max(np.max(mm.m[n] - 0.12) for n in ("a", "b")) <= 1e-9


def _solve_system(system, **config):
    """``solve()`` on the problem of a ``PathSystem``."""
    joints = {pair: JointMeasure(system.grid, mass) for pair, mass in system.joints.items()}
    return solve(system.net, system.paths, mode=system.mode,
                 config=replace(system.config, **config), joints=joints)


class TestCoupledMixing:
    @pytest.mark.parametrize("log_domain", [False, True])
    def test_warmup_is_the_plain_iteration(self, grid16, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance("coupled", grid16)
        state, _ = _solve_system(system, **fixed_sweeps(ANDERSON_WARMUP))
        plain = system.initial_state()
        for _ in range(ANDERSON_WARMUP):
            system.sweep(plain)
        for bank in ("lam", "w"):
            ours, ref = getattr(state, bank), getattr(plain, bank)
            assert ours.keys() == ref.keys()
            for key in ours:
                assert np.array_equal(ours[key], ref[key])

    @pytest.mark.parametrize("log_domain", [False, True])
    @pytest.mark.parametrize("epsilon", [0.3, 0.1])
    def test_mixed_solve_converges_with_dual_ascent(self, grid16, log_domain, epsilon,
                                                    monkeypatch):
        # at epsilon 0.1 the safeguard rejects some mixed points; taking
        # them would lower the dual by up to about 1e-9
        _pick_domain(monkeypatch, log_domain)
        pinned = _pinning_instance("coupled", grid16)
        tol = 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state, report = _solve_system(pinned, epsilon=epsilon, tol=tol, max_iter=1000)
        assert report.converged
        assert report.iterations > ANDERSON_WARMUP
        assert np.all(np.diff(report.objective) >= -1e-12)
        # zero-target joint cells stay dead, and capacity multipliers stay <= 1
        system = state.system
        lam, target = state.lam[("s", "t")], system.joints[("s", "t")]
        assert (target == 0).any() and np.all(lam[target == 0] == -np.inf)
        for node in system.interior_order:
            assert np.all(state.w_linear(node) <= 1.0)
        plain = system.initial_state()
        plain_sweeps = 1
        while sum(system.sweep(plain)) > tol:
            plain_sweeps += 1
            assert plain_sweeps < 1000
        assert report.iterations < plain_sweeps

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_backward_only_messages(self, grid16, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance("coupled", grid16)
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        full = system.compute_messages(state)
        half = system.compute_messages(state, backward_only=True)
        assert isinstance(half.fwd, sinkhorn_engine._NoForward)
        for p_idx, path in enumerate(system.paths):
            # bwd[p][0] is the interior chain, departure to arrival
            chain, ref = half.bwd[p_idx][0], full.fwd[p_idx][path.n_edges]
            live = np.isfinite(ref)
            assert np.array_equal(np.isfinite(chain), live)
            np.testing.assert_allclose(chain[live], ref[live], rtol=1e-12, atol=0)
        assert np.array_equal(system.path_masses(state, half), system.path_masses(state, full))

    @pytest.mark.parametrize("kind", ["line", "coupled"])
    def test_neutral_arrays_are_read_only(self, grid16, kind):
        system = _pinning_instance(kind, grid16)
        messages = system.compute_messages(system.initial_state())
        assert messages.bwd[0][-1] is system._start
        for neutral in (system._unit, system._start):
            with pytest.raises(ValueError, match="read-only"):
                neutral[0] = 1.0


class TestAndersonStep:
    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("shared", True), ("coupled", False), ("coupled", True)])
    def test_no_state_is_evaluated_twice(self, grid16, kind, log_domain, monkeypatch):
        # the Anderson step hands its dual value to the next iteration
        # together with its messages.  A solve's state is written in place,
        # so an evaluation is told apart by its log-scalings and the sweeps
        # run before it (a sweep may return its entering point exactly)
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        sweeps = []
        sweep = PathSystem.sweep

        def counted(self, state, messages=None):
            sweeps.append(None)
            return sweep(self, state, messages)

        monkeypatch.setattr(PathSystem, "sweep", counted)
        seen = _record_dual_evaluations(monkeypatch,
                                        lambda state: (len(sweeps), state.x.tobytes()))
        _, report = _solve_system(system, **fixed_sweeps(ANDERSON_WARMUP + 30))
        assert report.iterations == ANDERSON_WARMUP + 30
        assert len(set(seen)) == len(seen) > report.iterations

    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("coupled", False), ("coupled", True)])
    def test_exact_fixed_point_is_evaluated_once(self, grid16, kind, log_domain, monkeypatch):
        # a zero residual history mixes to the plain point bit for bit, so
        # the step takes no trial: a coupled step evaluates the plain point
        # once and hands it on, an independent one evaluates nothing
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        for _ in range(5):
            system.sweep(state)
        mixer = sinkhorn_engine._AndersonMixer(system)
        x = state.x.copy()
        assert mixer.step(state, x) is None
        seen = _record_dual_evaluations(monkeypatch, lambda st: st.x.tobytes())
        point = mixer.step(state, x)
        assert np.array_equal(state.x, x)
        if kind == "coupled":
            assert seen == [x.tobytes()] and point[1] == system.dual_objective(state)
        else:
            assert seen == [] and point is None

    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("coupled", False), ("coupled", True)])
    def test_capacity_multipliers_stay_clipped(self, grid16, kind, log_domain, monkeypatch):
        # residuals that halve along x - up, x, toward x + up: the mixed
        # point extrapolates to x + up, which lifts slack log-multipliers
        # (0) above 0, so only the clip keeps the trial point's w <= 1
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        for _ in range(5):
            system.sweep(state)
        mixer = sinkhorn_engine._AndersonMixer(system)
        x = state.x.copy()
        up = np.zeros_like(x)
        up[system._caps_part] = 1.0
        assert x[system._caps_part].max() > -1.0
        assert mixer.step(sinkhorn_engine.SinkhornState(system, x - up), x) is None
        evaluated = _record_dual_evaluations(monkeypatch, lambda st: [
            st.w_linear(node) for node in system.interior_order])
        mixer.step(state, x + 0.5 * up)
        assert evaluated
        for w in evaluated + [[state.w_linear(node) for node in system.interior_order]]:
            assert max(arr.max() for arr in w) <= 1.0
