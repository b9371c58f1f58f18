import itertools
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import make_line_net, ordered_random_pair
from helpers import coordinate_sum, path_node_marginals

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
from datransport import driver, plans, sinkhorn_engine
from datransport.driver import ANDERSON_WARMUP
from datransport.errors import (
    BadParamError,
    NonFiniteError,
    PlanTooLargeError,
    UnreachableMassError,
)
from datransport.kernels import build_pair_kernel
from datransport.messages import (
    ABSORB_BAND,
    _ABSORB_ROWS,
    _AbsorbedStep,
    _causal_windows,
    _Linear,
    _Log,
    _MatrixStep,
    _Messages,
    _lse_matmul,
    _lse_reduce,
    _lse_rows,
)
from datransport.reference_oracle import dense_coupled_sinkhorn
from datransport.reference_oracle import transport_cost as dense_transport_cost
from datransport.scenarios import check_property, scenario_61, scenario_63_network
from datransport.sinkhorn_engine import PathSystem, SinkhornState, SolverConfig


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
        for ours, ref in ((_lse_rows(logk.T, lv), logsumexp(logk + lv[:, None], axis=0)),
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
        monkeypatch.setattr("datransport.messages._LSE_MATMUL_BLOCK", a.size * b.size)
        ref = _lse_matmul(a, b)
        assert np.isneginf(ref).any() and np.isfinite(ref).any()
        # 3 rows per block: blocks of 3, 3 and 1 rows, then one block
        for block, rows in ((3 * 13 * 11, [3, 3, 1]), (2 ** 20, [7])):
            monkeypatch.setattr("datransport.messages._LSE_MATMUL_BLOCK", block)
            reduced = []

            def counted(temp, axis):
                reduced.append(temp.shape[0])
                return _lse_reduce(temp, axis)

            assert np.array_equal(_lse_matmul(a, b, reduce=counted), ref)
            assert reduced == rows
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


def _absorbed_step(kern, axis):
    """The forward (axis 0) or backward (axis 1) absorbed step of ``PairKernel`` ``kern``."""
    return _AbsorbedStep(kern, axis, _causal_windows(kern.grid.n_t, axis))


def _absorbed_entry(step, o, i):
    """Entry [o, i] of the step's absorbed kernel: 0 where its block does not store it."""
    for out, inp, block in step.blocks:
        if out.start <= o < out.stop:
            return block[o - out.start, i - inp.start] if inp.start <= i < inp.stop else 0.0
    raise AssertionError(f"no block holds output {o}")


# rows per block: the default (three blocks on these small grids) and a
# few rows, so that every test runs across many blocks as well
ABSORB_ROWS = [_ABSORB_ROWS, 5]


def _count_absorptions(monkeypatch):
    """Count ``_AbsorbedStep`` calls and the absorptions among them: [calls, absorptions]."""
    counts = [0, 0]
    call, absorb = _AbsorbedStep.__call__, _AbsorbedStep._absorb

    def counted_call(self, message, scaling):
        counts[0] += 1
        return call(self, message, scaling)

    def counted_absorb(self, x):
        counts[1] += 1
        return absorb(self, x)

    monkeypatch.setattr(_AbsorbedStep, "__call__", counted_call)
    monkeypatch.setattr(_AbsorbedStep, "_absorb", counted_absorb)
    return counts


class TestAbsorbedStep:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_windows_are_causal_at_every_size(self, axis):
        # outputs [lo, hi) read only inputs that can reach them: [0, hi - 1)
        # forward, [lo + 1, n) backward, on a grid of one-bin blocks too
        for n in range(2, 3 * _ABSORB_ROWS):
            windows = _causal_windows(n, axis)
            assert len(windows) == max(min(n, 3), n // _ABSORB_ROWS)
            assert [out.start for out, _ in windows] == [0] + [out.stop for out, _ in windows[:-1]]
            assert windows[-1][0].stop == n
            for out, inp in windows:
                assert out.stop > out.start
                want = slice(0, out.stop - 1) if axis == 0 else slice(out.start + 1, n)
                assert inp == want

    @pytest.mark.parametrize("axis", [0, 1])
    def test_block_rule_bounds_the_stored_causal_zeros(self, axis):
        # at least three blocks, n on a grid of fewer bins, so that the
        # cells whose input cannot reach their output (input not strictly
        # before it forward, not strictly after it backward) are at most a
        # quarter of the windows' cells once n >= 3
        rows = _ABSORB_ROWS
        worst = 0.0
        for n in range(1, 3 * rows + 1):
            windows = _causal_windows(n, axis)
            assert len(windows) == max(min(n, 3), n // rows)
            cells = zeros = 0
            for out, inp in windows:
                o, i = np.arange(n)[out, None], np.arange(n)[None, inp]
                cells += o.size * i.size
                zeros += np.count_nonzero(i >= o if axis == 0 else i <= o)
            if n >= 3:
                worst = max(worst, zeros / cells)
        assert 0.24 < worst <= 0.25  # 0.248: the bound is close to tight

    def test_scenario_63_stores_under_a_megabyte(self):
        # the absorbed stores a solve leaves behind: 1,536,800 bytes when a
        # grid under 128 bins was one block a step, 902,616 with three in
        # stores that kept the largest block each had held, 847,376 at size
        built = scenario_63_network().build()
        state, report = solve(built.net, built.paths, config=built.config)
        assert report.converged
        steps = {step for pairs in state.system._steps for pair in pairs for step in pair}
        assert len(steps) == 20
        assert all(len(step.windows) == 3 for step in steps)
        assert sum(block.nbytes for step in steps for _, _, block in step.blocks) < 1_000_000

    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_scipy(self, axis, monkeypatch):
        # random walks of the input: drift up to the band, bins dying and
        # bins reviving; the kernel at epsilon 0.01 spans thousands of log
        # units, so most of it underflows in the absorbed blocks
        n = 40
        kern = build_pair_kernel(TimeGrid(t_f=1.0, n_t=n), 1.0, 0.01)
        logk = kern.logK
        counts = _count_absorptions(monkeypatch)
        for rows, blocks in zip(ABSORB_ROWS, (3, 8)):
            monkeypatch.setattr("datransport.messages._ABSORB_ROWS", rows)
            rng = np.random.default_rng(41)
            counts[:] = [0, 0]
            step = _absorbed_step(kern, axis)
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
                ours = step(x, 0.0)
                ref = _absorbed_reference(logk, x, axis)
                dead = np.isneginf(ref)
                assert np.array_equal(np.isneginf(ours), dead)
                err = np.abs(ours[~dead] - ref[~dead])
                assert np.all(err <= 1e-13 * np.maximum(np.abs(ref[~dead]), 1.0))
            assert min(changed.values()) >= 5
            # most calls are served from the cache, and some re-absorb
            assert 0 < counts[1] < counts[0] / 2

    def test_tiny_grids_match_scipy(self, monkeypatch):
        # on 2-5 bins a block may be one output that no input reaches (bin 0
        # forward, n - 1 backward): it stays -inf, absorbed and served
        counts = _count_absorptions(monkeypatch)
        for n, axis in itertools.product(range(2, 6), (0, 1)):
            kern = build_pair_kernel(TimeGrid(t_f=1.0, n_t=n), 1.0, 0.3)
            step = _absorbed_step(kern, axis)
            x = np.random.default_rng(n).normal(size=n)
            counts[:] = [0, 0]
            for drift in (0.0, 1.0):
                ours = step(x, drift)
                ref = _absorbed_reference(kern.logK, x + drift, axis)
                dead = np.isneginf(ref)
                assert dead.sum() == 1 and np.array_equal(np.isneginf(ours), dead)
                np.testing.assert_allclose(ours[~dead], ref[~dead], rtol=1e-13)
            assert counts == [2, 1]

    def test_band_edge_is_served(self, monkeypatch):
        n = 24
        kern = build_pair_kernel(TimeGrid(t_f=1.0, n_t=n), 1.0, 0.02)
        logk = kern.logK
        counts = _count_absorptions(monkeypatch)
        for (rows, blocks), axis in itertools.product(zip(ABSORB_ROWS, (3, 4)), (0, 1)):
            monkeypatch.setattr("datransport.messages._ABSORB_ROWS", rows)
            rng = np.random.default_rng(42)
            counts[:] = [0, 0]
            step = _absorbed_step(kern, axis)
            assert len(step.windows) == blocks
            x = rng.normal(scale=5.0, size=n)
            step(x, 0.0)
            # every live bin drifts to just inside the band, then just past it
            sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            ours = step(x, sign * (ABSORB_BAND - 1e-9))
            assert counts == [2, 1]
            ref = _absorbed_reference(logk, x + sign * (ABSORB_BAND - 1e-9), axis)
            dead = np.isneginf(ref)
            assert np.array_equal(np.isneginf(ours), dead)
            err = np.abs(ours[~dead] - ref[~dead])
            assert np.all(err <= 1e-13 * np.maximum(np.abs(ref[~dead]), 1.0))
            step(x, sign * (ABSORB_BAND + 1e-9))
            assert counts == [3, 2]

    def test_dying_bins_reabsorb(self, monkeypatch):
        # forward, live bins 20-25 feed output 26; bin 20's entry dominates
        # it and bin 25's underflows in the absorbed block, so once bins
        # 20-24 die, output 26 is exact only after re-absorbing.  Backward
        # is the mirror image: bins 6-11 feed output 5, and 7-11 die.
        n = 32
        kern = build_pair_kernel(TimeGrid(t_f=1.0, n_t=n), 1.0, 0.01)
        logk = kern.logK
        for (rows, blocks), axis in itertools.product(zip(ABSORB_ROWS, (3, 6)), (0, 1)):
            monkeypatch.setattr("datransport.messages._ABSORB_ROWS", rows)
            mirror = (lambda k: k) if axis == 0 else (lambda k: n - 1 - k)
            step = _absorbed_step(kern, axis)
            assert len(step.windows) == blocks
            x = np.full(n, -np.inf)
            x[[mirror(k) for k in range(20, 26)]] = 0.0
            step(x, 0.0)
            weak, out = mirror(25), mirror(26)
            assert _absorbed_entry(step, out, weak) == 0.0
            x[[mirror(k) for k in range(20, 25)]] = -np.inf
            ours = step(x, 0.0)
            ref = _absorbed_reference(logk, x, axis)
            assert np.isfinite(ours[out])
            assert ours[out] == pytest.approx(ref[out], rel=1e-13)
            assert ours[out] < -1000.0

    def test_revived_nan_and_inf_inputs_reabsorb(self, monkeypatch):
        # an input that revives a dead bin of the absorbed one, or holds NaN
        # or +inf on a live or a dead bin, is never served from the cache,
        # though it stays within the band everywhere else; the revived
        # bin's mass is then summed like any other
        n = 24
        kern = build_pair_kernel(TimeGrid(t_f=1.0, n_t=n), 1.0, 0.02)
        counts = _count_absorptions(monkeypatch)
        for (rows, blocks), axis in itertools.product(zip(ABSORB_ROWS, (3, 4)), (0, 1)):
            monkeypatch.setattr("datransport.messages._ABSORB_ROWS", rows)
            x = np.random.default_rng(44).normal(scale=5.0, size=n)
            x[[3, 11, 18]] = -np.inf
            # bin 11 is dead and bin 5 live; the last input is served
            for k, value in [(11, 2.0), (11, -700.0), (5, np.nan), (11, np.nan),
                             (5, np.inf), (11, np.inf), (5, x[5] + 1.0)]:
                step = _absorbed_step(kern, axis)
                assert len(step.windows) == blocks
                step(x, 0.0)
                y = x.copy()
                y[k] = value
                counts[:] = [0, 0]
                with np.errstate(all="ignore"):
                    ours = step(y, 0.0)
                revived = k == 11 and np.isfinite(value)
                assert counts == [1, int(revived or not np.isfinite(value))]
                if revived:
                    ref = _absorbed_reference(kern.logK, y, axis)
                    dead = np.isneginf(ref)
                    assert np.array_equal(np.isneginf(ours), dead)
                    np.testing.assert_allclose(ours[~dead], ref[~dead], rtol=1e-13)

    def test_fine_grid_survives_adversarial_drift(self, monkeypatch):
        # n_t 400 at epsilon 0.05: six blocks a step, each keeping only the
        # inputs whose normalized entries reach tau.  Every live input then
        # drifts to just inside the band, up on the inputs some block
        # dropped and down on the rest, which weighs the dropped entries as
        # much as the band allows; the served step still matches scipy
        kern = build_pair_kernel(TimeGrid(t_f=1.0, n_t=400), 1.0, 0.05)
        n = kern.grid.n_t
        counts = _count_absorptions(monkeypatch)
        rng = np.random.default_rng(43)
        t = kern.grid.centers
        inputs = [rng.normal(scale=20.0, size=n),
                  -40.0 * (t - 0.3) ** 2 / 0.01,  # a smooth bump, as a message is
                  np.where(rng.random(n) < 0.2, -np.inf, rng.normal(scale=5.0, size=n))]
        for axis, x in itertools.product((0, 1), inputs):
            counts[:] = [0, 0]
            step = _absorbed_step(kern, axis)
            step(x, 0.0)
            assert len(step.blocks) == 6
            dropped = np.zeros(n, dtype=bool)
            for (out, window), (_, kept, _) in zip(step.windows, step.blocks):
                assert window.start <= kept.start <= kept.stop <= window.stop
                dropped[window] = True
                dropped[kept] = False
            assert dropped.any()
            drift = np.where(dropped, 1.0, -1.0) * (ABSORB_BAND - 1e-9)
            ours = step(x, drift)
            assert counts == [2, 1]
            ref = _absorbed_reference(kern.logK, x + drift, axis)
            dead = np.isneginf(ref)
            assert np.array_equal(np.isneginf(ours), dead)
            err = np.abs(ours[~dead] - ref[~dead])
            assert np.all(err <= 1e-13 * np.maximum(np.abs(ref[~dead]), 1.0))

    def test_blocks_keep_the_entries_that_carry_mass(self):
        # at n_t 400 the default blocks store every entry >= tau of its
        # normalized row, tau = eps * exp(-2 band) / width, in under 0.48
        # n_t**2 entries a step (0.389-0.473 on this instance, where the
        # causal support is 0.58), store no input slice that lies wholly at
        # t <= s, and are laid out in memory like logK
        grid = TimeGrid(t_f=1.0, n_t=400)
        mu0, muT = ordered_random_pair(grid, np.random.default_rng(7), 3)
        net, path = make_line_net(grid, [1.0, 0.5, 1.0], mu0, muT)
        system = PathSystem(net, [path])
        # the marginals read every forward and every backward step
        aggregate_marginals(system.initial_state())
        n = grid.n_t
        for kern, steps in zip(system.path_kernels[0], system._steps[0]):
            for axis, step in enumerate(steps):
                assert len(step.blocks) > 1
                assert sum(block.size for _, _, block in step.blocks) <= 0.48 * n ** 2
                stored = np.zeros((n, n), dtype=int)  # in logK's [s, t]
                for out, inp, block in step.blocks:
                    assert block.shape == (out.stop - out.start, inp.stop - inp.start)
                    assert block.flags.f_contiguous if axis == 0 else block.flags.c_contiguous
                    rows, cols = (inp, out) if axis == 0 else (out, inp)
                    stored[rows, cols] += 1
                    s, t = np.arange(n)[rows, None], np.arange(n)[None, cols]
                    assert np.all((t > s).any(axis=1 - axis))
                assert stored.max() == 1
                # the absorbed input and each row's normalized entries, [output, input]
                x = np.where(np.isneginf(step.hi), -np.inf, step.r)
                kernel, kept = (kern.logK.T, stored.T) if axis == 0 else (kern.logK, stored)
                live = np.isfinite(step.c)
                weight = np.zeros((n, n))
                weight[live] = np.exp(kernel[live] + x[None, :] - step.c[live, None])
                heavy = 0
                for out, inp in step.windows:
                    width = inp.stop - inp.start
                    tau = np.finfo(float).eps * np.exp(-2 * ABSORB_BAND) / width
                    mass = weight[out, inp] >= tau
                    assert np.all(kept[out, inp][mass] == 1)
                    heavy += mass.sum()
                assert heavy > 0.25 * n ** 2  # 0.29: the check is not vacuous

    def test_log_domain_builds_no_linear_matrices(self, grid16):
        # log and linear kernels and cost matrices are built on first use only
        system = _pinning_instance("shared", grid16)
        state, _ = solve(system.net, system.paths, config=SolverConfig(
            epsilon=system.epsilon, **fixed_sweeps(5)))
        aggregate_marginals(state)
        kernels = state.system._kernel_cache.values()
        # the absorbed steps compute their blocks from the formula: an
        # independent solve builds no n_t**2 log kernel either
        assert not any(vars(k).keys() & {"logK", "K", "cost"} for k in kernels)
        assert state.system.transport_cost(state) > 0
        assert not any("K" in vars(k) for k in kernels)
        assert sum("cost" in vars(k) for k in kernels) == 1
        assert sum("logK" in vars(k) for k in kernels) == 1

    def test_solve_rarely_reabsorbs(self, monkeypatch):
        spec = scenario_61()
        built = spec.build()
        cfg = replace(built.config, **fixed_sweeps(200))
        counts = _count_absorptions(monkeypatch)
        _, report = solve(built.net, built.paths, config=cfg)
        assert report.iterations == 200
        assert counts[0] >= 200 * 2 * built.paths[0].n_edges
        assert counts[1] < 0.1 * counts[0]


class TestMessageSteps:
    @pytest.mark.parametrize("kind, log_domain", [
        ("shared", True), ("coupled", False), ("coupled", True),
        ("coupled_shared", False), ("coupled_shared", True)])
    def test_every_path_edge_has_both_steps(self, grid16, kind, log_domain, monkeypatch):
        # each path-edge holds a (forward, backward) pair of step objects in
        # both modes, and each is the product it stands for: a log-sum-exp
        # mat-vec on vector messages (absorbed, then served from the cache),
        # a BLAS or log-sum-exp matrix product on matrix messages
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        assert system.log_domain is log_domain
        rng = np.random.default_rng(61)
        counts = _count_absorptions(monkeypatch)
        n = grid16.n_t
        shape = (n,) if system.mode == "independent" else (n, n)
        for p_idx, path in enumerate(system.paths):
            assert len(system._steps[p_idx]) == path.n_edges
            for kern, steps in zip(system.path_kernels[p_idx], system._steps[p_idx]):
                assert len(steps) == 2
                for axis, step in enumerate(steps):
                    for drift in (0.0, 1.0):  # the second call reuses an absorbed step
                        message = rng.normal(scale=3.0, size=shape)
                        scaling = rng.normal(scale=3.0, size=n) + drift
                        if not log_domain:
                            ours = step(np.exp(message), np.exp(scaling))
                            ref = (np.einsum("it,t,tu->iu", np.exp(message), np.exp(scaling),
                                             kern.K) if axis == 0 else
                                   np.einsum("st,t,tj->sj", kern.K, np.exp(scaling),
                                             np.exp(message)))
                            np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0.0)
                            continue
                        ours = step(message, scaling)
                        x = message + (scaling if message.ndim == 1 else scaling[None, :])
                        if message.ndim == 1:
                            ref = _absorbed_reference(kern.logK, x, axis)
                        elif axis == 0:  # out[i, u] = LSE_t(x[i, t] + logK[t, u])
                            ref = logsumexp(x[:, :, None] + kern.logK[None], axis=1)
                        else:  # out[s, j] = LSE_t(logK[s, t] + s[t] + b[t, j])
                            ref = logsumexp((kern.logK + scaling[None, :])[:, :, None]
                                            + message[None], axis=1)
                        dead = np.isneginf(ref)
                        assert np.array_equal(np.isneginf(ours), dead) and dead.any()
                        err = np.abs(ours[~dead] - ref[~dead])
                        assert np.all(err <= 1e-12 * np.maximum(np.abs(ref[~dead]), 1.0))
        if system.mode == "independent":  # each distinct vector step absorbed once, then served
            distinct = {step for steps in system._steps for pair in steps for step in pair}
            assert counts == [4 * sum(path.n_edges for path in system.paths), len(distinct)]


class TestSharedSteps:
    def test_one_step_per_prefix_and_suffix(self, grid16, monkeypatch):
        # the three routes of scenario_63's topology cross 15 path-edges of one
        # weight.  A step is keyed by its weight and the nodes on its start
        # side: 10 distinct prefixes before an edge, 10 distinct suffixes after
        # it (v0->v1 and v0->v2 share a forward step, v5->vT and v6->vT a
        # backward one)
        system = _pinning_instance("shared", grid16)
        assert sum(path.n_edges for path in system.paths) == 15
        counts = _count_absorptions(monkeypatch)
        state = system.initial_state()
        messages = system.compute_messages(state)
        assert counts[0] == 10
        counts[:] = [0, 0]
        system.sweep(state, messages)  # forward steps only, on the given messages
        assert counts[0] == 10

    @pytest.mark.parametrize("routes", [
        [("v0", "v1", "v3", "v4"), ("v0", "v2", "v3", "v4")],  # v3->v4 and its suffix
        [("v0", "v1", "v2", "v3"), ("v0", "v1", "v2", "v4")],  # v1->v2 and its prefix
    ], ids=["shared-suffix", "shared-prefix"])
    def test_shared_edge_matches_per_path_reference(self, grid16, routes):
        # two routes share an edge but not the rest of its prefix (or suffix):
        # a step keyed by the edge alone would hand one route the other's message
        rng = np.random.default_rng(71)
        weights = {}
        for route in routes:
            for edge in zip(route[:-1], route[1:]):
                weights.setdefault(edge, 0.8 + 0.2 * len(weights))
        sinks = {route[-1] for route in routes}
        mu0, muT = ordered_random_pair(grid16, rng, 3)
        net = TransportNetwork(
            grid=grid16, nodes=tuple(dict.fromkeys(n for route in routes for n in route)),
            edges=weights, sources={"v0": Measure(grid16, mu0)},
            sinks={s: Measure(grid16, muT / len(sinks)) for s in sinks})
        system = PathSystem(net, [Path(route) for route in routes],
                            config=SolverConfig(epsilon=0.3))
        state = system.initial_state()
        state.x[:] = rng.normal(size=state.x.size)
        ref = {node: np.zeros(grid16.n_t) for node in net.nodes}
        for route in routes:
            log_kernels = [build_pair_kernel(grid16, weights[edge], 0.3).logK
                           for edge in zip(route[:-1], route[1:])]
            marginals = path_node_marginals(log_kernels, [state.views[n] for n in route])
            for node, marginal in zip(route, marginals):
                ref[node] += marginal
        ours = aggregate_marginals(state).m
        for node in net.nodes:
            assert ref[node].max() > 0
            np.testing.assert_allclose(ours[node], ref[node], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind, log_domain", [
        ("shared", True), ("coupled_shared", False), ("coupled_shared", True)])
    def test_readers_leave_messages_alone(self, grid16, kind, log_domain, monkeypatch):
        # every path that shares a step reads the one array it returns, so no
        # reader may write into a message: make every step's output read-only
        # and run every reader, the mixer's trial pass included
        _pick_domain(monkeypatch, log_domain)
        for step_type in (_AbsorbedStep, _MatrixStep):
            def read_only(self, message, scaling, call=step_type.__call__):
                out = call(self, message, scaling).view()
                out.flags.writeable = False
                return out
            monkeypatch.setattr(step_type, "__call__", read_only)
        system = _pinning_instance(kind, grid16)
        state, report = _solve_system(system, **fixed_sweeps(ANDERSON_WARMUP + 5))
        system = state.system
        assert report.iterations == ANDERSON_WARMUP + 5
        aggregate_marginals(state)
        system.transport_cost(state)
        system.dual_objective(state)
        for p_idx, path in enumerate(system.paths):
            flux_profile(state, p_idx, path.nodes[1])
        for block in system.caps:
            capacity_update(state, block)

    @pytest.mark.parametrize("kind", ["line", "shared", "coupled"])
    def test_messages_are_those_of_the_call(self, grid16, kind):
        # compute_messages builds every backward message at the call, so a
        # state written afterwards changes none of them: a sweep trusts them
        # to describe its entering state, and a benchmark times the call as
        # the whole backward pass
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        system.sweep(state)
        messages = system.compute_messages(state)
        fresh = _pinning_instance(kind, grid16)
        reference = fresh.compute_messages(SinkhornState(fresh, state.x.copy()))
        system.sweep(state)
        for p_idx, path in enumerate(system.paths):
            for pos in range(path.n_p):
                ours, ref = messages(p_idx, pos), reference(p_idx, pos)
                live = np.isfinite(ref)
                assert np.array_equal(np.isfinite(ours), live)
                np.testing.assert_allclose(ours[live], ref[live], rtol=1e-12, atol=0.0)


class TestFluxProfile:
    def test_reads_only_its_path(self, grid16, monkeypatch):
        # at node 1 a route of scenario_63's topology needs 4 backward steps
        # and 1 forward one: a full backward pass over the three routes would
        # make 12 step calls, and the forward read 1 more
        system = _pinning_instance("shared", grid16)
        state, _ = _solve_system(system, **fixed_sweeps(3))
        system = state.system
        counts = _count_absorptions(monkeypatch)
        for p_idx, path in enumerate(system.paths):
            counts[:] = [0, 0]
            ours = flux_profile(state, p_idx, path.nodes[1])
            assert counts[0] == path.n_edges == 5
            full = system._path_term(system.compute_messages(state), _Messages(system, state, 0),
                                     p_idx, 1)
            assert ours.max() > 0
            np.testing.assert_allclose(ours, system.dom.to_linear(full), rtol=1e-13, atol=0.0)

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
            own = (np.exp(state.views[node]) if pos == 0
                   else np.exp(state.views[node]) if pos == path.n_p - 1
                   else np.exp(state.views[node]))
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
        u = np.exp(state.views["n0"])
        w = np.exp(state.views["n1"])
        v = np.exp(state.views["n2"])
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


    @pytest.mark.parametrize("kind", ["line", "shared", "cyclic", "coupled", "coupled_shared"])
    def test_one_message_pass_and_no_update(self, grid16, kind, monkeypatch):
        # the marginals share the sweep's block pass but project nothing, so
        # they leave the state bit for bit and need one message pass even on
        # a cyclic family, whose sweep refreshes the messages before each block
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        system.sweep(state)
        x = state.x.tobytes()
        calls = _count_message_passes(monkeypatch)
        aggregate_marginals(state)
        assert len(calls) == 1
        assert state.x.tobytes() == x


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
        before = np.exp(state.views["n0"])
        boundary_update(state, "n0")
        diff = np.abs(np.exp(state.views["n0"]) - before)
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
        assert np.allclose(np.exp(state.views["n1"]), 1.0)

        # direct ratio: aggregate 0.04 against cap 0.02 gives factor 0.5
        mm = aggregate_marginals(state)
        agg = mm.m["n1"]  # w = 1, so the marginal is the aggregate
        cap = np.where(agg > 0, agg * 0.5, 1.0)
        net2, path2 = make_line_net(grid8, [1.0, 1.0], mu0, muT, caps={"n1": cap})
        system2 = PathSystem(net2, [path2], config=SolverConfig(epsilon=0.5))
        state2 = system2.initial_state()
        capacity_update(state2, "n1")
        w = np.exp(state2.views["n1"])
        assert np.allclose(w[agg > 0], 0.5)
        assert np.allclose(w[agg <= 0], 1.0)
        mm2 = aggregate_marginals(state2)
        assert np.max(mm2.m["n1"] - cap) <= 1e-10

    def test_zero_cap_bins_warn_nothing(self, grid8):
        # the first bin of an interior node is unreachable, so its aggregate
        # is -inf; a zero cap there must not take -inf - -inf
        rng = np.random.default_rng(8)
        mu0, muT = ordered_random_pair(grid8, rng, 2)
        cap = np.full(8, 0.5)
        cap[:2] = 0.0
        net, path = make_line_net(grid8, [1.0, 1.0], mu0, muT, caps={"n1": cap})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state, _ = solve(net, [path], config=SolverConfig(epsilon=0.3, **fixed_sweeps(5)))
            w = capacity_update(state, "n1")
        # bin 0 is slack (no flux to clip), bin 1 is clipped to nothing
        assert w[0] == 1.0 and w[1] == 0.0 and np.all(w[2:] > 0.0)

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

    def test_unequal_weights_cost_and_plan(self, grid8):
        # every edge has its own weight, so each edge's kernel and cost must
        # be its own: the path's cost and plan cells match the dense oracle
        rng = np.random.default_rng(13)
        mu0, muT = ordered_random_pair(grid8, rng, 3)
        weights = [1.0, 0.5, 2.0]
        caps = {"n1": np.full(8, 0.3), "n2": np.full(8, 0.25)}
        net, path = make_line_net(grid8, weights, mu0, muT, caps=caps)
        sweeps = 20
        assert sweeps <= ANDERSON_WARMUP
        state, _ = solve(net, [path], config=SolverConfig(epsilon=0.3, **fixed_sweeps(sweeps)))
        cost = chain_cost_tensor(grid8.centers, weights)
        res = dense_sinkhorn(cost, [("eq", mu0), ("ub", caps["n1"]),
                                    ("ub", caps["n2"]), ("eq", muT)], 0.3, sweeps)
        assert state.system.transport_cost(state) == pytest.approx(
            dense_transport_cost(cost, res.plan), rel=1e-12, abs=0.0)
        cells = extract_plan(state, 0)
        dense_engine = np.zeros(res.plan.shape)
        dense_engine[tuple(cells.indices.T)] = cells.mass
        assert np.abs(dense_engine - res.plan.values).max() <= 1e-12 * res.plan.values.max()


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
        assert np.array_equal(state.views["n0"], plain.views["n0"])
        assert np.array_equal(state.views["n1"], plain.views["n1"])
        assert np.array_equal(state.views["n2"], plain.views["n2"])

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
        assert np.all(np.exp(state.views["n0"])[mu0 == 0] == 0)
        assert np.all(np.exp(state.views["n2"])[muT == 0] == 0)
        assert np.all(mm.m["n0"][mu0 == 0] == 0)
        assert np.all(mm.m["n2"][muT == 0] == 0)

    def test_one_message_pass_per_sweep(self, grid16, monkeypatch):
        # the exact Gauss-Seidel solve pays one message pass per sweep, on
        # the sweep's entering state, and never the primal cost; the traced
        # dual is the one the entering state's own messages give
        rng = np.random.default_rng(23)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT,
                                  caps={"n1": np.full(16, 0.12)})
        cfg = SolverConfig(epsilon=0.3, **fixed_sweeps(ANDERSON_WARMUP))

        def no_cost(self, *args, **kwargs):
            raise AssertionError("transport_cost ran inside solve()")

        calls = _count_message_passes(monkeypatch)
        monkeypatch.setattr(PathSystem, "transport_cost", no_cost)
        _, report = solve(net, [path], config=cfg)
        monkeypatch.undo()
        assert calls == list(range(ANDERSON_WARMUP))
        system = PathSystem(net, [path], config=cfg)
        state = system.initial_state()
        for i in range(ANDERSON_WARMUP):
            assert report.objective[i] == system.dual_objective(state)
            system.sweep(state)

    def test_backward_only_messages(self, grid10):
        # compute_messages returns the backward messages only, every step of
        # the path built, each the dense log-sum-exp chain from the sink; a
        # reader of forward messages builds its own frontier
        rng = np.random.default_rng(24)
        mu0, muT = ordered_random_pair(grid10, rng, 2)
        net, path = make_line_net(grid10, [1.0, 2.0], mu0, muT,
                                  caps={"n1": np.full(10, 0.3)})
        system = PathSystem(net, [path], config=SolverConfig(epsilon=0.4))
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        msgs = system.compute_messages(state)
        assert set(msgs.done) == {backward for _, backward in system._steps[0]}
        ref = np.zeros(10)
        assert np.array_equal(msgs(0, path.n_edges), ref)
        for l in range(path.n_edges - 1, -1, -1):
            ahead = ref + state.views[path.nodes[l + 1]]
            ref = logsumexp(system.path_kernels[0][l].logK + ahead[None, :], axis=1)
            dead = np.isneginf(ref)
            assert np.array_equal(np.isneginf(msgs(0, l)), dead)
            np.testing.assert_allclose(msgs(0, l)[~dead], ref[~dead], rtol=1e-12)
        # the path mass read at the source end is the one seen at the sink end
        at_sink = float((flux_profile(state, 0, "n2") * np.exp(state.views["n2"])).sum())
        assert system.path_masses(state, msgs)[0] == pytest.approx(at_sink, rel=1e-12)

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
        with pytest.raises(UnreachableMassError,
                           match=r"target mass at pair \('n0', 'n2'\) sits on bins with zero"):
            coupled_boundary_update(state, ("n0", "n2"))

    def test_joint_of_an_unjoined_pair_rejected(self, grid8):
        # no path runs a1 -> b2, so its 0.4 of the mass could never be
        # delivered; it used to be dropped while the solve still converged
        rng = np.random.default_rng(32)
        joints = {("a1", "b1"): _random_joint(grid8, rng, 2, 0.3),
                  ("a2", "b2"): _random_joint(grid8, rng, 2, 0.3),
                  ("a1", "b2"): _random_joint(grid8, rng, 2, 0.4)}
        sources, sinks = {}, {}
        for (src, snk), joint in joints.items():
            sources[src] = sources.get(src, 0.0) + joint.sum(axis=1)
            sinks[snk] = sinks.get(snk, 0.0) + joint.sum(axis=0)
        net = TransportNetwork(
            grid=grid8, nodes=("a1", "m1", "b1", "a2", "m2", "b2"),
            edges={("a1", "m1"): 1.0, ("m1", "b1"): 1.0, ("a2", "m2"): 1.0, ("m2", "b2"): 1.0},
            sources={node: Measure(grid8, mass) for node, mass in sources.items()},
            sinks={node: Measure(grid8, mass) for node, mass in sinks.items()})
        paths = [Path(("a1", "m1", "b1")), Path(("a2", "m2", "b2"))]
        with pytest.raises(BadParamError, match=r"\('a1', 'b2'\)"):
            PathSystem(net, paths, mode="coupled",
                       joints={pair: JointMeasure(grid8, joint) for pair, joint in joints.items()})

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
        frontier = _Messages(system, state, 0)
        eye, unit = system._start, system._unit
        for p_idx, path in enumerate(system.paths):
            kernels, steps = system.path_kernels[p_idx], system._steps[p_idx]
            first = kernels[0].logK if log_domain else kernels[0].K
            last = kernels[-1].logK if log_domain else kernels[-1].K
            assert frontier(p_idx, 1) is first
            assert msgs(p_idx, path.n_edges - 1) is last
            assert steps[0][0](eye, unit) is first and steps[-1][1](eye, unit) is last
            # which is exact: the products from the identity are the kernels
            product = _lse_matmul if log_domain else np.matmul
            combine = np.add if log_domain else np.multiply
            assert np.array_equal(first, product(combine(eye, unit[None, :]), first))
            assert np.array_equal(last, product(combine(last, unit[None, :]), eye))

    def test_linear_domain_builds_no_log_matrices(self, grid16):
        # the linear kernel is the exp of the formula's window, taken in
        # place: a linear coupled solve and its plans build no n_t**2 logK
        system = _pinning_instance("coupled", grid16)
        assert not system.log_domain
        joints = {pair: JointMeasure(grid16, mass) for pair, mass in system.joints.items()}
        state, _ = solve(system.net, system.paths, mode="coupled", joints=joints,
                         config=SolverConfig(epsilon=system.epsilon, **fixed_sweeps(5)))
        for p_idx in range(len(system.paths)):
            extract_plan(state, p_idx, top_k=10)
        kernels = state.system._kernel_cache.values()
        assert all("K" in vars(k) for k in kernels)
        assert not any("logK" in vars(k) for k in kernels)
        for k in kernels:
            assert np.array_equal(k.K, np.exp(k.logK))

    def test_linear_contractions_match_einsum(self, grid16):
        system = _pinning_instance("coupled", grid16)
        assert not system.log_domain  # the rule's pick at epsilon 0.3
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        msgs = system.compute_messages(state)
        fwd = _Messages(system, state, 0)
        lam = np.exp(_log_lambda(state, ("s", "t")))  # the state holds log-scalings in either domain
        assert np.array_equal(fwd.heads[("s", "t")], lam)
        for p_idx, path in enumerate(system.paths):
            for pos in range(1, path.n_edges):
                f, b = fwd(p_idx, pos), msgs(p_idx, pos)
                np.testing.assert_allclose(system._path_term(msgs, fwd, p_idx, pos),
                                           np.einsum("ij,it,tj->t", lam, f, b), rtol=1e-12)
            for l in range(1, path.n_p):
                s_prev = system._scaling_at(state, path, l - 1)
                s_next = system._scaling_at(state, path, l)
                f, b = fwd(p_idx, l - 1), msgs(p_idx, l)
                left = f.T @ np.einsum("ij,tj->it", lam, b)
                ref = left * s_prev[:, None] * system.path_kernels[p_idx][l - 1].K * s_next
                np.testing.assert_allclose(system._edge_pair_marginal(msgs, fwd, p_idx, l),
                                           ref, rtol=1e-12)

    def test_linear_scaling_is_the_exp(self, grid16):
        # NaN and overflow propagate, and overflow warns of nothing
        system = _pinning_instance("coupled", grid16)
        logs = np.array([[0.0, -np.inf, np.nan], [1000.0, -2.0, -np.inf]])
        with np.errstate(over="ignore"):
            want = np.exp(logs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            np.testing.assert_array_equal(system.dom.from_log(logs), want)

    def test_log_contractions_match_one_piece(self, grid16, monkeypatch):
        # the reference reduces one n_t**3 temporary per contraction; the
        # engine's pair marginal is two blocked _lse_matmul calls instead
        _pick_domain(monkeypatch, True)
        system = _pinning_instance("coupled", grid16)
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        msgs = system.compute_messages(state)
        fwd = _Messages(system, state, 0)
        lam = _log_lambda(state, ("s", "t"))
        cost = 0.0
        for p_idx, path in enumerate(system.paths):
            for pos in range(1, path.n_edges):
                f, b = fwd(p_idx, pos), msgs(p_idx, pos)
                g = logsumexp(lam[:, None, :] + b[None, :, :], axis=2)  # g[i, t]
                ref = logsumexp(f + g, axis=0)
                ours = system._path_term(msgs, fwd, p_idx, pos)
                dead = np.isneginf(ref)
                assert np.array_equal(np.isneginf(ours), dead) and dead.any()
                np.testing.assert_allclose(ours[~dead], ref[~dead], rtol=1e-13)
            for l in range(1, path.n_p):
                f, b = fwd(p_idx, l - 1), msgs(p_idx, l)
                g = logsumexp(lam[:, None, :] + b[None, :, :], axis=2)
                left = logsumexp(f[:, :, None] + g[:, None, :], axis=0)  # left[s, t]
                s_prev = system._scaling_at(state, path, l - 1)
                s_next = system._scaling_at(state, path, l)
                logk = system.path_kernels[p_idx][l - 1].logK
                ref = np.exp(left + s_prev[:, None] + logk + s_next[None, :])
                np.testing.assert_allclose(system._edge_pair_marginal(msgs, fwd, p_idx, l),
                                           ref, rtol=1e-13, atol=0.0)
                cost += float((ref * system.path_kernels[p_idx][l - 1].cost).sum())
        assert system.transport_cost(state) == pytest.approx(cost, rel=1e-12, abs=0.0)


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
            assert np.abs(coordinate_sum(cells, pos, 8) - mm.m[node]).max() <= 1e-12

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
        ("line", True), ("coupled", False), ("coupled", True),
        ("coupled_shared", False), ("coupled_shared", True)])
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
            monkeypatch.setattr(plans, "_PLAN_SLAB", 3 * row + 5)
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

    @pytest.mark.parametrize("mode, log_domain", [
        ("independent", True), ("coupled", False), ("coupled", True)])
    def test_random_instances_match_the_brute_force_plan(self, mode, log_domain, monkeypatch):
        # a slab visits only the bins after its first departure bin on its
        # later axes; on random lines of 2-4 nodes, at random slab sizes,
        # every cut (top_k and min_mass inside a tie of bit-equal masses
        # too) keeps the cells, masses and order of the whole dense plan
        _pick_domain(monkeypatch, log_domain)
        rng = np.random.default_rng(71)
        for trial in range(8):
            n_t, n_edges = int(rng.integers(7, 11)), 1 + trial % 3
            grid = TimeGrid(t_f=1.0, n_t=n_t)
            # equal weights at the neutral start tie many cells
            weights = [1.0] * n_edges if trial % 2 else rng.uniform(0.5, 1.5, n_edges)
            joints = None
            if mode == "coupled":
                joint = _random_joint(grid, rng, n_edges)
                mu0, muT = joint.sum(axis=1), joint.sum(axis=0)
            else:
                mu0, muT = ordered_random_pair(grid, rng, n_edges, slack=1)
            caps = {f"n{k}": np.full(n_t, 0.3) for k in range(1, n_edges)}
            net, path = make_line_net(grid, weights, mu0, muT, caps=caps)
            if mode == "coupled":
                joints = {(path.source, path.sink): JointMeasure(grid, joint)}
            system = PathSystem(net, [path], mode=mode, config=SolverConfig(epsilon=0.3),
                                joints=joints)
            state = system.initial_state()
            for _ in range(trial % 4 // 2 * 3):
                system.sweep(state)
            monkeypatch.setattr(plans, "_PLAN_SLAB", int(rng.integers(1, n_t ** path.n_p)))
            plan = _dense_plan(state, 0)
            keep, mass = _dense_cells(plan)
            ties = np.flatnonzero(mass[1:] == mass[:-1])  # mass[i] == mass[i + 1]
            tie = int(ties[len(ties) // 2]) if ties.size else keep.size // 2
            cuts = [{}, {"top_k": tie + 1}, {"min_mass": mass[tie]},
                    {"top_k": keep.size // 3, "min_mass": mass[keep.size // 2]},
                    {"top_k": keep.size + 3}]
            for kwargs in cuts:
                cells = extract_plan(state, 0, **kwargs)
                want, want_mass = _dense_cells(plan, kwargs.get("min_mass", 0.0))
                k = kwargs.get("top_k", want.size)
                assert np.array_equal(np.ravel_multi_index(cells.indices.T, plan.shape), want[:k])
                assert np.array_equal(cells.mass, want_mass[:k])
                assert cells.total_mass == pytest.approx(plan.sum(), rel=1e-14, abs=0.0)
            assert ties.size or trial % 4 != 1  # the equal-weight neutral starts tie

    def test_top_k_breaks_ties_by_index(self, grid16, monkeypatch):
        # neutral scalings on an equal-weight line: a cell's mass depends
        # only on its two bin gaps, so many cells tie
        rng = np.random.default_rng(5)
        mu0, muT = ordered_random_pair(grid16, rng, 2)
        net, path = make_line_net(grid16, [1.0, 1.0], mu0, muT)
        state = PathSystem(net, [path]).initial_state()
        monkeypatch.setattr(plans, "_PLAN_SLAB", 3 * 16 ** 2)
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
        mm = aggregate_marginals(state)
        summed = np.zeros(16)
        for p_idx in range(3):
            prof = flux_profile(state, p_idx, "v3")
            summed += prof * np.exp(state.views["v3"])
        assert np.abs(summed - mm.m["v3"]).max() <= 1e-12
        assert np.max(mm.m["v3"] - cap) <= 1e-8
        assert np.max(mm.m["v4"] - cap) <= 1e-8
        delivered = mm.m["vT"].sum()
        assert delivered == pytest.approx(1.0, abs=1e-8)


def _coupled_line(grid, n_edges, gap, caps=None):
    """Coupled unit-weight line whose joint law is uniform on the cells j >= i + gap."""
    joint = np.triu(np.ones((grid.n_t, grid.n_t)), k=gap)
    joint /= joint.sum()
    net, path = make_line_net(grid, [1.0] * n_edges, joint.sum(axis=1), joint.sum(axis=0),
                              caps=caps)
    return net, path, {(path.source, path.sink): JointMeasure(grid, joint)}


def _pick_domain(monkeypatch, log_domain):
    """Make the coupled-mode domain rule pick ``log_domain``, whatever the neutral chains."""
    monkeypatch.setattr(PathSystem, "_neutral_chain_underflows", lambda self: log_domain)


def _random_joint(grid, rng, gap, total=1.0):
    """Joint law of the given total, random on the cells j >= i + gap and zero elsewhere."""
    joint = np.zeros((grid.n_t, grid.n_t))
    for i in range(grid.n_t - gap):
        joint[i, i + gap:] = rng.uniform(0.1, 1.0, grid.n_t - gap - i)
    return joint / (joint.sum() / total)


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
    if kind == "coupled_shared":
        # two pairs whose routes share the capped node c, which binds
        joints = {("s1", "t"): _random_joint(grid, rng, 4, 0.5),
                  ("s2", "t"): _random_joint(grid, rng, 5, 0.5)}
        net = TransportNetwork(
            grid=grid, nodes=("s1", "s2", "c", "t"),
            edges={("s1", "c"): 1.0, ("s2", "c"): 1.2, ("c", "t"): 1.0},
            sources={s: Measure(grid, joint.sum(axis=1)) for (s, _), joint in joints.items()},
            sinks={"t": Measure(grid, sum(joints.values()).sum(axis=0))},
            capacities={"c": CapacityProfile(grid, np.full(grid.n_t, 0.13))})
        return PathSystem(net, [Path(("s1", "c", "t")), Path(("s2", "c", "t"))], mode="coupled",
                          config=cfg, joints={pair: JointMeasure(grid, joint)
                                              for pair, joint in joints.items()})
    joint = _random_joint(grid, rng, 4)
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
    """Record the state's iteration count at every ``PathSystem.compute_messages`` call."""
    calls = []
    compute_messages = PathSystem.compute_messages

    def counted(self, state):
        calls.append(state.iteration)
        return compute_messages(self, state)

    monkeypatch.setattr(PathSystem, "compute_messages", counted)
    return calls


def _log_lambda(state, pair):
    """A pair's log-Lambda on its n_t x n_t matrix, through the dense reader: -inf off the support."""
    return state.system.dense(pair, state.views[pair], _Log)


def _dense_plan(state, p_idx):
    """Whole plan tensor of one path, its factors combined in the engine's order."""
    system = state.system
    path = system.paths[p_idx]
    n_t, n_p, log = system.n_t, path.n_p, system.log_domain
    combine = np.add if log else np.multiply
    views = state.views  # coupled boundary nodes have none

    def view(arr, axes):
        return arr.reshape([n_t if axis in axes else 1 for axis in range(n_p)])

    def scaling(logs):
        return logs if log else np.exp(logs)

    plan = np.full((n_t,) * n_p, 0.0 if log else 1.0)
    for pos, node in enumerate(path.nodes):
        if node in views:
            plan = combine(plan, view(scaling(views[node]), (pos,)))
    for l, kern in enumerate(system.path_kernels[p_idx]):
        plan = combine(plan, view(kern.logK if log else kern.K, (l, l + 1)))
    if system.mode == "coupled":
        plan = combine(plan, view(scaling(_log_lambda(state, (path.source, path.sink))),
                                  (0, n_p - 1)))
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
        # every target cell's neutral chain is a product of n_edges kernel
        # entries near e^-667: linear messages underflow to 0 there and
        # call the mass unreachable
        grid = TimeGrid(t_f=1.0, n_t=40)
        net, path, joints = _coupled_line(grid, n_edges, n_edges)
        cfg = SolverConfig(epsilon=0.06, tol=1e-10, max_iter=50)
        assert PathSystem(net, [path], mode="coupled", config=cfg, joints=joints).log_domain
        state, report = solve(net, [path], mode="coupled", config=cfg, joints=joints)
        assert report.converged
        mm = aggregate_marginals(state)
        joint = joints[(path.source, path.sink)].mass
        assert np.abs(mm.joint_m[(path.source, path.sink)] - joint).sum() <= 1e-10

    @pytest.mark.parametrize("t_f, log_domain", [(10.0, False), (0.1, True)])
    def test_rule_follows_the_horizon(self, t_f, log_domain):
        # an edge costs w / gap, so a longer horizon keeps the chains in
        # range: at epsilon 0.05 the chain to a cell two bins on is near
        # e^-160 at t_f 10 and e^-16000 at t_f 0.1
        grid = TimeGrid(t_f=t_f, n_t=40)
        net, path, joints = _coupled_line(grid, 2, 2)
        cfg = SolverConfig(epsilon=0.05)
        system = PathSystem(net, [path], mode="coupled", config=cfg, joints=joints)
        assert system.log_domain is log_domain
        # the rule multiplies the cached linear kernels, in either domain
        assert all("K" in vars(kern) for kern in system._kernel_cache.values())

    def test_chains_in_range_pick_linear_at_small_epsilon(self, monkeypatch):
        # at epsilon 0.03 the costliest target cell's chain is near e^-267,
        # well inside float range, so the rule picks linear; the log domain
        # gives the same iterates to round-off
        grid = TimeGrid(t_f=1.0, n_t=40)
        caps = {"n1": np.full(40, 0.06)}
        net, path, joints = _coupled_line(grid, 2, 20, caps=caps)
        cfg = SolverConfig(epsilon=0.03, **fixed_sweeps(30))
        assert not PathSystem(net, [path], mode="coupled", config=cfg, joints=joints).log_domain
        linear, _ = solve(net, [path], mode="coupled", config=cfg, joints=joints)
        _pick_domain(monkeypatch, True)
        log, report = solve(net, [path], mode="coupled", config=cfg, joints=joints)
        assert log.system.log_domain and report.v[-1] > 1e-6  # the cap still binds
        ours, ref = aggregate_marginals(linear), aggregate_marginals(log)
        for node, m in ref.m.items():
            np.testing.assert_allclose(ours.m[node], m, rtol=1e-10, atol=1e-10 * m.max())
        for pair, m in ref.joint_m.items():
            np.testing.assert_allclose(ours.joint_m[pair], m, rtol=1e-10, atol=1e-10 * m.max())


class TestDomainArithmetic:
    def test_domains_agree_on_every_reader(self, grid16, monkeypatch):
        # two pairs share the capped node c, so c's aggregate sums the terms
        # of paths with different Lambdas: every reader of the messages gives
        # the same figures in the log and the linear arithmetic
        readings = []
        for log_domain in (False, True):
            _pick_domain(monkeypatch, log_domain)
            system = _pinning_instance("coupled_shared", grid16)
            assert system.dom is (_Log if log_domain else _Linear)
            state = system.initial_state()
            for _ in range(20):
                _, _, v = system.sweep(state)
            assert v > 1e-3  # the cap at c binds
            # each path's term at c reads its own pair's Lambda
            plans = [_dense_plan(state, p) for p in range(2)]
            np.testing.assert_allclose(aggregate_marginals(state).m["c"],
                                       sum(plan.sum(axis=(0, 2)) for plan in plans), rtol=1e-12)
            readings.append({
                "model": aggregate_marginals(state).model,
                "path_masses": system.path_masses(state),
                "dual": system.dual_objective(state),
                "cost": system.transport_cost(state),
                **{f"flux_profile {p}": flux_profile(state, p, "c") for p in range(2)},
                **{f"extract_plan {p}": extract_plan(state, p).mass for p in range(2)}})
        linear, log = readings
        for key, value in linear.items():
            np.testing.assert_allclose(log[key], value, rtol=1e-10, atol=0.0, err_msg=key)


class TestFlatState:
    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("shared", True), ("coupled", False), ("coupled", True)])
    def test_views_share_the_flat_array(self, grid16, kind, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        assert state.x.shape == (system._size,) and not np.any(state.x)
        views = list(state.views.values())
        assert len(views) == len(system._layout)
        assert sum(view.size for view in views) == state.x.size
        for view in views:
            assert np.shares_memory(view, state.x)
        with pytest.raises(TypeError):
            state.views[next(iter(system.caps))] = np.zeros(16)

    @pytest.mark.parametrize("kind", ["coupled", "coupled_shared"])
    @pytest.mark.parametrize("log_domain", [False, True])
    def test_coupled_node_marginals_fold_the_joints(self, grid16, kind, log_domain, monkeypatch):
        # a coupled source or sink has no block: its marginal adds the row or
        # column sums of its pairs' joint marginals, in joints order
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        mm = aggregate_marginals(state)
        fold = {}
        for (src, snk), mat in mm.joint_m.items():
            fold[src] = fold.get(src, 0.0) + mat.sum(axis=1)
            fold[snk] = fold.get(snk, 0.0) + mat.sum(axis=0)
        assert set(mm.m) == {node for path in system.paths for node in path.nodes}
        assert set(fold) == set(system.mu0) | set(system.muT)
        for node, want in fold.items():
            assert np.array_equal(mm.m[node], want)
        for node in system.caps:
            assert np.shares_memory(mm.m[node], mm.model)

    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("coupled", False), ("coupled", True)])
    def test_accepted_mixing_writes_in_place(self, grid16, kind, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        x = state.x
        mixer = driver._AndersonMixer(system)
        accepted = 0
        for _ in range(10):
            x_prev, value = state.x.copy(), system.dual_objective(state)
            system.sweep(state)
            plain = state.x.copy()
            mixer.step(state, x_prev, value)
            accepted += not np.array_equal(state.x, plain)
        assert accepted and state.x is x
        views = state.views
        for block, part in system._layout.items():
            assert np.shares_memory(views[block], x)
            assert np.array_equal(views[block], x[part])


def _layout_instance(kind, grid):
    """Instance with a zero-cap bin, an uncapped bin and sub-threshold target mass on dead bins."""
    rng = np.random.default_rng(61)
    tiny = sinkhorn_engine.NEGLIGIBLE_MASS / 10
    cap = np.full(grid.n_t, 0.15)
    cap[5], cap[9] = 0.0, np.inf
    cfg = SolverConfig(epsilon=0.3)
    if kind == "coupled":
        joint = _random_joint(grid, rng, 4)
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
    views = _matrix_views(state)
    total = 0.0
    for block, bound in _reference_bounds(system).items():
        if block in system.caps:
            keep = np.isfinite(bound) & (bound > 0)
        else:
            keep = bound > sinkhorn_engine.NEGLIGIBLE_MASS
        total += float(np.dot(views[block][keep], bound[keep]))
    return system.epsilon * (total - float(system.path_masses(state).sum()))


def _matrix_views(state):
    """Each block's log-scaling: a joint pair's on its n_t x n_t matrix, any other's its view."""
    system = state.system
    return {block: system.dense(block, view, _Log) if block in system.joints else view
            for block, view in state.views.items()}


def _reference_violations(system, marginals):
    """(E0, ET, V) summed block by block from a map holding every block's model marginal."""
    totals = [0.0, 0.0, 0.0]
    for block, bound in _reference_bounds(system).items():
        model = marginals[block]
        if block in system.caps:
            totals[2] += float(np.maximum(model - bound, 0.0).sum())
        else:
            totals[block in system.muT] += float(np.abs(model - bound).sum())
    return tuple(totals)


def _reference_sweep(system, state):
    """One Gauss-Seidel sweep through the public block updates; returns its (E0, ET, V)."""
    first = system.joints if system.mode == "coupled" else system.mu0
    sinks = {} if system.mode == "coupled" else system.muT
    marginals = {}
    for block in [*first, *system.caps, *sinks]:
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
        assert list(system._layout) == ([*system.joints, *system.caps]
                                         if kind == "coupled" else
                                         [*system.mu0, *system.caps, *system.muT])
        for block, part in system._layout.items():
            # a joint block holds its target's cells with mass, flat indices ascending
            support = system._support.get(block, slice(None))
            if block in system.joints:
                assert np.array_equal(support, np.flatnonzero(bounds[block] > 0))
            bound = bounds[block].ravel()[support]
            assert np.array_equal(system.bound[part], bound)
            with np.errstate(divide="ignore"):
                assert np.array_equal(system.log_bound[part], np.log(bound))
        caps = [system._layout[node] for node in system.caps]
        assert system._caps_part == slice(caps[0].start, caps[-1].stop)

        state = system.initial_state()
        system.sweep(state)
        # zero-cap bins, sub-threshold target mass and zero-target cells are dead
        tiny = (system.bound > 0) & (system.bound <= sinkhorn_engine.NEGLIGIBLE_MASS)
        assert np.any(tiny) and np.any(system.bound[system._caps_part] == 0)
        assert np.any(np.isinf(system.bound))
        views = _matrix_views(state)
        for block, bound in bounds.items():
            live = bound > 0 if block in system.caps else bound > sinkhorn_engine.NEGLIGIBLE_MASS
            assert np.all(views[block][~live] == -np.inf)
        for _ in range(2):
            np.testing.assert_allclose(system.dual_objective(state),
                                       _reference_dual(system, state), rtol=1e-12)
            mm = aggregate_marginals(state)
            np.testing.assert_allclose(system.violations(mm.model), _reference_violations(
                system, {**mm.m, **mm.joint_m}), rtol=1e-12)
            reference = SinkhornState(system, state.x.copy())
            np.testing.assert_allclose(system.sweep(state),
                                       _reference_sweep(system, reference), rtol=1e-12)


class TestPathMasses:
    @pytest.mark.parametrize("log_domain", [False, True])
    @pytest.mark.parametrize("kind", ["coupled", "coupled_shared"])
    def test_coupled_masses_sum_the_support(self, grid16, kind, log_domain, monkeypatch):
        # a coupled path's mass is its interior chain times Lambda, summed;
        # read on the support, the dual scatters no Lambda onto its matrix
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        msgs = system.compute_messages(state)
        ref = []
        for p_idx, path in enumerate(system.paths):
            lam, chain = _log_lambda(state, (path.source, path.sink)), msgs(p_idx, 0)
            ref.append(np.exp(logsumexp(lam + chain)) if log_domain
                       else float((np.exp(lam) * chain).sum()))
        scattered = []
        dense = PathSystem.dense

        def counted(self, pair, values, dom):
            scattered.append(pair)
            return dense(self, pair, values, dom)

        monkeypatch.setattr(PathSystem, "dense", counted)
        np.testing.assert_allclose(system.path_masses(state, msgs), ref, rtol=1e-13, atol=0.0)
        system.dual_objective(state)
        assert scattered == []

    @pytest.mark.parametrize("kind", ["line", "shared"])
    def test_independent_masses_are_the_source_end_sum(self, grid16, kind):
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        for _ in range(3):
            system.sweep(state)
        msgs = system.compute_messages(state)
        ref = [np.exp(_lse_reduce(msgs(p_idx, 0) + state.views[path.source], 0))
               for p_idx, path in enumerate(system.paths)]
        assert np.array_equal(system.path_masses(state, msgs), ref)


class TestSweepPinning:
    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("shared", True), ("cyclic", True), ("coupled", False), ("coupled", True),
        ("coupled_shared", False), ("coupled_shared", True)])
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
                    for pair in system.joints:
                        coupled_boundary_update(blocks, pair)
                else:
                    for node in system.mu0:
                        boundary_update(blocks, node)
                for node in system.caps:
                    capacity_update(blocks, node)
                if system.mode == "independent":
                    for node in system.muT:
                        boundary_update(blocks, node)
            assert swept.views.keys() == blocks.views.keys()
            for key in swept.views:
                yield swept.views[key], blocks.views[key]

        with monkeypatch.context() as patch:
            if log_domain:
                patch.setattr("datransport.messages.ABSORB_BAND", -1.0)
            for ours, ref in sweeps_and_block_updates():
                assert np.array_equal(ours, ref)
        for ours, ref in sweeps_and_block_updates():
            np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_coupled_solve_one_message_pass_per_sweep(self, grid16, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance("coupled", grid16)
        assert len(system.caps) == 2
        calls = _count_message_passes(monkeypatch)
        cfg = SolverConfig(epsilon=system.epsilon, **fixed_sweeps(20))
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
        assert len(calls) == len([*system.mu0, *system.caps, *system.muT]) == 4
        state, report = solve(net, paths, config=cfg)
        assert report.converged
        assert np.all(np.diff(report.objective) >= -1e-9)
        mm = aggregate_marginals(state)
        assert max(np.max(mm.m[n] - 0.12) for n in ("a", "b")) <= 1e-9

    def test_interior_order(self, grid16):
        # each step places the first node, in first-appearance order, whose
        # predecessors on the paths are all placed; v3 waits for v1
        built = scenario_63_network().build()
        system = PathSystem(built.net, built.paths, config=built.config)
        assert system._interior_topo_order() == (["v2", "v1", "v3", "v4", "v6", "v5"], True)
        assert list(system.caps) == ["v2", "v1", "v3", "v4", "v6", "v5"]
        # a and b precede each other: first-appearance order, and no single-pass sweep
        net, paths = _cyclic_family(grid16, np.random.default_rng(51))
        assert PathSystem(net, paths)._interior_topo_order() == (["a", "b"], False)


def _solve_system(system, **config):
    """``solve()`` on the problem of a ``PathSystem``."""
    joints = {pair: JointMeasure(system.grid, mass) for pair, mass in system.joints.items()}
    return solve(system.net, system.paths, mode=system.mode,
                 config=SolverConfig(**{"epsilon": system.epsilon, **config}), joints=joints)


class TestCoupledMixing:
    @pytest.mark.parametrize("log_domain", [False, True])
    def test_warmup_is_the_plain_iteration(self, grid16, log_domain, monkeypatch):
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance("coupled", grid16)
        state, _ = _solve_system(system, **fixed_sweeps(ANDERSON_WARMUP))
        plain = system.initial_state()
        for _ in range(ANDERSON_WARMUP):
            system.sweep(plain)
        assert state.views.keys() == plain.views.keys()
        for key in state.views:
            assert np.array_equal(state.views[key], plain.views[key])

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
        lam, target = _log_lambda(state, ("s", "t")), system.joints[("s", "t")]
        assert (target == 0).any() and np.all(lam[target == 0] == -np.inf)
        for node in system.caps:
            assert np.all(np.exp(state.views[node]) <= 1.0)
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
        msgs = system.compute_messages(state)
        fwd = _Messages(system, state, 0)
        assert set(msgs.done) == {backward for steps in system._steps for _, backward in steps}
        for p_idx, path in enumerate(system.paths):
            # the backward message at node 0 is the interior chain, departure
            # to arrival: the forward message at the sink, built the other way round
            chain, ref = msgs(p_idx, 0), fwd(p_idx, path.n_edges)
            live = np.isfinite(ref)
            assert np.array_equal(np.isfinite(chain), live)
            np.testing.assert_allclose(chain[live], ref[live], rtol=1e-12, atol=0)
        assert np.array_equal(system.path_masses(state, msgs), system.path_masses(state))

    @pytest.mark.parametrize("kind", ["line", "coupled"])
    def test_neutral_arrays_are_read_only(self, grid16, kind):
        system = _pinning_instance(kind, grid16)
        messages = system.compute_messages(system.initial_state())
        assert messages(0, system.paths[0].n_edges) is system._start
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

    @pytest.mark.parametrize("log_domain", [False, True])
    def test_one_message_pass_per_sweep_and_rejected_trial(self, grid16, log_domain,
                                                             monkeypatch):
        # a step's only message pass is its trial's, which serves the next
        # sweep when the trial is kept, so past the warm-up a coupled solve
        # pays one pass per sweep plus one per rejected trial
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance("coupled", grid16)
        passes = _count_message_passes(monkeypatch)
        trials = []  # (trial evaluated, trial kept) per step
        step = driver._AndersonMixer.step

        def counted(self, state, x_prev, value):
            before = len(passes)
            point = step(self, state, x_prev, value)
            trials.append((len(passes) > before, point is not None))
            return point

        monkeypatch.setattr(driver._AndersonMixer, "step", counted)
        _, report = _solve_system(system, **fixed_sweeps(ANDERSON_WARMUP + 30))
        assert report.iterations == ANDERSON_WARMUP + 30
        assert len(trials) == 29 and (True, True) in trials
        rejected = trials.count((True, False))
        assert len(passes) == report.iterations + rejected

    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("coupled", False), ("coupled", True)])
    def test_exact_fixed_point_is_evaluated_once(self, grid16, kind, log_domain, monkeypatch):
        # a zero residual history mixes to the plain point bit for bit, so
        # the step takes no trial and evaluates nothing, in either mode: the
        # next iteration evaluates the plain point, once
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        state = system.initial_state()
        for _ in range(5):
            system.sweep(state)
        mixer = driver._AndersonMixer(system)
        x = state.x.copy()
        value = system.dual_objective(state)
        assert mixer.step(state, x, value) is None
        seen = _record_dual_evaluations(monkeypatch, lambda st: st.x.tobytes())
        passes = _count_message_passes(monkeypatch)
        assert mixer.step(state, x, value) is None
        assert np.array_equal(state.x, x)
        assert seen == [] and passes == []

    @pytest.mark.parametrize("kind, log_domain", [
        ("line", True), ("coupled", False), ("coupled", True)])
    def test_safeguard_compares_with_the_entering_dual(self, grid16, kind, log_domain,
                                                        monkeypatch):
        # a trial is kept when its dual is at least the traced dual of the
        # point the sweep started from, even below the plain point's dual;
        # one below the entering dual is rejected and the history restarts
        _pick_domain(monkeypatch, log_domain)
        system = _pinning_instance(kind, grid16)
        start = system.initial_state()
        for _ in range(3):
            system.sweep(start)
        for offset, kept in ((0.5, True), (-1.0, False)):
            state = SinkhornState(system, start.x.copy())
            mixer = driver._AndersonMixer(system)
            for first in (True, False):
                entering, x_prev = system.dual_objective(state), state.x.copy()
                system.sweep(state)
                plain_x, plain = state.x.copy(), system.dual_objective(state)
                assert plain - entering > 1e-9
                # the trial's dual lies between the two duals, or below both
                trial_value = entering + offset * (plain - entering)
                with monkeypatch.context() as patch:
                    patch.setattr(PathSystem, "dual_objective",
                                  lambda self, st, messages=None: trial_value)
                    point = mixer.step(state, x_prev, entering)
                assert point is None or not first  # a first step only records
            if kept:
                assert point[1] == trial_value and not np.array_equal(state.x, plain_x)
                assert len(mixer._df) == 1
            else:
                assert point is None and np.array_equal(state.x, plain_x)
                assert mixer._last is None and mixer._df == []

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
        mixer = driver._AndersonMixer(system)
        x = state.x.copy()
        up = np.zeros_like(x)
        up[system._caps_part] = 1.0
        assert x[system._caps_part].max() > -1.0
        # an entering dual of -inf keeps any finite trial
        assert mixer.step(sinkhorn_engine.SinkhornState(system, x - up), x, -np.inf) is None
        evaluated = _record_dual_evaluations(monkeypatch, lambda st: [
            np.exp(st.views[node]) for node in system.caps])
        mixer.step(state, x + 0.5 * up, -np.inf)
        assert evaluated
        for w in evaluated + [[np.exp(state.views[node]) for node in system.caps]]:
            assert max(arr.max() for arr in w) <= 1.0


def _gram_instance(rng, m, dependent=False):
    """Gram matrix of m random residual differences of mixed scales, and a right-hand side."""
    d = rng.normal(size=(m, 40)) * rng.uniform(0.1, 10.0, size=(m, 1))
    if dependent:  # a repeated difference and a zero one
        d[4], d[1] = d[2], 0.0
    f = rng.normal(size=40)
    return d @ d.T, [row @ f for row in d]


class TestGramSolve:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_full_rank_matches_lstsq(self, m):
        rng = np.random.default_rng(320 + m)
        gram, rhs = _gram_instance(rng, m)
        ours = driver._gram_solve(gram, rhs)
        ref = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        assert np.linalg.norm(ours - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_rank_deficient_drops_dependent_directions(self, m):
        # the zero difference and the second of the two equal ones carry no
        # new direction: the pivoted factorization drops them (weight 0),
        # and the normal equations hold as well as lstsq's minimum-norm
        # weights make them, up to a round-off slack
        rng = np.random.default_rng(330 + m)
        for _ in range(20):
            gram, rhs = _gram_instance(rng, m, dependent=True)
            ours = driver._gram_solve(gram, rhs)
            ref = np.linalg.lstsq(gram, rhs, rcond=None)[0]
            assert ours[1] == 0.0 and ours[4] == 0.0 and ours[2] != 0.0
            assert np.count_nonzero(ours) == m - 2
            slack = 64 * np.finfo(float).eps * np.linalg.norm(gram) * np.linalg.norm(ours)
            assert (np.linalg.norm(gram @ ours - rhs)
                    <= np.linalg.norm(gram @ ref - rhs) + slack)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_zero_gram_gives_zero_weights(self, m):
        # so a zero residual history mixes to the plain point and the mixer
        # evaluates nothing (test_exact_fixed_point_is_evaluated_once)
        weights = driver._gram_solve(np.zeros((m, m)), [0.0] * m)
        assert weights.shape == (m,) and not weights.any()


# the numpy.linalg functions that call LAPACK
_LAPACK_FUNCTIONS = ("solve", "tensorsolve", "tensorinv", "inv", "cholesky", "eigvals",
                     "eigvalsh", "pinv", "slogdet", "det", "svd", "svdvals", "eig", "eigh",
                     "lstsq", "qr", "cond", "matrix_rank")


def test_solves_and_convergence_check_call_no_lapack(grid16, monkeypatch):
    # each LAPACK routine maps about 1 MB into the process that first calls
    # it: past the warm-up the mixer solves its Gram block, and the
    # linear_convergence property fits its line, without one
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    coupled = _pinning_instance("coupled", grid16)
    for name in _LAPACK_FUNCTIONS:
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    steps = []
    step = driver._AndersonMixer.step
    monkeypatch.setattr(driver._AndersonMixer, "step",
                        lambda self, *args: steps.append(None) or step(self, *args))
    built = scenario_61().build()
    state, report = solve(built.net, built.paths, mode=built.mode, config=built.config)
    assert report.converged and report.iterations > ANDERSON_WARMUP + 10
    prop = {"kind": "linear_convergence", "start": ANDERSON_WARMUP, "min_r2": 0.0}
    result = check_property(prop, built, state, report)
    assert np.isfinite(result.value) and "slopes" in result.detail
    _, report = _solve_system(coupled, **fixed_sweeps(ANDERSON_WARMUP + 10))
    assert report.iterations == ANDERSON_WARMUP + 10
    assert len(steps) > 2 * 10
