import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    integer_atoms_measure,
    loop_da_feasibility,
    lp_min_cost_coupling,
    maxflow_da_feasible,
)
from theory import monotone_rearrangement

from datransport import (
    Measure,
    TimeGrid,
    check_da_feasibility,
    quantile,
    quantile_coupling_witness,
)
from datransport.errors import (
    GridMismatchError,
    InfeasiblePreconditionError,
    MassMismatchError,
)
from datransport.feasibility import shift_bins


def dirac(grid, t):
    mass = np.zeros(grid.n_t)
    mass[grid.bin_of(t)] = 1.0
    return Measure(grid, mass)


class TestCheckDaFeasibility:
    def test_ample_gap_feasible(self, grid10):
        v = check_da_feasibility(dirac(grid10, 0.1), dirac(grid10, 0.5), 0.3)
        assert v.feasible
        assert v.margin >= 0

    def test_tight_gap_infeasible(self, grid10):
        v = check_da_feasibility(dirac(grid10, 0.4), dirac(grid10, 0.5), 0.3)
        assert not v.feasible
        assert v.violation_time is not None
        assert abs(v.violation_time - 0.45) < 0.2

    def test_early_arrival_mass_caught(self, grid10):
        # arrivals strictly before any shifted departure must be detected
        mu0 = np.zeros(10)
        mu0[0] = 1.0
        muT = np.zeros(10)
        muT[0] = 0.2
        muT[9] = 0.8
        v = check_da_feasibility(Measure(grid10, mu0), Measure(grid10, muT), 3 * grid10.dt)
        assert not v.feasible

    def test_grid_mismatch(self, grid10, grid8):
        with pytest.raises(GridMismatchError):
            check_da_feasibility(dirac(grid10, 0.1), dirac(grid8, 0.5), 0.1)

    def test_shift_beyond_the_grid_is_clamped(self):
        # every shift of n_t bins or more gives the same verdict, margin and
        # violation time, so a shift of 1.5e7 bins costs what one of n_t does
        grid = TimeGrid(1.0, 50)
        ramp = np.arange(1.0, 51.0)
        pairs = [(dirac(grid, 0.1), dirac(grid, 0.9)),
                 (Measure(grid, ramp / ramp.sum()), Measure(grid, ramp[::-1] / ramp.sum()))]
        for mu0, muT in pairs:
            ref = check_da_feasibility(mu0, muT, 1.0)
            assert not ref.feasible
            for delta in (1.0 + grid.dt, 2.0, 10.0, 1e3):
                assert check_da_feasibility(mu0, muT, delta) == ref
            start = time.perf_counter()
            assert check_da_feasibility(mu0, muT, 3e5) == ref
            assert time.perf_counter() - start < 0.5

    def test_shift_bins_rounding(self):
        assert shift_bins(0.0, 0.1) == 0
        assert shift_bins(0.05, 0.1) == 1
        assert shift_bins(0.3, 0.1) == 3  # exact multiple stays exact
        assert shift_bins(0.31, 0.1) == 4

    @pytest.mark.parametrize("call, message", [
        (lambda mu: shift_bins(-0.1, 0.1), "delta must be nonnegative, got -0.1"),
        (lambda mu: quantile_coupling_witness(mu, mu, 0.1, 0.05, 10.0, 0),
         "n_samples must be at least 1"),
        (lambda mu: quantile_coupling_witness(mu, mu, 0.1, 0.05, 0.0, 4),
         "rate bound must be positive, got 0.0"),
    ], ids=["negative delta", "no samples", "zero rate"])
    def test_bad_argument_raises(self, call, message):
        with pytest.raises(ValueError, match=message):
            call(dirac(TimeGrid(1.0, 10), 0.5))

    def test_matches_the_point_loop(self):
        # verdict, margin and violation time bit for bit against the
        # point-by-point loop, on pairs of atoms of 1/n whose gaps tie and on
        # shifts up to and past the grid (the loop takes them unclamped)
        rng = np.random.default_rng(29)
        for _ in range(400):
            grid = TimeGrid(1.0, int(rng.integers(2, 25)))
            mu0, _ = integer_atoms_measure(grid, rng, int(rng.integers(1, 8)))
            muT, _ = integer_atoms_measure(grid, rng, int(rng.integers(1, 8)))
            k = int(rng.integers(0, grid.n_t + 4))
            feasible, margin, worst_j = loop_da_feasibility(mu0, muT, k)
            verdict = check_da_feasibility(mu0, muT, k * grid.dt)
            assert verdict.feasible == feasible and verdict.margin == margin
            assert verdict.violation_time == (None if feasible
                                              else float(grid.centers[max(worst_j, 0)]))

    @pytest.mark.parametrize("k_delta", [0, 1, 3])
    def test_against_maxflow_oracle(self, grid10, k_delta):
        rng = np.random.default_rng(100 + k_delta)
        delta = k_delta * grid10.dt
        agree = 0
        for _ in range(60):
            mu, mu_counts = integer_atoms_measure(grid10, rng, n_atoms=30)
            nu, nu_counts = integer_atoms_measure(grid10, rng, n_atoms=30)
            ours = check_da_feasibility(mu, nu, delta).feasible
            oracle = maxflow_da_feasible(mu_counts, nu_counts, k_delta)
            assert ours == oracle
            agree += 1
        assert agree == 60


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 4), st.lists(st.floats(0.01, 1.0), min_size=10, max_size=10))
def test_self_shift_always_feasible(k, vals):
    grid = TimeGrid(1.0, 10)
    mass = np.array(vals)
    if k:
        mass[10 - k:] = 0.0  # support fits ahead of the shift
    mass /= mass.sum()
    shifted = np.zeros(10)
    shifted[k:] = mass[: 10 - k]
    v = check_da_feasibility(Measure(grid, mass), Measure(grid, shifted), k * grid.dt)
    assert v.feasible


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_delta_monotonicity(data):
    grid = TimeGrid(1.0, 10)
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    mu, _ = integer_atoms_measure(grid, rng, 25)
    nu, _ = integer_atoms_measure(grid, rng, 25)
    deltas = [0.0, grid.dt, 2 * grid.dt, 3 * grid.dt]
    verdicts = [check_da_feasibility(mu, nu, d).feasible for d in deltas]
    # feasible at a larger delta implies feasible at every smaller one
    for small, big in zip(verdicts[:-1], verdicts[1:]):
        assert small or not big


class TestQuantileCouplingWitness:
    def test_dirac_pair_window(self):
        grid = TimeGrid(1.0, 50)
        mu0 = dirac(grid, 0.1)
        muT = dirac(grid, 0.9)
        r = 10.0
        w = quantile_coupling_witness(mu0, muT, delta=0.5, epsilon_gap=0.05,
                                      r=r, n_samples=40)
        assert w.total == pytest.approx(1.0, abs=1e-12)
        m0 = w.marginal(0)
        mT = w.marginal(2)
        assert m0.mass[grid.bin_of(0.1)] == pytest.approx(1.0)
        assert mT.mass[grid.bin_of(0.9)] == pytest.approx(1.0)
        m1 = w.marginal(1)
        support = np.flatnonzero(m1.mass)
        width = (support[-1] - support[0] + 1) * grid.dt
        assert width <= 1.0 / r + 2 * grid.dt

    def test_uniform_shift_capacity(self):
        grid = TimeGrid(1.0, 20)
        mu0 = Measure(grid, np.r_[np.full(10, 0.1), np.zeros(10)])
        muT = Measure(grid, np.r_[np.zeros(10), np.full(10, 0.1)])
        r = 4.0
        n = 50
        w = quantile_coupling_witness(mu0, muT, delta=0.5, epsilon_gap=0.1,
                                      r=r, n_samples=n)
        m1 = w.marginal(1).mass
        assert m1.max() <= r * grid.dt + 1.0 / n + 1e-12
        # direct histogram oracle of the same construction
        hist = np.zeros(grid.n_t)
        for i in range(n):
            u = (i + 0.5) / n
            t0 = quantile(mu0, u)
            for q in range(n):
                s = (q + 0.5) / n / r
                hist[grid.bin_of(t0 + 0.1 + s)] += 1.0 / (n * n)
        assert np.allclose(m1, hist, atol=1e-15)

    def test_marginals_converge(self):
        grid = TimeGrid(1.0, 20)
        rng = np.random.default_rng(2)
        mu0 = Measure(grid, np.r_[rng.uniform(0.5, 1, 8), np.zeros(12)])
        mu0 = Measure(grid, mu0.mass / mu0.total)
        muT = Measure(grid, np.roll(mu0.mass, 10))
        errs = []
        for n in (10, 100, 1000):
            w = quantile_coupling_witness(mu0, muT, delta=0.5, epsilon_gap=0.05,
                                          r=8.0, n_samples=n)
            errs.append(np.abs(w.marginal(0).mass - mu0.mass).sum())
        assert errs[2] < errs[1] < errs[0]
        # stratified quantiles misplace at most one stratum per support bin
        assert errs[2] <= (np.count_nonzero(mu0.mass) + 1) / 1000

    @pytest.mark.parametrize("case", ["dirac", "uniform", "random10", "random100"])
    def test_matches_the_stratum_loop(self, case):
        # the witness is the stratum-by-stratum construction below, atom
        # for atom and weight for weight
        if case == "dirac":
            grid = TimeGrid(1.0, 50)
            mu0, muT, gap, r, n = dirac(grid, 0.1), dirac(grid, 0.9), 0.05, 10.0, 40
        elif case == "uniform":
            grid = TimeGrid(1.0, 20)
            mu0 = Measure(grid, np.r_[np.full(10, 0.1), np.zeros(10)])
            muT = Measure(grid, np.r_[np.zeros(10), np.full(10, 0.1)])
            gap, r, n = 0.1, 4.0, 50
        else:
            grid = TimeGrid(1.0, 20)
            mass = np.r_[np.random.default_rng(2).uniform(0.5, 1, 8), np.zeros(12)]
            mu0 = Measure(grid, mass / mass.sum())
            muT = Measure(grid, np.roll(mu0.mass, 10))
            gap, r, n = 0.05, 8.0, int(case[len("random"):])
        def bin_of(t):
            return min(max(math.floor(t / grid.dt), 0), grid.n_t - 1)

        idx = np.empty((n * n, 3), dtype=np.int64)
        for i in range(n):
            u = (i + 0.5) / n
            t0 = quantile(mu0, u)
            for q in range(n):
                s = (q + 0.5) / n * (1.0 / r)
                idx[i * n + q] = (bin_of(t0), bin_of(t0 + gap + s), bin_of(quantile(muT, u)))
        atoms, inverse = np.unique(idx, axis=0, return_inverse=True)
        w = quantile_coupling_witness(mu0, muT, delta=0.5, epsilon_gap=gap, r=r, n_samples=n)
        assert w.indices.dtype == np.int64 and np.array_equal(w.indices, atoms)
        assert np.array_equal(w.weights, np.bincount(inverse) * (1.0 / (n * n)))

    def test_guard_rate_budget(self, grid10):
        mu0 = dirac(grid10, 0.15)
        muT = dirac(grid10, 0.85)
        with pytest.raises(InfeasiblePreconditionError):
            quantile_coupling_witness(mu0, muT, delta=0.5, epsilon_gap=0.3,
                                      r=4.0, n_samples=10)

    def test_guard_nan_gap(self, grid10):
        with pytest.raises(ValueError, match="epsilon_gap"):
            quantile_coupling_witness(dirac(grid10, 0.15), dirac(grid10, 0.85), delta=0.5,
                                      epsilon_gap=float("nan"), r=4.0, n_samples=10)

    def test_guard_infeasible_pair(self, grid10):
        mu0 = dirac(grid10, 0.85)
        muT = dirac(grid10, 0.15)
        with pytest.raises(InfeasiblePreconditionError):
            quantile_coupling_witness(mu0, muT, delta=0.4, epsilon_gap=0.05,
                                      r=100.0, n_samples=10)


class TestMonotoneRearrangement:
    def test_identity(self, grid10):
        rng = np.random.default_rng(1)
        mass = rng.uniform(0, 1, 10)
        m = Measure(grid10, mass / mass.sum())
        plan = monotone_rearrangement(m, m)
        assert np.allclose(plan.mass, np.diag(m.mass))

    def test_shifted_diagonal(self):
        grid = TimeGrid(1.0, 12)
        src = Measure(grid, np.r_[np.full(8, 0.125), np.zeros(4)])
        dst = Measure(grid, np.r_[np.zeros(4), np.full(8, 0.125)])
        plan = monotone_rearrangement(src, dst)
        expect = np.zeros((12, 12))
        for i in range(8):
            expect[i, i + 4] = 0.125
        assert np.allclose(plan.mass, expect)

    def test_marginals_exact(self):
        grid = TimeGrid(1.0, 12)
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 1, 12)
        b = rng.uniform(0, 1, 12)
        src = Measure(grid, a / a.sum())
        dst = Measure(grid, b / b.sum())
        plan = monotone_rearrangement(src, dst)
        assert np.abs(plan.mass.sum(axis=1) - src.mass).max() <= 1e-12
        assert np.abs(plan.mass.sum(axis=0) - dst.mass).max() <= 1e-12

    def test_against_lp_oracle(self):
        grid = TimeGrid(1.0, 12)
        rng = np.random.default_rng(4)
        a = rng.uniform(0.1, 1, 12)
        b = rng.uniform(0.1, 1, 12)
        src = Measure(grid, a / a.sum())
        dst = Measure(grid, b / b.sum())
        plan = monotone_rearrangement(src, dst)
        # strictly submodular cost: unique LP optimum is the co-monotone coupling
        i = np.arange(12.0)
        cost = (i[:, None] - i[None, :]) ** 2
        lp = lp_min_cost_coupling(src.mass, dst.mass, cost)
        assert np.abs(plan.mass - lp).max() <= 1e-9

    def test_support_comonotone(self):
        grid = TimeGrid(1.0, 15)
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.uniform(0, 1, 15)
            b = rng.uniform(0, 1, 15)
            src = Measure(grid, a / a.sum())
            dst = Measure(grid, b / b.sum())
            plan = monotone_rearrangement(src, dst).mass
            pts = np.argwhere(plan > 0)
            dx = pts[:, 0][:, None] - pts[:, 0][None, :]
            dy = pts[:, 1][:, None] - pts[:, 1][None, :]
            assert np.all(dx * dy >= 0)

    def test_mass_mismatch(self, grid10):
        src = Measure(grid10, np.full(10, 0.1))
        dst = Measure(grid10, np.full(10, 0.05))
        with pytest.raises(MassMismatchError):
            monotone_rearrangement(src, dst)
