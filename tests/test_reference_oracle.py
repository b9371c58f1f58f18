import math

import numpy as np
import pytest

from helpers import lp_min_cost_coupling

from datransport import TimeGrid, chain_cost_tensor, dense_sinkhorn, entropy
from datransport.errors import BadParamError, SizeCapError, UnreachableMassError
from datransport.reference_oracle import (
    DenseTensor,
    dense_coupled_sinkhorn,
    entropic_objective,
    transport_cost,
)


class TestEntropy:
    def test_uniform(self):
        n = 16
        plan = np.full((4, 4), 1.0 / n)
        assert entropy(plan) == pytest.approx(math.log(n) + 1.0)

    def test_dirac(self):
        plan = np.zeros((4, 4))
        plan[1, 2] = 1.0
        assert entropy(plan) == pytest.approx(1.0)

    def test_two_cells(self):
        plan = np.zeros((4, 4))
        plan[0, 1] = plan[2, 3] = 0.5
        assert entropy(plan) == pytest.approx(math.log(2.0) + 1.0)

    def test_zero_cells_ignored(self):
        assert entropy(np.zeros((3, 3))) == 0.0


class TestChainCostTensor:
    def test_matches_direct_formula(self):
        g = TimeGrid(1.0, 6)
        t = g.centers
        cost = chain_cost_tensor(t, [2.0, 0.5])
        for i in range(6):
            for j in range(6):
                for k in range(6):
                    if i < j < k:
                        expect = 2.0 / (t[j] - t[i]) + 0.5 / (t[k] - t[j])
                        assert cost[i, j, k] == pytest.approx(expect, rel=1e-12)
                    else:
                        assert np.isinf(cost[i, j, k])

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            chain_cost_tensor(np.linspace(0, 1, 32), [1.0])
        with pytest.raises(SizeCapError):
            chain_cost_tensor(np.linspace(0.1, 1, 10), [1.0] * 4)


class TestDenseSinkhorn:
    def test_zero_cost_gives_product_coupling(self):
        rng = np.random.default_rng(0)
        mu = rng.uniform(0.1, 1, 8)
        mu /= mu.sum()
        nu = rng.uniform(0.1, 1, 8)
        nu /= nu.sum()
        for eps in (0.05, 0.5, 2.0):
            res = dense_sinkhorn(np.zeros((8, 8)), [("eq", mu), ("eq", nu)], eps, 10)
            assert np.abs(res.plan.values - np.outer(mu, nu)).max() <= 1e-12

    def test_equality_marginals_match_after_update(self):
        g = TimeGrid(1.0, 8)
        cost = chain_cost_tensor(g.centers, [1.0])
        mu = np.r_[np.full(4, 0.25), np.zeros(4)]
        nu = np.r_[np.zeros(4), np.full(4, 0.25)]
        res = dense_sinkhorn(cost, [("eq", mu), ("eq", nu)], 0.3, 25)
        # the sink axis was updated last, so it holds exactly
        assert np.abs(res.marginals[1] - nu).max() <= 1e-12

    def test_inactive_cap_changes_nothing(self):
        g = TimeGrid(1.0, 8)
        cost = chain_cost_tensor(g.centers, [1.0, 1.0])
        mu = np.r_[np.full(3, 1 / 3), np.zeros(5)]
        nu = np.r_[np.zeros(5), np.full(3, 1 / 3)]
        free = dense_sinkhorn(cost, [("eq", mu), ("free", None), ("eq", nu)], 0.4, 20)
        capped = dense_sinkhorn(cost, [("eq", mu), ("ub", np.full(8, 10.0)), ("eq", nu)],
                                0.4, 20)
        assert np.abs(free.plan.values - capped.plan.values).max() <= 1e-14

    def test_active_cap_enforced(self):
        g = TimeGrid(1.0, 8)
        cost = chain_cost_tensor(g.centers, [1.0, 1.0])
        mu = np.r_[np.full(3, 1 / 3), np.zeros(5)]
        nu = np.r_[np.zeros(5), np.full(3, 1 / 3)]
        # strict ordering leaves six usable crossing bins; 0.2 each is feasible
        cap = np.full(8, 0.2)
        res = dense_sinkhorn(cost, [("eq", mu), ("ub", cap), ("eq", nu)], 0.4, 400)
        assert np.max(res.marginals[1] - cap) <= 1e-9
        assert res.marginals[1].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.abs(res.marginals[0] - mu).max() <= 1e-9

    def test_objective_monotone_across_sweeps_equality_case(self):
        # the entropic objective of the scaled plan equals eps * KL(plan||K)
        # up to a constant, so scaling sweeps drive it monotonically up to
        # the constrained optimum
        g = TimeGrid(1.0, 8)
        cost = chain_cost_tensor(g.centers, [1.0])
        rng = np.random.default_rng(5)
        mu = np.zeros(8)
        mu[:5] = rng.uniform(0.2, 1, 5)
        mu /= mu.sum()
        nu = np.zeros(8)
        nu[3:] = rng.uniform(0.2, 1, 5)
        nu /= nu.sum()
        eps = 0.4
        values = []
        for sweeps in range(1, 14):
            res = dense_sinkhorn(cost, [("eq", mu), ("eq", nu)], eps, sweeps)
            values.append(entropic_objective(cost, res.plan, eps))
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9)
        assert values[-1] - values[0] > 0

    def test_epsilon_limit_approaches_lp_from_above(self):
        g = TimeGrid(1.0, 8)
        t = g.centers
        mu = np.r_[np.full(4, 0.25), np.zeros(4)]
        nu = np.r_[np.zeros(4), np.full(4, 0.25)]
        pair_cost = np.full((8, 8), np.inf)
        for i in range(8):
            for j in range(8):
                if j > i:
                    pair_cost[i, j] = 1.0 / (t[j] - t[i])
        costs = []
        for eps in (1.0, 0.3, 0.1, 0.03):
            res = dense_sinkhorn(pair_cost, [("eq", mu), ("eq", nu)], eps, 3000)
            costs.append(transport_cost(pair_cost, res.plan))
        assert all(a >= b - 1e-9 for a, b in zip(costs[:-1], costs[1:]))
        # LP oracle on the finite-cost cells
        lp_cost = np.where(np.isfinite(pair_cost), pair_cost, 1e9)
        lp_plan = lp_min_cost_coupling(mu, nu, lp_cost)
        lp_value = float((lp_plan * lp_cost).sum())
        assert costs[-1] >= lp_value - 1e-9
        assert costs[-1] - lp_value <= 0.2

    def test_unreachable_mass(self):
        g = TimeGrid(1.0, 8)
        cost = chain_cost_tensor(g.centers, [1.0])
        mu = np.eye(8)[7]  # departs at the last bin: nothing can arrive after
        nu = np.eye(8)[0] * 0 + np.eye(8)[3]
        with pytest.raises(UnreachableMassError):
            dense_sinkhorn(cost, [("eq", mu), ("eq", nu)], 0.3, 5)

    def test_size_caps(self):
        with pytest.raises(SizeCapError):
            dense_sinkhorn(np.zeros((17, 17)), [("free", None)] * 2, 0.5, 1)
        with pytest.raises(SizeCapError):
            DenseTensor(np.zeros((8, 8, 8, 8, 8)))

    @pytest.mark.parametrize("epsilon, iters", [
        (0.0, 5), (-1.0, 5), (np.inf, 5), (np.nan, 5), (0.5, -1)])
    def test_bad_run_rejected(self, epsilon, iters):
        # both oracles, before any work: an infinite epsilon gave NaN
        # marginals and a negative one ran on
        cost = np.ones((4, 4, 4))
        with pytest.raises(BadParamError):
            dense_sinkhorn(cost, [("free", None)] * 3, epsilon, iters)
        with pytest.raises(BadParamError):
            dense_coupled_sinkhorn(cost, np.full((4, 4), 1 / 16), [np.ones(4)], epsilon, iters)

    @pytest.mark.parametrize("call, message", [
        (lambda: DenseTensor(np.array([[0.5, -0.1], [0.0, 0.6]])),
         "plan values must be nonnegative"),
        (lambda: dense_sinkhorn(np.ones((4, 4, 4)), [("free", None)] * 2, 0.5, 1),
         "need 3 targets, got 2"),
        (lambda: dense_sinkhorn(np.ones((4, 4)), [("le", np.ones(4)), ("free", None)], 0.5, 1),
         "unknown target kind 'le'"),
        # every kind is checked before any update: with no iteration at all,
        # and before the first axis, whose target an all-inf cost leaves
        # unreachable, is updated (that update raises UnreachableMassError)
        (lambda: dense_sinkhorn(np.ones((4, 4)), [("free", None), ("le", np.ones(4))], 0.5, 0),
         "unknown target kind 'le'"),
        (lambda: dense_sinkhorn(np.full((4, 4), np.inf), [("eq", np.full(4, 0.25)),
                                                          ("le", np.ones(4))], 0.5, 1),
         "unknown target kind 'le'"),
        (lambda: dense_coupled_sinkhorn(np.ones((4, 4)), np.full((4, 4), 1 / 16), [], 0.5, 1),
         "coupled oracle needs at least one interior axis"),
        (lambda: dense_coupled_sinkhorn(np.ones((4, 4, 4)), np.full((4, 4), 1 / 16), [], 0.5, 1),
         "need 1 interior caps, got 0"),
    ], ids=["negative plan", "target count", "target kind", "target kind with no iteration",
            "target kind before an update", "no interior axis", "cap count"])
    def test_bad_input_rejected(self, call, message):
        with pytest.raises(BadParamError, match=message):
            call()


class TestDenseCoupled:
    def test_joint_matched_exactly(self):
        g = TimeGrid(1.0, 8)
        cost = chain_cost_tensor(g.centers, [1.0, 1.0])
        joint = np.zeros((8, 8))
        joint[0, 5] = 0.4
        joint[1, 7] = 0.6
        res = dense_coupled_sinkhorn(cost, joint, [np.full(8, 10.0)], 0.3, 7)
        assert np.abs(res.joint - joint).max() <= 1e-12

    def test_cap_clips_crossing_profile(self):
        g = TimeGrid(1.0, 8)
        cost = chain_cost_tensor(g.centers, [1.0, 1.0])
        joint = np.zeros((8, 8))
        joint[0, 6] = 0.5
        joint[1, 7] = 0.5
        cap = np.full(8, 0.2)
        res = dense_coupled_sinkhorn(cost, joint, [cap], 0.3, 300)
        crossing = res.plan.values.sum(axis=(0, 2))
        assert np.max(crossing - cap) <= 1e-9

    def test_unreachable_joint(self):
        g = TimeGrid(1.0, 8)
        cost = chain_cost_tensor(g.centers, [1.0, 1.0])
        joint = np.zeros((8, 8))
        joint[3, 3] = 1.0  # zero travel time is impossible
        with pytest.raises(UnreachableMassError):
            dense_coupled_sinkhorn(cost, joint, [np.full(8, 1.0)], 0.3, 3)
