import itertools
import math

import numpy as np
import pytest

from theory import (
    NonIncreasingTimesError,
    check_generalized_monge,
    check_xtwist,
    path_cost,
    reciprocal_pair_cost,
)

from datransport import TimeGrid, build_pair_kernel
from datransport.errors import BadParamError


class TestPairKernel:
    def test_zero_weight(self, grid8):
        k = build_pair_kernel(grid8, 0.0, 1.0)
        upper = np.triu(np.ones((8, 8)), 1)
        assert np.array_equal(k.K, upper)

    def test_unit_gap_value(self):
        g = TimeGrid(t_f=8.0, n_t=8)  # dt = 1
        k = build_pair_kernel(g, 1.0, 1.0)
        assert k.K[0, 1] == pytest.approx(math.exp(-1.0))

    def test_small_epsilon_underflow_scale(self):
        g = TimeGrid(t_f=1.0, n_t=4)  # gaps in multiples of 0.25
        k = build_pair_kernel(g, 1.0, 0.1)
        assert k.K[0, 2] == pytest.approx(math.exp(-1.0 / (0.1 * 0.5)), rel=1e-12)
        assert k.K[0, 2] == pytest.approx(2.061153622438558e-9)

    def test_kernel_cost_duality(self, grid10):
        k = build_pair_kernel(grid10, 1.7, 0.3)
        t = grid10.centers
        for s, u in itertools.combinations(range(10), 2):
            assert -0.3 * k.logK[s, u] == pytest.approx(1.7 / (t[u] - t[s]), rel=1e-12)

    def test_ordering_zeros(self, grid8):
        k = build_pair_kernel(grid8, 1.0, 0.5)
        assert np.all(k.K[np.tril_indices(8)] == 0.0)
        assert np.all(np.isneginf(k.logK[np.tril_indices(8)]))
        assert np.all(k.K[np.triu_indices(8, 1)] > 0)
        assert np.all(k.K[np.triu_indices(8, 1)] <= 1.0)

    def test_linear_kernel_built_on_first_use(self):
        k = build_pair_kernel(TimeGrid(t_f=1.0, n_t=50), 1.3, 0.07)
        assert "K" not in vars(k)
        upper = np.isfinite(k.logK)
        ref = np.zeros_like(k.logK)
        ref[upper] = np.exp(k.logK[upper])
        assert k.K.tobytes() == ref.tobytes()
        assert k.K is k.K
        assert not k.K.flags.writeable and not k.logK.flags.writeable

    def test_log_kernel_built_on_first_use_from_the_formula(self):
        # logK is the formula's exponent with -inf at t <= s, built only when
        # read; log_window gives any block of it bit for bit, without it
        grid = TimeGrid(t_f=1.3, n_t=37)
        for w in (0.0, 0.8):
            k = build_pair_kernel(grid, w, 0.11)
            rng = np.random.default_rng(5)
            t = grid.centers
            windows = [(slice(None), slice(None))] + [
                tuple(slice(*sorted(rng.integers(0, 38, 2))) for _ in range(2)) for _ in range(40)]
            for rows, cols in windows:
                ours = k.log_window(rows, cols)
                gap = t[None, cols] - t[rows, None]
                ref = np.full(gap.shape, -np.inf)
                ref[gap > 0] = -w / (0.11 * gap[gap > 0])
                assert ours.tobytes() == ref.tobytes()
                buf = np.empty(ref.shape)
                assert k.log_window(rows, cols, buf) is buf and buf.tobytes() == ref.tobytes()
            assert "logK" not in vars(k)
            assert k.logK.tobytes() == k.log_window(slice(None), slice(None)).tobytes()
            assert k.logK is k.logK and not k.logK.flags.writeable

    def test_transit_cost_built_on_first_use(self, grid10):
        k = build_pair_kernel(grid10, 1.7, 0.3)
        assert "cost" not in vars(k)
        t = grid10.centers
        for s, u in itertools.product(range(10), repeat=2):
            assert k.cost[s, u] == (1.7 / (t[u] - t[s]) if u > s else 0.0)
        assert k.cost is k.cost and not k.cost.flags.writeable

    def test_bad_params(self, grid8):
        with pytest.raises(BadParamError):
            build_pair_kernel(grid8, 1.0, 0.0)
        with pytest.raises(BadParamError):
            build_pair_kernel(grid8, -1.0, 0.5)
        for w, epsilon in ((np.nan, 0.5), (1.0, np.inf), (1.0, np.nan)):
            with pytest.raises(BadParamError):
                build_pair_kernel(grid8, w, epsilon)


class TestPathCost:
    def test_symmetric_split(self):
        assert path_cost([1.0, 1.0], [0.0, 0.5, 1.0]) == pytest.approx(4.0)

    def test_direct_formula(self):
        assert path_cost([2.0, 5.0], [0.0, 0.2, 1.0]) == pytest.approx(16.25)

    def test_non_increasing_times(self):
        with pytest.raises(NonIncreasingTimesError):
            path_cost([1.0, 1.0], [0.0, 0.5, 0.5])

    def test_uniform_spacing_minimizes_on_grid(self):
        # exhaustive search oracle over all strictly increasing grid triples
        g = TimeGrid(1.0, 20)
        t = g.centers
        best = None
        best_tuple = None
        for i, j, k in itertools.combinations(range(20), 3):
            c = path_cost([1.0, 1.0], [t[i], t[j], t[k]])
            if best is None or c < best:
                best, best_tuple = c, (i, j, k)
        i, j, k = best_tuple
        # widest span, middle point balancing both gaps
        assert (i, k) == (0, 19)
        assert abs((t[j] - t[i]) - (t[k] - t[j])) <= g.dt
        assert best == pytest.approx(path_cost([1.0, 1.0], [t[0], t[9], t[19]]), rel=1e-12) or \
            best == pytest.approx(path_cost([1.0, 1.0], [t[0], t[10], t[19]]), rel=1e-12)

    def test_second_difference_positive(self):
        # discrete convexity in the interior time
        h = 0.01
        c = lambda tm: path_cost([1.0, 2.0], [0.0, tm, 1.0])
        for tm in np.linspace(0.2, 0.8, 13):
            assert c(tm + h) + c(tm - h) - 2 * c(tm) > 0


class TestGeneralizedMonge:
    def test_reciprocal_gap_single_sign(self, grid16):
        report = check_generalized_monge(grid16, reciprocal_pair_cost(1.0),
                                         n_samples=2000, seed=3)
        assert report.n_samples == 2000
        assert report.single_sign
        assert report.sign == -1
        assert report.max_cross <= 1e-12

    def test_product_cost_opposite_sign(self, grid16):
        report = check_generalized_monge(grid16, lambda t, s: t * s,
                                         n_samples=1000, seed=5)
        assert report.single_sign
        assert report.sign == 1
        assert report.min_cross >= -1e-12

    def test_constant_cost_degenerate(self, grid16):
        report = check_generalized_monge(grid16, lambda t, s: 3.0,
                                         n_samples=500, seed=7)
        assert report.single_sign
        assert report.sign == 0


class TestXTwist:
    def test_gradient_values_and_fd(self):
        report = check_xtwist((1.0, 1.0), [(0.0, 0.5, 0.5, 1.0)])
        case = report.cases[0]
        # d/dt0 of 1/(t1-t0) at gap 0.5 is +4; d/dt2 of 1/(t2-t1) is -4
        assert case.grad == pytest.approx((4.0, -4.0))
        assert case.fd_rel_error <= 1e-6
        assert case.degenerate

    def test_difference_nonzero(self):
        report = check_xtwist((1.0, 1.0), [(0.0, 0.3, 0.6, 1.0)])
        case = report.cases[0]
        assert not case.degenerate
        assert case.diff_norm > 0
        assert report.all_nonzero
        # difference components match the closed-form ratio expressions
        t0, t1, t1p, t2 = 0.0, 0.3, 0.6, 1.0
        d0 = (t1p - t1) * (t1p + t1 - 2 * t0) / ((t1 - t0) ** 2 * (t1p - t0) ** 2)
        d2 = (t1p - t1) * (2 * t2 - t1p - t1) / ((t2 - t1p) ** 2 * (t2 - t1) ** 2)
        assert case.grad[0] - case.grad_alt[0] == pytest.approx(d0, rel=1e-12)
        assert case.grad[1] - case.grad_alt[1] == pytest.approx(d2, rel=1e-12)

    def test_many_cases_fd_bound(self):
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(50):
            t0 = rng.uniform(0, 0.2)
            t2 = rng.uniform(0.8, 1.0)
            t1, t1p = sorted(rng.uniform(t0 + 0.05, t2 - 0.05, 2))
            cases.append((t0, t1, t1p, t2))
        report = check_xtwist((1.3, 0.7), cases)
        assert report.all_nonzero
        assert report.max_fd_rel_error <= 1e-6

    def test_ordering_required(self):
        with pytest.raises(NonIncreasingTimesError):
            check_xtwist((1.0, 1.0), [(0.5, 0.3, 0.6, 1.0)])
