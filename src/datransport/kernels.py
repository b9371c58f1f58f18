"""Reciprocal-gap transit costs, pairwise Gibbs kernels, and structure checks.

The transit cost of one edge with weight ``w`` between times ``s < t`` is
``w / (t - s)``; the corresponding Gibbs kernel is ``exp(-cost / eps)``.
On the grid, strict ordering means strict index ordering: transitions with
zero or negative index gap carry kernel weight exactly zero (the cost
diverges as the gap closes, so the limit is zero mass).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParamError, NonIncreasingTimesError
from .grid_measures import TimeGrid

@dataclass(frozen=True, eq=False)
class PairKernel:
    """Gibbs kernel of one weighted edge on the grid.

    ``K[s, t] = exp(-w / (eps * (t_t - t_s)))`` for index ``t > s`` and 0
    elsewhere; ``logK`` holds the exponent with -inf on and below the
    diagonal.  ``K`` is built from ``logK`` on first use, so a solve that
    never reads it (an independent one) never holds it.  ``cost`` is the
    transit cost ``w / (t_t - t_s)`` above the diagonal and 0 elsewhere,
    also built on first use.
    """

    grid: TimeGrid
    w: float
    epsilon: float
    logK: np.ndarray

    @cached_property
    def K(self) -> np.ndarray:
        k = np.exp(self.logK)
        k.flags.writeable = False
        return k

    @cached_property
    def cost(self) -> np.ndarray:
        t = self.grid.centers
        gap = t[None, :] - t[:, None]
        cost = np.zeros_like(gap)
        cost[gap > 0] = self.w / gap[gap > 0]
        cost.flags.writeable = False
        return cost


def build_pair_kernel(grid: TimeGrid, w: float, epsilon: float) -> PairKernel:
    if not 0 < epsilon < np.inf:
        raise BadParamError(f"epsilon must be finite and positive, got {epsilon}")
    if not w >= 0:
        raise BadParamError(f"edge weight must be nonnegative, got {w}")
    t = grid.centers
    gap = t[None, :] - t[:, None]
    logk = np.full((grid.n_t, grid.n_t), -np.inf)
    upper = gap > 0
    logk[upper] = -w / (epsilon * gap[upper])
    logk.flags.writeable = False
    return PairKernel(grid=grid, w=w, epsilon=epsilon, logK=logk)


def path_cost(weights, times) -> float:
    """Additive reciprocal-gap cost sum_l w_l / (t_l - t_{l-1})."""
    weights = np.asarray(weights, dtype=float)
    times = np.asarray(times, dtype=float)
    if times.shape != (weights.size + 1,):
        raise BadParamError(f"need {weights.size + 1} times for {weights.size} weights")
    gaps = np.diff(times)
    if np.any(gaps <= 0):
        raise NonIncreasingTimesError(f"times must be strictly increasing, got {times.tolist()}")
    return float(np.sum(weights / gaps))


@dataclass(frozen=True)
class MongeReport:
    """Signs of sampled cross-differences c(t,s)+c(t',s') - c(t,s') - c(t',s)."""

    n_samples: int
    n_nonpositive: int
    n_nonnegative: int
    min_cross: float
    max_cross: float

    @property
    def single_sign(self) -> bool:
        return self.n_nonpositive == self.n_samples or self.n_nonnegative == self.n_samples

    @property
    def sign(self) -> int | None:
        """-1, 0 or +1 when one sign holds over all samples, else None."""
        if not self.single_sign:
            return None
        if self.n_nonpositive == self.n_samples == self.n_nonnegative:
            return 0
        return -1 if self.n_nonpositive == self.n_samples else 1


def check_generalized_monge(grid: TimeGrid, cost, n_samples: int = 1000, seed: int = 0,
                            tol: float = 1e-12) -> MongeReport:
    """Sample ordered quadruples t < t', s < s' and report cross-difference signs.

    ``cost`` is a two-argument callable on grid times; it may return +inf or
    nan outside its domain, in which case the quadruple is skipped (this is
    how the valid ordering region of gap costs is handled).
    """
    rng = np.random.default_rng(seed)
    centers = grid.centers
    collected = 0
    n_nonpos = n_nonneg = 0
    min_cross, max_cross = np.inf, -np.inf
    attempts = 0
    while collected < n_samples:
        attempts += 1
        if attempts > 200 * max(n_samples, 1):
            raise BadParamError("could not sample enough valid quadruples; cost domain too small")
        batch = max(n_samples - collected, 64)
        ti = rng.integers(0, grid.n_t, size=(batch, 2))
        si = rng.integers(0, grid.n_t, size=(batch, 2))
        ok = (ti[:, 0] != ti[:, 1]) & (si[:, 0] != si[:, 1])
        ti, si = np.sort(ti[ok], axis=1), np.sort(si[ok], axis=1)
        for (a, b), (c, d) in zip(ti, si):
            if collected >= n_samples:
                break
            t, tp, s, sp = centers[a], centers[b], centers[c], centers[d]
            vals = np.array([cost(t, s), cost(tp, sp), cost(t, sp), cost(tp, s)], dtype=float)
            if not np.all(np.isfinite(vals)):
                continue
            cross = vals[0] + vals[1] - vals[2] - vals[3]
            collected += 1
            n_nonpos += cross <= tol
            n_nonneg += cross >= -tol
            min_cross = min(min_cross, cross)
            max_cross = max(max_cross, cross)
    return MongeReport(n_samples=collected, n_nonpositive=int(n_nonpos),
                       n_nonnegative=int(n_nonneg), min_cross=float(min_cross),
                       max_cross=float(max_cross))


def reciprocal_pair_cost(w: float):
    """Two-argument gap cost ``w / (s - t)``; +inf when the gap is not positive."""

    def cost(t: float, s: float) -> float:
        gap = s - t
        return w / gap if gap > 0 else np.inf

    return cost


@dataclass(frozen=True)
class XTwistCase:
    t0: float
    t1: float
    t1_alt: float
    t2: float
    grad: tuple[float, float]
    grad_alt: tuple[float, float]
    diff_norm: float
    fd_rel_error: float

    @property
    def degenerate(self) -> bool:
        return self.t1 == self.t1_alt


@dataclass(frozen=True)
class XTwistReport:
    cases: tuple[XTwistCase, ...]

    @property
    def all_nonzero(self) -> bool:
        """Gradient difference nonzero on every non-degenerate case."""
        return all(c.diff_norm > 0 for c in self.cases if not c.degenerate)

    @property
    def max_fd_rel_error(self) -> float:
        return max((c.fd_rel_error for c in self.cases), default=0.0)


def _da_gradient(w01: float, w12: float, t0: float, t1: float, t2: float) -> tuple[float, float]:
    # d/dt0 [w01/(t1-t0)] = +w01/(t1-t0)^2 ; d/dt2 [w12/(t2-t1)] = -w12/(t2-t1)^2
    return (w01 / (t1 - t0) ** 2, -w12 / (t2 - t1) ** 2)


def check_xtwist(weights, cases, fd_step: float = 1e-5) -> XTwistReport:
    """Gradient-injectivity check for the two-segment gap cost.

    For each tuple ``(t0, t1, t1_alt, t2)`` the gradient of
    ``c = w01/(t1-t0) + w12/(t2-t1)`` with respect to the boundary pair
    ``(t0, t2)`` is evaluated at both crossing times; distinct crossing
    times must give distinct gradients.  The analytic gradient is
    cross-checked against central finite differences.
    """
    w01, w12 = (float(x) for x in weights)
    out = []
    for t0, t1, t1_alt, t2 in cases:
        for tmid in (t1, t1_alt):
            if not t0 < tmid < t2:
                raise NonIncreasingTimesError(f"need t0 < t1 < t2, got ({t0}, {tmid}, {t2})")
        g = _da_gradient(w01, w12, t0, t1, t2)
        g_alt = _da_gradient(w01, w12, t0, t1_alt, t2)
        diff = np.hypot(g[0] - g_alt[0], g[1] - g_alt[1])

        def c(a, b, tmid=t1):
            return w01 / (tmid - a) + w12 / (b - tmid)

        h = fd_step
        fd = ((c(t0 + h, t2) - c(t0 - h, t2)) / (2 * h),
              (c(t0, t2 + h) - c(t0, t2 - h)) / (2 * h))
        rel = max(abs(fd[0] - g[0]) / max(abs(g[0]), 1e-300),
                  abs(fd[1] - g[1]) / max(abs(g[1]), 1e-300))
        out.append(XTwistCase(t0=t0, t1=t1, t1_alt=t1_alt, t2=t2, grad=g,
                              grad_alt=g_alt, diff_norm=float(diff), fd_rel_error=float(rel)))
    return XTwistReport(cases=tuple(out))
