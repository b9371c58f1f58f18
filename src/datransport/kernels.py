"""Reciprocal-gap transit costs and pairwise Gibbs kernels.

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

from .errors import BadParamError
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
