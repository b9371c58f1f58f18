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
    diagonal.  Any block of ``logK`` is computed from the formula by
    ``log_window``, so ``logK`` itself, ``K`` (the exp of the whole window,
    taken in place) and ``cost`` (the transit cost ``w / (t_t - t_s)``
    above the diagonal and 0 elsewhere) are each built on first use and
    independently: a solve that never reads them (an independent one)
    never holds any n_t**2 array of the kernel, and a linear one never
    holds ``logK``.
    """

    grid: TimeGrid
    w: float
    epsilon: float

    def log_window(self, rows: slice, cols: slice, out: np.ndarray | None = None) -> np.ndarray:
        """``logK[rows, cols]`` from the formula, in ``out`` (C-contiguous) when given.

        ``rows`` and ``cols`` are contiguous slices, and every entry equals
        the one of ``logK`` bit for bit.
        """
        t = self.grid.centers
        gap = np.subtract(t[None, cols], t[rows, None], out=out)
        # t <= s only in the corner of the rows from the first column on and
        # the columns up to the last row
        r, c = range(self.grid.n_t)[rows], range(self.grid.n_t)[cols]
        corner = gap[max(c.start - r.start, 0):, :max(r.stop - c.start, 0)]
        lower = corner <= 0
        np.multiply(self.epsilon, gap, out=gap)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(-self.w, gap, out=gap)
        corner[lower] = -np.inf
        return gap

    @cached_property
    def logK(self) -> np.ndarray:
        logk = self.log_window(slice(None), slice(None))
        logk.flags.writeable = False
        return logk

    @cached_property
    def K(self) -> np.ndarray:
        k = self.log_window(slice(None), slice(None))
        np.exp(k, out=k)
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
    return PairKernel(grid=grid, w=w, epsilon=epsilon)
