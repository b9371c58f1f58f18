"""Feasibility certification and witness constructions for DA pairs.

A departure/arrival pair with minimum travel time ``delta`` is feasible
exactly when the departure CDF dominates the delta-shifted arrival CDF.
On the grid the shift is the conservative bin offset ``ceil(delta / dt)``,
and arrivals strictly earlier than any shifted departure are checked as
well (virtual bins below the grid carry zero departure mass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasiblePreconditionError
from .grid_measures import (
    Measure,
    TimeGrid,
    cdf,
    quantile,
    require_same_grid,
)

FEAS_SLACK = 1e-12


def shift_bins(delta: float, dt: float) -> int:
    """Conservative bin offset for a physical minimum travel time."""
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    # guard against float noise promoting exact multiples to the next bin
    return max(int(math.ceil(delta / dt - 1e-9)), 0)


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    margin: float
    violation_time: float | None


def check_da_feasibility(mu0: Measure, muT: Measure, delta: float) -> FeasibilityVerdict:
    """Shifted-CDF dominance test F0(t) >= FT(t + delta) at every bin.

    Exactly-tight instances count as feasible (slack ``FEAS_SLACK``).
    """
    grid = require_same_grid(mu0, muT)
    # every shift of n_t bins or more gives the same verdict, margin and time
    k = min(shift_bins(delta, grid.dt), grid.n_t)
    # the gap at each departure-side point j in [-k, n_t): j < 0 covers
    # arrivals earlier than any departure shifted by k bins, and j + k >= n_t
    # compares with the whole arrival mass
    ft = cdf(muT)
    gaps = np.concatenate([np.zeros(k), cdf(mu0)]) - np.concatenate([ft, np.full(k, ft[-1])])
    last = gaps.size - 1 - int(np.argmin(gaps[::-1]))  # ties resolved toward the latest time
    margin, worst_j = gaps[last], last - k
    feasible = margin >= -FEAS_SLACK
    violation_time = None if feasible else float(grid.centers[max(worst_j, 0)])
    return FeasibilityVerdict(feasible=feasible, margin=float(margin),
                              violation_time=violation_time)


@dataclass(frozen=True, eq=False)
class TripletWitness:
    """Weighted (t0, t1, tT) atoms certifying feasibility with a rate cap."""

    grid: TimeGrid
    indices: np.ndarray  # (N, 3) bin indices
    weights: np.ndarray  # (N,) nonnegative, summing to one

    @property
    def total(self) -> float:
        return float(self.weights.sum())

    def marginal(self, axis: int) -> Measure:
        mass = np.bincount(self.indices[:, axis], weights=self.weights,
                           minlength=self.grid.n_t)
        return Measure(self.grid, mass)


def quantile_coupling_witness(mu0: Measure, muT: Measure, delta: float,
                              epsilon_gap: float, r: float,
                              n_samples: int) -> TripletWitness:
    """Constructive witness: quantile-coupled endpoints with a spread crossing.

    Deterministic stratified sampling: the probability level u takes the
    ``n_samples`` stratum midpoints of (0,1); within each u-stratum the
    crossing delay s takes the ``n_samples`` stratum midpoints of (0, 1/r).
    The crossing time is ``t1 = t0 + epsilon_gap + s``, so the t1-marginal
    stays below ``r * dt`` per bin up to one u-stratum weight, while the t0
    and tT marginals converge to the inputs as ``n_samples`` grows.
    """
    grid = require_same_grid(mu0, muT)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not r > 0:
        raise ValueError(f"rate bound must be positive, got {r}")
    if not epsilon_gap > 0:  # NaN too: the bins below take it unchecked
        raise ValueError(f"epsilon_gap must be positive, got {epsilon_gap}")
    if epsilon_gap + 1.0 / r >= delta:
        raise InfeasiblePreconditionError(
            f"need epsilon_gap + 1/r < delta, got {epsilon_gap} + {1.0 / r} >= {delta}")
    verdict = check_da_feasibility(mu0, muT, delta)
    if not verdict.feasible:
        raise InfeasiblePreconditionError(
            f"pair infeasible at delta={delta} (margin {verdict.margin})")

    n, n_t = n_samples, grid.n_t
    mid = np.arange(n) + 0.5  # stratum midpoints, over n
    u = mid / n
    s = mid / n * (1.0 / r)
    t0 = quantile(mu0, u)
    b0, b_t = grid.bin_of(t0)[:, None], grid.bin_of(quantile(muT, u))[:, None]
    b1 = grid.bin_of(t0[:, None] + epsilon_gap + s)  # [u-stratum, crossing stratum]
    # merge duplicate atoms so marginals are cheap to read off; the flat
    # index of (b0, b1, bT) sorts as the triple does
    atoms, counts = np.unique(((b0 * n_t + b1) * n_t + b_t).ravel(), return_counts=True)
    uniq = np.stack(np.unravel_index(atoms, (n_t,) * 3), axis=1).astype(np.int64)
    weights = counts * (1.0 / (n * n))
    return TripletWitness(grid=grid, indices=uniq, weights=weights)
