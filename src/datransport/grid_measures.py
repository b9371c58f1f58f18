"""Uniform time grid, discrete measures, CDFs and quantiles.

Measures are stored as mass-per-bin vectors (not densities), so a density
bound ``r`` translates to a per-bin cap ``r * dt``.  Bin centers follow the
midpoint convention ``t_k = (k + 1/2) * dt`` so that symmetric profiles
discretize symmetrically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, MixtureError, NonProbabilityError

PROB_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of [0, t_f] into ``n_t`` midpoint bins."""

    t_f: float
    n_t: int

    def __post_init__(self):
        if not 0 < self.t_f < math.inf:
            raise ValueError(f"t_f must be finite and positive, got {self.t_f}")
        if isinstance(self.n_t, bool) or not isinstance(self.n_t, numbers.Integral):
            raise ValueError(f"n_t must be an integer, got {self.n_t!r}")
        if self.n_t < 2:
            raise ValueError(f"n_t must be at least 2, got {self.n_t}")

    @property
    def dt(self) -> float:
        return self.t_f / self.n_t

    @cached_property
    def centers(self) -> np.ndarray:
        c = (np.arange(self.n_t) + 0.5) * self.dt
        c.flags.writeable = False
        return c

    def bin_of(self, t):
        """Index of the bin containing time ``t``, clipped to the grid; elementwise on an array."""
        k = np.floor(np.asarray(t, dtype=float) / self.dt)
        k = np.clip(k, 0, self.n_t - 1).astype(np.int64)
        return int(k) if k.ndim == 0 else k


@dataclass(frozen=True, eq=False)
class Measure:
    """Nonnegative mass-per-bin vector over a :class:`TimeGrid`."""

    grid: TimeGrid
    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.shape != (self.grid.n_t,):
            raise ValueError(f"mass must have shape ({self.grid.n_t},), got {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("mass entries must be finite and nonnegative")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mass", m)

    @property
    def total(self) -> float:
        return float(self.mass.sum())

    def normalized(self) -> "Measure":
        if not self.total > 0:
            raise NonProbabilityError("cannot normalize a zero measure")
        return Measure(self.grid, self.mass / self.total)


@dataclass(frozen=True, eq=False)
class JointMeasure:
    """Nonnegative mass matrix over pairs of bins of one grid."""

    grid: TimeGrid
    mass: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        n = self.grid.n_t
        if m.shape != (n, n):
            raise ValueError(f"mass must have shape ({n}, {n}), got {m.shape}")
        if not np.all(np.isfinite(m)) or np.any(m < 0):
            raise ValueError("mass entries must be finite and nonnegative")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mass", m)

    @property
    def total(self) -> float:
        return float(self.mass.sum())


def require_same_grid(*objs) -> TimeGrid:
    grid = objs[0].grid
    for o in objs[1:]:
        if o.grid != grid:
            raise GridMismatchError(f"grids differ: {o.grid} vs {grid}")
    return grid


def cdf(m: Measure) -> np.ndarray:
    """Cumulative masses F(t_k) = sum_{j <= k} mass_j."""
    return np.cumsum(m.mass)


def quantile(m: Measure, u):
    """Smallest bin center t_k with F(t_k) >= u (left-continuous inverse).

    ``u`` is one level, giving a float, or an array of levels, giving an
    array of centers.  Requires ``m`` to be a probability measure up to
    ``PROB_TOL``.
    """
    if abs(m.total - 1.0) > PROB_TOL:
        raise NonProbabilityError(f"total mass {m.total!r} deviates from 1 beyond {PROB_TOL}")
    levels = np.asarray(u, dtype=float)
    if not np.all((0.0 < levels) & (levels <= 1.0)):
        raise ValueError(f"u must lie in (0, 1], got {u}")
    k = np.minimum(np.searchsorted(cdf(m), levels, side="left"), m.grid.n_t - 1)
    t = m.grid.centers[k]
    return float(t) if t.ndim == 0 else t


def gaussian_mixture(grid: TimeGrid, components) -> Measure:
    """Probability measure from a Gaussian mixture evaluated at bin centers.

    ``components`` is an iterable of ``(weight, mean, stddev)`` triples.  The
    mixture density is evaluated pointwise at the bin centers and then
    renormalized to total mass one, so the result is deterministic for fixed
    inputs.  A density that overflows (a far grid, a subnormal stddev) raises
    ``MixtureError`` like one that vanishes, without a numpy warning.
    """
    t = grid.centers
    density = np.zeros(grid.n_t)
    n_comp = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for weight, mean, stddev in components:
            if weight < 0:
                raise MixtureError(f"negative mixture weight {weight}")
            if not stddev > 0:
                raise MixtureError(f"stddev must be positive, got {stddev}")
            z = (t - mean) / stddev
            density += weight / (stddev * math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * z * z)
            n_comp += 1
        if n_comp == 0:
            raise MixtureError("mixture needs at least one component")
        s = density.sum()
    if not 0 < s < math.inf:
        raise MixtureError(f"mixture mass on the grid must be finite and positive, got {s}")
    return Measure(grid, density / s)
