"""Cost-structure checks and a rearrangement coupling that the tests read.

The package runs none of this; it backs the tests of the paper's claims on
the reciprocal-gap cost.  ``path_cost`` is the additive cost of one route,
``check_generalized_monge`` samples the sign of its cross-differences,
``check_xtwist`` checks the twist (gradient-injectivity) condition of the
two-segment cost, ``monotone_rearrangement`` is the northwest-corner
coupling, and ``measure_to_csv`` / ``measure_from_csv`` round-trip a
measure through text.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from datransport.errors import BadParamError, MassMismatchError, TransportError
from datransport.grid_measures import JointMeasure, Measure, TimeGrid, require_same_grid


class NonIncreasingTimesError(TransportError):
    pass


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


def monotone_rearrangement(src: Measure, dst: Measure) -> JointMeasure:
    """CDF-matching coupling of two equal-mass measures (northwest corner).

    The support is co-monotone: any two support points (a, b), (a', b')
    satisfy (a' - a) * (b' - b) >= 0, and the marginals are exact.
    """
    grid = require_same_grid(src, dst)
    if abs(src.total - dst.total) > 1e-12 * max(1.0, src.total):
        raise MassMismatchError(f"totals differ: {src.total!r} vs {dst.total!r}")
    a = src.mass.copy()
    b = dst.mass.copy()
    plan = np.zeros((grid.n_t, grid.n_t))
    i = j = 0
    n = grid.n_t
    while i < n and j < n:
        move = min(a[i], b[j])
        if move > 0:
            plan[i, j] += move
        a[i] -= move
        b[j] -= move
        if a[i] <= 0 and i < n:
            i += 1
        elif b[j] <= 0:
            j += 1
    return JointMeasure(grid, plan)


def measure_to_csv(m: Measure) -> str:
    """Serialize as ``bin_center,mass`` rows with a header line."""
    buf = io.StringIO()
    buf.write("bin_center,mass\n")
    for t, x in zip(m.grid.centers, m.mass):
        buf.write(f"{float(t)!r},{float(x)!r}\n")
    return buf.getvalue()


def measure_from_csv(text: str) -> Measure:
    """Rebuild a measure from :func:`measure_to_csv` output.

    The grid is inferred from the bin centers, which must be equally spaced
    midpoints starting at ``dt / 2``.
    """
    lines = [ln for ln in text.strip().splitlines() if ln]
    if not lines or not lines[0].startswith("bin_center"):
        raise ValueError("missing bin_center,mass header")
    centers, mass = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        centers.append(float(parts[0]))
        mass.append(float(parts[1]))
    centers_arr = np.asarray(centers)
    n_t = len(centers_arr)
    if n_t < 2:
        raise ValueError("need at least two bins")
    dt = 2.0 * centers_arr[0]  # first center sits at dt/2, and doubling is exact
    if not dt > 0:
        raise ValueError("bin centers are not midpoints of a positive grid")
    expected = (np.arange(n_t) + 0.5) * dt
    if not np.allclose(centers_arr, expected, rtol=1e-9, atol=0.0):
        raise ValueError("bin centers are not equally spaced midpoints")
    grid = TimeGrid(t_f=float(dt * n_t), n_t=n_t)
    return Measure(grid, np.asarray(mass))
