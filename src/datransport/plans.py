"""Plan extraction: the heaviest cells of one path's entropic plan.

A path plan is the product of its scalings and edge kernels over one bin
per path node, ``n_t ** n_p`` cells in all; ``extract_plan`` enumerates
them a slab at a time in the messages' arithmetic (``PathSystem.dom``)
and keeps the heaviest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParamError, PlanTooLargeError
from .network import Path
from .sinkhorn_engine import SinkhornState, _integer, _real, check_path_index

# Cells of a path plan that ``extract_plan`` builds at a time.
_PLAN_SLAB = 1 << 16


@dataclass(eq=False)
class PlanCells:
    """Sparse extraction of one path plan: mass descending, bit-equal masses by flat index."""

    path: Path
    indices: np.ndarray  # (N, n_p) bin indices
    times: np.ndarray  # (N, n_p) bin centers
    mass: np.ndarray  # (N,) cell masses, descending
    total_mass: float  # full plan mass (before truncation)

    @property
    def extracted_mass(self) -> float:
        return float(self.mass.sum())

    def coordinate_sum(self, pos: int, n_t: int) -> np.ndarray:
        return np.bincount(self.indices[:, pos], weights=self.mass, minlength=n_t)


def check_plan_options(max_cells, top_k, min_mass) -> None:
    """``extract_plan``'s options, checked; a bad one raises ``BadParamError``.

    ``max_cells`` is an integer >= 1, ``top_k`` an integer >= 0 or None and
    ``min_mass`` a finite real >= 0.
    """
    if _integer("max_cells", max_cells) < 1:
        raise BadParamError(f"max_cells must be positive, got {max_cells}")
    if top_k is not None and _integer("top_k", top_k) < 0:
        raise BadParamError(f"top_k must be nonnegative, got {top_k}")
    if not 0 <= _real("min_mass", min_mass) < np.inf:
        raise BadParamError(f"min_mass must be finite and nonnegative, got {min_mass}")


def extract_plan(state: SinkhornState, path_index: int, max_cells: int = 4_000_000,
                 top_k: int | None = None, min_mass: float = 0.0) -> PlanCells:
    """Enumerate one path plan's cells above ``min_mass``, heaviest first.

    ``max_cells`` bounds the ``n_t ** n_p`` cells visited.  The plan is
    built a slab of departure bins at a time in one buffer of about
    ``_PLAN_SLAB`` cells, so memory is one slab plus the kept cells; with
    ``top_k``, only the ``top_k`` heaviest are kept.  Cells are ranked by
    mass descending, then flat index ascending, also at the ``top_k`` cut.
    The index breaks bit-equal masses only: masses equal in exact arithmetic
    (by a symmetry of the network) may differ in round-off, which then
    ranks them.
    """
    check_plan_options(max_cells, top_k, min_mass)
    system = state.system
    path = system.paths[check_path_index(path_index, len(system.paths))]
    n_t = system.n_t
    n_cells = n_t ** path.n_p
    if n_cells > max_cells:
        raise PlanTooLargeError(f"{n_cells} cells exceed max_cells={max_cells}")
    shape = (n_t,) * path.n_p
    m = path.n_edges
    dom = system.dom

    def view(arr: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        return arr.reshape([n_t if axis in axes else 1 for axis in range(path.n_p)])

    scalings = [system._scaling_at(state, path, pos) for pos in range(m + 1)]
    factors = [view(s, (pos,)) for pos, s in enumerate(scalings) if s is not system._unit]
    factors += [view(dom.kernel(kern), (l, l + 1))
                for l, kern in enumerate(system.path_kernels[path_index])]
    head = system._heads[path_index]
    if head in system.joints:
        factors.append(view(dom.from_log(state.views[head]), (0, m)))

    row = n_cells // n_t
    rows = max(1, _PLAN_SLAB // row)
    buf = np.empty(rows * row)
    total_mass = 0.0
    kept = []  # (flat indices, masses), indices ascending
    # once top_k cells are kept, the k-th mass: a later cell equal to it loses the tie
    floor = min_mass
    for lo in range(0, n_t, rows):
        slab = buf[:min(rows, n_t - lo) * row].reshape((-1,) + shape[1:])
        slab.fill(dom.one)
        for f in factors:
            dom.mul(slab, f[lo:lo + rows] if f.shape[0] == n_t else f, out=slab)
        flat = dom.to_linear(slab, out=slab).ravel()
        total_mass += float(flat.sum())
        local = np.flatnonzero(flat > floor)
        kept.append((local + lo * row, flat[local]))
        if top_k is not None:
            kept = [_heaviest(*map(np.concatenate, zip(*kept)), top_k)]
            if kept[0][1].size == top_k:
                floor = kept[0][1].min(initial=np.inf)
    keep, mass = map(np.concatenate, zip(*kept))
    order = np.lexsort((keep, -mass))
    keep, mass = keep[order], mass[order]
    indices = np.stack(np.unravel_index(keep, shape), axis=1).astype(np.int64)
    times = system.grid.centers[indices]
    return PlanCells(path=path, indices=indices, times=times,
                     mass=mass, total_mass=total_mass)


def _heaviest(keep: np.ndarray, mass: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` heaviest cells, ties to the lower index; ``keep`` ascends and stays in order."""
    if mass.size <= k:
        return keep, mass
    cut = np.partition(mass, mass.size - k)[mass.size - k] if k > 0 else np.inf  # k-th largest
    chosen = mass > cut
    ties = np.flatnonzero(mass == cut)
    chosen[ties[:k - np.count_nonzero(chosen)]] = True
    return keep[chosen], mass[chosen]
