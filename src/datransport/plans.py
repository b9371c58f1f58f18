"""Plan extraction: the heaviest cells of one path's entropic plan.

A path plan is the product of its scalings and edge kernels over one bin
per path node, ``n_t ** n_p`` cells in all.  Only strictly time-ordered
cells can carry mass: an edge kernel is 0 wherever a bin does not follow
the one before it.  ``extract_plan`` enumerates the plan a slab of
departure bins at a time, in the messages' arithmetic (``PathSystem.dom``),
over the later bins that follow the slab's first departure bin only, and
keeps the heaviest.  ``plan_ridge`` reads a plan's strand, each crossing
time's heaviest cell, by a max-product pass without building the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .driver import check_path_index
from .errors import BadParamError, PlanTooLargeError
from .messages import _Log, _lse_matmul
from .network import Path
from .sinkhorn_engine import SinkhornState, _integer, _real

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

    ``max_cells`` bounds the ``n_t ** n_p`` cells of the plan.  The plan
    is built a slab of departure bins at a time in one buffer of about
    ``_PLAN_SLAB`` cells (or one departure bin's, if more), so memory is
    one slab plus the kept cells; with ``top_k``, only the ``top_k``
    heaviest are kept.  A slab from departure bin lo spans only the bins
    after lo on every later axis, and so holds more departure bins the
    later it starts: every cell it leaves out is exactly 0 by the time
    order, so the cells, their masses and their ranks are those of the
    whole plan.  Cells are ranked by mass descending, then flat index
    ascending, also at the ``top_k`` cut.  The index breaks bit-equal
    masses only: masses equal in exact arithmetic (by a symmetry of the
    network) may differ in round-off, which then ranks them.
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
        factors.append(view(system.dense(head, dom.from_log(state.views[head]), dom), (0, m)))

    buf = np.empty(min(n_cells, max(_PLAN_SLAB, (n_t - 1) ** m)))
    total_mass = 0.0
    kept = []  # (flat indices, masses), indices ascending
    # once top_k cells are kept, the k-th mass: a later cell equal to it loses the tie
    floor = min_mass
    lo = 0
    while lo < n_t - 1:  # no cell departs from the last bin
        # departure bins [lo, lo + rows), and the bins after lo on every later axis
        width = n_t - lo - 1
        rows = min(width + 1, max(1, _PLAN_SLAB // width ** m))
        part = (slice(lo, lo + rows),) + (slice(lo + 1, None),) * m
        slab_shape = (rows,) + (width,) * m
        slab = buf[:rows * width ** m].reshape(slab_shape)
        slab.fill(dom.one)
        for f in factors:
            dom.mul(slab, f[tuple(p if n == n_t else slice(None)
                                  for p, n in zip(part, f.shape))], out=slab)
        flat = dom.to_linear(slab, out=slab).ravel()
        total_mass += float(flat.sum())
        hit = np.flatnonzero(flat > floor)
        local = np.unravel_index(hit, slab_shape)
        cells = (local[0] + lo, *(i + lo + 1 for i in local[1:]))
        kept.append((np.ravel_multi_index(cells, shape), flat[hit]))
        if top_k is not None:
            kept = [_heaviest(*map(np.concatenate, zip(*kept)), top_k)]
            if kept[0][1].size == top_k:
                floor = kept[0][1].min(initial=np.inf)
        lo += rows
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


def plan_ridge(state: SinkhornState, path_index: int, floor_frac: float = 0.01) -> np.ndarray:
    """Heaviest cell per crossing-time column (the path's second node): the strand of the plan.

    An entropic plan's top cells always include blur pairs that cross, so
    the strand is read off each column's heaviest cell.  In log units a cell
    sums its interior scalings, its edges' logK and ends[t0, tn] (the pair's
    Lambda, or the source plus the sink scaling), so a backward max-product
    pass (Viterbi) gives each column's maximum without building the plan,
    and argmax reads the cell back, t0 first: of equal cells, the lowest in
    flat order.  Columns without mass, or below ``floor_frac`` of the
    heaviest, are dropped, so a path without mass has an empty ridge.
    """
    system, views = state.system, state.views
    path, head = system.paths[path_index], system._heads[path_index]
    logk = [kern.logK for kern in system.path_kernels[path_index]]
    # best[pos][t0, t]: the heaviest chain from node pos at bin t on, with its scaling and ends[t0]
    best = {path.n_edges: system.dense(head, views[head], _Log) if head in system.joints
            else np.add.outer(views[path.source], views[path.sink])}
    for pos in range(path.n_edges - 1, 0, -1):
        best[pos] = _lse_matmul(best[pos + 1], logk[pos].T, reduce=np.max) + views[path.nodes[pos]]
    first = logk[0] + best[1]  # [t0, t1]
    cells = np.empty((system.n_t, path.n_p), dtype=np.int64)
    cells[:, 0], cells[:, 1] = first.argmax(axis=0), np.arange(system.n_t)
    for pos in range(1, path.n_edges):
        cells[:, pos + 1] = (logk[pos][cells[:, pos]] + best[pos + 1][cells[:, 0]]).argmax(axis=1)
    mass = np.exp(first.max(axis=0))
    return cells[(mass > 0) & (mass >= floor_frac * mass.max())]
