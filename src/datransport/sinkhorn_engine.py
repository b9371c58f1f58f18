"""Path-wise entropic scaling with shared nodal multipliers.

Every source carries one positive scaling vector u, every sink one vector
v, and every interior node one capacity multiplier w in (0, 1] shared by
all paths through it.  In coupled mode the boundary pair (source, sink)
carries a joint matrix Lambda instead of u and v.  A solve's state is one
flat array of log-scalings, the blocks stacked in sweep order (0 neutral,
-inf dead).  Model marginals are assembled from forward/backward chain
messages per path; each block update is the exact projection for its
constraint, computed from an aggregate that excludes the block's own
scaling (so the constraint holds to round-off immediately after the
update).

Each block's target, or its cap for a capacity block, sits at the same
place in one flat vector ``PathSystem.bound``, and a sweep or
``model_marginals`` fills one flat model marginal the same way.  Sources
(or joint pairs) come first, then caps, then sinks, so E0, V and ET are
three slices of model - bound, and the dual's scaling term is one dot of
the state with the bound on its live bins.

Above the messages everything is in log units: aggregates, projections,
violations, the dual and the mixing.  The engine picks the domain of the
messages.  Independent mode always passes its vector messages in the log
domain; coupled mode passes matrix messages in the log domain or the
linear one (plain BLAS products, on the exp of the state's views), as the
underflow rule in :mod:`datransport.kernels` and the neutral-chain floor
``LINEAR_CHAIN_FLOOR`` decide.  Every log-sum-exp is one reduction,
``_lse_reduce``, so the engine needs numpy only.  A vector step is one
BLAS mat-vec per block of a cached kernel with its last input absorbed
(``_AbsorbedStep``); the blocks hold only the kernel's causal support (a
particle arrives strictly after it departs), a little over half of its
n_t**2 entries.  A step pays a full log-sum-exp only when it re-absorbs,
after its input drifted more than ``ABSORB_BAND`` or a bin died or revived.

A solve runs at the one configured epsilon.  Each sweep is one cyclic
(Gauss-Seidel) pass over the blocks in sweep order, each projected from
the backward messages of the sweep's entering state and a forward frontier
extended block by block.  A sweep costs one backward-only message pass
in either mode; only a sweep over a cyclic path family refreshes the
messages before each block.  Past a warm-up, both modes mix the sweeps
(safeguarded Anderson mixing, ``_AndersonMixer``).  The primal transport
cost is computed on demand, never per sweep.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from .errors import BadParamError, NonFiniteError, PlanTooLargeError, UnreachableMassError
from .grid_measures import JointMeasure, Measure
from .kernels import PairKernel, build_pair_kernel, use_log_domain
from .network import Path, TransportNetwork, path_cost_terms, validate_paths

# Target mass on structurally unreachable bins below this threshold is
# dropped (scaling zero); above it, the instance is reported infeasible.
NEGLIGIBLE_MASS = 1e-12

# Coupled matrix messages run in the linear domain only if every pair's
# neutral chain (see ``PathSystem._neutral_chain_underflows``) is at least
# this on the cells that carry target mass: its scalings then keep about
# 100 decades before a chain product leaves the normal range.
LINEAR_CHAIN_FLOOR = 1e-200

INDEPENDENT = "independent"
COUPLED = "coupled"

# Anderson mixing of the Gauss-Seidel fixed point (see ``solve``): plain
# sweeps before the first mixing step, and past iterates kept for mixing.
ANDERSON_WARMUP = 100
ANDERSON_MEMORY = 5

# A cached log-domain message step serves inputs within this many log units
# of its absorption point on every live bin (see ``_AbsorbedStep``).
ABSORB_BAND = 50.0

# Elements of the n_t**3 temporary that ``_lse_matmul`` reduces at a time.
_LSE_MATMUL_BLOCK = 1 << 20

# Cells of a path plan that ``extract_plan`` builds at a time.
_PLAN_SLAB = 1 << 16

# Output bins per block of an absorbed message step: n_t // _ABSORB_ROWS
# blocks of equal size (within one bin), so a grid of fewer than twice this
# many bins is one block (see ``_causal_windows``).
_ABSORB_ROWS = 64


def _real(name: str, value) -> float:
    """``value`` as a float; bools and non-real values raise ``BadParamError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadParamError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _integer(name: str, value) -> int:
    """``value`` as an int (numpy integers pass); bools and non-integers raise ``BadParamError``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise BadParamError(f"{name} must be an integer, got {value!r}")


@dataclass
class SolverConfig:
    epsilon: float = 0.05
    tol: float = 1e-6
    max_iter: int = 5000

    def __post_init__(self):
        self.epsilon = _real("epsilon", self.epsilon)
        if not 0 < self.epsilon < np.inf:
            raise BadParamError(f"epsilon must be finite and positive, got {self.epsilon}")
        self.tol = _real("tol", self.tol)
        if not 0 <= self.tol < np.inf:  # summary.json holds no NaN or inf
            raise BadParamError(f"tol must be finite and nonnegative, got {self.tol}")
        self.max_iter = _integer("max_iter", self.max_iter)
        if self.max_iter < 1:
            raise BadParamError(f"max_iter must be positive, got {self.max_iter}")


@dataclass(eq=False)
class SinkhornState:
    """Log-scalings of one solve, in one flat array ``x``.

    The blocks are stacked in sweep order, each raveled at the slice the
    system's layout (``PathSystem._layout``) gives it; 0 is neutral and
    -inf is dead.  ``u``, ``v``, ``w`` and ``lam`` map each block to a view
    into ``x``, so ``x`` is only ever written in place.
    """

    system: "PathSystem"
    x: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        self._views = {block: self.x[part].reshape(shape)
                       for block, (part, shape) in self.system._layout.items()}

        def views(blocks) -> MappingProxyType:
            return MappingProxyType({b: self._views[b] for b in blocks if b in self._views})

        self.u = views(self.system.mu0)
        self.v = views(self.system.muT)
        self.w = views(self.system.caps)
        self.lam = views(self.system.joints)

    def u_linear(self, node: str) -> np.ndarray:
        return _masked_exp(self.u[node])

    def v_linear(self, node: str) -> np.ndarray:
        return _masked_exp(self.v[node])

    def w_linear(self, node: str) -> np.ndarray:
        return _masked_exp(self.w[node])


class _NoForward:
    """``ChainMessages.fwd`` of a backward-only message pass."""

    def __getitem__(self, p_idx):
        raise BadParamError("backward-only messages carry no forward half; "
                            "use compute_messages(state)")


@dataclass(eq=False)
class ChainMessages:
    """Per-path forward/backward messages.

    Independent mode: ``fwd[p][l]`` sums kernel chains over all prefixes
    ending at node l, including the scalings of nodes 0..l-1; ``bwd[p][l]``
    symmetrically over suffixes with the scalings of nodes l+1 onward.  The
    product fwd*own scaling*bwd summed over the grid is the path's total
    mass, identical at every node of the path.

    Coupled mode: the messages are matrices conditioned on the boundary
    bins, ``fwd[p][l][i, t]`` from departure bin i to node l at bin t and
    ``bwd[p][l][t, j]`` toward arrival bin j.  ``bwd[p][0]`` (equally
    ``fwd[p][-1]``) is the interior chain matrix of the path, departure to
    arrival: all interior multipliers, no Lambda.

    Both modes read path masses and joint aggregates from ``bwd[p][0]``, so
    a sweep and the dual objective need the backward half only.  A
    backward-only pass leaves a placeholder in ``fwd`` that raises on any
    read.
    """

    fwd: list[list[np.ndarray]] | _NoForward
    bwd: list[list[np.ndarray]]


@dataclass(eq=False)
class ModelMarginals:
    """Model marginal of every block, flat in the state's layout; ``m`` and ``joint_m`` view it."""

    model: np.ndarray
    m: dict[str, np.ndarray]
    joint_m: dict[tuple[str, str], np.ndarray]


@dataclass(eq=False)
class ConvergenceReport:
    e0: np.ndarray
    et: np.ndarray
    v: np.ndarray
    objective: np.ndarray  # dual objective trace
    converged: bool
    iterations: int
    tol: float

    @property
    def total(self) -> np.ndarray:
        return self.e0 + self.et + self.v


@dataclass(eq=False)
class PlanCells:
    """Sparse extraction of one path plan: mass descending, ties by flat index ascending."""

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


def _masked_exp(x: np.ndarray) -> np.ndarray:
    """exp(x), skipping -inf entries (exp 0); an overflow is an honest inf, without a warning."""
    out = np.zeros_like(x)
    with np.errstate(over="ignore"):
        return np.exp(x, out=out, where=x != -np.inf)


def _lse_reduce(a: np.ndarray, axis: int) -> np.ndarray:
    """Log-sum-exp along one axis of an array; +inf and NaN propagate, -inf slices stay -inf.

    ``a`` is left holding exp(a - max) per slice, with max = 0 on slices whose
    max is not finite; exp overflows only in +inf slices, and silently.
    """
    amax = np.max(a, axis=axis, keepdims=True)
    amax[~np.isfinite(amax)] = 0.0
    a -= amax
    with np.errstate(divide="ignore", over="ignore"):
        np.exp(a, out=a)
        return np.log(a.sum(axis=axis)) + amax.squeeze(axis)


def _lse_cols(logk: np.ndarray, lv: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """out[t] = LSE_s(logk[s, t] + lv[s]), in ``work`` when given."""
    return _lse_reduce(np.add(logk, lv[:, None], out=work), axis=0)


def _lse_rows(logk: np.ndarray, lv: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """out[s] = LSE_t(logk[s, t] + lv[t]), in ``work`` when given."""
    return _lse_reduce(np.add(logk, lv[None, :], out=work), axis=1)


def _lse_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, j] = LSE_k(a[i, k] + b[k, j]), a block of rows at a time.

    Each block's temporary holds at most about ``_LSE_MATMUL_BLOCK``
    elements; every output element is reduced exactly as in one call.
    """
    rows = max(1, _LSE_MATMUL_BLOCK // (a.shape[1] * b.shape[1]))
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], rows):
        out[i:i + rows] = _lse_reduce(a[i:i + rows, :, None] + b[None, :, :], axis=1)
    return out


def _causal_windows(logk: np.ndarray, axis: int) -> list[tuple[slice, slice]]:
    """(output, input) ranges of the blocks of an absorbed step along ``axis``.

    The output axis is cut into ``n_t // _ABSORB_ROWS`` equal blocks; each
    takes the span of the kernel's finite entries on its outputs as its
    input range, and a block with none (outputs -inf whatever the input) is
    left out.  A single block keeps the whole kernel.
    """
    n = logk.shape[1 - axis]
    k = max(1, n // _ABSORB_ROWS)
    if k == 1:
        return [(slice(0, n), slice(0, logk.shape[axis]))]
    reach = np.isfinite(logk.T if axis == 0 else logk)  # reach[output, input]
    bounds = [n * j // k for j in range(k + 1)]
    windows = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        inputs = np.flatnonzero(reach[lo:hi].any(axis=0))
        if inputs.size:
            windows.append((slice(lo, hi), slice(inputs[0], inputs[-1] + 1)))
    return windows


class _AbsorbedStep:
    """One log-domain message step across one edge, in one direction.

    ``axis`` 0 is the forward step, out[t] = LSE_s(logK[s, t] + x[s]); axis
    1 the backward one, out[s] = LSE_t(logK[s, t] + x[t]).  The input x is
    a message plus a scaling, in log units.

    The step keeps the kernel in blocks along its output axis, each holding
    only the input range its outputs can reach (``windows``, from
    ``_causal_windows``), in ``logK``'s orientation.  Since the kernel is
    -inf on and below its diagonal, the blocks hold a little over half of
    its n_t**2 entries.

    Absorbing x as r runs the plain log-sum-exp of each block in place in
    that block's own buffer and returns the outputs unchanged.  It then
    scales every reduced slice to sum 1 and keeps the outputs as the
    offsets ``c`` (-inf on all--inf slices, which stay -inf).  A later
    input with exactly r's dead (-inf) bins and within ``ABSORB_BAND`` of r
    on the live ones is served by one exp and one mat-vec per block, c +
    log(block.T @ exp(x - r)) (``block @`` backward) on the block's slice
    of the outputs.  Each live slice then sums to between exp(-band) and
    exp(band), so the entries that underflowed in a block weigh nothing
    against it and the step matches the log-sum-exp to round-off
    (Schmitzer, SIAM J. Sci. Comput. 2019).  Any other input re-absorbs.
    A bin that dies must re-absorb too: the slices it dominated may keep
    nothing but underflowed entries.
    """

    def __init__(self, logk: np.ndarray, axis: int, windows: list[tuple[slice, slice]]):
        self.logk = logk
        self.axis = axis
        self.windows = windows
        self.blocks: list[np.ndarray] | None = None
        self.y: np.ndarray | None = None
        self.r: np.ndarray | None = None  # absorbed input, 0 on dead bins; None re-absorbs
        self.dead: np.ndarray | None = None
        self.c: np.ndarray | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        dead = x == -np.inf
        if self.r is not None and (dead == self.dead).all():
            d = x - self.r  # -inf on dead bins; NaN fails both tests
            if d.max() <= ABSORB_BAND and np.where(dead, 0.0, d).min() >= -ABSORB_BAND:
                np.exp(d, out=d)
                for (out, inp), block in zip(self.windows, self.blocks):
                    np.matmul(block.T if self.axis == 0 else block, d[inp], out=self.y[out])
                with np.errstate(divide="ignore"):
                    return self.c + np.log(self.y)
        return self._absorb(x, dead)

    def _absorb(self, x: np.ndarray, dead: np.ndarray) -> np.ndarray:
        if self.blocks is None:
            self.blocks = [np.empty(self._kernel_block(out, inp).shape)
                           for out, inp in self.windows]
            # the mat-vecs' output; outputs of no block stay 0, so -inf
            self.y = np.zeros(self.logk.shape[1 - self.axis])
        c = np.full(self.logk.shape[1 - self.axis], -np.inf)
        lse = _lse_cols if self.axis == 0 else _lse_rows
        for (out, inp), block in zip(self.windows, self.blocks):
            c[out] = lse(self._kernel_block(out, inp), x[inp], block)
            total = block.sum(axis=self.axis)
            scale = np.where(total > 0, total, 1.0)  # all--inf slices stay 0
            block /= scale[None, :] if self.axis == 0 else scale[:, None]
            # subnormal entries weigh nothing against a slice of sum 1, but
            # slow the mat-vec down many times over
            block[block < np.finfo(float).tiny] = 0.0
        self.c = c
        r = np.where(dead, 0.0, x)
        # a NaN or +inf input is never served from the cache
        self.r = r if np.all(np.isfinite(r)) else None
        self.dead = dead
        return c

    def _kernel_block(self, out: slice, inp: slice) -> np.ndarray:
        """The part of ``logK`` a block covers, in ``logK``'s orientation."""
        return self.logk[inp, out] if self.axis == 0 else self.logk[out, inp]


def _forward_step(kern: PairKernel, f: np.ndarray, s: np.ndarray, log_domain: bool,
                  absorbed: _AbsorbedStep) -> np.ndarray:
    """Forward message across one edge from message ``f`` and scaling ``s`` at its tail.

    ``absorbed`` is the edge's forward step; it serves the (log-domain) vector case,
    and is None in coupled mode.
    """
    if f.ndim == 1:
        return absorbed(f + s)
    # coupled: one row per departure bin
    return _lse_matmul(f + s[None, :], kern.logK) if log_domain else (f * s[None, :]) @ kern.K


def _backward_step(kern: PairKernel, b: np.ndarray, s: np.ndarray, log_domain: bool,
                   absorbed: _AbsorbedStep) -> np.ndarray:
    """Backward message across one edge from message ``b`` and scaling ``s`` at its head.

    ``absorbed`` is the edge's backward step; it serves the (log-domain) vector case,
    and is None in coupled mode.
    """
    if b.ndim == 1:
        return absorbed(b + s)
    # coupled: one column per arrival bin
    return _lse_matmul(kern.logK + s[None, :], b) if log_domain else (kern.K * s[None, :]) @ b


class _Forward:
    """Forward messages per path, built on demand from the scalings current at each read.

    ``frontier(p_idx, pos)`` extends path ``p_idx``'s list up to ``pos`` and
    returns its entry there; entries built earlier are returned as they are.
    A Gauss-Seidel sweep in a path-compatible order reads each path forward
    only, so every read sees the scalings updated earlier in the sweep.
    """

    def __init__(self, system: "PathSystem", state: SinkhornState):
        self.system = system
        self.state = state
        if system.mode == COUPLED:
            # the source scaling is neutral: the first step is the kernel itself
            self.fwd = [[system._start, system._kernel(kernels[0], system.log_domain)]
                        for kernels in system.path_kernels]
        else:
            self.fwd = [[system._start] for _ in system.paths]

    def __call__(self, p_idx: int, pos: int) -> np.ndarray:
        f = self.fwd[p_idx]
        path = self.system.paths[p_idx]
        kernels = self.system.path_kernels[p_idx]
        steps = self.system._steps[p_idx]
        while len(f) <= pos:
            l = len(f) - 1
            s = self.system._scaling_at(self.state, path, l)
            f.append(_forward_step(kernels[l], f[l], s, self.system.log_domain, steps[l][0]))
        return f[pos]


class PathSystem:
    """Compiled problem: grid, paths, kernels, targets, caps, incidence, state layout."""

    def __init__(self, net: TransportNetwork, paths, mode: str = INDEPENDENT,
                 config: SolverConfig | None = None,
                 joints: dict[tuple[str, str], JointMeasure] | None = None):
        config = config or SolverConfig()
        if mode not in (INDEPENDENT, COUPLED):
            raise BadParamError(f"mode must be {INDEPENDENT!r} or {COUPLED!r}")
        self.net = net
        self.grid = net.grid
        self.n_t = net.grid.n_t
        self.mode = mode
        self.config = config
        self.paths: list[Path] = list(paths)
        if not self.paths:
            raise BadParamError("need at least one path")
        self.incidence = validate_paths(net, self.paths)

        used_sources = {p.source for p in self.paths}
        used_sinks = {p.sink for p in self.paths}
        missing = (set(net.sources) - used_sources) | (set(net.sinks) - used_sinks)
        if missing:
            raise BadParamError(f"boundary nodes without any path: {sorted(missing)}")

        self.source_order = [s for s in net.sources if s in used_sources]
        self.sink_order = [s for s in net.sinks if s in used_sinks]
        self.interior_order, self._order_follows_paths = self._interior_topo_order()

        # node -> [(path index, position)]
        self.positions: dict[str, list[tuple[int, int]]] = {}
        for p_idx, p in enumerate(self.paths):
            for pos, node in enumerate(p.nodes):
                self.positions.setdefault(node, []).append((p_idx, pos))

        self.path_weights = [path_cost_terms(net, p) for p in self.paths]

        self.mu0 = {s: net.sources[s].mass for s in self.source_order}
        self.muT = {s: net.sinks[s].mass for s in self.sink_order}
        self.caps = {v: net.capacity_for(v) for v in self.interior_order}

        self.pairs: list[tuple[str, str]] = []
        self.joints: dict[tuple[str, str], np.ndarray] = {}
        if mode == COUPLED:
            joints = joints or {}
            for p in self.paths:
                pair = (p.source, p.sink)
                if pair not in self.joints:
                    if pair not in joints:
                        raise BadParamError(f"coupled mode needs a joint target for pair {pair}")
                    jm = joints[pair]
                    if jm.grid != self.grid:
                        raise BadParamError(f"joint target for {pair} lives on a different grid")
                    self.joints[pair] = jm.mass
                    self.pairs.append(pair)
        elif joints:
            raise BadParamError("joint targets are only meaningful in coupled mode")
        self.pair_paths = {pair: [i for i, p in enumerate(self.paths)
                                  if (p.source, p.sink) == pair]
                           for pair in self.pairs}
        # the state's layout, in sweep order: each block's slice of the flat
        # log-scalings and its shape.  Sources (or pairs), caps and sinks are
        # contiguous, so E0, V and ET are three slices of any flat marginal
        first = self.joints if mode == COUPLED else self.mu0
        bounds = {**first, **self.caps, **({} if mode == COUPLED else self.muT)}
        self._layout: dict = {}
        size = 0
        for block, bound in bounds.items():
            self._layout[block] = (slice(size, size + bound.size), bound.shape)
            size += bound.size
        self._size = size
        n_first = sum(bound.size for bound in first.values())
        self._caps_part = slice(n_first, n_first + self.n_t * len(self.caps))
        # each block's target (or cap) and its log, flat in the layout
        self.bound = np.concatenate([bound.ravel() for bound in bounds.values()])
        with np.errstate(divide="ignore"):
            self.log_bound = np.log(self.bound)
        # the bins of the dual's <log scaling, bound> term.  Sub-threshold
        # target mass on dead bins is dropped by the updates, so the dual
        # leaves it out as well; uncapped and zero-cap bins add nothing.
        self._dual_bins = self.bound > NEGLIGIBLE_MASS
        caps = self.bound[self._caps_part]
        self._dual_bins[self._caps_part] = np.isfinite(caps) & (caps > 0)
        self._dual_bound = self.bound[self._dual_bins]

        self.epsilon = config.epsilon
        self._cost_mats: dict[float, np.ndarray] = {}  # built by transport_cost
        self._kernel_cache: dict[float, PairKernel] = {}
        for weights in self.path_weights:
            for w in weights:
                key = float(w)
                if key not in self._kernel_cache:
                    self._kernel_cache[key] = build_pair_kernel(self.grid, key, self.epsilon)
        self.path_kernels = [[self._kernel_cache[float(w)] for w in weights]
                             for weights in self.path_weights]

        # the domain of the messages; the state is in log units either way
        w_max = max(float(w.max()) for w in self.path_weights)
        self.log_domain = (mode == INDEPENDENT
                           or use_log_domain(config.epsilon, w_max, self.grid.t_f)
                           or self._neutral_chain_underflows())
        # neutral scaling vector and neutral message (the identity on the
        # boundary bins in coupled mode) of the message domain, shared by
        # every path and state, so read-only
        self._unit = np.zeros(self.n_t) if self.log_domain else np.ones(self.n_t)
        if mode == INDEPENDENT:
            self._start = self._unit
        elif self.log_domain:
            self._start = np.full((self.n_t, self.n_t), -np.inf)
            np.fill_diagonal(self._start, 0.0)
        else:
            self._start = np.eye(self.n_t)
        self._unit.flags.writeable = False
        self._start.flags.writeable = False
        # vector message steps per path and edge: (forward, backward); the
        # block windows are taken once per kernel, and coupled mode, whose
        # messages are matrices, builds no steps
        if mode == INDEPENDENT:
            windows = {w: [_causal_windows(k.logK, axis) for axis in (0, 1)]
                       for w, k in self._kernel_cache.items()}
            self._steps = [[tuple(_AbsorbedStep(k.logK, axis, windows[k.w][axis])
                                  for axis in (0, 1)) for k in kernels]
                           for kernels in self.path_kernels]
        else:
            self._steps = [[(None, None)] * len(kernels) for kernels in self.path_kernels]

    def _neutral_chain_underflows(self) -> bool:
        """Whether a pair's neutral chain is below ``LINEAR_CHAIN_FLOOR`` on a target cell.

        The neutral chain of a pair is the sum over its paths of the linear
        kernel products K_0 K_1 ... (every w = 1), the largest chain a
        linear solve can reach.  Where it underflows, the linear domain
        would call reachable target mass unreachable.
        """
        linear = {w: np.exp(kern.logK) for w, kern in self._kernel_cache.items()}
        for pair, p_ids in self.pair_paths.items():
            chain = sum(reduce(np.matmul, [linear[float(w)] for w in self.path_weights[p]])
                        for p in p_ids)
            if np.any(chain[self.joints[pair] > NEGLIGIBLE_MASS] < LINEAR_CHAIN_FLOOR):
                return True
        return False

    def _interior_topo_order(self) -> tuple[list[str], bool]:
        """Interior sweep order: topological in path precedence, first-appearance ties.

        When the precedence relation induced by the paths is acyclic (it is
        for any DAG-like path family), the returned order visits each path's
        interior nodes in path order, which allows the single-pass exact
        sweep.  A cyclic relation falls back to plain first-appearance order,
        and Gauss-Seidel then refreshes the messages before every block.
        """
        first_seen: dict[str, int] = {}
        succ: dict[str, set[str]] = {}
        indeg: dict[str, int] = {}
        for p in self.paths:
            for node in p.interior:
                if node not in first_seen:
                    first_seen[node] = len(first_seen)
                    succ[node] = set()
                    indeg[node] = 0
        for p in self.paths:
            inner = list(p.interior)
            for a, b in zip(inner[:-1], inner[1:]):
                if b not in succ[a]:
                    succ[a].add(b)
                    indeg[b] += 1
        order: list[str] = []
        ready = sorted((n for n, d in indeg.items() if d == 0), key=first_seen.get)
        while ready:
            node = ready.pop(0)
            order.append(node)
            for nxt in succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    ready.append(nxt)
            ready.sort(key=first_seen.get)
        if len(order) == len(first_seen):
            return order, True
        return sorted(first_seen, key=first_seen.get), False

    # ------------------------------------------------------------------
    # costs

    def _cost_mat(self, w: float) -> np.ndarray:
        """Transit cost w / (t - s) of one edge weight on the grid, 0 where t <= s."""
        if w not in self._cost_mats:
            t = self.grid.centers
            gap = t[None, :] - t[:, None]
            ok = gap > 0
            cost_mat = np.zeros_like(gap)
            cost_mat[ok] = w / gap[ok]
            self._cost_mats[w] = cost_mat
        return self._cost_mats[w]

    # ------------------------------------------------------------------
    # state

    def initial_state(self) -> SinkhornState:
        return SinkhornState(self, np.zeros(self._size))

    def _message_scaling(self, logs: np.ndarray) -> np.ndarray:
        """A log-scaling as the messages read it: itself in the log domain, else its exp."""
        return logs if self.log_domain else _masked_exp(logs)

    def _scaling_at(self, state: SinkhornState, path: Path, pos: int) -> np.ndarray:
        """Message-domain scaling vector of the node at ``pos`` (neutral at coupled boundaries)."""
        if self.mode == COUPLED and pos in (0, path.n_p - 1):
            return self._unit
        return self._message_scaling(state._views[path.nodes[pos]])

    # ------------------------------------------------------------------
    # messages

    def compute_messages(self, state: SinkhornState, backward_only: bool = False) -> ChainMessages:
        """Chain messages of ``state``; ``backward_only`` skips the forward half."""
        log = self.log_domain
        bwd = []
        for p_idx, path in enumerate(self.paths):
            kernels = self.path_kernels[p_idx]
            b = [self._start] * path.n_p
            last = path.n_edges - 1
            if self.mode == COUPLED:
                # the sink scaling is neutral: the last step is the kernel itself
                b[last] = self._kernel(kernels[last], log)
                last -= 1
            for l in range(last, -1, -1):
                s = self._scaling_at(state, path, l + 1)
                b[l] = _backward_step(kernels[l], b[l + 1], s, log, self._steps[p_idx][l][1])
            bwd.append(b)
        if backward_only:
            return ChainMessages(fwd=_NoForward(), bwd=bwd)
        frontier = _Forward(self, state)
        for p_idx, path in enumerate(self.paths):
            frontier(p_idx, path.n_edges)
        return ChainMessages(fwd=frontier.fwd, bwd=bwd)

    @staticmethod
    def _kernel(kern: PairKernel, log_domain: bool) -> np.ndarray:
        """The edge's kernel matrix in the message domain."""
        return kern.logK if log_domain else kern.K

    # ------------------------------------------------------------------
    # aggregates and marginals

    def _path_term(self, state: SinkhornState, p_idx: int, f: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
        """Message-domain contribution of one path to a node aggregate, from its messages there."""
        if self.mode == INDEPENDENT:
            return f + b
        lam = state.lam[(self.paths[p_idx].source, self.paths[p_idx].sink)]
        if self.log_domain:
            # g[i, t] = LSE_j(lam[i, j] + b[t, j]); out[t] = LSE_i(f[i, t] + g[i, t])
            return _lse_reduce(f + _lse_matmul(lam, b.T), axis=0)
        return (f * (_masked_exp(lam) @ b.T)).sum(axis=0)

    def _aggregate(self, state: SinkhornState, block, messages: ChainMessages,
                   frontier: _Forward | None = None) -> np.ndarray:
        """Log aggregate of one block, excluding the block's own scaling.

        A joint block sums the interior chain matrices ``bwd[p][0]`` of its
        paths, which leave Lambda out.  A node block sums its paths' terms
        from the backward messages and the forward ones, read from
        ``frontier`` when given, else from ``messages``.  Linear messages
        are summed, then take one log.
        """
        if block in self.joints:
            terms = [messages.bwd[p][0] for p in self.pair_paths[block]]
        else:
            fwd = frontier or (lambda p, pos: messages.fwd[p][pos])
            terms = [self._path_term(state, p, fwd(p, pos), messages.bwd[p][pos])
                     for p, pos in self.positions[block]]
        if not self.log_domain:
            acc = sum(terms[1:], terms[0])
            return np.log(acc, out=np.full_like(acc, -np.inf), where=acc != 0)
        acc = np.full_like(terms[0], -np.inf)
        for term in terms:
            acc = np.logaddexp(acc, term)
        return acc

    def model_marginals(self, state: SinkhornState, messages=None) -> ModelMarginals:
        if messages is None:
            messages = self.compute_messages(state)
        model = np.empty(self._size)
        with np.errstate(over="ignore"):
            for block, (part, _) in self._layout.items():
                agg = self._aggregate(state, block, messages).ravel()
                model[part] = _masked_exp(state.x[part] + agg)
        views = {block: model[part].reshape(shape) for block, (part, shape) in self._layout.items()}
        return ModelMarginals(model=model,
                              m={b: m for b, m in views.items() if b not in self.joints},
                              joint_m={b: m for b, m in views.items() if b in self.joints})

    def violations(self, mm: ModelMarginals) -> tuple[float, float, float]:
        """L1 source error E0, sink error ET, capacity excess V."""
        return self._violations(mm.model)

    def _violations(self, model: np.ndarray) -> tuple[float, float, float]:
        """(E0, ET, V) of a flat model marginal, from three slices of model - bound."""
        gap = model - self.bound
        caps = self._caps_part
        return (float(np.abs(gap[:caps.start]).sum()), float(np.abs(gap[caps.stop:]).sum()),
                float(np.maximum(gap[caps], 0.0).sum()))

    # ------------------------------------------------------------------
    # block updates

    @staticmethod
    def _target_over_aggregate(target: np.ndarray, log_target: np.ndarray, agg: np.ndarray,
                               label: str) -> np.ndarray:
        """Exact equality projection, log target minus log aggregate, with 0/0 = 0.

        Material target mass on zero-aggregate bins means the ordering
        structure cannot place it there at all: hard infeasibility.
        """
        dead = np.isneginf(agg)
        if np.any(dead & (target > NEGLIGIBLE_MASS)):
            raise UnreachableMassError(f"target mass at {label} sits on bins with zero aggregate flux")
        return np.subtract(log_target, agg, out=np.full_like(agg, -np.inf), where=~dead)

    @staticmethod
    def _cap_over_aggregate(log_cap: np.ndarray, agg: np.ndarray) -> np.ndarray:
        """Clipped capacity projection min(log cap - log aggregate, 0); slack bins get 0."""
        return np.where(np.isneginf(agg), 0.0, np.minimum(log_cap - agg, 0.0))

    def _project(self, state: SinkhornState, block,
                 agg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact projection of one block from its log aggregate, flat in the block's slice.

        Returns the block's new log-scaling and its model marginal before
        the update.
        """
        part = self._layout[block][0]
        agg = agg.ravel()
        model = _masked_exp(state.x[part] + agg)
        if block in self.caps:
            return self._cap_over_aggregate(self.log_bound[part], agg), model
        label = f"pair {block}" if block in self.joints else block
        return self._target_over_aggregate(self.bound[part], self.log_bound[part],
                                           agg, label), model

    def _update_block(self, state: SinkhornState, block, messages) -> np.ndarray:
        """Project one block from full messages of ``state``; returns its new linear scaling."""
        if messages is None:
            messages = self.compute_messages(state)
        state.x[self._layout[block][0]], _ = self._project(
            state, block, self._aggregate(state, block, messages))
        return _masked_exp(state._views[block])

    def boundary_update(self, state: SinkhornState, node: str, messages=None) -> np.ndarray:
        """Match the node's marginal target exactly; returns the new linear scaling."""
        if self.mode == COUPLED:
            raise BadParamError("coupled mode updates the joint via coupled_boundary_update")
        if node not in self.mu0 and node not in self.muT:
            raise BadParamError(f"{node} is not a boundary node")
        return self._update_block(state, node, messages)

    def capacity_update(self, state: SinkhornState, node: str, messages=None) -> np.ndarray:
        """Clip the node's marginal to its cap; returns the new linear scaling."""
        if node not in self.caps:
            raise BadParamError(f"{node} is not an interior node")
        return self._update_block(state, node, messages)

    def coupled_boundary_update(self, state: SinkhornState, pair: tuple[str, str],
                                messages=None) -> np.ndarray:
        """Match the joint boundary law exactly; returns the new linear Lambda."""
        if self.mode != COUPLED:
            raise BadParamError("coupled_boundary_update requires coupled mode")
        return self._update_block(state, pair, messages)

    # ------------------------------------------------------------------
    # sweeps

    def sweep(self, state: SinkhornState, messages=None) -> tuple[float, float, float]:
        """One pass over the blocks: sources (or joint pairs), interior nodes, sinks.

        Returns the iteration diagnostics (E0, ET, V): each constraint's L1
        violation measured from the model marginal seen just before its own
        block update.  Every block is projected from the backward messages
        of the entering state and a forward frontier: the backward messages
        at a block depend only on nodes that come later in the sweep, and
        joint blocks, which come first, read the interior chains
        ``bwd[p][0]`` (they leave Lambda out).  Each new scaling is assigned
        at once (Gauss-Seidel), so every block update is the exact
        projection (block coordinate ascent); over a cyclic path family the
        messages are refreshed before every block.  A ``messages`` argument
        is trusted to describe the entering state and may be backward-only.
        """
        refresh = not self._order_follows_paths
        model = np.empty(self._size)
        for i, (block, (part, _)) in enumerate(self._layout.items()):
            if i == 0 or refresh:
                if messages is None or i:
                    messages = self.compute_messages(state, backward_only=True)
                frontier = _Forward(self, state)
            state.x[part], model[part] = self._project(
                state, block, self._aggregate(state, block, messages, frontier))
        return self._violations(model)

    # ------------------------------------------------------------------
    # diagnostics

    def path_masses(self, state: SinkhornState, messages=None) -> np.ndarray:
        """Total model mass per path, read at the source end from the backward messages."""
        if messages is None:
            messages = self.compute_messages(state, backward_only=True)
        out = np.empty(len(self.paths))
        scalings = {}  # paths of one source (or pair) share its scaling
        for p_idx, path in enumerate(self.paths):
            chain = messages.bwd[p_idx][0]
            block = (path.source, path.sink) if self.mode == COUPLED else path.source
            if block not in scalings:
                scalings[block] = self._message_scaling(state._views[block])
            scaling = scalings[block]
            if self.log_domain:
                out[p_idx] = np.exp(_lse_reduce((chain + scaling).ravel(), axis=0))
            else:
                out[p_idx] = float((chain * scaling).sum())
        return out

    def _edge_pair_marginal(self, state: SinkhornState, messages, p_idx: int,
                            l: int) -> np.ndarray:
        """Linear (t_{l-1}, t_l) marginal of path ``p_idx``'s plan."""
        path = self.paths[p_idx]
        s_prev = self._scaling_at(state, path, l - 1)
        s_next = self._scaling_at(state, path, l)
        kern = self.path_kernels[p_idx][l - 1]
        f = messages.fwd[p_idx][l - 1]
        b = messages.bwd[p_idx][l]
        if self.mode == COUPLED:
            lam = self._message_scaling(state.lam[(path.source, path.sink)])
            if self.log_domain:
                left = _lse_matmul(f.T, _lse_matmul(lam, b.T))  # left[s, t]
                return np.exp(left + s_prev[:, None] + kern.logK + s_next[None, :])
            g = lam @ b.T
            left = f.T @ g  # left[s, t]
            return left * s_prev[:, None] * kern.K * s_next[None, :]
        with np.errstate(over="ignore"):
            return np.exp((f + s_prev)[:, None] + kern.logK + (s_next + b)[None, :])

    def transport_cost(self, state: SinkhornState, messages=None) -> float:
        """<c, pi> summed over paths (forbidden transitions carry no mass)."""
        if messages is None:
            messages = self.compute_messages(state)
        total = 0.0
        for p_idx, path in enumerate(self.paths):
            for l in range(1, path.n_p):
                pm = self._edge_pair_marginal(state, messages, p_idx, l)
                cost_mat = self._cost_mat(float(self.path_weights[p_idx][l - 1]))
                total += float((pm * cost_mat).sum())
        return total

    def dual_objective(self, state: SinkhornState, messages=None) -> float:
        """Entropic dual value; each block update maximizes it exactly."""
        mass = float(self.path_masses(state, messages).sum())
        return self.epsilon * (self._dual_scaling_terms(state) - mass)

    def _swept_dual_objective(self, state: SinkhornState) -> float:
        """Dual value right after an independent-mode sweep, without messages.

        The sink blocks come last, so every path then carries exactly the
        target mass of its sink on the bins the sink scaling keeps alive.
        """
        sinks = self._caps_part.stop
        mass = float(self.bound[sinks:][state.x[sinks:] > -np.inf].sum())
        return self.epsilon * (self._dual_scaling_terms(state) - mass)

    def _dual_scaling_terms(self, state: SinkhornState) -> float:
        """<log scaling, bound> over the dual's bins: -inf if one of them is dead."""
        return float(state.x[self._dual_bins] @ self._dual_bound)


class _AndersonMixer:
    """Safeguarded Anderson mixing of the Gauss-Seidel sweep, in either mode.

    Type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011)
    of the fixed point x = G(x), where x is the state's flat array of
    log-scalings and G is one plain sweep.  The mixed point combines the
    last few G(x) with weights that minimise the combined residual
    G(x) - x in the target-weighted norm sum(target * r**2), the diagonal
    of the dual's curvature in the log-scalings.  Capacity multipliers are
    clipped back to w <= 1.  A mixed point replaces the plain one only if
    it is finite and its dual value is at least the plain point's;
    otherwise the plain point stands and the history restarts.  A mixed
    point equal to the plain one bit for bit is not evaluated as a trial.
    Dead bins (log-scaling -inf, such as a Lambda cell of zero target) take
    no part in the mixing and stay dead.
    """

    def __init__(self, system: PathSystem):
        self.system = system
        self._sqrt_mass = np.sqrt(np.where(np.isfinite(system.bound), system.bound, 0.0))
        self.reset()

    def reset(self) -> None:
        self._f: list[np.ndarray] = []  # residuals G(x) - x on live bins
        self._g: list[np.ndarray] = []  # plain points G(x) on live bins
        self._live: np.ndarray | None = None

    def step(self, state: SinkhornState, x_prev: np.ndarray):
        """Mix after the plain sweep that took the log-scalings ``x_prev`` to ``state``.

        Returns backward-only messages and the dual value of the point
        ``state`` holds on return, when the step computed them, else None:
        those of the mixed point when it replaces the plain one, and in
        coupled mode those of the plain point when it stands.
        """
        system = self.system
        g = state.x
        live = np.isfinite(g) & np.isfinite(x_prev)
        if self._live is None or not np.array_equal(live, self._live):
            self.reset()
            self._live = live
        g_live = g[live]
        self._f.append(g_live - x_prev[live])
        self._g.append(g_live)
        if len(self._f) > ANDERSON_MEMORY + 1:
            del self._f[0], self._g[0]
        if len(self._f) < 2:
            return None
        weight = self._sqrt_mass[live][:, None]
        d_f = np.diff(np.stack(self._f, axis=1), axis=1)
        d_g = np.diff(np.stack(self._g, axis=1), axis=1)
        gamma = np.linalg.lstsq(weight * d_f, weight[:, 0] * self._f[-1], rcond=None)[0]
        mixed = g.copy()
        mixed[live] = g_live - d_g @ gamma
        caps = system._caps_part
        np.minimum(mixed[caps], 0.0, out=mixed[caps])
        if not np.all(np.isfinite(mixed[live])):
            self.reset()
            return None
        if system.mode == INDEPENDENT:
            plain, plain_point = system._swept_dual_objective(state), None
        else:
            # a coupled sweep ends on the cap blocks, so the plain point's
            # dual needs its own message pass, which serves the next sweep
            # if the plain point stands
            plain_messages = system.compute_messages(state, backward_only=True)
            plain = system.dual_objective(state, plain_messages)
            plain_point = plain_messages, plain
        if np.array_equal(mixed, g):  # nothing was mixed: no trial to evaluate
            return plain_point
        with np.errstate(over="ignore", invalid="ignore"):
            trial = SinkhornState(system, mixed)
            messages = system.compute_messages(trial, backward_only=True)
            value = system.dual_objective(trial, messages)
        if not value >= plain:
            self.reset()
            return plain_point
        state.x[...] = mixed
        return messages, value


# ----------------------------------------------------------------------
# module-level operations


def check_path_index(path_index, n_paths: int) -> int:
    """``path_index`` as an int in [0, n_paths); anything else raises ``BadParamError``."""
    index = _integer("path_index", path_index)
    if not 0 <= index < n_paths:
        raise BadParamError(f"path_index must be in [0, {n_paths}), got {path_index}")
    return index


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


def flux_profile(state: SinkhornState, path_index: int, node: str, messages=None) -> np.ndarray:
    """Linear partial contraction at ``node`` for one path, excluding its own scaling."""
    system = state.system
    path = system.paths[check_path_index(path_index, len(system.paths))]
    if node not in path.nodes:
        raise BadParamError(f"{node} not on path {path}")
    pos = path.nodes.index(node)
    if messages is None:
        messages = system.compute_messages(state)
    if system.mode == COUPLED and pos in (0, path.n_p - 1):
        raise BadParamError("boundary flux is a joint matrix in coupled mode")
    term = system._path_term(state, path_index, messages.fwd[path_index][pos],
                             messages.bwd[path_index][pos])
    return np.exp(term) if system.log_domain else term


def aggregate_marginals(state: SinkhornState, messages=None) -> ModelMarginals:
    return state.system.model_marginals(state, messages)


def boundary_update(state: SinkhornState, node: str) -> np.ndarray:
    return state.system.boundary_update(state, node)


def capacity_update(state: SinkhornState, node: str) -> np.ndarray:
    return state.system.capacity_update(state, node)


def coupled_boundary_update(state: SinkhornState, pair: tuple[str, str]) -> np.ndarray:
    return state.system.coupled_boundary_update(state, pair)


def solve(net: TransportNetwork, paths, mode: str = INDEPENDENT,
          config: SolverConfig | None = None,
          joints: dict[tuple[str, str], JointMeasure] | None = None
          ) -> tuple[SinkhornState, ConvergenceReport]:
    """Run Gauss-Seidel sweeps at ``config.epsilon`` until E0 + ET + V <= tol or the budget ends.

    Each iteration computes the messages of its entering state and the dual
    objective from them, unless the previous Anderson step already did,
    runs one exact sweep on them, tests the stopping rule and, past the
    warm-up, takes an Anderson step.  Its E0/ET/V row records every
    constraint's violation as seen just before that constraint's own block
    update, so all three diagnostics stay informative.  The returned state is the output of the final sweep.  A
    non-finite E0+ET+V row raises ``NonFiniteError``.

    Both modes are Anderson-accelerated once ``ANDERSON_WARMUP`` plain
    sweeps have run.  Contract:

    - a solve of at most ``ANDERSON_WARMUP`` sweeps is exactly the plain
      iteration, so equal-sweep comparisons with a dense oracle hold there
      and only there; past the warm-up the iterates differ from the plain
      ones;
    - after the warm-up, the state entering an iteration may be a mixed
      point (see ``_AndersonMixer``).  It is kept only if it is finite and
      its dual value is at least that of the plain sweep output it
      replaces, so the dual trace stays nondecreasing; the iteration's
      E0/ET/V row then measures the violations of the sweep started from
      the mixed point;
    - no mixing follows the final sweep.
    """
    config = config or SolverConfig()
    system = PathSystem(net, paths, mode=mode, config=config, joints=joints)
    state = system.initial_state()
    mixer = _AndersonMixer(system)
    e0s: list[float] = []
    ets: list[float] = []
    vs: list[float] = []
    objs: list[float] = []
    converged = False
    next_point = None
    for _ in range(config.max_iter):
        # the previous iteration's messages stay referenced until replaced:
        # freeing them first lets the allocator hand the pages back and
        # fault them in again on every iteration
        if next_point is None:
            messages = system.compute_messages(state, backward_only=True)
            next_point = messages, system.dual_objective(state, messages)
        (messages, value), next_point = next_point, None
        objs.append(value)
        mixing = state.iteration >= ANDERSON_WARMUP
        x_prev = state.x.copy() if mixing else None
        e0, et, v = system.sweep(state, messages)
        state.iteration += 1
        e0s.append(e0)
        ets.append(et)
        vs.append(v)
        if not np.isfinite(e0 + et + v):
            raise NonFiniteError(f"E0+ET+V is not finite at sweep {state.iteration}")
        if e0 + et + v <= config.tol:
            converged = True
            break
        if mixing and state.iteration < config.max_iter:
            next_point = mixer.step(state, x_prev)
    report = ConvergenceReport(
        e0=np.array(e0s), et=np.array(ets), v=np.array(vs),
        objective=np.array(objs), converged=converged, iterations=len(e0s), tol=config.tol)
    return state, report


def extract_plan(state: SinkhornState, path_index: int, max_cells: int = 4_000_000,
                 top_k: int | None = None, min_mass: float = 0.0) -> PlanCells:
    """Enumerate one path plan's cells above ``min_mass``, heaviest first.

    ``max_cells`` bounds the ``n_t ** n_p`` cells visited.  The plan is
    built a slab of departure bins at a time in one buffer of about
    ``_PLAN_SLAB`` cells, so memory is one slab plus the kept cells; with
    ``top_k``, only the ``top_k`` heaviest are kept.  Cells are ranked by
    mass descending, then flat index ascending, also at the ``top_k`` cut.
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
    kernels = system.path_kernels[path_index]
    log = system.log_domain
    combine = np.add if log else np.multiply

    def view(arr: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        return arr.reshape([n_t if axis in axes else 1 for axis in range(path.n_p)])

    factors = [view(system._scaling_at(state, path, pos), (pos,)) for pos in range(m + 1)]
    factors += [view(system._kernel(kernels[l], log), (l, l + 1)) for l in range(m)]
    if system.mode == COUPLED:
        factors.append(view(system._message_scaling(state.lam[(path.source, path.sink)]),
                            (0, m)))

    row = n_cells // n_t
    rows = max(1, _PLAN_SLAB // row)
    buf = np.empty(rows * row)
    total_mass = 0.0
    kept = []  # (flat indices, masses), indices ascending
    for lo in range(0, n_t, rows):
        slab = buf[:min(rows, n_t - lo) * row].reshape((-1,) + shape[1:])
        slab.fill(0.0 if log else 1.0)
        for f in factors:
            combine(slab, f[lo:lo + rows] if f.shape[0] == n_t else f, out=slab)
        if log:
            np.exp(slab, out=slab)
        flat = slab.ravel()
        total_mass += float(flat.sum())
        local = np.flatnonzero(flat > min_mass)
        kept.append((local + lo * row, flat[local]))
        if top_k is not None:
            kept = [_heaviest(*map(np.concatenate, zip(*kept)), top_k)]
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


def node_marginals(state: SinkhornState) -> dict[str, np.ndarray]:
    """Convenience: current model marginal per node (linear)."""
    mm = aggregate_marginals(state)
    out = dict(mm.m)
    if state.system.mode == COUPLED:
        for pair, mat in mm.joint_m.items():
            src, snk = pair
            out.setdefault(src, np.zeros(state.system.n_t))
            out.setdefault(snk, np.zeros(state.system.n_t))
            out[src] = out[src] + mat.sum(axis=1)
            out[snk] = out[snk] + mat.sum(axis=0)
    return out
