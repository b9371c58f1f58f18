"""Path-wise entropic scaling with shared nodal multipliers.

Every source carries one positive scaling vector u, every sink one vector
v, and every interior node one capacity multiplier w in (0, 1] shared by
all paths through it.  In coupled mode the boundary pair (source, sink)
carries a joint matrix Lambda instead of u and v.  A solve's state is one
flat array of log-scalings, the blocks stacked in sweep order (0 neutral,
-inf dead).  Model marginals are assembled per path from backward chain
messages and forward ones built on demand; each block update is the exact
projection for its constraint, computed from an aggregate that excludes
the block's own scaling (so the constraint holds to round-off immediately
after the update).

Each block's target, or its cap for a capacity block, sits at the same
place in one flat vector ``PathSystem.bound``, and a sweep or
``aggregate_marginals`` fills one flat model marginal the same way.
Sources (or joint pairs) come first, then caps, then sinks, so E0, V and
ET are three slices of model - bound (``PathSystem.violations``), and the
dual's scaling term is one dot of the state with the bound on its live
bins.

Above the messages everything is in log units: aggregates, projections,
violations, the dual and the mixing.  The engine picks the messages'
arithmetic once, as ``PathSystem.dom``, and every reader of the messages
is written in it: ``_Log`` (a product adds, a sum is a log-sum-exp) in
independent mode; in coupled mode ``_Linear`` (plain and BLAS products,
on the exp of the state's views) unless a pair's neutral chain falls
below ``LINEAR_CHAIN_FLOOR`` on a target cell
(``PathSystem._neutral_chain_underflows``), and then ``_Log``.  Every
log-sum-exp is one reduction, ``_lse_reduce``, so the engine needs numpy
only.  Every path-edge has one step object per direction, shared with
every path through the same prefix (forward) or suffix (backward): a
message pass calls each distinct step once and hands its output to every
path that shares it, so no reader writes into a message.  A vector step
is one BLAS mat-vec per block of a cached kernel with its last input
absorbed (``_AbsorbedStep``), which reads its kernel as [output, input]
(``logK.T`` forward, ``logK`` backward); the blocks hold only the
kernel's causal support (a particle arrives strictly after it departs), a
little over half of its n_t**2 entries.  A step pays a full log-sum-exp
only when it re-absorbs, after its input drifted more than
``ABSORB_BAND`` or a bin died or revived.  A matrix step is one BLAS or
``_lse_matmul`` product (``_MatrixStep``).

A solve runs at the one configured epsilon.  Each sweep is one cyclic
(Gauss-Seidel) pass over the blocks in sweep order, each projected from
the backward messages of the sweep's entering state
(``PathSystem.compute_messages``) and a forward frontier (``_Forward``)
extended block by block.  A sweep costs one message pass in either mode;
only a sweep over a cyclic path family refreshes the messages before each
block.  Past a warm-up, both modes mix the sweeps
(safeguarded Anderson mixing, ``_AndersonMixer``).  The primal transport
cost is computed on demand, never per sweep.

Each operation is written once.  A public block update checks its block
and projects it through ``PathSystem._update_block``.  Only ``sweep``,
``dual_objective`` and ``path_masses`` take ``messages``, so that
``solve`` and the mixer share one pass; every other reader runs its own.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from .errors import BadParamError, NonFiniteError, PlanTooLargeError, UnreachableMassError
from .grid_measures import JointMeasure
from .kernels import PairKernel, build_pair_kernel
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
# Tests compare solve() with the dense oracle at up to 30 equal sweeps, inside the warm-up.
ANDERSON_WARMUP = 30
ANDERSON_MEMORY = 8

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
    -inf is dead.  ``views``, read-only and in sweep order, maps each block
    to its view into ``x``, so ``x`` is only ever written in place.
    """

    system: "PathSystem"
    x: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        self.views = MappingProxyType({block: self.x[part].reshape(shape)
                                       for block, (part, shape) in self.system._layout.items()})


@dataclass(eq=False)
class ModelMarginals:
    """Model marginal of every block, flat in the state's layout, and of every path node.

    ``joint_m`` and ``m`` view ``model``, but a coupled source or sink has no
    block: ``m`` adds its pairs' joint row or column sums, in ``joints`` order.
    """

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


def _lse_rows(logk: np.ndarray, lv: np.ndarray, work: np.ndarray | None = None) -> np.ndarray:
    """out[s] = LSE_t(logk[s, t] + lv[t]), in ``work`` when given."""
    return _lse_reduce(np.add(logk, lv[None, :], out=work), axis=1)


def _lse_matmul(a: np.ndarray, b: np.ndarray, reduce=_lse_reduce) -> np.ndarray:
    """out[i, j] = LSE_k(a[i, k] + b[k, j]), a block of rows at a time.

    Each block's temporary holds at most about ``_LSE_MATMUL_BLOCK``
    elements; every output element is reduced exactly as in one call.
    ``reduce=np.max`` makes it the max-plus product.
    """
    rows = max(1, _LSE_MATMUL_BLOCK // (a.shape[1] * b.shape[1]))
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], rows):
        out[i:i + rows] = reduce(a[i:i + rows, :, None] + b[None, :, :], axis=1)
    return out


def _exp_live(logs: np.ndarray) -> np.ndarray:
    """exp of an array, taken on its entries above -inf only (numpy's exp is slow on -inf).

    NaN and overflow propagate.
    """
    out, live = np.zeros(logs.shape), np.flatnonzero(logs != -np.inf)
    with np.errstate(over="ignore"):
        out.ravel()[live] = np.exp(logs.ravel()[live])
    return out


class _Log:
    """Message arithmetic in log units: a product adds, a sum is a log-sum-exp."""

    one = 0.0
    mul, add, matmul, to_linear = np.add, np.logaddexp, staticmethod(_lse_matmul), np.exp
    kernel = operator.attrgetter("logK")
    from_log = to_log = staticmethod(np.asarray)  # returns the array itself

    @staticmethod
    def sum(a: np.ndarray, axis: int | None = None) -> np.ndarray:
        """Log-sum-exp along ``axis`` (all entries when None); overwrites ``a``, never a message."""
        return _lse_reduce(a.ravel(), 0) if axis is None else _lse_reduce(a, axis)


class _Linear:
    """Message arithmetic on linear values: plain products and sums, BLAS matrix products."""

    one = 1.0
    mul, add, matmul, sum = np.multiply, np.add, np.matmul, staticmethod(np.sum)
    kernel = operator.attrgetter("K")
    from_log = staticmethod(_exp_live)

    @staticmethod
    def to_log(a: np.ndarray) -> np.ndarray:
        return np.log(a, out=np.full_like(a, -np.inf), where=a != 0)

    @staticmethod
    def to_linear(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return a  # ``out``, when given, is ``a``


def _causal_windows(kernel: np.ndarray) -> list[tuple[slice, slice]]:
    """(output, input) ranges of the blocks of an absorbed step's ``kernel[output, input]``.

    The outputs are cut into ``n_t // _ABSORB_ROWS`` equal blocks; each
    takes the span of the kernel's finite entries on its outputs as its
    input range, and a block with none (outputs -inf whatever the input) is
    left out.  A single block keeps the whole kernel.
    """
    n = kernel.shape[0]
    k = max(1, n // _ABSORB_ROWS)
    if k == 1:
        return [(slice(0, n), slice(0, kernel.shape[1]))]
    reach = np.isfinite(kernel)
    bounds = [n * j // k for j in range(k + 1)]
    windows = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        inputs = np.flatnonzero(reach[lo:hi].any(axis=0))
        if inputs.size:
            windows.append((slice(lo, hi), slice(inputs[0], inputs[-1] + 1)))
    return windows


class _AbsorbedStep:
    """One log-domain vector message step across one edge, in one direction.

    ``kernel[o, i]`` is the log kernel from input bin i to output bin o, and
    the step is out[o] = LSE_i(kernel[o, i] + x[i]): the forward step takes
    the view ``logK.T``, the backward one ``logK``.  The input x is a
    message plus a scaling, in log units, summed by the call.

    The step keeps the kernel in blocks of output rows, each holding only
    the input range its outputs can reach (``windows``, from
    ``_causal_windows``).  Each block's buffer is laid out in memory like
    its part of ``logK``, so the forward and backward steps of an edge run
    the same reductions and BLAS calls on the same memory order.  Since the
    kernel is -inf on and below its diagonal, the blocks hold a little over
    half of its n_t**2 entries.

    Absorbing x as r runs the plain log-sum-exp of each block in place in
    that block's own buffer and returns the outputs unchanged.  It then
    scales every row to sum 1 and keeps the outputs as the offsets ``c``
    (-inf on all--inf rows, which stay -inf).  A later input with exactly
    r's dead (-inf) bins and within ``ABSORB_BAND`` of r on the live ones
    is served by one exp and one mat-vec per block, c + log(block @
    exp(x - r)) on the block's slice of the outputs.  Each live row then
    sums to between exp(-band) and exp(band), so the entries that
    underflowed in a block weigh nothing against it and the step matches
    the log-sum-exp to round-off (Schmitzer, SIAM J. Sci. Comput. 2019).
    Any other input re-absorbs.  A bin that dies must re-absorb too: the
    rows it dominated may keep nothing but underflowed entries.
    """

    def __init__(self, kernel: np.ndarray, windows: list[tuple[slice, slice]]):
        self.kernel = kernel
        self.windows = windows
        self.blocks: list[np.ndarray] | None = None
        self.r: np.ndarray | None = None  # absorbed input, 0 on dead bins; None re-absorbs

    def __call__(self, message: np.ndarray, scaling: np.ndarray) -> np.ndarray:
        x = message + scaling
        if self.r is not None:
            # x - r lies within [lo, hi] on every bin only if x is dead
            # exactly where r is and within the band of it elsewhere; a bin
            # that died or revived, NaN and +inf all fail
            d = x - self.r
            if (d <= self.hi).all() and (d >= self.lo).all():
                np.exp(d, out=d)
                for (out, inp), block in zip(self.windows, self.blocks):
                    np.matmul(block, d[inp], out=self.y[out])
                # y > 0 exactly on the live outputs; the others keep 0, and c
                # is -inf there
                np.log(self.y, out=self.y, where=self.live)
                return self.c + self.y
        return self._absorb(x)

    def _absorb(self, x: np.ndarray) -> np.ndarray:
        n_out = self.kernel.shape[0]
        if self.blocks is None:
            self.blocks = [np.empty_like(self.kernel[out, inp]) for out, inp in self.windows]
            # the mat-vecs' output; outputs of no block stay 0, so -inf
            self.y = np.zeros(n_out)
        c = np.full(n_out, -np.inf)
        for (out, inp), block in zip(self.windows, self.blocks):
            c[out] = _lse_rows(self.kernel[out, inp], x[inp], block)
            total = block.sum(axis=1)
            scale = np.where(total > 0, total, 1.0)  # all--inf rows stay 0
            block /= scale[:, None]
            # subnormal entries weigh nothing against a row of sum 1, but
            # slow the mat-vec down many times over
            block[block < np.finfo(float).tiny] = 0.0
        self.c = c
        self.live = c != -np.inf
        dead = x == -np.inf
        r = np.where(dead, 0.0, x)
        # a NaN or +inf input is never served from the cache
        self.r = r if np.all(np.isfinite(r)) else None
        self.hi = np.where(dead, -np.inf, ABSORB_BAND)
        self.lo = np.where(dead, -np.inf, -ABSORB_BAND)
        return c


class _MatrixStep:
    """One coupled matrix message step across one edge, in one direction.

    ``kernel`` is K in the arithmetic ``dom`` (``_Log`` or ``_Linear``).
    ``axis`` 0 is the forward step, one row per departure bin, (f * s) @ K;
    axis 1 the backward one, one column per arrival bin, (K * s) @ b.  The
    identity message with the neutral scaling, the system's ``_start`` and
    ``_unit``, steps to the kernel itself.
    """

    def __init__(self, kernel: np.ndarray, axis: int, dom, start: np.ndarray, unit: np.ndarray):
        self.kernel = kernel
        self.axis = axis
        self.dom = dom
        self.start, self.unit = start, unit

    def __call__(self, message: np.ndarray, scaling: np.ndarray) -> np.ndarray:
        if message is self.start and scaling is self.unit:
            return self.kernel
        if self.axis == 0:
            return self.dom.matmul(self.dom.mul(message, scaling[None, :]), self.kernel)
        return self.dom.matmul(self.dom.mul(self.kernel, scaling[None, :]), message)


class _Forward:
    """Forward messages per path, built on demand from the scalings current at each read.

    ``frontier(p_idx, pos)`` extends path ``p_idx``'s list up to ``pos`` and
    returns its entry there; entries built earlier are returned as they are.
    Independent mode: the entry at node l sums kernel chains over all
    prefixes ending at l, with the scalings of nodes 0..l-1.  Coupled mode:
    it is a matrix, [i, t] from departure bin i to node l at bin t.  A
    Gauss-Seidel sweep in a path-compatible order reads each path forward
    only, so every read sees the scalings updated earlier in the sweep.
    """

    def __init__(self, system: "PathSystem", state: SinkhornState):
        self.system = system
        self.state = state
        self.fwd = [[system._start] for _ in system.paths]
        self.done: dict = {}  # each shared step's output, computed once

    def __call__(self, p_idx: int, pos: int) -> np.ndarray:
        f = self.fwd[p_idx]
        path = self.system.paths[p_idx]
        steps = self.system._steps[p_idx]
        while len(f) <= pos:
            l = len(f) - 1
            step = steps[l][0]
            if step not in self.done:
                self.done[step] = step(f[l], self.system._scaling_at(self.state, path, l))
            f.append(self.done[step])
        return f[pos]


class PathSystem:
    """Compiled problem: grid, paths, kernels, block bounds and the state layout.

    ``mu0``, ``muT``, ``caps`` and ``joints`` hold each block's target or cap in
    sweep order; in coupled mode the pairs replace sources and sinks as blocks.
    """

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
        self.paths: list[Path] = list(paths)
        if not self.paths:
            raise BadParamError("need at least one path")
        validate_paths(net, self.paths)

        missing = ((set(net.sources) - {p.source for p in self.paths})
                   | (set(net.sinks) - {p.sink for p in self.paths}))
        if missing:
            raise BadParamError(f"boundary nodes without any path: {sorted(missing)}")
        interior, self._order_follows_paths = self._interior_topo_order()

        # node -> [(path index, position)]
        self.positions: dict[str, list[tuple[int, int]]] = {}
        for p_idx, p in enumerate(self.paths):
            for pos, node in enumerate(p.nodes):
                self.positions.setdefault(node, []).append((p_idx, pos))

        self.mu0 = {s: m.mass for s, m in net.sources.items()}
        self.muT = {s: m.mass for s, m in net.sinks.items()}
        self.caps = {v: net.capacity_for(v) for v in interior}
        self.joints: dict[tuple[str, str], np.ndarray] = {}
        if mode == COUPLED:
            joints = joints or {}
            for pair in dict.fromkeys((p.source, p.sink) for p in self.paths):  # path order
                if pair not in joints:
                    raise BadParamError(f"coupled mode needs a joint target for pair {pair}")
                if joints[pair].grid != self.grid:
                    raise BadParamError(f"joint target for {pair} lives on a different grid")
                self.joints[pair] = joints[pair].mass
        elif joints:
            raise BadParamError("joint targets are only meaningful in coupled mode")
        self.pair_paths = {pair: [i for i, p in enumerate(self.paths)
                                  if (p.source, p.sink) == pair]
                           for pair in self.joints}
        # the block that scales each path's source end: its pair in coupled mode, else its source
        self._heads = [(p.source, p.sink) if (p.source, p.sink) in self.joints else p.source
                       for p in self.paths]
        # the state's layout, in sweep order: each block's slice of the flat
        # log-scalings and its shape.  Sources (or pairs), caps and sinks are
        # contiguous, so E0, V and ET are three slices of any flat marginal
        first, last = (self.joints, {}) if mode == COUPLED else (self.mu0, self.muT)
        bounds = {**first, **self.caps, **last}
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
        path_weights = [[float(w) for w in path_cost_terms(net, p)] for p in self.paths]
        self._kernel_cache: dict[float, PairKernel] = {  # one kernel per distinct weight
            w: build_pair_kernel(self.grid, w, self.epsilon)
            for w in dict.fromkeys(w for weights in path_weights for w in weights)}
        self.path_kernels = [[self._kernel_cache[w] for w in weights] for weights in path_weights]

        # the messages' domain and arithmetic; the state is in log units either way
        self.log_domain = mode == INDEPENDENT or self._neutral_chain_underflows()
        self.dom = dom = _Log if self.log_domain else _Linear
        # the (forward, backward) steps per path and edge, one object per axis and
        # distinct prefix or suffix: a forward step's output depends only on the
        # nodes up to the edge's head, a backward one's on those from its tail
        keys = [[((0, p.nodes[:l + 2]), (1, p.nodes[l:])) for l in range(p.n_edges)]
                for p in self.paths]
        step_kernels = {key: k for p_keys, p_kernels in zip(keys, self.path_kernels)
                        for pair, k in zip(p_keys, p_kernels) for key in pair}
        # neutral scaling vector and neutral message (the identity on the boundary
        # bins in coupled mode), shared by every path and state, so read-only.
        # Vector steps read the kernel as [output, input] and take their block
        # windows once per kernel and direction
        self._unit = np.full(self.n_t, dom.one)
        if mode == INDEPENDENT:
            self._start = self._unit
            sides = {w: [(kern, _causal_windows(kern)) for kern in (k.logK.T, k.logK)]
                     for w, k in self._kernel_cache.items()}
            steps = {key: _AbsorbedStep(*sides[k.w][key[0]]) for key, k in step_kernels.items()}
        else:
            start = np.full((self.n_t, self.n_t), -np.inf)
            np.fill_diagonal(start, 0.0)
            self._start = dom.from_log(start)
            steps = {key: _MatrixStep(dom.kernel(k), key[0], dom, self._start, self._unit)
                     for key, k in step_kernels.items()}
        self._steps = [[tuple(steps[key] for key in pair) for pair in p_keys] for p_keys in keys]
        self._unit.flags.writeable = False
        self._start.flags.writeable = False

    def _neutral_chain_underflows(self) -> bool:
        """Whether a pair's neutral chain is below ``LINEAR_CHAIN_FLOOR`` on a target cell.

        The neutral chain of a pair is the sum over its paths of the linear
        kernel products K_0 K_1 ... (every w = 1), the largest chain a
        linear solve can reach.  Where it underflows, the linear domain
        would call reachable target mass unreachable.
        """
        for pair, p_ids in self.pair_paths.items():
            chain = sum(reduce(np.matmul, [kern.K for kern in self.path_kernels[p]])
                        for p in p_ids)
            if np.any(chain[self.joints[pair] > NEGLIGIBLE_MASS] < LINEAR_CHAIN_FLOOR):
                return True
        return False

    def _interior_topo_order(self) -> tuple[list[str], bool]:
        """Interior sweep order: topological in path precedence, first-appearance ties.

        Each step places the first node, in first-appearance order, whose
        predecessors on the paths are all placed.  For an acyclic precedence
        relation (any DAG-like path family) this visits each path's interior
        in path order, which allows the single-pass exact sweep.  A cyclic
        one falls back to first-appearance order, and Gauss-Seidel then
        refreshes the messages before every block.
        """
        preds: dict[str, set[str]] = {}  # first-appearance order
        for p in self.paths:
            for k, node in enumerate(p.interior):
                preds.setdefault(node, set()).update(p.interior[k - 1:k])
        order: list[str] = []
        while len(order) < len(preds):
            done = set(order)
            node = next((n for n in preds if n not in done and preds[n] <= done), None)
            if node is None:
                return list(preds), False
            order.append(node)
        return order, True

    # ------------------------------------------------------------------
    # state

    def initial_state(self) -> SinkhornState:
        return SinkhornState(self, np.zeros(self._size))

    def _head_scalings(self, state: SinkhornState) -> dict:
        """Message-domain scaling of each head block (``_heads``); one exp per block when linear."""
        return {head: self.dom.from_log(state.views[head]) for head in set(self._heads)}

    def _scaling_at(self, state: SinkhornState, path: Path, pos: int) -> np.ndarray:
        """Message-domain scaling of the node at ``pos``; neutral on a node without a block."""
        node = path.nodes[pos]
        return self.dom.from_log(state.views[node]) if node in self._layout else self._unit

    # ------------------------------------------------------------------
    # messages

    def compute_messages(self, state: SinkhornState) -> list[list[np.ndarray]]:
        """Backward chain messages of ``state``, ``bwd[p][l]`` per path and node.

        Independent mode: ``bwd[p][l]`` sums kernel chains over the suffixes
        from node l, with the scalings of nodes l+1 onward; times the
        forward message (``_Forward``) and l's own scaling, it sums to the
        path's mass at every node.  Coupled mode: ``bwd[p][l][t, j]`` runs
        from node l at bin t to arrival bin j, and ``bwd[p][0]`` is the
        interior chain matrix, departure to arrival, with no Lambda.  Path
        masses and joint aggregates read ``bwd[p][0]``, so a sweep and the
        dual need no forward message.
        """
        bwd, done = [], {}  # each shared step's output, computed once
        for p_idx, path in enumerate(self.paths):
            b = [self._start] * path.n_p
            for l in range(path.n_edges - 1, -1, -1):
                step = self._steps[p_idx][l][1]
                if step not in done:
                    done[step] = step(b[l + 1], self._scaling_at(state, path, l + 1))
                b[l] = done[step]
            bwd.append(b)
        return bwd

    # ------------------------------------------------------------------
    # aggregates and marginals

    def _path_term(self, heads: dict, p_idx: int, f: np.ndarray, b: np.ndarray) -> np.ndarray:
        """One path's message-domain term of a node aggregate; ``heads`` is ``_head_scalings``."""
        dom = self.dom
        if self.mode == INDEPENDENT:
            return dom.mul(f, b)
        # out[t] = sum_i f[i, t] * g[i, t], g[i, t] = sum_j lam[i, j] * b[t, j]
        return dom.sum(dom.mul(f, dom.matmul(heads[self._heads[p_idx]], b.T)), axis=0)

    def _aggregate(self, heads: dict, block, messages: list[list[np.ndarray]],
                   frontier: _Forward) -> np.ndarray:
        """Log aggregate of one block, excluding the block's own scaling.

        A joint block sums the interior chain matrices ``messages[p][0]`` of
        its paths, which leave Lambda out.  A node block sums its paths'
        terms from the backward ``messages``, the ``frontier`` and the head
        scalings ``heads``.  The terms are summed in the message domain,
        then taken to log units.
        """
        if block in self.joints:
            terms = [messages[p][0] for p in self.pair_paths[block]]
        else:
            terms = [self._path_term(heads, p, frontier(p, pos), messages[p][pos])
                     for p, pos in self.positions[block]]
        return self.dom.to_log(reduce(self.dom.add, terms))

    def violations(self, model: np.ndarray) -> tuple[float, float, float]:
        """L1 source error E0, sink error ET, capacity excess V: slices of flat model - bound.

        In coupled mode the joint blocks stand first and no sink has a block,
        so the whole joint L1 error is E0 and ET is always 0.
        """
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
        """Clipped capacity projection min(log cap - log aggregate, 0); slack bins get 0.

        The difference is taken on live bins only, so a zero cap's -inf
        meets no -inf aggregate.
        """
        live = ~np.isneginf(agg)
        return np.minimum(np.subtract(log_cap, agg, out=np.zeros_like(agg), where=live), 0.0)

    def _model(self, state: SinkhornState, block, agg: np.ndarray) -> np.ndarray:
        """Model marginal of one block from its log aggregate."""
        return _exp_live(state.x[self._layout[block][0]] + agg.ravel())

    def _project(self, state: SinkhornState, block,
                 agg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact projection of one block from its log aggregate, flat in the block's slice.

        Returns the block's new log-scaling and its model marginal before
        the update.
        """
        part = self._layout[block][0]
        agg = agg.ravel()
        model = self._model(state, block, agg)
        if block in self.caps:
            return self._cap_over_aggregate(self.log_bound[part], agg), model
        label = f"pair {block}" if block in self.joints else block
        return self._target_over_aggregate(self.bound[part], self.log_bound[part],
                                           agg, label), model

    def _update_block(self, state: SinkhornState, block) -> np.ndarray:
        """Project one block from one message pass of ``state``; returns its new linear scaling."""
        agg = self._aggregate(self._head_scalings(state), block, self.compute_messages(state),
                              _Forward(self, state))
        state.x[self._layout[block][0]], _ = self._project(state, block, agg)
        return _exp_live(state.views[block])

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
        is trusted to describe the entering state.
        """
        refresh = not self._order_follows_paths
        model = np.empty(self._size)
        heads = None  # joint blocks read no Lambda
        for i, (block, (part, _)) in enumerate(self._layout.items()):
            if i == 0 or refresh:
                if messages is None or i:
                    messages = self.compute_messages(state)
                frontier = _Forward(self, state)
            if i == len(self.joints):  # node blocks share one exp of each new Lambda
                heads = self._head_scalings(state)
            state.x[part], model[part] = self._project(
                state, block, self._aggregate(heads, block, messages, frontier))
        return self.violations(model)

    # ------------------------------------------------------------------
    # diagnostics

    def path_masses(self, state: SinkhornState, messages=None) -> np.ndarray:
        """Total model mass per path, read at the source end from the backward messages."""
        if messages is None:
            messages = self.compute_messages(state)
        dom, heads = self.dom, self._head_scalings(state)
        return np.array([dom.to_linear(dom.sum(dom.mul(messages[p_idx][0], heads[head])))
                         for p_idx, head in enumerate(self._heads)])

    def _edge_pair_marginal(self, state: SinkhornState, p_idx: int, l: int,
                            f: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Linear (t_{l-1}, t_l) marginal of path ``p_idx``'s plan.

        ``f`` is the path's forward message at node l-1, ``b`` its backward
        message at node l.
        """
        path, dom = self.paths[p_idx], self.dom
        s_prev = self._scaling_at(state, path, l - 1)
        s_next = self._scaling_at(state, path, l)
        kernel = self._steps[p_idx][l - 1][1].kernel
        if self.mode == COUPLED:
            lam = dom.from_log(state.views[self._heads[p_idx]])
            left = dom.matmul(f.T, dom.matmul(lam, b.T))  # left[s, t]
            factors = [left, s_prev[:, None], kernel, s_next[None, :]]
        else:
            factors = [dom.mul(f, s_prev)[:, None], kernel, dom.mul(s_next, b)[None, :]]
        with np.errstate(over="ignore"):
            return dom.to_linear(reduce(dom.mul, factors))

    def transport_cost(self, state: SinkhornState) -> float:
        """<c, pi> summed over paths (forbidden transitions carry no mass)."""
        messages = self.compute_messages(state)
        frontier = _Forward(self, state)
        total = 0.0
        for p_idx, path in enumerate(self.paths):
            for l in range(1, path.n_p):
                pm = self._edge_pair_marginal(state, p_idx, l, frontier(p_idx, l - 1),
                                              messages[p_idx][l])
                total += float((pm * self.path_kernels[p_idx][l - 1].cost).sum())
        return total

    def dual_objective(self, state: SinkhornState, messages=None) -> float:
        """Entropic dual value (-inf if a dual bin is dead); each block update maximizes it."""
        mass = float(self.path_masses(state, messages).sum())
        return self.epsilon * (float(state.x[self._dual_bins] @ self._dual_bound) - mass)


class _AndersonMixer:
    """Safeguarded Anderson mixing of the Gauss-Seidel sweep, in either mode.

    Type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011)
    of the fixed point x = G(x), where x is the state's flat array of
    log-scalings and G is one plain sweep.  The mixed point combines the
    last few G(x) with weights that minimise the combined residual
    G(x) - x in the target-weighted norm sum(target * r**2), the diagonal
    of the dual's curvature in the log-scalings: m x m normal equations
    (m <= ``ANDERSON_MEMORY``) whose Gram matrix of weighted residual
    differences gains one row of dot products a step.  Capacity multipliers
    are clipped back to w <= 1.  A mixed point replaces the plain one only
    if it is finite and its dual value is at least that of the point the
    sweep started from, already traced; otherwise the plain point stands
    and the history restarts.  So a step costs one message pass, the
    trial's, and none when the mixed point is the plain one bit for bit.
    Dead bins (log-scaling -inf, such as a Lambda cell of zero target) take
    no part in the mixing and stay dead.
    """

    def __init__(self, system: PathSystem):
        self.system = system
        self._sqrt_mass = np.sqrt(np.where(np.isfinite(system.bound), system.bound, 0.0))
        # dot products of the ``_df``, in the leading len(_df) x len(_df) block
        self._gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.reset()

    def reset(self) -> None:
        self._live: np.ndarray | None = None
        self._last = None  # weighted residual G(x) - x and plain point G(x) on live bins
        self._df, self._dg = [], []  # differences of successive weighted residuals, plain points

    def step(self, state: SinkhornState, x_prev: np.ndarray, value: float):
        """Mix after the plain sweep that took the log-scalings ``x_prev`` to ``state``.

        ``value`` is the dual value of ``x_prev``.  Returns the messages
        and the dual value of the mixed point when it replaces the
        plain one, else None.
        """
        system = self.system
        g = state.x
        live = np.isfinite(g) & np.isfinite(x_prev)
        if not np.array_equal(live, self._live):
            self.reset()
            self._live, self._index = live, np.flatnonzero(live)
            self._weight = self._sqrt_mass[self._index]
        g_live = g[self._index]
        f = self._weight * (g_live - x_prev[self._index])
        last, self._last = self._last, (f, g_live)
        if last is None:
            return None
        if len(self._df) == ANDERSON_MEMORY:
            del self._df[0], self._dg[0]
            self._gram[:-1, :-1] = self._gram[1:, 1:]
        self._df.append(f - last[0])
        self._dg.append(g_live - last[1])
        n = len(self._df)
        self._gram[n - 1, :n] = self._gram[:n, n - 1] = [d @ self._df[-1] for d in self._df]
        gamma = np.linalg.lstsq(self._gram[:n, :n], [d @ f for d in self._df], rcond=None)[0]
        mixed_live = g_live - sum(c * d for c, d in zip(gamma, self._dg))
        if not np.all(np.isfinite(mixed_live)):
            self.reset()
            return None
        mixed = g.copy()
        mixed[self._index] = mixed_live
        np.minimum(mixed[system._caps_part], 0.0, out=mixed[system._caps_part])
        if np.array_equal(mixed, g):  # nothing was mixed: no trial to evaluate
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            trial = SinkhornState(system, mixed)
            messages = system.compute_messages(trial)
            trial_value = system.dual_objective(trial, messages)
        if not trial_value >= value:
            self.reset()
            return None
        state.x[...] = mixed
        return messages, trial_value


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


def flux_profile(state: SinkhornState, path_index: int, node: str) -> np.ndarray:
    """Linear partial contraction at ``node`` for one path, excluding its own scaling."""
    system = state.system
    path = system.paths[check_path_index(path_index, len(system.paths))]
    if node not in path.nodes:
        raise BadParamError(f"{node} not on path {path}")
    if node not in system._layout:
        raise BadParamError("boundary flux is a joint matrix in coupled mode")
    pos = path.nodes.index(node)
    term = system._path_term(system._head_scalings(state), path_index,
                             _Forward(system, state)(path_index, pos),
                             system.compute_messages(state)[path_index][pos])
    return system.dom.to_linear(term)


def aggregate_marginals(state: SinkhornState) -> ModelMarginals:
    """Model marginal of every block of ``state``, from one message pass."""
    system = state.system
    messages = system.compute_messages(state)
    frontier = _Forward(system, state)
    heads = system._head_scalings(state)
    model = np.empty(system._size)
    for block, (part, _) in system._layout.items():
        model[part] = system._model(state, block,
                                    system._aggregate(heads, block, messages, frontier))
    views = {block: model[part].reshape(shape) for block, (part, shape) in system._layout.items()}
    m = {b: v for b, v in views.items() if b not in system.joints}
    joint_m = {pair: views[pair] for pair in system.joints}
    for (src, snk), mat in joint_m.items():  # coupled mode's boundary nodes
        m[src] = m.get(src, 0.0) + mat.sum(axis=1)
        m[snk] = m.get(snk, 0.0) + mat.sum(axis=0)
    return ModelMarginals(model=model, m=m, joint_m=joint_m)


def boundary_update(state: SinkhornState, node: str) -> np.ndarray:
    """Match the node's marginal target exactly; returns the new linear scaling."""
    system = state.system
    if system.mode == COUPLED:
        raise BadParamError("coupled mode updates the joint via coupled_boundary_update")
    if node not in system.mu0 and node not in system.muT:
        raise BadParamError(f"{node} is not a boundary node")
    return system._update_block(state, node)


def capacity_update(state: SinkhornState, node: str) -> np.ndarray:
    """Clip the node's marginal to its cap; returns the new linear scaling."""
    if node not in state.system.caps:
        raise BadParamError(f"{node} is not an interior node")
    return state.system._update_block(state, node)


def coupled_boundary_update(state: SinkhornState, pair: tuple[str, str]) -> np.ndarray:
    """Match the joint boundary law exactly; returns the new linear Lambda."""
    if state.system.mode != COUPLED:
        raise BadParamError("coupled_boundary_update requires coupled mode")
    return state.system._update_block(state, pair)


def solve(net: TransportNetwork, paths, mode: str = INDEPENDENT,
          config: SolverConfig | None = None,
          joints: dict[tuple[str, str], JointMeasure] | None = None
          ) -> tuple[SinkhornState, ConvergenceReport]:
    """Run Gauss-Seidel sweeps at ``config.epsilon`` until E0 + ET + V <= tol or the budget ends.

    Each iteration computes the messages of its entering state and their
    dual objective, unless the previous Anderson step already did, runs one
    exact sweep on them, tests the stopping rule and, past the warm-up,
    takes an Anderson step.  Its E0/ET/V row records every constraint's
    violation as seen just before its own block update, so all three stay
    informative.  The returned state is the final sweep's output; a
    non-finite E0+ET+V row raises ``NonFiniteError``.

    Both modes are Anderson-accelerated once ``ANDERSON_WARMUP`` plain
    sweeps have run.  Contract:

    - a solve of at most ``ANDERSON_WARMUP`` sweeps is exactly the plain
      iteration, so equal-sweep comparisons with a dense oracle hold there
      and only there; past the warm-up the iterates differ from the plain
      ones;
    - after the warm-up, the state entering an iteration may be a mixed
      point (see ``_AndersonMixer``), kept only if it is finite and its dual
      value is at least the value traced for the iteration that made it,
      whose sweep only raises the dual: the dual trace stays nondecreasing
      up to round-off.  The iteration's E0/ET/V row then measures the sweep
      from the mixed point.  A step costs one message pass, which serves
      the next iteration when the mixed point is kept;
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
            messages = system.compute_messages(state)
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
            next_point = mixer.step(state, x_prev, value)
    report = ConvergenceReport(
        e0=np.array(e0s), et=np.array(ets), v=np.array(vs),
        objective=np.array(objs), converged=converged, iterations=len(e0s))
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
    dom = system.dom

    def view(arr: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        return arr.reshape([n_t if axis in axes else 1 for axis in range(path.n_p)])

    scalings = [system._scaling_at(state, path, pos) for pos in range(m + 1)]
    factors = [view(s, (pos,)) for pos, s in enumerate(scalings) if s is not system._unit]
    factors += [view(step.kernel, (l, l + 1))
                for l, (_, step) in enumerate(system._steps[path_index])]
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

