"""Path-wise entropic scaling with shared nodal multipliers.

Every source carries one positive scaling vector u, every sink one vector
v, and every interior node one capacity multiplier w in (0, 1] shared by
all paths through it.  In coupled mode the boundary pair (source, sink)
carries a joint matrix Lambda instead of u and v.  A solve's state is one
flat array of log-scalings, the blocks stacked in sweep order (0 neutral,
-inf dead).  A joint block holds only the cells of Lambda where its target
has mass (``PathSystem._support``): any other cell is dead from the first
update on, so the state, the bounds, the projections, the violations, the
dual and the mixing leave it out.  ``PathSystem.dense`` scatters the
block onto its n_t x n_t matrix where a matrix product or a plan needs
it, and ``PathSystem.packed`` reads a matrix back on the support.
Model marginals are assembled per path from backward chain messages and
forward ones built on demand; each block update is the exact projection
for its constraint, computed from an aggregate that excludes the block's
own scaling (so the constraint holds to round-off immediately after the
update).

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
every path-edge of the same weight and the same start side, the nodes
before it (forward) or after it (backward), whose message and scaling
are the step's input: a message pass calls each distinct step once and
hands its output to every path that shares it, so no reader writes into
a message.  A vector step
is one BLAS mat-vec per block of a kernel with its last input absorbed
(``_AbsorbedStep``), which reads the kernel as [output, input] (``logK.T``
forward, ``logK`` backward).  It computes each block from the cost
formula when it absorbs, never from a stored n_t**2 ``logK``, and keeps
only the input span whose normalized entries reach tau = eps * exp(-2 *
``ABSORB_BAND``) / width (eps the float epsilon, width the block's input
range): what it drops moves any served output by less than eps, so below
the mat-vec's own round-off.
A step pays a full log-sum-exp only when it re-absorbs, after its input
drifted more than ``ABSORB_BAND`` or a bin died or revived.  A matrix
step is one BLAS or ``_lse_matmul`` product (``_MatrixStep``).

A solve runs at the one configured epsilon.  Each sweep is one cyclic
(Gauss-Seidel) pass over the blocks in sweep order, each projected from
the backward messages of the sweep's entering state
(``PathSystem.compute_messages``) and forward ones read block by block,
each direction one ``_Messages`` object.  A sweep costs one message pass
in either mode; only a sweep over a cyclic path family refreshes the
messages before each block.  Past a warm-up, both modes mix the sweeps
(safeguarded Anderson mixing, ``_AndersonMixer``), whose small Gram
system is a pivoted Cholesky in Python floats (``_gram_solve``): no solve
calls LAPACK.  The primal transport cost is computed on demand, never
per sweep.

Each operation is written once.  A public block update checks its block
and projects it through ``PathSystem._update_block``.  Only ``sweep``,
``dual_objective`` and ``path_masses`` take ``messages``, so that
``solve`` and the mixer share one pass; every other reader runs its own.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from types import MappingProxyType

import numpy as np

from .errors import BadParamError, NonFiniteError, UnreachableMassError
from .grid_measures import JointMeasure
from .kernels import PairKernel, build_pair_kernel
from .network import COUPLED, INDEPENDENT, Path, TransportNetwork, path_cost_terms, validate_paths

# Target mass on structurally unreachable bins below this threshold is
# dropped (scaling zero); above it, the instance is reported infeasible.
NEGLIGIBLE_MASS = 1e-12

# Coupled matrix messages run in the linear domain only if every pair's
# neutral chain (see ``PathSystem._neutral_chain_underflows``) is at least
# this on the cells that carry target mass: its scalings then keep about
# 100 decades before a chain product leaves the normal range.
LINEAR_CHAIN_FLOOR = 1e-200

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

# Output bins per block of an absorbed message step: n_t // _ABSORB_ROWS
# blocks of equal size (within one bin), but at least three, so a grid of
# fewer than four times this many bins is three blocks (see ``_causal_windows``).
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

    The blocks are stacked in sweep order, each at the slice the system's
    layout (``PathSystem._layout``) gives it; 0 is neutral and -inf is
    dead.  ``views``, read-only and in sweep order, maps each block to its
    view into ``x``, so ``x`` is only ever written in place.  Every view is
    flat: a joint block's holds its support's cells (``PathSystem.dense``
    gives the matrix).
    """

    system: "PathSystem"
    x: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        self.views = MappingProxyType({block: self.x[part]
                                       for block, part in self.system._layout.items()})


@dataclass(eq=False)
class ModelMarginals:
    """Model marginal of every block, flat in the state's layout, and of every path node.

    ``m`` views ``model``, but a coupled source or sink has no block: ``m``
    adds its pairs' joint row or column sums, in ``joints`` order.
    ``joint_m`` holds each pair's marginal as a dense n_t x n_t matrix, 0
    off the target's support.
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


def _lse_reduce(a: np.ndarray, axis: int, sums: np.ndarray | None = None) -> np.ndarray:
    """Log-sum-exp along one axis of an array; +inf and NaN propagate, -inf slices stay -inf.

    ``a`` is left holding exp(a - max) per slice, and ``sums``, when given,
    its sums, with max = 0 on slices whose max is not finite; exp
    overflows only in +inf slices, and silently.
    """
    amax = np.max(a, axis=axis, keepdims=True)
    amax[~np.isfinite(amax)] = 0.0
    a -= amax
    with np.errstate(divide="ignore", over="ignore"):
        np.exp(a, out=a)
        return np.log(a.sum(axis=axis, out=sums)) + amax.squeeze(axis)


def _lse_rows(logk: np.ndarray, lv: np.ndarray, work: np.ndarray | None = None,
              sums: np.ndarray | None = None) -> np.ndarray:
    """out[s] = LSE_t(logk[s, t] + lv[t]), in ``work`` when given (see ``_lse_reduce``)."""
    return _lse_reduce(np.add(logk, lv[None, :], out=work), 1, sums)


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


class _Log:
    """Message arithmetic in log units: a product adds, a sum is a log-sum-exp."""

    one, zero = 0.0, -np.inf
    mul, add, matmul, to_linear = np.add, np.logaddexp, staticmethod(_lse_matmul), np.exp
    sum = staticmethod(_lse_reduce)  # overwrites its argument, so never a message
    kernel = operator.attrgetter("logK")
    from_log = to_log = staticmethod(np.asarray)  # returns the array itself


class _Linear:
    """Message arithmetic on linear values: plain products and sums, BLAS matrix products."""

    one, zero = 1.0, 0.0
    mul, add, matmul, sum = np.multiply, np.add, np.matmul, staticmethod(np.sum)
    kernel = operator.attrgetter("K")

    @staticmethod
    def from_log(a: np.ndarray) -> np.ndarray:
        """exp of ``a``; NaN and overflow propagate silently."""
        with np.errstate(over="ignore"):
            return np.exp(a)

    @staticmethod
    def to_log(a: np.ndarray) -> np.ndarray:
        return np.log(a, out=np.full_like(a, -np.inf), where=a != 0)

    @staticmethod
    def to_linear(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return a  # ``out``, when given, is ``a``


def _causal_windows(n: int, axis: int) -> list[tuple[slice, slice]]:
    """(output, input) ranges of the blocks of an absorbed step on ``n`` bins, forward on axis 0.

    The outputs are cut into ``n // _ABSORB_ROWS`` equal blocks (within one
    bin), but into at least three (n on a grid of fewer bins), each with
    the inputs its outputs can reach (a particle arrives strictly after it
    departs): [0, hi - 1) forward, [lo + 1, n) backward, for outputs [lo,
    hi).  A block of m outputs still holds the m (m - 1) / 2 causal zeros
    of its last inputs, about 1 / (k + 1) of k blocks' cells, so at most a
    quarter.  The first output forward, and the last backward, may get a
    block of no inputs.
    """
    k = max(min(n, 3), n // _ABSORB_ROWS)
    bounds = [n * j // k for j in range(k + 1)]
    return [(slice(lo, hi), slice(0, hi - 1) if axis == 0 else slice(lo + 1, n))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _fit(buffers: list, j: int, size: int) -> np.ndarray:
    """Flat ``buffers[j]``, replaced by a new one if it holds fewer than ``size`` elements."""
    if buffers[j].size < size:
        buffers[j] = np.empty(size)
    return buffers[j]


class _AbsorbedStep:
    """One log-domain vector message step across one edge, in one direction.

    The step is out[o] = LSE_i(kernel[o, i] + x[i]), with ``kernel[o, i]``
    the log kernel of ``PairKernel`` ``kernel`` from input bin i to output
    bin o: ``logK.T`` forward (``axis`` 0), ``logK`` backward.  The input x
    is a message plus a scaling, in log units, summed by the call.

    The step cuts its outputs into blocks (``windows``, from
    ``_causal_windows``), each over the inputs its outputs can reach, and
    computes a block from the cost formula (``PairKernel.log_window``) at
    each absorb, laid out in memory like its part of ``logK``, so the
    forward and backward steps of an edge run the same reductions and BLAS
    calls on the same memory order.  Every block is computed in the
    system's ``scratch``, and its store keeps part of it.

    Absorbing x as r runs the plain log-sum-exp of each block in place and
    returns the outputs unchanged.  It then scales every row to sum 1 and
    keeps the outputs as the offsets ``c`` (-inf on all--inf rows, which
    stay -inf).  A later input with exactly r's dead (-inf) bins and within
    ``ABSORB_BAND`` of r on the live ones is served by one exp and one
    mat-vec per block, c + log(block @ exp(x - r)) on the block's slice of
    the outputs (Schmitzer, SIAM J. Sci. Comput. 2019).  Any other input
    re-absorbs.  A bin that dies must re-absorb too: the rows it dominated
    may keep nothing but underflowed entries.

    Why the served output matches the log-sum-exp to round-off: with d =
    x - r in [-band, band] on the live bins, a live row B[o], scaled to sum
    1, has the served sum S = sum_i B[o, i] exp(d_i) >= exp(-band).  Each
    block keeps only the input span (``blocks``: outputs, kept inputs,
    stored block) of the columns with an entry >= tau = eps * exp(-2 band)
    / width, eps the float epsilon and width the block's input range.  It
    tests them before the scaling, when a live row peaks at exactly 1 and
    so sums to at least 1, so every entry >= tau of B is kept, and each
    dropped one is below tau in B: together they add less than width * tau
    * exp(band) = eps * exp(-band) <= eps * S, whatever the drift within
    the band, and the output, log S, moves by less than eps.  Before summing a block it leaves out, from either end of its
    inputs, those whose entries lie below tau of every row's maximum (the
    kernel grows with the gap, so on an input it is largest at the block's
    farthest output and smallest at its nearest one); they add less than
    width * tau of a row's maximum to the absorbed sum, far below its
    round-off, and would be dropped anyway.  Entries below the smallest
    normal float are zeroed in every block (they weigh nothing, but slow
    the mat-vec down many times over).
    """

    def __init__(self, kernel: PairKernel, axis: int, windows: list[tuple[slice, slice]],
                 scratch: list):
        self.kernel, self.axis, self.windows, self.scratch = kernel, axis, windows, scratch
        self.stores = [np.empty(0)] * len(windows)  # each block's flat store, reused if it fits
        self.blocks: list | None = None  # (outputs, kept inputs, block) after an absorb
        self.r: np.ndarray | None = None  # absorbed input, 0 on dead bins; None re-absorbs

    def __call__(self, message: np.ndarray, scaling: np.ndarray) -> np.ndarray:
        x = message + scaling
        if self.r is not None:
            # x - r lies within [lo, hi] on every bin only if x is dead
            # exactly where r is and within the band of it elsewhere; a bin
            # that died or revived, NaN and +inf all fail.  One fused mask
            # and a C-level reduction, with no Python-level wrapper
            d = np.subtract(x, self.r, out=self.d)
            if np.logical_and.reduce((d <= self.hi) & (d >= self.lo)):
                np.exp(d, out=d)
                for y, d_in, block in self.served:
                    np.matmul(block, d_in, out=y)
                # y > 0 exactly on the live outputs; the others keep 0, and c
                # is -inf there
                np.log(self.y, out=self.y, where=self.live)
                return self.c + self.y
        return self._absorb(x)

    def _block(self, buf: np.ndarray, out: slice, inp: slice) -> np.ndarray:
        """The [out, inp] block in flat ``buf``, laid out like its part of ``logK``."""
        shape = (out.stop - out.start, inp.stop - inp.start)
        flat = buf[:shape[0] * shape[1]]
        return flat.reshape(shape) if self.axis else flat.reshape(shape[::-1]).T

    def _at(self, o: int, inp: slice) -> np.ndarray:
        """kernel[o, inp], from the formula."""
        one = slice(o, o + 1)
        if self.axis:
            return self.kernel.log_window(one, inp)[0]
        return self.kernel.log_window(inp, one)[:, 0]

    def _absorb(self, x: np.ndarray) -> np.ndarray:
        if self.blocks is None:
            # the mat-vecs' input and output; outputs of no block stay 0, so -inf
            self.d, self.y = np.empty(x.size), np.zeros(x.size)
        c = np.full(x.size, -np.inf)
        # each block, and its views of the mat-vecs' output and input; the old
        # ones go now, so that a store that grows is not held twice
        self.blocks, self.served = [], []
        for j, (out, inp) in enumerate(self.windows):
            if inp.stop == inp.start:  # no input reaches these outputs: -inf, in no block
                continue
            tau = np.finfo(float).eps * np.exp(-2 * ABSORB_BAND) / (inp.stop - inp.start)
            # the kernel grows with the gap, so on each input it lies between
            # its values at the nearest output and the farthest: an input
            # whose farthest entry is below tau of the largest nearest one
            # is below tau of every row's maximum, and neither summed nor kept
            ends = (out.stop - 1, out.start) if self.axis == 0 else (out.start, out.stop - 1)
            far, near = (self._at(o, inp) + x[inp] for o in ends)
            bound = near.max() + np.log(tau)
            if np.isfinite(bound):  # NaN and +inf inputs are summed in full
                reach = np.flatnonzero(far >= bound)
                inp = slice(inp.start + reach[0], inp.start + reach[-1] + 1)
            size = (out.stop - out.start) * (inp.stop - inp.start)
            block = self._block(_fit(self.scratch, 0, size), out, inp)
            if self.axis:
                self.kernel.log_window(out, inp, block)
            else:
                self.kernel.log_window(inp, out, block.T)
            total = np.empty(out.stop - out.start)
            c[out] = _lse_rows(block, x[inp], block, total)
            scale = np.where(total > 0, total, 1.0)[:, None]  # all--inf rows stay 0
            # a live row peaks at exactly 1 and sums to at least 1, so its
            # entries >= tau once normalized lie in the columns >= tau now
            kept = np.flatnonzero(block.max(axis=0) >= tau)
            first, stop = (kept[0], kept[-1] + 1) if kept.size else (0, 0)
            inp, block = slice(inp.start + first, inp.start + stop), block[:, first:stop]
            stored = self._block(_fit(self.stores, j, block.size), out, inp)
            np.divide(block, scale, out=stored)
            stored[stored < np.finfo(float).tiny] = 0.0
            self.blocks.append((out, inp, stored))
            self.served.append((self.y[out], self.d[inp], stored))
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


class _Messages:
    """Chain messages of one state in one direction (``axis`` 0 forward, 1 backward).

    ``messages(p_idx, pos)`` returns path ``p_idx``'s message at node
    ``pos``: the neutral ``_start`` at the path's start end, else the output
    of the step from the neighbour toward the start, run once per pass, on
    first read, with the scalings current then; which step, neighbour and
    scaling block a read takes is looked up in ``PathSystem._reads``, built
    once per system.  ``done`` keeps one output
    per distinct step for every path that shares it; there is no chain per
    path.  Independent mode: at node l the forward message sums
    kernel chains over the prefixes ending at l, with the scalings of nodes
    0..l-1, and the backward one over the suffixes from l, with those of
    nodes l+1 on; with l's own scaling their product sums to the path's
    mass.  Coupled mode: forward is a matrix [i, t] from departure bin i to
    node l at bin t, backward [t, j] from node l at bin t to arrival bin j,
    and backward at node 0 is the interior chain, with no Lambda.  ``heads``
    holds each joint pair's Lambda in the message domain, on its n_t x n_t
    matrix (none in independent mode).
    """

    def __init__(self, system: "PathSystem", state: SinkhornState, axis: int):
        self.system, self.state, self.reads = system, state, system._reads[axis]
        self.done: dict = {}  # each step's output, computed once

    def __call__(self, p_idx: int, pos: int) -> np.ndarray:
        read = self.reads[p_idx][pos]
        if read is None:
            return self.system._start  # the neutral message at the start end
        step, prev, block = read
        if step not in self.done:  # it steps from that neighbour's message and scaling
            scaling = (self.system._unit if block is None
                       else self.system.dom.from_log(self.state.views[block]))
            self.done[step] = step(self(p_idx, prev), scaling)
        return self.done[step]

    @cached_property
    def heads(self) -> dict:
        system, views = self.system, self.state.views
        return {pair: system.dense(pair, system.dom.from_log(views[pair]), system.dom)
                for pair in system.joints}


class PathSystem:
    """Compiled problem: grid, paths, kernels, block bounds and the state layout.

    ``mu0``, ``muT``, ``caps`` and ``joints`` hold each block's target or cap in
    sweep order; in coupled mode the pairs replace sources and sinks as blocks.
    """

    def __init__(self, net: TransportNetwork, paths, mode: str = INDEPENDENT,
                 config: SolverConfig | None = None,
                 joints: dict[tuple[str, str], JointMeasure] | None = None):
        config = config or SolverConfig()
        self.net = net
        self.grid = net.grid
        self.n_t = net.grid.n_t
        self.mode = mode
        self.paths: list[Path] = list(paths)
        # node -> [(path index, position)], once the family passes every rule for its mode
        self.positions = validate_paths(net, self.paths, joints, mode)
        interior, self._order_follows_paths = self._interior_topo_order()

        self.mu0 = {s: m.mass for s, m in net.sources.items()}
        self.muT = {s: m.mass for s, m in net.sinks.items()}
        self.caps = {v: net.capacity_for(v) for v in interior}
        # validated joints come in coupled mode only, one per joined pair, kept in path order
        pairs = dict.fromkeys((p.source, p.sink) for p in self.paths)
        self.joints = {pair: joints[pair].mass for pair in pairs} if joints else {}
        # each joint block's cells: its target's support, flat indices ascending
        self._support = {pair: np.flatnonzero(mass > 0) for pair, mass in self.joints.items()}
        self.pair_paths = {pair: [i for i, p in enumerate(self.paths)
                                  if (p.source, p.sink) == pair]
                           for pair in self.joints}
        # the block that scales each path's source end: its pair in coupled mode, else its source
        self._heads = [(p.source, p.sink) if (p.source, p.sink) in self.joints else p.source
                       for p in self.paths]
        # the state's layout, in sweep order: each block's slice of the flat
        # log-scalings.  Sources (or pairs), caps and sinks are contiguous, so
        # E0, V and ET are three slices of any flat marginal
        packed = {pair: self.packed(pair, mass) for pair, mass in self.joints.items()}
        first, last = (packed, {}) if mode == COUPLED else (self.mu0, self.muT)
        bounds = {**first, **self.caps, **last}
        self._layout: dict = {}
        size = 0
        for block, bound in bounds.items():
            self._layout[block] = slice(size, size + bound.size)
            size += bound.size
        self._size = size
        n_first = sum(bound.size for bound in first.values())
        self._caps_part = slice(n_first, n_first + self.n_t * len(self.caps))
        # each block's target (or cap) and its log, flat in the layout
        self.bound = np.concatenate(list(bounds.values()))
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
        # what it computes: its kernel's weight and the nodes on its start side,
        # whose message and scaling are its input (its far end does not enter)
        keys = [[((0, p.nodes[:l + 1], w), (1, p.nodes[l + 1:], w)) for l, w in enumerate(ws)]
                for p, ws in zip(self.paths, path_weights)]
        step_kernels = {key: self._kernel_cache[key[2]]
                        for p_keys in keys for pair in p_keys for key in pair}
        # neutral scaling vector and neutral message (the identity on the boundary
        # bins in coupled mode), shared by every path and state, so read-only.
        # Vector steps take their block windows once per direction, and share
        # one scratch to absorb in
        self._unit = np.full(self.n_t, dom.one)
        if mode == INDEPENDENT:
            self._start = self._unit
            sides, scratch = [_causal_windows(self.n_t, axis) for axis in (0, 1)], [np.empty(0)]
            steps = {key: _AbsorbedStep(k, key[0], sides[key[0]], scratch)
                     for key, k in step_kernels.items()}
        else:
            start = np.full((self.n_t, self.n_t), -np.inf)
            np.fill_diagonal(start, 0.0)
            self._start = dom.from_log(start)
            steps = {key: _MatrixStep(dom.kernel(k), key[0], dom, self._start, self._unit)
                     for key, k in step_kernels.items()}
        self._steps = [[tuple(steps[key] for key in pair) for pair in p_keys] for p_keys in keys]
        # what ``_Messages`` reads per direction, path and position: None at the start
        # end, else the step, the neighbour toward the start and its block (None if none)
        self._reads = [[], []]
        for p_steps, p in zip(self._steps, self.paths):
            blocks = [node if node in self._layout else None for node in p.nodes]
            forward, backward = zip(*p_steps)
            self._reads[0].append([None, *zip(forward, range(p.n_p), blocks)])
            self._reads[1].append([*zip(backward, range(1, p.n_p), blocks[1:]), None])
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

    def dense(self, pair, values: np.ndarray, dom) -> np.ndarray:
        """A joint block's packed ``values``, in ``dom``'s units, on its n_t x n_t matrix.

        Cells off the target's support hold ``dom.zero``: -inf in ``_Log``,
        0 in ``_Linear``.
        """
        out = np.full((self.n_t, self.n_t), dom.zero)
        out.ravel()[self._support[pair]] = values
        return out

    def packed(self, block, values: np.ndarray) -> np.ndarray:
        """``values`` on ``block``'s cells, the inverse of ``dense``.

        A joint block reads its n_t x n_t matrix on its support; any other
        block's vector is its own.
        """
        return values.ravel()[self._support[block]] if block in self.joints else values

    def _scaling_at(self, state: SinkhornState, path: Path, pos: int) -> np.ndarray:
        """Message-domain scaling of the node at ``pos``; neutral on a node without a block."""
        node = path.nodes[pos]
        return self.dom.from_log(state.views[node]) if node in self._layout else self._unit

    # ------------------------------------------------------------------
    # messages

    def compute_messages(self, state: SinkhornState) -> _Messages:
        """Backward messages of ``state`` as it stands (``_Messages`` on axis 1), all built now.

        Path masses and joint aggregates read them at node 0, so a sweep
        and the dual need no forward message.
        """
        messages = _Messages(self, state, 1)
        for p_idx in range(len(self.paths)):
            messages(p_idx, 0)
        return messages

    # ------------------------------------------------------------------
    # aggregates and marginals

    def _path_term(self, messages: _Messages, frontier: _Messages, p_idx: int,
                   pos: int) -> np.ndarray:
        """Path ``p_idx``'s message-domain term of the aggregate at its node ``pos``."""
        dom = self.dom
        f, b = frontier(p_idx, pos), messages(p_idx, pos)
        if self.mode == INDEPENDENT:
            return dom.mul(f, b)
        # out[t] = sum_i f[i, t] * g[i, t], g[i, t] = sum_j lam[i, j] * b[t, j]
        return dom.sum(dom.mul(f, dom.matmul(frontier.heads[self._heads[p_idx]], b.T)), axis=0)

    def _aggregate(self, block, messages: _Messages, frontier: _Messages) -> np.ndarray:
        """Log aggregate of one block, excluding the block's own scaling.

        A joint block sums the interior chain matrices ``messages(p, 0)`` of
        its paths, which leave Lambda out, and gathers the sum on its
        support.  A node block sums its paths' terms from the backward
        ``messages`` and the forward ``frontier``.  The terms are summed in
        the message domain, then taken to log units.
        """
        if block in self.joints:
            chain = reduce(self.dom.add, [messages(p, 0) for p in self.pair_paths[block]])
            return self.dom.to_log(self.packed(block, chain))
        terms = [self._path_term(messages, frontier, p, pos) for p, pos in self.positions[block]]
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
        dead = agg == -np.inf
        if np.any(dead & (target > NEGLIGIBLE_MASS)):
            raise UnreachableMassError(f"target mass at {label} sits on bins with zero aggregate flux")
        return np.subtract(log_target, agg, out=np.full_like(agg, -np.inf), where=~dead)

    @staticmethod
    def _cap_over_aggregate(log_cap: np.ndarray, agg: np.ndarray) -> np.ndarray:
        """Clipped capacity projection min(log cap - log aggregate, 0); slack bins get 0.

        The difference is taken on live bins only, so a zero cap's -inf
        meets no -inf aggregate.
        """
        live = agg != -np.inf
        return np.minimum(np.subtract(log_cap, agg, out=np.zeros_like(agg), where=live), 0.0)

    def _model(self, state: SinkhornState, block, agg: np.ndarray) -> np.ndarray:
        """Model marginal of one block from its log aggregate."""
        with np.errstate(over="ignore"):
            return np.exp(state.x[self._layout[block]] + agg)

    def _project(self, state: SinkhornState, block,
                 agg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact projection of one block from its log aggregate, flat in the block's slice.

        Returns the block's new log-scaling and its model marginal before
        the update.
        """
        part = self._layout[block]
        model = self._model(state, block, agg)
        if block in self.caps:
            return self._cap_over_aggregate(self.log_bound[part], agg), model
        label = f"pair {block}" if block in self.joints else block
        return self._target_over_aggregate(self.bound[part], self.log_bound[part],
                                           agg, label), model

    def _update_block(self, state: SinkhornState, block) -> np.ndarray:
        """Project one block from one message pass of ``state``; returns its new linear scaling.

        The scaling is flat like the block's view: a joint block's is packed.
        """
        agg = self._aggregate(block, self.compute_messages(state), _Messages(self, state, 0))
        state.x[self._layout[block]], _ = self._project(state, block, agg)
        with np.errstate(over="ignore"):
            return np.exp(state.views[block])

    # ------------------------------------------------------------------
    # sweeps

    def sweep(self, state: SinkhornState, messages=None) -> tuple[float, float, float]:
        """One pass over the blocks: sources (or joint pairs), interior nodes, sinks.

        Returns the iteration diagnostics (E0, ET, V): each constraint's L1
        violation measured from the model marginal seen just before its own
        block update.  Every block is projected from the backward messages
        of the entering state and a forward frontier, read forward only: the
        backward messages at a block depend only on nodes that come later in
        the sweep, and joint blocks, which come first, read the interior
        chains at node 0 (they leave Lambda out), so the frontier's first
        read of the head scalings comes after them.  Each new scaling is
        assigned at once (Gauss-Seidel), so every block update is the exact
        projection (block coordinate ascent); over a cyclic path family the
        messages are refreshed before every block.  A ``messages`` argument
        is trusted to describe the entering state.
        """
        refresh = not self._order_follows_paths
        model = np.empty(self._size)
        for i, (block, part) in enumerate(self._layout.items()):
            if i == 0 or refresh:
                if messages is None or i:
                    messages = self.compute_messages(state)
                frontier = _Messages(self, state, 0)
            state.x[part], model[part] = self._project(
                state, block, self._aggregate(block, messages, frontier))
        return self.violations(model)

    # ------------------------------------------------------------------
    # diagnostics

    def path_masses(self, state: SinkhornState, messages=None) -> np.ndarray:
        """Total model mass per path, read at the source end from the backward messages.

        A path's message at node 0 is read on its head block's cells and
        weighed by that block's scaling, so a joint pair sums its support only.
        """
        if messages is None:
            messages = self.compute_messages(state)
        dom, views = self.dom, state.views
        return np.array([dom.to_linear(dom.sum(dom.mul(self.packed(head, messages(p_idx, 0)),
                                                       dom.from_log(views[head])), 0))
                         for p_idx, head in enumerate(self._heads)])

    def _edge_pair_marginal(self, messages: _Messages, frontier: _Messages, p_idx: int,
                            l: int) -> np.ndarray:
        """Linear (t_{l-1}, t_l) marginal of path ``p_idx``'s plan, from both directions."""
        path, dom = self.paths[p_idx], self.dom
        f, b = frontier(p_idx, l - 1), messages(p_idx, l)
        s_prev, s_next = (self._scaling_at(frontier.state, path, pos) for pos in (l - 1, l))
        kernel = dom.kernel(self.path_kernels[p_idx][l - 1])
        if self.mode == COUPLED:
            left = dom.matmul(f.T, dom.matmul(frontier.heads[self._heads[p_idx]], b.T))  # [s, t]
            factors = [left, s_prev[:, None], kernel, s_next[None, :]]
        else:
            factors = [dom.mul(f, s_prev)[:, None], kernel, dom.mul(s_next, b)[None, :]]
        with np.errstate(over="ignore"):
            return dom.to_linear(reduce(dom.mul, factors))

    def transport_cost(self, state: SinkhornState) -> float:
        """<c, pi> summed over paths (forbidden transitions carry no mass)."""
        messages = self.compute_messages(state)
        frontier = _Messages(self, state, 0)
        total = 0.0
        for p_idx, path in enumerate(self.paths):
            for l in range(1, path.n_p):
                pm = self._edge_pair_marginal(messages, frontier, p_idx, l)
                total += float((pm * self.path_kernels[p_idx][l - 1].cost).sum())
        return total

    def dual_objective(self, state: SinkhornState, messages=None) -> float:
        """Entropic dual value (-inf if a dual bin is dead); each block update maximizes it."""
        mass = float(self.path_masses(state, messages).sum())
        return self.epsilon * (float(state.x[self._dual_bins] @ self._dual_bound) - mass)


def _gram_solve(gram: np.ndarray, rhs: list) -> np.ndarray:
    """Solve gram @ c = rhs, gram symmetric positive semidefinite, by pivoted Cholesky.

    Each pivot is the remaining index with the largest current diagonal
    entry (the first on ties); the factorization stops once that entry is
    not above m * eps * the largest diagonal entry, the cut of ``lstsq``'s
    default rcond, and the dropped directions get 0.  Python floats and
    numpy dot products only: a LAPACK routine maps about 1 MB into the process.
    The mixer's accept decisions follow the weights' last bits, so the
    order of operations here is part of its behaviour.
    """
    a, m = gram.tolist(), len(rhs)
    cut = m * np.finfo(float).eps * max(a[i][i] for i in range(m))
    rest, piv = list(range(m)), []
    while rest:
        j = max(rest, key=lambda i: a[i][i])
        if not a[j][j] > cut:
            break
        s = math.sqrt(a[j][j])
        for i in rest:  # the pivot's own entry too: L[j, j] = a[j][j] / s
            a[i][j] /= s
        rest.remove(j)
        piv.append(j)
        for i in rest:
            for h in rest:
                a[i][h] -= a[i][j] * a[h][j]
    low = np.tril([[a[i][j] for j in piv] for i in piv])
    y = np.zeros(len(piv))
    for i in range(len(piv)):
        y[i] = (rhs[piv[i]] - low[i, :i] @ y[:i]) / low[i, i]
    for i in reversed(range(len(piv))):
        y[i] = (y[i] - low[i + 1:, i] @ y[i + 1:]) / low[i, i]
    c = np.zeros(m)
    c[piv] = y
    return c


class _AndersonMixer:
    """Safeguarded Anderson mixing of the Gauss-Seidel sweep, in either mode.

    Type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011)
    of the fixed point x = G(x), where x is the state's flat array of
    log-scalings and G is one plain sweep.  The mixed point combines the
    last few G(x) with weights that minimise the combined residual
    G(x) - x in the target-weighted norm sum(target * r**2), the diagonal
    of the dual's curvature in the log-scalings: m x m normal equations
    (m <= ``ANDERSON_MEMORY``) whose Gram matrix of weighted residual
    differences gains one row of dot products a step, solved by
    ``_gram_solve`` with the cut of ``lstsq``'s default rcond.  Capacity
    multipliers are clipped back to w <= 1.  A mixed point replaces the
    plain one only if it is finite and its dual value is at least that of
    the point the sweep started from, already traced; otherwise the plain
    point stands and the history restarts.  So a step costs one message
    pass, the trial's, and none when the mixed point is the plain one bit
    for bit.  Dead bins (log-scaling -inf, such as a zero-cap bin or a
    Lambda cell of negligible target) take no part in the mixing and stay
    dead.
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
        gamma = _gram_solve(self._gram[:n, :n], [d @ f for d in self._df])
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
        messages.state = state  # which they now describe: the trial's copy of x can go
        return messages, trial_value


# ----------------------------------------------------------------------
# module-level operations


def check_path_index(path_index, n_paths: int) -> int:
    """``path_index`` as an int in [0, n_paths); anything else raises ``BadParamError``."""
    index = _integer("path_index", path_index)
    if not 0 <= index < n_paths:
        raise BadParamError(f"path_index must be in [0, {n_paths}), got {path_index}")
    return index


def flux_profile(state: SinkhornState, path_index: int, node: str) -> np.ndarray:
    """Linear partial contraction at ``node`` for one path, excluding its own scaling."""
    system = state.system
    path = system.paths[check_path_index(path_index, len(system.paths))]
    if node not in path.nodes:
        raise BadParamError(f"{node} not on path {path}")
    if node not in system._layout:
        raise BadParamError("boundary flux is a joint matrix in coupled mode")
    term = system._path_term(_Messages(system, state, 1), _Messages(system, state, 0),
                             path_index, path.nodes.index(node))
    return system.dom.to_linear(term)


def aggregate_marginals(state: SinkhornState) -> ModelMarginals:
    """Model marginal of every block of ``state``, from one message pass."""
    system = state.system
    messages = system.compute_messages(state)
    frontier = _Messages(system, state, 0)
    model = np.empty(system._size)
    for block, part in system._layout.items():
        model[part] = system._model(state, block, system._aggregate(block, messages, frontier))
    m = {block: model[part] for block, part in system._layout.items() if block not in system.joints}
    joint_m = {pair: system.dense(pair, model[system._layout[pair]], _Linear)
               for pair in system.joints}
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
    """Match the joint boundary law exactly; returns the new linear Lambda, n_t x n_t."""
    system = state.system
    if system.mode != COUPLED:
        raise BadParamError("coupled_boundary_update requires coupled mode")
    return system.dense(pair, system._update_block(state, pair), _Linear)


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
    e0s, ets, vs, objs = [], [], [], []
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
