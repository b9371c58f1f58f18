"""Chain messages: their arithmetic, their steps across an edge and one pass's reads.

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
"""

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

from .kernels import PairKernel

# A cached log-domain message step serves inputs within this many log units
# of its absorption point on every live bin (see ``_AbsorbedStep``).
ABSORB_BAND = 50.0

# Elements of the n_t**3 temporary that ``_lse_matmul`` reduces at a time.
_LSE_MATMUL_BLOCK = 1 << 20

# Output bins per block of an absorbed message step: n_t // _ABSORB_ROWS
# blocks of equal size (within one bin), but at least three, so a grid of
# fewer than four times this many bins is three blocks (see ``_causal_windows``).
_ABSORB_ROWS = 64


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
    calls on the same memory order.  Each absorb allocates every block
    anew, and stores a new array of its kept span.

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
    the band, and the output, log S, moves by less than eps.  Entries below
    the smallest normal float are zeroed in every block (they weigh
    nothing, but slow the mat-vec down many times over).
    """

    def __init__(self, kernel: PairKernel, axis: int, windows: list[tuple[slice, slice]]):
        self.kernel, self.axis, self.windows = kernel, axis, windows
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

    def _block(self, out: slice, inp: slice) -> np.ndarray:
        """A new [out, inp] block, laid out like its part of ``logK``."""
        shape = (out.stop - out.start, inp.stop - inp.start)
        return np.empty(shape) if self.axis else np.empty(shape[::-1]).T

    def _absorb(self, x: np.ndarray) -> np.ndarray:
        if self.blocks is None:
            # the mat-vecs' input and output; outputs of no block stay 0, so -inf
            self.d, self.y = np.empty(x.size), np.zeros(x.size)
        c = np.full(x.size, -np.inf)
        # each block, and its views of the mat-vecs' output and input; the old
        # ones go now, so that the old and the new stores are not held together
        self.blocks, self.served = [], []
        for out, inp in self.windows:
            if inp.stop == inp.start:  # no input reaches these outputs: -inf, in no block
                continue
            tau = np.finfo(float).eps * np.exp(-2 * ABSORB_BAND) / (inp.stop - inp.start)
            block = self._block(out, inp)
            if self.axis:
                self.kernel.log_window(out, inp, block)
            else:
                self.kernel.log_window(inp, out, block.T)
            total = np.empty(len(block))
            c[out] = _lse_rows(block, x[inp], block, total)
            scale = np.where(total > 0, total, 1.0)[:, None]  # all--inf rows stay 0
            # a live row peaks at exactly 1 and sums to at least 1, so its
            # entries >= tau once normalized lie in the columns >= tau now
            kept = np.flatnonzero(block.max(0) >= tau)
            first, stop = (kept[0], kept[-1] + 1) if kept.size else (0, 0)
            inp, block = slice(inp.start + first, inp.start + stop), block[:, first:stop]
            stored = np.divide(block, scale, out=self._block(out, inp))
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
    of the step from the neighbour toward the start, run on first read with
    the scalings current then and kept until a block update drops it
    (``PathSystem._pass``); which step, neighbour and scaling block a read
    takes is looked up in ``PathSystem._reads``, built once per system.
    ``done`` keeps one output per distinct step for every path that shares
    it; there is no chain per path.  Independent mode: at node l the
    forward message sums kernel chains over the prefixes ending at l, with
    the scalings of nodes 0..l-1, and the backward one over the suffixes
    from l, with those of nodes l+1 on; with l's own scaling their product
    sums to the path's mass.  Coupled mode: forward is a matrix [i, t] from departure bin i to
    node l at bin t, backward [t, j] from node l at bin t to arrival bin j,
    and backward at node 0 is the interior chain, with no Lambda.  ``heads``
    holds each joint pair's Lambda in the message domain, on its n_t x n_t
    matrix (none in independent mode).
    """

    def __init__(self, system: "PathSystem", state: "SinkhornState", axis: int):
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
