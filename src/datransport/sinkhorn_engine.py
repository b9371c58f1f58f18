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
One loop, ``PathSystem._pass``, reads blocks: each block's model marginal
is assembled per path from backward chain messages and forward ones built
on demand, and a projecting pass updates the block at once by the exact
projection for its constraint, computed from an aggregate that excludes
the block's own scaling (so the constraint holds to round-off immediately
after the update).  A sweep, ``aggregate_marginals`` and a public block
update are each one such pass.

Each block's target, or its cap for a capacity block, sits at the same
place in one flat vector ``PathSystem.bound``, and a pass over every
block returns one flat model marginal laid out the same way.
Sources (or joint pairs) come first, then caps, then sinks, so E0, V and
ET are three slices of model - bound (``PathSystem.violations``), and the
dual's scaling term is one dot of the state with the bound on its live
bins.

The messages' arithmetic and steps live in ``messages``; the solve loop,
its Anderson mixing and the public operations on a state in ``driver``.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType

import numpy as np

from .errors import BadParamError, UnreachableMassError
from .grid_measures import JointMeasure
from .kernels import PairKernel, build_pair_kernel
from .messages import _AbsorbedStep, _causal_windows, _Linear, _Log, _MatrixStep, _Messages
from .network import COUPLED, INDEPENDENT, Path, TransportNetwork, path_cost_terms, validate_paths

# Target mass on structurally unreachable bins below this threshold is
# dropped (scaling zero); above it, the instance is reported infeasible.
NEGLIGIBLE_MASS = 1e-12

# Coupled matrix messages run in the linear domain only if every pair's
# neutral chain (see ``PathSystem._neutral_chain_underflows``) is at least
# this on the cells that carry target mass: its scalings then keep about
# 100 decades before a chain product leaves the normal range.
LINEAR_CHAIN_FLOOR = 1e-200


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


class PathSystem:
    """Compiled problem: grid, paths, kernels, block bounds and the state layout.

    ``mu0``, ``muT``, ``caps`` and ``joints`` hold each block's target or cap in
    sweep order; in coupled mode the pairs replace sources and sinks as blocks.
    The mode is compiled once, here, into the layout's end blocks, the message
    domain, the neutral arrays and the step class; past the constructor only
    ``_path_term`` and ``_edge_pair_marginal`` read it, where a Lambda enters.
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
        interior = self._interior_topo_order()

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

        self.epsilon = config.epsilon
        path_weights = [[float(w) for w in path_cost_terms(net, p)] for p in self.paths]
        self._kernel_cache: dict[float, PairKernel] = {  # one kernel per distinct weight
            w: build_pair_kernel(self.grid, w, self.epsilon)
            for w in dict.fromkeys(w for weights in path_weights for w in weights)}
        self.path_kernels = [[self._kernel_cache[w] for w in weights] for weights in path_weights]
        # the (forward, backward) steps per path and edge, one object per axis and
        # what it computes: its kernel's weight and the nodes on its start side,
        # whose message and scaling are its input (its far end does not enter)
        keys = [[((0, p.nodes[:l + 1], w), (1, p.nodes[l + 1:], w)) for l, w in enumerate(ws)]
                for p, ws in zip(self.paths, path_weights)]
        step_kernels = {key: self._kernel_cache[key[2]]
                        for p_keys in keys for pair in p_keys for key in pair}

        # the one mode branch.  The neutral scaling and message (the identity on the
        # boundary bins in coupled mode) are shared by every path and state, so
        # read-only.  Vector steps take their block windows once per direction
        if mode == INDEPENDENT:
            first, last, dom = self.mu0, self.muT, _Log
            self._unit = self._start = np.full(self.n_t, dom.one)
            sides = [_causal_windows(self.n_t, axis) for axis in (0, 1)]
            steps = {key: _AbsorbedStep(k, key[0], sides[key[0]])
                     for key, k in step_kernels.items()}
        else:
            first = {pair: self.packed(pair, mass) for pair, mass in self.joints.items()}
            last, dom = {}, _Log if self._neutral_chain_underflows() else _Linear
            self._unit = np.full(self.n_t, dom.one)
            start = np.full((self.n_t, self.n_t), -np.inf)
            np.fill_diagonal(start, 0.0)
            self._start = dom.from_log(start)
            steps = {key: _MatrixStep(dom.kernel(k), key[0], dom, self._start, self._unit)
                     for key, k in step_kernels.items()}
        self.dom = dom  # the messages' arithmetic; the state is in log units either way
        self.log_domain = dom is _Log

        # the state's layout, in sweep order: each block's slice of the flat
        # log-scalings.  Sources (or pairs), caps and sinks are contiguous, so
        # E0, V and ET are three slices of any flat marginal
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
        self._steps = [[tuple(steps[key] for key in pair) for pair in p_keys] for p_keys in keys]
        # what ``_Messages`` reads per direction, path and position: None at the start
        # end, else the step, the neighbour toward the start and its block (None if none)
        self._reads = [[], []]
        for p_steps, p in zip(self._steps, self.paths):
            blocks = [node if node in self._layout else None for node in p.nodes]
            forward, backward = zip(*p_steps)
            self._reads[0].append([None, *zip(forward, range(p.n_p), blocks)])
            self._reads[1].append([*zip(backward, range(1, p.n_p), blocks[1:]), None])
        # the (forward, backward) steps each block's update makes stale: those whose
        # start side holds it, so every step downstream of a stale one too
        self._stale = {block: tuple([step for key, step in steps.items()
                                     if key[0] == axis and block in key[1]] for axis in (0, 1))
                       for block in self._layout}
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

    def _interior_topo_order(self) -> list[str]:
        """Interior sweep order: topological in path precedence, first-appearance ties.

        Each step places the first node, in first-appearance order, whose
        predecessors on the paths are all placed.  For an acyclic precedence
        relation (any DAG-like path family) this visits each path's interior
        in path order, so no message step a block update makes stale is read
        again in the same sweep.  A cyclic one falls back to first-appearance
        order.
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
                return list(preds)
            order.append(node)
        return order

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
        return dom.sum(dom.mul(f, dom.matmul(frontier.heads[self._heads[p_idx]], b.T)), 0)

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
    # block passes

    def _pass(self, state: SinkhornState, blocks, project: bool, messages=None) -> np.ndarray:
        """Flat model marginal, laid out like ``bound``, of ``blocks``, each read before its update.

        A block's model marginal is the exp of its log-scaling plus its log
        aggregate, from one backward ``_Messages`` (``messages``, else built
        now) and one forward frontier, read forward; the slices of other
        blocks are not written.  With ``project`` each block is then
        projected exactly for its constraint and assigned at once
        (Gauss-Seidel), so the constraint holds to round-off right after its
        update, and both objects drop the steps whose start side holds the
        block (``_stale``): a later read recomputes them from the scalings
        current then, so the pass is exact on every path family.  A
        ``messages`` argument must be ``state``'s own.

        An equality block takes log target minus log aggregate, with 0/0 =
        0; material target mass on zero-aggregate bins means the ordering
        structure cannot place it there at all: hard infeasibility.  A
        capacity block takes min(log cap - log aggregate, 0), 0 on slack
        bins, the difference taken on live bins only, so a zero cap's -inf
        meets no -inf aggregate.
        """
        if messages is None:
            messages = self.compute_messages(state)
        frontier = _Messages(self, state, 0)
        model = np.empty(self._size)
        for block in blocks:
            part = self._layout[block]
            agg = self._aggregate(block, messages, frontier)
            with np.errstate(over="ignore"):
                model[part] = np.exp(state.x[part] + agg)
            if not project:
                continue
            dead, log_bound = agg == -np.inf, self.log_bound[part]
            if block in self.caps:
                state.x[part] = np.minimum(np.subtract(log_bound, agg, out=np.zeros_like(agg),
                                                       where=~dead), 0.0)
            elif np.any(dead & (self.bound[part] > NEGLIGIBLE_MASS)):
                label = f"pair {block}" if block in self.joints else block
                raise UnreachableMassError(f"target mass at {label} sits on bins with zero aggregate flux")
            else:
                state.x[part] = np.subtract(log_bound, agg, out=np.full_like(agg, -np.inf),
                                            where=~dead)
            for done, stale in zip((frontier.done, messages.done), self._stale[block]):
                for step in stale:
                    done.pop(step, None)
        return model

    def _update_block(self, state: SinkhornState, block) -> np.ndarray:
        """Project one block by a pass over its own paths' messages; returns its flat linear scaling."""
        self._pass(state, [block], True, _Messages(self, state, 1))
        with np.errstate(over="ignore"):
            return np.exp(state.views[block])

    def sweep(self, state: SinkhornState, messages=None) -> tuple[float, float, float]:
        """One projecting pass over the blocks: sources (or joint pairs), interior nodes, sinks.

        Returns the iteration diagnostics (E0, ET, V): each constraint's L1
        violation measured from the model marginal seen just before its own
        block update (``_pass``).  One backward and one forward message
        object serve the sweep on every path family.  Where the interior
        order follows every path, the backward messages at a block depend
        only on nodes that come later in the sweep, so no step a block
        update drops is read again and each distinct step runs once; over a
        cyclic family a dropped step runs again on its next read.  Joint
        blocks, which come first, read the interior chains at node 0 (they
        leave Lambda out) and make no step stale, so the frontier's first
        read of the head scalings comes after them.  Every block update is
        the exact projection (block coordinate ascent).
        """
        return self.violations(self._pass(state, self._layout, True, messages))

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


def aggregate_marginals(state: SinkhornState) -> ModelMarginals:
    """Model marginal of every block of ``state``, from one message pass."""
    system = state.system
    model = system._pass(state, system._layout, False)
    m = {block: model[part] for block, part in system._layout.items() if block not in system.joints}
    joint_m = {pair: system.dense(pair, model[system._layout[pair]], _Linear)
               for pair in system.joints}
    for (src, snk), mat in joint_m.items():  # coupled mode's boundary nodes
        m[src] = m.get(src, 0.0) + mat.sum(axis=1)
        m[snk] = m.get(snk, 0.0) + mat.sum(axis=0)
    return ModelMarginals(model=model, m=m, joint_m=joint_m)
