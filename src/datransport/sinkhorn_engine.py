"""Path-wise entropic scaling with shared nodal multipliers.

Every source carries one positive scaling vector u, every sink one vector
v, and every interior node one capacity multiplier w in (0, 1] shared by
all paths through it.  In coupled mode the boundary pair (source, sink)
carries a joint matrix Lambda instead of u and v.  Model marginals are
assembled from forward/backward chain messages per path; each block update
is the exact projection for its constraint, computed from an aggregate
that excludes the node's own scaling (so the constraint holds to round-off
immediately after the update).

Message passing runs either in the linear domain (plain mat-vec products)
or the log domain (log-sum-exp on one working array per step), selected by
config or by the underflow heuristic in :mod:`datransport.kernels`.

An independent-mode Gauss-Seidel sweep over an order-compatible path
family costs one backward-only message pass; the primal transport cost is
computed on demand, never per sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .errors import BadParamError, NonFiniteError, PlanTooLargeError, UnreachableMassError
from .grid_measures import JointMeasure, Measure
from .kernels import PairKernel, build_pair_kernel, use_log_domain
from .network import Path, TransportNetwork, path_cost_terms, validate_paths

# Target mass on structurally unreachable bins below this threshold is
# dropped (scaling zero); above it, the instance is reported infeasible.
NEGLIGIBLE_MASS = 1e-12

GAUSS_SEIDEL = "gauss-seidel"
JACOBI = "jacobi"

INDEPENDENT = "independent"
COUPLED = "coupled"

# Anderson mixing of the Gauss-Seidel fixed point (see ``solve``): plain
# sweeps before the first mixing step, and past iterates kept for mixing.
ANDERSON_WARMUP = 100
ANDERSON_MEMORY = 5


@dataclass
class SolverConfig:
    epsilon: float = 0.05
    tol: float = 1e-6
    max_iter: int = 5000
    sweep: str = GAUSS_SEIDEL
    log_domain: bool | None = None  # None = auto heuristic
    anneal_every: int | None = None  # halve epsilon every N sweeps when set
    epsilon_min: float = 1e-3

    def __post_init__(self):
        if not self.epsilon > 0:
            raise BadParamError(f"epsilon must be positive, got {self.epsilon}")
        if self.tol < 0:
            raise BadParamError(f"tol must be nonnegative, got {self.tol}")
        if self.max_iter < 1:
            raise BadParamError(f"max_iter must be positive, got {self.max_iter}")
        if self.sweep not in (GAUSS_SEIDEL, JACOBI):
            raise BadParamError(f"sweep must be {GAUSS_SEIDEL!r} or {JACOBI!r}")


@dataclass(eq=False)
class SinkhornState:
    """Scalings of one solve; vectors live in the active (log or linear) domain."""

    system: "PathSystem"
    epsilon: float
    log_domain: bool
    mode: str
    u: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    lam: dict[tuple[str, str], np.ndarray]
    w: dict[str, np.ndarray]
    iteration: int = 0

    def _linear(self, x: np.ndarray) -> np.ndarray:
        if self.log_domain:
            # extreme duals may overflow exp; inf entries are an honest view
            with np.errstate(over="ignore"):
                return np.exp(x)
        return x.copy()

    def u_linear(self, node: str) -> np.ndarray:
        return self._linear(self.u[node])

    def v_linear(self, node: str) -> np.ndarray:
        return self._linear(self.v[node])

    def w_linear(self, node: str) -> np.ndarray:
        return self._linear(self.w[node])

    def lam_linear(self, pair: tuple[str, str]) -> np.ndarray:
        return self._linear(self.lam[pair])


class _NoForward:
    """``ChainMessages.fwd`` of a backward-only message pass."""

    def __getitem__(self, p_idx):
        raise BadParamError("backward-only messages carry no forward half; "
                            "use compute_messages(state)")


@dataclass(eq=False)
class ChainMessages:
    """Per-path forward/backward vectors (independent mode).

    ``fwd[p][l]`` sums kernel chains over all prefixes ending at node l,
    including the scalings of nodes 0..l-1; ``bwd[p][l]`` symmetrically
    over suffixes with the scalings of nodes l+1 onward.  The product
    fwd*own scaling*bwd summed over the grid is the path's total mass,
    identical at every node of the path.  A backward-only pass leaves a
    placeholder in ``fwd`` that raises on any read.
    """

    fwd: list[list[np.ndarray]] | _NoForward
    bwd: list[list[np.ndarray]]
    log_domain: bool


@dataclass(eq=False)
class CoupledMessages:
    """Per-path forward/backward matrices conditioned on the boundary bins.

    ``fwd[p][l][i, t]`` aggregates chains from departure bin i to node l at
    bin t (scalings of interior nodes 1..l-1 included); ``bwd[p][l][t, j]``
    the mirror image toward arrival bin j.  ``fwd[p][-1]`` is the interior
    chain matrix of the path (all interior multipliers, no Lambda).
    """

    fwd: list[list[np.ndarray]]
    bwd: list[list[np.ndarray]]
    log_domain: bool


@dataclass(eq=False)
class ModelMarginals:
    """Aggregated node marginals; ``a`` excludes each node's own scaling."""

    m: dict[str, np.ndarray]
    a: dict[str, np.ndarray]
    joint_m: dict[tuple[str, str], np.ndarray]
    joint_a: dict[tuple[str, str], np.ndarray]


@dataclass(eq=False)
class ConvergenceReport:
    e0: np.ndarray
    et: np.ndarray
    v: np.ndarray
    objective: np.ndarray  # dual objective trace
    converged: bool
    iterations: int
    tol: float
    epsilon_final: float
    annealed: bool = False

    @property
    def total(self) -> np.ndarray:
        return self.e0 + self.et + self.v


@dataclass(eq=False)
class PlanCells:
    """Sparse extraction of one path plan: heaviest cells first."""

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
    """Log-sum-exp along one axis of a 2-D array, overwriting ``a``; -inf slices stay -inf."""
    amax = np.max(a, axis=axis, keepdims=True)
    amax[~np.isfinite(amax)] = 0.0
    a -= amax
    np.exp(a, out=a)
    with np.errstate(divide="ignore"):
        return np.log(a.sum(axis=axis)) + amax.squeeze(axis)


def _lse_cols(logk: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """out[t] = LSE_s(logk[s, t] + lv[s])."""
    return _lse_reduce(logk + lv[:, None], axis=0)


def _lse_rows(logk: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """out[s] = LSE_t(logk[s, t] + lv[t])."""
    return _lse_reduce(logk + lv[None, :], axis=1)


def _forward_step(kern: PairKernel, f: np.ndarray, s: np.ndarray, log_domain: bool) -> np.ndarray:
    """Forward message across one edge from message ``f`` and scaling ``s`` at its tail."""
    if log_domain:
        return _lse_cols(kern.logK, f + s)
    return kern.K.T @ (f * s)


def _lse_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[i, j] = LSE_k(a[i, k] + b[k, j])."""
    return logsumexp(a[:, :, None] + b[None, :, :], axis=1)


class PathSystem:
    """Compiled problem: grid, paths, kernels, targets, caps, incidence."""

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
        self.interior_order, order_compatible = self._interior_topo_order()
        # the exact single-pass sweep reads only backward messages
        self._backward_only = mode == INDEPENDENT and config.sweep == GAUSS_SEIDEL and order_compatible

        # node -> [(path index, position)]
        self.positions: dict[str, list[tuple[int, int]]] = {}
        for p_idx, p in enumerate(self.paths):
            for pos, node in enumerate(p.nodes):
                self.positions.setdefault(node, []).append((p_idx, pos))

        self.path_weights = [path_cost_terms(net, p) for p in self.paths]
        w_max = max(float(w.max()) for w in self.path_weights)
        eps_floor = config.epsilon
        if config.anneal_every:
            eps_floor = min(eps_floor, config.epsilon_min)
        if config.log_domain is None:
            self.log_domain = use_log_domain(eps_floor, w_max, self.grid.t_f)
        else:
            self.log_domain = bool(config.log_domain)

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

        self.epsilon = config.epsilon
        self._kernel_cache: dict[float, PairKernel] = {}
        self._rebuild_kernels()

    def _interior_topo_order(self) -> tuple[list[str], bool]:
        """Interior sweep order: topological in path precedence, first-appearance ties.

        When the precedence relation induced by the paths is acyclic (it is
        for any DAG-like path family), the returned order visits each path's
        interior nodes in path order, which allows the single-pass exact
        sweep.  A cyclic relation falls back to plain first-appearance order
        with per-block message recomputation.
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
    # kernels / epsilon schedule

    def _rebuild_kernels(self) -> None:
        self._kernel_cache = {}
        t = self.grid.centers
        gap = t[None, :] - t[:, None]
        ok = gap > 0
        self._cost_mats: dict[float, np.ndarray] = {}
        for weights in self.path_weights:
            for w in weights:
                key = float(w)
                if key not in self._kernel_cache:
                    self._kernel_cache[key] = build_pair_kernel(self.grid, key, self.epsilon)
                    cost_mat = np.zeros_like(gap)
                    cost_mat[ok] = key / gap[ok]
                    self._cost_mats[key] = cost_mat
        self.path_kernels = [[self._kernel_cache[float(w)] for w in weights]
                             for weights in self.path_weights]

    def set_epsilon(self, epsilon: float, state: SinkhornState | None = None) -> None:
        """Change the regularization, keeping dual variables (warm start)."""
        if not epsilon > 0:
            raise BadParamError(f"epsilon must be positive, got {epsilon}")
        ratio = self.epsilon / epsilon
        if state is not None:
            with np.errstate(over="ignore"):
                banks = [{key: x * ratio if state.log_domain else x ** ratio
                          for key, x in bank.items()}
                         for bank in (state.u, state.v, state.w, state.lam)]
            # -inf is a dead bin in the log domain; +inf and NaN are overflow
            bad = [key for bank in banks for key, x in bank.items() if not np.all(x < np.inf)]
            if bad:
                raise NonFiniteError(f"scalings of {bad} overflow when epsilon goes "
                                     f"{self.epsilon!r} -> {epsilon!r}")
            state.u, state.v, state.w, state.lam = banks
            state.epsilon = epsilon
        self.epsilon = epsilon
        self._rebuild_kernels()

    # ------------------------------------------------------------------
    # state

    def initial_state(self) -> SinkhornState:
        n = self.n_t
        one = self._unit(self.log_domain)
        one_mat = np.zeros((n, n)) if self.log_domain else np.ones((n, n))
        u = {s: one.copy() for s in self.source_order} if self.mode == INDEPENDENT else {}
        v = {s: one.copy() for s in self.sink_order} if self.mode == INDEPENDENT else {}
        lam = {pair: one_mat.copy() for pair in self.pairs}
        w = {node: one.copy() for node in self.interior_order}
        return SinkhornState(system=self, epsilon=self.epsilon, log_domain=self.log_domain,
                             mode=self.mode, u=u, v=v, lam=lam, w=w)

    def _scaling_at(self, state: SinkhornState, path: Path, pos: int) -> np.ndarray:
        """Active-domain scaling vector of the node at ``pos`` (neutral at coupled boundaries)."""
        if self.mode == COUPLED and pos in (0, path.n_p - 1):
            return self._unit(state.log_domain)
        bank = state.u if pos == 0 else state.v if pos == path.n_p - 1 else state.w
        return bank[path.nodes[pos]]

    # ------------------------------------------------------------------
    # messages

    def compute_messages(self, state: SinkhornState, backward_only: bool = False):
        """Chain messages; ``backward_only`` skips the forward half (independent mode)."""
        if self.mode == COUPLED:
            return self._coupled_messages(state)
        log = state.log_domain
        fwd = _NoForward() if backward_only else []
        bwd = []
        for p_idx, path in enumerate(self.paths):
            m = path.n_edges
            svecs = [self._scaling_at(state, path, pos) for pos in range(m + 1)]
            kernels = self.path_kernels[p_idx]
            if not backward_only:
                f = [self._unit(log)]
                for l in range(1, m + 1):
                    f.append(_forward_step(kernels[l - 1], f[l - 1], svecs[l - 1], log))
                fwd.append(f)
            b = [self._unit(log)] * (m + 1)
            for l in range(m - 1, -1, -1):
                b[l] = (_lse_rows(kernels[l].logK, b[l + 1] + svecs[l + 1]) if log
                        else kernels[l].K @ (b[l + 1] * svecs[l + 1]))
            bwd.append(b)
        return ChainMessages(fwd=fwd, bwd=bwd, log_domain=log)

    def _unit(self, log_domain: bool) -> np.ndarray:
        """Neutral message or scaling vector of the active domain."""
        return np.zeros(self.n_t) if log_domain else np.ones(self.n_t)

    def _coupled_messages(self, state: SinkhornState) -> CoupledMessages:
        n = self.n_t
        if state.log_domain:
            eye = np.full((n, n), -np.inf)
            np.fill_diagonal(eye, 0.0)
        else:
            eye = np.eye(n)
        fwd, bwd = [], []
        for p_idx, path in enumerate(self.paths):
            m = path.n_edges
            svecs = [self._scaling_at(state, path, pos) for pos in range(m + 1)]
            kernels = self.path_kernels[p_idx]
            if state.log_domain:
                f = [eye.copy()]
                for l in range(1, m + 1):
                    f.append(_lse_matmul(f[l - 1] + svecs[l - 1][None, :], kernels[l - 1].logK))
                b: list[np.ndarray] = [np.empty(0)] * (m + 1)
                b[m] = eye.copy()
                for l in range(m - 1, -1, -1):
                    b[l] = _lse_matmul(kernels[l].logK + svecs[l + 1][None, :], b[l + 1])
            else:
                f = [eye.copy()]
                for l in range(1, m + 1):
                    f.append((f[l - 1] * svecs[l - 1][None, :]) @ kernels[l - 1].K)
                b = [np.empty(0)] * (m + 1)
                b[m] = eye.copy()
                for l in range(m - 1, -1, -1):
                    b[l] = (kernels[l].K * svecs[l + 1][None, :]) @ b[l + 1]
            fwd.append(f)
            bwd.append(b)
        return CoupledMessages(fwd=fwd, bwd=bwd, log_domain=state.log_domain)

    # ------------------------------------------------------------------
    # aggregates and marginals

    def _node_aggregate(self, state: SinkhornState, messages, node: str) -> np.ndarray:
        """Active-domain aggregate over paths through ``node``, excluding its scaling."""
        if self.mode == COUPLED and node not in self.interior_order:
            raise BadParamError(f"{node} is a boundary node; coupled mode aggregates the joint instead")
        if state.log_domain:
            acc = np.full(self.n_t, -np.inf)
        else:
            acc = np.zeros(self.n_t)
        for p_idx, pos in self.positions[node]:
            if self.mode == COUPLED:
                contrib = self._coupled_interior_term(state, messages, p_idx, pos)
            elif state.log_domain:
                contrib = messages.fwd[p_idx][pos] + messages.bwd[p_idx][pos]
            else:
                contrib = messages.fwd[p_idx][pos] * messages.bwd[p_idx][pos]
            acc = np.logaddexp(acc, contrib) if state.log_domain else acc + contrib
        return acc

    def _coupled_interior_term(self, state: SinkhornState, messages: CoupledMessages,
                               p_idx: int, pos: int) -> np.ndarray:
        pair = (self.paths[p_idx].source, self.paths[p_idx].sink)
        lam = state.lam[pair]
        f = messages.fwd[p_idx][pos]
        b = messages.bwd[p_idx][pos]
        if state.log_domain:
            # g[i, t] = LSE_j(lam[i, j] + b[t, j]); out[t] = LSE_i(f[i, t] + g[i, t])
            g = _lse_matmul(lam, b.T)
            return logsumexp(f + g, axis=0)
        return np.einsum("ij,it,tj->t", lam, f, b, optimize=True)

    def _pair_aggregate(self, state: SinkhornState, messages: CoupledMessages,
                        pair: tuple[str, str]) -> np.ndarray:
        """Sum of interior chain matrices over the pair's paths (excludes Lambda)."""
        if state.log_domain:
            acc = np.full((self.n_t, self.n_t), -np.inf)
        else:
            acc = np.zeros((self.n_t, self.n_t))
        for p_idx in self.pair_paths[pair]:
            last = self.paths[p_idx].n_edges
            chain = messages.fwd[p_idx][last]
            acc = np.logaddexp(acc, chain) if state.log_domain else acc + chain
        return acc

    def model_marginals(self, state: SinkhornState, messages=None) -> ModelMarginals:
        if messages is None:
            messages = self.compute_messages(state)
        m: dict[str, np.ndarray] = {}
        a: dict[str, np.ndarray] = {}
        joint_m: dict[tuple[str, str], np.ndarray] = {}
        joint_a: dict[tuple[str, str], np.ndarray] = {}
        boundary = [] if self.mode == COUPLED else self.source_order + self.sink_order
        with np.errstate(over="ignore"):
            for node in boundary + self.interior_order:
                agg = self._node_aggregate(state, messages, node)
                if node in self.mu0:
                    own = state.u[node]
                elif node in self.muT:
                    own = state.v[node]
                else:
                    own = state.w[node]
                if state.log_domain:
                    a[node] = np.exp(agg)
                    m[node] = np.exp(agg + own)
                else:
                    a[node] = agg
                    m[node] = agg * own
            for pair in self.pairs:
                agg = self._pair_aggregate(state, messages, pair)
                lam = state.lam[pair]
                if state.log_domain:
                    joint_a[pair] = np.exp(agg)
                    joint_m[pair] = np.exp(agg + lam)
                else:
                    joint_a[pair] = agg
                    joint_m[pair] = agg * lam
        return ModelMarginals(m=m, a=a, joint_m=joint_m, joint_a=joint_a)

    def violations(self, mm: ModelMarginals) -> tuple[float, float, float]:
        """L1 source error E0, sink error ET, capacity excess V."""
        if self.mode == COUPLED:
            e0 = sum(float(np.abs(mm.joint_m[pair] - self.joints[pair]).sum())
                     for pair in self.pairs)
            et = 0.0
        else:
            e0 = sum(float(np.abs(mm.m[s] - self.mu0[s]).sum()) for s in self.source_order)
            et = sum(float(np.abs(mm.m[s] - self.muT[s]).sum()) for s in self.sink_order)
        v = 0.0
        for node in self.interior_order:
            excess = mm.m[node] - self.caps[node]
            v += float(np.maximum(excess, 0.0).sum())
        return e0, et, v

    # ------------------------------------------------------------------
    # block updates

    @staticmethod
    def _target_over_aggregate(target: np.ndarray, agg: np.ndarray, log_domain: bool,
                               label: str) -> np.ndarray:
        """Exact equality projection target/aggregate with 0/0 = 0.

        Material target mass on zero-aggregate bins means the ordering
        structure cannot place it there at all: hard infeasibility.
        """
        if log_domain:
            dead = np.isneginf(agg)
        else:
            dead = agg <= 0
        if np.any(dead & (target > NEGLIGIBLE_MASS)):
            raise UnreachableMassError(f"target mass at {label} sits on bins with zero aggregate flux")
        if log_domain:
            with np.errstate(divide="ignore"):
                lt = np.log(target)
            out = np.full_like(agg, -np.inf)
            ok = ~dead
            out[ok] = lt[ok] - agg[ok]
            return out
        out = np.zeros_like(target)
        np.divide(target, agg, out=out, where=~dead)
        return out

    @staticmethod
    def _cap_over_aggregate(cap: np.ndarray, agg: np.ndarray, log_domain: bool) -> np.ndarray:
        """Clipped capacity projection min(cap/aggregate, 1); slack bins get 1."""
        if log_domain:
            dead = np.isneginf(agg)
            with np.errstate(divide="ignore"):
                lcap = np.log(cap)
            return np.where(dead, 0.0, np.minimum(lcap - agg, 0.0))
        ratio = np.full_like(agg, np.inf)
        np.divide(cap, agg, out=ratio, where=agg > 0)
        return np.minimum(ratio, 1.0)

    def _model_from(self, own: np.ndarray, agg: np.ndarray, log_domain: bool) -> np.ndarray:
        if log_domain:
            with np.errstate(over="ignore"):
                return np.exp(own + agg)
        return own * agg

    def _apply_boundary(self, state: SinkhornState, node: str, messages) -> float:
        """Update one boundary block; returns its pre-update L1 violation."""
        agg = self._node_aggregate(state, messages, node)
        if node in self.mu0:
            target, bank = self.mu0[node], state.u
        elif node in self.muT:
            target, bank = self.muT[node], state.v
        else:
            raise BadParamError(f"{node} is not a boundary node")
        before = self._model_from(bank[node], agg, state.log_domain)
        bank[node] = self._target_over_aggregate(target, agg, state.log_domain, node)
        return float(np.abs(before - target).sum())

    def _apply_capacity(self, state: SinkhornState, node: str, messages) -> float:
        """Update one capacity block; returns its pre-update L1 cap excess."""
        if node not in self.caps:
            raise BadParamError(f"{node} is not an interior node")
        agg = self._node_aggregate(state, messages, node)
        before = self._model_from(state.w[node], agg, state.log_domain)
        state.w[node] = self._cap_over_aggregate(self.caps[node], agg, state.log_domain)
        return float(np.maximum(before - self.caps[node], 0.0).sum())

    def _apply_coupled_boundary(self, state: SinkhornState, pair: tuple[str, str],
                                messages) -> float:
        """Update one joint block; returns its pre-update L1 violation."""
        agg = self._pair_aggregate(state, messages, pair)
        before = self._model_from(state.lam[pair], agg, state.log_domain)
        state.lam[pair] = self._target_over_aggregate(self.joints[pair], agg,
                                                      state.log_domain, f"pair {pair}")
        return float(np.abs(before - self.joints[pair]).sum())

    def boundary_update(self, state: SinkhornState, node: str, messages=None) -> np.ndarray:
        """Match the node's marginal target exactly; returns the new linear scaling."""
        if self.mode == COUPLED:
            raise BadParamError("coupled mode updates the joint via coupled_boundary_update")
        if messages is None:
            messages = self.compute_messages(state)
        self._apply_boundary(state, node, messages)
        bank = state.u if node in self.mu0 else state.v
        return state._linear(bank[node])

    def capacity_update(self, state: SinkhornState, node: str, messages=None) -> np.ndarray:
        """Clip the node's marginal to its cap; returns the new linear scaling."""
        if messages is None:
            messages = self.compute_messages(state)
        self._apply_capacity(state, node, messages)
        return state._linear(state.w[node])

    def coupled_boundary_update(self, state: SinkhornState, pair: tuple[str, str],
                                messages=None) -> np.ndarray:
        """Match the joint boundary law exactly; returns the new linear Lambda."""
        if self.mode != COUPLED:
            raise BadParamError("coupled_boundary_update requires coupled mode")
        if messages is None:
            messages = self.compute_messages(state)
        self._apply_coupled_boundary(state, pair, messages)
        return state._linear(state.lam[pair])

    # ------------------------------------------------------------------
    # sweeps

    def sweep(self, state: SinkhornState, messages=None) -> tuple[float, float, float]:
        """One full block pass: boundaries (or joint), then interior capacities.

        Returns the iteration diagnostics (E0, ET, V): each constraint's L1
        violation measured from the model marginal seen just before its own
        block update.  Gauss-Seidel refreshes messages before every block
        (exact block coordinate ascent); a ``messages`` argument, when given,
        is trusted to describe the incoming state and serves the first block.
        Jacobi computes every new scaling from one message pass and assigns
        them together.
        """
        if self.config.sweep == JACOBI:
            if messages is None:
                messages = self.compute_messages(state)
            e0 = et = v = 0.0
            new_u = {}
            new_v = {}
            new_lam = {}
            new_w = {}
            log = state.log_domain
            if self.mode == COUPLED:
                for pair in self.pairs:
                    agg = self._pair_aggregate(state, messages, pair)
                    e0 += float(np.abs(self._model_from(state.lam[pair], agg, log)
                                       - self.joints[pair]).sum())
                    new_lam[pair] = self._target_over_aggregate(
                        self.joints[pair], agg, log, f"pair {pair}")
            else:
                for node in self.source_order:
                    agg = self._node_aggregate(state, messages, node)
                    e0 += float(np.abs(self._model_from(state.u[node], agg, log)
                                       - self.mu0[node]).sum())
                    new_u[node] = self._target_over_aggregate(self.mu0[node], agg, log, node)
                for node in self.sink_order:
                    agg = self._node_aggregate(state, messages, node)
                    et += float(np.abs(self._model_from(state.v[node], agg, log)
                                       - self.muT[node]).sum())
                    new_v[node] = self._target_over_aggregate(self.muT[node], agg, log, node)
            for node in self.interior_order:
                agg = self._node_aggregate(state, messages, node)
                v += float(np.maximum(self._model_from(state.w[node], agg, log)
                                      - self.caps[node], 0.0).sum())
                new_w[node] = self._cap_over_aggregate(self.caps[node], agg, log)
            state.u.update(new_u)
            state.v.update(new_v)
            state.lam.update(new_lam)
            state.w.update(new_w)
            return e0, et, v
        if self._backward_only:
            return self._fast_gauss_seidel_sweep(state, messages)
        e0 = et = v = 0.0
        if self.mode == COUPLED:
            for pair in self.pairs:
                e0 += self._apply_coupled_boundary(state, pair,
                                                   messages or self.compute_messages(state))
                messages = None
        else:
            for node in self.source_order:
                e0 += self._apply_boundary(state, node, messages or self.compute_messages(state))
                messages = None
        for node in self.interior_order:
            v += self._apply_capacity(state, node, messages or self.compute_messages(state))
            messages = None
        if self.mode == INDEPENDENT:
            for node in self.sink_order:
                et += self._apply_boundary(state, node, self.compute_messages(state))
        return e0, et, v

    def _fast_gauss_seidel_sweep(self, state: SinkhornState,
                                 messages=None) -> tuple[float, float, float]:
        """Exact Gauss-Seidel in one backward pass plus a forward frontier.

        At each block, backward messages built from the incoming state are
        still current (nodes after the block come later in the sweep), while
        forward messages are extended lazily and therefore already include
        every scaling updated earlier in the sweep.  This makes each block
        update the exact constraint projection at a single message-pass cost;
        ``messages`` may be backward-only.
        """
        if messages is None:
            messages = self.compute_messages(state, backward_only=True)
        bwd = messages.bwd
        log = state.log_domain
        n_paths = len(self.paths)
        frontier = [0] * n_paths
        fvec = [self._unit(log) for _ in range(n_paths)]

        def advance(p_idx: int, pos: int) -> None:
            path = self.paths[p_idx]
            kernels = self.path_kernels[p_idx]
            while frontier[p_idx] < pos:
                l = frontier[p_idx]
                s = self._scaling_at(state, path, l)
                fvec[p_idx] = _forward_step(kernels[l], fvec[p_idx], s, log)
                frontier[p_idx] += 1

        def aggregate(node: str) -> np.ndarray:
            acc = np.full(self.n_t, -np.inf) if log else np.zeros(self.n_t)
            for p_idx, pos in self.positions[node]:
                advance(p_idx, pos)
                if log:
                    acc = np.logaddexp(acc, fvec[p_idx] + bwd[p_idx][pos])
                else:
                    acc = acc + fvec[p_idx] * bwd[p_idx][pos]
            return acc

        e0 = et = v = 0.0
        for node in self.source_order:
            agg = aggregate(node)
            e0 += float(np.abs(self._model_from(state.u[node], agg, log) - self.mu0[node]).sum())
            state.u[node] = self._target_over_aggregate(self.mu0[node], agg, log, node)
        for node in self.interior_order:
            agg = aggregate(node)
            v += float(np.maximum(self._model_from(state.w[node], agg, log)
                                  - self.caps[node], 0.0).sum())
            state.w[node] = self._cap_over_aggregate(self.caps[node], agg, log)
        for node in self.sink_order:
            agg = aggregate(node)
            et += float(np.abs(self._model_from(state.v[node], agg, log) - self.muT[node]).sum())
            state.v[node] = self._target_over_aggregate(self.muT[node], agg, log, node)
        return e0, et, v

    # ------------------------------------------------------------------
    # diagnostics

    def path_masses(self, state: SinkhornState, messages=None) -> np.ndarray:
        """Total model mass per path (independent mode: read at the source end)."""
        if messages is None:
            messages = self.compute_messages(state, backward_only=True)
        out = np.empty(len(self.paths))
        for p_idx, path in enumerate(self.paths):
            if self.mode == COUPLED:
                chain = messages.fwd[p_idx][path.n_edges]
                scaling = state.lam[(path.source, path.sink)]
            else:
                chain = messages.bwd[p_idx][0]
                scaling = state.u[path.source]
            if state.log_domain:
                out[p_idx] = np.exp(logsumexp(chain + scaling))
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
        if self.mode == COUPLED:
            pair = (path.source, path.sink)
            lam = state.lam[pair]
            f = messages.fwd[p_idx][l - 1]
            b = messages.bwd[p_idx][l]
            if state.log_domain:
                g = _lse_matmul(lam, b.T)  # g[i, t]
                left = logsumexp(f[:, :, None] + g[:, None, :], axis=0)  # left[s, t]
                return np.exp(left + s_prev[:, None] + kern.logK + s_next[None, :])
            g = np.einsum("ij,tj->it", lam, b, optimize=True)
            left = f.T @ g  # left[s, t]
            return left * s_prev[:, None] * kern.K * s_next[None, :]
        f = messages.fwd[p_idx][l - 1]
        b = messages.bwd[p_idx][l]
        if state.log_domain:
            with np.errstate(over="ignore"):
                return np.exp((f + s_prev)[:, None] + kern.logK + (s_next + b)[None, :])
        # fold the kernel in before the outer product: huge scalings at
        # near-empty bins would otherwise overflow even though the marginal
        # itself is tame
        left = kern.K * (f * s_prev)[:, None]
        return left * (s_next * b)[None, :]

    def transport_cost(self, state: SinkhornState, messages=None) -> float:
        """<c, pi> summed over paths (forbidden transitions carry no mass)."""
        if messages is None:
            messages = self.compute_messages(state)
        total = 0.0
        for p_idx, path in enumerate(self.paths):
            for l in range(1, path.n_p):
                pm = self._edge_pair_marginal(state, messages, p_idx, l)
                cost_mat = self._cost_mats[float(self.path_weights[p_idx][l - 1])]
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
        dead = -np.inf if state.log_domain else 0.0
        mass = sum(float(self.muT[s][state.v[s] > dead].sum()) for s in self.sink_order)
        return self.epsilon * (self._dual_scaling_terms(state) - mass)

    def _dual_scaling_terms(self, state: SinkhornState) -> float:
        """Sum of <log scaling, target> over all blocks (the dual without its mass term)."""

        def log_scale(vec: np.ndarray) -> np.ndarray:
            if state.log_domain:
                return vec
            with np.errstate(divide="ignore"):
                return np.log(vec)

        def masked_dot(lscale: np.ndarray, target: np.ndarray) -> float:
            # sub-threshold target mass on dead bins is dropped by the
            # updates, so it is excluded here as well
            mask = target > NEGLIGIBLE_MASS
            if np.any(np.isneginf(lscale[mask])):
                return -np.inf
            return float(np.dot(lscale[mask], target[mask]))

        total = 0.0
        if self.mode == COUPLED:
            for pair in self.pairs:
                total += masked_dot(log_scale(state.lam[pair]).ravel(),
                                    self.joints[pair].ravel())
        else:
            for node in self.source_order:
                total += masked_dot(log_scale(state.u[node]), self.mu0[node])
            for node in self.sink_order:
                total += masked_dot(log_scale(state.v[node]), self.muT[node])
        for node in self.interior_order:
            cap = self.caps[node]
            gamma = log_scale(state.w[node])
            mask = np.isfinite(cap) & (cap > 0)
            total += float(np.dot(gamma[mask], cap[mask]))
        return total


class _AndersonMixer:
    """Safeguarded Anderson mixing of the independent-mode Gauss-Seidel sweep.

    Type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011)
    of the fixed point x = G(x), where x stacks the log-scalings (u, w, v)
    and G is one plain sweep.  The mixed point combines the last few G(x)
    with weights that minimise the combined residual G(x) - x in the
    target-weighted norm sum(target * r**2), the diagonal of the dual's
    curvature in the log-scalings.  Capacity multipliers are clipped back to
    w <= 1.  A mixed point replaces the plain one only if it is finite and
    its dual value is at least the plain point's; otherwise the plain point
    stands and the history restarts.  Dead bins (zero scaling) take no part
    in the mixing and stay dead.
    """

    def __init__(self, system: PathSystem):
        self.system = system
        n_src = len(system.source_order) * system.n_t
        self._w_block = slice(n_src, n_src + len(system.interior_order) * system.n_t)
        targets = ([system.mu0[s] for s in system.source_order]
                   + [np.where(np.isfinite(system.caps[n]), system.caps[n], 0.0)
                      for n in system.interior_order]
                   + [system.muT[s] for s in system.sink_order])
        self._sqrt_mass = np.sqrt(np.concatenate(targets))
        self.reset()

    def reset(self) -> None:
        self._f: list[np.ndarray] = []  # residuals G(x) - x on live bins
        self._g: list[np.ndarray] = []  # plain points G(x) on live bins
        self._live: np.ndarray | None = None

    def pack(self, state: SinkhornState) -> np.ndarray:
        """The state's log-scalings, stacked as sources, interior nodes, sinks."""
        system = self.system
        x = np.concatenate([state.u[s] for s in system.source_order]
                           + [state.w[n] for n in system.interior_order]
                           + [state.v[s] for s in system.sink_order])
        if state.log_domain:
            return x
        with np.errstate(divide="ignore"):
            return np.log(x)

    def _unpack(self, state: SinkhornState, x: np.ndarray) -> SinkhornState:
        system = self.system
        if not state.log_domain:
            with np.errstate(over="ignore"):
                x = np.exp(x)
        chunks = iter(np.split(x, len(x) // system.n_t))
        return replace(state,
                       u={s: next(chunks) for s in system.source_order},
                       w={n: next(chunks) for n in system.interior_order},
                       v={s: next(chunks) for s in system.sink_order})

    def step(self, state: SinkhornState, x_prev: np.ndarray):
        """Mix after the plain sweep that took the log-scalings ``x_prev`` to ``state``.

        Returns the messages of the mixed point when it replaces the plain
        point in ``state``, else None.
        """
        system = self.system
        g = self.pack(state)
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
        np.minimum(mixed[self._w_block], 0.0, out=mixed[self._w_block])
        trial = self._unpack(state, mixed)
        value = -np.inf
        # a live bin that overflows or underflows in the linear domain is not finite here
        if np.all(np.isfinite(self.pack(trial)[live])):
            with np.errstate(over="ignore", invalid="ignore"):
                messages = system.compute_messages(trial, backward_only=system._backward_only)
                value = system.dual_objective(trial, messages)
        if not value >= system._swept_dual_objective(state):
            self.reset()
            return None
        state.u, state.w, state.v = trial.u, trial.w, trial.v
        return messages


# ----------------------------------------------------------------------
# module-level operations


def flux_profile(state: SinkhornState, path_index: int, node: str, messages=None) -> np.ndarray:
    """Linear partial contraction at ``node`` for one path, excluding its own scaling."""
    system = state.system
    path = system.paths[path_index]
    if node not in path.nodes:
        raise BadParamError(f"{node} not on path {path}")
    pos = path.nodes.index(node)
    if messages is None:
        messages = system.compute_messages(state)
    if system.mode == COUPLED:
        if pos in (0, path.n_p - 1):
            raise BadParamError("boundary flux is a joint matrix in coupled mode")
        term = system._coupled_interior_term(state, messages, path_index, pos)
        return np.exp(term) if state.log_domain else term
    if state.log_domain:
        return np.exp(messages.fwd[path_index][pos] + messages.bwd[path_index][pos])
    return messages.fwd[path_index][pos] * messages.bwd[path_index][pos]


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
    """Run block sweeps until E0 + ET + V <= tol or the iteration budget ends.

    Each iteration executes one full sweep; its E0/ET/V row records every
    constraint's violation as seen just before that constraint's own block
    update, so all three diagnostics stay informative under Gauss-Seidel.
    The dual objective is evaluated on the state entering the iteration, from
    the messages its sweep uses.  The returned state is the output of the
    final sweep.  A non-finite E0+ET+V row, or an overflow when annealing,
    raises ``NonFiniteError``.

    Independent-mode Gauss-Seidel solves are Anderson-accelerated once
    ``ANDERSON_WARMUP`` plain sweeps have run; Jacobi sweeps and coupled
    mode are never mixed.  Contract:

    - a solve of at most ``ANDERSON_WARMUP`` sweeps is exactly the plain
      iteration, so equal-sweep comparisons with a dense oracle hold there
      and only there; past the warm-up the iterates differ from the plain
      ones;
    - after the warm-up, the state entering an iteration may be a mixed
      point (see ``_AndersonMixer``).  It is kept only if its dual value is
      at least that of the plain sweep output it replaces, so the dual
      trace stays nondecreasing; the iteration's E0/ET/V row then measures
      the violations of the sweep started from the mixed point;
    - ``set_epsilon`` (annealing) restarts the mixing history, and no
      mixing follows the final sweep.
    """
    config = config or SolverConfig()
    system = PathSystem(net, paths, mode=mode, config=config, joints=joints)
    state = system.initial_state()
    mixer = None
    if mode == INDEPENDENT and config.sweep == GAUSS_SEIDEL:
        mixer = _AndersonMixer(system)
    e0s: list[float] = []
    ets: list[float] = []
    vs: list[float] = []
    objs: list[float] = []
    annealed = False
    converged = False
    mixed_messages = None
    for _ in range(config.max_iter):
        # the previous iteration's messages stay referenced until replaced:
        # freeing them first lets the allocator hand the pages back and
        # fault them in again on every iteration
        if mixed_messages is None:
            messages = system.compute_messages(state, backward_only=system._backward_only)
        else:
            messages, mixed_messages = mixed_messages, None
        objs.append(system.dual_objective(state, messages))
        mixing = mixer is not None and state.iteration >= ANDERSON_WARMUP
        x_prev = mixer.pack(state) if mixing else None
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
        if (config.anneal_every and state.iteration % config.anneal_every == 0
                and system.epsilon > config.epsilon_min):
            system.set_epsilon(max(system.epsilon / 2.0, config.epsilon_min), state)
            annealed = True
            if mixer is not None:
                mixer.reset()
        elif mixing and state.iteration < config.max_iter:
            mixed_messages = mixer.step(state, x_prev)
    report = ConvergenceReport(
        e0=np.array(e0s), et=np.array(ets), v=np.array(vs),
        objective=np.array(objs), converged=converged, iterations=len(e0s), tol=config.tol,
        epsilon_final=system.epsilon, annealed=annealed)
    return state, report


def extract_plan(state: SinkhornState, path_index: int, max_cells: int = 4_000_000,
                 top_k: int | None = None, min_mass: float = 0.0) -> PlanCells:
    """Enumerate one path plan's cells, heaviest first.

    The full tensor has ``n_t ** n_p`` cells and must fit under
    ``max_cells``; use ``top_k`` or ``min_mass`` to truncate the result.
    """
    system = state.system
    path = system.paths[path_index]
    n_t = system.n_t
    n_cells = n_t ** path.n_p
    if n_cells > max_cells:
        raise PlanTooLargeError(f"{n_cells} cells exceed max_cells={max_cells}")
    shape = (n_t,) * path.n_p
    m = path.n_edges
    kernels = system.path_kernels[path_index]
    svecs = [system._scaling_at(state, path, pos) for pos in range(m + 1)]

    def axis_view(vec: np.ndarray, axis: int) -> np.ndarray:
        s = [1] * path.n_p
        s[axis] = n_t
        return vec.reshape(s)

    def pair_view(mat: np.ndarray, axis: int) -> np.ndarray:
        s = [1] * path.n_p
        s[axis] = n_t
        s[axis + 1] = n_t
        return mat.reshape(s)

    if state.log_domain:
        logplan = np.zeros(shape)
        for pos in range(m + 1):
            logplan = logplan + axis_view(svecs[pos], pos)
        for l in range(m):
            logplan = logplan + pair_view(kernels[l].logK, l)
        if system.mode == COUPLED:
            pair = (path.source, path.sink)
            lam = state.lam[pair]
            s = [1] * path.n_p
            s[0] = n_t
            s[-1] = n_t
            logplan = logplan + lam.reshape(s)
        plan = np.exp(logplan)
    else:
        plan = np.ones(shape)
        for pos in range(m + 1):
            plan = plan * axis_view(svecs[pos], pos)
        for l in range(m):
            plan = plan * pair_view(kernels[l].K, l)
        if system.mode == COUPLED:
            pair = (path.source, path.sink)
            lam = state.lam[pair]
            s = [1] * path.n_p
            s[0] = n_t
            s[-1] = n_t
            plan = plan * lam.reshape(s)

    flat = plan.ravel()
    total_mass = float(flat.sum())
    keep = np.flatnonzero(flat > min_mass)
    if top_k is not None and keep.size > top_k:
        part = np.argpartition(-flat[keep], top_k - 1)[:top_k]
        keep = keep[part]
    # deterministic ordering: mass descending, flat index as tie-break
    order = np.lexsort((keep, -flat[keep]))
    keep = keep[order]
    indices = np.stack(np.unravel_index(keep, shape), axis=1).astype(np.int64)
    times = system.grid.centers[indices]
    return PlanCells(path=path, indices=indices, times=times,
                     mass=flat[keep], total_mass=total_mass)


def node_marginals(state: SinkhornState) -> dict[str, np.ndarray]:
    """Convenience: current model marginal per node (linear)."""
    mm = aggregate_marginals(state)
    out = dict(mm.m)
    if state.mode == COUPLED:
        for pair, mat in mm.joint_m.items():
            src, snk = pair
            out.setdefault(src, np.zeros(state.system.n_t))
            out.setdefault(snk, np.zeros(state.system.n_t))
            out[src] = out[src] + mat.sum(axis=1)
            out[snk] = out[snk] + mat.sum(axis=0)
    return out
