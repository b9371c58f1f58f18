"""The solve loop, its Anderson mixing and the public operations on a state.

A solve runs at the one configured epsilon.  Each sweep is one cyclic
(Gauss-Seidel) pass over the blocks in sweep order, each projected from
the backward messages of the sweep's entering state
(``PathSystem.compute_messages``) and forward ones read block by block,
each direction one ``_Messages`` object.  A block update drops the
message steps whose start side holds the block, and a later read
recomputes them, so a sweep builds one message object per direction in
either mode and on every path family.  Past a warm-up, both modes mix
the sweeps (safeguarded Anderson mixing, ``_AndersonMixer``), whose
small Gram system is a pivoted Cholesky in Python floats
(``_gram_solve``): no solve calls LAPACK.  The primal transport cost is
computed on demand, never per sweep.

Each operation is written once, and none reads the mode, which
``PathSystem`` compiled into its blocks.  A public block update checks
its block's kind before any pass, then projects it by a pass over it
alone (``PathSystem._pass``, the loop a sweep runs over every block)
that builds its backward messages on read, so only its paths' steps run.  Only ``sweep``,
``dual_objective`` and ``path_masses`` take ``messages``, so that
``solve`` and the mixer share one pass; every other reader runs its own.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParamError, NonFiniteError
from .grid_measures import JointMeasure
from .messages import _Linear, _Messages
from .network import INDEPENDENT, TransportNetwork
from .sinkhorn_engine import ConvergenceReport, PathSystem, SinkhornState, SolverConfig, _integer

# Anderson mixing of the Gauss-Seidel fixed point (see ``solve``): plain
# sweeps before the first mixing step, and past iterates kept for mixing.
# Tests compare solve() with the dense oracle at up to 30 equal sweeps, inside the warm-up.
ANDERSON_WARMUP = 30
ANDERSON_MEMORY = 8


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
    multipliers are clipped back to w <= 1.  A finite mixed point is
    written into the state and tried there: it stays only if its dual
    value is at least that of the point the sweep started from, already
    traced; otherwise the plain point is written back bit for bit and the
    history restarts (as it does on a non-finite one).  So a step costs
    one message pass, the trial's, and none when the mixed point is the
    plain one bit for bit.  Dead bins (log-scaling -inf, such as a zero-cap
    bin or a Lambda cell of negligible target) take no part in the mixing
    and stay dead.
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
        and the dual value of the mixed point, now in ``state``, when it
        replaces the plain one, else None with ``state`` left plain.
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
        plain = g.copy()  # the trial runs on the state itself: g is state.x
        g[self._index] = mixed_live
        caps = g[system._caps_part]
        np.minimum(caps, 0.0, out=caps)
        if np.array_equal(g, plain):  # nothing was mixed: no trial to evaluate
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            messages = system.compute_messages(state)
            trial_value = system.dual_objective(state, messages)
        if not trial_value >= value:
            g[...] = plain
            self.reset()
            return None
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



def boundary_update(state: SinkhornState, node: str) -> np.ndarray:
    """Match the node's marginal target exactly; returns the new linear scaling."""
    system = state.system
    # each guard looks its block up in a list, which compares by == and hashes
    # nothing: a list given as a block is rejected like any unknown block
    if node not in [*system.mu0, *system.muT]:
        raise BadParamError(f"{node} is not a boundary node")
    if node not in system._layout:
        raise BadParamError("coupled mode updates the joint via coupled_boundary_update")
    return system._update_block(state, node)


def capacity_update(state: SinkhornState, node: str) -> np.ndarray:
    """Clip the node's marginal to its cap; returns the new linear scaling."""
    if node not in [*state.system.caps]:
        raise BadParamError(f"{node} is not an interior node")
    return state.system._update_block(state, node)


def coupled_boundary_update(state: SinkhornState, pair: tuple[str, str]) -> np.ndarray:
    """Match the joint boundary law exactly; returns the new linear Lambda, n_t x n_t."""
    system = state.system
    if pair not in [*system.joints]:
        raise BadParamError(f"coupled_boundary_update requires coupled mode and one of its "
                            f"joint pairs, got {pair!r}")
    return system.dense(pair, system._update_block(state, pair), _Linear)


def solve(net: TransportNetwork, paths, mode: str = INDEPENDENT,
          config: SolverConfig | None = None,
          joints: dict[tuple[str, str], JointMeasure] | None = None
          ) -> tuple[SinkhornState, ConvergenceReport]:
    """Run Gauss-Seidel sweeps at ``config.epsilon`` until E0 + ET + V <= tol or the budget ends.

    Each iteration computes the messages of its entering state and their
    dual objective, unless the previous Anderson step already did, runs one
    exact sweep on them, tests the stopping rule and, past the warm-up,
    takes an Anderson step.  Its row, (E0, ET, V, dual), holds every
    constraint's violation as seen just before its own block update, so
    all three stay informative, and the entering state's dual.  The final
    sweep's output is returned; a non-finite E0+ET+V raises ``NonFiniteError``.

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
    rows, point = [], None  # (E0, ET, V, dual) per sweep; (messages, dual) of the entering state
    while state.iteration < config.max_iter:
        # the previous iteration's messages stay referenced until replaced:
        # freeing them first lets the allocator hand the pages back and
        # fault them in again on every iteration
        if point is None:
            messages = system.compute_messages(state)
            point = messages, system.dual_objective(state, messages)
        messages, value = point
        mixing = state.iteration >= ANDERSON_WARMUP
        x_prev = state.x.copy() if mixing else None
        violations = system.sweep(state, messages)
        state.iteration += 1
        rows.append((*violations, value))
        residual = sum(violations)
        if not np.isfinite(residual):
            raise NonFiniteError(f"E0+ET+V is not finite at sweep {state.iteration}")
        if residual <= config.tol:
            break
        point = (mixer.step(state, x_prev, value)
                 if mixing and state.iteration < config.max_iter else None)
    e0, et, v, objective = map(np.array, zip(*rows))
    report = ConvergenceReport(e0=e0, et=et, v=v, objective=objective,
                               converged=residual <= config.tol, iterations=len(rows))
    return state, report
