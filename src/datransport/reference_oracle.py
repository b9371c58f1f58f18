"""Dense-tensor entropic scaling for small instances (correctness oracle).

This module deliberately shares no code with the message-passing engine:
plans are held as full tensors and every projection is an explicit
contraction.  Hard size caps fail loudly rather than degrade silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParamError, SizeCapError, UnreachableMassError

MAX_MARGINALS = 4
MAX_POINTS = 16

_NEGLIGIBLE = 1e-12


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """Nonnegative dense plan tensor within the oracle size caps."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        _check_shape(v.shape)
        if np.any(v < 0):
            raise BadParamError("plan values must be nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def shape(self):
        return self.values.shape

    def marginal(self, axis: int) -> np.ndarray:
        axes = tuple(a for a in range(self.values.ndim) if a != axis)
        return self.values.sum(axis=axes)


def _check_shape(shape) -> None:
    if len(shape) > MAX_MARGINALS:
        raise SizeCapError(f"at most {MAX_MARGINALS} marginals, got {len(shape)}")
    if any(n > MAX_POINTS for n in shape):
        raise SizeCapError(f"at most {MAX_POINTS} points per marginal, got {shape}")


def _check_run(epsilon: float, iters: int) -> None:
    if not 0 < epsilon < np.inf:
        raise BadParamError(f"epsilon must be finite and positive, got {epsilon}")
    if not iters >= 0:
        raise BadParamError(f"iters must be nonnegative, got {iters}")


def chain_cost_tensor(times: np.ndarray, weights) -> np.ndarray:
    """Additive reciprocal-gap cost over strictly increasing index tuples.

    Entry (i_0, ..., i_m) is ``sum_l w_l / (times[i_l] - times[i_{l-1}])``
    when the indices strictly increase and +inf otherwise.
    """
    times = np.asarray(times, dtype=float)
    weights = [float(w) for w in weights]
    n = times.size
    m = len(weights)
    shape = (n,) * (m + 1)
    _check_shape(shape)
    total = np.zeros(shape)
    for l, w in enumerate(weights):
        gap = times[None, :] - times[:, None]
        pair = np.full((n, n), np.inf)
        ok = gap > 0
        pair[ok] = w / gap[ok]
        reshape = [1] * (m + 1)
        reshape[l] = n
        reshape[l + 1] = n
        total = total + pair.reshape(reshape)
    return total


def _scaled_plan(kernel: np.ndarray, scalings) -> np.ndarray:
    plan = kernel.copy()
    ndim = kernel.ndim
    for axis, u in enumerate(scalings):
        shape = [1] * ndim
        shape[axis] = u.size
        plan *= u.reshape(shape)
    return plan


def _projection(kernel: np.ndarray, scalings, axis: int) -> np.ndarray:
    """Marginal on ``axis`` of the scaled plan with that axis' scaling set to one."""
    ones = [u if a != axis else np.ones_like(u) for a, u in enumerate(scalings)]
    plan = _scaled_plan(kernel, ones)
    axes = tuple(a for a in range(kernel.ndim) if a != axis)
    return plan.sum(axis=axes)


@dataclass(eq=False)
class DenseResult:
    plan: DenseTensor
    scalings: list[np.ndarray]
    marginals: list[np.ndarray]


def dense_sinkhorn(cost: np.ndarray, targets, epsilon: float, iters: int) -> DenseResult:
    """Alternating scaling on a full tensor.

    ``targets`` is a sequence of ``(kind, vector)`` pairs per axis, where
    kind is ``"eq"`` (match the vector), ``"ub"`` (stay below it; clipped
    multiplier at most one) or ``"free"`` (no constraint).  Each update
    recomputes the projection excluding the axis' own scaling, so equality
    marginals hold exactly right after their update.
    """
    cost = np.asarray(cost, dtype=float)
    _check_shape(cost.shape)
    _check_run(epsilon, iters)
    if len(targets) != cost.ndim:
        raise BadParamError(f"need {cost.ndim} targets, got {len(targets)}")
    for kind, _ in targets:  # every kind, before the first update
        if kind not in ("eq", "ub", "free"):
            raise BadParamError(f"unknown target kind {kind!r}")
    kernel = np.exp(-cost / epsilon)
    scalings = [np.ones(n) for n in cost.shape]
    for _ in range(iters):
        for axis, (kind, target) in enumerate(targets):
            if kind == "free":
                continue
            a = _projection(kernel, scalings, axis)
            if kind == "eq":
                t = np.asarray(target, dtype=float)
                if np.any((a <= 0) & (t > _NEGLIGIBLE)):
                    raise UnreachableMassError(f"target mass on axis {axis} sits on unreachable bins")
                u = np.zeros_like(a)
                np.divide(t, a, out=u, where=a > 0)
                scalings[axis] = u
            else:  # "ub"
                capv = np.asarray(target, dtype=float)
                ratio = np.full_like(a, np.inf)
                np.divide(capv, a, out=ratio, where=a > 0)
                scalings[axis] = np.minimum(ratio, 1.0)
    plan = _scaled_plan(kernel, scalings)
    marginals = [DenseTensor(plan).marginal(axis) for axis in range(cost.ndim)]
    return DenseResult(plan=DenseTensor(plan), scalings=scalings, marginals=marginals)


@dataclass(eq=False)
class DenseCoupledResult:
    plan: DenseTensor
    joint: np.ndarray  # model (first, last) marginal


def dense_coupled_sinkhorn(cost: np.ndarray, joint_target: np.ndarray, caps,
                           epsilon: float, iters: int) -> DenseCoupledResult:
    """Joint-boundary variant: direct projection onto the (first, last) law.

    The plan is kept factorized as kernel x joint ratio x interior
    multipliers.  Each sweep first rescales the (first, last) marginal onto
    ``joint_target`` exactly (direct projection), then recomputes every
    interior multiplier fresh as the clipped capacity ratio.
    """
    cost = np.asarray(cost, dtype=float)
    _check_shape(cost.shape)
    _check_run(epsilon, iters)
    joint_target = np.asarray(joint_target, dtype=float)
    ndim = cost.ndim
    if ndim < 3:
        raise BadParamError("coupled oracle needs at least one interior axis")
    if len(caps) != ndim - 2:
        raise BadParamError(f"need {ndim - 2} interior caps, got {len(caps)}")
    kernel = np.exp(-cost / epsilon)
    interior_axes = tuple(range(1, ndim - 1))
    lam = np.ones(joint_target.shape)
    ws = [np.ones(cost.shape[axis]) for axis in interior_axes]

    def assemble(skip_axis=None, with_lam=True):
        plan = kernel.copy()
        if with_lam:
            shape = [1] * ndim
            shape[0] = lam.shape[0]
            shape[-1] = lam.shape[1]
            plan *= lam.reshape(shape)
        for k, axis in enumerate(interior_axes):
            if axis == skip_axis:
                continue
            fshape = [1] * ndim
            fshape[axis] = ws[k].size
            plan *= ws[k].reshape(fshape)
        return plan

    for _ in range(iters):
        pj = assemble(with_lam=False).sum(axis=interior_axes)
        if np.any((pj <= 0) & (joint_target > _NEGLIGIBLE)):
            raise UnreachableMassError("joint target mass on unreachable (t0, tT) pairs")
        lam = np.zeros_like(pj)
        np.divide(joint_target, pj, out=lam, where=pj > 0)
        for k, axis in enumerate(interior_axes):
            axes = tuple(a for a in range(ndim) if a != axis)
            marg = assemble(skip_axis=axis).sum(axis=axes)
            capv = np.asarray(caps[k], dtype=float)
            factor = np.full_like(marg, np.inf)
            np.divide(capv, marg, out=factor, where=marg > 0)
            ws[k] = np.minimum(factor, 1.0)
    plan = assemble()
    joint = plan.sum(axis=interior_axes)
    return DenseCoupledResult(plan=DenseTensor(plan), joint=joint)


def entropy(plan) -> float:
    """D(pi) = -sum pi (log pi - 1) with the 0 log 0 = 0 convention."""
    values = plan.values if isinstance(plan, DenseTensor) else np.asarray(plan, dtype=float)
    pos = values[values > 0]
    return float(-np.sum(pos * (np.log(pos) - 1.0)))


def transport_cost(cost: np.ndarray, plan) -> float:
    """<c, pi> over cells with positive mass (forbidden cells carry none)."""
    values = plan.values if isinstance(plan, DenseTensor) else np.asarray(plan, dtype=float)
    mask = values > 0
    return float(np.sum(values[mask] * cost[mask]))


def entropic_objective(cost: np.ndarray, plan, epsilon: float) -> float:
    """<c, pi> - eps * D(pi)."""
    return transport_cost(cost, plan) - epsilon * entropy(plan)
