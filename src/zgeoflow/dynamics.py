"""Hamiltonian flows with monitored conservation laws.

The Hamiltonians here have position-dependent momentum coefficients, so the
flows are non-separable and explicit leapfrog is not symplectic for them.
The default method is the implicit midpoint rule (symplectic, second order,
fixed-point solved); a fourth-order Gauss-Legendre collocation method and a
non-symplectic RK4 reference are also provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .brackets import gradient, gradient_lists
from .phase import EvaluationDomainError, PhaseFunction, PhasePoint

METHODS = ("implicit-midpoint", "gauss4", "rk4-check")

#: fixed-point convergence threshold (relative sup norm of the update)
FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 50

_GAUSS_A = np.array(
    [
        [0.25, 0.25 - np.sqrt(3.0) / 6.0],
        [0.25 + np.sqrt(3.0) / 6.0, 0.25],
    ]
)


class IntegrationError(RuntimeError):
    """Integration stopped early; carries the time stamp and partial result."""

    def __init__(self, message, time, partial=None):
        super().__init__(f"{message} at t = {time:.6g}")
        self.time = time
        self.partial = partial


def hamilton_rhs(h: PhaseFunction, x: PhasePoint) -> np.ndarray:
    """Canonical phase velocity (dq/dt, dp/dt) = (dH/dp, -dH/dq)."""
    g = gradient(h, x)
    return np.concatenate([g.dp, -g.dq])


@dataclass(frozen=True)
class SolverStats:
    """Work of the step solver over a run; deterministic (no timings).

    ``iterations`` maps a fixed-point iteration count to the number of steps
    that took it (0 for rk4-check).  ``max_update`` is the largest final
    fixed-point update (sup norm) over the steps, first reached at step
    ``max_update_step``.
    """

    rhs_evals: int = 0
    iterations: dict = field(default_factory=dict)
    max_update: float = 0.0
    max_update_step: int = 0


@dataclass(frozen=True)
class Trajectory:
    """Uniform-step solution of Hamilton's equations."""

    times: np.ndarray
    states: tuple
    hamiltonian: str
    method: str
    dt: float
    truncated: bool = False
    solver: SolverStats = field(default_factory=SolverStats)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    def __len__(self):
        return len(self.states)

    @property
    def final(self) -> PhasePoint:
        return self.states[-1]


@dataclass(frozen=True)
class ConservationReport:
    """Max relative drift of each monitored function along a trajectory."""

    drifts: dict = field(default_factory=dict)

    def max_drift(self) -> float:
        return max(self.drifts.values()) if self.drifts else 0.0


def _rhs_flat(h, vec):
    n = vec.size // 2
    dq, dp = gradient_lists(h, vec[:n].tolist(), vec[n:].tolist())
    out = np.empty_like(vec)
    out[:n] = dp
    out[n:] = [-v for v in dq]
    if not np.all(np.isfinite(out)):
        raise EvaluationDomainError(f"phase velocity of {h.label} not finite")
    return out


def _midpoint_step(rhs, y, dt, t, slope=None):
    """One implicit midpoint step.

    Returns (new state, converged midpoint slope, fixed-point iterations,
    final update norm).  ``slope`` is the starting guess for the midpoint
    slope; without one the iteration starts from the explicit Euler
    predictor f(y).
    """
    if slope is None:
        slope = rhs(y)
    u = y + dt * slope
    scale = max(1.0, float(np.max(np.abs(y))))
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        slope = rhs(0.5 * (y + u))
        u_next = y + dt * slope
        update = float(np.max(np.abs(u_next - u)))
        if update < FIXED_POINT_TOL * scale:
            return u_next, slope, it, update
        u = u_next
    raise IntegrationError("implicit midpoint fixed point did not converge", t)


def _gauss4_step(rhs, y, dt, t, slope=None):
    """One gauss4 step, with the same arguments and returns as `_midpoint_step`.

    ``slope`` is the starting guess for the pair of stage slopes.
    """
    k = slope
    if k is None:
        f0 = rhs(y)
        k = np.array([f0, f0])
    scale = max(1.0, float(np.max(np.abs(y))))
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        k_next = np.array(
            [
                rhs(y + dt * (_GAUSS_A[0, 0] * k[0] + _GAUSS_A[0, 1] * k[1])),
                rhs(y + dt * (_GAUSS_A[1, 0] * k[0] + _GAUSS_A[1, 1] * k[1])),
            ]
        )
        update = float(np.max(np.abs(k_next - k)))
        if update < FIXED_POINT_TOL * scale:
            return y + dt * 0.5 * (k_next[0] + k_next[1]), k_next, it, update
        k = k_next
    raise IntegrationError("gauss4 fixed point did not converge", t)


def _rk4_step(rhs, y, dt, t, slope=None):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), None, 0, 0.0


def _starting_slope(history):
    """Polynomial extrapolation of the last converged slopes (newest first).

    Quadratic through three equally spaced steps, linear through two,
    constant through one; None (Euler predictor) before the first step.
    Hairer, Lubich & Wanner, Geometric Numerical Integration, VIII.6.
    """
    if len(history) == 3:
        return 3.0 * history[0] - 3.0 * history[1] + history[2]
    if len(history) == 2:
        return 2.0 * history[0] - history[1]
    return history[0] if history else None


_STEPPERS = {
    "implicit-midpoint": _midpoint_step,
    "gauss4": _gauss4_step,
    "rk4-check": _rk4_step,
}


def integrate(
    h: PhaseFunction,
    x0: PhasePoint,
    t_end: float,
    dt: float,
    method: str = "implicit-midpoint",
    keep_every: int = 1,
) -> Trajectory:
    """Integrate Hamilton's equations over [0, t_end] with uniform steps.

    ``keep_every`` decimates the stored states (first and last always kept).
    Domain exits and solver failures raise :class:`IntegrationError` with the
    partial trajectory attached.
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if method not in _STEPPERS:
        raise ValueError(f"unknown method {method!r}, choose from {METHODS}")
    if keep_every < 1:
        raise ValueError("keep_every must be >= 1")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    step = _STEPPERS[method]
    times = [0.0]
    states = [x0]
    y = x0.flat().astype(float)
    n_rhs = 0
    iterations = {}
    max_update, max_update_step = 0.0, 0
    history = []  # converged slopes of the last three steps, newest first

    def rhs(vec):
        nonlocal n_rhs
        n_rhs += 1
        return _rhs_flat(h, vec)

    def build(truncated):
        return Trajectory(
            np.array(times),
            tuple(states),
            h.label,
            method,
            dt,
            truncated=truncated,
            solver=SolverStats(n_rhs, iterations, max_update, max_update_step),
        )

    for k in range(1, n_steps + 1):
        t = k * dt
        try:
            y, slope, its, update = step(rhs, y, dt, t, _starting_slope(history))
        except IntegrationError as err:
            err.partial = build(True)
            raise
        except (EvaluationDomainError, OverflowError, ZeroDivisionError) as err:
            raise IntegrationError(str(err) or type(err).__name__, t, partial=build(True)) from err
        iterations[its] = iterations.get(its, 0) + 1
        if update > max_update:
            max_update, max_update_step = update, k
        if slope is not None:
            history = [slope, *history[:2]]
        if not np.all(np.isfinite(y)):
            raise IntegrationError("state left the domain", t, partial=build(True))
        if k % keep_every == 0 or k == n_steps:
            times.append(t)
            states.append(PhasePoint.from_flat(y))
    return build(False)


def conservation_report(traj: Trajectory, funcs) -> ConservationReport:
    """Max relative drift |f(x(t)) - f(x(0))| / max(1, |f(x(0))|) per function.

    ``funcs`` is a mapping label -> PhaseFunction or an iterable of
    PhaseFunctions (labels taken from the functions).
    """
    if not isinstance(funcs, dict):
        funcs = {f.label or f"f{i}": f for i, f in enumerate(funcs)}
    drifts = {}
    for label, f in funcs.items():
        ref = float(f(traj.states[0]))
        denom = max(1.0, abs(ref))
        worst = 0.0
        for x in traj.states[1:]:
            worst = max(worst, abs(float(f(x)) - ref) / denom)
        drifts[label] = worst
    return ConservationReport(drifts)


def trajectory_table(traj: Trajectory, monitored=None):
    """Header and rows (t, q1..qN, p1..pN, one column per monitored label).

    Monitored functions that cannot be evaluated at a state (chart boundary
    of a truncated run) yield nan in their column.
    """
    monitored = monitored or {}
    n = traj.states[0].dim
    header = (
        ["t"]
        + [f"q{i + 1}" for i in range(n)]
        + [f"p{i + 1}" for i in range(n)]
        + list(monitored)
    )
    rows = []
    for t, x in zip(traj.times, traj.states):
        row = [t, *x.q, *x.p]
        for f in monitored.values():
            try:
                row.append(float(f(x)))
            except (EvaluationDomainError, OverflowError, ZeroDivisionError):
                row.append(float("nan"))
        rows.append(row)
    return header, rows
