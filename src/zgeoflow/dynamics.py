"""Hamiltonian flows with monitored conservation laws.

The Hamiltonians here have position-dependent momentum coefficients, so the
flows are non-separable and explicit leapfrog is not symplectic for them.
The default method is the implicit midpoint rule (symplectic, second order,
fixed-point solved); a fourth-order Gauss-Legendre collocation method and a
non-symplectic RK4 reference are also provided.

Inside the steppers a phase-space vector is a list of 2N Python floats, q
then p: at the few-site sizes of a geodesic run an array's per-operation
overhead costs more than the arithmetic, and the gradient core takes and
returns lists anyway.  Every element-wise expression keeps the operation
order of its vector form.  Stored states are :class:`PhasePoint` s, and each
monitored function is evaluated once per stored state, for the trajectory
table and the drift report alike.

An implicit step is one call of a step kernel: straight-line code emitted
around the body of the Hamiltonian's compiled gradient (source
transformation, Griewank & Walther, *Evaluating Derivatives*, ch. 6), one
per method and gradient code.  It holds the starting-slope extrapolation,
the fixed-point loop with the gradient body inlined once per stage, the
symplectic swap, the finiteness test, the update norm and the state update,
each expression in the generic steppers' order, so that its states and
solver statistics are theirs bit for bit.  A kernel enters the
process-wide table only if its first step equals the generic step at the
same inputs bit for bit.  The generic steppers stay the oracle and the
path of rk4-check, of a Hamiltonian whose gradient holds no code (opaque,
or not compiled yet: the kernel is looked up again before each step), and
of every step that a kernel gives up (a non-finite slope, an arithmetic or
domain error, no convergence): the generic stepper reruns it from the same
inputs, so every message, partial trajectory and count is its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, sqrt

from . import dual
# perfbench/tracing.py binds gradient_lists in this module; keep it
from .phase import METHODS, EvaluationDomainError, PhaseFunction, PhasePoint, gradient_lists

#: fixed-point convergence threshold (relative sup norm of the update)
FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 50

_GAUSS_A = (
    (0.25, 0.25 - sqrt(3.0) / 6.0),
    (0.25 + sqrt(3.0) / 6.0, 0.25),
)


class IntegrationError(RuntimeError):
    """Integration stopped early; carries the time stamp and partial result."""

    def __init__(self, message, time, partial=None):
        super().__init__(f"{message} at t = {time:.6g}")
        self.time = time
        self.partial = partial


@dataclass(frozen=True)
class SolverStats:
    """Work of the step solver over a run; deterministic (no timings).

    ``iterations`` maps a fixed-point iteration count to the number of steps
    that took it (0 for rk4-check).  ``max_update`` is the largest final
    fixed-point update (sup norm) over the steps, first reached at step
    ``max_update_step``.  The final updates are at the level of roundoff,
    so which step holds the largest moves with any reordering of float
    arithmetic, even one that leaves the trajectory unchanged: compare the
    metadata of two builds without ``max_update_step``.
    """

    rhs_evals: int = 0
    iterations: dict = field(default_factory=dict)
    max_update: float = 0.0
    max_update_step: int = 0


@dataclass(frozen=True)
class Trajectory:
    """Uniform-step solution of Hamilton's equations; ``times`` is a tuple
    of floats."""

    times: tuple
    states: tuple
    hamiltonian: str
    method: str
    dt: float
    truncated: bool = False
    solver: SolverStats = field(default_factory=SolverStats)
    #: PhaseFunction -> its value (or evaluation error) at each stored state
    _monitored: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        times = tuple(self.times)
        object.__setattr__(self, "times", times)
        if len(times) != len(self.states):
            raise ValueError("times and states length mismatch")
        if any(b <= a for a, b in zip(times, times[1:])):
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
    n = len(vec) // 2
    try:
        dq, dp = gradient_lists(h, vec[:n], vec[n:])
    except OverflowError as err:
        raise EvaluationDomainError(f"phase velocity of {h.label} overflows") from err
    out = [*dp, *[-v for v in dq]]
    if not all(map(isfinite, out)):
        raise EvaluationDomainError(f"phase velocity of {h.label} not finite")
    return out


def _update_norm(new, old):
    """max |new_i - old_i|; NaN when any difference is NaN (Python's max
    keeps a NaN only in the first place), so that a NaN update never passes
    the convergence test."""
    diffs = [abs(a - b) for a, b in zip(new, old)]
    total = sum(diffs)
    return total if total != total else max(diffs)


def _midpoint_step(rhs, y, dt, t, slope=None):
    """One implicit midpoint step.

    Returns (new state, converged midpoint slope, fixed-point iterations,
    final update norm).  ``slope`` is the starting guess for the midpoint
    slope; without one the iteration starts from the explicit Euler
    predictor f(y).
    """
    if slope is None:
        slope = rhs(y)
    u = [yi + dt * si for yi, si in zip(y, slope)]
    tol = FIXED_POINT_TOL * max(1.0, max(map(abs, y)))
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        slope = rhs([0.5 * (yi + ui) for yi, ui in zip(y, u)])
        u_next = [yi + dt * si for yi, si in zip(y, slope)]
        update = _update_norm(u_next, u)
        if update < tol:
            return u_next, slope, it, update
        u = u_next
    raise IntegrationError("implicit midpoint fixed point did not converge", t)


def _gauss4_step(rhs, y, dt, t, slope=None):
    """One gauss4 step, with the same arguments and returns as `_midpoint_step`.

    The slope is the pair of stage slopes as one list, the first stage's
    2N entries and then the second's.
    """
    m = len(y)
    k = slope
    if k is None:
        f0 = rhs(y)
        k = f0 + f0
    tol = FIXED_POINT_TOL * max(1.0, max(map(abs, y)))
    (a11, a12), (a21, a22) = _GAUSS_A
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        k1, k2 = k[:m], k[m:]
        k_next = rhs(
            [yi + dt * (a11 * s1 + a12 * s2) for yi, s1, s2 in zip(y, k1, k2)]
        ) + rhs([yi + dt * (a21 * s1 + a22 * s2) for yi, s1, s2 in zip(y, k1, k2)])
        update = _update_norm(k_next, k)
        if update < tol:
            w = dt * 0.5
            y_next = [yi + w * (s1 + s2) for yi, s1, s2 in zip(y, k_next[:m], k_next[m:])]
            return y_next, k_next, it, update
        k = k_next
    raise IntegrationError("gauss4 fixed point did not converge", t)


def _rk4_step(rhs, y, dt, t, slope=None):
    h = 0.5 * dt
    k1 = rhs(y)
    k2 = rhs([yi + h * si for yi, si in zip(y, k1)])
    k3 = rhs([yi + h * si for yi, si in zip(y, k2)])
    k4 = rhs([yi + dt * si for yi, si in zip(y, k3)])
    w = dt / 6.0
    y_next = [
        yi + w * (a + 2.0 * b + 2.0 * c + d) for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]
    return y_next, None, 0, 0.0


def _starting_slope(history):
    """Polynomial extrapolation of the last converged slopes (newest first).

    Quadratic through three equally spaced steps, linear through two,
    constant through one; None (Euler predictor) before the first step.
    Hairer, Lubich & Wanner, Geometric Numerical Integration, VIII.6.
    """
    if len(history) == 3:
        return [3.0 * a - 3.0 * b + c for a, b, c in zip(*history)]
    if len(history) == 2:
        return [2.0 * a - b for a, b in zip(*history)]
    return history[0] if history else None


_STEPPERS = dict(zip(METHODS, (_midpoint_step, _gauss4_step, _rk4_step)))
#: the RHS evaluations of one fixed-point iteration of an implicit method
_STAGES = {"implicit-midpoint": 1, "gauss4": 2}

#: (method, gradient code) -> the step kernel that agreed with the generic
#: step, or None for one that did not; it drops its oldest entry once it
#: holds dual.MAX_SKELETONS
_KERNELS = {}


def _kernel(method, grad, m):
    """(kernel, admitted) of ``method`` for the gradient state ``grad`` of
    a Hamiltonian on ``m`` phase coordinates, which holds code: the table's
    entry, or a new kernel still to be checked against the generic step."""
    key = (method, grad.code)
    if key in _KERNELS:
        return _KERNELS[key], True
    scope = dict(grad.code.__globals__)  # the table entries the body calls
    source = _kernel_source(method, m, *grad.code.body, len(grad.consts))
    exec(compile(source, "<step kernel>", "exec"), scope)
    return scope["kernel"], False


def _names(prefix, count):
    return ", ".join(f"{prefix}{i}" for i in range(count))


def _kernel_source(method, m, body, grad, n_consts):
    """Source of the step kernel of ``method`` around the body lines and
    the gradient ``grad`` (a list display) of the compiled gradient code of
    a Hamiltonian on ``m`` phase coordinates with ``n_consts`` lifted
    constants (``code.body``, see :func:`zgeoflow.dual._compile`).

    ``kernel(y, guess, dt, c)`` is the generic step from the state ``y``
    and the starting slope ``_starting_slope(guess)`` (``guess`` a history
    of one to three slopes), with the Hamiltonian's constants ``c``: it
    returns what the stepper returns, bit for bit, or None where the
    stepper would raise (a non-finite slope, no convergence) and where the
    gradient raises an ArithmeticError or ValueError.  The body runs once
    per stage and iteration, with v0..v{m-1} bound to the stage state.
    Every expression is the generic code's, in its order
    (:func:`_starting_slope`, :func:`_midpoint_step`, :func:`_gauss4_step`,
    :func:`_rhs_flat`, :func:`_update_norm`).  The template's own names are
    capitals other than R, D and E, and words, outside the body's names
    (v/g/a/c/i and R/D/E with digits).
    """
    n = m // 2
    stages = _STAGES[method]
    width = m * stages  # the slope: one phase velocity per stage
    new, old = ("W", "U") if stages == 1 else ("L", "K")
    src = ["def kernel(y, guess, dt, c):", f"    {_names('Y', m)}, = y"]
    if n_consts:
        src.append(f"    {_names('c', n_consts)}, = c")
    for test, history, form in (
        ("if len(guess) == 3", "P, Q, T", "3.0 * P{i} - 3.0 * Q{i} + T{i}"),
        ("elif len(guess) == 2", "P, Q", "2.0 * P{i} - Q{i}"),
        ("else", "P", "P{i}"),
    ):
        src.append(f"    {test}:")
        unpack = ", ".join(f"({_names(h, width)},)" for h in history.split(", "))
        src.append(f"        {unpack}, = guess")
        for i in range(width):
            slope = form.format(i=i)
            start = f"Y{i} + dt * ({slope})" if stages == 1 else slope
            src.append(f"        {old}{i} = {start}")
    sizes = ", ".join(f"abs(Y{i})" for i in range(m))
    src.append(f"    tol = {FIXED_POINT_TOL!r} * max(1.0, {sizes})")
    loop = []

    def rhs(states, slope, at):
        """The body at the stage ``states``, then its phase velocity into
        ``slope``{at}.. and the velocity's finiteness test."""
        loop.extend(f"v{i} = {state}" for i, state in enumerate(states))
        loop.extend(body)
        loop.append(f"{_names('G', m)}, = {grad}")
        loop.extend(f"{slope}{at + j} = G{n + j}" for j in range(n))
        loop.extend(f"{slope}{at + n + j} = -G{j}" for j in range(n))
        zeros = " + ".join(f"{slope}{at + i} * 0.0" for i in range(m))
        loop.append(f"if {zeros} != 0.0:  # nan: the velocity is not finite")
        loop.append("    return None")

    if stages == 1:
        rhs([f"0.5 * (Y{i} + U{i})" for i in range(m)], "S", 0)
        loop.extend(f"W{i} = Y{i} + dt * S{i}" for i in range(m))
        done = f"[{_names('W', m)}], [{_names('S', m)}]"
    else:
        for at, (a1, a2) in zip((0, m), _GAUSS_A):
            stage = [f"Y{i} + dt * (({a1!r}) * K{i} + ({a2!r}) * K{m + i})" for i in range(m)]
            rhs(stage, "L", at)
        y_next = ", ".join(f"Y{i} + w * (L{i} + L{m + i})" for i in range(m))
        done = f"[{y_next}], [{_names('L', width)}]"
    loop.extend(f"X{i} = abs({new}{i} - {old}{i})" for i in range(width))
    loop.append(f"total = 0 + {' + '.join(f'X{i}' for i in range(width))}")
    loop.append(f"update = total if total != total else max({_names('X', width)})")
    loop.append("if update < tol:")
    if stages == 2:
        loop.append("    w = dt * 0.5")
    loop.append(f"    return {done}, it, update")
    loop.append(f"{_names(old, width)}, = {_names(new, width)},")
    src.append("    try:")
    src.append(f"        for it in range(1, {FIXED_POINT_MAX_ITER + 1}):")
    src.extend(f"            {line}" for line in loop)
    src.append("    except (ArithmeticError, ValueError):")
    src.append("        pass")
    src.append("    return None")
    return "\n".join(src) + "\n"


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
    if not isfinite(t_end / dt):
        raise ValueError(f"the step count t_end / dt = {t_end!r} / {dt!r} is not finite")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ValueError("t_end must be an integer multiple of dt")
    step = _STEPPERS[method]
    stages = _STAGES.get(method)
    grad = h._gradient
    times = [0.0]
    states = [x0]
    y = list(x0.flat())
    kernel, admitted = None, False
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
            times,
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
            if history or stages is None:
                guess = history
            else:  # the first step's explicit Euler predictor, f(y) per stage
                guess = [rhs(y) * stages]
            if kernel is None and stages and grad.code is not None:
                kernel, admitted = _kernel(method, grad, len(y))
            out = None if kernel is None else kernel(y, guess, dt, grad.consts)
            if out is not None and admitted:
                n_rhs += out[2] * stages
            else:  # the generic step, also where a kernel gives up
                generic = step(rhs, y, dt, t, _starting_slope(guess))
                if out is not None:  # a new kernel's first step admits it, or not
                    admitted = dual._agrees(out, generic)
                    kernel = kernel if admitted else None
                    dual._keep(_KERNELS, (method, grad.code), kernel)
                out = generic
            y, slope, its, update = out
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
        if not all(map(isfinite, y)):
            raise IntegrationError("state left the domain", t, partial=build(True))
        if k % keep_every == 0 or k == n_steps:
            times.append(t)
            states.append(PhasePoint._from_checked(y))
    return build(False)


def _monitored_values(traj: Trajectory, f) -> list:
    """``float(f(x))`` at every stored state, computed once per trajectory
    and function.  A state where ``f`` leaves its domain (chart boundary of
    a truncated run) holds the error instead of a value."""
    values = traj._monitored.get(f)
    if values is None:
        values = []
        for x in traj.states:
            try:
                values.append(float(f(x)))
            except (EvaluationDomainError, OverflowError, ZeroDivisionError) as err:
                values.append(err)
        traj._monitored[f] = values
    return values


def conservation_report(traj: Trajectory, funcs) -> ConservationReport:
    """Max relative drift |f(x(t)) - f(x(0))| / max(1, |f(x(0))|) per function.

    ``funcs`` is a mapping label -> PhaseFunction or an iterable of
    PhaseFunctions (labels taken from the functions).  A function that
    cannot be evaluated at a stored state raises its evaluation error.
    """
    if not isinstance(funcs, dict):
        funcs = {f.label or f"f{i}": f for i, f in enumerate(funcs)}
    drifts = {}
    for label, f in funcs.items():
        values = _monitored_values(traj, f)
        for v in values:
            if isinstance(v, Exception):
                raise v
        ref = values[0]
        denom = max(1.0, abs(ref))
        worst = 0.0
        for v in values[1:]:
            worst = max(worst, abs(v - ref) / denom)
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
    columns = [
        [float("nan") if isinstance(v, Exception) else v for v in _monitored_values(traj, f)]
        for f in monitored.values()
    ]
    rows = [
        [t, *x.q, *x.p, *values]
        for t, x, *values in zip(traj.times, traj.states, *columns)
    ]
    return header, rows
