"""Symplectic integration: conservation, order, reversibility, failure modes."""

import numpy as np
import pytest

from zgeoflow import charts, dual, dynamics
from zgeoflow.algebra import (
    casimir_m,
    hamiltonian_integrable,
    hamiltonian_superintegrable,
    integral_extra_2,
    integral_extra_3,
)
from zgeoflow.brackets import gradient, gradient_fd
from zgeoflow.phase import PhaseFunction, PhasePoint

X0 = PhasePoint([0.25, 0.15, 0.35], [0.2, -0.15, 0.3])


def monitored_integrable(z):
    return {
        "H": hamiltonian_integrable(3, z),
        "C(2)": casimir_m(2, 3, z),
        "C(3)": casimir_m(3, 3, z),
    }


def monitored_superintegrable(z):
    return {
        "H": hamiltonian_superintegrable(3, z),
        "C(2)": casimir_m(2, 3, z),
        "C(3)": casimir_m(3, 3, z),
        "I(2)": integral_extra_2(z, 3),
        "I(3)": integral_extra_3(z, 3),
    }


def phase_velocity(h, x):
    """(dH/dp, -dH/dq) through brackets.gradient, a gradient path independent
    of the integrator's."""
    g = gradient(h, x)
    return np.concatenate([g.dp, np.negative(g.dq)])


def test_rhs_free_particle():
    h = PhaseFunction(1, lambda q, p: 0.5 * p[0] * p[0], "T")
    v = dynamics._rhs_flat(h, [0.0, 2.0])
    assert v == pytest.approx([2.0, 0.0], abs=1e-15)


def test_rhs_flat_integrable_is_free():
    h = hamiltonian_integrable(3, 0.0)
    v = dynamics._rhs_flat(h, list(X0.flat()))
    assert v[:3] == pytest.approx(list(X0.p), abs=1e-15)
    assert v[3:] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_rhs_matches_fd_gradient():
    h = hamiltonian_integrable(2, 0.3)
    x = PhasePoint([0.5, -0.7], [0.9, 0.2])
    v = dynamics._rhs_flat(h, list(x.flat()))
    g = gradient_fd(h, x)
    assert v[:2] == pytest.approx(list(g.dp), rel=1e-6)
    assert v[2:] == pytest.approx([-v for v in g.dq], rel=1e-6)


def test_flat_trajectory_is_straight_line():
    h = hamiltonian_integrable(3, 0.0)
    x0 = PhasePoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    traj = dynamics.integrate(h, x0, 1.0, 1e-3)
    assert np.max(np.abs(np.subtract(traj.final.q, [1.0, 0.0, 0.0]))) < 1e-10
    assert np.max(np.abs(np.subtract(traj.final.p, x0.p))) < 1e-12
    assert traj.states[0] is x0
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("method", ["implicit-midpoint", "gauss4"])
def test_conservation_integrable(method):
    z = 0.3
    mon = monitored_integrable(z)
    traj = dynamics.integrate(mon["H"], X0, 2.0, 1e-3, method, keep_every=20)
    rep = dynamics.conservation_report(traj, mon)
    assert rep.max_drift() < 1e-8, rep.drifts


def test_conservation_superintegrable():
    z = 0.3
    mon = monitored_superintegrable(z)
    traj = dynamics.integrate(mon["H"], X0, 2.0, 1e-3, keep_every=20)
    rep = dynamics.conservation_report(traj, mon)
    assert rep.max_drift() < 1e-8, rep.drifts
    # exact constants drift no worse than ~10x the Hamiltonian drift
    h_drift = rep.drifts["H"]
    for label in ("C(2)", "C(3)", "I(2)", "I(3)"):
        assert rep.drifts[label] < 10.0 * h_drift + 1e-12


def test_step_halving_reduces_drift_quadratically():
    z = 0.3
    mon = monitored_integrable(z)
    drifts = []
    for dt in (2e-3, 1e-3):
        traj = dynamics.integrate(mon["H"], X0, 1.0, dt, keep_every=10)
        drifts.append(dynamics.conservation_report(traj, {"H": mon["H"]}).drifts["H"])
    factor = drifts[0] / drifts[1]
    assert 3.5 <= factor <= 4.5, factor


def test_reversibility():
    z = 0.3
    h = hamiltonian_integrable(3, z)
    traj = dynamics.integrate(h, X0, 1.0, 1e-3, keep_every=1000)
    flipped = PhasePoint(traj.final.q, np.negative(traj.final.p))
    back = dynamics.integrate(h, flipped, 1.0, 1e-3, keep_every=1000)
    assert np.max(np.abs(np.subtract(back.final.q, X0.q))) < 1e-7
    assert np.max(np.abs(np.add(back.final.p, X0.p))) < 1e-7


def test_gauss4_is_higher_order_than_midpoint():
    z = 0.3
    h = hamiltonian_integrable(3, z)
    drift = {}
    for method in ("implicit-midpoint", "gauss4"):
        traj = dynamics.integrate(h, X0, 1.0, 5e-3, method, keep_every=10)
        drift[method] = dynamics.conservation_report(traj, {"H": h}).drifts["H"]
    assert drift["gauss4"] < 1e-2 * drift["implicit-midpoint"]


def test_rk4_reference_runs_and_drifts_more():
    z = 0.3
    h = hamiltonian_integrable(3, z)
    traj = dynamics.integrate(h, X0, 1.0, 1e-2, "rk4-check", keep_every=10)
    rep = dynamics.conservation_report(traj, {"H": h})
    assert rep.drifts["H"] < 1e-6  # still accurate, just not symplectic


def test_non_conserved_function_reported_not_flagged():
    h = hamiltonian_integrable(3, 0.3)
    traj = dynamics.integrate(h, X0, 1.0, 1e-2, keep_every=10)
    q1 = PhaseFunction(3, lambda q, p: q[0], "q1")
    const = PhaseFunction(3, lambda q, p: 4.2, "const")
    rep = dynamics.conservation_report(traj, [q1, const])
    assert rep.drifts["const"] == 0.0
    assert rep.drifts["q1"] > 1e-2


def test_decimation_keeps_first_and_last():
    h = hamiltonian_integrable(3, 0.0)
    traj = dynamics.integrate(h, X0, 1.0, 1e-2, keep_every=7)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    assert len(traj) == 2 + (100 - 1) // 7


def test_bad_step_parameters_rejected():
    h = hamiltonian_integrable(3, 0.0)
    with pytest.raises(ValueError):
        dynamics.integrate(h, X0, 1.0, -0.1)
    with pytest.raises(ValueError):
        dynamics.integrate(h, X0, 1.0, 0.3)  # not an integer multiple
    with pytest.raises(ValueError):
        dynamics.integrate(h, X0, 1.0, 1e-2, "verlet")
    with pytest.raises(ValueError):
        dynamics.integrate(h, X0, 1.0, 1e-2, keep_every=0)


def test_domain_exit_carries_partial_trajectory():
    # 1D attractive Coulomb infall reaches q = 0 in finite time; the
    # evaluation leaves the domain and the partial trajectory is preserved
    def infall(q, p):
        return 0.5 * p[0] * p[0] - 1.0 / q[0]

    h = PhaseFunction(1, infall, "coulomb")
    x0 = PhasePoint([1.0], [-0.5])
    with pytest.raises(dynamics.IntegrationError) as err:
        dynamics.integrate(h, x0, 5.0, 1e-3)
    assert err.value.partial is not None
    assert err.value.partial.truncated
    assert len(err.value.partial) >= 1
    assert err.value.time > 0


def test_polar_boundary_evaluation_raises_integration_error():
    # starting on the chart boundary aborts immediately with a time stamp
    system = charts.integrable_polar_system(0.3, 1.0)
    x0 = PhasePoint([0.8, 0.0, 0.5], [0.1, 0.0, 0.2])  # theta exactly 0
    with pytest.raises(dynamics.IntegrationError):
        dynamics.integrate(system.hamiltonian, x0, 0.1, 1e-3)


def test_fixed_point_divergence_reported():
    h = hamiltonian_superintegrable(3, 1.0)
    wild = PhasePoint([1.5, -1.4, 1.3], [2.0, 2.0, -2.0])
    with pytest.raises(dynamics.IntegrationError):
        dynamics.integrate(h, wild, 10.0, 5.0)


def test_integration_error_message_has_one_time_stamp():
    # the step's failure is re-raised with the partial trajectory attached,
    # without stamping the time a second time
    x0 = PhasePoint([0.3, 0.2, 0.1], [3.0, 2.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(dynamics.IntegrationError) as err:
            dynamics.integrate(hamiltonian_integrable(3, 0.5), x0, 1.2, 0.2)
    assert str(err.value).count("at t =") == 1
    assert err.value.partial.truncated


def test_trajectory_table_layout():
    h = hamiltonian_integrable(2, 0.0)
    x0 = PhasePoint([0.1, 0.2], [0.3, 0.4])
    traj = dynamics.integrate(h, x0, 0.1, 0.05)
    header, rows = dynamics.trajectory_table(traj, {"H": h})
    assert header == ["t", "q1", "q2", "p1", "p2", "H"]
    assert len(rows) == 3 and len(rows[0]) == 6
    assert rows[0][0] == 0.0 and rows[0][5] == pytest.approx(0.125)


def test_cross_chart_vector_field_consistency():
    """A Cartesian trajectory mapped to the polar chart obeys the polar
    Hamilton equations with velocities scaled by 2 (canonical momenta)."""
    z, k2 = 0.3, 1.0
    h = hamiltonian_integrable(3, z)
    x0 = PhasePoint([0.45, 0.35, 0.55], [0.25, -0.15, 0.35])
    dt = 1e-3
    traj = dynamics.integrate(h, x0, 20 * dt, dt)
    system = charts.integrable_polar_system(z, k2)
    mapped = [
        charts.transform_to_polar(s, z, k2).as_phase_point() for s in traj.states
    ]
    flat = np.array([m.flat() for m in mapped])
    # fourth-order central differences in t at interior indices
    for idx in (5, 10, 15):
        vel = (
            -flat[idx + 2] + 8 * flat[idx + 1] - 8 * flat[idx - 1] + flat[idx - 2]
        ) / (12 * dt)
        field = phase_velocity(system.hamiltonian, mapped[idx])
        assert np.max(np.abs(vel - 2.0 * field)) < 1e-6


# --------------------------------------------------------------------------
# warm-started fixed point: same solution as a cold start, fewer RHS calls
# --------------------------------------------------------------------------

Z8 = 0.3
X8 = PhasePoint([0.25, 0.15, 0.35], [0.05, -0.04, 0.06])  # criterion-8 orbit


def criterion_8_systems():
    polar = charts.integrable_polar_system(Z8, 1.0)
    x_polar = charts.transform_to_polar(X8, Z8, 1.0).as_phase_point()
    return [
        ("H_int", hamiltonian_integrable(3, Z8), X8),
        ("H_sup", hamiltonian_superintegrable(3, Z8), X8),
        ("H_polar_int", polar.hamiltonian, x_polar),
    ]


def reference_trajectory(h, x0, dt, n_steps, method):
    """Fixed-point steps started from the explicit Euler predictor every step."""
    tol = dynamics.FIXED_POINT_TOL

    def f(y):
        return phase_velocity(h, PhasePoint.from_flat(y))

    a = np.array([[0.25, 0.25 - np.sqrt(3.0) / 6.0], [0.25 + np.sqrt(3.0) / 6.0, 0.25]])
    y = np.array(x0.flat())
    out = [y]
    for _ in range(n_steps):
        scale = max(1.0, np.max(np.abs(y)))
        if method == "implicit-midpoint":
            u = y + dt * f(y)
            for _ in range(dynamics.FIXED_POINT_MAX_ITER):
                u_next = y + dt * f(0.5 * (y + u))
                done = np.max(np.abs(u_next - u)) < tol * scale
                u = u_next
                if done:
                    break
            y = u
        else:
            f0 = f(y)
            k = np.array([f0, f0])
            for _ in range(dynamics.FIXED_POINT_MAX_ITER):
                k_next = np.array([f(y + dt * (a[i] @ k)) for i in range(2)])
                done = np.max(np.abs(k_next - k)) < tol * scale
                k = k_next
                if done:
                    break
            y = y + 0.5 * dt * (k[0] + k[1])
        out.append(y)
    return np.array(out)


@pytest.mark.parametrize("method", ["implicit-midpoint", "gauss4"])
def test_warm_start_matches_cold_start_oracle(method):
    dt, n_steps = 1e-3, 1000
    for label, h, x0 in criterion_8_systems():
        ref = reference_trajectory(h, x0, dt, n_steps, method)
        traj = dynamics.integrate(h, x0, n_steps * dt, dt, method)
        got = np.array([s.flat() for s in traj.states])
        assert np.max(np.abs(got - ref)) < 1e-12, (label, np.max(np.abs(got - ref)))


@pytest.mark.parametrize(
    "method, dt, bound",
    [
        ("implicit-midpoint", 1e-3, 1.5),
        ("gauss4", 1e-3, 4.5),
        ("implicit-midpoint", 1e-2, 3.5),  # cold start: 4.0-5.0
    ],
)
def test_warm_start_rhs_count(method, dt, bound, monkeypatch):
    calls = []
    rhs = dynamics._rhs_flat

    def counted(h, vec):
        calls.append(1)
        return rhs(h, vec)

    monkeypatch.setattr(dynamics, "_rhs_flat", counted)
    n_steps = 200
    for label, h, x0 in criterion_8_systems():
        calls.clear()
        traj = dynamics.integrate(h, x0, n_steps * dt, dt, method)
        assert len(calls) / n_steps <= bound, (label, len(calls) / n_steps)
        assert traj.solver.rhs_evals == len(calls)
        assert sum(traj.solver.iterations.values()) == n_steps


def parent_trajectory(h, x0, dt, n_steps, method):
    """The ndarray steppers the list steppers replaced, with their warm start
    and solver statistics: (states, SolverStats).  The RHS is shared; every
    stepper operation is transcribed in its ndarray order."""
    tol, max_iter = dynamics.FIXED_POINT_TOL, dynamics.FIXED_POINT_MAX_ITER
    a = np.array([[0.25, 0.25 - np.sqrt(3.0) / 6.0], [0.25 + np.sqrt(3.0) / 6.0, 0.25]])
    n_rhs = 0

    def rhs(vec):
        nonlocal n_rhs
        n_rhs += 1
        return np.array(dynamics._rhs_flat(h, vec.tolist()))

    def midpoint(y, slope):
        if slope is None:
            slope = rhs(y)
        u = y + dt * slope
        scale = max(1.0, float(np.max(np.abs(y))))
        for it in range(1, max_iter + 1):
            slope = rhs(0.5 * (y + u))
            u_next = y + dt * slope
            update = float(np.max(np.abs(u_next - u)))
            if update < tol * scale:
                return u_next, slope, it, update
            u = u_next
        raise AssertionError("no convergence")

    def gauss4(y, k):
        if k is None:
            f0 = rhs(y)
            k = np.array([f0, f0])
        scale = max(1.0, float(np.max(np.abs(y))))
        for it in range(1, max_iter + 1):
            k_next = np.array([
                rhs(y + dt * (a[0, 0] * k[0] + a[0, 1] * k[1])),
                rhs(y + dt * (a[1, 0] * k[0] + a[1, 1] * k[1])),
            ])
            update = float(np.max(np.abs(k_next - k)))
            if update < tol * scale:
                return y + dt * 0.5 * (k_next[0] + k_next[1]), k_next, it, update
            k = k_next
        raise AssertionError("no convergence")

    def rk4(y, slope):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        return y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), None, 0, 0.0

    def starting_slope(history):
        if len(history) == 3:
            return 3.0 * history[0] - 3.0 * history[1] + history[2]
        if len(history) == 2:
            return 2.0 * history[0] - history[1]
        return history[0] if history else None

    step = {"implicit-midpoint": midpoint, "gauss4": gauss4, "rk4-check": rk4}[method]
    y = np.array(x0.flat())
    states, history, iterations = [y], [], {}
    max_update, max_update_step = 0.0, 0
    for k in range(1, n_steps + 1):
        y, slope, its, update = step(y, starting_slope(history))
        iterations[its] = iterations.get(its, 0) + 1
        if update > max_update:
            max_update, max_update_step = update, k
        if slope is not None:
            history = [slope, *history[:2]]
        states.append(y)
    return states, dynamics.SolverStats(n_rhs, iterations, max_update, max_update_step)


@pytest.mark.parametrize("method", dynamics.METHODS)
def test_list_steppers_match_ndarray_steppers_bit_for_bit(method):
    n_steps = 200
    for label, h, x0 in criterion_8_systems():
        ref_states, ref_stats = parent_trajectory(h, x0, 1e-3, n_steps, method)
        traj = dynamics.integrate(h, x0, n_steps * 1e-3, 1e-3, method)
        assert [list(s.flat()) for s in traj.states] == [s.tolist() for s in ref_states], label
        assert traj.solver == ref_stats, label


@pytest.mark.parametrize("step", [dynamics._midpoint_step, dynamics._gauss4_step])
def test_nan_update_never_converges(step):
    # a NaN past the first slot: Python's max would drop it, np.max does not
    def rhs(vec):
        return [0.0, float("nan"), 0.0, 0.0]

    assert np.isnan(dynamics._update_norm([0.0, float("nan")], [0.0, 0.0]))
    with pytest.raises(dynamics.IntegrationError, match="did not converge"):
        step(rhs, [0.1, 0.2, 0.3, 0.4], 1e-3, 1e-3)


def test_each_monitored_value_is_evaluated_once(monkeypatch):
    calls = {}
    call = PhaseFunction.__call__

    def counted(f, x):
        calls[f.label] = calls.get(f.label, 0) + 1
        return call(f, x)

    monkeypatch.setattr(PhaseFunction, "__call__", counted)
    monitored = monitored_superintegrable(Z8)
    traj = dynamics.integrate(monitored["H"], X8, 0.02, 1e-3, keep_every=5)
    header, rows = dynamics.trajectory_table(traj, monitored)
    drifts = dynamics.conservation_report(traj, monitored).drifts
    assert calls == {f.label: len(traj) for f in monitored.values()}
    # the drift reads the table's values
    col = header.index("C(3)")
    ref = rows[0][col]
    assert drifts["C(3)"] == max(abs(r[col] - ref) / max(1.0, abs(ref)) for r in rows[1:])


def test_unevaluable_monitored_value_is_nan_in_the_table_and_raises_in_the_report():
    h = hamiltonian_integrable(2, 0.0)
    traj = dynamics.integrate(h, PhasePoint([0.1, 0.2], [0.3, 0.4]), 0.1, 0.05)
    x1 = float(traj.states[1].q[0])
    bad = PhaseFunction(2, lambda q, p: 1.0 / (q[0] - x1), "bad")
    header, rows = dynamics.trajectory_table(traj, {"bad": bad, "H": h})
    assert [np.isnan(r[header.index("bad")]) for r in rows] == [False, True, False]
    assert rows[1][header.index("H")] == pytest.approx(0.125)
    with pytest.raises(ZeroDivisionError):
        dynamics.conservation_report(traj, {"H": h, "bad": bad})


def test_solver_stats_record_iterations_and_updates():
    h = hamiltonian_integrable(3, Z8)
    traj = dynamics.integrate(h, X8, 0.05, 1e-3)
    stats = traj.solver
    # step 1 is Euler-started: one predictor evaluation on top of its iterations
    assert stats.rhs_evals == 1 + sum(i * n for i, n in stats.iterations.items())
    assert 0.0 < stats.max_update < dynamics.FIXED_POINT_TOL
    assert 1 <= stats.max_update_step <= 50
    rk4 = dynamics.integrate(h, X8, 0.05, 1e-3, "rk4-check").solver
    assert rk4.rhs_evals == 4 * 50 and rk4.iterations == {0: 50}


def test_partial_trajectory_carries_solver_stats():
    h = hamiltonian_superintegrable(3, 1.0)
    wild = PhasePoint([1.5, -1.4, 1.3], [2.0, 2.0, -2.0])
    with pytest.raises(dynamics.IntegrationError) as err:
        dynamics.integrate(h, wild, 10.0, 5.0)
    assert err.value.partial.solver.rhs_evals > 0


def test_generic_code_sees_python_floats():
    # real points reach the generic scalar code as Python floats (dual and
    # reverse seeds aside, and the reverse seeds' values are floats too), not
    # numpy scalars, through every evaluation route; each route gets a new
    # function, whose first gradient is a reverse pass (later ones run
    # compiled code, which calls no ``fn``)
    seen = set()

    def fn(q, p):
        seen.update(type(v) for v in (*q, *p) if not isinstance(v, (dual.Dual, dual.Rev)))
        seen.update(type(v.v) for v in (*q, *p) if isinstance(v, dual.Rev))
        return 0.5 * (p[0] * p[0] + p[1] * p[1]) * dual.exp(0.3 * q[0] * q[1])

    x = PhasePoint([0.3, -0.2], [0.1, 0.4])
    for run in (lambda h: h(x), lambda h: gradient(h, x),
                lambda h: dynamics.integrate(h, x, 0.005, 0.001)):
        seen.clear()
        run(PhaseFunction(2, fn, "spy"))
        assert seen == {float}


def test_non_finite_phase_velocity_stops_the_run():
    # the gradient overflows to inf in float arithmetic: the run stops at
    # the first step with the partial trajectory, not after 50 nan iterations
    h = PhaseFunction(1, lambda q, p: 0.5 * p[0] * p[0] * dual.exp(q[0]) * 1e300, "huge")
    with pytest.raises(dynamics.IntegrationError, match="not finite") as info:
        dynamics.integrate(h, PhasePoint([700.0], [1.0]), 0.01, 0.001)
    assert len(info.value.partial) == 1
