"""Acceptance suite: one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Expected values used as oracles are independent transcriptions
of the closed forms (evaluated in-line) or high-precision frozen constants.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from zgeoflow import charts, dynamics
from zgeoflow import geometry as geo
from zgeoflow.algebra import (
    casimir_m,
    casimir_one,
    hamiltonian_integrable,
    hamiltonian_superintegrable,
    integral_extra_2,
    integral_extra_3,
    realize_generators,
)
from zgeoflow.brackets import (
    bracket_residual,
    check_algebra,
    check_involution,
    gradient_fd,
    gradient_rows,
    independence_rank,
    sample_points,
)
from zgeoflow.cli import main as cli_main
from zgeoflow.phase import PhasePoint

Z_GRID_ALGEBRA = (-0.7, 0.0, 0.3, 1.0)
Z_GRID_CURVATURE = (-0.5, 0.3, 1.0)


def shc(x):
    return math.sinh(x) / x if x != 0 else 1.0


def casimir_two_oracle(z, q, p):
    q1, q2 = q[:2]
    p1, p2 = p[:2]
    return (
        shc(z * q1**2) * shc(z * q2**2) * (q1 * p2 - q2 * p1) ** 2
        * math.exp(-z * q1**2) * math.exp(z * q2**2)
    )


def casimir_three_oracle(z, q, p):
    q1, q2, q3 = q[:3]
    p1, p2, p3 = p[:3]
    e = math.exp
    return (
        shc(z * q1**2) * shc(z * q2**2) * (q1 * p2 - q2 * p1) ** 2
        * e(-z * q1**2) * e(z * q2**2) * e(2 * z * q3**2)
        + shc(z * q1**2) * shc(z * q3**2) * (q1 * p3 - q3 * p1) ** 2
        * e(-z * q1**2) * e(z * q3**2)
        + shc(z * q2**2) * shc(z * q3**2) * (q2 * p3 - q3 * p2) ** 2
        * e(-2 * z * q1**2) * e(-z * q2**2) * e(z * q3**2)
    )


def grid_3d(points=5, bound=1.0):
    axis = np.linspace(-bound, bound, points)
    return [
        [float(a), float(b), float(c)] for a in axis for b in axis for c in axis
    ]


def cart_interior_samples(count, seed):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(rng.uniform(0.15, 0.9, 3), rng.uniform(-1.0, 1.0, 3))
        for _ in range(count)
    ]


def relativistic_polar_samples(count, seed):
    rng = np.random.default_rng(seed)
    return [
        charts.PolarPoint(
            rng.uniform(0.35, 0.7),
            rng.uniform(0.3, 0.8),
            rng.uniform(0.3, 1.2),
            *rng.uniform(-1.0, 1.0, 3),
        )
        for _ in range(count)
    ]


def test_criterion_1_algebra_realization():
    worst = 0.0
    for n in range(1, 6):
        for z in Z_GRID_ALGEBRA:
            gen = realize_generators(n, z)
            jm, jp, j3 = gen.as_tuple()
            pts = sample_points(n, 200, seed=42)
            values = [[float(f(x)) for f in (jm, jp, j3)] for x in pts]
            report = check_algebra(z, values, *gradient_rows((jm, jp, j3), pts))
            worst = max(worst, report.max_residual)
            assert report.max_residual < 1e-9, f"N={n} z={z}: {report}"
            # FD oracle spot check on the three defining brackets
            for x in sample_points(n, 3, seed=7):
                for f, g in ((j3, jp), (j3, jm), (jm, jp)):
                    gf, gg = gradient_fd(f, x), gradient_fd(g, x)
                    fd = float(np.dot(gf.dq, gg.dp) - np.dot(gf.dp, gg.dq))
                    from zgeoflow.brackets import poisson_bracket

                    exact = poisson_bracket(f, g, x)
                    assert abs(exact - fd) < 1e-6 * (1.0 + abs(exact))
    print(f"PASS criterion 1: bracket relations, max residual {worst:.2e} < 1e-9")


def test_criterion_2_casimir_hierarchy():
    rng = np.random.default_rng(0)
    c1_worst = 0.0
    for z in Z_GRID_ALGEBRA:
        c1 = casimir_one(z)
        for _ in range(50):
            x = PhasePoint(rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1))
            c1_worst = max(c1_worst, abs(float(c1(x))))
    assert c1_worst < 1e-12

    closed_worst = 0.0
    for z in (-0.5, 0.3, 1.0):
        c2 = casimir_m(2, 3, z)
        c3 = casimir_m(3, 3, z)
        for x in sample_points(3, 50, seed=10):
            ref2 = casimir_two_oracle(z, list(x.q), list(x.p))
            ref3 = casimir_three_oracle(z, list(x.q), list(x.p))
            r2 = abs(float(c2(x)) - ref2) / max(1e-30, abs(ref2))
            r3 = abs(float(c3(x)) - ref3) / max(1e-30, abs(ref3))
            closed_worst = max(closed_worst, r2, r3)
    assert closed_worst < 1e-12

    central_worst = 0.0
    z = 0.3
    for n in range(2, 6):
        gen = realize_generators(n, z)
        cas = [casimir_m(m, n, z) for m in range(2, n + 1)]
        pts = sample_points(n, 25, seed=91)
        for c in cas:
            for g in gen.as_tuple():
                for x in pts:
                    central_worst = max(central_worst, bracket_residual(c, g, x))
        rep = check_involution(*gradient_rows(cas, pts))
        central_worst = max(central_worst, rep.max_residual)
    assert central_worst < 1e-9
    print(
        "PASS criterion 2: C(1) <= "
        f"{c1_worst:.2e}, closed forms to {closed_worst:.2e}, "
        f"centrality/tower {central_worst:.2e}"
    )


def test_criterion_3_integrability_and_superintegrability():
    z = 0.3
    h_int = hamiltonian_integrable(3, z)
    h_sup = hamiltonian_superintegrable(3, z)
    c2, c3 = casimir_m(2, 3, z), casimir_m(3, 3, z)
    i2, i3 = integral_extra_2(z, 3), integral_extra_3(z, 3)

    pts = sample_points(3, 40, seed=6)
    rep = check_involution(*gradient_rows([h_int, c2, c3], pts))
    assert rep.max_residual < 1e-9, rep
    worst = rep.max_residual
    for c in (c2, c3, i2, i3):
        for x in pts:
            worst = max(worst, bracket_residual(h_sup, c, x))
    for triple in ([h_sup, c2, c3], [h_sup, i2, i3]):
        rep = check_involution(*gradient_rows(triple, pts))
        worst = max(worst, rep.max_residual)
    assert worst < 1e-9

    pts = sample_points(3, 10, seed=33)
    int_q, int_p = gradient_rows([h_int, c2, c3], pts)
    sup_q, sup_p = gradient_rows([h_sup, c2, c3, i2, i3], pts)
    ranks_int = [independence_rank(q, p).rank for q, p in zip(int_q, int_p)]
    ranks_sup = [independence_rank(q, p).rank for q, p in zip(sup_q, sup_p)]
    assert all(r == 3 for r in ranks_int), ranks_int
    assert all(r == 5 for r in ranks_sup), ranks_sup
    print(
        f"PASS criterion 3: involutions to {worst:.2e}, "
        f"ranks 3 and 5 at {len(pts)} generic points"
    )


def test_criterion_4_variable_curvature():
    check = cart_interior_samples(3, seed=1)
    worst_rel = 0.0
    worst_identity = 0.0
    for z in Z_GRID_CURVATURE:
        g = geo.line_element_from_hamiltonian(
            hamiltonian_integrable(3, z), 3, check
        )
        for q in grid_3d(5, 1.0):
            sect, scal = geo.curvature_summary(g, q)
            ref = geo.variable_curvature_sectionals(z, q)
            ref_scal = geo.variable_curvature_scalar(z, q)
            for key in sect:
                denom = max(1e-12, abs(ref[key]))
                worst_rel = max(worst_rel, abs(sect[key] - ref[key]) / denom)
            worst_rel = max(
                worst_rel, abs(scal - ref_scal) / max(1e-12, abs(ref_scal))
            )
            worst_identity = max(
                worst_identity, abs(scal - 2.0 * sum(sect.values()))
            )
    assert worst_rel < 1e-6
    assert worst_identity < 1e-7
    print(
        f"PASS criterion 4: sectional/scalar closed forms to {worst_rel:.2e} "
        f"relative, K = 2*sum(K_ij) to {worst_identity:.2e}"
    )


def test_criterion_5_constant_curvature():
    check = cart_interior_samples(3, seed=2)
    for z in Z_GRID_CURVATURE:
        g = geo.line_element_from_hamiltonian(
            hamiltonian_superintegrable(3, z), 3, check
        )
        sect_vals = []
        for q in grid_3d(5, 1.0):
            sect, scal = geo.curvature_summary(g, q)
            sect_vals.extend(sect.values())
            assert abs(scal - 6.0 * z) < 1e-7
        assert np.std(sect_vals) < 1e-8
        assert abs(np.mean(sect_vals) - z) < 1e-8

    check2 = [
        PhasePoint([0.31, 0.47], [0.29, -0.53]),
        PhasePoint([-0.62, 0.18], [0.71, 0.36]),
    ]
    worst_2d = 0.0
    for z in Z_GRID_CURVATURE:
        gs2 = geo.line_element_from_hamiltonian(
            hamiltonian_superintegrable(2, z), 2, check2
        )
        gi2 = geo.line_element_from_hamiltonian(
            hamiltonian_integrable(2, z), 2, check2
        )
        axis = np.linspace(-1, 1, 5)
        for a in axis:
            for b in axis:
                q = [float(a), float(b)]
                k_const = geo.gaussian_curvature_2d(gs2, q)
                assert abs(k_const - z) < 1e-6
                k_var = geo.gaussian_curvature_2d(gi2, q)
                ref = geo.gaussian_curvature_variable_2d(z, q)
                err = abs(k_var - ref) / max(1e-9, abs(ref))
                worst_2d = max(worst_2d, err)
    assert worst_2d < 1e-6
    print(
        "PASS criterion 5: 3D constant curvature K_ij = z (std < 1e-8), "
        f"K = 6z; 2D constant and variable Gaussian to {worst_2d:.2e}"
    )


def test_criterion_6_coordinate_transform():
    worst_round = worst_canon = worst_match = 0.0
    for z in (0.3, 0.7):
        # Riemannian family: sample the Cartesian side
        h_cart = hamiltonian_integrable(3, z)
        c2_cart = casimir_m(2, 3, z)
        c3_cart = casimir_m(3, 3, z)
        system = charts.integrable_polar_system(z, 1.0)
        for point in cart_interior_samples(5, seed=60):
            x = charts.cart_to_polar(point.q, z, 1.0)
            back = charts.polar_to_cart(x, z, 1.0)
            worst_round = max(worst_round, float(np.max(np.abs(np.subtract(back, point.q)))))
            res = charts.fundamental_bracket_residuals(point, z, 1.0)
            worst_canon = max(worst_canon, float(np.max(res)))
            state = charts.transform_to_polar(point, z, 1.0, "chart").as_phase_point()
            hv = float(h_cart(point))
            worst_match = max(
                worst_match,
                abs(float(system.hamiltonian(state)) - 2 * hv) / max(1.0, abs(2 * hv)),
                abs(float(system.constants["C(2)"](state)) - 4 * float(c2_cart(point))),
                abs(float(system.constants["C(3)"](state)) - 4 * float(c3_cart(point))),
            )
        # relativistic family: sample the polar side, complex octant below
        system_rel = charts.integrable_polar_system(z, -1.0)
        for pp in relativistic_polar_samples(5, seed=61):
            cart = charts.transform_to_cartesian(pp, z, -1.0, "chart")
            back = charts.transform_to_polar(cart, z, -1.0, "chart")
            worst_round = max(
                worst_round,
                float(np.max(np.abs(np.subtract(back.position(), pp.position())))),
                float(np.max(np.abs(np.subtract(back.momentum(), pp.momentum())))),
            )
            res = charts.fundamental_bracket_residuals(cart, z, -1.0)
            worst_canon = max(worst_canon, float(np.max(res)))
            hv = complex(h_cart.raw(list(cart.q), list(cart.p)))
            c2v = complex(c2_cart.raw(list(cart.q), list(cart.p)))
            c3v = complex(c3_cart.raw(list(cart.q), list(cart.p)))
            assert max(abs(hv.imag), abs(c2v.imag), abs(c3v.imag)) < 1e-9
            state = pp.as_phase_point()
            worst_match = max(
                worst_match,
                abs(float(system_rel.hamiltonian(state)) - 2 * hv.real)
                / max(1.0, 2 * abs(hv)),
                abs(float(system_rel.constants["C(2)"](state)) - 4 * c2v.real),
                abs(float(system_rel.constants["C(3)"](state)) - 4 * (-1.0) * c3v.real),
            )
    assert worst_round < 1e-10
    assert worst_canon < 1e-9
    assert worst_match < 1e-9
    print(
        f"PASS criterion 6: round trip {worst_round:.2e}, canonicity "
        f"{worst_canon:.2e}, matched-point equalities {worst_match:.2e}"
    )


def _agree(got, want, floor=0.0):
    """Entry by entry, |got - want| <= 1e-13 max(floor, |got|, |want|)."""
    return all(
        abs(complex(u) - complex(v)) <= 1e-13 * max(floor, abs(u), abs(v))
        for u, v in zip(got, want, strict=True)
    )


class _NumpyComplexPoint:
    """A complex phase point whose scalars are numpy complex128, as
    PhasePoint handed them to the chart code before it held Python scalars."""

    dim = 3

    def __init__(self, point):
        self.q, self.p = point.q, point.p

    def scalars(self):
        return [np.complex128(v) for v in self.q], [np.complex128(v) for v in self.p]


def test_criterion_6_complex_octant_matches_numpy_complex():
    # the kappa2 < 0 chart results on Python complex scalars agree with the
    # same code run on numpy complex128 ones, at criterion 6's points
    for z in (0.3, 0.7):
        for pp in relativistic_polar_samples(5, seed=61):
            x = pp.position()
            assert _agree(
                charts._polar_to_cart_generic([complex(v) for v in x], z, -1.0),
                charts._polar_to_cart_generic([np.complex128(v) for v in x], z, -1.0),
            )
            cart = charts.transform_to_cartesian(pp, z, -1.0, "chart")
            from_numpy = charts.transform_to_cartesian(
                charts.PolarPoint(*map(np.complex128, dataclasses.astuple(pp))), z, -1.0, "chart"
            )
            assert _agree(cart.flat(), from_numpy.flat())
            assert _agree(
                charts._cart_to_polar_generic(list(cart.q), z, -1.0),
                charts._cart_to_polar_generic([np.complex128(v) for v in cart.q], z, -1.0),
            )
            assert _agree(
                sum(charts.fundamental_bracket_residuals(cart, z, -1.0), []),
                sum(charts.fundamental_bracket_residuals(_NumpyComplexPoint(cart), z, -1.0), []),
                floor=1.0,  # residuals of brackets whose canonical values are 0 and 1
            )


def test_criterion_7_radial_reparametrization():
    r_closed = charts.rho_to_r(1.0, 1.0)
    r_quad, quad_err = quad(lambda x: 1.0 / math.cosh(x), 0.0, 1.0, epsabs=1e-13)
    assert abs(r_closed - r_quad) < 1e-10

    worst_inv = 0.0
    for z in (1.0, 0.3, -0.6):
        for rho in np.linspace(0.05, 1.4, 12):
            if z < 0 and math.sqrt(-z) * rho >= math.pi / 2:
                continue
            worst_inv = max(
                worst_inv, abs(charts.r_to_rho(charts.rho_to_r(rho, z), z) - rho)
            )
    assert worst_inv < 1e-12

    z = 0.3
    system = charts.superintegrable_polar_system(z, 1.0)
    check = [
        PhasePoint([0.71, 0.62, 0.53], [0.2, 0.3, 0.4]),
        PhasePoint([0.55, 0.91, 0.77], [-0.3, 0.1, 0.5]),
    ]
    g = geo.metric_from_hamiltonian(system.hamiltonian, 3, check)
    rng = np.random.default_rng(3)
    worst_k = 0.0
    for _ in range(6):
        x = [rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.2), rng.uniform(0.3, 1.2)]
        sect, scal = geo.curvature_summary(g, x)
        for val in sect.values():
            worst_k = max(worst_k, abs(val - z))
        worst_k = max(worst_k, abs(scal - 6 * z) / 6.0)
    assert worst_k < 1e-8
    print(
        f"PASS criterion 7: quadrature agreement {abs(r_closed - r_quad):.2e}, "
        f"inverse to {worst_inv:.2e}, r-chart K_ij = z to {worst_k:.2e}"
    )


def test_criterion_8_geodesic_conservation():
    z = 0.3
    # slow enough that the orbit stays inside the Cartesian chart of the
    # curvature-z sphere for the whole window (geodesics cross the chart
    # equator, where |q| diverges, in time inversely proportional to speed)
    x0 = PhasePoint([0.25, 0.15, 0.35], [0.05, -0.04, 0.06])
    worst = 0.0
    for label, h, extras in (
        (
            "integrable",
            hamiltonian_integrable(3, z),
            {"C(2)": casimir_m(2, 3, z), "C(3)": casimir_m(3, 3, z)},
        ),
        (
            "superintegrable",
            hamiltonian_superintegrable(3, z),
            {
                "C(2)": casimir_m(2, 3, z),
                "C(3)": casimir_m(3, 3, z),
                "I(2)": integral_extra_2(z, 3),
                "I(3)": integral_extra_3(z, 3),
            },
        ),
    ):
        traj = dynamics.integrate(h, x0, 10.0, 1e-3, keep_every=25)
        rep = dynamics.conservation_report(traj, {"H": h, **extras})
        worst = max(worst, rep.max_drift())
        assert rep.max_drift() < 1e-8, (label, rep.drifts)

    # order check on a livelier orbit so the dt^2 term dominates solver noise
    h = hamiltonian_integrable(3, z)
    x0_fast = PhasePoint([0.25, 0.15, 0.35], [0.2, -0.15, 0.3])
    drifts = []
    for dt in (2e-3, 1e-3):
        traj = dynamics.integrate(h, x0_fast, 2.0, dt, keep_every=20)
        drifts.append(dynamics.conservation_report(traj, {"H": h}).drifts["H"])
    factor = drifts[0] / drifts[1]
    assert 3.5 <= factor <= 4.5, factor

    flat = dynamics.integrate(
        hamiltonian_integrable(3, 0.0),
        PhasePoint([0.1, -0.2, 0.3], [0.4, 0.5, -0.6]),
        1.0,
        1e-3,
        keep_every=100,
    )
    for t, state in zip(flat.times, flat.states):
        expected = np.array([0.1, -0.2, 0.3]) + t * np.array([0.4, 0.5, -0.6])
        assert np.max(np.abs(state.q - expected)) < 1e-10
    print(
        f"PASS criterion 8: drifts < {worst:.2e} over t = 10, halving factor "
        f"{factor:.2f} in [3.5, 4.5], flat lines straight to 1e-10"
    )


def test_criterion_9_determinism_and_exit_codes(tmp_path):
    # byte-identical reruns for every command
    commands = [
        ["verify", "--n", "2", "--z", "0.3", "--samples", "15", "--seed", "5",
         "--format", "json"],
        ["simulate", "--n", "3", "--z", "0.3", "--q", "0.25,0.15,0.35",
         "--p", "0.2,-0.15,0.3", "--t-end", "0.2", "--dt", "0.002",
         "--keep-every", "10"],
        ["curvature", "--metric", "superintegrable", "--z", "0.4",
         "--grid-points", "3"],
        ["transform", "--q", "0.5,0.4,0.6", "--p", "0.2,-0.3,0.45", "--z", "0.3",
         "--with-r", "--roundtrip"],
    ]
    for i, args in enumerate(commands):
        out = tmp_path / f"det{i}.out"
        assert cli_main(args + ["--output", str(out)]) == 0
        first = out.read_bytes()
        assert cli_main(args + ["--output", str(out)]) == 0
        assert out.read_bytes() == first, args[0]

    # exit-code contract matrix: 0 success, 1 config error, 2 numerical
    matrix = [
        (["verify", "--n", "2", "--z", "0", "--samples", "10",
          "--output", str(tmp_path / "ok.txt")], 0),
        (["verify", "--n", "0"], 1),
        (["simulate", "--n", "3", "--z", "0.3"], 1),
        (["simulate", "--method", "verlet"], 1),
        (["transform", "--q", "1,2"], 1),
        (["verify", "--n", "2", "--z", "0.5", "--samples", "5",
          "--threshold", "1e-30", "--output", str(tmp_path / "bad.txt")], 2),
        (["transform", "--q", "0.5,0.4,0.6", "--z", "0.3", "--kappa2", "-1",
          "--output", str(tmp_path / "oc.json")], 2),
        (["simulate", "--chart", "polar", "--n", "3", "--z", "0.3",
          "--q", "0.8,0.0,0.5", "--p", "0.1,0.0,0.2", "--t-end", "0.05",
          "--dt", "0.001", "--output", str(tmp_path / "trunc.csv")], 2),
    ]
    for args, expected in matrix:
        assert cli_main(args) == expected, args
    print("PASS criterion 9: byte-identical reruns; exit-code matrix 0/1/2 holds")
