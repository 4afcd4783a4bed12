"""Polar charts: trig kernels, round trips, canonicity, matched-point scales."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from zgeoflow import charts, dual, taylor
from zgeoflow import geometry as geo
from zgeoflow.algebra import (
    casimir_m,
    hamiltonian_integrable,
    hamiltonian_superintegrable,
    integral_extra_2,
    integral_extra_3,
)
from zgeoflow.brackets import bracket_matrix, gradient_brackets, poisson_bracket
from zgeoflow.phase import EvaluationDomainError, PhasePoint

SINH_1 = 1.1752011936438014


def polar_samples(count, seed, rho_max=1.1, theta_max=1.2):
    """Chart-interior polar samples.

    For the relativistic family (kappa2 < 0) the chart needs
    sinh^2(l1 rho) sinh^2(theta) < 1; pass tighter rho_max/theta_max there.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        pos = [
            rng.uniform(0.4, rho_max),
            rng.uniform(0.3, theta_max),
            rng.uniform(0.3, 1.2),
        ]
        mom = rng.uniform(-1.0, 1.0, 3)
        out.append(charts.PolarPoint(*pos, *mom))
    return out


def relativistic_samples(count, seed):
    return polar_samples(count, seed, rho_max=0.7, theta_max=0.8)


def cart_samples(count, seed, lo=0.15, hi=0.9):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(rng.uniform(lo, hi, 3), rng.uniform(-1.0, 1.0, 3))
        for _ in range(count)
    ]


# --------------------------------------------------------------------------
# kappa trigonometry
# --------------------------------------------------------------------------


def test_kappa_sin_values():
    assert charts.kappa_sin(0.0, 1.7) == 1.7
    assert charts.kappa_sin(1.0, math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert charts.kappa_sin(-1.0, 1.0) == pytest.approx(SINH_1, rel=1e-15)
    assert charts.kappa_cos(0.0, 2.3) == 1.0
    assert charts.kappa_cos(4.0, 0.5) == pytest.approx(math.cos(1.0), rel=1e-15)
    assert charts.kappa_cos(-4.0, 0.5) == pytest.approx(math.cosh(1.0), rel=1e-15)
    assert charts.kappa_tan(1.0, 0.7) == pytest.approx(math.tan(0.7), rel=1e-14)


def test_kappa_trig_series_matches_exact_branch():
    # just below the series cutoff the truncated series equals the closed form
    for u in (0.99e-4, -0.99e-4):
        kappa = u  # x = 1 so u = kappa
        if u > 0:
            exact_s, exact_c = math.sin(math.sqrt(u)) / math.sqrt(u), math.cos(
                math.sqrt(u)
            )
        else:
            exact_s, exact_c = math.sinh(math.sqrt(-u)) / math.sqrt(-u), math.cosh(
                math.sqrt(-u)
            )
        assert charts.kappa_sin(kappa, 1.0) == pytest.approx(exact_s, rel=1e-14)
        assert charts.kappa_cos(kappa, 1.0) == pytest.approx(exact_c, rel=1e-14)
    assert charts.kappa_sin(1e-9, 0.7) == pytest.approx(0.7, rel=1e-9)
    assert charts.kappa_cos(1e-9, 0.7) == pytest.approx(1.0, rel=1e-9)


def test_kappa_trig_differentiable():
    # d/dx kappa_sin(k, x) = kappa_cos(k, x)
    for kappa in (-0.8, -1e-6, 0.0, 1e-6, 1.3):
        for x in (0.3, 1.1):
            got = dual.derivative(lambda y: charts.kappa_sin(kappa, y), x)
            assert got == pytest.approx(charts.kappa_cos(kappa, x), rel=1e-12)


def test_relation_to_hyperbolic_functions():
    z, rho = 0.6, 0.9
    l1 = math.sqrt(z)
    assert charts.kappa_sin(-z, rho) == pytest.approx(math.sinh(l1 * rho) / l1, rel=1e-15)
    assert charts.kappa_cos(-z, rho) == pytest.approx(math.cosh(l1 * rho), rel=1e-15)


# --------------------------------------------------------------------------
# chart round trips and residuals
# --------------------------------------------------------------------------


@pytest.mark.parametrize("z", [0.2, 0.7])
def test_round_trip_on_grid(z):
    sizes = np.linspace(0.25, 1.0, 4)
    for q1 in sizes:
        for q2 in sizes:
            for q3 in sizes:
                q = np.array([q1, q2, q3])
                x = charts.cart_to_polar(q, z, 1.0)
                back = charts.polar_to_cart(x, z, 1.0)
                assert np.max(np.abs(back - q)) < 1e-10 * max(1.0, np.max(np.abs(q)))
                assert np.max(charts.chart_relation_residuals(q, x, z, 1.0)) < 1e-10


def test_round_trip_negative_z():
    z = -0.4
    q = np.array([0.5, 0.7, 0.3])
    x = charts.cart_to_polar(q, z, 1.0)
    back = charts.polar_to_cart(x, z, 1.0)
    assert np.max(np.abs(back - q)) < 1e-12
    assert np.max(charts.chart_relation_residuals(q, x, z, 1.0)) < 1e-12


def test_flat_chart_is_the_analytic_limit():
    q = np.array([0.5, 0.4, 0.6])
    x0 = charts.cart_to_polar(q, 0.0, 1.0)
    # the curved chart leaves the flat one linearly in z, with no roundoff floor
    for z in (1e-7, -1e-7, 1e-10, -1e-10, 1e-12, -1e-12):
        x_z = charts.cart_to_polar(q, z, 1.0)
        assert np.max(np.abs(np.subtract(x0, x_z))) <= abs(z), z
    assert x0[0] == pytest.approx(math.sqrt(2.0) * np.linalg.norm(q), rel=1e-14)
    back = charts.polar_to_cart(x0, 0.0, 1.0)
    assert np.max(np.abs(back - q)) < 1e-12


small_z = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, e: sign * 10.0**e,
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=-300.0, max_value=0.0),
    ),
)
chart_q = st.lists(st.floats(min_value=0.05, max_value=0.9), min_size=3, max_size=3)


@settings(max_examples=200, deadline=None)
@given(q=chart_q, z=small_z)
def test_round_trip_for_every_scale_of_z(q, z):
    x = charts.cart_to_polar(q, z, 1.0)
    back = charts.polar_to_cart(x, z, 1.0)
    assert np.max(np.abs(back - np.array(q))) <= 1e-12
    # the relativistic family, entered from the polar side (complex octant)
    x = np.array([0.6, 0.5, 0.7])
    back = charts.cart_to_polar(charts.polar_to_cart(x, z, -1.0), z, -1.0)
    assert np.max(np.abs(back - x)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(q=chart_q, z=small_z)
def test_rho_matches_high_precision_closed_form(q, z):
    # sinh^2(l1 rho) = e^{2z q^2} - 1, evaluated at 50 digits (expm1 keeps
    # them at |z| down to 1e-300); z = 0 is the flat chart rho = sqrt(2 q^2)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        zm = mpmath.mpf(z)
        qq = mpmath.fsum(mpmath.mpf(v) ** 2 for v in q)
        a = mpmath.expm1(2 * zm * qq)
        if z > 0:
            ref = mpmath.asinh(mpmath.sqrt(a)) / mpmath.sqrt(zm)
        elif z < 0:
            ref = mpmath.asin(mpmath.sqrt(-a)) / mpmath.sqrt(-zm)
        else:
            ref = mpmath.sqrt(2 * qq)
        ref = float(ref)
    rho = charts.cart_to_polar(q, z, 1.0)[0]
    assert abs(rho - ref) <= 2e-15 * ref


def test_origin_maps_to_zero():
    x = charts.cart_to_polar([0.0, 0.0, 0.0], 0.3, 1.0)
    assert np.allclose(x, 0.0)
    assert np.allclose(charts.polar_to_cart([0.0, 0.0, 0.0], 0.3, 1.0), 0.0)
    assert charts.rho_to_r(0.0, 1.0) == 0.0


def test_relativistic_chart_rejects_real_points():
    with pytest.raises(charts.OutOfChartError) as err:
        charts.cart_to_polar([0.5, 0.4, 0.6], 0.3, -1.0)
    assert err.value.relation in (2, 3, 4)


def test_polar_to_cart_rejects_out_of_branch_rho():
    rho_bad = math.pi / (2 * math.sqrt(0.5)) + 0.01
    with pytest.raises(charts.OutOfChartError) as err:
        charts.polar_to_cart([rho_bad, 0.5, 0.5], -0.5, 1.0)
    assert err.value.relation == 1


def test_polar_to_cart_rejects_nonpositive_log():
    # relativistic family: sinh^2(l1 rho) sinh^2(theta) >= 1 leaves the chart
    with pytest.raises(charts.OutOfChartError) as err:
        charts.polar_to_cart([2.0, 2.0, 0.5], 0.7, -1.0)
    assert err.value.relation in (3, 4)


def test_complex_octant_round_trip():
    z, k2 = 0.3, -1.0
    for pp in relativistic_samples(4, seed=5):
        q = charts.polar_to_cart(pp.position(), z, k2)
        assert np.iscomplexobj(q)
        # squared coordinates are real: q1, q2 pure imaginary, q3 real
        assert abs(q[0].real) < 1e-14 and abs(q[1].real) < 1e-14
        assert abs(q[2].imag) < 1e-14
        x = charts.cart_to_polar(q, z, k2)
        assert np.max(np.abs(np.real(x) - pp.position())) < 1e-10
        assert np.max(np.abs(np.imag(x))) < 1e-10
        assert np.max(charts.chart_relation_residuals(q, pp.position(), z, k2)) < 1e-10


# --------------------------------------------------------------------------
# momenta: canonicity and matched-point equalities
# --------------------------------------------------------------------------


@pytest.mark.parametrize("z", [0.3, 0.7])
def test_fundamental_brackets_riemannian(z):
    for point in cart_samples(3, seed=31):
        res = charts.fundamental_bracket_residuals(point, z, 1.0)
        assert np.max(res) < 1e-9


@pytest.mark.parametrize("z", [0.3, 0.7])
def test_fundamental_brackets_relativistic(z):
    for pp in relativistic_samples(2, seed=13):
        cart = charts.transform_to_cartesian(pp, z, -1.0)
        res = charts.fundamental_bracket_residuals(cart, z, -1.0)
        assert np.max(res) < 1e-9


def _nested_canonicity(point, z, kappa2):
    """The six chart functions' gradients one pass per slot, as an oracle."""
    vals, _ = bracket_matrix(charts.polar_chart_functions(z, kappa2), point)
    return np.abs(vals - np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(3)))


@pytest.mark.parametrize("z", [0.7, 0.3, -0.3, 1e-3, 1e-6, 1e-9, 1e-12, 1e-13, 5e-14, 0.0])
@pytest.mark.parametrize("kappa2", [1.0, -1.0])
def test_chain_rule_canonicity_matches_per_function_gradients(z, kappa2):
    for pp in relativistic_samples(2, seed=17):
        point = charts.transform_to_cartesian(pp, z, kappa2)
        got = charts.fundamental_bracket_residuals(point, z, kappa2)
        assert np.max(np.abs(got - _nested_canonicity(point, z, kappa2))) < 1e-13


@pytest.mark.parametrize("z", [-0.3, -0.1])
def test_anti_de_sitter_preimage_keeps_its_branch(z):
    # at a complex polar point (the image of a complex-octant one) the
    # imaginary parts of q_1^2, q_2^2 carry signed zeros and roundoff; the
    # preimage must stay on the positive imaginary axis, or the Jacobian
    # belongs to another preimage (momentum round trip errors near 0.6)
    for pp in relativistic_samples(4, seed=17):
        cart = charts.transform_to_cartesian(pp, z, -1.0)
        x = charts.cart_to_polar(cart.q, z, -1.0)
        q = charts.polar_to_cart(x, z, -1.0)
        assert q[0].imag > 0 and q[1].imag > 0
        back = charts.transform_to_polar(cart, z, -1.0)
        assert np.max(np.abs(np.subtract(back.momentum(), pp.momentum()))) < 1e-12
        assert np.max(charts.fundamental_bracket_residuals(cart, z, -1.0)) < 1e-9


def test_canonicity_takes_two_jet_passes(monkeypatch):
    tags = []
    fresh_tag = dual.fresh_tag

    def counted():
        tags.append(None)
        return fresh_tag()

    monkeypatch.setattr(dual, "fresh_tag", counted)
    charts.fundamental_bracket_residuals(PhasePoint([0.5, 0.4, 0.6], [0.2, -0.1, 0.3]), 0.3, 1.0)
    assert len(tags) == 2


# --------------------------------------------------------------------------
# the chart pass: one Taylor pass of the position map per polar point
# --------------------------------------------------------------------------

EPS = np.finfo(float).eps

#: two interior polar points, then points near the chart boundary, where
#: |det J| falls to 1e-7, 9e-5, 5e-2 and 3.5e-12
CHART_PASS_POINTS = [
    (0.7, 0.5, 0.6), (1.1, 1.0, 0.4),
    (1e-3, 0.5, 0.6), (0.5, 1e-3, 0.6), (0.4, 0.6, 1e-4), (1e-4, 1e-3, 0.3),
]


def _component(z, kappa2, i):
    return lambda xs: charts._polar_to_cart_generic(xs, z, kappa2)[i]


@pytest.mark.parametrize("z", [0.3, -0.3, 1e-9])
@pytest.mark.parametrize("kappa2", [1.0, -1.0])
def test_chart_pass_matches_per_component_passes(z, kappa2):
    # J row by row against one reverse pass per component, and T_i against
    # the component's own jet; at the interior points T_i also against
    # nested dual passes, an independent second order (near the boundary
    # both sides cancel large terms, and agree only to that scale)
    for k, x in enumerate(CHART_PASS_POINTS):
        chart = charts.ChartPass(x, z, kappa2, order=2)
        for i in range(3):
            f = _component(z, kappa2, i)
            grad = dual.gradient(f, list(x))
            scale = max(abs(v) for v in grad)
            assert all(abs(a - b) <= 4 * EPS * scale for a, b in zip(chart.jacobian[i], grad))
            hess = dual.hessian(f, list(x)) if kappa2 > 0 else dual.jet(f, list(x))[2]
            scale = max(abs(v) for row in hess for v in row)
            for r in range(3):
                for c in range(3):
                    got = chart.hessians[i][r][c]
                    assert abs(got - hess[r][c]) <= 4 * EPS * scale
                    if k < 2:
                        ref = dual.second_partial(f, list(x), r, c)
                        assert abs(got - ref) <= 16 * EPS * scale


def test_chart_pass_runs_once_on_first_use(monkeypatch):
    # one record of the position map (one tag), taken on first use and read
    # by every consumer; the compile rule runs it
    tags, records = [], []
    fresh_tag, record = dual.fresh_tag, dual._record

    def counted():
        tags.append(None)
        return fresh_tag()

    def recorded(f, args):
        records.append(list(args))
        return record(f, args)

    monkeypatch.setattr(dual, "fresh_tag", counted)
    monkeypatch.setattr(dual, "_record", recorded)
    chart = charts.ChartPass([0.7, 0.5, 0.6], 0.3, 1.0, order=2)
    assert tags == records == []
    jac, hess = chart.jacobian, chart.hessians
    assert chart.jacobian is jac and len(tags) == 1 and records == [[0.7, 0.5, 0.6]]
    assert np.array_equal(charts.ChartPass([0.7, 0.5, 0.6], 0.3, 1.0).jacobian, jac)
    assert len(tags) == len(records) == 2 and len(hess) == 3
    with pytest.raises(ValueError, match="order 2"):
        charts.ChartPass([0.7, 0.5, 0.6], 0.3, 1.0).hessians


def _leaf_bits(result):
    return [repr(v) for v in dual._leaves(result)]


@pytest.mark.parametrize("z", [0.0, 0.3, -0.3, 1e-7])
@pytest.mark.parametrize("kappa2", [1.0, -1.0])
def test_cached_chart_code_equals_the_taylor_sweep(monkeypatch, z, kappa2):
    # a chart pass is one record run by the compile rule: the Taylor sweep at
    # a skeleton's first two sightings, compiled on the second, and cached
    # code from the third.  Each call equals the sweep over its own record bit
    # for bit, for both maps at both orders, at real points and (kappa2 < 0)
    # at complex-octant ones.  The maps read values to choose a kernel's
    # series or closed form, so the points near the chart axes take other
    # branches, and other skeletons, than the interior ones: no call runs the
    # code of another branch.
    monkeypatch.setattr(dual, "_SKELETONS", {})
    monkeypatch.setattr(dual, "_SIGHTED", {})
    sweeps = []
    sweep = taylor._taylor

    def counted(*args):
        sweeps.append(None)
        return sweep(*args)

    forward = lambda xs: charts._polar_to_cart_generic(xs, z, kappa2)  # noqa: E731
    inverse = lambda qs: charts._cart_to_polar_generic(qs, z, kappa2)  # noqa: E731
    cases = []
    for x in CHART_PASS_POINTS:
        q = charts.polar_to_cart(x, z, kappa2)
        cases += [(forward, list(x)), (inverse, q)]
        if kappa2 < 0:  # q is complex: so is the polar point it maps to
            cases.append((forward, charts.cart_to_polar(q, z, kappa2)))
    assert kappa2 > 0 or any(isinstance(v, complex) for _, args in cases for v in args)
    for f, args in cases:
        for order in (1, 2):
            want = _leaf_bits(dual.jet(f, args, order))
            monkeypatch.setattr(taylor, "_taylor", counted)
            for sighting in range(3):
                sweeps.clear()
                got = dual.compiled_jet(f, args, order)
                assert _leaf_bits(got) == want, (f, args, order, sighting)
                if sighting > 0:  # the skeleton's second sighting compiled it
                    tape, out = dual._record(f, args)
                    assert dual._skeleton(tape, out, 3, order) in dual._SKELETONS, (args, order)
                if sighting == 2:
                    assert sweeps == [], (args, order)
            monkeypatch.setattr(taylor, "_taylor", sweep)


@pytest.mark.parametrize("x", [(0.0, 0.0, 0.0), (0.5, 0.0, 0.6), (0.0, 0.5, 0.6)])
def test_chart_pass_singular_points(x):
    # each divides by zero inside the pass (sqrt(w)' at w = 0)
    chart = charts.ChartPass(x, 0.3, 1.0)  # nothing is evaluated yet
    with pytest.raises(charts.OutOfChartError, match=r"^singular Jacobian \(chart boundary\)$"):
        chart.jacobian
    with pytest.raises(charts.OutOfChartError, match="singular Jacobian"):
        charts.ChartPass(x, 0.3, 1.0).jacobian


@pytest.mark.parametrize("z, kappa2", [(0.3, 1.0), (0.3, -1.0), (-0.3, 1.0), (1e-9, -1.0)])
def test_transposed_solve_matches_numpy(z, kappa2):
    b = [0.3, -0.7, 0.2]
    for x in CHART_PASS_POINTS:
        jac = charts.ChartPass(x, z, kappa2).jacobian
        arr = np.array(jac)
        want = np.linalg.solve(arr.T, np.array(b, dtype=arr.dtype))
        got = np.array(charts._solve_transposed(jac, b))
        bound = 4 * EPS * np.linalg.cond(arr) * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= bound
    # a zero leading entry needs the row exchange
    perm = [[0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 4.0]]
    assert charts._solve_transposed(perm, [1.0, 2.0, 3.0]) == [1.0, 1.0, 0.75]


def _numpy_canonicity(point, z, kappa2):
    """The numpy 6x6 assembly the block formula replaced, as an oracle:
    (residuals, the brackets' term magnitudes)."""
    q, p = point.scalars()
    polar = dual.jet(lambda qs: charts._cart_to_polar_generic(qs, z, kappa2), q, order=1)
    x = [v for v, _, _ in polar]
    cart = dual.jet(lambda xs: charts._polar_to_cart_generic(xs, z, kappa2), x)
    a = np.array([g for _, g, _ in polar])
    jac = np.array([g for _, g, _ in cart])
    curv = np.array([h for _, _, h in cart])
    dq = np.vstack([a, np.einsum("i,iab,bk->ak", p, curv, a)])
    dp = np.vstack([np.zeros((3, 3)), jac.T])
    vals, scales = gradient_brackets(dq, dp)
    return np.abs(vals - np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(3))), scales


@pytest.mark.parametrize("z", [0.7, 0.3, -0.3, 1e-6, 1e-13, 0.0])
def test_block_canonicity_matches_numpy_assembly(z):
    # the two differ by the summation order of their products, so by
    # roundoff at the scale of the brackets' terms (|p| reaches 1e7 at the
    # boundary points)
    points = [(pt, 1.0) for pt in cart_samples(4, seed=5)]
    for kappa2 in (1.0, -1.0):
        points += [(charts.transform_to_cartesian(pp, z, kappa2), kappa2)
                   for pp in relativistic_samples(4, seed=9)]
        for x in CHART_PASS_POINTS[1:]:
            with contextlib.suppress(charts.OutOfChartError):  # (1.1, 1, .4) at z = .7
                pp = charts.PolarPoint(*x, 0.4, -0.6, 0.9)
                points.append((charts.transform_to_cartesian(pp, z, kappa2), kappa2))
    assert len(points) >= 20
    for point, kappa2 in points:
        got = np.array(charts.fundamental_bracket_residuals(point, z, kappa2))
        want, scales = _numpy_canonicity(point, z, kappa2)
        assert np.max(np.abs(got - want)) <= 1e-15 * max(1.0, scales.max())
        assert np.all(got[:3, :3] == 0.0) and np.all(np.diag(got) == 0.0)


def test_transform_maps_small_momenta():
    # only an exactly zero momentum skips the chart pass
    point = PhasePoint([0.3, 0.4, 0.5], [1e-9, 0.0, 0.0])
    polar = charts.transform_to_polar(point, 0.3, 1.0)
    x = charts.cart_to_polar(point.q, 0.3, 1.0)
    jac = np.array(charts.ChartPass(x, 0.3, 1.0).jacobian)
    assert np.allclose(polar.momentum(), jac.T @ point.p, rtol=1e-14, atol=0.0)
    back = charts.transform_to_cartesian(polar, 0.3, 1.0)
    assert np.max(np.abs(np.subtract(back.p, point.p))) < 1e-23
    cart = charts.transform_to_cartesian(charts.PolarPoint(0.5, 0.6, 0.7, 5e-9, 0.0, 0.0), 0.3, 1.0)
    assert np.all(np.abs(cart.p) > 1e-10)


def test_momentum_round_trip():
    z, k2 = 0.4, 1.0
    point = PhasePoint([0.5, 0.4, 0.6], [0.2, -0.3, 0.45])
    for norm in ("canonical", "chart"):
        polar = charts.transform_to_polar(point, z, k2, norm)
        back = charts.transform_to_cartesian(polar, z, k2, norm)
        assert np.max(np.abs(np.subtract(back.q, point.q))) < 1e-12
        assert np.max(np.abs(np.subtract(back.p, point.p))) < 1e-12


def test_zero_momentum_transforms_to_zero():
    polar = charts.transform_to_polar(
        PhasePoint([0.5, 0.4, 0.6], [0.0, 0.0, 0.0]), 0.3, 1.0
    )
    assert np.allclose(polar.momentum(), 0.0)


def test_unknown_normalization_rejected():
    with pytest.raises(ValueError):
        charts.transform_to_polar(
            PhasePoint([0.5, 0.4, 0.6], [0.1, 0.1, 0.1]), 0.3, 1.0, "paperlike"
        )


@pytest.mark.parametrize("z,k2", [(0.3, 1.0), (0.7, 1.0), (0.3, 2.0)])
def test_matched_point_scale_relations(z, k2):
    """Chart momenta: H -> 2H, C2 -> 4 C2, C3 -> 4 k2 C3; canonical: 1/2, 1, k2."""
    h_cart = hamiltonian_integrable(3, z)
    c2_cart = casimir_m(2, 3, z)
    c3_cart = casimir_m(3, 3, z)
    system = charts.integrable_polar_system(z, k2)
    for point in cart_samples(3, seed=41):
        hv, c2v, c3v = (float(f(point)) for f in (h_cart, c2_cart, c3_cart))
        chart_state = charts.transform_to_polar(point, z, k2, "chart").as_phase_point()
        assert float(system.hamiltonian(chart_state)) == pytest.approx(2 * hv, rel=1e-9)
        assert float(system.constants["C(2)"](chart_state)) == pytest.approx(
            4 * c2v, rel=1e-9
        )
        assert float(system.constants["C(3)"](chart_state)) == pytest.approx(
            4 * k2 * c3v, rel=1e-9
        )
        canon_state = charts.transform_to_polar(point, z, k2).as_phase_point()
        assert float(system.hamiltonian(canon_state)) == pytest.approx(0.5 * hv, rel=1e-9)
        assert float(system.constants["C(2)"](canon_state)) == pytest.approx(c2v, rel=1e-9)


def test_matched_point_scale_relations_relativistic():
    z, k2 = 0.3, -1.0
    h_cart = hamiltonian_integrable(3, z)
    c2_cart = casimir_m(2, 3, z)
    c3_cart = casimir_m(3, 3, z)
    system = charts.integrable_polar_system(z, k2)
    for pp in relativistic_samples(4, seed=19):
        cart = charts.transform_to_cartesian(pp, z, k2, "chart")
        hv = complex(h_cart.raw(list(cart.q), list(cart.p)))
        c2v = complex(c2_cart.raw(list(cart.q), list(cart.p)))
        c3v = complex(c3_cart.raw(list(cart.q), list(cart.p)))
        assert abs(hv.imag) < 1e-9 and abs(c2v.imag) < 1e-9 and abs(c3v.imag) < 1e-9
        state = pp.as_phase_point()
        assert float(system.hamiltonian(state)) == pytest.approx(
            2 * hv.real, rel=1e-9
        )
        assert float(system.constants["C(2)"](state)) == pytest.approx(
            4 * c2v.real, rel=1e-9, abs=1e-12
        )
        assert float(system.constants["C(3)"](state)) == pytest.approx(
            4 * k2 * c3v.real, rel=1e-9, abs=1e-12
        )


def test_superintegrable_matched_scale_relations():
    z, k2 = 0.3, 1.0
    hs_cart = hamiltonian_superintegrable(3, z)
    i2_cart = integral_extra_2(z, 3)
    i3_cart = integral_extra_3(z, 3)
    system = charts.superintegrable_polar_system(z, k2)
    for point in cart_samples(4, seed=53):
        state = charts.superintegrable_matched_state(point, z, k2, "chart")
        assert float(system.hamiltonian(state)) == pytest.approx(
            2 * float(hs_cart(point)), rel=1e-9
        )
        assert float(system.constants["I(2)"](state)) == pytest.approx(
            4 * k2 * float(i2_cart(point)), rel=1e-9
        )
        assert float(system.constants["I(3)"](state)) == pytest.approx(
            4 * k2 * float(i3_cart(point)), rel=1e-9
        )


# --------------------------------------------------------------------------
# radial reparametrization
# --------------------------------------------------------------------------


def test_rho_to_r_quadrature_oracle():
    got = charts.rho_to_r(1.0, 1.0)
    # frozen: arccos(1/cosh 1) with mpmath at 50 digits
    assert got == pytest.approx(0.8657694832396586, abs=1e-15)
    oracle, err = quad(lambda x: 1.0 / math.cosh(x), 0.0, 1.0, epsabs=1e-13)
    assert got == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("z", [1.0, 0.3, -0.6])
def test_radial_maps_are_mutually_inverse(z):
    for rho in (0.0, 0.3, 0.9, 1.4):
        if z < 0 and math.sqrt(-z) * rho >= math.pi / 2:
            continue
        r = charts.rho_to_r(rho, z)
        assert charts.r_to_rho(r, z) == pytest.approx(rho, abs=1e-12)


def test_radial_flat_limit_and_branch_errors():
    assert charts.rho_to_r(0.73, 0.0) == 0.73
    with pytest.raises(charts.OutOfChartError):
        charts.r_to_rho(math.pi / 2, 1.0)
    with pytest.raises(charts.OutOfChartError):
        charts.rho_to_r(math.pi / math.sqrt(0.5) / 2 + 0.1, -0.5)
    with pytest.raises(charts.OutOfChartError):
        charts.rho_to_r(-0.1, 0.3)


def test_quadrature_definition_matches_closed_form():
    z = 0.4
    l1 = math.sqrt(z)
    for rho in (0.4, 1.0, 1.7):
        oracle, _ = quad(lambda x: 1.0 / math.cosh(l1 * x), 0.0, rho, epsabs=1e-13)
        assert charts.rho_to_r(rho, z) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize(
    "z", [0.0] + [s * m for m in (1e-300, 1e-13, 1e-12, 1e-9, 1e-6, 0.3, 1.0, 4.0) for s in (1, -1)]
)
def test_radial_maps_match_high_precision_gudermannian(z):
    # acos(1/cosh(l1 rho))/l1 at 50 digits (acosh(1/cos) for z < 0); the
    # arccos form in double precision cancels at small l1 rho (1e-2 at z = 1e-12)
    mpmath = pytest.importorskip("mpmath")
    for rho in np.geomspace(0.01, 8.0, 30):
        if z < 0:
            rho = min(rho, (math.pi / 2 - 1e-3) / math.sqrt(-z))
        with mpmath.workdps(50):
            zm, rm = mpmath.mpf(z), mpmath.mpf(rho)
            if abs(z) < 1e-40:
                ref = rm
            elif z > 0:
                ref = mpmath.acos(1 / mpmath.cosh(mpmath.sqrt(zm) * rm)) / mpmath.sqrt(zm)
            else:
                ref = mpmath.acosh(1 / mpmath.cos(mpmath.sqrt(-zm) * rm)) / mpmath.sqrt(-zm)
            ref = float(ref)
        assert abs(charts.rho_to_r(rho, z) - ref) <= 1e-13 * max(1.0, ref), rho
        # d rho / d r = kappa_cos(-z, rho) scales the rounding of the reference r
        cond = max(1.0, float(charts.kappa_cos(-z, rho)))
        assert abs(charts.r_to_rho(ref, z) - rho) <= 1e-12 * cond, rho
    if z == 0.0:
        return
    # past sqrt|z| x = 1420 the sinh and cosh of the half-angle tangent
    # overflow; rho_to_r (z > 0) and r_to_rho (z < 0) reach pi/(2 sqrt|z|)
    lam = math.sqrt(abs(z))
    for s in (1e3, 1419.0, 1421.0, 1.5e3, 3e3, 1e5, 1e100):
        with mpmath.workdps(50):
            ref = float(mpmath.acos(1 / mpmath.cosh(s)) / mpmath.sqrt(abs(mpmath.mpf(z))))
        got = charts.rho_to_r(s / lam, z) if z > 0 else charts.r_to_rho(s / lam, z)
        assert abs(got - ref) <= 1e-13 * max(1.0, ref), s


def test_radial_maps_overflow_to_their_asymptote():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got in (charts.rho_to_r(1500.0, 1.0), charts.r_to_rho(1500.0, -1.0)):
            assert got == pytest.approx(math.pi / 2, rel=1e-15, abs=0.0)


# --------------------------------------------------------------------------
# polar systems
# --------------------------------------------------------------------------


def test_polar_integrable_flat_limit():
    system = charts.integrable_polar_system(0.0, 1.0)
    rho, theta, phi = 0.8, 0.7, 0.4
    p = [0.3, -0.5, 0.9]
    expected = 0.5 * (
        p[0] ** 2 + p[1] ** 2 / rho**2 + p[2] ** 2 / (rho**2 * math.sin(theta) ** 2)
    )
    got = float(system.hamiltonian(PhasePoint([rho, theta, phi], p)))
    assert got == pytest.approx(expected, rel=1e-14)


def test_polar_super_flat_limit():
    system = charts.superintegrable_polar_system(0.0, 1.0)
    r, theta, phi = 0.9, 0.8, 0.2
    p = [0.4, 0.7, -0.2]
    expected = 0.5 * (
        p[0] ** 2 + p[1] ** 2 / r**2 + p[2] ** 2 / (r**2 * math.sin(theta) ** 2)
    )
    got = float(system.hamiltonian(PhasePoint([r, theta, phi], p)))
    assert got == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("k2", [1.0, -1.0])
def test_polar_constants_in_involution(k2):
    z = 0.3
    system = charts.integrable_polar_system(z, k2)
    funcs = [system.hamiltonian, system.constants["C(2)"], system.constants["C(3)"]]
    for pp in polar_samples(6, seed=3):
        x = pp.as_phase_point()
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(poisson_bracket(funcs[i], funcs[j], x)) < 1e-9


@pytest.mark.parametrize("k2", [1.0, -1.0])
def test_polar_super_integrals_commute(k2):
    z = 0.3
    system = charts.superintegrable_polar_system(z, k2)
    h = system.hamiltonian
    for pp in polar_samples(6, seed=7):
        x = pp.as_phase_point()
        for label in ("C(2)", "C(3)", "I(2)", "I(3)"):
            assert abs(poisson_bracket(h, system.constants[label], x)) < 1e-9
    # the two triples are each mutually in involution
    for tri in (("C(2)", "C(3)"), ("I(2)", "I(3)")):
        for pp in polar_samples(3, seed=8):
            x = pp.as_phase_point()
            a, b = (system.constants[t] for t in tri)
            assert abs(poisson_bracket(a, b, x)) < 1e-9


def test_polar_chart_boundary_guard():
    system = charts.integrable_polar_system(0.3, 1.0)
    with pytest.raises(EvaluationDomainError):
        system.hamiltonian(PhasePoint([0.5, 0.0, 0.3], [0.1, 0.1, 0.1]))
    with pytest.raises(EvaluationDomainError):
        system.hamiltonian(PhasePoint([0.0, 0.5, 0.3], [0.1, 0.1, 0.1]))


def written_out_polar_functions(z, k2):
    """Both polar Hamiltonians, C(3), I(2) and I(3), each with its own
    angular term and radial factors."""
    ks, kc = charts.kappa_sin, charts.kappa_cos

    def h_int(q, p):
        rho, theta = q[0], q[1]
        ks_r = charts._guard_rho(ks(-z, rho))
        ks_t = charts._guard_theta(ks(k2, theta))
        kc_r = kc(-z, rho)
        angular = p[1] * p[1] + p[2] * p[2] / (ks_t * ks_t)
        return 0.5 * kc_r * (p[0] * p[0] + angular / (k2 * ks_r * ks_r))

    def h_sup(q, p):
        r, theta = q[0], q[1]
        ks_r = charts._guard_r(ks(z, r))
        ks_t = charts._guard_theta(ks(k2, theta))
        angular = p[1] * p[1] + p[2] * p[2] / (ks_t * ks_t)
        return 0.5 * (p[0] * p[0] + angular / (k2 * ks_r * ks_r))

    def c_three(q, p):
        ks_t = charts._guard_theta(ks(k2, q[1]))
        return p[1] * p[1] + p[2] * p[2] / (ks_t * ks_t)

    def i_two(q, p):
        r, theta, phi = q
        ks_r = charts._guard_r(ks(z, r))
        ks_t = charts._guard_theta(ks(k2, theta))
        kc_r = kc(z, r)
        kc_t = kc(k2, theta)
        sphi = dual.sin(phi)
        cot_r = kc_r / ks_r
        lin = (
            k2 * ks_t * sphi * p[0]
            + kc_t * sphi * cot_r * p[1]
            + dual.cos(phi) * cot_r / ks_t * p[2]
        )
        return lin * lin

    def i_three(q, p):
        r, theta = q[0], q[1]
        ks_r = charts._guard_r(ks(z, r))
        ks_t = charts._guard_theta(ks(k2, theta))
        kc_r = kc(z, r)
        kc_t = kc(k2, theta)
        cot_r = kc_r / ks_r
        lin = k2 * ks_t * p[0] + kc_t * cot_r * p[1]
        coeff = z * k2 + (cot_r / ks_t) * (cot_r / ks_t)
        return lin * lin + coeff * p[2] * p[2]

    return h_int, h_sup, c_three, i_two, i_three


@pytest.mark.parametrize("z", [0.3, -0.3, 0.0])
@pytest.mark.parametrize("k2", [1.0, -1.0])
def test_polar_functions_match_the_written_out_forms(z, k2):
    # one angular term and one set of radial factors change no bit of any
    # value or gradient
    integrable = charts.integrable_polar_system(z, k2)
    sup = charts.superintegrable_polar_system(z, k2)
    h_int, h_sup, c_three, i_two, i_three = written_out_polar_functions(z, k2)
    pairs = (
        (integrable.hamiltonian, h_int),
        (sup.hamiltonian, h_sup),
        (integrable.constants["C(3)"], c_three),
        (sup.constants["C(3)"], c_three),
        (sup.constants["I(2)"], i_two),
        (sup.constants["I(3)"], i_three),
    )
    for pp in relativistic_samples(8, seed=21):
        x = pp.as_phase_point()
        q, p = x.scalars()
        for f, ref in pairs:
            assert repr(f(x)) == repr(ref(q, p)), f.label
            got = dual.gradient(lambda a: f.fn(a[:3], a[3:]), q + p)
            want = dual.gradient(lambda a: ref(a[:3], a[3:]), q + p)
            assert repr(got) == repr(want), f.label


# --------------------------------------------------------------------------
# polar metrics and curvature through the transform
# --------------------------------------------------------------------------


def polar_check_points(seed=0):
    return [pp.as_phase_point() for pp in polar_samples(3, seed=seed)]


def test_polar_metric_components_closed_form():
    z, k2 = 0.3, 1.0
    system = charts.integrable_polar_system(z, k2)
    g = geo.metric_from_hamiltonian(system.hamiltonian, 3, polar_check_points())
    for pp in polar_samples(4, seed=9):
        rho, theta, _ = pp.position()
        kc = charts.kappa_cos(-z, rho)
        ks = charts.kappa_sin(-z, rho)
        kst = charts.kappa_sin(k2, theta)
        expected = [1.0 / kc, k2 * ks**2 / kc, k2 * ks**2 * kst**2 / kc]
        assert g.values(pp.position()) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("k2", [1.0, -1.0])
def test_polar_sectional_curvatures_closed_form(k2):
    """The polar-plane sectionals: K_rho,theta = K_rho,phi = -(z/2) sinh^2/cosh
    and K_theta,phi = half of that; scalar = -5 z sinh(z q^2) at matched points."""
    z = 0.3
    system = charts.integrable_polar_system(z, k2)
    g = geo.metric_from_hamiltonian(system.hamiltonian, 3, polar_check_points(1))
    for pp in polar_samples(3, seed=10):
        x = pp.position()
        rho = x[0]
        sect, scal = geo.curvature_summary(g, x)
        sinh2 = z * charts.kappa_sin(-z, rho) ** 2  # sinh^2(l1 rho)
        k_ref = -0.5 * z * sinh2 / charts.kappa_cos(-z, rho)
        assert sect[(0, 1)] == pytest.approx(k_ref, rel=1e-7, abs=1e-10)
        assert sect[(0, 2)] == pytest.approx(k_ref, rel=1e-7, abs=1e-10)
        assert sect[(1, 2)] == pytest.approx(0.5 * k_ref, rel=1e-7, abs=1e-10)
        assert scal == pytest.approx(5.0 * k_ref, rel=1e-7)
        # matched-point scalar equals the Cartesian closed form
        zq2 = math.log(float(charts.kappa_cos(-z, rho)))
        assert scal == pytest.approx(-5.0 * z * math.sinh(zq2), rel=1e-7)


def test_polar_metric_is_pushforward_of_line_element():
    z, k2 = 0.3, 1.0
    h_cart = hamiltonian_integrable(3, z)
    rng_pts = cart_samples(3, seed=2)
    g_cart = geo.line_element_from_hamiltonian(h_cart, 3, rng_pts)
    system = charts.integrable_polar_system(z, k2)
    g_polar = geo.metric_from_hamiltonian(system.hamiltonian, 3, polar_check_points(4))
    for point in cart_samples(3, seed=6):
        x = charts.cart_to_polar(point.q, z, k2)
        jac = np.array(charts.ChartPass(x, z, k2).jacobian)
        pushed = jac.T @ np.diag(g_cart.values(point.q)) @ jac
        expected = np.diag(g_polar.values(x))
        assert np.max(np.abs(pushed - expected)) < 1e-8


def test_r_chart_metric_constant_curvature():
    z, k2 = 0.3, 1.0
    system = charts.superintegrable_polar_system(z, k2)
    g = geo.metric_from_hamiltonian(system.hamiltonian, 3, polar_check_points(11))
    for pp in polar_samples(3, seed=12, rho_max=0.9):
        x = pp.position()
        sect, scal = geo.curvature_summary(g, x)
        for val in sect.values():
            assert val == pytest.approx(z, abs=1e-8)
        assert scal == pytest.approx(6.0 * z, abs=1e-8)


def test_r_chart_metric_components():
    z, k2 = 0.5, 1.0
    system = charts.superintegrable_polar_system(z, k2)
    g = geo.metric_from_hamiltonian(system.hamiltonian, 3, polar_check_points(13))
    for pp in polar_samples(3, seed=14, rho_max=0.9):
        r, theta, _ = pp.position()
        ks = charts.kappa_sin(z, r)
        kst = charts.kappa_sin(k2, theta)
        assert g.values(pp.position()) == pytest.approx(
            [1.0, k2 * ks**2, k2 * ks**2 * kst**2], rel=1e-10
        )


def test_radial_reparametrization_reproduces_conformal_metric():
    """Pulling the r-chart metric back to rho reproduces ds_I^2 * e^{-z q^2}."""
    z, k2 = 0.3, 1.0
    sys_s = charts.superintegrable_polar_system(z, k2)
    sys_i = charts.integrable_polar_system(z, k2)
    g_s = geo.metric_from_hamiltonian(sys_s.hamiltonian, 3, polar_check_points(15))
    g_i = geo.metric_from_hamiltonian(sys_i.hamiltonian, 3, polar_check_points(16))
    for pp in polar_samples(4, seed=17):
        rho, theta, phi = pp.position()
        r = charts.rho_to_r(rho, z)
        dr_drho = 1.0 / float(charts.kappa_cos(-z, rho))
        vals_s = g_s.values([r, theta, phi])
        pulled = np.array([vals_s[0] * dr_drho**2, vals_s[1], vals_s[2]])
        conformal = float(1.0 / charts.kappa_cos(-z, rho))  # e^{-z q^2} at match
        expected = np.array(g_i.values([rho, theta, phi])) * conformal
        assert np.max(np.abs(pulled - expected)) < 1e-10


@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.sampled_from([0.15, 0.45, 0.9, -0.25]),
)
@settings(max_examples=60, deadline=None)
def test_round_trip_property(q1, q2, q3, z):
    q = np.array([q1, q2, q3])
    x = charts.cart_to_polar(q, z, 1.0)
    back = charts.polar_to_cart(x, z, 1.0)
    assert np.max(np.abs(back - q)) < 1e-9 * max(1.0, float(np.max(np.abs(q))))


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=0.01, max_value=1.5),
)
@settings(max_examples=100, deadline=None)
def test_kappa_pythagorean_identity(kappa, x):
    # kappa * kappa_sin^2 + kappa_cos^2 = 1 for every curvature label
    s = charts.kappa_sin(kappa, x)
    c = charts.kappa_cos(kappa, x)
    assert kappa * s * s + c * c == pytest.approx(1.0, abs=1e-12)


def test_space_signature_families():
    assert charts.SpaceSignature(0.3, 1.0).family == "hyperbolic"
    assert charts.SpaceSignature(-0.3, 1.0).family == "sphere"
    assert charts.SpaceSignature(0.0, 1.0).family == "Euclidean"
    assert charts.SpaceSignature(0.3, -1.0).family == "de Sitter"
    assert charts.SpaceSignature(-0.3, -1.0).family == "anti-de Sitter"
    assert charts.SpaceSignature(0.0, -1.0).family == "Minkowski"
    with pytest.raises(ValueError):
        charts.SpaceSignature(0.3, 0.0)


def _numpy_relation_residuals(q, x, z, kappa2):
    """The relation residuals on numpy complex scalars, as they were
    computed before the Python-scalar version: an oracle."""
    rho, theta, phi = (complex(v) for v in np.asarray(x))
    e = [np.exp(2.0 * (z * complex(qi) ** 2)) for qi in np.asarray(q)]
    a = z * complex(charts.kappa_sin(-z, rho)) ** 2
    t = kappa2 * complex(charts.kappa_sin(kappa2, theta)) ** 2
    c2 = complex(charts.kappa_cos(kappa2, theta)) ** 2
    lhs = np.array([complex(charts.kappa_cos(-z, rho)) ** 2, a * c2,
                    a * t * np.cos(phi) ** 2, a * t * np.sin(phi) ** 2])
    rhs = np.array([e[0] * e[1] * e[2], e[0] * e[1] * (e[2] - 1.0), e[0] * (e[1] - 1.0), e[0] - 1.0])
    return np.abs(lhs - rhs), np.maximum(np.abs(lhs), np.abs(rhs))


@pytest.mark.parametrize("kappa2", [1.0, -1.0])
def test_relation_residuals_match_the_numpy_formulation(kappa2):
    rng = np.random.default_rng(23)
    for _ in range(200):
        z = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-13, 0.3)
        x = [rng.uniform(0.1, 0.9), rng.uniform(0.3, 1.2), rng.uniform(0.2, 1.3)]
        try:
            q = charts.polar_to_cart(x, z, kappa2)
        except charts.OutOfChartError:
            continue
        got = charts.chart_relation_residuals(q, x, z, kappa2)
        want, size = _numpy_relation_residuals(q, x, z, kappa2)
        assert len(got) == 4 and all(type(v) is float for v in got)
        got = np.array(got)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.maximum(1.0, size))
