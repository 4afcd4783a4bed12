"""Curvature machinery against closed forms and classical test metrics."""

import ast
import math
import pathlib
import warnings

import numpy as np
import pytest

from zgeoflow import charts, dual
from zgeoflow import geometry as geo
from zgeoflow.algebra import hamiltonian_integrable, hamiltonian_superintegrable
from zgeoflow.phase import EvaluationDomainError, PhaseFunction, PhasePoint


def check_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)) for _ in range(3)
    ]


def sphere_metric():
    return geo.DiagonalMetric(
        2, (lambda q: 1.0, lambda q: dual.sin(q[0]) ** 2), "sphere"
    )


def euclidean_metric(n):
    return geo.DiagonalMetric(n, tuple(lambda q: 1.0 for _ in range(n)), "flat")


def integrable_line_element(n, z):
    return geo.line_element_from_hamiltonian(
        hamiltonian_integrable(n, z), n, check_points(n)
    )


def superintegrable_line_element(n, z):
    return geo.line_element_from_hamiltonian(
        hamiltonian_superintegrable(n, z), n, check_points(n)
    )


def oracle_line_element_3d(z, q):
    """Term-by-term transcription of the variable-curvature 3D line element."""

    def coef(x):
        return 2 * z * x**2 / math.sinh(z * x**2) if z * x**2 != 0 else 2.0

    q1, q2, q3 = q
    e = math.exp
    return (
        coef(q1) * e(-z * q2**2) * e(-z * q3**2),
        coef(q2) * e(z * q1**2) * e(-z * q3**2),
        coef(q3) * e(z * q1**2) * e(z * q2**2),
    )


# --------------------------------------------------------------------------
# sign convention and classical metrics
# --------------------------------------------------------------------------


def test_unit_sphere_has_curvature_plus_one():
    g = sphere_metric()
    for theta in (0.4, 0.9, 1.4):
        assert geo.sectional_curvature(g, [theta, 0.3], 0, 1) == pytest.approx(
            1.0, abs=1e-12
        )
    assert geo.scalar_curvature(g, [0.8, 0.1]) == pytest.approx(2.0, abs=1e-12)


def test_euclidean_is_flat():
    g = euclidean_metric(3)
    q = [0.3, -0.2, 0.9]
    assert np.allclose(geo.christoffel(g, q), 0.0)
    assert np.allclose(geo.riemann(g, q), 0.0)
    assert geo.scalar_curvature(g, q) == 0.0


def test_hyperbolic_plane_negative_curvature():
    # upper half plane ds^2 = (dx^2 + dy^2)/y^2 with K = -1
    g = geo.DiagonalMetric(
        2, (lambda q: 1.0 / (q[1] * q[1]), lambda q: 1.0 / (q[1] * q[1])), "H2"
    )
    assert geo.sectional_curvature(g, [0.4, 1.7], 0, 1) == pytest.approx(
        -1.0, rel=1e-12
    )


# --------------------------------------------------------------------------
# metric extraction
# --------------------------------------------------------------------------


def test_flat_hamiltonian_gives_identity_metric():
    h = hamiltonian_integrable(3, 0.0)
    g = geo.metric_from_hamiltonian(h, 3, check_points(3))
    assert g.values([0.2, -0.7, 1.1]) == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)


def test_line_element_matches_transcription():
    z = 0.3
    g = integrable_line_element(3, z)
    rng = np.random.default_rng(8)
    for _ in range(5):
        q = rng.uniform(-1, 1, 3)
        ref = oracle_line_element_3d(z, q)
        assert g.values(q) == pytest.approx(ref, rel=1e-12)


def test_superintegrable_metric_is_conformal_to_integrable():
    z = 0.4
    gi = integrable_line_element(3, z)
    gs = superintegrable_line_element(3, z)
    q = [0.5, -0.3, 0.8]
    factor = math.exp(-z * float(np.dot(q, q)))
    assert gs.values(q) == pytest.approx(np.array(gi.values(q)) * factor, rel=1e-12)


def test_non_diagonal_hamiltonian_rejected():
    h = PhaseFunction(2, lambda q, p: 0.5 * (p[0] + p[1]) ** 2, "mixed")
    with pytest.raises(geo.NonKineticHamiltonianError):
        geo.metric_from_hamiltonian(h, 2, check_points(2))


def test_non_quadratic_hamiltonian_rejected():
    h = PhaseFunction(
        2, lambda q, p: 0.5 * (p[0] ** 2 + p[1] ** 2) + p[0] ** 4, "quartic"
    )
    with pytest.raises(geo.NonKineticHamiltonianError):
        geo.metric_from_hamiltonian(h, 2, check_points(2))


#: f(x) = x with f' = 1 and f'' = nan: a Hamiltonian through it has a finite
#: value and a nan momentum Hessian
_NAN_CURVATURE = dual._elementary(
    "nan_curvature", lambda x: x, lambda x: x, lambda x, v: 1.0, lambda x, v, g: math.nan
)


@pytest.mark.parametrize(
    "fn",
    [
        lambda q, p: 0.5 * _NAN_CURVATURE(p[0] * p[0] + p[1] * p[1]),  # every entry nan
        lambda q, p: 0.5 * (_NAN_CURVATURE(p[0] * p[0]) + p[1] * p[1]),  # the diagonal only
    ],
)
def test_nan_momentum_hessian_rejected(fn):
    h = PhaseFunction(2, fn, "nan-hessian")
    assert math.isfinite(h(check_points(2)[0]))
    with pytest.raises(geo.NonKineticHamiltonianError):
        geo.metric_from_hamiltonian(h, 2, check_points(2))


def test_nan_mixed_momentum_entry_rejected(monkeypatch):
    # a jet spreads a nan over the diagonal too, so the mixed-entry gate is
    # fed its Hessian directly: only that gate can see this one
    h = PhaseFunction(2, lambda q, p: 0.5 * (p[0] * p[0] + p[1] * p[1]), "free")
    monkeypatch.setattr(dual, "hessian", lambda f, p: [[1.0, math.nan], [math.nan, 1.0]])
    with pytest.raises(geo.NonKineticHamiltonianError, match="mixed momentum"):
        geo.metric_from_hamiltonian(h, 2, check_points(2))


def test_kinetic_check_is_relative_to_the_hamiltonian():
    # an exactly quadratic h of size 1e184: its roundoff is far above the
    # tolerance in absolute terms, and eps-sized relative to h
    big = PhaseFunction(
        2, lambda q, p: 0.5 * 1e184 * (p[0] * p[0] + 3.0 * p[1] * p[1]) * dual.exp(q[0]), "big"
    )
    g = geo.metric_from_hamiltonian(big, 2, check_points(2))
    assert [c([0.0, 0.0]) for c in g.components] == pytest.approx([1e-184, 1e-184 / 3.0], rel=1e-15)
    quartic = PhaseFunction(2, lambda q, p: big.fn(q, p) + 1e176 * p[0] * p[0] * p[0] * p[0], "q4")
    with pytest.raises(geo.NonKineticHamiltonianError, match="relative residual"):
        geo.metric_from_hamiltonian(quartic, 2, check_points(2))


def test_degenerate_metric_detected():
    g = geo.DiagonalMetric(2, (lambda q: q[0], lambda q: 1.0), "deg")
    with pytest.raises(geo.MetricDegenerateError):
        g.values([0.0, 1.0])


# --------------------------------------------------------------------------
# connection and Riemann tensor
# --------------------------------------------------------------------------


def test_christoffel_symmetry_and_fd_oracle():
    z = 0.2
    g = integrable_line_element(2, z)
    q = [0.3, 0.5]
    gamma = geo.christoffel(g, q)
    assert np.allclose(gamma, np.swapaxes(gamma, 1, 2))

    # finite-difference oracle on the metric components
    h = 1e-6
    n = 2
    gval = g.values(q)
    d1 = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            up = list(q)
            dn = list(q)
            up[i] += h
            dn[i] -= h
            d1[i, k] = (g.components[k](up) - g.components[k](dn)) / (2 * h)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                term = 0.0
                if k == j:
                    term += d1[i, k]
                if k == i:
                    term += d1[j, k]
                if i == j:
                    term -= d1[k, i]
                assert gamma[k, i, j] == pytest.approx(
                    term / (2 * gval[k]), rel=2e-9, abs=1e-9
                )


def test_curvature_passes_per_point(monkeypatch):
    # christoffel, riemann and curvature_summary take one (value, gradient,
    # Hessian) triple per component: at a metric's first point one recorded
    # reverse pass, plus one jet pass while the metric's shape is new, after
    # that compiled code, which draws no tag; a later metric of the shape,
    # at another z, runs that code from its first point.  Metric components
    # evaluate h at unit momenta: no momentum passes.
    monkeypatch.setattr(dual, "_SKELETONS", {})
    tags = []
    fresh_tag = dual.fresh_tag

    def counted():
        tags.append(None)
        return fresh_tag()

    monkeypatch.setattr(dual, "fresh_tag", counted)
    first = 6
    for fn, z in ((geo.christoffel, 0.3), (geo.riemann, -0.45), (geo.curvature_summary, 0.3)):
        g = integrable_line_element(3, z)
        for q, expected in (([0.2, -0.4, 0.5], first), ([0.1, 0.3, -0.2], 0), ([0.2, -0.4, 0.5], 0)):
            tags.clear()
            fn(g, q)
            assert len(tags) == expected, fn.__name__
        first = 3


def test_riemann_against_fd_christoffel_oracle():
    """Independent route: difference the exact Christoffels numerically and
    rebuild the Riemann tensor; must agree with the analytic assembly."""
    z = 0.3
    g = integrable_line_element(3, z)
    q = [0.4, 0.2, 0.6]
    n = 3
    h = 1e-5
    dgamma = np.zeros((n, n, n, n))  # dgamma[i, l, j, k] = d_i Gamma^l_{jk}
    for i in range(n):
        up, dn = list(q), list(q)
        up[i] += h
        dn[i] -= h
        dgamma[i] = (geo.christoffel(g, up) - geo.christoffel(g, dn)) / (2 * h)
    gamma = geo.christoffel(g, q)
    riem_fd = np.zeros((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    val = dgamma[i, l, j, k] - dgamma[j, l, i, k]
                    for m in range(n):
                        val += gamma[l, i, m] * gamma[m, j, k]
                        val -= gamma[l, j, m] * gamma[m, i, k]
                    riem_fd[l, k, i, j] = val
    assert np.max(np.abs(geo.riemann(g, q) - riem_fd)) < 1e-6


def test_riemann_symmetries_and_bianchi():
    z = 0.3
    g = integrable_line_element(3, z)
    rng = np.random.default_rng(3)
    for _ in range(3):
        q = rng.uniform(-1, 1, 3)
        up = geo.riemann(g, q)
        low = np.array(g.values(q))[:, None, None, None] * up  # R_{lkij} = g_ll R^l_{kij}
        assert np.max(np.abs(low + np.swapaxes(low, 0, 1))) < 1e-7
        assert np.max(np.abs(low + np.swapaxes(low, 2, 3))) < 1e-7
        assert np.max(np.abs(low - np.transpose(low, (2, 3, 0, 1)))) < 1e-7
        bianchi = up + np.transpose(up, (0, 3, 1, 2)) + np.transpose(up, (0, 2, 3, 1))
        assert np.max(np.abs(bianchi)) < 1e-7


# --------------------------------------------------------------------------
# curvature of the deformed families
# --------------------------------------------------------------------------


@pytest.mark.parametrize("z", [-0.5, 0.3, 1.0])
def test_variable_curvature_closed_forms(z):
    g = integrable_line_element(3, z)
    rng = np.random.default_rng(17)
    for _ in range(6):
        q = rng.uniform(-1, 1, 3)
        sect, scal = geo.curvature_summary(g, q)
        ref = geo.variable_curvature_sectionals(z, q)
        for key in sect:
            assert sect[key] == pytest.approx(ref[key], rel=1e-6, abs=1e-9)
        ref_scal = geo.variable_curvature_scalar(z, q)
        assert scal == pytest.approx(ref_scal, rel=1e-6, abs=1e-9)
        assert scal == pytest.approx(2.0 * sum(sect.values()), abs=1e-7)


def test_sectional_vanishes_at_origin():
    g = integrable_line_element(3, 0.3)
    assert geo.sectional_curvature(g, [1e-8, 1e-8, 1e-8], 0, 1) == pytest.approx(
        0.0, abs=1e-6
    )


def test_flat_limit_zero_curvature():
    g = integrable_line_element(3, 0.0)
    q = [0.4, 0.2, 0.6]
    assert np.max(np.abs(geo.riemann(g, q))) < 1e-10
    assert abs(geo.scalar_curvature(g, q)) < 1e-10


@pytest.mark.parametrize("z", [-0.5, 0.3, 1.0])
def test_constant_curvature_family(z):
    g = superintegrable_line_element(3, z)
    rng = np.random.default_rng(23)
    vals = []
    for _ in range(5):
        q = rng.uniform(-1, 1, 3)
        sect, scal = geo.curvature_summary(g, q)
        vals.extend(sect.values())
        assert scal == pytest.approx(6.0 * z, abs=1e-8)
    assert np.std(vals) < 1e-8
    assert np.mean(vals) == pytest.approx(z, abs=1e-8)


def _constant_curvature_metric(family, z):
    """The constant-curvature metric of ``family`` at ``z``, as the curvature
    command builds it, and its sampling box."""
    if family.startswith("cartesian"):
        n = int(family[-1])
        h = hamiltonian_superintegrable(n, z)
        check = [PhasePoint([0.31] * n, [0.41] * n)]
        return geo.line_element_from_hamiltonian(h, n, check), (-1.0, 1.0)
    h = charts.superintegrable_polar_system(z, float(family[len("polar"):])).hamiltonian
    check = [PhasePoint([0.71, 0.62, 0.53], [0.2, 0.3, 0.4])]
    return geo.metric_from_hamiltonian(h, 3, check), (0.3, 1.1)


@pytest.mark.parametrize(
    "family, bound",
    # twice the largest |K_ij - z| of the einsum Riemann assembly on the same
    # samples: 3.2e-15, 9.9e-15, 5.0e-14 and 6.5e-14
    [("cartesian2", 6.4e-15), ("cartesian3", 2.0e-14), ("polar1", 1.0e-13),
     ("polar-1", 1.3e-13)],
)
def test_constant_curvature_accuracy_on_grid_domains(family, bound):
    # K_ij = z exactly on the benchmark's curvature grid domains, 40 z values
    # with |z| in [0.2, 1] x 6 points each
    rng = np.random.default_rng(list(family.encode()))
    worst = 0.0
    for z in [s * v for v in np.linspace(0.2, 1.0, 20) for s in (1.0, -1.0)]:
        g, box = _constant_curvature_metric(family, z)
        for _ in range(6):
            sect, _ = geo.curvature_summary(g, rng.uniform(*box, g.dim).tolist())
            worst = max(worst, *(abs(k - z) for k in sect.values()))
    assert worst <= bound


def test_two_dimensional_curvatures():
    z = 0.5
    gi = integrable_line_element(2, z)
    # frozen: -0.5 sinh(0.5 * 0.25) with mpmath at 50 digits
    assert geo.gaussian_curvature_2d(gi, [0.3, 0.4]) == pytest.approx(
        -0.06266288762055773, rel=1e-8
    )
    assert geo.gaussian_curvature_variable_2d(z, [0.3, 0.4]) == pytest.approx(
        -0.06266288762055773, rel=1e-15
    )
    assert geo.gaussian_curvature_2d(gi, [0.0, 0.0]) == pytest.approx(0.0, abs=1e-8)
    gs = superintegrable_line_element(2, z)
    for q in ([0.3, 0.4], [0.7, -0.2]):
        assert geo.gaussian_curvature_2d(gs, q) == pytest.approx(z, abs=1e-8)
    with pytest.raises(ValueError):
        geo.gaussian_curvature_2d(integrable_line_element(3, z), [0.1, 0.2, 0.3])


def test_lorentzian_metric_supported():
    # 2D de Sitter-like diagonal metric with one negative component
    g = geo.DiagonalMetric(
        2,
        (lambda q: 1.0, lambda q: -dual.sinh(q[0]) ** 2),
        "lorentzian",
    )
    assert g.signature([0.8, 0.3]) == (1, -1)
    k = geo.sectional_curvature(g, [0.8, 0.3], 0, 1)
    assert k == pytest.approx(-1.0, rel=1e-10)


def test_rescaled_metric_scales_curvature_inversely():
    z = 0.3
    g = geo.metric_from_hamiltonian(
        hamiltonian_integrable(3, z), 3, check_points(3)
    )
    q = [0.4, 0.2, 0.6]
    k_base = geo.sectional_curvature(g, q, 0, 1)
    k_doubled = geo.sectional_curvature(g.rescaled(2.0), q, 0, 1)
    assert k_doubled == pytest.approx(k_base / 2.0, rel=1e-12)


# --------------------------------------------------------------------------
# the one-pass-set curvature path against the nested-pass formulation
# --------------------------------------------------------------------------


def _oracle_components(h, n, factor):
    """factor / (d^2 h / dp_k^2 at p = 0): one nested momentum pass each."""

    def make(k):
        def g_kk(q):
            return factor / dual.second_partial(
                lambda p: h.raw(list(q), p), [0.0] * n, k, k
            )

        return g_kk

    return [make(k) for k in range(n)]


def _oracle_riemann(comps, q):
    """Values and first partials from first-order passes, second partials
    from per-pair nested passes, and the loop-based Riemann assembly."""
    n = len(q)
    num = lambda v: float(dual.primal(v))  # noqa: E731
    gval = [num(c(q)) for c in comps]
    d1 = [[num(dual.partial(comps[k], q, i)) for k in range(n)] for i in range(n)]
    d2 = [
        [[num(dual.second_partial(comps[k], q, i, j)) for k in range(n)]
         for j in range(n)]
        for i in range(n)
    ]
    gamma = np.zeros((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                term = 0.0
                if k == j:
                    term += d1[i][k]
                if k == i:
                    term += d1[j][k]
                if i == j:
                    term -= d1[k][i]
                gamma[k, i, j] = 0.5 / gval[k] * term
    dgamma = np.zeros((n, n, n, n))  # dgamma[i, l, j, k] = d_i Gamma^l_{jk}
    for i in range(n):
        for l in range(n):
            for j in range(n):
                for k in range(n):
                    term = 0.0
                    if l == k:
                        term += d2[i][j][l]
                    if l == j:
                        term += d2[i][k][l]
                    if j == k:
                        term -= d2[i][l][j]
                    dgamma[i, l, j, k] = (
                        0.5 * term / gval[l] - gamma[l, j, k] * d1[i][l] / gval[l]
                    )
    riem = np.zeros((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    val = dgamma[i, l, j, k] - dgamma[j, l, i, k]
                    for m in range(n):
                        val += gamma[l, i, m] * gamma[m, j, k]
                        val -= gamma[l, j, m] * gamma[m, i, k]
                    riem[l, k, i, j] = val
    sect = {
        (i, j): riem[i, j, i, j] / gval[j] for i in range(n) for j in range(i + 1, n)
    }
    scal = sum(riem[l, k, l, k] / gval[k] for k in range(n) for l in range(n))
    return gamma, riem, sect, scal


def _cartesian_cases():
    for n in (2, 3):
        for build in (hamiltonian_integrable, hamiltonian_superintegrable):
            for z in (-0.3, 0.3, 0.8):
                h = build(n, z)
                g = geo.line_element_from_hamiltonian(h, n, check_points(n))
                yield f"{h.label}-z{z}", g, _oracle_components(h, n, 2.0), (-1.0, 1.0)


def _polar_cases():
    for build in (charts.integrable_polar_system, charts.superintegrable_polar_system):
        for kappa2 in (1.0, -1.0):
            h = build(0.3, kappa2).hamiltonian
            check = [PhasePoint([0.71, 0.62, 0.53], [0.2, 0.3, 0.4])]
            g = geo.metric_from_hamiltonian(h, 3, check)
            yield f"{h.label}-k{kappa2}", g, _oracle_components(h, 3, 1.0), (0.3, 1.1)


#: a Lorentzian point toward the polar chart's degenerate locus rho = theta = 0,
#: where |g_33| = 5.1e-4 (8.3e-3 at the box's corner).  Nearer the 1e-12
#: cutoff both routes' eps-level partials are amplified past 1e-12 in the
#: sectionals, einsum assembly or float (8e-11 at |g_33| = 1.8e-5).
_NEAR_DEGENERATE = {
    f"{label}-k-1.0": [[0.15, 0.15, 0.7]] for label in ("H_polar_int", "H_polar_sup")
}


@pytest.mark.parametrize(
    "label, g, comps, box",
    [pytest.param(*case, id=case[0]) for case in (*_cartesian_cases(), *_polar_cases())],
)
def test_curvature_matches_nested_pass_oracle(label, g, comps, box):
    rng = np.random.default_rng(list(label.encode()))
    points = [rng.uniform(*box, g.dim).tolist() for _ in range(2)]
    for q in points + _NEAR_DEGENERATE.get(label, []):
        gamma_ref, riem_ref, sect_ref, scal_ref = _oracle_riemann(comps, q)
        gamma = geo.christoffel(g, q)
        assert np.all(np.abs(gamma - gamma_ref) <= 1e-12 * np.maximum(1.0, np.abs(gamma_ref)))
        riem = geo.riemann(g, q)
        assert np.all(np.abs(riem - riem_ref) <= 1e-12 * np.maximum(1.0, np.abs(riem_ref)))
        sect, scal = geo.curvature_summary(g, q)
        assert sect.keys() == sect_ref.keys()
        for key, ref in sect_ref.items():
            assert abs(sect[key] - ref) <= 1e-12 * max(1.0, abs(ref)), key
        assert abs(scal - scal_ref) <= 1e-12 * max(1.0, abs(scal_ref))


@pytest.mark.parametrize(
    "label, g, comps, box",
    [pytest.param(*case, id=case[0]) for case in (*_cartesian_cases(), *_polar_cases())],
)
def test_taylor2_matches_nested_passes(label, g, comps, box):
    # the jet value, gradient and Hessian of every metric component against
    # plain evaluation, first-order passes and one nested pass per pair.
    # Both routes take sinhc's f' and f'' from its well-conditioned kernel
    # derivatives, so the entries through sinh(u)/u at a small u = z q_k^2
    # agree to 1e-13 too (they differed by up to 9.2e-13 when f' and f''
    # came from the closed form above |u| = 1e-4).
    rng = np.random.default_rng(list(label.encode()))
    num = lambda v: float(dual.primal(v))  # noqa: E731
    for _ in range(2):
        q = rng.uniform(*box, g.dim).tolist()
        for c in g.components:
            value, grad, hess = dual.taylor2(c, q)
            assert abs(value - c(q)) <= 1e-15 * max(1.0, abs(value))
            for i in range(g.dim):
                want = num(dual.partial(c, q, i))
                assert abs(grad[i] - want) <= 1e-13 * max(1.0, abs(want))
                for j in range(g.dim):
                    want = num(dual.second_partial(c, q, i, j))
                    assert abs(hess[i][j] - want) <= 1e-13 * max(1.0, abs(want))


def test_small_coordinate_hessian_entry_matches_high_precision():
    # d^2 g_11 / dq_1^2 of the H_sup line element at q_1 = 0.0196, through
    # sinh(u)/u at u = 3e-4: it erred by 9.9e-13 (1.6e-12 relative) while
    # sinhc's derivatives came from its closed form above |u| = 1e-4
    mpmath = pytest.importorskip("mpmath")
    z, q = 0.8, [0.0196097085350746, 0.960822792909027, -0.30606713093676463]
    g = superintegrable_line_element(3, z)
    _, _, hess = dual.taylor2(g.components[0], q)
    with mpmath.workdps(40):
        zm, (q1, q2, q3) = mpmath.mpf(z), (mpmath.mpf(v) for v in q)

        def g11(x):
            # 2 / (sinhc(z x^2) e^{z (q2^2 + q3^2)} e^{z J-})
            u = zm * x * x
            jm = x * x + q2 * q2 + q3 * q3
            return 2 / (mpmath.sinh(u) / u * mpmath.exp(zm * (q2 * q2 + q3 * q3) + zm * jm))

        want = mpmath.diff(g11, q1, 2)
    assert abs(hess[0][0] - want) <= 1e-15 * abs(want)


def test_curvature_overflow_is_a_domain_error():
    # finite exact curvature (z), but the metric components reach exp(176):
    # the tensor arithmetic overflows and is reported, without numpy warnings
    g = superintegrable_line_element(3, -22.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationDomainError):
            geo.curvature_summary(g, [2.0, 2.0, 2.0])
        with pytest.raises(EvaluationDomainError):
            geo.riemann(g, [2.0, 2.0, 2.0])


def test_curvature_point_path_reads_no_numpy():
    # curvature_summary and every geometry function it reaches (by name, or
    # as a method of the metric) run on Python floats: none reads np.<attr>
    tree = ast.parse(pathlib.Path(geo.__file__).read_text())
    def defs(nodes):
        return {node.name: node for node in nodes if isinstance(node, ast.FunctionDef)}

    metric = next(node for node in tree.body if getattr(node, "name", "") == "DiagonalMetric")
    functions, methods = defs(tree.body), defs(metric.body)
    todo, seen = [functions["curvature_summary"]], set()
    while todo:
        fn = todo.pop()
        seen.add(fn.name)
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                ref = functions.get(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                assert node.value.id != "np", (fn.name, node.attr)
                ref = methods.get(node.attr) if node.value.id in ("g", "self") else None
            else:
                continue
            if ref is not None and ref.name not in seen:
                todo.append(ref)
    assert seen == {
        "curvature_summary", "_component_derivatives", "_nondegenerate",
        "_connection", "_riemann_entry", "_finite",
    }
