"""Poisson engine: gradients, brackets, algebra checks, ranks."""

import numpy as np
import pytest

from zgeoflow.algebra import (
    casimir_m,
    hamiltonian_family,
    hamiltonian_integrable,
    hamiltonian_superintegrable,
    integral_extra_2,
    integral_extra_3,
    realize_generators,
)
from zgeoflow.brackets import (
    bracket_matrix,
    bracket_residual,
    check_algebra,
    check_involution,
    gradient,
    gradient_fd,
    independence_rank,
    poisson_bracket,
    sample_points,
)
from zgeoflow import brackets, charts, dual
from zgeoflow.phase import PhaseFunction, PhasePoint, coordinate, momentum


def test_gradient_polynomial():
    f = PhaseFunction(2, lambda q, p: q[0] * q[0], "q1^2")
    g = gradient(f, PhasePoint([1.5, -0.3], [0.2, 0.9]))
    assert g.dq == pytest.approx([3.0, 0.0], abs=1e-15)
    assert g.dp == pytest.approx([0.0, 0.0], abs=1e-15)


def test_gradient_momentum_square():
    gen = realize_generators(1, 0.0)
    g = gradient(gen.j_plus, PhasePoint([0.4], [1.3]))
    assert g.dp == pytest.approx([2.6], abs=1e-15)
    assert g.dq == pytest.approx([0.0], abs=1e-15)


def test_exact_gradient_matches_fd_oracle():
    gen = realize_generators(2, 0.3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = PhasePoint(rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2))
        ge = np.array(gradient(gen.j_plus, x).flat())
        gf = np.array(gradient_fd(gen.j_plus, x).flat())
        assert np.max(np.abs(ge - gf)) < 1e-6 * (1.0 + np.max(np.abs(ge)))


def test_canonical_pairs():
    q1, p1 = coordinate(2, 0), momentum(2, 0)
    q2 = coordinate(2, 1)
    x = PhasePoint([0.3, -1.2], [0.8, 0.1])
    assert poisson_bracket(q1, p1, x) == pytest.approx(1.0, abs=1e-15)
    assert poisson_bracket(q1, q2, x) == 0.0


def test_deformed_bracket_closes_on_j_three():
    z = 0.4
    gen = realize_generators(2, z)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = PhasePoint(rng.uniform(-1.5, 1.5, 2), rng.uniform(-1.5, 1.5, 2))
        lhs = poisson_bracket(gen.j_minus, gen.j_plus, x)
        assert abs(lhs - 4.0 * float(gen.j_three(x))) < 1e-9


def test_antisymmetry():
    z = 0.6
    gen = realize_generators(3, z)
    for x in sample_points(3, 20, seed=9):
        a = poisson_bracket(gen.j_three, gen.j_plus, x)
        b = poisson_bracket(gen.j_plus, gen.j_three, x)
        assert abs(a + b) < 1e-14 * max(1.0, abs(a))


def test_leibniz_rule():
    z = 0.3
    gen = realize_generators(2, z)
    f, g, h = gen.j_minus, gen.j_plus, gen.j_three
    fg = f * g
    for x in sample_points(2, 15, seed=4):
        lhs = poisson_bracket(fg, h, x)
        rhs = float(f(x)) * poisson_bracket(g, h, x) + float(g(x)) * poisson_bracket(
            f, h, x
        )
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def bracket_function(f, g):
    """{f, g} as a PhaseFunction from per-slot dual passes, so it can be
    differentiated again by further (nested) dual passes."""
    n = f.arity

    def fn(q, p):
        qp = [*q, *p]
        df = [dual.partial(lambda a: f.fn(a[:n], a[n:]), qp, i) for i in range(2 * n)]
        dg = [dual.partial(lambda a: g.fn(a[:n], a[n:]), qp, i) for i in range(2 * n)]
        out = 0.0
        for i in range(n):
            out = out + df[i] * dg[n + i] - df[n + i] * dg[i]
        return out

    return PhaseFunction(n, fn, f"{{{f.label},{g.label}}}")


def test_jacobi_identity_nested():
    # both bracket levels are per-slot dual passes: the outer ones wrap the inner
    z = 0.3
    gen = realize_generators(2, z)
    f, g, h = gen.j_minus, gen.j_plus, gen.j_three
    fg = bracket_function(f, g)
    gh = bracket_function(g, h)
    hf = bracket_function(h, f)
    for x in sample_points(2, 8, seed=13):
        q, p = x.scalars()
        total = (
            bracket_function(fg, h).raw(q, p)
            + bracket_function(gh, f).raw(q, p)
            + bracket_function(hf, g).raw(q, p)
        )
        assert abs(total) < 1e-7


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("z", [-0.7, 0.0, 0.3, 1.0])
def test_bracket_relations_sampled(n, z):
    report = check_algebra(n, z, samples=30, seed=21)
    assert report.passed, report.to_text()


def test_check_algebra_report_fields():
    report = check_algebra(2, 0.3, samples=10, seed=1)
    text = report.to_text()
    assert "seed = 1" in text and "passed = True" in text
    with pytest.raises(ValueError):
        check_algebra(2, 0.3, samples=0)


def test_casimir_centrality_and_tower():
    z = 0.4
    for n in (2, 3, 4, 5):
        gen = realize_generators(n, z)
        cas = [casimir_m(m, n, z) for m in range(2, n + 1)]
        pts = sample_points(n, 10, seed=31)
        for c in cas:
            for gfun in gen.as_tuple():
                for x in pts:
                    assert bracket_residual(c, gfun, x) < 1e-9
        rep = check_involution(cas, samples=10, seed=31)
        assert rep.passed, rep.to_text()


def test_involution_of_integrable_sets():
    z = 0.3
    h = hamiltonian_integrable(3, z)
    c2, c3 = casimir_m(2, 3, z), casimir_m(3, 3, z)
    rep = check_involution([h, c2, c3], samples=15, seed=2)
    assert rep.passed
    # the superintegrable flow commutes with all four constants, and the two
    # triples {H, C2, C3} and {H, I2, I3} are each mutually in involution
    # (the five functions together cannot be: 5 > N on a 6D phase space)
    hs = hamiltonian_superintegrable(3, z)
    i2, i3 = integral_extra_2(z, 3), integral_extra_3(z, 3)
    for c in (c2, c3, i2, i3):
        for x in sample_points(3, 15, seed=2):
            assert bracket_residual(hs, c, x) < 1e-9
    rep = check_involution([hs, c2, c3], samples=15, seed=2)
    assert rep.passed, rep.to_text()
    rep = check_involution([hs, i2, i3], samples=15, seed=2)
    assert rep.passed, rep.to_text()
    for fam in (lambda s: 1.0 + s, dual.exp):
        hf = hamiltonian_family(3, z, fam)
        rep = check_involution([hf, c2, c3], samples=10, seed=2)
        assert rep.passed


def test_involution_flags_canonical_pair():
    rep = check_involution([coordinate(1, 0), momentum(1, 0)], samples=5, seed=0)
    assert not rep.passed
    assert rep.residuals[0, 1] == pytest.approx(1.0, abs=1e-14)
    # antisymmetric consistency of the report
    assert np.allclose(rep.residuals, rep.residuals.T)


def test_involution_arity_mismatch():
    with pytest.raises(ValueError):
        check_involution([coordinate(1, 0), coordinate(2, 0)])


def test_independence_rank_degenerate():
    q1 = coordinate(1, 0)
    q1sq = PhaseFunction(1, lambda q, p: q[0] * q[0], "q1^2")
    assert independence_rank([q1, q1sq], PhasePoint([1.0], [0.5])).rank == 1


def test_independence_rank_margin_is_the_smallest_kept_singular_ratio():
    q1, p1 = coordinate(1, 0), momentum(1, 0)
    x = PhasePoint([1.0], [0.5])
    assert independence_rank([q1, p1], x) == (2, 1.0)
    # rows (1, 0) and (1, 1e-6): kept, but close to the 1e-8 cut
    tilted = PhaseFunction(1, lambda q, p: q[0] + 1e-6 * p[0], "tilted")
    rank, margin = independence_rank([q1, tilted], x)
    assert rank == 2 and margin == pytest.approx(0.5e-6, rel=1e-6)
    q1sq = PhaseFunction(1, lambda q, p: q[0] * q[0], "q1^2")
    assert independence_rank([q1, q1sq], x) == (1, 1.0)
    assert independence_rank([q1 - q1], x) == (0, 0.0)


def test_independence_rank_integrable_and_superintegrable():
    z = 0.3
    h = hamiltonian_integrable(3, z)
    hs = hamiltonian_superintegrable(3, z)
    c2, c3 = casimir_m(2, 3, z), casimir_m(3, 3, z)
    i2, i3 = integral_extra_2(z, 3), integral_extra_3(z, 3)
    for x in sample_points(3, 5, seed=77):
        assert independence_rank([h, c2, c3], x).rank == 3
        assert independence_rank([hs, c2, c3, i2, i3], x).rank == 5


def test_independence_rank_ignores_row_scale():
    # |grad H_sup| ~ 1e8 against |grad I2| ~ 0.2: without row scaling this
    # draw read as rank 3
    n, z = 8, 0.7
    casimirs = [casimir_m(m, n, z) for m in range(2, n + 1)]
    sup = [hamiltonian_superintegrable(n, z), casimirs[0], casimirs[1],
           integral_extra_2(z, n), integral_extra_3(z, n)]
    x = sample_points(n, 1, seed=4)[0]
    assert independence_rank(sup, x).rank == 5
    assert independence_rank([hamiltonian_integrable(n, z), *casimirs], x).rank == n


def test_independence_rank_still_finds_dependence():
    z = 0.3
    h = hamiltonian_integrable(3, z)
    c2, c3 = casimir_m(2, 3, z), casimir_m(3, 3, z)
    for x in sample_points(3, 5, seed=78):
        assert independence_rank([h, c2, c3, 2.0 * h], x).rank == 3
        assert independence_rank([h, c2, c3, c2 * c3], x).rank == 3
    x = sample_points(8, 1, seed=4)[0]
    tower = [hamiltonian_integrable(8, 0.7)] + [casimir_m(m, 8, 0.7) for m in range(2, 9)]
    assert independence_rank([*tower, 2.0 * tower[0]], x).rank == 8


def test_bracket_arity_mismatch():
    with pytest.raises(ValueError):
        poisson_bracket(coordinate(1, 0), coordinate(2, 0), PhasePoint([1.0], [1.0]))


def test_exact_vs_fd_brackets():
    z = 0.5
    gen = realize_generators(3, z)

    def bracket_fd(f, g, x):
        gf = gradient_fd(f, x)
        gg = gradient_fd(g, x)
        return float(np.dot(gf.dq, gg.dp) - np.dot(gf.dp, gg.dq))

    for x in sample_points(3, 8, seed=12):
        exact = poisson_bracket(gen.j_three, gen.j_plus, x)
        approx = bracket_fd(gen.j_three, gen.j_plus, x)
        assert abs(exact - approx) < 1e-6 * (1.0 + abs(exact))


def test_sample_points_reproducible_and_bounded():
    a = sample_points(3, 5, seed=42)
    b = sample_points(3, 5, seed=42)
    for x, y in zip(a, b):
        assert np.array_equal(x.q, y.q) and np.array_equal(x.p, y.p)
    assert all(np.max(np.abs(x.flat())) <= 2.0 for x in a)


# --------------------------------------------------------------------------
# the bracket matrix
# --------------------------------------------------------------------------


def _chart_case(kappa2):
    """The six polar chart functions at a Cartesian point (complex for kappa2 < 0)."""
    z = 0.4
    polar = charts.PolarPoint(0.6, 0.5, 0.7, 0.3, -0.8, 0.5)
    point = charts.transform_to_cartesian(polar, z, kappa2)
    return charts.polar_chart_functions(z, kappa2), point


def _generator_case():
    z = 0.3
    funcs = [*realize_generators(3, z).as_tuple(), hamiltonian_integrable(3, z)]
    return funcs, sample_points(3, 1, seed=8)[0]


@pytest.mark.parametrize(
    "case",
    [_generator_case, lambda: _chart_case(1.0), lambda: _chart_case(-1.0)],
    ids=["generators", "chart", "complex-chart"],
)
def test_bracket_matrix_matches_pair_formula(case):
    funcs, x = case()
    vals, scales = bracket_matrix(funcs, x)
    assert np.array_equal(vals, -vals.T)
    assert np.all(np.diag(vals) == 0.0)
    assert np.array_equal(scales, scales.T)
    for a, fa in enumerate(funcs):
        for b, fb in enumerate(funcs):
            ga, gb = gradient(fa, x), gradient(fb, x)
            aq, ap, bq, bp = (np.array(v) for v in (ga.dq, ga.dp, gb.dq, gb.dp))
            val = np.dot(aq, bp) - np.dot(ap, bq)
            scale = np.sum(np.abs(aq * bp)) + np.sum(np.abs(ap * bq))
            assert abs(vals[a, b] - val) <= 1e-15 * scale
            assert abs(scales[a, b] - scale) <= 1e-15 * scale
    if np.iscomplexobj(x.q):  # the kappa2 < 0 chart differentiates at complex points
        assert max(np.max(np.abs(np.imag(gradient(f, x).flat()))) for f in funcs) > 0.1


def test_bracket_matrix_arity_mismatch():
    with pytest.raises(ValueError, match="arity mismatch between bracket"):
        bracket_matrix([coordinate(1, 0), coordinate(2, 0)], PhasePoint([1.0], [1.0]))


def test_one_gradient_per_function_and_point(monkeypatch):
    calls = []
    counted = brackets.gradient

    def counting(f, x):
        calls.append(f.label)
        return counted(f, x)

    monkeypatch.setattr(brackets, "gradient", counting)
    z = 0.3
    point = PhasePoint([0.5, 0.4, 0.6], [0.2, -0.1, 0.3])
    charts.fundamental_bracket_residuals(point, z, 1.0)
    assert len(calls) == 0  # two jet passes and the chain rule, no gradients
    calls.clear()
    tower = [hamiltonian_integrable(3, z), casimir_m(2, 3, z), casimir_m(3, 3, z)]
    check_involution(tower, samples=4, seed=1)
    assert len(calls) == 3 * 4
    calls.clear()
    check_algebra(3, z, samples=5, seed=1)
    assert len(calls) == 3 * 5


def test_algebra_report_with_a_nan_residual_fails():
    # a nan anywhere must fail the report, whatever its position
    for res in ([float("nan"), 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, float("nan")]):
        report = brackets.AlgebraReport(2, 0.3, 1, 0, *res)
        assert np.isnan(report.max_residual) and not report.passed
