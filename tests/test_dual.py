"""Exactness and nesting of the dual numbers, jets and reverse passes."""

import ast
import cmath
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgeoflow import algebra, charts, dual, kernels
from zgeoflow.algebra import hamiltonian_superintegrable, realize_generators
from zgeoflow.brackets import gradient, gradient_fd, gradient_lists, sample_points
from zgeoflow.dual import Dual, derivative, partial, primal
from zgeoflow.phase import PhasePoint

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_first_derivative_exp_sin():
    f = lambda x: dual.exp(dual.sin(x))
    x0 = 0.73
    assert derivative(f, x0) == pytest.approx(
        math.cos(x0) * math.exp(math.sin(x0)), abs=1e-15
    )


def test_second_derivative_nested():
    f = lambda x: dual.exp(dual.sin(x))
    x0 = 0.41
    # f'' = (cos^2 x - sin x) exp(sin x)
    expected = (math.cos(x0) ** 2 - math.sin(x0)) * math.exp(math.sin(x0))
    assert derivative(lambda y: derivative(f, y), x0) == pytest.approx(expected, rel=1e-14)


def test_third_derivative_polynomial():
    f = lambda x: x * x * x * x
    d3 = derivative(lambda a: derivative(lambda b: derivative(f, b), a), 2.0)
    assert d3 == pytest.approx(48.0, abs=1e-12)


def test_mixed_partial_tag_safety():
    # f(x, y) = x^2 y + sin(x y): d2f/dxdy = 2x + cos(xy) - xy sin(xy)
    def f(args):
        x, y = args
        return x * x * y + dual.sin(x * y)

    x0, y0 = 0.8, -0.55
    expected = 2 * x0 + math.cos(x0 * y0) - x0 * y0 * math.sin(x0 * y0)

    def df_dy(x):
        return partial(f, [x, y0], 1)

    got = derivative(df_dy, x0)
    assert got == pytest.approx(expected, rel=1e-14)
    # the other nesting order agrees
    got2 = derivative(lambda y: partial(f, [x0, y], 0), y0)
    assert got2 == pytest.approx(expected, rel=1e-14)


def test_inner_variable_independent_gives_zero():
    def f(args):
        return args[0] * args[0]

    assert partial(f, [1.5, 2.5], 1) == 0.0


def test_division_and_power():
    f = lambda x: (x * x + 1.0) / (x - 2.0)
    x0 = 0.5
    num = lambda x: (x * x + 1.0)
    expected = (2 * x0 * (x0 - 2.0) - (x0 * x0 + 1.0)) / (x0 - 2.0) ** 2
    assert derivative(f, x0) == pytest.approx(expected, rel=1e-14)
    assert derivative(lambda x: x**5, 1.3) == pytest.approx(5 * 1.3**4, rel=1e-14)
    assert derivative(lambda x: x ** (-2), 1.7) == pytest.approx(
        -2 * 1.7 ** (-3), rel=1e-14
    )


def test_inverse_functions():
    for fn, dfn, x0 in [
        (dual.asin, lambda x: 1 / math.sqrt(1 - x * x), 0.4),
        (dual.atan, lambda x: 1 / (1 + x * x), 1.2),
        (dual.asinh, lambda x: 1 / math.sqrt(x * x + 1), 0.9),
        (dual.log, lambda x: 1 / x, 2.3),
        (dual.sqrt, lambda x: 0.5 / math.sqrt(x), 2.3),
        (dual.cosh, math.sinh, 0.6),
        (dual.expm1, math.exp, 0.6),
        (dual.log1p, lambda x: 1 / (1 + x), 0.6),
    ]:
        assert derivative(fn, x0) == pytest.approx(dfn(x0), rel=1e-13), fn.__name__


def test_complex_support():
    import cmath

    z0 = 0.3 + 0.2j
    assert derivative(dual.exp, z0) == pytest.approx(cmath.exp(z0), rel=1e-14)
    assert derivative(dual.expm1, z0) == pytest.approx(cmath.exp(z0), rel=1e-14)
    assert derivative(dual.log1p, z0) == pytest.approx(1 / (1 + z0), rel=1e-14)
    assert dual.log1p(dual.expm1(z0)) == pytest.approx(z0, rel=1e-14)
    w = 1e-12 - 3e-13j  # exp(w) - 1 would keep only 4 digits
    assert dual.expm1(w) == pytest.approx(w + w * w / 2, rel=1e-15)
    assert derivative(dual.sqrt, -1.0 + 0j) == pytest.approx(
        0.5 / cmath.sqrt(-1.0 + 0j), rel=1e-14
    )


def test_primal_strips_nesting():
    t1, t2 = dual.fresh_tag(), dual.fresh_tag()
    x = Dual(t2, Dual(t1, 3.0, 1.0), 1.0)
    assert primal(x) == 3.0


def test_third_order_mixed_partial():
    # f(x, y, z) = exp(x y) sin(z): d3f/dx dy dz = (1 + xy) exp(xy) cos(z)
    x0, y0, z0 = 0.4, -0.3, 0.8

    def f(args):
        x, y, z = args
        return dual.exp(x * y) * dual.sin(z)

    got = derivative(
        lambda x: derivative(
            lambda y: partial(f, [x, y, z0], 2), y0
        ),
        x0,
    )
    expected = (1 + x0 * y0) * math.exp(x0 * y0) * math.cos(z0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_mixed_tag_division_both_orders():
    # g(x, y) = x / y and y / x differentiated in either variable order
    x0, y0 = 1.3, -0.7

    def dx_of(expr):
        return derivative(lambda x: derivative(lambda y: expr(x, y), y0), x0)

    assert dx_of(lambda x, y: x / y) == pytest.approx(-1.0 / y0**2, rel=1e-13)
    assert dx_of(lambda x, y: y / x) == pytest.approx(-1.0 / x0**2, rel=1e-13)
    assert dx_of(lambda x, y: 1.0 / (x * y)) == pytest.approx(
        1.0 / (x0 * y0) ** 2, rel=1e-13
    )


def test_extraction_order_independence():
    # d2/dxdy of x^2 y^3 via both extraction orders of the two tags
    x0, y0 = 0.7, 1.2
    expected = 2 * x0 * 3 * y0**2

    def seeded_eval():
        ti, tj = dual.fresh_tag(), dual.fresh_tag()
        x = Dual(ti, x0, 1.0)
        y = Dual(tj, y0, 1.0)
        return ti, tj, x * x * y * y * y

    ti, tj, val = seeded_eval()
    assert dual.dual_part(dual.dual_part(val, tj), ti) == pytest.approx(expected)
    ti, tj, val = seeded_eval()
    assert primal(
        dual.dual_part(dual.dual_part(val, ti), tj)
    ) == pytest.approx(expected)


def test_mixed_tag_product_symmetry():
    # the order in which tag levels meet must not matter
    x0, y0 = 0.9, 0.6

    def h1(args):
        x, y = args
        return (x * y) * dual.sinh(y)

    def h2(args):
        x, y = args
        return dual.sinh(y) * (y * x)

    for fn in (h1, h2):
        got = derivative(lambda y: partial(fn, [x0, y], 0), y0)
        expected = math.sinh(y0) + y0 * math.cosh(y0)
        assert got == pytest.approx(expected, rel=1e-13)


@given(finite, finite, finite)
@settings(max_examples=200, deadline=None)
def test_product_rule_property(a, b, x0):
    f = lambda x: (x + a) * (x * x + b)
    expected = (x0 * x0 + b) + (x0 + a) * 2 * x0
    assert derivative(f, x0) == pytest.approx(expected, rel=1e-12, abs=1e-12)


@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_chain_rule_property(x0):
    f = lambda x: dual.sinh(dual.cos(x))
    expected = -math.sin(x0) * math.cosh(math.cos(x0))
    assert derivative(f, x0) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the differentiation core: gradient, list-valued partial, second partials
# ---------------------------------------------------------------------------


def _xy(args):
    # f(x, y) = x^2 y^3 + sin(x y)
    x, y = args
    return x * x * y * y * y + dual.sin(x * y)


X0, Y0 = 0.8, -0.55


def test_gradient_closed_form():
    # f(x, y, z) = x^2 y + exp(z) sin(x)
    def f(args):
        x, y, z = args
        return x * x * y + dual.exp(z) * dual.sin(x)

    x0, y0, z0 = 0.7, -1.2, 0.3
    expected = [
        2 * x0 * y0 + math.exp(z0) * math.cos(x0),
        x0 * x0,
        math.exp(z0) * math.sin(x0),
    ]
    got = dual.gradient(f, [x0, y0, z0])
    assert got == pytest.approx(expected, rel=1e-14)


def test_gradient_matches_finite_differences():
    h = hamiltonian_superintegrable(3, 0.4)
    x = PhasePoint([0.3, -0.2, 0.5], [0.7, 0.1, -0.4])
    got = dual.gradient(lambda qp: h.raw(qp[:3], qp[3:]), [*x.q, *x.p])
    assert got == pytest.approx(list(gradient_fd(h, x).flat()), rel=1e-7, abs=1e-9)


def test_list_valued_partial():
    def f(args):
        x, y = args
        return [x * y, dual.sin(x), y * y * y]

    assert partial(f, [X0, Y0], 0) == pytest.approx([Y0, math.cos(X0), 0.0], rel=1e-15)
    assert partial(f, [X0, Y0], 1) == pytest.approx([X0, 0.0, 3 * Y0 * Y0], rel=1e-15)
    # one reverse pass per component gives the same Jacobian columns
    cols = _reverse_columns(f, [X0, Y0])
    assert cols == [partial(f, [X0, Y0], 0), partial(f, [X0, Y0], 1)]


def _reverse_columns(f, args):
    """Jacobian columns of a list-valued ``f``, one reverse pass per
    component (a reverse pass differentiates one scalar output)."""
    rows = [dual.gradient(lambda a, k=k: f(a)[k], args) for k in range(len(f(args)))]
    return [[row[i] for row in rows] for i in range(len(args))]


def test_second_partial_mixed_and_diagonal():
    mixed = 6 * X0 * Y0**2 + math.cos(X0 * Y0) - X0 * Y0 * math.sin(X0 * Y0)
    assert dual.second_partial(_xy, [X0, Y0], 0, 1) == pytest.approx(mixed, rel=1e-14)
    assert dual.second_partial(_xy, [X0, Y0], 1, 0) == pytest.approx(mixed, rel=1e-14)
    fxx = 2 * Y0**3 - Y0**2 * math.sin(X0 * Y0)
    got = dual.second_partial(_xy, [X0, Y0], 0, 0)
    assert got == pytest.approx(fxx, rel=1e-14)
    ref = derivative(lambda x: derivative(lambda x1: _xy([x1, Y0]), x), X0)
    assert got == pytest.approx(ref, rel=1e-14)


def test_second_partial_on_dual_args_differentiates_again():
    # d/dx of d2f/dy2 = 12 x y - 2 x sin(xy) - x^2 y cos(xy)
    expected = (
        12 * X0 * Y0
        - 2 * X0 * math.sin(X0 * Y0)
        - X0 * X0 * Y0 * math.cos(X0 * Y0)
    )
    got = derivative(lambda x: dual.second_partial(_xy, [x, Y0], 1, 1), X0)
    assert got == pytest.approx(expected, rel=1e-13)
    ref = derivative(
        lambda x: derivative(lambda y: derivative(lambda y1: _xy([x, y1]), y), Y0), X0
    )
    assert got == pytest.approx(ref, rel=1e-14)
    # the dual layer of the argument survives in the result
    t = dual.fresh_tag()
    assert isinstance(dual.second_partial(_xy, [Dual(t, X0, 1.0), Y0], 1, 1), Dual)


def test_hessian_symmetric_floats():
    def f(args):
        x, y, z = args
        return dual.exp(x * y) * dual.sin(z) + x * z * z

    args = [0.4, -0.3, 0.8]
    hess = dual.hessian(f, args)
    assert hess == [list(row) for row in zip(*hess)]
    assert all(type(v) is float for row in hess for v in row)
    for i in range(3):
        for j in range(i, 3):
            want = float(primal(dual.second_partial(f, args, i, j)))
            assert abs(hess[i][j] - want) <= 1e-13 * max(1.0, abs(want))
    x, y, z = args
    assert hess[0][1] == pytest.approx(
        (1 + x * y) * math.exp(x * y) * math.sin(z), rel=1e-14
    )
    assert hess[2][2] == pytest.approx(-math.exp(x * y) * math.sin(z) + 2 * x, rel=1e-14)


def _taylor2_cases():
    jp = realize_generators(3, 0.3).j_plus
    h = hamiltonian_superintegrable(3, -0.2)
    yield lambda qs: jp.raw(qs, [0.4, -0.9, 0.2]), [0.3, -0.5, 0.7]
    yield lambda qs: 1.0 / (2.0 * h.raw(qs, [0.0, 1.0, 0.0])), [-0.6, 0.25, 0.4]
    yield _xy, [X0, Y0]
    yield lambda args: dual.log(args[0]) / (1.0 + args[1] * args[1]), [1.7, 0.3]
    yield lambda args: 2.5, [0.1, 0.2]  # a constant: no dual layer at all


@pytest.mark.parametrize("f, args", list(_taylor2_cases()))
def test_taylor2_value_gradient_hessian(f, args):
    n = len(args)
    tags = dual.fresh_tag()
    value, grad, hess = dual.taylor2(f, args)
    assert dual.fresh_tag() - tags == 2  # one jet pass, one tag
    for i in range(n):
        for j in range(i, n):
            want = float(primal(dual.second_partial(f, args, i, j)))
            assert hess[i][j] == hess[j][i]
            assert abs(hess[i][j] - want) <= 1e-13 * max(1.0, abs(want))
    assert hess == dual.hessian(f, args)
    ref = float(primal(f(args)))
    assert abs(value - ref) <= 2 * math.ulp(ref)
    ref_grad = [float(primal(partial(f, args, i))) for i in range(n)]
    for got, want in zip(grad, ref_grad):
        assert abs(got - want) <= 1e-13 * abs(want)
    assert all(type(v) is float for v in (value, *grad, *sum(hess, [])))


def test_bracket_gradients_agree_bit_for_bit():
    funcs = [realize_generators(3, 0.3).j_plus, hamiltonian_superintegrable(3, -0.2)]
    for f in funcs:
        for x in sample_points(3, 4, seed=7):
            g = gradient(f, x)
            dq, dp = gradient_lists(f, list(x.q), list(x.p))
            assert list(g.dq) == dq and list(g.dp) == dp


def test_gradient_matches_partial_slot_by_slot():
    # one reverse pass (one tag) against one dual pass per slot
    jp = realize_generators(3, 0.3).j_plus
    f = lambda qs: jp.raw(qs, [0.4, -0.9, 0.2])  # noqa: E731
    args = [0.3, -0.5, 0.7]
    tags = dual.fresh_tag()
    got = dual.gradient(f, args)
    assert dual.fresh_tag() - tags == 2
    for i, g in enumerate(got):
        want = partial(f, args, i)
        assert abs(g - want) <= 1e-15 * max(1.0, abs(want))
    vec = lambda xs: [xs[0] * xs[1], dual.sin(xs[1]), 2.0]  # noqa: E731
    assert _reverse_columns(vec, args) == [partial(vec, args, i) for i in range(3)]
    assert args == [0.3, -0.5, 0.7]


# --------------------------------------------------------------------------
# second-order jets
# --------------------------------------------------------------------------

# table entries the package does not ship, from the same builder as its own:
# the chain rules of every pass type come with the one (f, f', f'') entry
_tan = dual._elementary(
    "tan", math.tan, cmath.tan,
    lambda x, v: 1.0 / (dual.cos(x) * dual.cos(x)), lambda x, v, g: 2.0 * v * g,
)
_acos = dual._elementary(
    "acos", math.acos, cmath.acos,
    lambda x, v: -1.0 / dual.sqrt(1.0 - x * x), lambda x, v, g: x * g * g * g,
)
_acosh = dual._elementary(
    "acosh", math.acosh, cmath.acosh,
    lambda x, v: 1.0 / dual.sqrt(x * x - 1.0), lambda x, v, g: -x * g * g * g,
)

# (f, f', f'') in closed form, with a real and a complex point inside the
# domain of the real function
_JET_RULES = [
    (dual.exp, lambda x: cmath.exp(x), lambda x: cmath.exp(x), 0.7),
    (dual.expm1, lambda x: cmath.exp(x), lambda x: cmath.exp(x), -0.4),
    (dual.log, lambda x: 1 / x, lambda x: -1 / x**2, 1.6),
    (dual.log1p, lambda x: 1 / (1 + x), lambda x: -1 / (1 + x) ** 2, 0.3),
    (dual.sqrt, lambda x: 0.5 / cmath.sqrt(x), lambda x: -0.25 * x**-1.5, 2.2),
    (dual.sin, cmath.cos, lambda x: -cmath.sin(x), 0.9),
    (dual.cos, lambda x: -cmath.sin(x), lambda x: -cmath.cos(x), 0.9),
    (_tan, lambda x: 1 / cmath.cos(x) ** 2,
     lambda x: 2 * cmath.sin(x) / cmath.cos(x) ** 3, 0.6),
    (dual.sinh, cmath.cosh, cmath.sinh, -0.8),
    (dual.cosh, cmath.sinh, cmath.cosh, -0.8),
    (dual.tanh, lambda x: 1 / cmath.cosh(x) ** 2,
     lambda x: -2 * cmath.sinh(x) / cmath.cosh(x) ** 3, 0.5),
    (dual.asin, lambda x: (1 - x * x) ** -0.5, lambda x: x * (1 - x * x) ** -1.5, 0.35),
    (_acos, lambda x: -((1 - x * x) ** -0.5), lambda x: -x * (1 - x * x) ** -1.5, 0.35),
    (dual.atan, lambda x: 1 / (1 + x * x), lambda x: -2 * x / (1 + x * x) ** 2, -1.3),
    (dual.asinh, lambda x: (x * x + 1) ** -0.5, lambda x: -x * (x * x + 1) ** -1.5, 1.1),
    (_acosh, lambda x: (x * x - 1) ** -0.5, lambda x: -x * (x * x - 1) ** -1.5, 1.8),
]


@pytest.mark.parametrize("fn, d1, d2, x0", _JET_RULES, ids=[r[0].__name__ for r in _JET_RULES])
@pytest.mark.parametrize("shift", [0.0, 0.2j], ids=["real", "complex"])
def test_jet_elementary_functions_against_closed_forms(fn, d1, d2, x0, shift):
    x = x0 + shift
    value, grad, hess = dual.jet(lambda a: fn(a[0]), [x])
    assert value == fn(x)
    for got, want in ((grad[0], d1(x)), (hess[0][0], d2(x))):
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want))
    if shift == 0.0:
        assert all(type(v) is float for v in (value, grad[0], hess[0][0]))
    # one f' serves the dual, reverse and jet passes alike
    assert derivative(fn, x) == dual.gradient(lambda a: fn(a[0]), [x])[0] == grad[0]
    # through a linear map of two inputs: f'' a a^T and f' a
    u = [0.3, -1.7]
    value, grad, hess = dual.jet(lambda a: fn(u[0] * a[0] + u[1] * a[1] + x), [0.0, 0.0])
    for i in range(2):
        assert abs(grad[i] - d1(x) * u[i]) <= 1e-14 * max(1.0, abs(d1(x)))
        for j in range(2):
            assert abs(hess[i][j] - d2(x) * u[i] * u[j]) <= 1e-13 * max(1.0, abs(d2(x)))


def test_jet_arithmetic_against_closed_forms():
    def f(a):
        x, y = a
        return (x**3 - 2.0 / y + y**-2) / (1.0 - x * y) + (3.0 - x) * x ** 0.5

    x, y = 0.6, 1.4
    value, grad, hess = dual.jet(f, [x, y])
    ref = [float(primal(v)) for v in dual.gradient(f, [x, y])]
    assert value == pytest.approx(f([x, y]), rel=1e-15)
    assert grad == pytest.approx(ref, rel=1e-14)
    for i in range(2):
        for j in range(2):
            want = float(primal(dual.second_partial(f, [x, y], i, j)))
            assert hess[i][j] == pytest.approx(want, rel=1e-13)


def test_jet_first_order_and_list_valued():
    f = lambda a: [a[0] * a[1], dual.exp(a[1]), 1.5]  # noqa: E731
    tags = dual.fresh_tag()
    out = dual.jet(f, [0.5, -0.2], order=1)
    assert dual.fresh_tag() - tags == 2
    assert [v for v, _, _ in out] == [0.5 * -0.2, math.exp(-0.2), 1.5]
    assert [g for _, g, _ in out] == [[-0.2, 0.5], [0.0, math.exp(-0.2)], [0.0, 0.0]]
    assert all(h is None for _, _, h in out)
    _, _, hess = dual.jet(f, [0.5, -0.2])[0]
    assert hess == [[0.0, 1.0], [1.0, 0.0]]


def test_jets_of_two_passes_do_not_mix():
    inner = []
    dual.jet(lambda a: inner.append(a[0]) or a[0], [1.0])
    with pytest.raises(ValueError, match="different passes"):
        dual.jet(lambda a: a[0] * inner[0], [2.0])


# --------------------------------------------------------------------------
# reverse passes: one recorded evaluation and one backward sweep
# --------------------------------------------------------------------------


def _flat(f):
    n = f.arity
    return lambda a: f.fn(a[:n], a[n:])


def _algebra_functions(n, z):
    funcs = [
        *realize_generators(n, z).as_tuple(),
        algebra.casimir_one(z, n),
        algebra.hamiltonian_integrable(n, z),
        algebra.hamiltonian_superintegrable(n, z),
        algebra.hamiltonian_family(n, z, dual.exp, "exp"),
        algebra.hamiltonian_family(n, z, lambda x: 1.0 + x, "1+x"),
    ]
    funcs += [algebra.casimir_m(m, n, z) for m in range(2, n + 1)]
    if n >= 2:
        funcs.append(algebra.integral_extra_2(z, n))
    if n >= 3:
        funcs.append(algebra.integral_extra_3(z, n))
    return funcs


def _complex_octant(x):
    """A complex point of the kappa2 < 0 kind: q1, q2 and p1, p2 imaginary."""
    q, p = x.scalars()
    return (
        [1j * v if i < 2 else complex(v) for i, v in enumerate(q)],
        [-1j * v if i < 2 else complex(v) for i, v in enumerate(p)],
    )


def _term_sizes(f, args):
    """For each input, the sum over all paths from the output of |product of
    local partials|: the size of the terms its derivative sums, so the
    level its roundoff lives at (at least |df/dx_i|).  Entries that cancel
    (the Casimirs; sinh(x)/x just above its series cutoff) are far smaller."""
    n = len(args)
    tape, y = dual._record(f, args)
    size = [0.0] * len(tape)
    if type(y) is dual.Rev:
        size[y.k] = 1.0
        for k in range(y.k, n - 1, -1):
            e = tape[k]
            size[e[0]] += size[k] * abs(e[1])
            if len(e) == 4:
                size[e[2]] += size[k] * abs(e[3])
    return size[:n]


def _assert_matches_partial(f, q, p):
    args = [*q, *p]
    got = dual.gradient(_flat(f), args)
    assert len(got) == len(args)
    for i, (g, size) in enumerate(zip(got, _term_sizes(_flat(f), args))):
        want = partial(_flat(f), args, i)
        assert abs(g - want) <= 2e-15 * max(1.0, size), (f.label, i, g, want, size)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("z", [0.3, -0.7])
def test_reverse_gradient_matches_partial_algebra(n, z):
    for x in sample_points(n, 2, seed=40 + n, scale=1.0):
        for f in _algebra_functions(n, z):
            _assert_matches_partial(f, *x.scalars())
            _assert_matches_partial(f, *_complex_octant(x))


def test_reverse_gradient_matches_partial_at_n32():
    h = algebra.hamiltonian_integrable(32, 0.3)
    for x in sample_points(32, 2, seed=32, scale=1.0):
        _assert_matches_partial(h, *x.scalars())


@pytest.mark.parametrize("kappa2", [1.0, -1.0])
@pytest.mark.parametrize("z", [0.4, -0.3])
def test_reverse_gradient_matches_partial_charts(z, kappa2):
    polar = [charts.integrable_polar_system(z, kappa2),
             charts.superintegrable_polar_system(z, kappa2)]
    x = PhasePoint([0.7, 0.6, 0.5], [0.2, -0.3, 0.4])
    for system in polar:
        for f in (system.hamiltonian, *system.constants.values()):
            _assert_matches_partial(f, *x.scalars())
    # the chart variables on the Cartesian side, a dual pass inside each
    # momentum function's reverse pass; complex octant for kappa2 < 0
    cart = charts.transform_to_cartesian(charts.PolarPoint(0.6, 0.5, 0.7, 0.3, -0.8, 0.5),
                                         z, kappa2)
    q, p = cart.scalars()
    assert (kappa2 < 0) == isinstance(q[0], complex)
    for f in charts.polar_chart_functions(z, kappa2):
        _assert_matches_partial(f, q, p)


@pytest.mark.parametrize("kappa2", [1.0, -1.0])
def test_reverse_gradient_matches_fd_on_polar_systems(kappa2):
    x = PhasePoint([0.7, 0.6, 0.5], [0.2, -0.3, 0.4])
    for system in (charts.integrable_polar_system(0.4, kappa2),
                   charts.superintegrable_polar_system(0.4, kappa2)):
        for f in (system.hamiltonian, *system.constants.values()):
            got = gradient(f, x).flat()
            assert list(got) == pytest.approx(list(gradient_fd(f, x).flat()),
                                              rel=1e-7, abs=1e-9), f.label


@pytest.mark.parametrize("fn, d1, d2, x0", _JET_RULES, ids=[r[0].__name__ for r in _JET_RULES])
@pytest.mark.parametrize("shift", [0.0, 0.2j], ids=["real", "complex"])
def test_reverse_elementary_functions_against_closed_forms(fn, d1, d2, x0, shift):
    x = x0 + shift
    (got,) = dual.gradient(lambda a: fn(a[0]), [x])
    assert abs(got - d1(x)) <= 1e-14 * max(1.0, abs(d1(x)))
    if shift == 0.0:
        assert type(got) is float
    # through a linear map of two inputs: f' u
    u = [0.3, -1.7]
    grad = dual.gradient(lambda a: fn(u[0] * a[0] + u[1] * a[1] + x), [0.0, 0.0])
    for i in range(2):
        assert abs(grad[i] - d1(x) * u[i]) <= 1e-14 * max(1.0, abs(d1(x)))


def test_reverse_arithmetic_against_closed_forms():
    def f(a):
        x, y = a
        return (x**3 - 2.0 / y + y**-2 - x) / (1.0 - x * y) + (3.0 - x) * x ** 0.5 - (-y)

    x, y = 0.6, 1.4
    num = x**3 - 2.0 / y + y**-2 - x
    den = 1.0 - x * y
    want = [
        (3 * x**2 - 1.0) / den + num * y / den**2 - x**0.5 + (3.0 - x) * 0.5 * x**-0.5,
        (2.0 / y**2 - 2 * y**-3) / den + num * x / den**2 + 1.0,
    ]
    assert dual.gradient(f, [x, y]) == pytest.approx(want, rel=1e-14)
    # x + c shares the node of x; a constant or an input as output
    assert dual.gradient(lambda a: a[1] + 2.0, [x, y]) == [0.0, 1.0]
    assert dual.gradient(lambda a: 2.5, [x, y]) == [0.0, 0.0]


def test_reverse_list_valued():
    def f(a):
        x, y = a
        xy = x * y
        return [xy, dual.exp(xy) + y, 2.0, x + 1.0]

    x, y = 0.5, -0.2
    with pytest.raises(TypeError, match="one scalar output"):
        dual.gradient(f, [x, y])
    cols = _reverse_columns(f, [x, y])
    e = math.exp(x * y)
    assert cols[0] == pytest.approx([y, y * e, 0.0, 1.0], rel=1e-15)
    assert cols[1] == pytest.approx([x, x * e + 1.0, 0.0, 0.0], rel=1e-15)
    assert cols == [partial(f, [x, y], i) for i in range(2)]


def test_dual_pass_inside_reverse_pass():
    # a Dual wraps the reverse nodes: d/dt [sin(t a0) a1] at t = 0.3
    t = 0.3

    def f(a):
        return derivative(lambda s: dual.sin(s * a[0]) * a[1], t)

    a0, a1 = 0.8, -1.3
    got = dual.gradient(f, [a0, a1])
    assert got == pytest.approx([
        math.cos(t * a0) * a1 - t * a0 * math.sin(t * a0) * a1,
        a0 * math.cos(t * a0),
    ], rel=1e-15)
    for i in range(2):
        want = partial(f, [a0, a1], i)
        assert abs(got[i] - want) <= 1e-15 * max(1.0, abs(want))


def test_nested_reverse_passes_raise():
    with pytest.raises(ValueError, match="outermost"):
        dual.gradient(lambda a: dual.gradient(lambda b: b[0] * b[0], [a[0]])[0], [2.0])
    with pytest.raises(ValueError, match="do not mix"):
        dual.gradient(lambda a: dual.gradient(lambda b: a[0] * b[0], [1.0])[0], [2.0])
    inner = []
    dual.gradient(lambda a: inner.append(a[0]) or a[0], [1.0])
    with pytest.raises(ValueError, match="do not mix"):
        dual.gradient(lambda a: a[0] * inner[0], [2.0])
    with pytest.raises(ValueError, match="outermost"):
        dual.gradient(lambda a: a[0], [Dual(dual.fresh_tag(), 1.0, 1.0)])


def test_one_gradient_draws_one_tag():
    # one reverse pass per gradient; a function's later float gradients run
    # compiled code, which evaluates no number type and draws no tag
    x = PhasePoint([0.3, -0.2, 0.5, 0.1], [0.7, 0.1, -0.4, 0.2])
    for take in (lambda h: dual.gradient(_flat(h), [*x.q, *x.p]),
                 lambda h: gradient_lists(h, list(x.q), list(x.p)),
                 lambda h: gradient(h, x)):
        h = hamiltonian_superintegrable(4, 0.3)
        tags = dual.fresh_tag()
        take(h)
        assert dual.fresh_tag() - tags == 2
    for _ in range(2):
        tags = dual.fresh_tag()
        gradient(h, x)
        assert dual.fresh_tag() - tags == 1


def test_only_dual_reads_the_number_types():
    # every other module differentiates through the helpers and the generic
    # functions of dual: none names a number type or calls its chain rule
    names = {"Dual", "Jet", "Rev", "_chain"}
    pkg = pathlib.Path(dual.__file__).parent
    for path in sorted(pkg.glob("*.py")):
        if path.name == "dual.py":
            continue
        used = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        assert not names & used, (path.name, sorted(names & used))


_KERNELS = {
    # entry, and its 40-digit reference as a function of mpmath numbers
    "sinhc": (algebra.sinhc, lambda m, x: m.sinh(x) / x),
    "sin_kernel": (charts._sin_kernel, lambda m, u: m.sin(m.sqrt(u)) / m.sqrt(u)),
    "cos_kernel": (charts._cos_kernel, lambda m, u: m.cos(m.sqrt(u))),
}


@pytest.mark.parametrize("name", sorted(_KERNELS))
def test_kernel_entries_match_high_precision(name):
    # f, f' and f'' from one jet pass, against 40 digits, for real and
    # complex arguments with |u| from 1e-8 to 2, across the old 1e-4 cutoff
    # (where f'' of the closed forms lost up to ~1e9 eps)
    mpmath = pytest.importorskip("mpmath")
    entry, ref = _KERNELS[name]
    eps = 2.0**-52
    for size in (1e-8, 3e-6, 9e-5, 1e-4, 1.2e-4, 1e-3, 2e-2, 0.1, 0.6, 2.0):
        for turn in (0.0, 0.5, 0.13, 0.31, 0.77):
            u = size * cmath.exp(2j * math.pi * turn)
            u = u.real if turn in (0.0, 0.5) else u
            (value, grad, hess), = dual.jet(lambda x: [entry(x[0])], [u])
            with mpmath.workdps(40):
                want = [mpmath.diff(lambda x: ref(mpmath, x), mpmath.mpmathify(u), k)
                        for k in range(3)]
            for k, got in enumerate((value, grad[0], hess[0][0])):
                err = abs(mpmath.mpmathify(got) - want[k]) / abs(want[k])
                assert err <= 4 * eps, (name, u, k, float(err) / eps)


def test_kernel_derivatives_on_both_sides_of_their_series_range():
    # the order-k kernel sums its series below |u| = 4k + 1 and takes the
    # upward recurrence above it; order k is the f' of order k - 1
    mpmath = pytest.importorskip("mpmath")
    eps = 2.0**-52
    for k in range(1, 5):
        for size in (0.05, 3.0, 4 * k + 0.9, 4 * k + 1.1, 30.0):
            for u in (size, -size, size * cmath.exp(0.4j), size * cmath.exp(-2.0j)):
                with mpmath.workdps(40):
                    want = mpmath.diff(
                        lambda x: mpmath.sin(mpmath.sqrt(x)) / mpmath.sqrt(x),
                        mpmath.mpmathify(u), k,
                    )
                err = abs(mpmath.mpmathify(kernels.sin_kernel(k)(u)) - want) / abs(want)
                assert err <= 32 * eps, (k, u, float(err) / eps)
        assert derivative(kernels.sin_kernel(k - 1), 0.7) == kernels.sin_kernel(k)(0.7)
