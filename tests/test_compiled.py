"""Compiled passes: one recorded reverse pass run as straight-line code.

The per-call passes are the oracles: a compiled gradient must equal the
reverse pass (``dual.gradient``) and a compiled (value, gradient, Hessian)
triple the Taylor sweep over the record (``dual.taylor2``) bit for bit,
follow each call's own record wherever the operation sequence may depend
on the input, and raise what the record or the pass raises.
"""

import gc
import operator
import random
import weakref

import pytest

import numpy as np

from zgeoflow import algebra, charts, cli, dual, geometry, kernels
from zgeoflow.algebra import (
    hamiltonian_family,
    hamiltonian_integrable,
    hamiltonian_superintegrable,
)
from zgeoflow.brackets import gradient, gradient_lists
from zgeoflow.phase import EvaluationDomainError, PhaseFunction, PhasePoint


def _systems(z):
    """The six geodesic systems of ``simulate``, with a state sampler each."""
    cart = lambda rng: [rng.uniform(-0.6, 0.6) for _ in range(3)]  # noqa: E731
    polar = lambda rng: [rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.3), rng.uniform(0.1, 1.3)]  # noqa: E731
    yield hamiltonian_integrable(3, z), cart
    yield hamiltonian_superintegrable(3, z), cart
    for key in ("exp", "one-plus"):
        fn, label = cli.FAMILY_REGISTRY[key]
        yield hamiltonian_family(3, z, fn, label), cart
    yield charts.integrable_polar_system(z, 1.0).hamiltonian, polar
    yield charts.superintegrable_polar_system(z, 1.0).hamiltonian, polar


def _reverse(h, q, p):
    n = len(q)
    return dual.gradient(lambda qp: h.fn(qp[:n], qp[n:]), [*q, *p])


def _bits(values):
    return [float.hex(v) for v in values]


def _fresh_rule(monkeypatch):
    """Empty the compile rule's tables: no skeleton is cached or sighted."""
    monkeypatch.setattr(dual, "_SKELETONS", {})
    monkeypatch.setattr(dual, "_SIGHTED", {})


@pytest.mark.parametrize("z", [0.47, -0.38])
def test_compiled_gradients_equal_the_reverse_pass_bit_for_bit(z):
    rng = random.Random(f"compiled:{z}")
    for h, position in _systems(z):
        states = [(position(rng), [rng.uniform(-0.3, 0.3) for _ in range(3)]) for _ in range(52)]
        for q, p in states[:2]:  # the recorded pass, then the compilation
            gradient_lists(h, q, p)
        assert h._gradient.code is not None, h.label
        for q, p in states[2:]:
            dq, dp = gradient_lists(h, q, p)
            assert _bits([*dq, *dp]) == _bits(_reverse(h, q, p)), (h.label, q, p)


def test_compiled_gradients_keep_the_reverse_pass_sign_of_zero():
    # the reverse pass adds each contribution to 0.0, so a lone -0.0 comes
    # out as 0.0; the compiled code starts from the contribution itself
    h = PhaseFunction(1, lambda q, p: q[0] * p[0] - 2.0 * p[0], "qp")
    for q in (0.5, 0.7):
        gradient_lists(h, [q], [0.3])
    assert h._gradient.code is not None
    for q, p in ((-1.5, -0.0), (0.0, -0.0), (2.0, 0.0), (-0.0, -0.0)):
        dq, dp = gradient_lists(h, [q], [p])
        assert _bits([*dq, *dp]) == _bits(_reverse(h, [q], [p])), (q, p)


def test_every_operator_compiles_as_the_reverse_pass_computes():
    # every way a reverse pass records an operation: node with node, a
    # constant on either side (x / c is recorded as x * (1 / c)), x + c and
    # x - c chains sharing the sweep index of x, unary minus, the integer
    # powers (x ** 0 is a float, x ** 1 is x itself, x ** -p is
    # 1.0 / x ** p), a non-integer power and table entries
    def f(q):
        x, y, w, u = q
        a = (x + y) * (x - u) + x / y - u * w
        b = (u + 2.0) * (2.0 + x) - (u - 0.5) * (2.0 - y) + u * 3.0 + 3.0 * w + u / 3.0 + 1.5 / w
        c = (u + 1.0 - 2.0 + 0.5) * y - x**0 * u + u**1 * y**-2 + u**3 + w**2.5
        e = dual.exp(u * x) + dual.log(y) + dual.sqrt(w) + kernels.sinhc(u)
        return a * b - c / (1.0 + w * y) + -c * (e + dual.atan(u - w) * dual.sin(x))

    tape, _ = dual._record(f, [0.7, 1.3, 0.9, 0.4])
    assert set(dual._FORMS) <= {op[0] for op in tape.ops[4:]}
    assert 1.0 / 3.0 in tape.consts  # u / 3.0 is recorded as u * (1 / 3.0)
    assert len(tape) < len(tape.ops)  # x + c and x - c record no sweep entry
    state = dual.CompiledGradient(1)
    rng = random.Random(17)
    points = [[rng.uniform(-1.5, 1.5), rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5),
               rng.uniform(-1.5, 1.5)] for _ in range(40)]
    points += [[0.0, 0.7, 0.9, 0.0], [-0.0, 0.7, 0.9, -0.0], [0.0, 1.1, 0.4, -0.0],
               [-0.0, 0.5, 1.2, 0.0], [0.6, 0.5, 1.2, -0.0], [-0.0, 0.5, 1.2, 0.8]]
    for q in points[:2]:
        state(f, q)
    assert state.code is not None
    for q in points:
        got = state(f, q)
        assert _bits(got) == _bits(dual.gradient(f, q)), q
        want = [dual.partial(f, q, i) for i in range(4)]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13), q


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_nodes_of_two_reverse_passes_do_not_mix_in_any_operator(op):
    # a node of another pass on either side of each binary operator
    inner = []
    dual.gradient(lambda a: inner.append(a[0]) or a[0], [1.5])
    with pytest.raises(ValueError, match="do not mix"):
        dual.gradient(lambda a: op(a[0], inner[0]), [2.0])
    with pytest.raises(ValueError, match="do not mix"):
        dual.gradient(lambda a: op(inner[0], a[0]), [2.0])


def test_compiled_calls_draw_no_tag_and_complex_points_stay_on_the_reverse_pass():
    h = hamiltonian_superintegrable(3, 0.3)
    x = PhasePoint([0.3, -0.2, 0.5], [0.7, 0.1, -0.4])
    gradient(h, x)
    gradient(h, x)
    tags = dual.fresh_tag()
    want = gradient(h, x)
    assert dual.fresh_tag() - tags == 1
    z = PhasePoint([0.3j, -0.2j, 0.5], [-0.7j, 0.1j, -0.4])
    tags = dual.fresh_tag()
    got = gradient(h, z)
    assert dual.fresh_tag() - tags == 2
    flat = dual.gradient(lambda qp: h.fn(qp[:3], qp[3:]), [*z.scalars()[0], *z.scalars()[1]])
    assert [*got.dq, *got.dp] == flat
    assert _bits([*gradient(h, x).flat()]) == _bits([*want.flat()])


def test_a_function_that_reads_a_value_does_not_compile(monkeypatch):
    # the branch is chosen by the value of q1: each side has another
    # operation sequence, so the function keeps no code and records every
    # call; each record runs the code of its own branch's skeleton once
    # that has compiled, and never the other branch's
    _fresh_rule(monkeypatch)

    def fn(q, p):
        if dual.primal(q[0]) > 0.0:
            return q[0] * q[0] * p[0]
        return dual.sin(q[0]) * p[0] * p[0]

    h = PhaseFunction(1, fn, "branchy")
    points = [0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 1.5, -1.5]
    for k, q in enumerate(points):
        tags = dual.fresh_tag()
        dq, dp = gradient_lists(h, [q], [1.5])
        assert dual.fresh_tag() - tags == 2  # one record per call
        if q > 0:
            want = [2.0 * q * 1.5, q * q]
        else:
            want = [dual.cos(q) * 1.5 * 1.5, 2.0 * dual.sin(q) * 1.5]
        assert [*dq, *dp] == pytest.approx(want, rel=1e-15, abs=0.0)
        assert _bits([*dq, *dp]) == _bits(_reverse(h, [q], [1.5]))
        # each branch compiles on its second sighting
        assert len(dual._SKELETONS) == (0 if k < 2 else 1 if k < 3 else 2)
    assert h._gradient.code is None


def test_one_compilation_per_shape_and_no_state_outlives_its_function():
    gradient_lists(hamiltonian_integrable(3, 0.1), [0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
    before = set(dual._SKELETONS)
    rng = random.Random(5)
    refs, codes = [], set()
    for i in range(1000):
        h = hamiltonian_integrable(3, (-1) ** i * (0.05 + i * 1e-3))
        for _ in range(3):
            q = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            gradient_lists(h, q, [0.1, -0.2, 0.3])
        codes.add(h._gradient.code)
        refs.append(weakref.ref(h))
    del h
    gc.collect()
    assert len(codes) == 1 and None not in codes
    assert len(set(dual._SKELETONS) - before) <= 1
    assert len(dual._SKELETONS) <= dual.MAX_SKELETONS
    assert sum(r() is not None for r in refs) == 0


def test_the_skeleton_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(dual, "_SKELETONS", {})
    monkeypatch.setattr(dual, "MAX_SKELETONS", 3)
    for n in range(1, 7):
        h = hamiltonian_integrable(n, 0.2)
        for q in ([0.1] * n, [0.2] * n):
            gradient_lists(h, q, [0.3] * n)
        assert h._gradient.code is not None
        assert len(dual._SKELETONS) == min(n, 3)


def test_code_that_fails_its_check_is_not_cached(monkeypatch):
    # code that disagrees with its record's pass is not cached, and the
    # call answers from the pass: a later function of the same shape is
    # checked again, and never runs it unchecked
    _fresh_rule(monkeypatch)
    emit = dual._emit

    def off_by_one(*args):
        lines, ret = emit(*args)
        return lines, ret.replace("[", "[1.0 + ", 1)

    monkeypatch.setattr(dual, "_emit", off_by_one)
    for factor in (3.0, 5.0):
        f = lambda a: a[0] * a[1] * factor  # noqa: E731
        state = dual.CompiledGradient(1)
        for x in ([1.0, 2.0], [2.0, 3.0]):
            assert state(f, x) == dual.gradient(f, x)
        assert state.code is None
    assert dual.gradient(f, [2.0, 3.0]) == [15.0, 10.0]
    assert not dual._SKELETONS


def test_code_that_flips_the_sign_of_a_zero_is_not_cached(monkeypatch):
    # 0.0 == -0.0, but code is admitted only if it is its pass bit for bit
    _fresh_rule(monkeypatch)
    emit = dual._emit

    def flip_zeros(*args):
        lines, ret = emit(*args)
        return lines, f"[-g if g == 0.0 else g for g in {ret}]"

    monkeypatch.setattr(dual, "_emit", flip_zeros)
    f = lambda q: q[0] * q[0] + 3.0  # noqa: E731
    state = dual.CompiledGradient(1)
    for x in ([0.9, 0.5], [0.7, 0.2]):
        assert _bits(state(f, x)) == _bits(dual.gradient(f, x)) == _bits([2.0 * x[0], 0.0])
    assert state.code is None
    assert not dual._SKELETONS


def test_a_complex_constant_does_not_run_the_code_of_a_float_one():
    # the gradient key holds each lifted constant's type: float code calls
    # the float table entries, which take no complex value
    real = dual.CompiledGradient(1)
    for x in ([0.3], [0.4]):
        real(lambda q: dual.exp(q[0] * 0.5), x)
    assert real.code is not None
    f = lambda q: dual.exp(q[0] * 0.5j)  # noqa: E731
    state = dual.CompiledGradient(1)
    for x in ([0.3], [0.3], [0.4]):
        assert state(f, x) == dual.gradient(f, x)
    assert state(f, [0.3])[0] == pytest.approx(-0.0747 + 0.4944j, abs=1e-4)
    assert state.code is None


def test_compiled_results_agree_only_bit_for_bit():
    nan = float("nan")
    assert dual._agrees([1.8, 0.0], [1.8, 0.0])
    assert dual._agrees((1.0, [0.5], [[-0.0]]), (1.0, [0.5], [[-0.0]]))
    assert dual._agrees([(1.0, [0.5], [[2.0]])], [(1.0, [0.5], [[2.0]])])
    assert not dual._agrees([1.8, -0.0], [1.8, 0.0])
    assert not dual._agrees((1.0, [0.5], [[-0.0]]), (1.0, [0.5], [[0.0]]))
    assert not dual._agrees([nan], [nan])
    assert not dual._agrees([1], [1.0])
    assert not dual._agrees([1.0, 2.0], [1.0])


def test_compiled_code_raises_what_the_reverse_pass_raises():
    # a guard inside compiled code: theta = 0 is the polar chart boundary
    h = charts.integrable_polar_system(0.3, 1.0).hamiltonian
    for q in ([0.8, 0.4, 0.5], [0.7, 0.6, 0.5]):
        gradient_lists(h, q, [0.1, 0.2, 0.3])
    assert h._gradient.code is not None
    edge = [0.8, 0.0, 0.5]
    with pytest.raises(EvaluationDomainError) as want:
        _reverse(h, edge, [0.1, 0.0, 0.2])
    with pytest.raises(EvaluationDomainError) as got:
        gradient_lists(h, edge, [0.1, 0.0, 0.2])
    assert str(got.value) == str(want.value) == "chart-boundary singularity: sin(l2 theta)/l2 = 0"
    # overflow and division by zero, as the reverse pass meets them
    h = PhaseFunction(1, lambda q, p: dual.exp(q[0]) * p[0] + 1.0 / (q[0] - 1.0), "f")
    for q in (0.5, 0.25):
        gradient_lists(h, [q], [1.0])
    for q, err in ((800.0, OverflowError), (1.0, ZeroDivisionError)):
        with pytest.raises(err):
            _reverse(h, [q], [1.0])
        with pytest.raises(err):
            gradient_lists(h, [q], [1.0])


_POLAR = ["simulate", "--chart=polar", "--n=3", "--z=0.3", "--t-end=0.1", "--dt=0.001"]


def test_simulate_at_the_chart_boundary_is_unchanged(tmp_path, capsys, monkeypatch):
    # starting on the boundary: the message and the table of the reverse-pass
    # program, frozen
    monkeypatch.chdir(tmp_path)
    argv = [*_POLAR, "--hamiltonian=integrable", "--q=0.8,0.0,0.5", "--p=0.1,0.0,0.2",
            "--output=edge.csv"]
    assert cli.main(argv) == 2
    message = "chart-boundary singularity: sin(l2 theta)/l2 = 0 at t = 0.001"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert (tmp_path / "edge.csv").read_text() == (
        '# config: {"chart": "polar", "command": "simulate", "dt": 0.001, '
        '"hamiltonian": "integrable", "kappa2": 1.0, "keep_every": 1, "metadata": null, '
        '"method": "implicit-midpoint", "n": 3, "output": "edge.csv", "p": [0.1, 0.0, 0.2], '
        '"q": [0.8, 0.0, 0.5], "t_end": 0.1, "z": 0.3}\n'
        "t,q1,q2,q3,p1,p2,p3,H,C(2),C(3)\n"
        "0,0.80000000000000004,0,0.5,0.10000000000000001,0,0.20000000000000001,"
        "nan,0.040000000000000008,nan\n"
        f"# truncated: {message}\n"
    )


@pytest.mark.parametrize("hamiltonian", ["integrable", "superintegrable"])
def test_simulate_running_into_the_boundary_matches_the_reverse_pass(
    tmp_path, capsys, monkeypatch, hamiltonian
):
    # theta falls towards 0 until the fixed point fails: the compiled run
    # writes what the per-call reverse pass writes, byte for byte
    argv = [*_POLAR, f"--hamiltonian={hamiltonian}", "--q=0.8,0.02,0.5", "--p=0.1,-2.0,0.001",
            "--output=o.csv"]
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    compiled = (tmp_path / "o.csv").read_text(), capsys.readouterr().err
    monkeypatch.setattr(dual.CompiledGradient, "__call__", lambda self, f, args: dual.gradient(f, args))
    assert cli.main(argv) == 2
    assert ((tmp_path / "o.csv").read_text(), capsys.readouterr().err) == compiled
    assert compiled[1] == "error: implicit midpoint fixed point did not converge at t = 0.007\n"
    assert "# truncated" in compiled[0]


# ---------------------------------------------------------------------------
# order 2: compiled (value, gradient, Hessian) triples of metric components
# ---------------------------------------------------------------------------


def _metrics(z):
    """The metrics of ``curvature``, built as it builds them (no kinetic
    check), each with a point sampler and whether it is Cartesian: four
    Cartesian ones, and the two polar ones at kappa2 = 1 and -1."""
    for n in (2, 3):
        cart = lambda rng, n=n: [rng.uniform(-1.0, 1.0) for _ in range(n)]  # noqa: E731
        for family in (hamiltonian_integrable, hamiltonian_superintegrable):
            yield geometry.line_element_from_hamiltonian(family(n, z), n, []), cart, True
    polar = lambda rng: [rng.uniform(0.3, 1.1) for _ in range(3)]  # noqa: E731
    for kappa2 in (1.0, -1.0):
        for system in (charts.integrable_polar_system, charts.superintegrable_polar_system):
            h = system(z, kappa2).hamiltonian
            yield geometry.metric_from_hamiltonian(h, 3, []), polar, False


def _triple_bits(triple):
    value, grad, hess = triple
    return _bits([value, *grad, *(v for row in hess for v in row)])


def _compiled_state(g, points):
    """The state of all components of ``g`` after two records at
    ``points``: the latest sees the skeleton's code compiled or cached."""
    state = g._state
    for q in points:
        state(g._all, q)
    assert state.code is not None, g.label
    return state


@pytest.mark.parametrize("z", [0.47, -0.38])
def test_compiled_jets_equal_the_jet_pass_bit_for_bit(z):
    rng = random.Random(f"compiled-jets:{z}")
    for g, sample, cartesian in _metrics(z):
        n = g.dim
        # a kernel's argument is z q_i^2 (Cartesian), or -z rho^2, z r^2 and
        # kappa2 theta^2 with kappa2 = 1 (polar)
        scale = abs(z) if cartesian else max(abs(z), 1.0)
        tiny = 0.5 * (kernels.SERIES_CUTOFF / scale) ** 0.5
        points = [sample(rng) for _ in range(24)]
        if cartesian:  # the grid's q = 0, signed zeros, and sinhc's series
            points += [[0.0] * n, [-0.0] * n, [0.0, *[-0.0] * (n - 1)], [tiny] * n,
                       [-tiny, *[0.5] * (n - 1)], [0.0, *[-tiny] * (n - 1)]]
        else:  # polar: the kernels' series at small rho, theta and r, and phi = 0
            points += [[tiny, 0.7, 0.4], [0.6, tiny, 0.4], [tiny, tiny, 0.9],
                       [0.6, 0.7, 0.0], [0.6, tiny, -0.0]]
        assert all(scale * min(abs(v) for v in q) ** 2 < kernels.SERIES_CUTOFF
                   for q in points[24:])
        # all components from one compiled call, each bit for bit the Taylor
        # pass of its own component
        state = _compiled_state(g, points[:2])
        for q in points:
            got = state(g._all, q)
            assert len(got) == n
            for i, comp in enumerate(g.components):
                want = dual.taylor2(comp, q)
                assert len(_triple_bits(got[i])) == 1 + n + n * n
                assert _triple_bits(got[i]) == _triple_bits(want), (g.label, i, q)


def test_constant_classes_compare_bits():
    # value numbering merges operations on constants of one class: -0.0 and
    # 0.0, or 1 and 1.0, are not one, and a nan is in none, not even its own
    nan = float("nan")
    consts = [0.0, -0.0, 0.0, nan, nan, 1, 1.0, 1.0, -0.0]
    assert dual._classes(consts) == (0, 1, 0, 3, 4, 5, 6, 6, 1)


def test_every_operator_compiles_as_the_jet_pass_computes():
    # each operator code and a few table entries, integer powers included
    # (x ** 1 is x itself to a record, x ** -p is 1.0 / x ** p)
    def f(q):
        x, y, w = q
        a = (x + y) * (x - 0.5) + (2.0 - y) * -w + x / y + y / 3.0 + 1.5 / w
        b = x**2 * y**3 + w**1 * x**-1 + y**-2 + (x - y) ** 4
        c = dual.exp(x * w) + dual.log(y) + dual.sqrt(w) + kernels.sinhc(x * y)
        return a * b - c / (1.0 + x * y * w) + dual.atan(y - w) * dual.sin(x)

    state = dual.CompiledGradient(2)
    rng = random.Random(7)
    points = [[rng.uniform(0.2, 1.5) * rng.choice((1, -1)), rng.uniform(0.2, 1.5),
               rng.uniform(0.2, 1.5)] for _ in range(40)]
    for q in points[:2]:
        state(f, q)
    assert state.code is not None
    for q in points:
        assert _triple_bits(state(f, q)) == _triple_bits(dual.taylor2(f, q)), q


def test_compiled_jets_keep_the_jet_pass_sign_of_zero():
    # products with the seeds' 0.0 parts carry signs: -0.0 parts survive;
    # and x ** 1 is x itself to a record, also at x = 0
    def f(q):
        return -2.0 * q[0] * q[1] - q[1] * 3.0 + q[0] ** 1 * q[1] ** 2

    state = dual.CompiledGradient(2)
    for q in ([0.5, 0.7], [0.3, -0.2]):
        state(f, q)
    assert state.code is not None
    for q in ([0.0, 0.0], [-0.0, 0.0], [-1.5, -0.0], [0.0, -0.0], [2.0, 1.0]):
        assert _triple_bits(state(f, q)) == _triple_bits(dual.taylor2(f, q)), q


def test_one_skeleton_per_metric_shape_and_no_state_outlives_its_metric(monkeypatch):
    _fresh_rule(monkeypatch)
    g = geometry.line_element_from_hamiltonian(hamiltonian_integrable(3, 0.1), 3, [])
    _compiled_state(g, ([0.1, 0.2, 0.3], [0.3, 0.2, 0.1]))
    assert len(dual._SKELETONS) == 1
    rng = random.Random(11)
    refs, codes = [], set()
    for i in range(1000):
        z = (-1) ** i * (0.05 + i * 1e-3)
        g = geometry.line_element_from_hamiltonian(hamiltonian_integrable(3, z), 3, [])
        for _ in range(2):
            geometry.curvature_summary(g, [rng.uniform(-0.9, 0.9) for _ in range(3)])
        codes.add(g._state.code)
        refs.append(weakref.ref(g))
    del g
    gc.collect()
    # one code for all three components (g_ii evaluates h at the unit
    # momentum e_i, whose entries are lifted constants), whatever z, apart
    # from the two z of the sequence that equal another constant of the
    # record bit for bit, 0.5 and 1.0: value numbering may merge operations
    # on equal constants, so each compiles a code of its own
    coinciding = {z for i in range(1000) if (z := (-1) ** i * (0.05 + i * 1e-3)) in (0.5, 1.0)}
    assert coinciding == {0.5, 1.0}
    assert len(codes) == 3 and None not in codes
    assert len(dual._SKELETONS) == 1 + 2
    assert sum(r() is not None for r in refs) == 0


def test_a_component_that_reads_a_value_stays_on_the_jet_pass(monkeypatch):
    # each branch's records compile to a code of their own skeleton, which
    # only that branch's records run
    _fresh_rule(monkeypatch)

    def comp(q):
        if dual.primal(q[0]) > 0.0:
            return q[0] * q[0] * q[1]
        return dual.sin(q[0]) * q[1] * q[1]

    g = geometry.DiagonalMetric(2, (comp, lambda q: 1.0 + q[1] * q[1]))
    for x in (0.5, -0.5, 0.25, -0.25, 0.75, -0.75):
        y = 1.5
        (value, grad, hess), other = g._state(g._all, [x, y])
        if x > 0:
            want = (x * x * y, [2.0 * x * y, x * x], [[2.0 * y, 2.0 * x], [2.0 * x, 0.0]])
        else:
            s, c = dual.sin(x), dual.cos(x)
            want = (s * y * y, [c * y * y, 2.0 * s * y], [[-s * y * y, 2.0 * c * y],
                                                          [2.0 * c * y, 2.0 * s]])
        assert value == pytest.approx(want[0], rel=1e-15, abs=0.0)
        assert grad == pytest.approx(want[1], rel=1e-15, abs=0.0)
        assert np.array(hess) == pytest.approx(np.array(want[2]), rel=1e-15, abs=0.0)
        assert _triple_bits((value, grad, hess)) == _triple_bits(dual.taylor2(comp, [x, y]))
        assert _triple_bits(other) == _triple_bits(dual.taylor2(g.components[1], [x, y]))
        geometry.christoffel(g, [x, y])
    # one state serves all components, so the other one's triples come from
    # each call's record too
    assert g._state.code is None
    assert len(dual._SKELETONS) == 2


def test_non_float_arguments_take_the_jet_pass():
    g = geometry.line_element_from_hamiltonian(hamiltonian_superintegrable(3, 0.3), 3, [])
    state = _compiled_state(g, ([0.2, 0.3, 0.4], [0.4, 0.3, 0.2]))
    for q in ([np.float64(0.3), 0.1, -0.2], [1, 0, 2], [0.5, np.float32(0.25), 0.125]):
        tags = dual.fresh_tag()
        got = state(g._all, q)
        assert dual.fresh_tag() - tags == 2  # one per-call pass
        for triple, comp in zip(got, g.components):
            assert _triple_bits(triple) == _triple_bits(dual.taylor2(comp, q))
    tags = dual.fresh_tag()
    state(g._all, [0.3, 0.1, -0.2])
    assert dual.fresh_tag() - tags == 1  # compiled: no pass


def test_compiled_jets_raise_what_the_jet_pass_raises():
    g = geometry.metric_from_hamiltonian(charts.integrable_polar_system(0.3, 1.0).hamiltonian, 3, [])
    state = _compiled_state(g, ([0.8, 0.4, 0.5], [0.7, 0.6, 0.5]))
    edge = [0.8, 0.0, 0.5]
    with pytest.raises(EvaluationDomainError) as want:
        dual.taylor2(g._all, edge)
    with pytest.raises(EvaluationDomainError) as got:
        state(g._all, edge)
    assert str(got.value) == str(want.value) == "chart-boundary singularity: sin(l2 theta)/l2 = 0"

    def f(q):
        return dual.exp(q[0]) * q[1] + 1.0 / (q[0] - 1.0) + q[1] ** -2

    state = dual.CompiledGradient(2)
    for q in ([0.5, 0.5], [0.25, 0.75]):
        state(f, q)
    assert state.code is not None
    for q, err in (([800.0, 1.0], OverflowError), ([1.0, 1.0], ZeroDivisionError),
                   ([0.5, 0.0], ZeroDivisionError)):
        with pytest.raises(err):
            dual.taylor2(f, q)
        with pytest.raises(err):
            state(f, q)


def test_a_call_raises_what_its_record_raises():
    # a reverse pass takes x / y as x * (1 / y): at 49 / 49 that is
    # 1 - 2^-53, so the log's argument is 0.0 on the record, which raises,
    # though the Taylor sweep computes x / y, 1.0, and 2^-53 there; every
    # second-order pass is one record, so each raises as the record does
    def f(q):
        return dual.log(q[0] / q[1] - 0.9999999999999999)

    state = dual.CompiledGradient(2)
    for run in (state, dual.taylor2, dual.compiled_jet):
        with pytest.raises(ValueError, match="math domain error"):
            run(f, [49.0, 49.0])
    for q in ([2.0, 1.0], [3.0, 2.0], [5.0, 4.0]):
        assert _triple_bits(state(f, q)) == _triple_bits(dual.taylor2(f, q))
    assert state.code is not None


def test_a_first_point_where_both_passes_raise_does_not_stop_compiling():
    # the record raises at x = 0, and so would the Taylor sweep: the next
    # points still record and compile
    def f(q):
        return 1.0 / q[0] + q[1] * q[1]

    state = dual.CompiledGradient(2)
    with pytest.raises(ZeroDivisionError):
        state(f, [0.0, 1.0])
    for q in ([0.5, 1.0], [-2.0, 0.25], [3.0, -1.0]):
        assert _triple_bits(state(f, q)) == _triple_bits(dual.taylor2(f, q))
    assert state.code is not None


def test_curvature_at_the_polar_boundary_is_unchanged(tmp_path, capsys, monkeypatch):
    # the grid meets theta = 0 at its fourth point, inside compiled code: the
    # exit code and the message of the jet-pass program, frozen; first in a
    # process that has compiled no metric shape yet, then in a warm one
    monkeypatch.chdir(tmp_path)
    _fresh_rule(monkeypatch)
    monkeypatch.setattr(geometry, "_SUMMARIES", {})
    tags = []
    fresh_tag = dual.fresh_tag

    def counted():
        tags.append(None)
        return fresh_tag()

    monkeypatch.setattr(dual, "fresh_tag", counted)
    for metric, passes in (("integrable", 1 + 2 + 1), ("superintegrable", 1 + 2),
                           ("integrable", 1 + 1), ("superintegrable", 1 + 1)):
        tags.clear()
        argv = ["curvature", "--chart=polar", "--n=3", "--z=0.3", f"--metric={metric}",
                "--grid-min=-0.6", "--grid-max=0.6", "--grid-points=3", "--output=c.csv"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: metric not usable on the grid: "
            "chart-boundary singularity: sin(l2 theta)/l2 = 0\n"
        )
        # one record for the kinetic check, then one record of all
        # components per point until the metric's state holds code: at the
        # first two points while the skeleton is new (its first sighting,
        # then its compilation), at the first point once it is cached; the
        # process's first curvature point also records the curvature formula
        assert len(tags) == passes
        assert not (tmp_path / "c.csv").exists()


def test_the_skeleton_bound_is_shared_by_both_orders(monkeypatch):
    _fresh_rule(monkeypatch)
    monkeypatch.setattr(dual, "MAX_SKELETONS", 3)
    orders = []
    for n in range(1, 4):
        h = hamiltonian_integrable(n, 0.2)
        for q in ([0.1] * n, [0.2] * n):
            gradient_lists(h, q, [0.3] * n)
        g = geometry.line_element_from_hamiltonian(h, n, [])
        _compiled_state(g, ([0.1] * n, [0.2] * n))
        orders += [None, 2]  # a gradient's key, then a Taylor pass's
        assert [key[0] for key in dual._SKELETONS] == orders[-3:]
        assert len(dual._SIGHTED) <= 3
    # one function at both orders: one skeleton, two entries, two passes
    _fresh_rule(monkeypatch)
    f = hamiltonian_integrable(2, 0.2).fn
    g = lambda q: f(q, [0.3, 0.4])  # noqa: E731
    states = dual.CompiledGradient(1), dual.CompiledGradient(2)
    for q in ([0.1, 0.2], [0.2, 0.1], [0.3, -0.4]):
        got = [state(g, q) for state in states]
    assert got[0] == dual.gradient(g, [0.3, -0.4])
    assert _triple_bits(got[1]) == _triple_bits(dual.taylor2(g, [0.3, -0.4]))
    assert None not in (states[0].code, states[1].code)
    assert [key[0] for key in dual._SKELETONS] == [None, 2]


# ---------------------------------------------------------------------------
# a new function of a compiled shape: its record finds the code
# ---------------------------------------------------------------------------

_Z = (-1.0, -1e-9, 0.0, 1e-9, 0.3, 2.0)


def _builders(z, kappa2):
    """Every builder's functions at (z, kappa2), as (name, order, state,
    function, point sampler): phase functions and metric components."""
    for n in (1, 2, 3, 5):
        cart = lambda rng, n=n: [rng.uniform(-0.6, 0.6) for _ in range(2 * n)]  # noqa: E731
        funcs = [*algebra.realize_generators(n, z).as_tuple(), algebra.casimir_one(z, n),
                 hamiltonian_integrable(n, z), hamiltonian_superintegrable(n, z)]
        funcs += [algebra.casimir_m(m, n, z) for m in range(2, n + 1)]
        funcs += [algebra.integral_extra_2(z, n)] if n >= 2 else []
        funcs += [algebra.integral_extra_3(z, n)] if n >= 3 else []
        funcs += [hamiltonian_family(n, z, *cli.FAMILY_REGISTRY[k]) for k in ("exp", "one-plus")]
        for h in funcs:
            yield (h.label, n), 1, h._gradient, _flat(h), cart
    polar = lambda rng: [rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.3), rng.uniform(0.1, 1.3),  # noqa: E731
                         *[rng.uniform(-0.5, 0.5) for _ in range(3)]]
    systems = (charts.integrable_polar_system(z, kappa2), charts.superintegrable_polar_system(z, kappa2))
    for system in systems:
        for h in (system.hamiltonian, *system.constants.values()):
            yield (h.label, 3), 1, h._gradient, _flat(h), polar
    metrics = [geometry.line_element_from_hamiltonian(family(n, z), n, [])
               for n in (2, 3) for family in (hamiltonian_integrable, hamiltonian_superintegrable)]
    metrics += [geometry.metric_from_hamiltonian(s.hamiltonian, 3, []) for s in systems]
    for g in metrics:
        yield (g.label, g.dim), 2, g._state, g._all, lambda rng, n=g.dim: polar(rng)[:n]


def _flat(h):
    n = h.arity
    return lambda qp: h.fn(qp[:n], qp[n:])


def test_every_builder_records_one_skeleton_whatever_z_and_kappa2():
    # z and kappa2 are lifted constants of the record, so a new z or kappa2
    # (z = 0 and |z| = 1e-9 included) records the operations its shape
    # compiled
    rng = random.Random(3)
    skeletons, classes, points = {}, {}, {}
    for z in _Z:
        for kappa2 in (1.0, -1.0):
            for name, order, state, f, sample in _builders(z, kappa2):
                args = points.setdefault(name, sample(rng))
                tape, out = dual._record(f, args)
                outs = out if order == 2 else [out]
                assert not tape.opaque and {type(y) for y in outs} == {dual.Rev}, name
                key = dual._skeleton(tape, out, len(args), order)
                skeletons.setdefault(name, set()).add(key[:4])
                if order == 2 and z in (-1e-9, 1e-9, 0.3):
                    classes.setdefault((name, kappa2), set()).add(key[4:])
    # Cartesian phase functions at n = 1, 2, 3, 5 (44), the polar ones (6),
    # four Cartesian and two polar metrics (6), all components at once
    assert len(skeletons) == 44 + 6 + 6
    for name, seen in skeletons.items():
        assert len(seen) == 1, name
    # the order-2 key also says which constants are equal, since its code is
    # value-numbered: one class pattern per metric and kappa2 at every z
    # that equals no other constant of the record; a polar metric has one
    # per sign of kappa2, since kappa2 = 1 equals its unit momentum's 1.0
    for key, seen in classes.items():
        assert len(seen) == 1, key
    for name in {name for name, kappa2 in classes}:
        assert (classes[name, 1.0] == classes[name, -1.0]) == ("polar" not in name[0]), name


def test_a_new_function_of_a_compiled_shape_runs_its_code_from_the_first_call():
    # its first call is one record, whose constants the cached code takes;
    # every call equals a per-call pass of its own function bit for bit
    # (a polar metric compiles once per sign of kappa2, see above)
    rng = random.Random(13)
    codes = {}
    for kappa2 in (1.0, -1.0):
        for name, order, state, f, sample in _builders(0.41, kappa2):
            for _ in range(2):  # two sightings of the skeleton: then it is compiled
                state(f, sample(rng))
            codes[name, kappa2] = state.code
            assert state.code is not None, name
    for _ in range(3):
        z, kappa2 = rng.uniform(-1.5, 1.5), rng.choice((1.0, -1.0))
        for name, order, state, f, sample in _builders(z, kappa2):
            for k in range(3):
                args = sample(rng)
                tags = dual.fresh_tag()
                got = state(f, args)
                assert dual.fresh_tag() - tags == (2 if k == 0 else 1), name  # one record
                assert state.code is codes[name, kappa2], name
                if order == 1:
                    assert _bits(got) == _bits(dual.gradient(f, args)), (name, z, args)
                else:
                    want = dual.taylor2(f, args)
                    assert [*map(_triple_bits, got)] == [*map(_triple_bits, want)], (name, z, args)


def test_records_that_differ_only_in_the_output_do_not_share_code():
    # the same operations, returning another node: the output slot is part
    # of the skeleton, so the second function's first call cannot find the
    # first one's code
    def inner(q):
        a = q[0] * q[1]
        b = a * a
        return a, b

    functions = (lambda q: inner(q)[1], lambda q: inner(q)[0])
    for order, run, bits in ((1, dual.gradient, _bits), (2, dual.taylor2, _triple_bits)):
        first, second = (dual.CompiledGradient(order) for _ in functions)
        for q in ([0.3, 0.7], [1.5, -0.5]):
            first(functions[0], q)
        assert first.code is not None
        for q in ([0.3, 0.7], [1.5, -0.5], [2.0, 0.25]):
            assert bits(second(functions[1], q)) == bits(run(functions[1], q))
        assert second.code is not first.code


def test_a_wrapper_of_a_builder_function_shares_its_code():
    # a tracer may rebuild J+ around its fn: the wrapper records the same
    # operations, so it runs J+'s code from its first call
    jp = algebra.realize_generators(3, 0.3).j_plus
    rng = random.Random(17)
    states = [([rng.uniform(-0.6, 0.6) for _ in range(3)], [rng.uniform(-1, 1) for _ in range(3)])
              for _ in range(5)]
    for q, p in states[:2]:
        gradient_lists(jp, q, p)
    wrapped = PhaseFunction(jp.arity, lambda q, p: jp.fn(q, p), jp.label)
    for q, p in states:
        assert _bits([*sum(gradient_lists(wrapped, q, p), [])]) == _bits(_reverse(jp, q, p))
        assert wrapped._gradient.code is jp._gradient.code


def test_warm_units_take_one_record_per_function(tmp_path, monkeypatch):
    # in a process that ran a unit of each kind, a curvature grid unit takes
    # the kinetic check's record and one record of all metric components, and
    # a simulate unit one record of its Hamiltonian: no interpreted pass or
    # compilation
    monkeypatch.chdir(tmp_path)
    tags = []
    fresh_tag = dual.fresh_tag

    def counted():
        tags.append(None)
        return fresh_tag()

    units = [
        (["curvature", "--n=3", "--metric=superintegrable", "--grid-points=2"], 1 + 1),
        (["curvature", "--n=2", "--metric=integrable", "--grid-points=3"], 1 + 1),
        (["curvature", "--chart=polar", "--metric=integrable", "--kappa2=-1", "--grid-points=2"], 1 + 1),
        (["simulate", "--hamiltonian=superintegrable", "--q=0.1,0.2,0.3", "--p=0.05,0,0.01",
          "--t-end=0.01"], 1),
        (["simulate", "--chart=polar", "--hamiltonian=integrable", "--q=0.6,0.7,0.4",
          "--p=0.05,0,0.01", "--t-end=0.01"], 1),
        (["simulate", "--hamiltonian=family:exp", "--q=0.1,0.2,0.3", "--p=0.05,0,0.01",
          "--t-end=0.01"], 1),
    ]
    for argv, passes in units:
        assert cli.main([*argv, "--z=0.37", "--output=o.csv"]) == 0
        monkeypatch.setattr(dual, "fresh_tag", counted)
        tags.clear()
        assert cli.main([*argv, "--z=-0.21", "--output=o.csv"]) == 0
        assert len(tags) == passes, argv
        monkeypatch.setattr(dual, "fresh_tag", fresh_tag)
