"""Compiled gradients: one recorded reverse pass run as straight-line code.

The per-call reverse pass (``dual.gradient``) is the oracle: a compiled
gradient must equal it bit for bit, fall back to it wherever the operation
sequence may depend on the input, and raise what it raises.
"""

import gc
import random
import weakref

import pytest

from zgeoflow import charts, cli, dual
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


def test_a_function_that_reads_a_value_does_not_compile():
    # the branch is chosen by the value of q1: each side has another
    # operation sequence, so compiled code from one side would be wrong on
    # the other
    def fn(q, p):
        if dual.primal(q[0]) > 0.0:
            return q[0] * q[0] * p[0]
        return dual.sin(q[0]) * p[0] * p[0]

    h = PhaseFunction(1, fn, "branchy")
    points = [0.5, -0.5, 0.25, -0.25, 0.75, -0.75]
    for q in points:
        dq, dp = gradient_lists(h, [q], [1.5])
        if q > 0:
            want = [2.0 * q * 1.5, q * q]
        else:
            want = [dual.cos(q) * 1.5 * 1.5, 2.0 * dual.sin(q) * 1.5]
        assert [*dq, *dp] == pytest.approx(want, rel=1e-15, abs=0.0)
    state = h._gradient
    assert state.opaque and state.code is None and state.first is None


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
