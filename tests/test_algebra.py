"""Generators, Casimirs, Hamiltonian families against independent oracles.

Expected values marked "frozen" were computed with mpmath at 50 digits from
independent transcriptions of the closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgeoflow import dual
from zgeoflow.algebra import (
    casimir_abstract,
    casimir_m,
    casimir_one,
    hamiltonian_family,
    hamiltonian_integrable,
    hamiltonian_superintegrable,
    integral_extra_2,
    integral_extra_3,
    realize_generators,
    sinhc,
)
from zgeoflow.brackets import gradient_lists
from zgeoflow.phase import PhasePoint

SINH_1 = 1.1752011936438014  # frozen: sinh(1)
# frozen: the written-out I3 at z = 0.3, q = (0.7, -0.4, .), p = (1.1, 0.5, .),
# the float inputs taken exactly
FROZEN_I3 = 0.9053944754008048


# --------------------------------------------------------------------------
# independent closed-form transcriptions used as oracles
# --------------------------------------------------------------------------


def shc(x):
    return math.sinh(x) / x if x != 0 else 1.0


def oracle_two_site(z, q, p):
    """Two-site generator triple, written out term by term."""
    q1, q2 = q
    p1, p2 = p
    jm = q1**2 + q2**2
    jp = shc(z * q1**2) * p1**2 * math.exp(z * q2**2) + shc(
        z * q2**2
    ) * p2**2 * math.exp(-z * q1**2)
    j3 = shc(z * q1**2) * q1 * p1 * math.exp(z * q2**2) + shc(
        z * q2**2
    ) * q2 * p2 * math.exp(-z * q1**2)
    return jm, jp, j3


def oracle_three_site(z, q, p):
    q1, q2, q3 = q
    p1, p2, p3 = p
    jm = q1**2 + q2**2 + q3**2
    e = math.exp
    jp = (
        shc(z * q1**2) * p1**2 * e(z * q2**2) * e(z * q3**2)
        + shc(z * q2**2) * p2**2 * e(-z * q1**2) * e(z * q3**2)
        + shc(z * q3**2) * p3**2 * e(-z * q1**2) * e(-z * q2**2)
    )
    j3 = (
        shc(z * q1**2) * q1 * p1 * e(z * q2**2) * e(z * q3**2)
        + shc(z * q2**2) * q2 * p2 * e(-z * q1**2) * e(z * q3**2)
        + shc(z * q3**2) * q3 * p3 * e(-z * q1**2) * e(-z * q2**2)
    )
    return jm, jp, j3


def oracle_casimir_two(z, q, p):
    q1, q2 = q[:2]
    p1, p2 = p[:2]
    return (
        shc(z * q1**2)
        * shc(z * q2**2)
        * (q1 * p2 - q2 * p1) ** 2
        * math.exp(-z * q1**2)
        * math.exp(z * q2**2)
    )


def oracle_casimir_three(z, q, p):
    q1, q2, q3 = q[:3]
    p1, p2, p3 = p[:3]
    e = math.exp
    t12 = (
        shc(z * q1**2)
        * shc(z * q2**2)
        * (q1 * p2 - q2 * p1) ** 2
        * e(-z * q1**2)
        * e(z * q2**2)
        * e(2 * z * q3**2)
    )
    t13 = (
        shc(z * q1**2)
        * shc(z * q3**2)
        * (q1 * p3 - q3 * p1) ** 2
        * e(-z * q1**2)
        * e(z * q3**2)
    )
    t23 = (
        shc(z * q2**2)
        * shc(z * q3**2)
        * (q2 * p3 - q3 * p2) ** 2
        * e(-2 * z * q1**2)
        * e(-z * q2**2)
        * e(z * q3**2)
    )
    return t12 + t13 + t23


def random_points(n, count, seed, scale=1.5):
    rng = np.random.default_rng(seed)
    return [
        PhasePoint(rng.uniform(-scale, scale, n), rng.uniform(-scale, scale, n))
        for _ in range(count)
    ]


# --------------------------------------------------------------------------
# sinhc
# --------------------------------------------------------------------------


def test_sinhc_values():
    assert sinhc(0.0) == 1.0
    assert sinhc(1.0) == pytest.approx(SINH_1, abs=1e-16)
    assert sinhc(-1.0) == pytest.approx(SINH_1, abs=1e-16)
    # frozen: sinh(5e-5)/5e-5 at 50 digits; exercises the series branch
    assert sinhc(5e-5) == pytest.approx(1.0000000004166667, abs=1e-16)


def test_sinhc_series_matches_exact_at_cutoff():
    for x in (9.9e-5, 1.01e-4, -9.9e-5, -1.01e-4):
        assert sinhc(x) == pytest.approx(math.sinh(x) / x, rel=1e-15)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_sinhc_at_least_one_and_even(x):
    v = sinhc(x)
    assert v >= 1.0
    assert v == sinhc(-x)


def test_sinhc_differentiable_through_zero():
    assert dual.derivative(sinhc, 0.0) == 0.0
    x0 = 0.5
    expected = (math.cosh(x0) * x0 - math.sinh(x0)) / x0**2
    assert dual.derivative(sinhc, x0) == pytest.approx(expected, rel=1e-14)


# --------------------------------------------------------------------------
# realization
# --------------------------------------------------------------------------


def test_one_site_undeformed_momentum():
    gen = realize_generators(1, 0.0)
    assert gen.j_plus(PhasePoint([1.0], [2.0])) == pytest.approx(4.0, abs=1e-15)


def test_j_minus_is_undeformed_for_any_z():
    for z in (-0.7, 0.0, 1.3):
        gen = realize_generators(1, z)
        assert gen.j_minus(PhasePoint([2.0], [0.0])) == pytest.approx(4.0, abs=1e-15)


def test_two_site_frozen_value():
    gen = realize_generators(2, 0.3)
    x = PhasePoint([0.7, -0.4], [1.1, 0.5])
    # frozen: independent transcription evaluated with mpmath at 50 digits
    assert gen.j_plus(x) == pytest.approx(1.4899799071444586, rel=1e-15)


@pytest.mark.parametrize("z", [-0.7, 0.0, 0.3, 1.0])
def test_one_site_matches_closed_form(z):
    gen = realize_generators(1, z)
    for x in random_points(1, 10, seed=19):
        q1, p1 = float(x.q[0]), float(x.p[0])
        assert gen.j_minus(x) == pytest.approx(q1**2, rel=1e-15)
        assert gen.j_plus(x) == pytest.approx(shc(z * q1**2) * p1**2, rel=1e-14)
        assert gen.j_three(x) == pytest.approx(shc(z * q1**2) * q1 * p1, rel=1e-14)


@pytest.mark.parametrize("z", [-0.7, 0.0, 0.3, 1.0])
def test_two_and_three_site_match_term_by_term_oracles(z):
    gen2 = realize_generators(2, z)
    gen3 = realize_generators(3, z)
    for x in random_points(3, 25, seed=11):
        q2, p2 = list(x.q[:2]), list(x.p[:2])
        jm, jp, j3 = oracle_two_site(z, q2, p2)
        x2 = PhasePoint(q2, p2)
        assert gen2.j_minus(x2) == pytest.approx(jm, rel=1e-14, abs=1e-14)
        assert gen2.j_plus(x2) == pytest.approx(jp, rel=1e-14, abs=1e-14)
        assert gen2.j_three(x2) == pytest.approx(j3, rel=1e-14, abs=1e-14)
        jm, jp, j3 = oracle_three_site(z, list(x.q), list(x.p))
        assert gen3.j_minus(x) == pytest.approx(jm, rel=1e-14, abs=1e-14)
        assert gen3.j_plus(x) == pytest.approx(jp, rel=1e-14, abs=1e-14)
        assert gen3.j_three(x) == pytest.approx(j3, rel=1e-14, abs=1e-14)


def test_undeformed_limit_is_flat_bilinears():
    gen = realize_generators(4, 0.0)
    for x in random_points(4, 10, seed=3):
        assert gen.j_minus(x) == pytest.approx(float(np.dot(x.q, x.q)), rel=1e-15)
        assert gen.j_plus(x) == pytest.approx(float(np.dot(x.p, x.p)), rel=1e-15)
        assert gen.j_three(x) == pytest.approx(float(np.dot(x.q, x.p)), rel=1e-15)


def quadratic_site_generators(n, z):
    """J+ and J3 with every site weight exp(z s_i) summed afresh, O(n^2)."""

    def weight(q, i):
        s = 0.0
        for k in range(i):
            s = s - q[k] * q[k]
        for l in range(i + 1, n):
            s = s + q[l] * q[l]
        return dual.exp(z * s)

    def j_plus(q, p):
        out = 0.0
        for i in range(n):
            out = out + sinhc(z * (q[i] * q[i])) * p[i] * p[i] * weight(q, i)
        return out

    def j_three(q, p):
        out = 0.0
        for i in range(n):
            out = out + sinhc(z * (q[i] * q[i])) * q[i] * p[i] * weight(q, i)
        return out

    return j_plus, j_three


def composed_generators(n, z):
    """(J-, J+, J3) of the n-site realization as three closures, J+ and J3
    each running the site sums of its own coefficients."""

    def j_minus(q, p):
        out = q[0] * q[0]
        for i in range(1, n):
            out = out + q[i] * q[i]
        return out

    def coefficients(q):
        zw = [z * (qi * qi) for qi in q]
        above = [0.0] * n
        for i in range(n - 1, 0, -1):
            above[i - 1] = above[i] + zw[i]
        out = []
        below = 0.0
        for i in range(n):
            out.append(sinhc(zw[i]) * dual.exp(above[i] - below))
            below = below + zw[i]
        return out

    def j_plus(q, p):
        out = 0.0
        for c, pi in zip(coefficients(q), p):
            out = out + c * pi * pi
        return out

    def j_three(q, p):
        out = 0.0
        for c, qi, pi in zip(coefficients(q), q, p):
            out = out + c * qi * pi
        return out

    return j_minus, j_plus, j_three


def one_plus(s):
    return 1.0 + s


def composed_functions(n, z):
    """label -> (q, p) function of every n-site builder, composed from
    separately built generators: C(m) is the abstract Casimir of an m-site
    realization on the first m pairs, and the Hamiltonians read J+ and J-
    of the n-site one."""
    cas = casimir_abstract(z)

    def embedded(m):
        jm, jp, j3 = composed_generators(m, z)
        return lambda q, p: cas(jm(q[:m], p[:m]), jp(q[:m], p[:m]), j3(q[:m], p[:m]))

    jm, jp, j3 = composed_generators(n, z)
    return {
        f"J-({n})": jm,
        f"J+({n})": jp,
        f"J3({n})": j3,
        **{f"C({m})": embedded(m) for m in range(1, n + 1)},
        f"H_int({n})": lambda q, p: 0.5 * jp(q, p),
        f"H_sup({n})": lambda q, p: 0.5 * jp(q, p) * dual.exp(z * jm(q, p)),
        f"H[1+x]({n})": lambda q, p: 0.5 * jp(q, p) * one_plus(z * jm(q, p)),
    }


def built_functions(n, z):
    """Every n-site function the algebra builders make, by label."""
    return {
        f.label: f
        for f in (
            *realize_generators(n, z).as_tuple(),
            casimir_one(z, n),
            *(casimir_m(m, n, z) for m in range(2, n + 1)),
            hamiltonian_integrable(n, z),
            hamiltonian_superintegrable(n, z),
            hamiltonian_family(n, z, one_plus, "1+x"),
        )
    }


def casimir_term_scale(m, z, q, p):
    """|d(j- sinhc(z j-) j+)| + |d(j3^2)| per slot: the size of the two
    terms whose difference is each partial of C(m).  At z = -1 and n = 6
    they cancel to 1.4e-12 of |g|, where both routes err by 2-4e-12 against
    50-digit mpmath."""
    jm, jp, j3 = composed_generators(m, z)
    n = len(q)

    def first(a):
        qm, pm = a[:m], a[n : n + m]
        return jm(qm, pm) * sinhc(z * jm(qm, pm)) * jp(qm, pm)

    def second(a):
        qm, pm = a[:m], a[n : n + m]
        return j3(qm, pm) * j3(qm, pm)

    grads = zip(dual.gradient(first, q + p), dual.gradient(second, q + p))
    return [abs(a) + abs(b) for a, b in grads]


@pytest.mark.parametrize("z", [0.0, 0.3, -0.3, 1.0, -1.0])
def test_m_site_formula_matches_the_composed_builders(z):
    # values bit for bit; gradients (a recorded pass at the first point,
    # compiled code at the others) to 1e-13 x max(1, |g|), and for C(m) of
    # the size of its two terms, since sharing the site coefficients of
    # C(m) reorders its adjoint sums
    for n in range(1, 9):
        built = built_functions(n, z)
        composed = composed_functions(n, z)
        assert sorted(built) == sorted(composed)
        for x in random_points(n, 3, seed=40 + n):
            q, p = x.scalars()
            for label, f in built.items():
                assert repr(f.raw(q, p)) == repr(composed[label](q, p)), (n, label)
                dq, dp = gradient_lists(f, q, p)
                ref = dual.gradient(lambda a: composed[label](a[:n], a[n:]), q + p)
                scale = [max(1.0, abs(r)) for r in ref]
                if label.startswith("C("):
                    terms = casimir_term_scale(int(label[2:-1]), z, q, p)
                    scale = [max(s, t) for s, t in zip(scale, terms)]
                for g, r, s in zip(dq + dp, ref, scale):
                    assert abs(g - r) <= 1e-13 * s, (n, label)


@pytest.mark.parametrize("z", [-0.4, 0.3])
def test_running_site_sums_match_the_quadratic_formula(z):
    # the realization's running prefix and suffix sums against the per-site
    # sums, values and gradients, at n = 1..32, to 1e-13 x max(1, |value|)
    for n in range(1, 33):
        gen = realize_generators(n, z)
        slow_fns = quadratic_site_generators(n, z)
        for x in random_points(n, 2, seed=n):
            q, p = x.scalars()
            for fast, slow in zip((gen.j_plus, gen.j_three), slow_fns):
                want = slow(q, p)
                tol = 1e-13 * max(1.0, abs(want))
                assert abs(fast.raw(q, p) - want) <= tol, n
                got = dual.gradient(lambda a: fast.raw(a[:n], a[n:]), q + p)
                ref = dual.gradient(lambda a: slow(a[:n], a[n:]), q + p)
                assert max(abs(g - r) for g, r in zip(got, ref)) <= tol, n


def test_zero_sites_rejected():
    with pytest.raises(ValueError):
        realize_generators(0, 0.3)


# --------------------------------------------------------------------------
# Casimirs
# --------------------------------------------------------------------------


def test_casimir_abstract_values():
    c0 = casimir_abstract(0.0)
    assert c0(2.0, 3.0, 1.0) == pytest.approx(5.0, abs=1e-15)
    c_any = casimir_abstract(0.9)
    assert c_any(0.0, 123.4, 0.0) == 0.0
    c5 = casimir_abstract(0.5)
    assert c5(1.0, 1.0, 0.0) == pytest.approx(1.0421906109874948, rel=1e-15)


def test_casimir_two_angular_momentum_limit():
    c = casimir_m(2, 2, 0.0)
    assert c(PhasePoint([1.0, 0.0], [0.0, 1.0])) == pytest.approx(1.0, abs=1e-15)


def test_casimir_two_frozen_value():
    c = casimir_m(2, 2, 0.4)
    x = PhasePoint([0.6, 0.9], [0.2, -0.3])
    # frozen: closed-form transcription evaluated with mpmath at 50 digits
    assert c(x) == pytest.approx(0.15843455108572876, rel=1e-15)


@pytest.mark.parametrize("z", [-0.5, 0.3, 1.0])
def test_casimirs_match_closed_forms(z):
    c2 = casimir_m(2, 3, z)
    c3 = casimir_m(3, 3, z)
    for x in random_points(3, 25, seed=5):
        ref2 = oracle_casimir_two(z, list(x.q), list(x.p))
        ref3 = oracle_casimir_three(z, list(x.q), list(x.p))
        assert float(c2(x)) == pytest.approx(ref2, rel=1e-12, abs=1e-15)
        assert float(c3(x)) == pytest.approx(ref3, rel=1e-12, abs=1e-15)


def test_casimir_embedding_ignores_trailing_coordinates():
    c2 = casimir_m(2, 4, 0.3)
    a = PhasePoint([0.5, 0.7, 0.1, -0.9], [0.2, -0.4, 1.0, 0.8])
    b = PhasePoint([0.5, 0.7, -2.0, 0.3], [0.2, -0.4, -1.5, 0.1])
    assert float(c2(a)) == pytest.approx(float(c2(b)), rel=1e-15)


def test_casimir_bounds_rejected():
    with pytest.raises(ValueError):
        casimir_m(1, 3, 0.1)
    with pytest.raises(ValueError):
        casimir_m(4, 3, 0.1)


def test_one_site_casimir_vanishes():
    assert casimir_one(0.7)(PhasePoint([1.3], [-0.8])) == pytest.approx(0.0, abs=1e-12)
    # z = 0 is exact up to one ulp of the intermediate products
    assert casimir_one(0.0)(PhasePoint([0.9], [1.4])) == pytest.approx(0.0, abs=1e-15)
    assert casimir_one(-0.5)(PhasePoint([0.4], [2.0])) == pytest.approx(0.0, abs=1e-12)


# --------------------------------------------------------------------------
# Hamiltonians
# --------------------------------------------------------------------------


def test_integrable_hamiltonian_values():
    h = hamiltonian_integrable(3, 0.0)
    assert h(PhasePoint([9.0, -2.0, 0.4], [1.0, 2.0, 3.0])) == pytest.approx(7.0)
    h1 = hamiltonian_integrable(1, 1.0)
    assert h1(PhasePoint([1.0], [1.0])) == pytest.approx(0.5876005968219007, rel=1e-15)


def test_superintegrable_equals_weighted_integrable():
    z = 0.2
    hi = hamiltonian_integrable(3, z)
    hs = hamiltonian_superintegrable(3, z)
    for x in random_points(3, 10, seed=8):
        expected = float(hi(x)) * math.exp(z * float(np.dot(x.q, x.q)))
        assert float(hs(x)) == pytest.approx(expected, rel=1e-14)
    h0s = hamiltonian_superintegrable(2, 0.0)
    h0i = hamiltonian_integrable(2, 0.0)
    x = PhasePoint([0.3, 0.4], [0.5, 0.6])
    assert float(h0s(x)) == pytest.approx(float(h0i(x)), rel=1e-15)
    assert hamiltonian_superintegrable(1, 1.0)(
        PhasePoint([0.0], [2.0])
    ) == pytest.approx(2.0, abs=1e-15)


def test_family_reproduces_named_members():
    z = 0.1
    x = PhasePoint([0.6, -0.2], [0.4, 1.1])
    h1 = hamiltonian_family(2, z, lambda s: 1.0, "1")
    assert float(h1(x)) == pytest.approx(float(hamiltonian_integrable(2, z)(x)), rel=1e-15)
    hexp = hamiltonian_family(2, z, dual.exp, "exp")
    assert float(hexp(x)) == pytest.approx(
        float(hamiltonian_superintegrable(2, z)(x)), rel=1e-15
    )
    gen = realize_generators(2, z)
    hlin = hamiltonian_family(2, z, lambda s: 1.0 + s, "1+x")
    expected = 0.5 * float(gen.j_plus(x)) * (1.0 + z * float(gen.j_minus(x)))
    assert float(hlin(x)) == pytest.approx(expected, rel=1e-14)


def test_family_rejects_bad_normalization():
    with pytest.raises(ValueError):
        hamiltonian_family(2, 0.3, lambda s: 2.0)
    with pytest.raises(ValueError):
        hamiltonian_family(2, 0.3, lambda s: 1.0 + 1e-9)
    with pytest.raises(ValueError, match="f\\(0\\) = nan"):
        hamiltonian_family(3, 0.3, lambda s: math.nan if s == 0.0 else 1.0, "bad")


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda z: realize_generators(3, z),
        casimir_abstract,
        lambda z: casimir_m(2, 3, z),
        casimir_one,
        lambda z: hamiltonian_integrable(3, z),
        lambda z: hamiltonian_superintegrable(3, z),
        lambda z: hamiltonian_family(3, z, dual.exp, "exp"),
        lambda z: integral_extra_2(z, 3),
        lambda z: integral_extra_3(z, 3),
    ],
)
def test_every_builder_rejects_a_non_finite_z(build, z):
    with pytest.raises(ValueError, match="deformation parameter must be a finite real"):
        build(z)


# --------------------------------------------------------------------------
# extra integrals
# --------------------------------------------------------------------------


def test_extra_integrals_flat_limit():
    i2 = integral_extra_2(0.0, 3)
    i3 = integral_extra_3(0.0, 3)
    x = PhasePoint([0.4, -0.7, 0.9], [1.2, 0.8, -0.3])
    assert float(i2(x)) == pytest.approx(0.5 * 1.2**2, rel=1e-15)
    assert float(i3(x)) == pytest.approx(0.5 * (1.2**2 + 0.8**2), rel=1e-15)


def test_extra_integral_frozen_value():
    i2 = integral_extra_2(0.3, 3)
    x = PhasePoint([0.5, 0.0, 0.0], [1.0, 0.0, 0.0])
    # frozen: sinhc(0.075) e^{0.075} / 2 with mpmath at 50 digits
    assert float(i2(x)) == pytest.approx(0.5394474757609438, rel=1e-15)
    i3 = integral_extra_3(0.3, 3)
    x = PhasePoint([0.7, -0.4, 0.9], [1.1, 0.5, -0.2])
    assert float(i3(x)) == pytest.approx(FROZEN_I3, rel=1e-15)


def written_out_integrals(z):
    """I(2) and I(3) written out term by term."""

    def i_two(q, p):
        q12 = q[0] * q[0]
        return 0.5 * sinhc(z * q12) * dual.exp(z * q12) * p[0] * p[0]

    def i_three(q, p):
        q12 = q[0] * q[0]
        q22 = q[1] * q[1]
        t1 = 0.5 * sinhc(z * q12) * dual.exp(z * q12) * dual.exp(2.0 * z * q22) * p[0] * p[0]
        t2 = 0.5 * sinhc(z * q22) * dual.exp(z * q22) * p[1] * p[1]
        return t1 + t2

    return i_two, i_three


@pytest.mark.parametrize("z", [0.0, 0.3, -0.3, 1.0, -1.0])
def test_extra_integrals_are_the_superintegrable_hamiltonian_of_fewer_sites(z):
    # I(2) = H_sup of site 1 and I(3) = H_sup of sites 1-2 round differently
    # from the written-out forms: values within 4 ulp, gradients 1e-13
    i2, i3 = integral_extra_2(z, 3), integral_extra_3(z, 3)
    for x in random_points(3, 10, seed=17):
        q, p = x.scalars()
        for f, ref in zip((i2, i3), written_out_integrals(z)):
            want = ref(q, p)
            assert abs(f(x) - want) <= 4 * math.ulp(want), f.label
            dq, dp = gradient_lists(f, q, p)
            slow = dual.gradient(lambda a: ref(a[:3], a[3:]), q + p)
            for g, r in zip(dq + dp, slow):
                assert abs(g - r) <= 1e-13 * max(1.0, abs(r)), f.label


def test_extra_integrals_vanish_at_zero_momentum():
    i2 = integral_extra_2(0.7, 3)
    i3 = integral_extra_3(0.7, 3)
    x = PhasePoint([0.5, 0.3, 0.8], [0.0, 0.0, 0.0])
    assert float(i2(x)) == 0.0
    assert float(i3(x)) == 0.0


def test_extra_integrals_dimension_guards():
    with pytest.raises(ValueError):
        integral_extra_2(0.3, 1)
    with pytest.raises(ValueError):
        integral_extra_3(0.3, 2)
