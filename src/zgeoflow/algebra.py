"""Deformed sl(2) generators, Casimir hierarchy and Hamiltonian families.

The three generators of the deformed algebra close the brackets

    {J3, J+} = 2 J+ cosh(z J-),   {J3, J-} = -2 sinh(z J-)/z,   {J-, J+} = 4 J3,

and the N-site symplectic realization used throughout is

    J-  =  sum_i q_i^2
    J+  =  sum_i sinhc(z q_i^2) p_i^2   exp(-z sum_{k<i} q_k^2 + z sum_{l>i} q_l^2)
    J3  =  sum_i sinhc(z q_i^2) q_i p_i exp(-z sum_{k<i} q_k^2 + z sum_{l>i} q_l^2)

with sinhc(x) = sinh(x)/x.  Everything here is an immutable
:class:`~zgeoflow.phase.PhaseFunction`; all identities (bracket closure,
Casimir centrality, involution) are verified numerically by
:mod:`zgeoflow.brackets` rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dual
from .kernels import sinhc
from .phase import PhaseFunction

@dataclass(frozen=True)
class DeformedRealization:
    """The generator triple (J-, J+, J3) realized on N-particle phase space."""

    n_sites: int
    z: float
    j_minus: PhaseFunction
    j_plus: PhaseFunction
    j_three: PhaseFunction

    def as_tuple(self):
        return (self.j_minus, self.j_plus, self.j_three)


def realize_generators(n: int, z: float) -> DeformedRealization:
    """N-site symplectic realization of the deformed generator triple.

    At z = 0 this reduces exactly to J- = sum q_i^2, J+ = sum p_i^2,
    J3 = sum q_i p_i (no limit is taken; sinhc and exp handle z = 0).
    """
    if n < 1:
        raise ValueError("number of sites must be >= 1")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("deformation parameter must be a finite real")

    def j_minus(q, p):
        out = q[0] * q[0]
        for i in range(1, n):
            out = out + q[i] * q[i]
        return out

    def coefficients(q):
        """sinhc(z q_i^2) exp(z s_i) per site, the factor J+ and J3 share,
        with z s_i = sum_{l>i} z q_l^2 - sum_{k<i} z q_k^2 from one running
        sum each way (O(n) per evaluation)."""
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

    return DeformedRealization(
        n_sites=n,
        z=z,
        j_minus=PhaseFunction(n, j_minus, f"J-({n})"),
        j_plus=PhaseFunction(n, j_plus, f"J+({n})"),
        j_three=PhaseFunction(n, j_three, f"J3({n})"),
    )


def casimir_abstract(z: float):
    """The Casimir as a scalar function of generator values.

    C(j-, j+, j3) = sinh(z j-)/z * j+ - j3^2, written as
    j- * sinhc(z j-) * j+ - j3^2 so that z = 0 needs no special case.
    """
    z = float(z)

    def casimir(j_minus, j_plus, j_three):
        return j_minus * sinhc(z * j_minus) * j_plus - j_three * j_three

    return casimir


def _embedded_casimir(m: int, n: int, z: float, label: str) -> PhaseFunction:
    """The abstract Casimir of the m-site realization on the first m pairs."""
    inner = realize_generators(m, z)
    cas = casimir_abstract(z)

    def fn(q, p):
        qm, pm = q[:m], p[:m]
        return cas(
            inner.j_minus.raw(qm, pm),
            inner.j_plus.raw(qm, pm),
            inner.j_three.raw(qm, pm),
        )

    return PhaseFunction(n, fn, label)


def casimir_m(m: int, n: int, z: float) -> PhaseFunction:
    """The m-site Casimir embedded in N-dimensional phase space.

    Built by composing the abstract Casimir with the m-site realization
    acting on the first m coordinate pairs; coordinates m+1..n are ignored.
    """
    if m < 2:
        raise ValueError("Casimir tower starts at m = 2 (the 1-site Casimir vanishes)")
    if m > n:
        raise ValueError(f"cannot embed {m}-site Casimir in {n}-dimensional space")
    return _embedded_casimir(m, n, z, f"C({m})")


def casimir_one(z: float, n: int = 1) -> PhaseFunction:
    """The 1-site Casimir, identically zero; exposed as a consistency check."""
    return _embedded_casimir(1, n, z, "C(1)")


def hamiltonian_integrable(n: int, z: float) -> PhaseFunction:
    """The free integrable Hamiltonian (1/2) J+ on N sites."""
    gen = realize_generators(n, z)
    return PhaseFunction(n, lambda q, p: 0.5 * gen.j_plus.raw(q, p), f"H_int({n})")


def hamiltonian_superintegrable(n: int, z: float) -> PhaseFunction:
    """The superintegrable Hamiltonian (1/2) J+ exp(z J-) on N sites."""
    gen = realize_generators(n, z)
    z = float(z)

    def fn(q, p):
        return 0.5 * gen.j_plus.raw(q, p) * dual.exp(z * gen.j_minus.raw(q, p))

    return PhaseFunction(n, fn, f"H_sup({n})")


def hamiltonian_family(n: int, z: float, f, label: str = "f") -> PhaseFunction:
    """The family (1/2) J+ f(z J-) of integrable deformations of free motion.

    ``f`` must be smooth (built from :mod:`zgeoflow.dual` primitives if it is
    to be differentiated) and satisfy f(0) = 1, which guarantees the z -> 0
    limit is the flat kinetic energy.  Only f(0) = 1 is checked; smoothness
    is the caller's responsibility.
    """
    f0 = f(0.0)
    if abs(f0 - 1.0) >= 1e-12:
        raise ValueError(f"family function must satisfy f(0) = 1, got f(0) = {f0!r}")
    gen = realize_generators(n, z)
    z = float(z)

    def fn(q, p):
        return 0.5 * gen.j_plus.raw(q, p) * f(z * gen.j_minus.raw(q, p))

    return PhaseFunction(n, fn, f"H[{label}]({n})")


def integral_extra_2(z: float, n: int = 2) -> PhaseFunction:
    """First extra constant of motion of the superintegrable flow.

    I2 = sinhc(z q1^2)/2 * exp(z q1^2) p1^2.  Reads only the first
    coordinate pair; ``n`` sets the ambient phase-space dimension.
    """
    if n < 2:
        raise ValueError("I2 needs ambient dimension >= 2")
    z = float(z)

    def fn(q, p):
        q12 = q[0] * q[0]
        return 0.5 * sinhc(z * q12) * dual.exp(z * q12) * p[0] * p[0]

    return PhaseFunction(n, fn, "I(2)")


def integral_extra_3(z: float, n: int = 3) -> PhaseFunction:
    """Second extra constant of motion of the superintegrable flow.

    I3 = sinhc(z q1^2)/2 exp(z q1^2) exp(2 z q2^2) p1^2
       + sinhc(z q2^2)/2 exp(z q2^2) p2^2.
    """
    if n < 3:
        raise ValueError("I3 needs ambient dimension >= 3")
    z = float(z)

    def fn(q, p):
        q12 = q[0] * q[0]
        q22 = q[1] * q[1]
        t1 = (
            0.5
            * sinhc(z * q12)
            * dual.exp(z * q12)
            * dual.exp(2.0 * z * q22)
            * p[0]
            * p[0]
        )
        t2 = 0.5 * sinhc(z * q22) * dual.exp(z * q22) * p[1] * p[1]
        return t1 + t2

    return PhaseFunction(n, fn, "I(3)")
