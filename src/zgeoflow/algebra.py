"""Deformed sl(2) generators, Casimir hierarchy and Hamiltonian families.

The three generators of the deformed algebra close the brackets

    {J3, J+} = 2 J+ cosh(z J-),   {J3, J-} = -2 sinh(z J-)/z,   {J-, J+} = 4 J3,

and every function here comes from one m-site formula, the generators of the
m-site realization (the m-th coproduct of the one-site one; Ballesteros &
Ragnisco, J. Phys. A 31 (1998) 3791):

    J-(m)  =  sum_{i<=m} q_i^2
    J+(m)  =  sum_{i<=m} c_i p_i^2,     J3(m)  =  sum_{i<=m} c_i q_i p_i,
    c_i    =  sinhc(z q_i^2) exp(-z sum_{k<i} q_k^2 + z sum_{i<l<=m} q_l^2)

with sinhc(x) = sinh(x)/x.  Each builder reads the first m coordinate pairs
of N-site phase space: the realization is the triple at m = N, the Casimir
C(m) is the abstract Casimir of the m-site triple (C(1) vanishes), both
Hamiltonians and the family are (1/2) J+(N) f(z J-(N)), and the two extra
integrals are the superintegrable Hamiltonian of fewer sites, I(2) = H_sup of
site 1 and I(3) = H_sup of sites 1-2.  Everything here is an immutable
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


def _deformation(z) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("deformation parameter must be a finite real")
    return z


def _j_minus(q):
    """J- = sum_i q_i^2 over the sites of ``q``."""
    out = q[0] * q[0]
    for qi in q[1:]:
        out = out + qi * qi
    return out


def _coefficients(q, z):
    """c_i = sinhc(z q_i^2) exp(z s_i) per site of ``q``, the factor J+ and
    J3 share, with z s_i = sum_{l>i} z q_l^2 - sum_{k<i} z q_k^2 from one
    running sum each way (O(m) per evaluation)."""
    zw = [z * (qi * qi) for qi in q]
    above = [0.0] * len(zw)
    for i in range(len(zw) - 1, 0, -1):
        above[i - 1] = above[i] + zw[i]
    out = []
    below = 0.0
    for w, a in zip(zw, above):
        out.append(sinhc(w) * dual.exp(a - below))
        below = below + w
    return out


def _weighted(c, a, b):
    """sum_i c_i a_i b_i: J+ for (a, b) = (p, p) and J3 for (q, p)."""
    out = 0.0
    for ci, ai, bi in zip(c, a, b):
        out = out + ci * ai * bi
    return out


def _on_sites(m: int, n: int, z, label: str, formula) -> PhaseFunction:
    """``formula(q, p, z)`` of the first m coordinate pairs, as a function
    on N-site phase space."""
    if m < 1:
        raise ValueError("number of sites must be >= 1")
    z = _deformation(z)
    return PhaseFunction(n, lambda q, p: formula(q[:m], p[:m], z), label)


def _hamiltonian(m: int, n: int, z, f, label: str) -> PhaseFunction:
    """(1/2) J+(m) f(z J-(m)) on the first m pairs; ``f=None`` is f = 1."""

    def formula(q, p, z):
        j_plus = _weighted(_coefficients(q, z), p, p)
        if f is None:
            return 0.5 * j_plus
        return 0.5 * j_plus * f(z * _j_minus(q))

    return _on_sites(m, n, z, label, formula)


def realize_generators(n: int, z: float) -> DeformedRealization:
    """N-site symplectic realization of the deformed generator triple.

    At z = 0 this reduces exactly to J- = sum q_i^2, J+ = sum p_i^2,
    J3 = sum q_i p_i (no limit is taken; sinhc and exp handle z = 0).
    """
    j_minus, j_plus, j_three = (
        _on_sites(n, n, z, f"J{name}({n})", formula)
        for name, formula in (
            ("-", lambda q, p, z: _j_minus(q)),
            ("+", lambda q, p, z: _weighted(_coefficients(q, z), p, p)),
            ("3", lambda q, p, z: _weighted(_coefficients(q, z), q, p)),
        )
    )
    return DeformedRealization(n, float(z), j_minus, j_plus, j_three)


def casimir_abstract(z: float):
    """The Casimir as a scalar function of generator values.

    C(j-, j+, j3) = sinh(z j-)/z * j+ - j3^2, written as
    j- * sinhc(z j-) * j+ - j3^2 so that z = 0 needs no special case.
    """
    z = _deformation(z)

    def casimir(j_minus, j_plus, j_three):
        return j_minus * sinhc(z * j_minus) * j_plus - j_three * j_three

    return casimir


def _casimir(m: int, n: int, z: float, label: str) -> PhaseFunction:
    """The abstract Casimir of the m-site generators on the first m pairs,
    their site coefficients computed once for J+ and J3."""
    cas = casimir_abstract(z)

    def formula(q, p, z):
        j_minus = _j_minus(q)
        c = _coefficients(q, z)
        return cas(j_minus, _weighted(c, p, p), _weighted(c, q, p))

    return _on_sites(m, n, z, label, formula)


def casimir_m(m: int, n: int, z: float) -> PhaseFunction:
    """The m-site Casimir embedded in N-dimensional phase space.

    The abstract Casimir of the m-site generators, which read the first m
    coordinate pairs; coordinates m+1..n are ignored.
    """
    if m < 2:
        raise ValueError("Casimir tower starts at m = 2 (the 1-site Casimir vanishes)")
    if m > n:
        raise ValueError(f"cannot embed {m}-site Casimir in {n}-dimensional space")
    return _casimir(m, n, z, f"C({m})")


def casimir_one(z: float, n: int = 1) -> PhaseFunction:
    """The 1-site Casimir, identically zero; exposed as a consistency check."""
    return _casimir(1, n, z, "C(1)")


def hamiltonian_integrable(n: int, z: float) -> PhaseFunction:
    """The free integrable Hamiltonian (1/2) J+ on N sites."""
    return _hamiltonian(n, n, z, None, f"H_int({n})")


def hamiltonian_superintegrable(n: int, z: float) -> PhaseFunction:
    """The superintegrable Hamiltonian (1/2) J+ exp(z J-) on N sites."""
    return _hamiltonian(n, n, z, dual.exp, f"H_sup({n})")


def hamiltonian_family(n: int, z: float, f, label: str = "f") -> PhaseFunction:
    """The family (1/2) J+ f(z J-) of integrable deformations of free motion.

    ``f`` must be smooth (built from :mod:`zgeoflow.dual` primitives if it is
    to be differentiated) and satisfy f(0) = 1, which guarantees the z -> 0
    limit is the flat kinetic energy.  Only f(0) = 1 is checked (a NaN fails
    it); smoothness is the caller's responsibility.
    """
    f0 = f(0.0)
    if not abs(f0 - 1.0) < 1e-12:
        raise ValueError(f"family function must satisfy f(0) = 1, got f(0) = {f0!r}")
    return _hamiltonian(n, n, z, f, f"H[{label}]({n})")


def integral_extra_2(z: float, n: int = 2) -> PhaseFunction:
    """First extra constant of motion of the superintegrable flow.

    I2 = H_sup of site 1 = sinhc(z q1^2)/2 * exp(z q1^2) p1^2.  Reads only
    the first coordinate pair; ``n`` sets the ambient phase-space dimension.
    """
    if n < 2:
        raise ValueError("I2 needs ambient dimension >= 2")
    return _hamiltonian(1, n, z, dual.exp, "I(2)")


def integral_extra_3(z: float, n: int = 3) -> PhaseFunction:
    """Second extra constant of motion of the superintegrable flow.

    I3 = H_sup of sites 1-2
       = sinhc(z q1^2)/2 exp(z q1^2) exp(2 z q2^2) p1^2
       + sinhc(z q2^2)/2 exp(z q2^2) p2^2.
    """
    if n < 3:
        raise ValueError("I3 needs ambient dimension >= 3")
    return _hamiltonian(2, n, z, dual.exp, "I(3)")
