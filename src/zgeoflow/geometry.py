"""Diagonal metrics, Christoffel symbols, Riemann tensor, curvatures.

Metric components are position functions built on :mod:`zgeoflow.dual`
primitives, so first and second derivatives reuse the same exact
differentiation stack as the Poisson machinery.

Sign conventions are fixed so that the round unit 2-sphere has sectional
curvature +1.  Lorentzian signatures are supported throughout: nothing
assumes positive definiteness, only non-degeneracy (|g_ii| > 1e-12).

Normalization: :func:`metric_from_hamiltonian` returns the kinetic metric of
H = (1/2) sum a_i(q) p_i^2, i.e. g_ii = 1/a_i.  The line element
conventionally associated with such a flow is ds^2 = 2 T dt^2, twice that
metric; :func:`line_element_from_hamiltonian` returns the doubled version,
and the closed-form curvature references below apply to it.  Curvature
scales inversely with a constant metric factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import dual
from .phase import EvaluationDomainError, PhaseFunction, PhasePoint

#: metric components with magnitude below this are treated as degenerate
DEGENERACY_CUTOFF = 1e-12


class MetricDegenerateError(ValueError):
    """A diagonal metric component vanished inside the requested domain."""


class NonKineticHamiltonianError(ValueError):
    """Hamiltonian is not exactly quadratic and diagonal in momenta."""


@dataclass(frozen=True)
class DiagonalMetric:
    """Position-dependent diagonal metric g = diag(g_11(q), ..., g_NN(q)).

    ``components[i]`` maps a length-N sequence of generic scalars to g_ii.
    Instances are immutable, apart from the state that caches the compiled
    (value, gradient, Hessian) code of each component.
    """

    dim: int
    components: tuple
    label: str = ""
    #: the (value, gradient, Hessian) state of each component (see
    #: :func:`_component_derivatives`)
    _jets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        jets = tuple(dual.CompiledGradient(2) for _ in self.components)
        object.__setattr__(self, "_jets", jets)

    def values(self, q) -> np.ndarray:
        return self._nondegenerate([float(c(list(q))) for c in self.components], q)

    def _nondegenerate(self, gval, q) -> np.ndarray:
        """``gval`` as an array; MetricDegenerateError if an entry vanishes."""
        gval = np.array(gval)
        if np.any(np.abs(gval) < DEGENERACY_CUTOFF):
            raise MetricDegenerateError(f"metric {self.label} degenerate at q={q}")
        return gval

    def signature(self, q) -> tuple:
        return tuple(int(np.sign(v)) for v in self.values(q))

    def rescaled(self, factor: float) -> "DiagonalMetric":
        comps = tuple(
            (lambda c: (lambda qq: factor * c(qq)))(c) for c in self.components
        )
        return DiagonalMetric(self.dim, comps, f"{factor}*{self.label}")


def metric_from_hamiltonian(
    h: PhaseFunction,
    n: int,
    check_points: Sequence[PhasePoint],
    tolerance: float = 1e-10,
) -> DiagonalMetric:
    """Extract g_ii(q) = 1 / (d^2 h / dp_i^2 at p = 0) from a kinetic Hamiltonian.

    The Hamiltonian must be exactly quadratic and diagonal in the momenta;
    this is verified at every check point and violations are rejected with
    the failing residual.  For such an H = (1/2) sum a_i(q) p_i^2 the
    definition equals g_ii(q) = 1 / (2 h(q, e_i)) at the unit momentum e_i,
    which is how each component evaluates: one plain evaluation of h, with
    no momentum duals under the position passes of the curvature.
    """
    if h.arity != n:
        raise ValueError("Hamiltonian arity does not match requested dimension")
    for x in check_points:
        q, p = x.scalars()
        hess = np.array(dual.hessian(lambda ps: h.raw(q, ps), p))
        off = np.max(np.abs(hess - np.diag(np.diag(hess))))
        if off >= tolerance:
            raise NonKineticHamiltonianError(
                f"mixed momentum Hessian entry {off:.3e} exceeds {tolerance:.1e}"
            )
        resid = abs(float(h(x)) - 0.5 * float(np.dot(np.diag(hess), x.p**2)))
        if resid >= tolerance:
            raise NonKineticHamiltonianError(
                f"non-quadratic momentum dependence, residual {resid:.3e}"
            )

    def make_component(i):
        unit = [0.0] * n
        unit[i] = 1.0

        def g_ii(q):
            return 1.0 / (2.0 * h.raw(list(q), unit))

        return g_ii

    comps = tuple(make_component(i) for i in range(n))
    return DiagonalMetric(n, comps, f"g[{h.label}]")


def line_element_from_hamiltonian(
    h: PhaseFunction, n: int, check_points: Sequence[PhasePoint]
) -> DiagonalMetric:
    """The line-element metric ds^2 = 2 T dt^2 of a kinetic Hamiltonian."""
    return metric_from_hamiltonian(h, n, check_points).rescaled(2.0)


def _component_derivatives(g: DiagonalMetric, q):
    """Metric values, first partials d1[i][k] = d_i g_kk and second partials
    d2[i][j][k] = d_i d_j g_kk: one (value, gradient, Hessian) triple per
    component, from its :class:`zgeoflow.dual.CompiledGradient` state (a
    jet pass at the first point, compiled code at the later ones)."""
    q = [float(v) for v in q]
    gval, d1, d2 = zip(*(jet(c, q) for jet, c in zip(g._jets, g.components)))
    return g._nondegenerate(gval, q), np.array(d1).T, np.stack(d2, axis=-1)


def _connection(gval, d1) -> np.ndarray:
    """Gamma^k_{ij} from metric values and first partials d1[i][k] = d_i g_kk.

    Gamma^k_{ij} = (d_kj d_i g_kk + d_ki d_j g_kk - d_ij d_k g_ii) / (2 g_kk).
    """
    eye = np.eye(len(gval))
    term = (
        np.einsum("kj,ik->kij", eye, d1)
        + np.einsum("ki,jk->kij", eye, d1)
        - np.einsum("ij,ki->kij", eye, d1)
    )
    return (0.5 / gval)[:, None, None] * term


def christoffel(g: DiagonalMetric, q) -> np.ndarray:
    """Levi-Civita connection coefficients Gamma^k_{ij} for a diagonal metric."""
    return _connection(*_component_derivatives(g, q)[:2])


def _riemann(gval, d1, d2) -> np.ndarray:
    """R^l_{kij} from metric values, first and second partials."""
    eye = np.eye(len(gval))
    gamma = _connection(gval, d1)
    g_l = gval[None, :, None, None]
    # dgamma[i, l, j, k] = d_i Gamma^l_{jk}
    term = (
        np.einsum("lk,ijl->iljk", eye, d2)
        + np.einsum("lj,ikl->iljk", eye, d2)
        - np.einsum("jk,ilj->iljk", eye, d2)
    )
    dgamma = 0.5 * term / g_l - gamma[None] * d1[:, :, None, None] / g_l
    # half[l, k, i, j] = d_i Gamma^l_{jk} + Gamma^l_{im} Gamma^m_{jk};
    # R^l_{kij} is its antisymmetric part in (i, j)
    half = np.einsum("iljk->lkij", dgamma) + np.einsum("lim,mjk->lkij", gamma, gamma)
    return half - np.swapaxes(half, 2, 3)


def _finite(values, g: DiagonalMetric, q):
    """``values``, or EvaluationDomainError if any overflowed to inf or nan.

    Metric components and slopes that are huge but finite (exp(|z| q^2) at a
    large |z|) can overflow in the tensor arithmetic; the callers run it
    under ``np.errstate`` and report the non-finite result here instead.
    """
    if not np.all(np.isfinite(values)):
        raise EvaluationDomainError(f"curvature of {g.label} not finite at q={q}")
    return values


@np.errstate(all="ignore")
def riemann(g: DiagonalMetric, q) -> np.ndarray:
    """Riemann tensor R^l_{kij} = d_i G^l_{jk} - d_j G^l_{ik} + G G - G G."""
    return _finite(_riemann(*_component_derivatives(g, q)), g, q)


@np.errstate(all="ignore")
def curvature_summary(g: DiagonalMetric, q):
    """All sectional curvatures and the scalar, from one Riemann evaluation.

    K_ij = R_{ijij} / (g_ii g_jj) for i < j (the unit 2-sphere gives +1) and
    the Ricci scalar K = g^{ab} R_ab, which is 2 * sum K_ij for 3D diagonal g.
    """
    gval, d1, d2 = _component_derivatives(g, q)
    riem = _riemann(gval, d1, d2)
    n = g.dim
    sect = {
        (i, j): float(riem[i, j, i, j] / gval[j])
        for i in range(n)
        for j in range(i + 1, n)
    }
    scal = float(np.sum(np.einsum("lklk->k", riem) / gval))
    _finite([*sect.values(), scal], g, q)
    return sect, scal


def sectional_curvature(g: DiagonalMetric, q, i: int, j: int) -> float:
    """Sectional curvature of the coordinate 2-plane (i, j)."""
    if i == j:
        raise ValueError("sectional curvature needs two distinct directions")
    return curvature_summary(g, q)[0][(min(i, j), max(i, j))]


def scalar_curvature(g: DiagonalMetric, q) -> float:
    """Ricci scalar K = g^{ab} R_ab; equals 2 * sum K_ij for 3D diagonal g."""
    return curvature_summary(g, q)[1]


def gaussian_curvature_2d(g: DiagonalMetric, q) -> float:
    """The single sectional curvature of a 2D diagonal metric."""
    if g.dim != 2:
        raise ValueError("Gaussian curvature is defined here for 2D metrics only")
    return sectional_curvature(g, q, 0, 1)


# ---------------------------------------------------------------------------
# closed-form curvature references for the deformed geodesic families
# ---------------------------------------------------------------------------


def variable_curvature_sectionals(z: float, q) -> dict:
    """Closed-form K_12, K_13, K_23 of the 3D variable-curvature line element.

    Valid for the line element of the integrable flow (see module docstring
    for the normalization).  The K_23 coefficient of exp(2 z |q|^2) is -1,
    the unique value consistent with the scalar identity
    K = 2 (K_12 + K_13 + K_23) = -5 z sinh(z |q|^2).
    """
    q1, q2, q3 = (float(v) for v in q)
    qq = q1 * q1 + q2 * q2 + q3 * q3
    e = np.exp
    k12 = z / 4.0 * e(-z * qq) * (1.0 + e(2 * z * q3 * q3) - 2.0 * e(2 * z * qq))
    k13 = (
        z
        / 4.0
        * e(-z * qq)
        * (
            2.0
            - e(2 * z * q3 * q3)
            + e(2 * z * q2 * q2) * e(2 * z * q3 * q3)
            - 2.0 * e(2 * z * qq)
        )
    )
    k23 = (
        z
        / 4.0
        * e(-z * qq)
        * (2.0 - e(2 * z * q2 * q2) * e(2 * z * q3 * q3) - e(2 * z * qq))
    )
    return {(0, 1): float(k12), (0, 2): float(k13), (1, 2): float(k23)}


def variable_curvature_scalar(z: float, q) -> float:
    """Closed-form scalar curvature K = -5 z sinh(z |q|^2) of the same family."""
    qq = float(np.dot(q, q))
    return float(-5.0 * z * np.sinh(z * qq))


def gaussian_curvature_variable_2d(z: float, q) -> float:
    """Closed-form Gaussian curvature -z sinh(z (q1^2 + q2^2)) in 2D."""
    qq = float(q[0]) ** 2 + float(q[1]) ** 2
    return float(-z * np.sinh(z * qq))
