"""Diagonal metrics, Christoffel symbols, Riemann tensor, curvatures.

Metric components are position functions built on :mod:`zgeoflow.dual`
primitives; the values, gradients and Hessians of all of a metric's
components come from one compiled float code.  Christoffel symbols and
Riemann entries are one formula on those float lists: the tensor getters
(:func:`christoffel`, :func:`riemann`) run it in loops and import numpy only
to build arrays, and :func:`curvature_summary` runs forward-only code
recorded off it once per dimension, so a curvature point is two compiled
calls and runs no numpy.

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

import math
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Sequence

from . import dual, taylor
from .phase import EvaluationDomainError, PhaseFunction, PhasePoint, _worst

if TYPE_CHECKING:
    import numpy as np

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
    (value, gradient, Hessian) code of all components at once.  A metric
    whose operation sequence compiled earlier in the process (the same
    Hamiltonian builder at another z or kappa2) runs that code from its
    first point.
    """

    dim: int
    components: tuple
    label: str = ""
    #: the state of q -> [g_11(q), ..., g_NN(q)] (see
    #: :func:`_component_derivatives`)
    _state: dual.CompiledGradient = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_state", dual.CompiledGradient(2))

    def _all(self, q) -> list:
        return [c(q) for c in self.components]

    def values(self, q) -> list:
        return self._nondegenerate([float(c(list(q))) for c in self.components], q)

    def _nondegenerate(self, gval, q):
        """``gval``, or MetricDegenerateError if an entry vanishes."""
        if any(abs(v) < DEGENERACY_CUTOFF for v in gval):
            raise MetricDegenerateError(f"metric {self.label} degenerate at q={q}")
        return gval

    def signature(self, q) -> tuple:
        return tuple(1 if v > 0 else -1 for v in self.values(q))

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
    the failing residual: the largest mixed entry of the momentum Hessian
    H over max(1, max_i |H_ii|), and |h - (1/2) sum_i H_ii p_i^2| over
    max(1, |h|), each on Python floats; a nan fails.  For such an
    H = (1/2) sum a_i(q) p_i^2 the definition equals g_ii(q) = 1 / (2 h(q, e_i))
    at the unit momentum e_i, which is how each component evaluates: one
    plain evaluation of h, with no momentum duals under the position passes
    of the curvature.
    """
    if h.arity != n:
        raise ValueError("Hamiltonian arity does not match requested dimension")
    for x in check_points:
        q, p = x.scalars()
        _, _, hess = taylor.compiled_jet(lambda ps: h.raw(q, ps), p)
        diag = [hess[i][i] for i in range(n)]
        off = _worst([abs(v) for i, row in enumerate(hess) for j, v in enumerate(row) if i != j])
        off /= max(1.0, *map(abs, diag))
        if not off < tolerance:
            raise NonKineticHamiltonianError(
                f"mixed momentum Hessian entry {off:.3e} (relative) exceeds {tolerance:.1e}"
            )
        value = float(h(x))
        kinetic = 0.0
        for hii, pi in zip(diag, p):
            kinetic += hii * (pi * pi)
        resid = abs(value - 0.5 * kinetic) / max(1.0, abs(value))
        if not resid < tolerance:
            raise NonKineticHamiltonianError(
                f"non-quadratic momentum dependence, relative residual {resid:.3e}"
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
    """The (value, gradient, Hessian) triple of each metric component at q,
    as float lists: d_i g_kk is triple k's gradient entry i, and d_i d_j g_kk
    its Hessian entry [i][j].  One call of the metric's
    :class:`zgeoflow.dual.CompiledGradient` state (at the first point a
    record, run by the compile rule; compiled code at the later ones)."""
    q = [float(v) for v in q]
    triples = g._state(g._all, q)
    g._nondegenerate([t[0] for t in triples], q)
    return triples


def _connection(gval, d1):
    """Gamma^k_{ij} = (d_kj d_i g_kk + d_ki d_j g_kk - d_ij d_k g_ii) / (2 g_kk)
    as lists gamma[k][i][j]: Gamma^k_{ki} = Gamma^k_{ik} = d_i g_kk / (2 g_kk),
    Gamma^k_{ii} = -d_k g_ii / (2 g_kk) for i != k, and 0 elsewhere."""
    n = len(gval)
    gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for k, gk in enumerate(gamma):
        s = 0.5 / gval[k]
        for i in range(n):  # at i = k the second line overwrites the first
            gk[i][i] = -s * d1[i][k]
            gk[k][i] = gk[i][k] = s * d1[k][i]
    return gamma


def _riemann_entry(gval, d1, d2, gamma, l, k, i, j):
    """R^l_{kij} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma^l_{im} Gamma^m_{jk}
    - Gamma^l_{jm} Gamma^m_{ik}, where d_i Gamma^l_{jk} = (d_lk d_i d_j g_ll
    + d_lj d_i d_k g_ll - d_jk d_i d_l g_jj) / (2 g_ll) - Gamma^l_{jk} d_i g_ll
    / g_ll.  The two d_lk terms cancel: each Hessian is exactly symmetric."""
    gl, dl = gamma[l], d1[l]
    second = (d2[l][i][k] if l == j else 0.0) - (d2[l][j][k] if l == i else 0.0)
    second += (d2[i][j][l] if i == k else 0.0) - (d2[j][i][l] if j == k else 0.0)
    val = (0.5 * second - gl[j][k] * dl[i] + gl[i][k] * dl[j]) / gval[l]
    for m, gm in enumerate(gamma):
        val += gl[i][m] * gm[j][k] - gl[j][m] * gm[i][k]
    return val


def _finite(values, g: DiagonalMetric, q):
    """``values``, or EvaluationDomainError if any is inf or nan: float
    arithmetic on huge but finite metric slopes (exp(|z| q^2) at a large |z|)
    overflows without raising."""
    if not all(map(math.isfinite, values)):
        raise EvaluationDomainError(f"curvature of {g.label} not finite at q={q}")
    return values


def christoffel(g: DiagonalMetric, q) -> np.ndarray:
    """Levi-Civita connection Gamma^k_{ij} of a diagonal metric, indexed
    [k, i, j]: the lists of :func:`_connection` as an array."""
    import numpy as np

    gval, d1, _ = zip(*_component_derivatives(g, q))
    return np.array(_connection(gval, d1))


def riemann(g: DiagonalMetric, q) -> np.ndarray:
    """Riemann tensor R^l_{kij}, indexed [l, k, i, j]: every entry of
    :func:`_riemann_entry` as an array."""
    import numpy as np

    gval, d1, d2 = zip(*_component_derivatives(g, q))
    gamma = _connection(gval, d1)
    riem = [_riemann_entry(gval, d1, d2, gamma, *idx) for idx in np.ndindex((g.dim,) * 4)]
    return np.reshape(_finite(riem, g, q), (g.dim,) * 4)


def curvature_summary(g: DiagonalMetric, q):
    """All sectional curvatures and the scalar, on Python floats, from the
    entries R^l_{klk} (l != k) of :func:`_riemann_entry` alone (see
    :func:`_summary`), by the forward-only code recorded off that formula
    for the metric's dimension.

    K_ij = R^i_{jij} / g_jj for i < j (the unit 2-sphere gives +1).  The Ricci
    scalar K = g^{ab} R_ab sums R^l_{klk} / g_kk over both orderings of each
    pair: it equals 2 * sum K_ij, but is not computed from the K_ij.
    """
    triples = _component_derivatives(g, q)
    n = g.dim
    code = _SUMMARIES.get(n)
    if code is None:
        code = _SUMMARIES[n] = taylor.compiled_values(_summary, _probe(n)) or _summary
    *sect, scal = _finite(code(triples), g, q)
    return dict(zip(((i, j) for i in range(n) for j in range(i + 1, n)), sect)), scal


def _summary(triples):
    """[K_ij for i < j, row by row, then K] of the metric triples of
    :func:`_component_derivatives`: each R^l_{klk} / g_kk once."""
    gval, d1, d2 = zip(*triples)
    n = len(gval)
    gamma = _connection(gval, d1)
    ratio = {
        (l, k): _riemann_entry(gval, d1, d2, gamma, l, k, l, k) / gval[k]
        for l in range(n) for k in range(n) if l != k
    }
    return [*(ratio[i, j] for i in range(n) for j in range(i + 1, n)), sum(ratio.values())]


#: dimension -> the forward-only code of :func:`_summary` (the function
#: itself where it does not compile)
_SUMMARIES = {}


def _probe(n):
    """Metric triples of dimension n to record :func:`_summary` at: its
    operations depend on n alone, and these values are distinct and nonzero,
    so the code is checked on every entry it reads."""
    values = count(1)
    return [
        (1.0 + next(values) / 64.0, [next(values) / 64.0 for _ in range(n)],
         [[next(values) / 64.0 for _ in range(n)] for _ in range(n)])
        for _ in range(n)
    ]


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
    e = math.exp
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
    return {(0, 1): k12, (0, 2): k13, (1, 2): k23}


def variable_curvature_scalar(z: float, q) -> float:
    """Closed-form scalar curvature K = -5 z sinh(z |q|^2) of the same family."""
    q1, q2, q3 = (float(v) for v in q)
    return -5.0 * z * math.sinh(z * (q1 * q1 + q2 * q2 + q3 * q3))


def gaussian_curvature_variable_2d(z: float, q) -> float:
    """Closed-form Gaussian curvature -z sinh(z (q1^2 + q2^2)) in 2D."""
    qq = float(q[0]) ** 2 + float(q[1]) ** 2
    return -z * math.sinh(z * qq)
