"""Signed-curvature trigonometry and geodesic polar charts.

The chart relations linking Cartesian realization coordinates q to geodesic
polar coordinates (rho, theta, phi) are

    cosh^2(l1 rho)                                  = e^{2z q^2}
    sinh^2(l1 rho) cos^2(l2 theta)                  = e^{2zq1^2} e^{2zq2^2} (e^{2zq3^2}-1)
    sinh^2(l1 rho) sin^2(l2 theta) cos^2(phi)       = e^{2zq1^2} (e^{2zq2^2}-1)
    sinh^2(l1 rho) sin^2(l2 theta) sin^2(phi)       = e^{2zq1^2} - 1

with z = l1^2 and kappa2 = l2^2 (either sign; kappa2 = +1 is the Riemannian
family, kappa2 = -1 the relativistic one).  Everything is written through the
curvature-dependent trigonometry of Herranz, Ortega & Santander (J. Phys. A
33 (2000) 4525): kappa_sin, kappa_cos, kappa_tan, their inverses kappa_asin
and kappa_atan, and kappa_expm1(k, x) = expm1(k x)/k, kappa_log1p(k, x) =
log1p(k x)/k.  Each is analytic in its curvature label and takes a short
Taylor series near 0, so it equals its flat limit exactly at k = 0.  Each
chart map is then one expression for every z, the flat z = 0 included, and
real and imaginary l1, l2 share one code path.

Branch policy: principal branches everywhere; Cartesian preimages live in the
positive octant (the relations only determine q_i^2).  For kappa2 < 0 the
preimage has q1^2, q2^2 < 0, so no real Cartesian point is in-chart:
real input is rejected with the violated relation, while
:func:`polar_to_cart` continues to the complex octant (q1, q2 pure
imaginary), under which every identity below still holds exactly.

Momenta and canonicity at a polar point x read one :class:`ChartPass`: a
single jet pass of the position map q(x) that gives J = dq/dx and, at
order 2, the Hessians of the q_i.  The ``transform`` command shares it
between the momentum map, the round trip and the canonicity check, and the
3x3 algebra on it (J^T p, det J, the transposed solve, the bracket blocks)
runs on Python scalars.

Momentum normalization: ``"canonical"`` momenta come from the transpose
inverse Jacobian of the position map and satisfy the fundamental brackets
exactly.  ``"chart"`` momenta are twice the canonical ones; in that
normalization the polar Hamiltonian equals exactly twice the Cartesian one
and the polar constants equal 4 (resp. 4 kappa2) times the Cartesian
Casimirs, matching the line-element (factor 2) metric convention of
:mod:`zgeoflow.geometry`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from . import dual
from .kernels import SERIES_CUTOFF, sin_kernel
from .kernels import cos_kernel as _cos_kernel
from .phase import EvaluationDomainError, PhaseFunction, PhasePoint, scalar_vector

#: chart momenta are this multiple of canonical ones
CHART_MOMENTUM_FACTOR = 2.0


class OutOfChartError(ValueError):
    """Input outside the chart domain; ``relation`` is the 1-based index of
    the violated chart relation when applicable."""

    def __init__(self, message, relation=None):
        super().__init__(message)
        self.relation = relation


@dataclass(frozen=True)
class SpaceSignature:
    """The signed pair (kappa1 = z, kappa2) selecting one of the six spaces."""

    kappa1: float
    kappa2: float

    def __post_init__(self):
        if self.kappa2 == 0.0:
            raise ValueError("kappa2 must be nonzero")

    @property
    def family(self) -> str:
        riem = self.kappa2 > 0
        if self.kappa1 > 0:
            return "hyperbolic" if riem else "de Sitter"
        if self.kappa1 < 0:
            return "sphere" if riem else "anti-de Sitter"
        return "Euclidean" if riem else "Minkowski"


# ---------------------------------------------------------------------------
# signed-curvature trigonometry
# ---------------------------------------------------------------------------


#: sin(sqrt(u))/sqrt(u) and cos(sqrt(u)), analytic in u (sinh and cosh
#: branches for u < 0): one table entry each
_sin_kernel = sin_kernel(0)


def kappa_sin(kappa: float, x):
    """sin(sqrt(kappa) x)/sqrt(kappa), smooth in kappa, equal to x at kappa=0."""
    return x * _sin_kernel(kappa * x * x)


def kappa_cos(kappa: float, x):
    """cos(sqrt(kappa) x), smooth in kappa, equal to 1 at kappa=0."""
    return _cos_kernel(kappa * x * x)


def kappa_tan(kappa: float, x):
    """kappa_sin / kappa_cos; for kappa < 0 the bounded tanh(r x)/r with
    r = sqrt(-kappa), whose sinh and cosh factors would each overflow once
    r |x| passes 710."""
    if dual.primal(kappa).real < 0 and abs(dual.primal(kappa * x * x)) >= SERIES_CUTOFF:
        r = dual.sqrt(-kappa)
        return dual.tanh(r * x) / r
    return kappa_sin(kappa, x) / kappa_cos(kappa, x)


def kappa_expm1(kappa: float, x):
    """expm1(kappa x)/kappa, smooth in kappa, equal to x at kappa=0."""
    u = kappa * x
    if abs(dual.primal(u)) < SERIES_CUTOFF:
        return x * (1.0 + u * (0.5 + u * (1.0 / 6.0 + u / 24.0)))
    return dual.expm1(u) / kappa


def kappa_log1p(kappa: float, x):
    """log1p(kappa x)/kappa, smooth in kappa, equal to x at kappa=0."""
    u = kappa * x
    if abs(dual.primal(u)) < SERIES_CUTOFF:
        return x * (1.0 - u * (0.5 - u * (1.0 / 3.0 - u / 4.0)))
    return dual.log1p(u) / kappa


def kappa_asin(kappa: float, y):
    """asin(sqrt(kappa) y)/sqrt(kappa), the inverse of kappa_sin, smooth in
    kappa (asinh branch for kappa < 0), equal to y at kappa=0."""
    u = kappa * y * y
    up = dual.primal(u)
    if abs(up) < SERIES_CUTOFF:
        return y * (1.0 + u * (1.0 / 6.0 + u * (3.0 / 40.0 + u * 5.0 / 112.0)))
    if up.real > 0:
        v = dual.sqrt(u)
        return y * dual.asin(v) / v
    v = dual.sqrt(-u)
    return y * dual.asinh(v) / v


def kappa_atan(kappa: float, y):
    """atan(sqrt(kappa) y)/sqrt(kappa), the inverse of :func:`kappa_tan`."""
    return kappa_asin(kappa, y / dual.sqrt(1.0 + kappa * y * y))


# ---------------------------------------------------------------------------
# chart maps (generic scalars: float / complex / dual)
# ---------------------------------------------------------------------------


def _real(x):
    return dual.primal(x).real


# i x, part by part.  A real part r becomes complex(0.0, r), which for
# r >= 0 is exactly the principal complex sqrt of -r^2.
_times_i = dual._elementary(
    "_times_i", lambda r: complex(0.0, r), lambda c: 1j * c, lambda x, v: 1j, lambda x, v, g: 0.0
)


def _cart_to_polar_generic(q, z: float, kappa2: float):
    w = [qi * qi for qi in q]
    if abs(_real(w[0] + w[1] + w[2])) == 0.0:
        return [0.0, 0.0, 0.0]
    # m_i = (e^{2z q_i^2} - 1)/z and e_i = e^{2z q_i^2} = 1 + z m_i; the
    # expm1 addition rule sums the m_i with positive terms for either sign of z
    m = [kappa_expm1(z, 2.0 * wi) for wi in w]
    e = [1.0 + z * mi for mi in m]
    m12 = m[0] * e[1] + m[1]
    mqq = m12 * e[2] + m[2]  # sinh^2(l1 rho)/z
    mp = _real(mqq)
    if not (mp >= 0.0 and 1.0 + z * mp > 0.0):
        raise OutOfChartError("e^{2z q^2} outside its branch", relation=1)
    rho = kappa_asin(-z, dual.sqrt(mqq))
    if _real(e[0] * e[1] * m[2] / mqq) < -1e-12:
        raise OutOfChartError("cos^2(l2 theta) < 0", relation=2)
    ks2 = m12 / (kappa2 * mqq)  # sin^2(l2 theta)/kappa2
    if _real(ks2) < -1e-12:
        raise OutOfChartError("sin^2(l2 theta)/kappa2 < 0 (wrong relativistic octant)", relation=3)
    den = e[0] * m[1]
    ratio_phi = None if abs(_real(den)) < 1e-300 else m[0] / den  # tan^2(phi)
    if ratio_phi is not None and _real(ratio_phi) < -1e-12:
        raise OutOfChartError("tan^2(phi) < 0 (wrong relativistic octant)", relation=4)
    theta = kappa_asin(kappa2, dual.sqrt(ks2))
    phi = math.pi / 2 if ratio_phi is None else dual.atan(dual.sqrt(ratio_phi))
    return [rho, theta, phi]


def _polar_to_cart_generic(x, z: float, kappa2: float):
    rho, theta, phi = x
    if -z * _real(rho) ** 2 >= (math.pi / 2) ** 2:
        raise OutOfChartError("rho outside the principal branch for z < 0", relation=1)
    sin_phi = dual.sin(phi)
    s = kappa_sin(-z, rho) ** 2                 # sinh^2(l1 rho)/z
    t = kappa2 * kappa_sin(kappa2, theta) ** 2  # sin^2(l2 theta)
    # log(cosh^2)/z = log1p(z s)/z, one expression for every z
    args = (s * t * sin_phi * sin_phi, s * t, s)
    for idx, arg in enumerate(args):
        if z * _real(arg) <= -1.0:
            raise OutOfChartError(
                "logarithm of non-positive value (outside chart)",
                relation=(4, 3, 1)[idx],
            )
    w1, w12, ws = (0.5 * kappa_log1p(z, arg) for arg in args)
    w = [w1, w12 - w1, ws - w12]
    out = []
    for i, wi in enumerate(w):
        if _real(wi) < 0.0:
            if kappa2 > 0:
                raise OutOfChartError(
                    f"q_{i + 1}^2 < 0 has no real preimage on the kappa2 > 0 branch",
                    relation=4 - i,
                )
            # q_i = i sqrt(-w_i): the positive imaginary axis for every sign
            # of zero or roundoff in the imaginary part of w_i
            out.append(_times_i(dual.sqrt(-wi)))
        else:
            out.append(dual.sqrt(wi))
    return out


def _image(f, x, z, kappa2, what):
    """``f(x, z, kappa2)`` on the Python scalars of ``x``, returned as
    Python scalars (all complex if one is: see
    :func:`~zgeoflow.phase.scalar_vector`), or OutOfChartError if the map
    overflowed: to inf or nan, or with an OverflowError or
    ZeroDivisionError."""
    x = scalar_vector(x)
    if len(x) != 3:
        raise ValueError("the geodesic polar chart is three-dimensional")
    try:
        image = f(x, float(z), float(kappa2))
    except (OverflowError, ZeroDivisionError):
        image = [math.nan]
    if not all(map(cmath.isfinite, image)):
        raise OutOfChartError(f"{what} coordinates not finite (overflow)")
    return scalar_vector(image)


def cart_to_polar(q, z: float, kappa2: float = 1.0) -> list:
    """Solve the chart relations for (rho, theta, phi) on the principal
    branch, on Python scalars: complex ones for a complex-octant q.  At a
    huge |z| the arguments 2 (z q_i^2) overflow; that image is out of chart."""
    return _image(_cart_to_polar_generic, q, z, kappa2, "polar")


def polar_to_cart(x, z: float, kappa2: float = 1.0) -> list:
    """Positive-octant Cartesian preimage of a polar point, on Python scalars.

    For kappa2 < 0 the first two components are pure imaginary (complex
    octant); the squared coordinates remain real.
    """
    return _image(_polar_to_cart_generic, x, z, kappa2, "Cartesian")


def chart_relation_residuals(q, x, z: float, kappa2: float) -> list:
    """Absolute residuals of the four chart relations at matched (q, x),
    evaluated on Python complex scalars."""
    z, kappa2 = float(z), float(kappa2)
    rho, theta, phi = (complex(v) for v in x)
    e = [cmath.exp(2.0 * (z * complex(qi) ** 2)) for qi in q]
    a = z * kappa_sin(-z, rho) ** 2
    t = kappa2 * kappa_sin(kappa2, theta) ** 2
    c2 = kappa_cos(kappa2, theta) ** 2
    lhs = (kappa_cos(-z, rho) ** 2, a * c2, a * t * cmath.cos(phi) ** 2, a * t * cmath.sin(phi) ** 2)
    rhs = (e[0] * e[1] * e[2], e[0] * e[1] * (e[2] - 1.0), e[0] * (e[1] - 1.0), e[0] - 1.0)
    return [abs(u - v) for u, v in zip(lhs, rhs)]


_SINGULAR = "singular Jacobian (chart boundary)"


def _chart_jet(f, args, order):
    """``dual.jet`` of a chart map; a division by zero or an overflow in the
    derivative parts (sqrt(w)' at w = 0, say) is the chart boundary."""
    try:
        return dual.jet(f, args, order)
    except (ZeroDivisionError, OverflowError) as err:
        raise OutOfChartError(_SINGULAR) from err


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def _solve_transposed(m, b):
    """y with m^T y = b: Gaussian elimination with partial pivoting on the
    augmented rows of m^T."""
    n = len(b)
    rows = [[m[i][r] for i in range(n)] + [b[r]] for r in range(n)]
    for c in range(n):
        piv = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[piv] = rows[piv], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    y = [0.0] * n
    for r in reversed(range(n)):
        acc = rows[r][n]
        for k in range(r + 1, n):
            acc = acc - rows[r][k] * y[k]
        y[r] = acc / rows[r][r]
    return y


class ChartPass:
    """The chart pass at a polar point x: one jet pass of the position map
    q(x) of :func:`polar_to_cart`, run on first use and then read by every
    consumer of the point (momentum map, round trip, canonicity check).

    ``jacobian`` is J = dq/dx as a list of rows (J[i][a] = dq_i/dx_a);
    ``hessians`` (``order=2`` only) are the symmetric T_i = d^2 q_i/dx^2.
    Reading either raises OutOfChartError where J is singular: non-finite
    parts, |det J| < 1e-12, or a division by zero or overflow in the pass.
    """

    def __init__(self, x, z: float, kappa2: float, order: int = 1):
        self.x = [complex(v) if isinstance(v, complex) else float(v) for v in x]
        if len(self.x) != 3:
            raise ValueError("the geodesic polar chart is three-dimensional")
        self.z, self.kappa2, self.order = float(z), float(kappa2), order

    @functools.cached_property
    def _parts(self):
        z, kappa2 = self.z, self.kappa2
        cart = _chart_jet(lambda xs: _polar_to_cart_generic(xs, z, kappa2), self.x, self.order)
        jac = [g for _, g, _ in cart]
        if not all(cmath.isfinite(v) for row in jac for v in row) or abs(_det3(jac)) < 1e-12:
            raise OutOfChartError(_SINGULAR)
        return jac, [h for _, _, h in cart]

    @property
    def jacobian(self) -> list:
        return self._parts[0]

    @property
    def hessians(self) -> list:
        if self.order != 2:
            raise ValueError("the Hessians need a chart pass of order 2")
        return self._parts[1]


@dataclass(frozen=True)
class PolarPoint:
    """A point of the polar chart with its conjugate momenta."""

    rho: float
    theta: float
    phi: float
    p_rho: float
    p_theta: float
    p_phi: float

    def position(self) -> list:
        return scalar_vector([self.rho, self.theta, self.phi])

    def momentum(self) -> list:
        return scalar_vector([self.p_rho, self.p_theta, self.p_phi])

    def as_phase_point(self) -> PhasePoint:
        return PhasePoint(self.position(), self.momentum())


def _check_normalization(normalization):
    if normalization not in ("canonical", "chart"):
        raise ValueError("normalization must be 'canonical' or 'chart'")


def transform_to_polar(
    point: PhasePoint,
    z: float,
    kappa2: float,
    normalization: str = "canonical",
    chart: ChartPass | None = None,
) -> PolarPoint:
    """Map a Cartesian phase point into the polar chart.

    Canonical momenta are P = J^T p with J = dq/dx the Jacobian of the
    position map at x = cart_to_polar(q); chart momenta are
    CHART_MOMENTUM_FACTOR times those.  ``chart`` is the :class:`ChartPass`
    at that x, for a caller that reads it again (one is made otherwise); x
    is then read off it.  A zero p takes no pass.
    """
    _check_normalization(normalization)
    if point.dim != 3:
        raise ValueError("the geodesic polar chart is three-dimensional")
    if chart is None:
        chart = ChartPass(cart_to_polar(point.q, z, kappa2), z, kappa2)
    _, p = point.scalars()
    if not any(p):  # only an exactly zero momentum skips the pass
        mom = [0.0, 0.0, 0.0]
    else:
        jac = chart.jacobian
        mom = [jac[0][a] * p[0] + jac[1][a] * p[1] + jac[2][a] * p[2] for a in range(3)]
        if normalization == "chart":
            mom = [CHART_MOMENTUM_FACTOR * v for v in mom]
    vals = []
    for v in [*chart.x, *mom]:
        if isinstance(v, complex) and abs(v.imag) <= 1e-12 * max(1.0, abs(v.real)):
            v = v.real  # complex-octant outputs are real up to roundoff
        vals.append(v)
    return PolarPoint(*vals)


def transform_to_cartesian(
    polar: PolarPoint,
    z: float,
    kappa2: float,
    normalization: str = "canonical",
    chart: ChartPass | None = None,
) -> PhasePoint:
    """Inverse of :func:`transform_to_polar` (complex octant for kappa2 < 0).

    The momenta solve J^T p = P for the Jacobian J of the position map at
    x = polar.position(), read off ``chart`` (the :class:`ChartPass` at x;
    one is made otherwise).  A zero P takes no pass.
    """
    _check_normalization(normalization)
    x = polar.position()
    q = polar_to_cart(x, z, kappa2)
    mom = polar.momentum()
    if normalization == "chart":
        mom = [v / CHART_MOMENTUM_FACTOR for v in mom]
    if not any(mom):  # only an exactly zero momentum skips the pass
        return PhasePoint(q, [0j if isinstance(q[0], complex) else 0.0] * 3)
    if chart is None:
        chart = ChartPass(x, z, kappa2)
    return PhasePoint(q, _solve_transposed(chart.jacobian, mom))


def polar_chart_functions(z: float, kappa2: float):
    """The six polar chart variables as functions on the Cartesian phase space.

    Returns (rho, theta, phi, p_rho, p_theta, p_phi) as PhaseFunctions with
    canonical momentum normalization, suitable for verifying the fundamental
    brackets in the original chart.
    """
    names = ("rho", "theta", "phi", "p_rho", "p_theta", "p_phi")

    def make_position(a):
        def fn(q, p):
            return _cart_to_polar_generic(list(q), z, kappa2)[a]

        return fn

    def make_momentum(a):
        def fn(q, p):
            x = _cart_to_polar_generic(list(q), z, kappa2)
            col = dual.partial(lambda xs: _polar_to_cart_generic(xs, z, kappa2), x, a)
            total = 0.0
            for i in range(3):
                total = total + col[i] * p[i]
            return total

        return fn

    fns = [make_position(a) for a in range(3)] + [make_momentum(a) for a in range(3)]
    return tuple(PhaseFunction(3, f, n) for f, n in zip(fns, names))


def fundamental_bracket_residuals(
    point: PhasePoint, z: float, kappa2: float, chart: ChartPass | None = None
) -> list:
    """|{u_a, u_b} - canonical| for the six polar chart variables at a point.

    Two jet passes give all six gradients.  Its own first-order pass of the
    chart map gives x(q) and A = dx/dq, an independent check of J; the
    second-order :class:`ChartPass` at x gives J = dq/dx and the Hessians
    T_i.  ``chart`` is that pass at x = cart_to_polar(q), shared with the
    caller's transform (one is made otherwise).  The canonical momenta are
    P = J^T p, so the Jacobian of (x, P) in (q, p) is [[A, 0], [M A, J^T]]
    with M = sum_i p_i T_i, and the brackets of those rows (as in
    :func:`zgeoflow.brackets.bracket_matrix`) come in three blocks:
    {x, x} = 0, {x_a, P_b} = (AJ)_ab and {P_a, P_b} = (MAJ)_ab - (MAJ)_ba.
    Returned as the 6x6 residuals against the symplectic form, a list of
    rows of Python floats.
    """
    if point.dim != 3:
        raise ValueError("the geodesic polar chart is three-dimensional")
    z, kappa2 = float(z), float(kappa2)
    q, p = point.scalars()
    polar = _chart_jet(lambda qs: _cart_to_polar_generic(qs, z, kappa2), q, 1)
    if chart is None:
        chart = ChartPass([v for v, _, _ in polar], z, kappa2, order=2)
    a = [g for _, g, _ in polar]
    jac, curv = chart.jacobian, chart.hessians
    m = [
        [sum(p[i] * curv[i][r][c] for i in range(3)) for c in range(3)] for r in range(3)
    ]
    ma = _matmul(m, a)
    if not all(cmath.isfinite(v) for rows in (a, ma) for row in rows for v in row):
        raise EvaluationDomainError(f"polar chart Jacobian not finite at {point}")
    aj, maj = _matmul(a, jac), _matmul(ma, jac)
    res = [[0.0] * 6 for _ in range(6)]
    for r in range(3):
        for c in range(3):
            res[r][3 + c] = res[3 + c][r] = abs(aj[r][c] - (1.0 if r == c else 0.0))
            res[3 + r][3 + c] = abs(maj[r][c] - maj[c][r])
    return res


# ---------------------------------------------------------------------------
# radial reparametrization rho <-> r
# ---------------------------------------------------------------------------


def rho_to_r(rho: float, z: float) -> float:
    """The arc-length radial coordinate r with kappa_cos(-z, rho) kappa_cos(z, r) = 1.

    Equals the integral of 1/cosh(l1 x) from 0 to rho on the z > 0 branch.
    The half-angle Gudermannian r = 2 kappa_atan(z, kappa_tan(-z, rho/2)) is
    one expression for every z, well conditioned at both ends of the branch.
    """
    rho, z = float(rho), float(z)
    if rho < 0:
        raise OutOfChartError("rho must be nonnegative")
    if -z * rho * rho >= (math.pi / 2) ** 2:
        raise OutOfChartError("rho outside the principal branch for z < 0")
    return 2.0 * kappa_atan(z, kappa_tan(-z, 0.5 * rho))


def r_to_rho(r: float, z: float) -> float:
    """Inverse of :func:`rho_to_r` on the principal branch."""
    r, z = float(r), float(z)
    if r < 0:
        raise OutOfChartError("r must be nonnegative")
    if z * r * r >= (math.pi / 2) ** 2:
        raise OutOfChartError("r outside the principal branch for z > 0")
    return 2.0 * kappa_atan(-z, kappa_tan(z, 0.5 * r))


# ---------------------------------------------------------------------------
# polar-chart Hamiltonians and their constants of motion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolarSystem:
    """A polar-chart Hamiltonian with its constants of motion by label."""

    hamiltonian: PhaseFunction
    constants: dict
    chart: str
    z: float
    kappa2: float


def _guard(what):
    """The identity as a table entry whose value raises EvaluationDomainError
    at |x| < 1e-12, the chart boundary where ``what`` vanishes."""

    def check(x):
        if abs(x) < 1e-12:
            raise EvaluationDomainError(f"chart-boundary singularity: {what} = 0")
        return x

    return dual._elementary(
        f"guard[{what}]", check, check, lambda x, v: 1.0, lambda x, v, g: 0.0
    )


_guard_rho = _guard("sinh(l1 rho)/l1")
_guard_r = _guard("sin(l1 r)/l1")
_guard_theta = _guard("sin(l2 theta)/l2")


def _angular(q, p, kappa2):
    """p_theta^2 + p_phi^2 / ks(kappa2, theta)^2: the polar C(3), and the
    angular part of both polar Hamiltonians."""
    ks_t = _guard_theta(kappa_sin(kappa2, q[1]))
    return p[1] * p[1] + p[2] * p[2] / (ks_t * ks_t)


def _polar_casimirs(kappa2: float) -> dict:
    """C(2) = p_phi^2 and C(3) = p_theta^2 + p_phi^2 / ks(kappa2, theta)^2,
    shared by both polar systems."""
    return {
        "C(2)": PhaseFunction(3, lambda q, p: p[2] * p[2], "C(2)p"),
        "C(3)": PhaseFunction(3, lambda q, p: _angular(q, p, kappa2), "C(3)p"),
    }


def integrable_polar_system(z: float, kappa2: float) -> PolarSystem:
    """Geodesic flow of the variable-curvature family over (rho, theta, phi).

    H = (1/2) cosh(l1 rho) [p_rho^2 + (p_theta^2 + p_phi^2/ks(k2,theta)^2)
        / (kappa2 ks(-z,rho)^2)]
    with constants C(2) = p_phi^2 and
    C(3) = p_theta^2 + p_phi^2 / ks(kappa2, theta)^2.
    """
    z = float(z)
    kappa2 = float(kappa2)

    def ham(q, p):
        ks_r = _guard_rho(kappa_sin(-z, q[0]))
        angular = _angular(q, p, kappa2)
        kc_r = kappa_cos(-z, q[0])
        return 0.5 * kc_r * (p[0] * p[0] + angular / (kappa2 * ks_r * ks_r))

    return PolarSystem(
        hamiltonian=PhaseFunction(3, ham, "H_polar_int"),
        constants=_polar_casimirs(kappa2),
        chart="rho",
        z=z,
        kappa2=kappa2,
    )


def superintegrable_polar_system(z: float, kappa2: float) -> PolarSystem:
    """Constant-curvature geodesic flow over (r, theta, phi) with 4 constants.

    H = (1/2) [p_r^2 + (p_theta^2 + p_phi^2/ks(k2,theta)^2)/(kappa2 ks(z,r)^2)];
    constants C(2), C(3) as in the integrable system plus the two extra
    quadratic integrals I(2), I(3).
    """
    z = float(z)
    kappa2 = float(kappa2)

    def ham(q, p):
        ks_r = _guard_r(kappa_sin(z, q[0]))
        return 0.5 * (p[0] * p[0] + _angular(q, p, kappa2) / (kappa2 * ks_r * ks_r))

    def integral_terms(q):
        """ks(kappa2, theta), kc(kappa2, theta) and cot(r) = kc(z, r)/ks(z, r),
        which I(2) and I(3) share."""
        ks_r = _guard_r(kappa_sin(z, q[0]))
        ks_t = _guard_theta(kappa_sin(kappa2, q[1]))
        kc_r = kappa_cos(z, q[0])
        kc_t = kappa_cos(kappa2, q[1])
        return ks_t, kc_t, kc_r / ks_r

    def i_two(q, p):
        ks_t, kc_t, cot_r = integral_terms(q)
        sphi = dual.sin(q[2])
        lin = (
            kappa2 * ks_t * sphi * p[0]
            + kc_t * sphi * cot_r * p[1]
            + dual.cos(q[2]) * cot_r / ks_t * p[2]
        )
        return lin * lin

    def i_three(q, p):
        ks_t, kc_t, cot_r = integral_terms(q)
        lin = kappa2 * ks_t * p[0] + kc_t * cot_r * p[1]
        coeff = z * kappa2 + (cot_r / ks_t) * (cot_r / ks_t)
        return lin * lin + coeff * p[2] * p[2]

    return PolarSystem(
        hamiltonian=PhaseFunction(3, ham, "H_polar_sup"),
        constants={
            **_polar_casimirs(kappa2),
            "I(2)": PhaseFunction(3, i_two, "I(2)p"),
            "I(3)": PhaseFunction(3, i_three, "I(3)p"),
        },
        chart="r",
        z=z,
        kappa2=kappa2,
    )


def superintegrable_matched_state(
    point: PhasePoint, z: float, kappa2: float, normalization: str = "canonical"
) -> PhasePoint:
    """Map a Cartesian phase point to the (r, theta, phi) chart.

    Composition of :func:`transform_to_polar` with the radial
    reparametrization; p_r = p_rho * cosh(l1 rho) since dr/drho =
    1/cosh(l1 rho).
    """
    polar = transform_to_polar(point, z, kappa2, normalization)
    r = rho_to_r(polar.rho, z)
    p_r = polar.p_rho * kappa_cos(-z, polar.rho)
    return PhasePoint(
        [r, polar.theta, polar.phi], [p_r, polar.p_theta, polar.p_phi]
    )
