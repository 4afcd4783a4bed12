"""Exact differentiation, the canonical Poisson bracket and verification tools.

Gradients are one reverse pass of :mod:`zgeoflow.dual` (machine precision);
a central finite-difference path exists purely as an independent
cross-check oracle and is never used by the bracket itself.  A gradient is
a tuple of Python scalars.  :func:`gradient_rows` stacks them into the
one table of gradient rows that the algebra, involution and rank checks
read; they differentiate nothing themselves.  The verification suites (the
seeded sample draws, the row table, the bracket residual tables, the rank's
SVD) import numpy in their bodies, so only ``verify`` loads it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .algebra import sinhc
# perfbench/tracing.py binds this name in this module; keep it
from .algebra import realize_generators
from .phase import EvaluationDomainError, PhaseFunction, PhasePoint, gradient_lists

if TYPE_CHECKING:
    import numpy as np

#: default relative tolerance on singular values for the numerical rank
RANK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class PhaseGradient:
    """Partial derivatives of a phase function at a point, as tuples."""

    dq: tuple
    dp: tuple

    def flat(self) -> tuple:
        return self.dq + self.dp


def gradient(f: PhaseFunction, x: PhasePoint) -> PhaseGradient:
    """Machine-precision gradient of ``f`` at ``x`` from one reverse pass.

    The entries are complex at a complex point, floats otherwise.  A
    non-finite gradient raises EvaluationDomainError.
    """
    if f.arity != x.dim:
        raise ValueError("arity mismatch between function and point")
    dq, dp = gradient_lists(f, *x.scalars())
    if isinstance(x.q[0], complex) or isinstance(x.p[0], complex):
        kind, finite = complex, cmath.isfinite
    else:
        kind, finite = float, math.isfinite
    grad = [kind(v) for v in (*dq, *dp)]
    if not all(map(finite, grad)):
        raise EvaluationDomainError(f"gradient of {f.label} not finite at {x}")
    return PhaseGradient(tuple(grad[: x.dim]), tuple(grad[x.dim :]))


def gradient_fd(f: PhaseFunction, x: PhasePoint) -> PhaseGradient:
    """Central finite-difference gradient; independent test oracle only."""
    n = x.dim
    base = list(x.flat())
    cbrt_eps = sys.float_info.epsilon ** (1.0 / 3.0)
    out = []
    for i in range(2 * n):
        h = cbrt_eps * max(1.0, abs(base[i]))
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        fu = f(PhasePoint.from_flat(up))
        fd = f(PhasePoint.from_flat(dn))
        out.append((fu - fd) / (2.0 * h))
    return PhaseGradient(tuple(out[:n]), tuple(out[n:]))


def gradient_rows(funcs, points):
    """Gradient rows (dq, dp) of ``funcs`` at ``points``: arrays indexed
    [point, function, coordinate], with ``dq[k, a] = d f_a / dq`` at
    ``points[k]``.  The one place the bracket, algebra, involution and rank
    checks differentiate: one :func:`gradient` per function and point."""
    import numpy as np

    arities = {f.arity for f in funcs}
    if len(arities) != 1:
        raise ValueError("arity mismatch between bracket arguments")
    grads = [gradient(f, x) for x in points for f in funcs]
    shape = (len(points), len(funcs), arities.pop())
    return (
        np.array([g.dq for g in grads]).reshape(shape),
        np.array([g.dp for g in grads]).reshape(shape),
    )


def bracket_matrix(funcs, x: PhasePoint):
    """All brackets {f_a, f_b} among ``funcs`` at ``x``, from one gradient each.

    With the gradients as rows of Dq, Dp: vals = Dq Dp^T - Dp Dq^T (exactly
    antisymmetric) and the roundoff scales |Dq| |Dp|^T + |Dp| |Dq|^T.  Huge
    finite gradients overflow to inf and nan here without a warning; the
    residual checks scale each function's rows first (:func:`_scaled_rows`).
    """
    dq, dp = gradient_rows(funcs, [x])
    return gradient_brackets(dq[0], dp[0])


def gradient_brackets(dq, dp):
    """(vals, scales) of :func:`bracket_matrix` from the gradient rows
    ``dq[a] = d f_a / dq`` and ``dp[a] = d f_a / dp``, however obtained."""
    import numpy as np

    with np.errstate(all="ignore"):
        cross, size = dq @ dp.T, np.abs(dq) @ np.abs(dp).T
        return cross - cross.T, size + size.T


def _scaled_rows(dq, dp):
    """(dq, dp, unit) with the rows of each f_a (axis -2) divided by 2^e_a,
    e_a >= 0 the ``frexp`` exponent of their largest |entry|, which keeps
    the products of rows up to 1e284 finite; unit[..., a, b] = 2^-(e_a +
    e_b) is the factor that this scales {f_a, f_b} and its scale by."""
    import numpy as np

    top = np.maximum(np.abs(dq).max(axis=-1, initial=0.0), np.abs(dp).max(axis=-1, initial=0.0))
    factor = np.ldexp(1.0, -np.maximum(np.frexp(top)[1], 0))[..., None]
    return dq * factor, dp * factor, factor * np.swapaxes(factor, -1, -2)


def _scaled_residual(vals, scales, unit, target=0.0):
    """|{f_a, f_b} - target| / max(1, |target|, scale), elementwise, from
    the brackets of rows scaled by :func:`_scaled_rows`, with 1 and the
    target scaled by ``unit`` to match: exact, so a residual that does not
    overflow keeps its bits."""
    import numpy as np

    with np.errstate(all="ignore"):
        target = unit * target
        return np.abs(vals - target) / np.maximum(np.maximum(unit, np.abs(target)), scales)


def poisson_bracket(f: PhaseFunction, g: PhaseFunction, x: PhasePoint):
    """Canonical bracket {f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i."""
    val = bracket_matrix((f, g), x)[0][0, 1]
    return val if isinstance(val, complex) else float(val)


def bracket_residual(f: PhaseFunction, g: PhaseFunction, x: PhasePoint, target=0.0):
    """|{f, g} - target| scaled by the intrinsic magnitude of the bracket.

    The scale is max(1, |target|, sum_i |df/dq_i dg/dp_i| + |df/dp_i dg/dq_i|),
    the level at which float64 roundoff necessarily lives; identities that hold
    algebraically give residuals near machine epsilon in this measure
    regardless of how large the generator values grow on the sampling domain.
    """
    dq, dp, unit = _scaled_rows(*gradient_rows((f, g), [x]))
    vals, scales = gradient_brackets(dq[0], dp[0])
    return float(_scaled_residual(vals[0, 1], scales[0, 1], unit[0, 0, 1], target))


def sample_points(n: int, samples: int, seed: int, scale: float = 2.0):
    """Seed-reproducible sample of phase points with |q_i|, |p_i| <= scale.

    Each point is drawn from a generator seeded by (seed, index), so the
    sample is independent of evaluation order.
    """
    import numpy as np

    pts = []
    for k in range(samples):
        rng = np.random.default_rng([seed, k])
        vec = rng.uniform(-scale, scale, size=2 * n)
        pts.append(PhasePoint(vec[:n], vec[n:]))
    return pts


@dataclass(frozen=True)
class AlgebraReport:
    """Max residuals of the three defining bracket relations over a sample,
    and the first nan residual's (sample index, a, b), where {f_a, f_b} is
    its bracket of (J-, J+, J3), if any."""

    residual_j3_jplus: float
    residual_j3_jminus: float
    residual_jminus_jplus: float
    first_nan: tuple | None = None

    @property
    def max_residual(self) -> float:
        """The largest residual; nan if any residual is nan, so it fails."""
        import numpy as np

        worst = np.array(
            [self.residual_j3_jplus, self.residual_j3_jminus, self.residual_jminus_jplus]
        )
        return float(worst.max())


def check_algebra(z: float, values, dq, dp) -> AlgebraReport:
    """Verify the three defining brackets of the realization at sample points.

    ``values[k]`` holds (J-, J+, J3) at point k and ``dq[k]``, ``dp[k]``
    their gradient rows (:func:`gradient_rows`).  Scaled residuals (see
    :func:`bracket_residual`) of:
        {J3, J+} - 2 J+ cosh(z J-)
        {J3, J-} + 2 J- sinhc(z J-)        (equals -2 sinh(zJ-)/z, z = 0 safe)
        {J-, J+} - 4 J3
    """
    import numpy as np

    if len(values) < 1:
        raise ValueError("need at least one sample")
    pairs = ([2, 2, 0], [1, 0, 1])  # {J3, J+}, {J3, J-}, {J-, J+} in (J-, J+, J3)
    worst, first_nan = np.zeros(3), None
    dq, dp, units = _scaled_rows(dq, dp)
    with np.errstate(all="ignore"):
        for k, ((jm_v, jp_v, j3_v), q, p, unit) in enumerate(zip(values, dq, dp, units)):
            target = np.array(
                [2.0 * jp_v * np.cosh(z * jm_v), -2.0 * jm_v * sinhc(z * jm_v), 4.0 * j3_v]
            )
            vals, scales = gradient_brackets(q, p)
            res = _scaled_residual(vals[pairs], scales[pairs], unit[pairs], target)
            worst = np.maximum(worst, res)
            if first_nan is None and np.isnan(res).any():
                r = int(np.argmax(np.isnan(res)))
                first_nan = (k, pairs[0][r], pairs[1][r])
    return AlgebraReport(*(float(r) for r in worst), first_nan)


@dataclass(frozen=True)
class InvolutionReport:
    """Pairwise max |{f_i, f_j}| over a sample of phase points, and each
    point's residual matrix, indexed [point, i, j]."""

    residuals: np.ndarray
    samples: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(self.residuals.max())

    def first_nan(self, *blocks):
        """(point index, i, j) of the first nan residual in the blocks
        (rows, columns), block by block, point by point and row by row; None
        if there is none."""
        import numpy as np

        for rows, cols in blocks:
            rows, cols = list(rows), list(cols)
            hits = np.argwhere(np.isnan(self.samples[:, rows][:, :, cols]))
            if len(hits):
                k, a, b = hits[0]
                return int(k), rows[a], cols[b]
        return None


def check_involution(dq, dp) -> InvolutionReport:
    """Pairwise scaled bracket residual matrix of the functions whose
    gradient rows (:func:`gradient_rows`) are ``dq``, ``dp``."""
    import numpy as np

    samples = np.empty((len(dq), dq.shape[1], dq.shape[1]))
    for k, (q, p, unit) in enumerate(zip(*_scaled_rows(dq, dp))):
        samples[k] = _scaled_residual(*gradient_brackets(q, p), unit)
    return InvolutionReport(samples.max(axis=0, initial=0.0), samples)


class IndependenceRank(NamedTuple):
    """Numerical rank of a set of gradients, and its margin: the smallest
    kept singular value over the largest (1 when every value is kept at
    full size, near ``tolerance`` when the rank decision was close; 0.0 at
    rank 0)."""

    rank: int
    margin: float


def independence_rank(dq, dp, tolerance: float = RANK_TOLERANCE) -> IndependenceRank:
    """Numerical rank of one point's gradient rows ``dq``, ``dp`` (indexed
    [function, coordinate]), each row the gradient (dq, dp) of one function.

    Each gradient row is first divided by its largest entry in magnitude
    (which cannot overflow, unlike its length).  Row scaling leaves the
    rank unchanged, but without it a relative singular-value cut reads rows
    of very different magnitude (|grad H_sup| ~ 1e8 against |grad I2| ~ 0.2
    at n = 8) as dependence.  Singular values above ``tolerance`` times the
    largest one then count.
    """
    import numpy as np

    mat = np.concatenate([dq, dp], axis=1)
    scale = np.max(np.abs(mat), axis=1, initial=0.0)
    mat = mat / np.where(scale > 0.0, scale, 1.0)[:, None]
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return IndependenceRank(0, 0.0)
    rank = int(np.sum(svals > tolerance * svals[0]))
    return IndependenceRank(rank, float(svals[rank - 1] / svals[0]))
