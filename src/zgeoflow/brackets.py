"""Exact differentiation, the canonical Poisson bracket and verification tools.

Gradients are one reverse pass of :mod:`zgeoflow.dual` (machine precision);
a central finite-difference path exists purely as an independent
cross-check oracle and is never used by the bracket itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dual
from .algebra import realize_generators, sinhc
from .phase import EvaluationDomainError, PhaseFunction, PhasePoint

#: default relative tolerance on singular values for the numerical rank
RANK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class PhaseGradient:
    """Partial derivatives of a phase function at a point."""

    dq: np.ndarray
    dp: np.ndarray

    def flat(self) -> np.ndarray:
        return np.concatenate([self.dq, self.dp])


@np.errstate(all="ignore")
def gradient(f: PhaseFunction, x: PhasePoint) -> PhaseGradient:
    """Machine-precision gradient of ``f`` at ``x`` from one reverse pass.

    A non-finite gradient raises EvaluationDomainError; numpy's warnings on
    the way there (complex points carry numpy scalars) are silenced.
    """
    if f.arity != x.dim:
        raise ValueError("arity mismatch between function and point")
    dq, dp = gradient_lists(f, *x.scalars())
    dtype = complex if np.iscomplexobj(x.q) or np.iscomplexobj(x.p) else float
    dq = np.array(dq, dtype=dtype)
    dp = np.array(dp, dtype=dtype)
    if not (np.all(np.isfinite(dq)) and np.all(np.isfinite(dp))):
        raise EvaluationDomainError(f"gradient of {f.label} not finite at {x}")
    return PhaseGradient(dq, dp)


def gradient_lists(f: PhaseFunction, q: list, p: list):
    """Gradient on raw coordinate lists; hot-loop variant of :func:`gradient`.

    The gradient over all 2n coordinates, (dq, dp), is one recorded reverse
    pass the first time, which runs compiled code at once when its shape
    compiled already; later calls on floats run the code compiled from that
    pass (:class:`zgeoflow.dual.CompiledGradient`, kept with ``f``)."""
    n = len(q)
    grad = f._gradient(lambda qp: f.fn(qp[:n], qp[n:]), [*q, *p])
    return grad[:n], grad[n:]


def gradient_fd(f: PhaseFunction, x: PhasePoint) -> PhaseGradient:
    """Central finite-difference gradient; independent test oracle only."""
    n = x.dim
    base = x.flat()
    cbrt_eps = float(np.finfo(float).eps) ** (1.0 / 3.0)
    out = np.zeros(2 * n, dtype=base.dtype)
    for i in range(2 * n):
        h = cbrt_eps * max(1.0, abs(base[i]))
        up = base.copy()
        dn = base.copy()
        up[i] += h
        dn[i] -= h
        fu = f(PhasePoint.from_flat(up))
        fd = f(PhasePoint.from_flat(dn))
        out[i] = (fu - fd) / (2.0 * h)
    return PhaseGradient(out[:n], out[n:])


@np.errstate(all="ignore")
def bracket_matrix(funcs, x: PhasePoint):
    """All brackets {f_a, f_b} among ``funcs`` at ``x``, from one gradient each.

    With the gradients as rows of Dq, Dp: vals = Dq Dp^T - Dp Dq^T (exactly
    antisymmetric) and the roundoff scales |Dq| |Dp|^T + |Dp| |Dq|^T.  Huge
    finite gradients overflow to inf and nan here without a warning; the
    non-finite entries fail every residual check that reads them.
    """
    if len({f.arity for f in funcs}) > 1:
        raise ValueError("arity mismatch between bracket arguments")
    grads = [gradient(f, x) for f in funcs]
    return gradient_brackets(
        np.array([g.dq for g in grads]), np.array([g.dp for g in grads])
    )


@np.errstate(all="ignore")
def gradient_brackets(dq, dp):
    """(vals, scales) of :func:`bracket_matrix` from the gradient rows
    ``dq[a] = d f_a / dq`` and ``dp[a] = d f_a / dp``, however obtained."""
    cross, size = dq @ dp.T, np.abs(dq) @ np.abs(dp).T
    return cross - cross.T, size + size.T


@np.errstate(all="ignore")
def _scaled_residual(vals, scales, target=0.0):
    """|vals - target| / max(1, |target|, scales), elementwise."""
    return np.abs(vals - target) / np.maximum(np.maximum(1.0, np.abs(target)), scales)


def poisson_bracket(f: PhaseFunction, g: PhaseFunction, x: PhasePoint):
    """Canonical bracket {f, g} = sum_i df/dq_i dg/dp_i - df/dp_i dg/dq_i."""
    val = bracket_matrix((f, g), x)[0][0, 1]
    return val if np.iscomplexobj(val) else float(val)


def bracket_residual(f: PhaseFunction, g: PhaseFunction, x: PhasePoint, target=0.0):
    """|{f, g} - target| scaled by the intrinsic magnitude of the bracket.

    The scale is max(1, |target|, sum_i |df/dq_i dg/dp_i| + |df/dp_i dg/dq_i|),
    the level at which float64 roundoff necessarily lives; identities that hold
    algebraically give residuals near machine epsilon in this measure
    regardless of how large the generator values grow on the sampling domain.
    """
    vals, scales = bracket_matrix((f, g), x)
    return float(_scaled_residual(vals[0, 1], scales[0, 1], target))


def sample_points(n: int, samples: int, seed: int, scale: float = 2.0):
    """Seed-reproducible sample of phase points with |q_i|, |p_i| <= scale.

    Each point is drawn from a generator seeded by (seed, index), so the
    sample is independent of evaluation order.
    """
    pts = []
    for k in range(samples):
        rng = np.random.default_rng([seed, k])
        vec = rng.uniform(-scale, scale, size=2 * n)
        pts.append(PhasePoint(vec[:n], vec[n:]))
    return pts


@dataclass(frozen=True)
class AlgebraReport:
    """Max residuals of the three defining bracket relations over a sample."""

    n_sites: int
    z: float
    samples: int
    seed: int
    residual_j3_jplus: float
    residual_j3_jminus: float
    residual_jminus_jplus: float
    threshold: float = 1e-9

    @property
    def max_residual(self) -> float:
        """The largest residual; nan if any residual is nan, so it fails."""
        worst = np.array(
            [self.residual_j3_jplus, self.residual_j3_jminus, self.residual_jminus_jplus]
        )
        return float(worst.max())

    @property
    def passed(self) -> bool:
        return self.max_residual < self.threshold

    def to_text(self) -> str:
        lines = [
            f"n_sites = {self.n_sites}",
            f"z = {self.z:.17g}",
            f"samples = {self.samples}",
            f"seed = {self.seed}",
            f"residual_j3_jplus = {self.residual_j3_jplus:.17g}",
            f"residual_j3_jminus = {self.residual_j3_jminus:.17g}",
            f"residual_jminus_jplus = {self.residual_jminus_jplus:.17g}",
            f"threshold = {self.threshold:.17g}",
            f"passed = {self.passed}",
        ]
        return "\n".join(lines)


@np.errstate(all="ignore")
def check_algebra(n: int, z: float, samples: int = 200, seed: int = 0) -> AlgebraReport:
    """Verify the three defining brackets of the realization at random points.

    Scaled residuals (see :func:`bracket_residual`) of:
        {J3, J+} - 2 J+ cosh(z J-)
        {J3, J-} + 2 J- sinhc(z J-)        (equals -2 sinh(zJ-)/z, z = 0 safe)
        {J-, J+} - 4 J3
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    gen = realize_generators(n, z)
    jm, jp, j3 = gen.as_tuple()
    pairs = ([2, 2, 0], [1, 0, 1])  # {J3, J+}, {J3, J-}, {J-, J+} in (J-, J+, J3)
    worst = np.zeros(3)
    for x in sample_points(n, samples, seed):
        jm_v, jp_v, j3_v = (float(f(x)) for f in (jm, jp, j3))
        target = np.array(
            [2.0 * jp_v * np.cosh(z * jm_v), -2.0 * jm_v * sinhc(z * jm_v), 4.0 * j3_v]
        )
        vals, scales = bracket_matrix((jm, jp, j3), x)
        res = _scaled_residual(vals[pairs], scales[pairs], target)
        worst = np.maximum(worst, res)
    r1, r2, r3 = (float(r) for r in worst)
    return AlgebraReport(n, float(z), samples, seed, r1, r2, r3)


@dataclass(frozen=True)
class InvolutionReport:
    """Pairwise max |{f_i, f_j}| over a sample of phase points."""

    labels: tuple
    residuals: np.ndarray
    samples: int
    seed: int
    threshold: float = 1e-9

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def passed(self) -> bool:
        return self.max_residual < self.threshold

    def to_text(self) -> str:
        lines = [
            f"functions = {', '.join(self.labels)}",
            f"samples = {self.samples}",
            f"seed = {self.seed}",
            f"threshold = {self.threshold:.17g}",
            f"passed = {self.passed}",
            "residual_matrix:",
        ]
        for row in self.residuals:
            lines.append("  " + " ".join(f"{v:.10e}" for v in row))
        return "\n".join(lines)


def check_involution(
    funcs, samples: int = 50, seed: int = 0, threshold: float = 1e-9
) -> InvolutionReport:
    """Pairwise scaled bracket residual matrix for a list of phase functions."""
    funcs = list(funcs)
    arities = {f.arity for f in funcs}
    if len(arities) != 1:
        raise ValueError("all functions must share the same arity")
    n = arities.pop()
    res = np.zeros((len(funcs), len(funcs)))
    for x in sample_points(n, samples, seed):
        res = np.maximum(res, _scaled_residual(*bracket_matrix(funcs, x)))
    return InvolutionReport(
        tuple(f.label for f in funcs), res, samples, seed, threshold
    )


class IndependenceRank(NamedTuple):
    """Numerical rank of a set of gradients, and its margin: the smallest
    kept singular value over the largest (1 when every value is kept at
    full size, near ``tolerance`` when the rank decision was close; 0.0 at
    rank 0)."""

    rank: int
    margin: float


def independence_rank(
    funcs, x: PhasePoint, tolerance: float = RANK_TOLERANCE
) -> IndependenceRank:
    """Numerical rank of the stacked gradients of ``funcs`` at ``x``.

    Each gradient row is first divided by its largest entry in magnitude
    (which cannot overflow, unlike its length).  Row scaling leaves the
    rank unchanged, but without it a relative singular-value cut reads rows
    of very different magnitude (|grad H_sup| ~ 1e8 against |grad I2| ~ 0.2
    at n = 8) as dependence.  Singular values above ``tolerance`` times the
    largest one then count.
    """
    mat = np.asarray([gradient(f, x).flat() for f in funcs])
    scale = np.max(np.abs(mat), axis=1, initial=0.0)
    mat = mat / np.where(scale > 0.0, scale, 1.0)[:, None]
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return IndependenceRank(0, 0.0)
    rank = int(np.sum(svals > tolerance * svals[0]))
    return IndependenceRank(rank, float(svals[rank - 1] / svals[0]))
