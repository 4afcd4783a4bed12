"""Phase-space points and evaluable, differentiable phase-space functions."""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class EvaluationDomainError(ValueError):
    """A function was evaluated outside its domain (non-finite result)."""


def _as_vector(x, name):
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1D vector of length >= 1")
    if not np.issubdtype(arr.dtype, np.complexfloating):
        arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must have finite entries")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PhasePoint:
    """Position vector q and conjugate momentum vector p of equal length."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vector(self.q, "q"))
        object.__setattr__(self, "p", _as_vector(self.p, "p"))
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have identical length")

    @property
    def dim(self) -> int:
        return self.q.size

    def scalars(self) -> tuple:
        """(q, p) as lists for the generic scalar code: Python floats for a
        real vector, which that code runs on fastest and without numpy's
        overflow warnings; numpy complex scalars for a complex one, whose
        arithmetic the complex-octant chart results are computed with."""
        return tuple(
            v.tolist() if v.dtype == float else list(v) for v in (self.q, self.p)
        )

    def flat(self) -> np.ndarray:
        return np.concatenate([self.q, self.p])

    @staticmethod
    def from_flat(x) -> "PhasePoint":
        x = np.asarray(x)
        n = x.size // 2
        return PhasePoint(x[:n], x[n:])


@dataclass(frozen=True)
class PhaseFunction:
    """A scalar function on 2N-dimensional phase space.

    ``fn(q, p)`` receives two sequences of N generic scalars (floats,
    complex numbers, or the :class:`~zgeoflow.dual.Dual`,
    :class:`~zgeoflow.dual.Jet` and :class:`~zgeoflow.dual.Rev` values of a
    dual, jet or reverse pass) and must be built from the generic math in
    :mod:`zgeoflow.dual` so that exact derivatives are available.  Instances
    are immutable and safe to evaluate concurrently.
    """

    arity: int
    fn: Callable = field(repr=False)
    label: str = ""

    def raw(self, q, p):
        """Evaluate on generic scalar sequences (dual/complex capable)."""
        return self.fn(q, p)

    def __call__(self, point: PhasePoint):
        if point.dim != self.arity:
            raise ValueError(
                f"{self.label or 'function'} expects dimension {self.arity}, "
                f"got {point.dim}"
            )
        val = self.fn(*point.scalars())
        if not cmath.isfinite(val):
            raise EvaluationDomainError(
                f"{self.label or 'function'} is not finite at {point}"
            )
        return val

    def _combine(self, other, op, sym):
        if isinstance(other, PhaseFunction):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return PhaseFunction(
                self.arity,
                lambda q, p: op(self.fn(q, p), other.fn(q, p)),
                f"({self.label}{sym}{other.label})",
            )
        return PhaseFunction(
            self.arity,
            lambda q, p: op(self.fn(q, p), other),
            f"({self.label}{sym}{other})",
        )

    def __add__(self, other):
        return self._combine(other, lambda a, b: a + b, "+")

    def __sub__(self, other):
        return self._combine(other, lambda a, b: a - b, "-")

    def __mul__(self, other):
        return self._combine(other, lambda a, b: a * b, "*")

    def __rmul__(self, other):
        return self._combine(other, lambda a, b: b * a, "*")


def coordinate(arity: int, i: int) -> PhaseFunction:
    """The position coordinate q_i as a phase function."""
    return PhaseFunction(arity, lambda q, p: q[i], f"q{i + 1}")


def momentum(arity: int, i: int) -> PhaseFunction:
    """The momentum coordinate p_i as a phase function."""
    return PhaseFunction(arity, lambda q, p: p[i], f"p{i + 1}")
