"""Phase-space points and evaluable, differentiable phase-space functions."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

from . import dual


class EvaluationDomainError(ValueError):
    """A function was evaluated outside its domain (non-finite result)."""


def scalar_vector(x) -> list:
    """The entries of ``x`` as Python scalars: all complex if any entry is
    complex (numpy's complex128 included), floats otherwise."""
    vals = list(x)
    if any(isinstance(v, complex) for v in vals):
        return [complex(v) for v in vals]
    return [float(v) for v in vals]


def _as_vector(x, name):
    try:
        vals = scalar_vector(x)
    except TypeError:
        vals = []
    if not vals:
        raise ValueError(f"{name} must be a 1D vector of length >= 1")
    finite = cmath.isfinite if isinstance(vals[0], complex) else math.isfinite
    if not all(map(finite, vals)):
        raise ValueError(f"{name} must have finite entries")
    return tuple(vals)


@dataclass(frozen=True)
class PhasePoint:
    """Position vector q and conjugate momentum vector p of equal length.

    Each is a tuple of Python scalars: floats, or complex numbers throughout
    a vector with one complex entry (the complex octant of kappa2 < 0)."""

    q: tuple
    p: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", _as_vector(self.q, "q"))
        object.__setattr__(self, "p", _as_vector(self.p, "p"))
        if len(self.q) != len(self.p):
            raise ValueError("q and p must have identical length")

    @property
    def dim(self) -> int:
        return len(self.q)

    def scalars(self) -> tuple:
        """(q, p) as lists, for the generic scalar code."""
        return list(self.q), list(self.p)

    def flat(self) -> tuple:
        return self.q + self.p

    @staticmethod
    def from_flat(x) -> "PhasePoint":
        x = list(x)
        n = len(x) // 2
        return PhasePoint(x[:n], x[n:])


@dataclass(frozen=True)
class PhaseFunction:
    """A scalar function on 2N-dimensional phase space.

    ``fn(q, p)`` receives two sequences of N generic scalars (floats,
    complex numbers, or the :class:`~zgeoflow.dual.Dual`,
    :class:`~zgeoflow.dual.Jet` and :class:`~zgeoflow.dual.Rev` values of a
    dual, jet or reverse pass) and must be built from the generic math in
    :mod:`zgeoflow.dual` so that exact derivatives are available.  Instances
    are immutable, apart from the gradient state that caches the compiled
    gradient of ``fn``, and safe to evaluate concurrently.  A function whose
    operation sequence compiled earlier in the process (the same builder at
    another z or kappa2) runs that code from its first float gradient.
    """

    arity: int
    fn: Callable = field(repr=False)
    label: str = ""
    #: the gradient state of ``fn`` (see :func:`zgeoflow.brackets.gradient_lists`)
    _gradient: dual.CompiledGradient = field(
        default_factory=dual.CompiledGradient, init=False, repr=False, compare=False
    )

    def raw(self, q, p):
        """Evaluate on generic scalar sequences (dual/complex capable)."""
        return self.fn(q, p)

    def __call__(self, point: PhasePoint):
        if point.dim != self.arity:
            raise ValueError(
                f"{self.label or 'function'} expects dimension {self.arity}, "
                f"got {point.dim}"
            )
        try:
            val = self.fn(*point.scalars())
        except OverflowError as err:
            raise EvaluationDomainError(
                f"{self.label or 'function'} overflows at {point}"
            ) from err
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
