"""Forward-mode dual numbers and the package's one differentiation core.

Every quantity in this package that ever gets differentiated (generators,
Hamiltonians, metric components, chart maps) is written against the generic
scalar functions defined here, so the same code path evaluates on floats,
complex numbers and ``Dual`` values.  Nested derivatives (Hessians, curvature
tensors, brackets of brackets) work because each differentiation pass carries
a fresh tag: mixing duals from different passes treats the older one as a
constant, which is exactly the perturbation-confusion-safe rule.

The helpers :func:`partial`, :func:`gradient`, :func:`second_partial`,
:func:`taylor2`, :func:`hessian` and the one-variable :func:`derivative`
are the only code in the package that creates tags, seeds inputs and
extracts derivative parts; every other module differentiates through them.
Each call of ``f`` is one pass: first partials take one first-order pass per
slot, second partials one nested pass per pair, and that pass for (i, i)
also carries the value and d_i f.
"""

from __future__ import annotations

import cmath
import math
from itertools import count

_TAGS = count(1)


def fresh_tag() -> int:
    """Return a new differentiation tag (monotonically increasing)."""
    return next(_TAGS)


class Dual:
    """A first-order dual number ``re + du * eps_tag``.

    Components may themselves be duals carrying older tags, which is how
    nesting is represented.  Arithmetic between duals with different tags
    treats the lower-tag operand as a constant with respect to the
    higher-tag epsilon.
    """

    __slots__ = ("tag", "re", "du")

    def __init__(self, tag, re, du):
        self.tag = tag
        self.re = re
        self.du = du

    def __repr__(self):
        return f"Dual(tag={self.tag}, re={self.re!r}, du={self.du!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(self.tag, self.re + other.re, self.du + other.du)
            if other.tag > self.tag:
                return Dual(other.tag, self + other.re, other.du)
        return Dual(self.tag, self.re + other, self.du)

    __radd__ = __add__

    def __neg__(self):
        return Dual(self.tag, -self.re, -self.du)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                return Dual(
                    self.tag,
                    self.re * other.re,
                    self.re * other.du + self.du * other.re,
                )
            if other.tag > self.tag:
                return Dual(other.tag, self * other.re, self * other.du)
        return Dual(self.tag, self.re * other, self.du * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.tag == self.tag:
                inv = 1.0 / other.re
                return Dual(
                    self.tag,
                    self.re * inv,
                    (self.du - self.re * inv * other.du) * inv,
                )
            if other.tag > self.tag:
                inv = 1.0 / other.re
                val = self * inv
                return Dual(other.tag, val, -val * inv * other.du)
        inv = 1.0 / other
        return Dual(self.tag, self.re * inv, self.du * inv)

    def __rtruediv__(self, other):
        inv = 1.0 / self.re
        val = other * inv
        return Dual(self.tag, val, -val * inv * self.du)

    def __pow__(self, n):
        if isinstance(n, int):
            if n == 0:
                return Dual(self.tag, self.re**0, 0.0)
            if n < 0:
                return 1.0 / self.__pow__(-n)
            out = self
            for _ in range(n - 1):
                out = out * self
            return out
        return exp(n * log(self))


def primal(x):
    """Strip all dual layers and return the underlying float / complex."""
    while isinstance(x, Dual):
        x = x.re
    return x


def dual_part(x, tag):
    """Derivative component of ``x`` with respect to ``tag`` (0 if absent).

    Distributes over any newer tags wrapping the requested one, so nested
    extractions commute.
    """
    if isinstance(x, Dual):
        if x.tag == tag:
            return x.du
        if x.tag > tag:
            return Dual(x.tag, dual_part(x.re, tag), dual_part(x.du, tag))
    return 0.0


def partial(f, args, i):
    """Exact partial derivative of ``f(list_of_scalars)`` in slot ``i``.

    A list-valued ``f`` gives the list of its components' partials.
    """
    tag = fresh_tag()
    seeded = list(args)
    seeded[i] = Dual(tag, args[i], 1.0)
    val = f(seeded)
    if isinstance(val, list):
        return [dual_part(v, tag) for v in val]
    return dual_part(val, tag)


def gradient(f, args):
    """All first partials of ``f``, one first-order pass per slot."""
    return [partial(f, args, i) for i in range(len(args))]


def _pair_pass(f, args, i, j):
    """One nested pass: ``f`` with slot i seeded by tag ti and slot j by the
    fresher tag tj (wrapping the ti seed when i = j); returns (f, ti, tj)."""
    ti = fresh_tag()
    tj = fresh_tag()
    seeded = list(args)
    seeded[i] = Dual(ti, args[i], 1.0)
    seeded[j] = Dual(tj, seeded[j], 1.0)
    return f(seeded), ti, tj


def second_partial(f, args, i, j):
    """Exact d^2 f / d args_i d args_j from one nested pass.

    The fresher tag seeds slot ``j`` and is extracted first; for i = j it
    wraps the slot-``i`` seed.  The result keeps any dual layers the inputs
    carry, so it can be differentiated again.
    """
    out, ti, tj = _pair_pass(f, args, i, j)
    return dual_part(dual_part(out, tj), ti)


def taylor2(f, args):
    """Float value, gradient and symmetric Hessian (list of rows) of ``f``.

    One nested pass per pair i <= j, as in :func:`second_partial`.  The
    diagonal pass (i, i) seeds slot i with ``Dual(tj, Dual(ti, x_i, 1), 1)``,
    so it also carries the value (its primal) and d_i f (its ``ti`` part):
    the value, gradient and Hessian come from the same n(n+1)/2 passes.
    """
    n = len(args)
    value = None
    grad = [0.0] * n
    hess = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out, ti, tj = _pair_pass(f, args, i, j)
            hess[i][j] = hess[j][i] = float(primal(dual_part(dual_part(out, tj), ti)))
            if i == j:
                grad[i] = float(primal(dual_part(out, ti)))
                value = float(primal(out))
    return value, grad, hess


def hessian(f, args):
    """Float parts of all second partials of ``f`` as a symmetric list of rows."""
    return taylor2(f, args)[2]


def derivative(f, x):
    """Exact derivative of a scalar function of one scalar."""
    tag = fresh_tag()
    return dual_part(f(Dual(tag, x, 1.0)), tag)


def second_derivative(f, x):
    """Exact second derivative via nested duals."""
    return derivative(lambda y: derivative(f, y), x)


# ---------------------------------------------------------------------------
# generic elementary functions (float / complex / Dual)
# ---------------------------------------------------------------------------


def exp(x):
    if isinstance(x, Dual):
        v = exp(x.re)
        return Dual(x.tag, v, x.du * v)
    return cmath.exp(x) if isinstance(x, complex) else math.exp(x)


def expm1(x):
    """exp(x) - 1 without cancellation near 0, also for complex x
    (the complex octant of the relativistic chart needs it)."""
    if isinstance(x, Dual):
        return Dual(x.tag, expm1(x.re), x.du * exp(x.re))
    if isinstance(x, complex):
        a, b = x.real, x.imag
        return complex(
            math.expm1(a) * math.cos(b) - 2.0 * math.sin(0.5 * b) ** 2,
            math.exp(a) * math.sin(b),
        )
    return math.expm1(x)


def log(x):
    if isinstance(x, Dual):
        return Dual(x.tag, log(x.re), x.du / x.re)
    return cmath.log(x) if isinstance(x, complex) else math.log(x)


def log1p(x):
    if isinstance(x, Dual):
        return Dual(x.tag, log1p(x.re), x.du / (1.0 + x.re))
    return cmath.log(1.0 + x) if isinstance(x, complex) else math.log1p(x)


def sqrt(x):
    if isinstance(x, Dual):
        v = sqrt(x.re)
        return Dual(x.tag, v, x.du / (2.0 * v))
    return cmath.sqrt(x) if isinstance(x, complex) else math.sqrt(x)


def sin(x):
    if isinstance(x, Dual):
        return Dual(x.tag, sin(x.re), x.du * cos(x.re))
    return cmath.sin(x) if isinstance(x, complex) else math.sin(x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(x.tag, cos(x.re), -x.du * sin(x.re))
    return cmath.cos(x) if isinstance(x, complex) else math.cos(x)


def tan(x):
    if isinstance(x, Dual):
        c = cos(x.re)
        return Dual(x.tag, tan(x.re), x.du / (c * c))
    return cmath.tan(x) if isinstance(x, complex) else math.tan(x)


def sinh(x):
    if isinstance(x, Dual):
        return Dual(x.tag, sinh(x.re), x.du * cosh(x.re))
    return cmath.sinh(x) if isinstance(x, complex) else math.sinh(x)


def cosh(x):
    if isinstance(x, Dual):
        return Dual(x.tag, cosh(x.re), x.du * sinh(x.re))
    return cmath.cosh(x) if isinstance(x, complex) else math.cosh(x)


def tanh(x):
    if isinstance(x, Dual):
        c = cosh(x.re)
        return Dual(x.tag, tanh(x.re), x.du / (c * c))
    return cmath.tanh(x) if isinstance(x, complex) else math.tanh(x)


def asin(x):
    if isinstance(x, Dual):
        return Dual(x.tag, asin(x.re), x.du / sqrt(1.0 - x.re * x.re))
    return cmath.asin(x) if isinstance(x, complex) else math.asin(x)


def acos(x):
    if isinstance(x, Dual):
        return Dual(x.tag, acos(x.re), -x.du / sqrt(1.0 - x.re * x.re))
    return cmath.acos(x) if isinstance(x, complex) else math.acos(x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(x.tag, atan(x.re), x.du / (1.0 + x.re * x.re))
    return cmath.atan(x) if isinstance(x, complex) else math.atan(x)


def asinh(x):
    if isinstance(x, Dual):
        return Dual(x.tag, asinh(x.re), x.du / sqrt(x.re * x.re + 1.0))
    return cmath.asinh(x) if isinstance(x, complex) else math.asinh(x)


def acosh(x):
    if isinstance(x, Dual):
        return Dual(x.tag, acosh(x.re), x.du / sqrt(x.re * x.re - 1.0))
    return cmath.acosh(x) if isinstance(x, complex) else math.acosh(x)
