"""Dual numbers, jets and reverse passes: the package's one differentiation core.

Every quantity in this package that ever gets differentiated (generators,
Hamiltonians, metric components, chart maps) is written against the generic
scalar functions defined here, so the same code path evaluates on floats,
complex numbers, ``Dual``, ``Jet`` and ``Rev`` values.  Nested derivatives
(brackets of brackets, third partials) work because each forward dual pass
carries a fresh tag: mixing duals from different passes treats the older
one as a constant, which is exactly the perturbation-confusion-safe rule.

Second order has its own number type, :class:`Jet`: a truncated Taylor
expansion that carries the value, the gradient and the packed Hessian over
all n input directions at once, so one evaluation of ``f`` (one pass) gives
all three (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).

A full gradient is one reverse pass (ibid., ch. 3-4): one evaluation of
``f`` on :class:`Rev` nodes records each operation's local partials on a
tape, and one backward sweep over the tape accumulates the adjoints, at a
cost independent of the number of inputs (Baur & Strassen 1983).

Each elementary function is one table entry: its float and complex
values and its f' and f'' as expressions in x, f(x) and f'(x).  One
builder, :func:`_elementary`, applies each type's chain rule to them: a jet
maps through (f, f', f'') at its value, a dual and a reverse node through
f', all on the generic function of the value, so complex points work too.
A new number type or kernel plugs in once, in the builder.

Nesting rule.  Jet and reverse passes are outermost: their inputs are plain
floats or complex numbers.  Forward dual passes may run inside a reverse
pass (a ``Dual`` then wraps reverse nodes; the nodes' operators return
``NotImplemented`` for a ``Dual`` operand, so the dual stays the outer
layer), but never inside a jet pass.  Nodes of two reverse passes, like
jets of two jet passes, do not mix: a reverse pass inside a reverse pass
raises ``ValueError``.

The helpers :func:`partial`, :func:`gradient`, :func:`second_partial`,
:func:`jet`, :func:`taylor2`, :func:`hessian` and the one-variable
:func:`derivative` are the only code in the package that creates tags,
seeds inputs and extracts derivative parts, and the builder is the only
code outside the number types that reads their parts; every other module
differentiates through them.  Each call of ``f`` is one pass and draws its
own tags: a first partial is one dual pass, a gradient one reverse pass, a
single second partial one nested dual pass, and a value-gradient-Hessian
triple one jet pass.
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


class _JetPass:
    """What the jets of one pass share: the number n of input directions,
    and for each packed Hessian entry k >= n of a jet's parts the pair
    (i, j), i <= j, it belongs to (none for a first-order pass).  Jets tell
    their passes apart by this object."""

    __slots__ = ("n", "order", "hidx")

    def __init__(self, n, order):
        fresh_tag()  # jets need no tag, but every pass draws one: tags count passes
        self.n = n
        self.order = order
        pairs = [(i, j) for i in range(n) for j in range(i, n)] if order == 2 else []
        self.hidx = [(n + k, i, j) for k, (i, j) in enumerate(pairs)]

    def parts(self, y):
        """(value, gradient, Hessian rows or None) of a pass output ``y``;
        an output that is no jet is a constant."""
        n = self.n
        if isinstance(y, Jet):
            if y.ps is not self:
                _mixed_passes()
            value, d = y.v, y.d
        else:
            value, d = y, [0.0] * (n + len(self.hidx))
        if self.order == 1:
            return value, d[:n], None
        hess = [[0.0] * n for _ in range(n)]
        for k, i, j in self.hidx:
            hess[i][j] = hess[j][i] = d[k]
        return value, d[:n], hess


def _mixed_passes():
    raise ValueError("jets of two different passes do not mix")


class Jet:
    """A truncated second-order Taylor expansion over a pass's n inputs.

    ``v`` is the value and ``d`` the list of derivative parts: the n first
    partials, then the packed upper triangle of the Hessian (entry k >= n
    is d^2 / dx_i dx_j for the pass's k-th (i, j)).  The lists are never
    mutated, so jets share them.  Arithmetic with a plain number treats it
    as a constant.
    """

    __slots__ = ("v", "d", "ps")

    # numpy scalars on the left defer to the reflected operators
    __array_ufunc__ = None

    def __init__(self, v, d, ps):
        self.v = v
        self.d = d
        self.ps = ps

    def __repr__(self):
        return f"Jet(v={self.v!r}, d={self.d!r})"

    def _chain(self, v, d1, d2):
        """f(self) from v = f(x), d1 = f'(x) and d2 = f''(x) at x = self.v."""
        d, ps = self.d, self.ps
        return Jet(
            v,
            [d1 * a for a in d[: ps.n]]
            + [d1 * d[k] + d2 * d[i] * d[j] for k, i, j in ps.hidx],
            ps,
        )

    def __add__(self, other):
        if type(other) is Jet:
            if other.ps is not self.ps:
                _mixed_passes()
            return Jet(self.v + other.v, [a + b for a, b in zip(self.d, other.d)], self.ps)
        return Jet(self.v + other, self.d, self.ps)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, [-a for a in self.d], self.ps)

    def __sub__(self, other):
        if type(other) is Jet:
            if other.ps is not self.ps:
                _mixed_passes()
            return Jet(self.v - other.v, [a - b for a, b in zip(self.d, other.d)], self.ps)
        return Jet(self.v - other, self.d, self.ps)

    def __rsub__(self, other):
        return Jet(other - self.v, [-a for a in self.d], self.ps)

    def __mul__(self, other):
        if type(other) is Jet:
            ps = self.ps
            if other.ps is not ps:
                _mixed_passes()
            av, bv, ad, bd, n = self.v, other.v, self.d, other.d, ps.n
            return Jet(
                av * bv,
                [av * b + bv * a for a, b in zip(ad[:n], bd[:n])]
                + [
                    av * bd[k] + bv * ad[k] + ad[i] * bd[j] + ad[j] * bd[i]
                    for k, i, j in ps.hidx
                ],
                ps,
            )
        return Jet(self.v * other, [a * other for a in self.d], self.ps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Jet:
            ps = self.ps
            if other.ps is not ps:
                _mixed_passes()
            # q = a / b from a = q b: q' = (a' - q b') / b and
            # q'' = (a'' - q b'' - b' q'^T - q' b'^T) / b
            inv = 1.0 / other.v
            v, ad, bd, n = self.v / other.v, self.d, other.d, ps.n
            g = [(a - v * b) * inv for a, b in zip(ad[:n], bd[:n])]
            return Jet(
                v,
                g
                + [
                    (ad[k] - v * bd[k] - bd[i] * g[j] - bd[j] * g[i]) * inv
                    for k, i, j in ps.hidx
                ],
                ps,
            )
        inv = 1.0 / other
        return Jet(self.v * inv, [a * inv for a in self.d], self.ps)

    def __rtruediv__(self, other):
        inv = 1.0 / self.v
        v = other * inv
        d1 = -v * inv
        return self._chain(v, d1, -2.0 * d1 * inv)

    def __pow__(self, n):
        if isinstance(n, int):
            if n == 0:
                return self.v**0
            if n < 0:
                return 1.0 / self.__pow__(-n)
            if n == 1:
                return self
            x = self.v
            return self._chain(x**n, n * x ** (n - 1), n * (n - 1) * x ** (n - 2))
        return exp(n * log(self))


def _mixed_tapes():
    raise ValueError("nodes of two different reverse passes do not mix")


class Rev:
    """A node of a reverse pass: value ``v`` and index ``k`` on the tape ``t``.

    Tape entry k is the flat tuple (i, d_i) or (i, d_i, j, d_j) of node k's
    parents and local partials; the pass's n inputs are entries 0..n-1.
    Adding a constant records nothing: x + c shares the index of x, since
    its partial is 1.  Arithmetic with a plain number treats it as a
    constant; a ``Dual`` operand is left to the dual's operators.
    """

    __slots__ = ("v", "k", "t")

    # numpy scalars on the left defer to the reflected operators
    __array_ufunc__ = None

    def __init__(self, v, k, t):
        self.v = v
        self.k = k
        self.t = t

    def __repr__(self):
        return f"Rev(v={self.v!r}, k={self.k})"

    def _chain(self, v, d):
        """The node f(self) from v = f(x) and d = f'(x) at x = self.v."""
        t = self.t
        t.append((self.k, d))
        return Rev(v, len(t) - 1, t)

    # the operators record their entries inline: one call less per operation

    def __add__(self, other):
        if type(other) is Rev:
            t = self.t
            if other.t is not t:
                _mixed_tapes()
            t.append((self.k, 1.0, other.k, 1.0))
            return Rev(self.v + other.v, len(t) - 1, t)
        if type(other) is Dual:
            return NotImplemented
        return Rev(self.v + other, self.k, self.t)

    __radd__ = __add__

    def __neg__(self):
        t = self.t
        t.append((self.k, -1.0))
        return Rev(-self.v, len(t) - 1, t)

    def __sub__(self, other):
        if type(other) is Rev:
            t = self.t
            if other.t is not t:
                _mixed_tapes()
            t.append((self.k, 1.0, other.k, -1.0))
            return Rev(self.v - other.v, len(t) - 1, t)
        if type(other) is Dual:
            return NotImplemented
        return Rev(self.v - other, self.k, self.t)

    def __rsub__(self, other):
        t = self.t
        t.append((self.k, -1.0))
        return Rev(other - self.v, len(t) - 1, t)

    def __mul__(self, other):
        t = self.t
        if type(other) is Rev:
            if other.t is not t:
                _mixed_tapes()
            a, b = self.v, other.v
            t.append((self.k, b, other.k, a))
            return Rev(a * b, len(t) - 1, t)
        if type(other) is Dual:
            return NotImplemented
        t.append((self.k, other))
        return Rev(self.v * other, len(t) - 1, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = self.t
        if type(other) is Rev:
            if other.t is not t:
                _mixed_tapes()
            inv = 1.0 / other.v
            v = self.v * inv
            t.append((self.k, inv, other.k, -v * inv))
            return Rev(v, len(t) - 1, t)
        if type(other) is Dual:
            return NotImplemented
        inv = 1.0 / other
        t.append((self.k, inv))
        return Rev(self.v * inv, len(t) - 1, t)

    def __rtruediv__(self, other):
        inv = 1.0 / self.v
        v = other * inv
        return self._chain(v, -v * inv)

    def __pow__(self, n):
        if isinstance(n, int):
            if n == 0:
                return self.v**0
            x = self.v
            return self._chain(x**n, n * x ** (n - 1))
        return exp(n * log(self))


#: the package's number types, none of which a reverse pass takes as input
_NUMBER_TYPES = frozenset((Dual, Jet, Rev))


def _sweep(tape, y, n):
    """Adjoints of the n inputs of ``tape`` for the pass output ``y``: one
    backward sweep; an output that is no node is a constant."""
    if type(y) is not Rev:
        return [0.0] * n
    if y.t is not tape:
        _mixed_tapes()
    adj = [0.0] * len(tape)
    adj[y.k] = 1.0
    for k in range(y.k, n - 1, -1):
        a = adj[k]
        e = tape[k]
        adj[e[0]] += a * e[1]
        if len(e) == 4:
            adj[e[2]] += a * e[3]
    return adj[:n]


def primal(x):
    """Strip all dual, jet or reverse layers and return the underlying float / complex."""
    while isinstance(x, Dual):
        x = x.re
    return x.v if type(x) is Jet or type(x) is Rev else x


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
    """All first partials of ``f`` at float or complex ``args`` from one
    reverse pass: one evaluation of ``f`` (one tag) and one backward sweep.

    A list-valued ``f`` gives the list of Jacobian columns, as
    :func:`partial` slot by slot does, from one sweep per component.
    """
    n = len(args)
    if not _NUMBER_TYPES.isdisjoint(map(type, args)):
        raise ValueError("a reverse pass is outermost: its inputs are floats or complex")
    fresh_tag()  # the tape needs no tag, but every pass draws one: tags count passes
    tape = [None] * n
    out = f([Rev(x, k, tape) for k, x in enumerate(args)])
    if isinstance(out, list):
        rows = [_sweep(tape, y, n) for y in out]
        return [[row[i] for row in rows] for i in range(n)]
    return _sweep(tape, out, n)


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


def jet(f, args, order=2):
    """Value, gradient and Hessian (symmetric list of rows) of ``f`` at
    ``args`` from one jet pass: one evaluation of ``f`` and one tag.

    ``order=1`` carries no Hessian and returns ``None`` in its place.  A
    list-valued ``f`` gives one (value, gradient, Hessian) triple per
    component.  The parts keep their scalar type (float or complex).
    """
    n = len(args)
    ps = _JetPass(n, order)
    seeded = []
    for i, x in enumerate(args):
        parts = [0.0] * (n + len(ps.hidx))
        parts[i] = 1.0
        seeded.append(Jet(x, parts, ps))
    out = f(seeded)
    if isinstance(out, list):
        return [ps.parts(y) for y in out]
    return ps.parts(out)


def taylor2(f, args):
    """Float value, gradient and symmetric Hessian (list of rows) of ``f``,
    all from the one jet pass of :func:`jet`."""
    value, grad, hess = jet(f, args)
    return float(value), [float(v) for v in grad], [[float(v) for v in row] for row in hess]


def hessian(f, args):
    """Float parts of all second partials of ``f`` as a symmetric list of rows."""
    return taylor2(f, args)[2]


def derivative(f, x):
    """Exact derivative of a scalar function of one scalar."""
    tag = fresh_tag()
    return dual_part(f(Dual(tag, x, 1.0)), tag)


# ---------------------------------------------------------------------------
# generic elementary functions: one (f, f', f'') entry each
# ---------------------------------------------------------------------------


def _elementary(name, real, cplx, d1, d2):
    """The generic function with float values ``real``, complex values
    ``cplx``, f' = ``d1(x, v)`` and f'' = ``d2(x, v, g)`` at x, from
    v = f(x) and g = f'(x).

    A plain float goes straight to ``real``, so evaluations and the float
    parts of dual passes pay nothing for the dispatch below it; reverse
    nodes, the hot case of every gradient, come next.  Each type's chain
    rule is written once, here: the value recurses on ``f``, so a ``Dual``
    wrapping older duals or reverse nodes gets f' on the generic types too.
    """

    def f(x):
        if type(x) is float:
            return real(x)
        if type(x) is Rev:
            v = f(x.v)
            return x._chain(v, d1(x.v, v))
        if isinstance(x, Dual):
            v = f(x.re)
            return Dual(x.tag, v, x.du * d1(x.re, v))
        if isinstance(x, Jet):
            v = f(x.v)
            g = d1(x.v, v)
            return x._chain(v, g, d2(x.v, v, g))
        return cplx(x) if isinstance(x, complex) else real(x)

    f.__name__ = f.__qualname__ = name
    return f


def _cexpm1(x):
    """exp(x) - 1 without cancellation near 0 for complex x (the complex
    octant of the relativistic chart needs it)."""
    a, b = x.real, x.imag
    return complex(
        math.expm1(a) * math.cos(b) - 2.0 * math.sin(0.5 * b) ** 2,
        math.exp(a) * math.sin(b),
    )


def _clog1p(x):
    """log|1 + x| and arg(1 + x) for complex x without rounding 1 + x:
    small |x| keeps its digits."""
    a, b = x.real, x.imag
    return complex(0.5 * math.log1p(2.0 * a + a * a + b * b), math.atan2(b, 1.0 + a))


exp = _elementary("exp", math.exp, cmath.exp, lambda x, v: v, lambda x, v, g: v)
expm1 = _elementary("expm1", math.expm1, _cexpm1, lambda x, v: exp(x), lambda x, v, g: g)
log = _elementary("log", math.log, cmath.log, lambda x, v: 1.0 / x, lambda x, v, g: -g * g)
log1p = _elementary(
    "log1p", math.log1p, _clog1p, lambda x, v: 1.0 / (1.0 + x), lambda x, v, g: -g * g
)
sqrt = _elementary(
    "sqrt", math.sqrt, cmath.sqrt, lambda x, v: 1.0 / (2.0 * v), lambda x, v, g: -g / (2.0 * x)
)
sin = _elementary("sin", math.sin, cmath.sin, lambda x, v: cos(x), lambda x, v, g: -v)
cos = _elementary("cos", math.cos, cmath.cos, lambda x, v: -sin(x), lambda x, v, g: -v)
sinh = _elementary("sinh", math.sinh, cmath.sinh, lambda x, v: cosh(x), lambda x, v, g: v)
cosh = _elementary("cosh", math.cosh, cmath.cosh, lambda x, v: sinh(x), lambda x, v, g: v)
tanh = _elementary(
    "tanh", math.tanh, cmath.tanh, lambda x, v: 1.0 - v * v, lambda x, v, g: -2.0 * v * g
)
asin = _elementary(
    "asin",
    math.asin,
    cmath.asin,
    lambda x, v: 1.0 / sqrt(1.0 - x * x),
    lambda x, v, g: x * g * g * g,
)
atan = _elementary(
    "atan",
    math.atan,
    cmath.atan,
    lambda x, v: 1.0 / (1.0 + x * x),
    lambda x, v, g: -2.0 * x * g * g,
)
asinh = _elementary(
    "asinh",
    math.asinh,
    cmath.asinh,
    lambda x, v: 1.0 / sqrt(x * x + 1.0),
    lambda x, v, g: -x * g * g * g,
)
