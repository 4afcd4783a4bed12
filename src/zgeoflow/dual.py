"""Dual numbers and reverse passes: the package's one differentiation core.

Every quantity in this package that ever gets differentiated (generators,
Hamiltonians, metric components, chart maps) is written against the generic
scalar functions defined here, so the same code path evaluates on floats,
complex numbers and the two number types, ``Dual`` and ``Rev``.  Nested
derivatives (brackets of brackets, third partials) work because each
forward dual pass carries a fresh tag: mixing duals from different passes
treats the older one as a constant, which is exactly the
perturbation-confusion-safe rule.

A full gradient is one reverse pass (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 3-4): one evaluation of ``f`` on :class:`Rev`
nodes records each operation's local partials on a tape, and one backward
sweep over the tape accumulates the adjoints, at a cost independent of the
number of inputs (Baur & Strassen 1983).

Second order is a sweep over the same record.  A reverse pass also records
each forward operation (its table entry or operator, its operands' value
slots, and its plain-number operands lifted into a constants vector), and
:func:`_taylor` runs that record forward on values as a truncated Taylor
expansion over all n input directions at once: each operation's value,
gradient and packed Hessian from its operands' (ibid., ch. 13).  It
computes them by the forms of the compiled order-2 code, so the two agree
bit for bit; a division x / y of two nodes is x / y there, not the
record's x * (1 / y).  At order 1 it carries no Hessian.

Each elementary function is one table entry: its float and complex
values and its f' and f'' as expressions in x, f(x) and f'(x).  One
builder, :func:`_elementary`, applies each number type's chain rule to
them: a dual and a reverse node map through f' on the generic function of
the value, so complex points work too; the Taylor sweep and compiled code
call the entry's f, f' and f''.  A new kernel plugs in once, in the
builder; the kernels of :mod:`zgeoflow.kernels` are entries too.

Compiled passes.  A record is emitted as straight-line Python and run on
its constants (source transformation, ibid., ch. 6 and 13): a gradient as
the forward values and then the adjoint sweep, a Taylor pass as the value,
the gradient and (at order 2) the packed Hessian part by part, of one
output or of each of a list of them.  Taylor code is value-numbered (ibid.,
ch. 6): an operation that repeats an earlier one on the same operands and
an equal constant is computed once, which is exact in forward mode, so the
outputs of one record share what they have in common (all components of a
metric share their site coefficients).  Every value, partial and part is
computed as the interpreted pass computes it (:func:`_sweep`, or
:func:`_taylor`), in the same order, so compiled code equals it bit for
bit; the interpreted passes stay the per-call path and the oracles.

The compile rule.  Every pass the package runs in production is one record
of ``f`` and then one process-wide rule keyed by the record's operation
skeleton (:func:`_skeleton`, whatever the constants' values): a record
whose skeleton has cached code runs that code on its own constants; any
other is interpreted, and on the skeleton's second sighting its code is
compiled and cached if it equals that interpreted pass bit for bit
(:func:`_agrees`).  So a shape compiles once per process, and a new
function of a known shape (a Hamiltonian, metric or chart map at another z
or kappa2, whose parameters are lifted constants) runs its code from its
first call.  The rule is sound for every record, also for one whose
function read a value through :func:`primal` and may branch on it: each
call's own record fixes its operation sequence.  :class:`CompiledGradient`
keeps the code of a function that read no value, so that its later float
calls skip the record; :func:`compiled_jet` is the rule's Taylor pass.  A
compiled call evaluates no number type and draws no tag.
:func:`compiled_values` emits a record's forward values alone, for float
formulas that are not differentiated.

Nesting rule.  Reverse passes, and so Taylor passes, are outermost: their
inputs are plain floats or complex numbers.  Forward dual passes may run
inside a reverse pass (a ``Dual`` then wraps reverse nodes; the nodes'
operators return ``NotImplemented`` for a ``Dual`` operand, so the dual
stays the outer layer).  Nodes of two reverse passes do not mix: a reverse
pass inside a reverse pass raises ``ValueError``.

The helpers :func:`partial`, :func:`gradient`, :func:`second_partial`,
:func:`jet`, :func:`taylor2`, :func:`hessian`, the one-variable
:func:`derivative`, :class:`CompiledGradient` (gradients at order 1,
value-gradient-Hessian triples at order 2), :func:`compiled_jet` and
:func:`compiled_values` are the only code in the package that creates
tags, seeds inputs and extracts derivative parts, and the builder is the
only code outside the number types that reads their parts; every other
module differentiates through them.  Each call of ``f`` is one pass and
draws its own tags: a first partial is one dual pass, a single second
partial one nested dual pass, and a gradient or a value-gradient-Hessian
triple one recorded pass.
"""

from __future__ import annotations

import cmath
import functools
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


def _mixed_tapes():
    raise ValueError("nodes of two different reverse passes do not mix")


class _Tape(list):
    """The record of one reverse pass.

    The list holds the sweep entries: entry k is the flat tuple (i, d_i) or
    (i, d_i, j, d_j) of node k's parents and local partials, the pass's n
    inputs being entries 0..n-1.  ``ops`` holds one forward operation per
    value, inputs first (as ``None``): a tuple of the table entry or
    operator code and the value slots of its operands (and an integer
    power), with every plain-number operand lifted, in order, into
    ``consts``.  ``opaque`` is set once a value is read off a node, after
    which the operation sequence may depend on the input.
    """

    __slots__ = ("ops", "consts", "opaque")

    def __init__(self, n):
        super().__init__([None] * n)
        self.ops = [None] * n
        self.consts = []
        self.opaque = False


# operator codes of a tape's forward operations; the ``*C`` codes and
# _RSUB/_RDIV take one constant operand, lifted into the tape's consts
_ADD, _ADDC, _SUB, _SUBC, _RSUB, _NEG, _MUL, _MULC, _DIV, _RDIV, _POW = range(11)


class Rev:
    """A node of a reverse pass: value ``v``, index ``k`` on the tape ``t``
    and value slot ``s`` among the tape's forward operations.

    An operator states the node's value and local partials; :meth:`_chain`
    and :meth:`_pair` write its record.  Adding a constant records no sweep
    entry: x + c shares the index of x, since its partial is 1, but it has
    a value slot of its own.  Arithmetic with a plain number treats it as a
    constant; a ``Dual`` operand is left to the dual's operators.
    """

    __slots__ = ("v", "k", "t", "s")

    # numpy scalars on the left defer to the reflected operators
    __array_ufunc__ = None

    def __init__(self, v, k, t, s):
        self.v = v
        self.k = k
        self.t = t
        self.s = s

    def __repr__(self):
        return f"Rev(v={self.v!r}, k={self.k})"

    def _chain(self, v, d, op, *const):
        """The node f(self) of the forward operation ``op`` from v = f(x) and
        d = f'(x) at x = self.v, with op's plain-number operand ``const``, if
        any, lifted; with ``d=None`` (x + c, x - c) it shares x's sweep index."""
        t = self.t
        t.consts += const
        t.ops.append(op)
        if d is None:
            return Rev(v, self.k, t, len(t.ops) - 1)
        t.append((self.k, d))
        return Rev(v, len(t) - 1, t, len(t.ops) - 1)

    def _pair(self, other, v, a, b, code):
        """The node of value v of the operator ``code`` on self and the node
        ``other``, with local partials a in self and b in other."""
        t = self.t
        if other.t is not t:
            _mixed_tapes()
        t.append((self.k, a, other.k, b))
        t.ops.append((code, self.s, other.s))
        return Rev(v, len(t) - 1, t, len(t.ops) - 1)

    def __add__(self, other):
        if type(other) is Rev:
            return self._pair(other, self.v + other.v, 1.0, 1.0, _ADD)
        if type(other) is Dual:
            return NotImplemented
        return self._chain(self.v + other, None, (_ADDC, self.s), other)

    __radd__ = __add__

    def __neg__(self):
        return self._chain(-self.v, -1.0, (_NEG, self.s))

    def __sub__(self, other):
        if type(other) is Rev:
            return self._pair(other, self.v - other.v, 1.0, -1.0, _SUB)
        if type(other) is Dual:
            return NotImplemented
        return self._chain(self.v - other, None, (_SUBC, self.s), other)

    def __rsub__(self, other):
        return self._chain(other - self.v, -1.0, (_RSUB, self.s), other)

    def __mul__(self, other):
        if type(other) is Rev:
            return self._pair(other, self.v * other.v, other.v, self.v, _MUL)
        if type(other) is Dual:
            return NotImplemented
        return self._chain(self.v * other, other, (_MULC, self.s), other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Rev:
            inv = 1.0 / other.v
            v = self.v * inv
            return self._pair(other, v, inv, -v * inv, _DIV)
        if type(other) is Dual:
            return NotImplemented
        # x / c is x * (1 / c), in value, partial and record
        inv = 1.0 / other
        return self._chain(self.v * inv, inv, (_MULC, self.s), inv)

    def __rtruediv__(self, other):
        inv = 1.0 / self.v
        v = other * inv
        return self._chain(v, -v * inv, (_RDIV, self.s), other)

    def __pow__(self, n):
        # x ** 0 is the value's, x ** 1 is x and x ** -n is 1 / x ** n, so
        # that x ** n records only powers n >= 2; a non-integer power is
        # exp(n log x)
        if not isinstance(n, int):
            return exp(n * log(self))
        if n < 0:
            return 1.0 / self ** -n
        if n == 0:
            return self.v**0
        if n == 1:
            return self
        x = self.v
        return self._chain(x**n, n * x ** (n - 1), (_POW, self.s, n))


#: the package's number types, none of which a reverse pass takes as input
_NUMBER_TYPES = frozenset((Dual, Rev))


def _sweep(tape, y, n):
    """Adjoints of the n inputs of ``tape`` for the pass output ``y``: one
    backward sweep; an output that is no node is a constant."""
    if type(y) is not Rev:
        if isinstance(y, list):
            raise TypeError("a reverse pass differentiates one scalar output")
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
    """Strip all dual or reverse layers and return the underlying float / complex.

    Reading a node's value marks its tape opaque: the pass may branch on it.
    """
    while isinstance(x, Dual):
        x = x.re
    if type(x) is Rev:
        x.t.opaque = True
        return x.v
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
    """All first partials of a scalar-valued ``f`` at float or complex
    ``args`` from one reverse pass: one evaluation of ``f`` (one tag) and
    one backward sweep."""
    return _sweep(*_record(f, args), len(args))


def _record(f, args):
    """One recorded evaluation of ``f`` on the nodes of a new reverse pass
    seeded with ``args``: returns (tape, output)."""
    if not _NUMBER_TYPES.isdisjoint(map(type, args)):
        raise ValueError("a reverse pass is outermost: its inputs are floats or complex")
    fresh_tag()  # the tape needs no tag, but every pass draws one: tags count passes
    tape = _Tape(len(args))
    return tape, f([Rev(x, k, tape, k) for k, x in enumerate(args)])


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
    ``args`` from one recorded pass (one evaluation of ``f`` and one tag)
    and the Taylor sweep over its record (:func:`_taylor`).

    ``order=1`` carries no Hessian and returns ``None`` in its place.  A
    list-valued ``f`` gives one (value, gradient, Hessian) triple per
    component.  The parts keep their scalar type (float or complex).  It is
    the per-call oracle of :func:`compiled_jet`.
    """
    return _taylor(*_record(f, args), args, order)


def compiled_jet(f, args, order=2):
    """What :func:`jet` returns, bit for bit, by the compile rule: one
    recorded pass of ``f``, then the code cached for its skeleton, or the
    Taylor sweep over the record (which compiles the skeleton on its second
    sighting).  It raises what the record or the sweep raises."""
    tape, out = _record(f, args)
    return _run(tape, out, args, order)[0]


def taylor2(f, args):
    """Float value, gradient and symmetric Hessian (list of rows) of ``f``,
    all from the one recorded pass of :func:`jet`; a list-valued ``f``
    gives one such triple per component."""
    out = jet(f, args)
    return [_floats(*y) for y in out] if isinstance(out, list) else _floats(*out)


def _floats(value, grad, hess):
    return float(value), [float(v) for v in grad], [[float(v) for v in row] for row in hess]


def hessian(f, args):
    """Float parts of all second partials of ``f`` as a symmetric list of rows."""
    return taylor2(f, args)[2]


def derivative(f, x):
    """Exact derivative of a scalar function of one scalar."""
    tag = fresh_tag()
    return dual_part(f(Dual(tag, x, 1.0)), tag)


# ---------------------------------------------------------------------------
# the Taylor sweep, compiled passes and the compile rule
# ---------------------------------------------------------------------------

#: skeleton (see _skeleton) -> compiled code that agreed with an interpreted
#: pass; and the skeletons seen once, which have no code yet.  Each table
#: drops its oldest entry once it holds MAX_SKELETONS.
_SKELETONS = {}
_SIGHTED = {}
MAX_SKELETONS = 256


#: a chain rule's first partial and Hessian part (see _FORMS), with
#: f' = g{j} and f'' = h{j}
_CHAIN = ("g{j} * {a}", "g{j} * {a} + h{j} * {ai} * {aj}")

#: each operator's forms, in the value {v} of slot {j}, its operand values
#: {x} and {y}, its constant {c} and integer power {p}: the forward lines
#: and local partials (one per operand slot; "+" and "-" are 1 and -1) of
#: the reverse pass, then a Taylor result's first partial and Hessian part
#: k in the operands' parts {a} and {b} at k, theirs at the pair (i, j) of
#: k ({ai}, {aj}, {bi}, {bj}) and the result's first partials {gi} and
#: {gj}, and the Taylor pass's forward lines where they are not the reverse
#: pass's.  An operator without partials shares the sweep index and the
#: parts of {x}.
_FORMS = {
    _ADD: (["{v} = {x} + {y}"], ["+", "+"], "{a} + {b}", "{a} + {b}"),
    _ADDC: (["{v} = {x} + {c}"], None, None, None),
    _SUB: (["{v} = {x} - {y}"], ["+", "-"], "{a} - {b}", "{a} - {b}"),
    _SUBC: (["{v} = {x} - {c}"], None, None, None),
    _RSUB: (["{v} = {c} - {x}"], ["-"], "-{a}", "-{a}"),
    _NEG: (["{v} = -{x}"], ["-"], "-{a}", "-{a}"),
    _MUL: (["{v} = {x} * {y}"], ["{y}", "{x}"], "{x} * {b} + {y} * {a}",
           "{x} * {b} + {y} * {a} + {ai} * {bj} + {aj} * {bi}"),
    _MULC: (["{v} = {x} * {c}"], ["{c}"], "{a} * {c}", "{a} * {c}"),
    _DIV: (["i{j} = 1.0 / {y}", "{v} = {x} * i{j}"], ["i{j}", "(-{v} * i{j})"],
           "({a} - {v} * {b}) * i{j}", "({a} - {v} * {b} - {bi} * {gj} - {bj} * {gi}) * i{j}",
           ["i{j} = 1.0 / {y}", "{v} = {x} / {y}"]),
    _RDIV: (["i{j} = 1.0 / {x}", "{v} = {c} * i{j}"], ["(-{v} * i{j})"], *_CHAIN,
            ["i{j} = 1.0 / {x}", "{v} = {c} * i{j}", "g{j} = -{v} * i{j}",
             "h{j} = -2.0 * g{j} * i{j}"]),
    _POW: (["{v} = {x} ** {p}", "g{j} = {p} * {x} ** ({p} - 1)"], ["g{j}"], *_CHAIN,
           ["{v} = {x} ** {p}", "g{j} = {p} * {x} ** ({p} - 1)",
            "h{j} = {p} * ({p} - 1) * {x} ** ({p} - 2)"]),
}
_ENTRY_FORM = (["{v} = R{e}({x})", "g{j} = D{e}({x}, {v})"], ["g{j}"], *_CHAIN,
               ["{v} = R{e}({x})", "g{j} = D{e}({x}, {v})", "h{j} = E{e}({x}, {v}, g{j})"])
_WITH_CONST = frozenset((_ADDC, _SUBC, _RSUB, _MULC, _RDIV))


def _hidx(n):
    """(k, i, j) for each packed Hessian part k >= n of n inputs: the pairs
    i <= j, row by row."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    return [(n + k, i, j) for k, (i, j) in enumerate(pairs)]


def _step(form):
    """The Taylor operation of ``form`` on values, as a function of its
    operand values x and y, constant c, integer power p, table entry f,
    operand parts a and b, input count n and the Hessian pairs hidx (see
    :func:`_hidx`): it returns the value and the parts of the result, each
    computed by the form that compiled code computes it by."""
    names = {"v": "v", "x": "x", "y": "y", "c": "c", "p": "p", "j": "_", "e": "",
             "a": "a[k]", "b": "b[k]", "ai": "a[i]", "aj": "a[m]", "bi": "b[i]",
             "bj": "b[m]", "gi": "d[i]", "gj": "d[m]"}
    lines = ["R, D, E = f, f.d1, f.d2"] if form is _ENTRY_FORM else []
    lines += form[4] if len(form) > 4 else form[0]
    if form[2] is None:
        lines.append("return v, a")
    else:
        lines += [f"d = [{form[2]} for k in range(n)]",
                  f"return v, d + [{form[3]} for k, i, m in hidx]"]
    body = "\n    ".join(line.format(**names) for line in lines)
    scope = {}
    exec(compile(f"def step(x, y, c, p, f, a, b, n, hidx):\n    {body}\n", "<taylor step>",
                 "exec"), scope)
    return scope["step"]


@functools.cache
def _steps():
    """The Taylor operation of each operator code, and of a table entry:
    built on the first Taylor sweep in a process, so that a process that
    runs none compiles none."""
    return {code: _step(form) for code, form in _FORMS.items()}, _step(_ENTRY_FORM)


def _taylor(tape, out, args, order):
    """The (value, gradient, Hessian rows) of the pass output ``out`` of the
    record ``tape`` at its inputs ``args``, or the list of those triples
    for a list ``out``; at ``order=1`` the Hessian is None.

    One forward sweep over the record's operations and constants, each
    computed by :func:`_step` from its operands' values and parts, the
    inputs' parts being the seeds 1.0 and 0.0: the Taylor pass that
    compiled code (:func:`_emit2`) equals bit for bit.  No zero part is
    dropped, since its sign and a 0 * inf reach the result.  An output that
    is no node is a constant.
    """
    n = len(args)
    hidx = _hidx(n) if order == 2 else []
    width = n + len(hidx)
    values = list(args)
    parts = [[1.0 if k == i else 0.0 for k in range(width)] for i in range(n)]
    consts = iter(tape.consts)
    steps, entry_step = _steps()
    for code, *slots in tape.ops[n:]:
        p = slots.pop() if code == _POW else None
        c = next(consts) if code in _WITH_CONST else None
        step = steps.get(code, entry_step)
        x, y, a, b = values[slots[0]], values[slots[-1]], parts[slots[0]], parts[slots[-1]]
        v, d = step(x, y, c, p, code, a, b, n, hidx)
        values.append(v)
        parts.append(d)

    def triple(y):
        if type(y) is not Rev:
            value, d = y, [0.0] * width
        elif y.t is not tape:
            _mixed_tapes()
        else:
            value, d = values[y.s], parts[y.s]
        if order == 1:
            return value, d[:n], None
        hess = [[0.0] * n for _ in range(n)]
        for k, i, j in hidx:
            hess[i][j] = hess[j][i] = d[k]
        return value, d[:n], hess

    return [triple(y) for y in out] if isinstance(out, list) else triple(out)


#: each operator's float operation as plain Python computes it, for
#: forward-only code (a table entry's is R{e}({x}))
_VALUES = {
    _ADD: "{x} + {y}", _ADDC: "{x} + {c}", _SUB: "{x} - {y}", _SUBC: "{x} - {c}",
    _RSUB: "{c} - {x}", _NEG: "-{x}", _MUL: "{x} * {y}", _MULC: "{x} * {c}",
    _DIV: "{x} / {y}", _RDIV: "{c} / {x}", _POW: "{x} ** {p}",
}


def _operations(n, ops, entries, canon=None):
    """(operator code, operand slots, format names) of each operation past
    the n inputs of ``ops``; the lifted constants are c0, c1, ... in order
    and ``entries`` numbers the table entries.  ``canon`` (see
    :func:`_value_numbers`) maps each operand to the slot that holds its
    value."""
    nc = 0
    for j in range(n, len(ops)):
        code, *slots = ops[j]
        names = {"j": j, "v": f"v{j}", "c": f"c{nc}"}
        if code == _POW:
            names["p"] = slots.pop()
        if canon is not None:
            slots = [canon[s] for s in slots]
        names["x"] = f"v{slots[0]}"
        if len(slots) == 2:
            names["y"] = f"v{slots[1]}"
        elif code not in _FORMS:
            names["e"] = entries.setdefault(code, len(entries))
        nc += code in _WITH_CONST
        yield code, slots, names


def _classes(consts):
    """For each lifted constant, the index of the first one with the same
    repr, which tells numbers apart by bits and type (-0.0 is not 0.0, nor
    1.0 1); a nan, whose repr hides its bits, is in a class of its own."""
    first = {}
    classes = tuple(map(first.setdefault, map(repr, consts), count()))
    if not any("nan" in key for key in first):
        return classes
    return tuple(k if c != c else m for k, (c, m) in enumerate(zip(consts, classes)))


def _value_numbers(n, ops, classes):
    """The slot whose value each value slot of ``ops`` takes: that of the
    first operation with the same operator or table entry, the same operands
    (as numbered), the same power and a lifted constant of the same class
    (``classes``, see :func:`_classes`), or its own.  Such operations compute
    the same bits in forward mode, so code that computes the first once
    equals the pass (Griewank & Walther ch. 6)."""
    canon, first, nc = list(range(n)), {}, 0
    for j in range(n, len(ops)):
        code, *slots = ops[j]
        power = slots.pop() if code == _POW else None
        const = classes[nc] if code in _WITH_CONST else None
        nc += code in _WITH_CONST
        key = (code, power, const, *[canon[s] for s in slots])
        canon.append(first.setdefault(key, j))
    return canon


def _emit(n, ops, out, entries):
    """Body lines and return value (a list display) of the gradient of
    value slot ``out`` of the forward operations ``ops`` (slots 0..n-1 are
    the inputs, v0..v{n-1}; the lifted constants are c0, c1, ...).

    Every value and local partial is computed as the ``Rev`` operators
    compute it, in the same order, and the adjoints accumulate in the order
    of :func:`_sweep`, so the result equals a reverse pass bit for bit.  An
    adjoint starts at its first contribution instead of 0.0 + it, which can
    only change the sign of a zero; the returned ``+ 0.0`` undoes that.
    """
    lines = []
    kof = list(range(n))  # sweep index of each value slot
    parents = [None] * n  # sweep index -> [(parent sweep index, partial)]
    for code, slots, names in _operations(n, ops, entries):
        form, partials = (_FORMS.get(code) or _ENTRY_FORM)[:2]
        lines += [line.format(**names) for line in form]
        if partials is None:
            kof.append(kof[slots[0]])
            continue
        kof.append(len(parents))
        parents.append([(kof[a], d.format(**names)) for a, d in zip(slots, partials)])
    top = kof[out]
    adj = {top: "1.0"}
    for k in range(top, n - 1, -1):
        ak = adj.get(k, "0.0")
        for p, d in parents[k]:
            if d == "+" or d == "-":
                if ak == "0.0":
                    continue  # a zero, whatever its sign, changes no sum
                if p in adj:
                    lines.append(f"a{p} {d}= {ak}")
                    continue
                term = ak if d == "+" else f"-{ak}"
            else:
                term = d if ak == "1.0" else f"{ak} * {d}"
                if p in adj:
                    lines.append(f"a{p} += {term}")
                    continue
            lines.append(f"a{p} = {term}")
            adj[p] = f"a{p}"
    ret = [adj[i] if i == top else f"a{i} + 0.0" if i in adj else "0.0" for i in range(n)]
    return lines, f"[{', '.join(ret)}]"


def _emit2(n, ops, out, entries, canon, order):
    """Body lines and return value of the (value, gradient, Hessian rows)
    of value slot ``out`` of the forward operations ``ops``, or the list of
    those triples for a tuple of slots ``out``; at ``order=1`` the Hessian
    is None.

    Part k of slot j is d{j}_k, and the inputs' parts are the seeds 1.0
    and 0.0.  Every value and part is computed by the forms that
    :func:`_taylor` computes it by, in the same order, so the result equals
    the Taylor pass bit for bit: no zero part is dropped.  An operation
    that ``canon`` (see :func:`_value_numbers`) numbers as an earlier one
    shares that one's variables, and so does a part whose expression was
    computed already.
    """
    hidx = _hidx(n) if order == 2 else []
    lines, seen = [], {}  # seen: expression -> the variable that holds it
    parts = [["1.0" if k == i else "0.0" for k in range(n + len(hidx))] for i in range(n)]
    for code, slots, names in _operations(n, ops, entries, canon):
        j = names["j"]
        if canon[j] != j:
            parts.append(parts[canon[j]])
            continue
        form = _FORMS.get(code) or _ENTRY_FORM
        lines += [line.format(**names) for line in (form[4] if len(form) > 4 else form[0])]
        a = parts[slots[0]]
        if form[2] is None:
            parts.append(a)
            continue
        b, d = parts[slots[-1]], []  # b is a for a one-operand operator
        for k in range(len(a)):
            if k < n:
                expr = form[2].format(a=a[k], b=b[k], **names)
            else:
                _, i, m = hidx[k - n]
                pair = {"ai": a[i], "aj": a[m], "bi": b[i], "bj": b[m], "gi": d[i], "gj": d[m]}
                expr = form[3].format(a=a[k], b=b[k], **pair, **names)
            if expr not in seen:
                seen[expr] = f"d{j}_{k}"
                lines.append(f"{seen[expr]} = {expr}")
            d.append(seen[expr])
        parts.append(d)
    at = {(i, m): k for k, i, m in hidx}

    def triple(s):
        d = parts[s]
        if order == 1:
            return f"v{canon[s]}, [{', '.join(d)}], None"
        rows = [", ".join(d[at[min(i, m), max(i, m)]] for m in range(n)) for i in range(n)]
        return f"v{canon[s]}, [{', '.join(d[:n])}], [[{'], ['.join(rows)}]]"

    if type(out) is int:
        return lines, triple(out)
    return lines, f"[{', '.join(f'({triple(s)})' for s in out)}]"


def _slots(out):
    """The value slot of a pass output, or the tuple of them of a list."""
    return tuple(y.s for y in out) if type(out) is list else out.s


def _skeleton(tape, out, n, order):
    """The cache key of the recorded pass (``tape``, output ``out``) for a
    gradient (``order`` None) or a Taylor pass of the given order: the
    operation skeleton, whatever the constants' values, and the constants'
    types for a gradient or, for a Taylor pass, whose code is
    value-numbered, which of the constants are equal (by bits and type)."""
    key = (order, n, _slots(out), tuple(tape.ops[n:]))
    if order is None:  # float code runs the float entries: a complex constant needs its own
        return (*key, tuple(map(type, tape.consts)))
    return (*key, _classes(tape.consts))


def _define(head, lines, ret, entries, names, real=True):
    """The function ``code`` of the given head, body lines and return
    value, with the table entries' R{e}, D{e} and E{e} and ``names`` as its
    globals.  R{e} is the entry's float function, or with ``real=False``
    the generic one, which takes complex values too."""
    for f, e in entries.items():
        names[f"R{e}"], names[f"D{e}"], names[f"E{e}"] = f.real if real else f, f.d1, f.d2
    body = "\n    ".join([*lines, f"return {ret}"])
    exec(compile(f"def {head}:\n    {body}\n", "<compiled pass>", "exec"), names)
    return names["code"]


def _compile(tape, out, n, order):
    """The compiled pass (see :func:`_skeleton` for ``order``) of the
    recorded pass (``tape``, output ``out``), called as
    ``code(args, consts)``, whatever the constants (for a Taylor pass,
    whatever constants of the record's classes).  Taylor code calls the
    generic table entries, since it also runs at complex points.  Gradient
    code keeps the body lines and return value of :func:`_emit` as
    ``code.body``, for code emitted around it in ``code``'s globals (the
    step kernels of :mod:`zgeoflow.dynamics`)."""
    entries = {}
    if order is None:
        lines, ret = _emit(n, tape.ops, out.s, entries)
    else:
        canon = _value_numbers(n, tape.ops, _classes(tape.consts))
        lines, ret = _emit2(n, tape.ops, _slots(out), entries, canon, order)
    head = [f"{', '.join(f'v{i}' for i in range(n))}, = x"]
    if tape.consts:
        head.append(f"{', '.join(f'c{i}' for i in range(len(tape.consts)))}, = c")
    code = _define("code(x, c)", [*head, *lines], ret, entries, {}, real=order is None)
    if order is None:
        code.body = lines, ret
    return code


def _compiles(tape, out, order):
    """Whether a record can compile: its output is a node of its own tape,
    or for a Taylor pass a list of them."""
    outs = out if order and type(out) is list else [out]
    return all(type(y) is Rev and y.t is tape for y in outs)


def _keep(table, key, value):
    """Set ``table[key]``, first dropping the oldest entry of a full table."""
    if len(table) >= MAX_SKELETONS:
        del table[next(iter(table))]
    table[key] = value


def _run(tape, out, args, order):
    """The compile rule: the result of the recorded pass (``tape``, output
    ``out``) at its inputs ``args``, a gradient (``order`` None) or a Taylor
    pass of the given order, and the cached code that gave it (None if the
    record was interpreted).

    A record whose skeleton (:func:`_skeleton`) has cached code runs that
    code on its own constants.  Any other is interpreted (:func:`_sweep`
    or :func:`_taylor`); on the skeleton's second sighting its code is
    compiled, checked against that interpreted result and, if they agree
    bit for bit (:func:`_agrees`; a nan agrees with nothing), cached.  The
    rule holds for every record, also one whose function read a value and
    may take another sequence at another input: the record of each call
    fixes the operations that its code then does.
    """
    n = len(args)
    key = _skeleton(tape, out, n, order) if _compiles(tape, out, order) else None
    consts = tuple(tape.consts)
    code = _SKELETONS.get(key)
    if code is not None:
        return code(args, consts), code
    result = _sweep(tape, out, n) if order is None else _taylor(tape, out, args, order)
    if key is None:
        return result, None
    if _SIGHTED.pop(key, None) is None:  # its first sighting
        _keep(_SIGHTED, key, True)
        return result, None
    code = _compile(tape, out, n, order)
    try:
        agrees = _agrees(code(args, consts), result)
    except (ArithmeticError, TypeError, ValueError):
        agrees = False
    if not agrees:
        return result, None
    _keep(_SKELETONS, key, code)
    return result, code


class CompiledGradient:
    """The derivatives of one function ``f`` of float arguments: the
    gradient of :func:`gradient` (``order=1``, a scalar ``f``) or the value,
    gradient and Hessian of :func:`taylor2` (``order=2``; a list-valued
    ``f`` gives one triple per component, from one record and one code).

    Each call records ``f`` (one recorded pass) and runs the record by the
    compile rule (:func:`_run`), until the rule gives it code for a record
    that read no node's value (see :func:`primal`).  Such a function has
    one operation sequence at every input, so the state keeps that code
    and the record's constants, and its later calls on floats run the code
    alone: no record, no tag.  A call with a non-float argument takes the
    per-call pass.  A call raises what its record or pass raises.
    (A function that catches the exceptions of its own arithmetic could
    branch unseen; none in this package does.)
    """

    __slots__ = ("order", "code", "consts")

    def __init__(self, order=1):
        self.order = order
        self.code = self.consts = None

    def __call__(self, f, args):
        if not _FLOAT.issuperset(map(type, args)):
            return gradient(f, args) if self.order == 1 else taylor2(f, args)
        code = self.code
        if code is not None:
            return code(args, self.consts)
        tape, out = _record(f, args)
        result, code = _run(tape, out, args, None if self.order == 1 else 2)
        if code is not None and not tape.opaque:
            self.consts = tuple(tape.consts)  # before the code: a call that sees the code sees them
            self.code = code
        return result


_FLOAT = frozenset((float,))


def _agrees(got, want):
    """Whether compiled results ``got`` are a pass's ``want`` bit for bit:
    each number of the nested lists and tuples has the same repr (-0.0 is
    not 0.0), and none is a nan, whose repr hides its bits."""
    got, want = list(map(repr, _leaves(got))), list(map(repr, _leaves(want)))
    return got == want and not any("nan" in r for r in got)


def compiled_values(f, args):
    """Forward-only compiled code of a list-valued ``f``, called as
    ``code(x)`` with x nested as ``args`` (lists and tuples of floats, read
    by ``f`` in that nesting), or None where it cannot serve.

    ``f`` is recorded once at ``args`` and the record's float operations are
    emitted in their order, value-numbered, with its constants bound: each
    operation as plain Python computes it, apart from a division of a value
    by a plain number, which a record keeps as a product with the inverse.
    The code is kept only if the record read no value and the code's
    results equal those of ``f`` on the floats of ``args`` bit for bit
    (:func:`_agrees`).
    """
    flat = list(_leaves(args))
    tape, out = _record(lambda xs: f(_nested(args, iter(xs))), flat)
    if tape.opaque or type(out) is not list or not _compiles(tape, out, 2):
        return None
    n, entries = len(flat), {}
    canon = _value_numbers(n, tape.ops, _classes(tape.consts))
    target = _nested(args, iter(f"v{i}" for i in range(n)), lambda t: f"[{', '.join(t)}]")
    lines = [f"{target} = x"]
    for op, _, names in _operations(n, tape.ops, entries, canon):
        if canon[names["j"]] == names["j"]:
            lines.append(f"{names['v']} = {_VALUES.get(op, 'R{e}({x})').format(**names)}")
    ret = f"[{', '.join(f'v{canon[y.s]}' for y in out)}]"
    consts = {f"c{k}": c for k, c in enumerate(tape.consts)}
    code = _define("code(x)", lines, ret, entries, consts)
    try:
        agrees = _agrees(code(args), f(args))
    except (ArithmeticError, TypeError, ValueError):
        agrees = False
    return code if agrees else None


def _leaves(x):
    """The scalars of nested lists and tuples ``x``, in order."""
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def _nested(like, leaves, join=list):
    """``leaves`` (an iterator) nested as ``like``, each list or tuple of
    ``like`` made by ``join`` from its items (a list, or the text of an
    assignment target that unpacks such a value)."""
    if isinstance(like, (list, tuple)):
        return join(_nested(y, leaves, join) for y in like)
    return next(leaves)


# ---------------------------------------------------------------------------
# generic elementary functions: one (f, f', f'') entry each
# ---------------------------------------------------------------------------


def _elementary(name, real, cplx, d1, d2):
    """The generic function with float values ``real``, complex values
    ``cplx``, f' = ``d1(x, v)`` and f'' = ``d2(x, v, g)`` at x, from
    v = f(x) and g = f'(x).

    A plain float goes straight to ``real``, so evaluations and the float
    parts of dual passes pay nothing for the dispatch below it.  Gradient
    code calls ``real``, ``d1`` and ``d2`` directly, so a reverse node comes
    here once per recorded operation; the Taylor sweep and Taylor code call
    ``f`` itself on the values, float or complex.  Each type's chain rule
    is written once, here: the value recurses on ``f``, so a ``Dual``
    wrapping older duals or reverse nodes gets f' on the generic types too.
    """

    def f(x):
        if type(x) is float:
            return real(x)
        if type(x) is Rev:
            v = f(x.v)
            return x._chain(v, d1(x.v, v), (f, x.s))
        if isinstance(x, Dual):
            v = f(x.re)
            return Dual(x.tag, v, x.du * d1(x.re, v))
        return cplx(x) if isinstance(x, complex) else real(x)

    f.__name__ = f.__qualname__ = name
    f.real, f.d1, f.d2 = real, d1, d2  # what compiled code calls
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
