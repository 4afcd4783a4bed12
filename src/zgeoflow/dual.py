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

Second order is a forward Taylor sweep over the same record, in
:mod:`zgeoflow.taylor`, which only the modules that ask for it import; its
public functions also resolve here (PEP 562), on first access.

Each elementary function is one table entry: its float and complex
values and its f' and f'' as expressions in x, f(x) and f'(x).  One
builder, :func:`_elementary`, applies each number type's chain rule to
them: a dual and a reverse node map through f' on the generic function of
the value, so complex points work too; the Taylor sweep and compiled code
call the entry's f, f' and f''.  A new kernel plugs in once, in the
builder; the kernels of :mod:`zgeoflow.kernels` are entries too.

Compiled passes.  A record is emitted as straight-line Python from one
table of operator forms (``_FORMS``; source transformation, ibid., ch. 6),
and computes each value and part as its interpreted pass (:func:`_sweep`,
or the Taylor sweep) does, so the two agree bit for bit.

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
calls skip the record.  A compiled call evaluates no number type and draws
no tag.

Nesting rule.  Reverse passes, and so Taylor passes, are outermost: their
inputs are plain floats or complex numbers.  Forward dual passes may run
inside a reverse pass (a ``Dual`` then wraps reverse nodes; the nodes'
operators return ``NotImplemented`` for a ``Dual`` operand, so the dual
stays the outer layer).  Nodes of two reverse passes do not mix: a reverse
pass inside a reverse pass raises ``ValueError``.

The helpers :func:`partial`, :func:`gradient`, :func:`second_partial`,
the one-variable :func:`derivative`, :class:`CompiledGradient` (gradients
at order 1, value-gradient-Hessian triples at order 2) and the functions of
:mod:`zgeoflow.taylor` are the only code in the package that creates tags,
seeds inputs and extracts derivative parts, and the builder is the only
code outside the number types that reads their parts; every other module
differentiates through them.  Each call of ``f`` is one pass and
draws its own tags: a first partial is one dual pass, a single second
partial one nested dual pass, and a gradient or a value-gradient-Hessian
triple one recorded pass.
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


def _operations(n, ops, entries, canon=None):
    """(operator code, operand slots, format names) of each operation past
    the n inputs of ``ops``; the lifted constants are c0, c1, ... in order
    and ``entries`` numbers the table entries.  ``canon`` (see
    :func:`zgeoflow.taylor._value_numbers`) maps each operand to the slot that holds its
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


def _slots(out):
    """The value slot of a pass output, or the tuple of them of a list."""
    return tuple(y.s for y in out) if type(out) is list else out.s


def _slot(tape, y):
    """The value slot of the pass output ``y`` of ``tape``; None for a constant."""
    if type(y) is not Rev:
        return None
    if y.t is not tape:
        _mixed_tapes()
    return y.s


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
        from .taylor import _emit2, _value_numbers

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
    or :func:`zgeoflow.taylor._taylor`); on the skeleton's second sighting its code is
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
    if order is None:
        result = _sweep(tape, out, n)
    else:
        from .taylor import _taylor

        result = _taylor(tape, out, args, order)
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
    gradient and Hessian of :func:`zgeoflow.taylor.taylor2` (``order=2``; a list-valued
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
            if self.order == 1:
                return gradient(f, args)
            from .taylor import taylor2

            return taylor2(f, args)
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


def _leaves(x):
    """The scalars of nested lists and tuples ``x``, in order."""
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


def __getattr__(name):
    """The public functions of :mod:`zgeoflow.taylor` resolve here too."""
    if name not in ("jet", "compiled_jet", "taylor2", "hessian", "compiled_values"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import taylor

    value = globals()[name] = getattr(taylor, name)
    return value


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
