"""Second order: Taylor sweeps over reverse records and their compiled code.

:func:`_taylor` runs the record of a reverse pass (:mod:`zgeoflow.dual`)
forward as a truncated Taylor expansion over all n inputs at once (Griewank
& Walther, *Evaluating Derivatives*, 2nd ed., ch. 13), by the forms that
its value-numbered code (:func:`_emit2`, ibid. ch. 6) is emitted from, so
the two agree bit for bit.  :func:`compiled_jet` runs a pass by dual's
compile rule, and :func:`compiled_values` emits a record's forward values
alone.  Only ``charts`` and ``geometry`` import this module; every record
draws its tag through ``dual.fresh_tag``.
"""

from __future__ import annotations

import functools

from . import dual
from .dual import (
    _ADD, _ADDC, _DIV, _ENTRY_FORM, _FORMS, _MUL, _MULC, _NEG, _POW, _RDIV, _RSUB, _SUB,
    _SUBC, _WITH_CONST, _agrees, _classes, _compiles, _define, _leaves, _operations, _slot,
)


def jet(f, args, order=2):
    """Value, gradient and Hessian (symmetric list of rows) of ``f`` at
    ``args`` from one recorded pass (one evaluation of ``f`` and one tag)
    and the Taylor sweep over its record (:func:`_taylor`).

    ``order=1`` carries no Hessian and returns ``None`` in its place.  A
    list-valued ``f`` gives one (value, gradient, Hessian) triple per
    component.  The parts keep their scalar type (float or complex).  It is
    the per-call oracle of :func:`compiled_jet`.
    """
    return _taylor(*dual._record(f, args), args, order)


def compiled_jet(f, args, order=2):
    """What :func:`jet` returns, bit for bit, by the compile rule: one
    recorded pass of ``f``, then the code cached for its skeleton, or the
    Taylor sweep over the record (which compiles the skeleton on its second
    sighting).  It raises what the record or the sweep raises."""
    tape, out = dual._record(f, args)
    return dual._run(tape, out, args, order)[0]


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
        s = _slot(tape, y)
        value, d = (y, [0.0] * width) if s is None else (values[s], parts[s])
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


def _value_numbers(n, ops, classes):
    """The slot whose value each value slot of ``ops`` takes: that of the
    first operation with the same operator or table entry, the same operands
    (as numbered), the same power and a lifted constant of the same class
    (``classes``, see :func:`zgeoflow.dual._classes`), or its own.  Such
    operations compute the same bits in forward mode, so code that computes
    the first once equals the pass (Griewank & Walther ch. 6)."""
    canon, first, nc = list(range(n)), {}, 0
    for j in range(n, len(ops)):
        code, *slots = ops[j]
        power = slots.pop() if code == _POW else None
        const = classes[nc] if code in _WITH_CONST else None
        nc += code in _WITH_CONST
        key = (code, power, const, *[canon[s] for s in slots])
        canon.append(first.setdefault(key, j))
    return canon


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
    (``dual._agrees``).
    """
    flat = list(_leaves(args))
    tape, out = dual._record(lambda xs: f(_nested(args, iter(xs))), flat)
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


def _nested(like, leaves, join=list):
    """``leaves`` (an iterator) nested as ``like``, each list or tuple of
    ``like`` made by ``join`` from its items (a list, or the text of an
    assignment target that unpacks such a value)."""
    if isinstance(like, (list, tuple)):
        return join(_nested(y, leaves, join) for y in like)
    return next(leaves)
