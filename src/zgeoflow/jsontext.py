"""JSON text of the CLI's reports, with no reference cycles left behind.

:func:`dumps` writes what ``json.dumps(obj, sort_keys=True, indent=2,
default=float)`` writes, byte for byte.  The standard library encodes with
an indent through recursive closures, which form reference cycles on every
call, so each report left about 30 objects for the cyclic collector and
peak memory followed the collector's schedule; this recursion leaves none.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string

_CONSTANTS = {"None": "null", "True": "true", "False": "false"}


def _number(x) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _key(key) -> str:
    if isinstance(key, str):
        return _string(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + dumps(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def dumps(obj, pad: str = "") -> str:
    """``obj`` as indented JSON text, its nested lines indented from ``pad``."""
    if isinstance(obj, str):
        return _string(obj)
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[repr(obj)]
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _number(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        items = [inner + dumps(v, inner) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
    if isinstance(obj, dict):
        items = [inner + _key(k) + ": " + dumps(v, inner) for k, v in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    return dumps(float(obj), pad)
