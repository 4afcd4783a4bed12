"""Per-unit output checks.

A unit fails on a nonzero exit code, a raised exception, a NaN or Inf in
any output file, an output that differs byte for byte from the one the same
argv wrote earlier in the run, or a residual above the tolerance that
``tests/test_acceptance.py`` pins for that check.  The residual checks are
independent re-reads of the files the CLI wrote.
"""

from __future__ import annotations

import json
import re

#: criterion 8: conservation drift over a symplectic run
DRIFT_TOL = 1e-8
#: criterion 4 (3D) and criterion 5 (2D): relative curvature residual of the
#: variable-curvature family, with the denominators those criteria use
VARIABLE_REL_TOL = 1e-6
VARIABLE_FLOOR = {2: 1e-9, 3: 1e-12}
#: criterion 5: constant-curvature family, absolute residual
CONSTANT_ABS_TOL = 1e-7
#: criterion 4: K = 2 (K12 + K13 + K23) in 3D, relative to max(1, |K|)
SCALAR_IDENTITY_TOL = 1e-7
#: criterion 6: chart round trip and canonicity of the 15 brackets
ROUNDTRIP_TOL = 1e-10
CANONICITY_TOL = 1e-9

_NON_FINITE = re.compile(rb"(?i)(?<![a-z])(nan|inf|infinity)(?![a-z])")


def flags(argv) -> dict:
    """``--key=value`` options of an argv; a bare ``--key`` maps to True."""
    out = {}
    for tok in argv:
        if tok.startswith("--"):
            key, eq, value = tok[2:].partition("=")
            out[key] = value if eq else True
    return out


def non_finite(blob: bytes):
    """The first NaN/Inf token in ``blob``, or None."""
    m = _NON_FINITE.search(blob)
    return m.group(0).decode() if m else None


def _verify(output: bytes, meta, opts):
    lines = output.decode().strip().splitlines()
    if not lines or lines[-1] != "status = pass":
        return "verify report does not end with 'status = pass'"
    return None


def _simulate(output: bytes, meta, opts):
    doc = json.loads(meta)
    if doc["results"]["truncated"]:
        return "trajectory truncated"
    drift = doc["residuals"]["max_drift"]
    if not drift < DRIFT_TOL:
        return f"max_drift {drift:.3e} >= {DRIFT_TOL:g}"
    return None


def _curvature(output: bytes, meta, opts):
    text = output.decode().splitlines()
    header = text[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in text[2:]]
    n = int(opts["n"])
    expected = int(opts["grid-points"]) ** n
    if len(rows) != expected:
        return f"{len(rows)} grid rows, expected {expected}"
    col = {name: i for i, name in enumerate(header)}
    pairs = [h for h in header if h.startswith("K") and h != "K"]
    constant = opts["metric"] == "superintegrable"
    for row in rows:
        if n == 3:
            k = row[col["K"]]
            gap = abs(k - 2.0 * sum(row[col[p]] for p in pairs))
            if not gap <= SCALAR_IDENTITY_TOL * max(1.0, abs(k)):
                return f"K - 2 sum K_ij = {gap:.3e} at {row[:n]}"
        for name in pairs + ["K"]:
            if "res_" + name not in col:
                continue
            res = row[col["res_" + name]]
            if constant:
                ok, what = res < CONSTANT_ABS_TOL, f"{res:.3e}"
            else:
                rel = res / max(VARIABLE_FLOOR[n], abs(row[col["ref_" + name]]))
                ok, what = rel < VARIABLE_REL_TOL, f"{rel:.3e} relative"
            if not ok:
                return f"{name} residual {what} at {row[:n]}"
    return None


def _transform(output: bytes, meta, opts):
    doc = json.loads(output)
    trip = doc["results"]["roundtrip_error"]
    if not trip < ROUNDTRIP_TOL:
        return f"round trip {trip:.3e} >= {ROUNDTRIP_TOL:g}"
    canon = doc["residuals"]["canonicity_max"]
    if not canon < CANONICITY_TOL:
        return f"canonicity {canon:.3e} >= {CANONICITY_TOL:g}"
    return None


_BY_COMMAND = {
    "verify": _verify,
    "simulate": _simulate,
    "curvature": _curvature,
    "transform": _transform,
}


def check_outputs(argv, output: bytes, meta) -> str | None:
    """The reason the outputs of ``argv`` are wrong, or None when they pass.

    ``meta`` is the ``--metadata`` file of a simulate unit, else None.
    """
    for blob in (output, meta):
        bad = non_finite(blob) if blob is not None else None
        if bad:
            return f"non-finite value {bad!r} in output"
    try:
        return _BY_COMMAND[argv[0]](output, meta, flags(argv))
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return f"unreadable output: {type(err).__name__}: {err}"
