"""Command-line interface: verify, simulate, curvature, transform.

Flags take ``--name value`` or ``--name=value``.  Write a value that starts
with ``-`` as ``--name=value``: in ``--p -0.05,0.04,0.06`` the vector reads
as an option, and the command exits 1 with "expected one argument".
``--config file.json`` supplies settings that flags override; each value in
it is checked as its flag is (type, choices, finite numbers), or the
command exits 1.

Exit codes: 0 success, 1 configuration error (bad flags, config file or
output path), 2 numerical/verification failure (including overflow and
domain errors from the evaluation).  Each error is raised where it is
found, and ``main`` alone reports it, as ``error: <message>`` on stderr,
and returns its exit code.  Identical configuration (seed included)
produces byte-identical output files; every output embeds the fully
resolved configuration.

A process loads only what its command runs.  Importing this module loads
the algebra, with the dual numbers, kernels and phase functions it imports;
each command then loads, on its first run, the one module it needs: verify
the brackets and numpy, simulate the dynamics, curvature the geometry (and
with it the Taylor passes), and transform the charts.  A polar simulate or
curvature also loads the charts, when it builds its polar system.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import itertools
import json
import math
import sys

from . import __version__, dual, jsontext
# perfbench/tracing.py rebinds, in this module, names imported here and names
# of _LAZY: the commands call each as a global of this module
from .algebra import (
    casimir_m,
    casimir_one,
    hamiltonian_family,
    hamiltonian_integrable,
    hamiltonian_superintegrable,
    integral_extra_2,
    integral_extra_3,
    realize_generators,
)
from .phase import METHODS, EvaluationDomainError, OutOfChartError, PhasePoint, _worst

#: the names the commands call in the modules that one command alone needs.
#: ``_load`` binds a module's names here, as this module's globals, when its
#: command first runs or when one of them is first read from outside.
_LAZY = {
    "brackets": (
        "bracket_residual",
        "check_algebra",
        "check_involution",
        "gradient_rows",
        "independence_rank",
        "sample_points",
    ),
    "charts": (
        "ChartPass", "PolarPoint", "cart_to_polar", "chart_relation_residuals",
        "fundamental_bracket_residuals", "integrable_polar_system", "polar_to_cart", "rho_to_r",
        "superintegrable_polar_system", "transform_to_cartesian", "transform_to_polar",
    ),
    "dynamics": ("IntegrationError", "conservation_report", "integrate", "trajectory_table"),
    "geometry": (
        "MetricDegenerateError",
        "curvature_summary",
        "gaussian_curvature_variable_2d",
        "line_element_from_hamiltonian",
        "metric_from_hamiltonian",
        "variable_curvature_scalar",
        "variable_curvature_sectionals",
    ),
}
#: the module of _LAZY that each command needs
_NEEDS = {"verify": "brackets", "simulate": "dynamics", "curvature": "geometry",
          "transform": "charts"}
#: the modules of _LAZY whose names are bound
_LOADED = set()


def _load(module):
    """Bind the names of ``module`` in ``_LAZY`` here, once.  A name that is
    bound already, rebound from outside before the module loaded, keeps its
    value."""
    if module in _LOADED:
        return
    source = importlib.import_module(f".{module}", __package__)
    scope = globals()
    for name in _LAZY[module]:
        if name not in scope:
            scope[name] = getattr(source, name)
    _LOADED.add(module)


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

#: ``transform`` exits 2 unless its residuals are below these
#: (the round-trip and canonicity tolerances of acceptance criterion 6)
ROUNDTRIP_TOLERANCE = 1e-10
CANONICITY_TOLERANCE = 1e-9

FAMILY_REGISTRY = {
    "one": (lambda x: 1.0, "1"),
    "exp": (dual.exp, "exp"),
    "one-plus": (lambda x: 1.0 + x, "1+x"),
}


#: what ``zgeoflow --help`` prints above the commands
_DESCRIPTION = """Geodesic flows on curved spaces from a deformed sl(2) Poisson algebra:
four commands, each with its own --help.  Write a value that starts with '-'
as --name=value (--p=-0.05,0.04,0.06).  Exit codes: 0 success, 1
configuration error, 2 numerical or verification failure."""


class _Error(Exception):
    """An error found by ``_resolve`` or a command: ``main`` prints
    ``error: <message>`` and returns ``code``.  It is no ValueError, which
    ``main`` reports as a numerical failure."""

    def __init__(self, message, code=EXIT_CONFIG):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse variant whose configuration errors exit with code 1.

    ``options`` maps each option string to the Action that ``add_argument``
    returned for it, in declaration order; help and ``--version`` (default
    SUPPRESS) are left out.  It is the table ``_read_plain`` reads and
    ``_resolve`` checks every setting against.  ``builtin`` maps each of
    those options' dest to its built-in default, the ``builtin=`` keyword of
    ``add_argument`` (None: the setting may stay unset).  argparse's own
    default stays None, which is how ``_resolve`` tells an option not given.
    """

    def __init__(self, **kwargs):
        self.options = {}
        self.builtin = {}
        super().__init__(**kwargs)

    def add_argument(self, *args, builtin=None, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.default is not argparse.SUPPRESS:
            self.options.update(dict.fromkeys(action.option_strings, action))
            self.builtin[action.dest] = builtin
        return action

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _vector(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}") from err


def _linspace(lo, hi, k):
    """``k >= 1`` evenly spaced floats from lo to hi, bit for bit numpy's
    ``linspace``: i * step + lo, the last point hi; when the step underflows
    to zero, (i / (k - 1)) * (hi - lo) + lo."""
    lo, hi = float(lo), float(hi)
    delta, div = hi - lo, k - 1
    if div == 0:
        return [0.0 * delta + lo]
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + lo for i in range(k)]
    else:
        points = [i * step + lo for i in range(k)]
    points[-1] = hi
    return points


def _json_vector(v):
    """A vector for a JSON report: a complex one as strings, one per entry."""
    return [str(x) for x in v] if isinstance(v[0], complex) else list(v)


def _max_distance(a, b):
    """max_i |a_i - b_i|, or nan if any distance is nan."""
    return _worst([abs(u - v) for u, v in zip(a, b)])


def _write(path, content):
    if path in (None, "-"):
        sys.stdout.write(content)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(content)


def _json_report(config, results, residuals):
    doc = {
        "config": config,
        "results": results,
        "residuals": residuals,
        "version": __version__,
    }
    return jsontext.dumps(doc) + "\n"


def _csv(header, rows, config):
    lines = ["# config: " + json.dumps(config, sort_keys=True, default=float)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _fits(action, val) -> bool:
    """Whether ``val`` has the JSON type of ``action``'s setting: bool for a
    ``store_const`` flag, else by the option's type (float: a number, int:
    an integer, ``_vector``: a list of numbers, none: text)."""
    if action.nargs == 0:
        return isinstance(val, bool)
    if action.type is float:
        return _is_number(val)
    if action.type is int:
        return isinstance(val, int) and not isinstance(val, bool)
    if action.type is _vector:
        return isinstance(val, list) and all(_is_number(v) for v in val)
    return isinstance(val, str)


def _finite(val) -> bool:
    try:
        return math.isfinite(val)
    except OverflowError:  # an int beyond float range, from a config file
        return False


def _resolve(args, sub):
    """Merge precedence: explicit flags > config file > built-in defaults.

    ``sub`` is the subcommand's parser.  Each setting its ``options`` table
    declares, from a flag or the config file, is checked against its option
    as a flag is, and a number from the file is stored as its flag's type
    would store it (an integer as a float in a float or vector setting);
    one left unset takes its ``sub.builtin`` default.  Raises ``_Error`` when the
    file cannot be read or holds no JSON object, names a key that is no
    setting of the subcommand, a setting has the wrong type (``_fits``) or
    a value outside its option's choices, a float setting or a vector entry
    is not finite, or kappa2 is zero.
    """
    cfg = vars(args).copy()
    if cfg["config"]:
        try:
            with open(cfg["config"]) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as err:  # ValueError: not JSON, or not UTF-8
            raise _Error(f"cannot read config file: {err}") from err
        if not isinstance(file_cfg, dict):
            raise _Error("config file must hold a JSON object")
        for name, val in file_cfg.items():
            key = name.replace("-", "_")
            if key not in cfg:  # as argparse turns down an unknown flag
                raise _Error(f"unknown config key {name!r}")
            if cfg[key] is None:
                cfg[key] = val
    for action in sub.options.values():
        key = action.dest
        val = cfg[key]
        if val is None:
            val = cfg[key] = sub.builtin[key]
            if val is None:  # optional setting left unset
                continue
        if not _fits(action, val):
            raise _Error(f"{key} has the wrong type: {val!r}")
        if action.choices is not None and val not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise _Error(f"{key} must be one of {choices}, got {val!r}")
        if action.type is float:
            if not _finite(val):
                raise _Error(f"{key} must be a finite number, got {val!r}")
            cfg[key] = float(val)
        elif action.type is _vector:
            if not all(map(_finite, val)):
                raise _Error(f"{key} must have finite entries, got {val!r}")
            cfg[key] = [float(v) for v in val]
    if cfg.get("kappa2") == 0:
        raise _Error("kappa2 must be nonzero")
    del cfg["config"]
    return cfg


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _origin(hit, funcs):
    """The text that names the sample index k and the function pair (a, b)
    of a check's first nan residual ``hit`` = (k, a, b), or "" for None."""
    if hit is None:
        return ""
    k, a, b = hit
    return f", first at sample {k} in {{{funcs[a].label}, {funcs[b].label}}}"


def cmd_verify(cfg) -> int:
    n, z = cfg["n"], cfg["z"]
    samples, seed = cfg["samples"], cfg["seed"]
    threshold = cfg["threshold"]
    if n < 1:
        raise _Error("dimension must be >= 1")
    if samples < 1:
        raise _Error("need at least one sample")

    import numpy as np

    failures = []
    results = {}

    # each function is differentiated once, into one table of gradient rows:
    # the generators at every sample point, and the other functions of
    # [J-, J+, J3, C(2..n), H_int] + [H_sup, I(2), I(3)] (n >= 3) at the
    # first min(samples, 50), which puts C(m) at index m + 1, H_int at
    # n + 2 and H_sup at n + 3; every check reads its rows from the table
    pts = sample_points(n, samples, seed)
    gens = realize_generators(n, z).as_tuple()
    values = [[float(f(x)) for f in gens] for x in pts]
    gen_q, gen_p = gradient_rows(gens, pts)
    algebra = check_algebra(z, values, gen_q, gen_p)
    results["bracket_relations"] = {
        "j3_jplus": algebra.residual_j3_jplus,
        "j3_jminus": algebra.residual_j3_jminus,
        "jminus_jplus": algebra.residual_jminus_jplus,
    }
    if not (algebra.max_residual < threshold):
        where = _origin(algebra.first_nan, gens)
        failures.append(f"bracket relations (max {algebra.max_residual:.3e}{where})")

    pts = pts[:50]
    c1 = casimir_one(z, n)
    c1_max = _worst([abs(float(c1(x))) for x in pts])
    results["casimir_one"] = c1_max
    if not (c1_max < 1e-12):
        failures.append(f"1-site Casimir not zero ({c1_max:.3e})")

    rest = [*(casimir_m(m, n, z) for m in range(2, n + 1)), hamiltonian_integrable(n, z)]
    if n >= 3:
        rest += [hamiltonian_superintegrable(n, z), integral_extra_2(z, n), integral_extra_3(z, n)]
    rest_q, rest_p = gradient_rows(rest, pts)
    dq = np.concatenate([gen_q[:50], rest_q], axis=1)
    dp = np.concatenate([gen_p[:50], rest_p], axis=1)
    involution = check_involution(dq, dp)
    res = involution.residuals
    funcs = [*gens, *rest]
    # the array max and _worst keep a NaN, and every gate is written to fail on one
    centrality = float(res[3 : n + 2, :3].max(initial=0.0))
    results["casimir_centrality"] = centrality
    if n >= 2 and not (centrality < threshold):
        where = _origin(involution.first_nan((range(3, n + 2), range(3))), funcs)
        failures.append(f"Casimir centrality ({centrality:.3e}{where})")

    tower_res = float(res[3 : n + 3, 3 : n + 3].max())
    results["integrable_involution"] = tower_res
    if not (tower_res < threshold):
        where = _origin(involution.first_nan((range(3, n + 3), range(3, n + 3))), funcs)
        failures.append(f"integrable involution ({tower_res:.3e}{where})")
    worst = [algebra.max_residual, centrality, tower_res]

    if n >= 3:
        # each constant commutes with H; the triples {H,C2,C3} and {H,I2,I3}
        # are mutually in involution (all five together cannot be).  The two
        # triple blocks hold H's row against C2, C3, I2 and I3.
        h = n + 3
        sup_res = _worst([float(res[t][:, t].max()) for t in ([h, 3, 4], [h, h + 1, h + 2])])
        results["superintegrable_involution"] = sup_res
        worst.append(sup_res)
        if not (sup_res < threshold):
            blocks = ((t, t) for t in ([h, 3, 4], [h, h + 1, h + 2]))
            where = _origin(involution.first_nan(*blocks), funcs)
            failures.append(f"superintegrable involution ({sup_res:.3e}{where})")
        # rank per point of [H_sup, C2, C3, I2, I3] and [H_int, C(2..n)],
        # and its margin: the smallest kept singular-value ratio, how far
        # the rank decision was from the tolerance
        sets = (("superintegrable", [h, 3, 4, h + 1, h + 2], 5),
                ("integrable", [n + 2, *range(3, n + 2)], n))
        for key, rows, want in sets:
            ranks = [independence_rank(q[rows], p[rows]) for q, p in zip(dq[:10], dp[:10])]
            results[f"{key}_rank"] = [r.rank for r in ranks]
            results[f"{key}_rank_margin"] = [r.margin for r in ranks]
            if any(r.rank != want for r in ranks):
                failures.append(f"{key} rank != {want} (got {results[f'{key}_rank']})")

    passed = not failures
    results["passed"] = passed
    residuals = {"max": _worst(worst), "threshold": threshold}
    if cfg["format"] == "json":
        content = _json_report(cfg, results, residuals)
    else:
        lines = [
            f"zgeoflow verify (version {__version__})",
            "config = " + json.dumps(cfg, sort_keys=True, default=float),
        ]
        for key, val in sorted(results.items()):
            lines.append(f"{key} = {json.dumps(val, sort_keys=True, default=float)}")
        for f in failures:
            lines.append(f"FAIL: {f}")
        lines.append("status = " + ("pass" if passed else "fail"))
        content = "\n".join(lines) + "\n"
    _write(cfg["output"], content)
    if failures:
        print("verification failed: " + "; ".join(failures), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _hamiltonian(cfg, selector):
    """The Hamiltonian that ``selector`` names on the configured chart, n,
    z and kappa2, and the constants of motion of its polar system (None on
    the Cartesian chart)."""
    n, z = cfg["n"], cfg["z"]
    if cfg["chart"] == "polar":
        if n != 3:
            raise _Error("polar charts are three-dimensional")
        _load("charts")
        if selector == "integrable":
            system = integrable_polar_system(z, cfg["kappa2"])
        elif selector == "superintegrable":
            system = superintegrable_polar_system(z, cfg["kappa2"])
        else:
            raise _Error("polar chart supports integrable/superintegrable only")
        return system.hamiltonian, system.constants
    if selector == "integrable":
        return hamiltonian_integrable(n, z), None
    if selector == "superintegrable":
        return hamiltonian_superintegrable(n, z), None
    # family:<key>, a key of FAMILY_REGISTRY (the option's choices)
    fn, label = FAMILY_REGISTRY[selector.split(":", 1)[1]]
    return hamiltonian_family(n, z, fn, label), None


def _build_system(cfg):
    """Returns (hamiltonian, monitored dict) for the selected system."""
    n, z = cfg["n"], cfg["z"]
    selector = cfg["hamiltonian"]
    h, constants = _hamiltonian(cfg, selector)
    if constants is not None:
        return h, {"H": h, **constants}
    monitored = {"H": h}
    for m in range(2, min(n, 3) + 1):
        monitored[f"C({m})"] = casimir_m(m, n, z)
    if selector == "superintegrable":
        if n >= 2:
            monitored["I(2)"] = integral_extra_2(z, n)
        if n >= 3:
            monitored["I(3)"] = integral_extra_3(z, n)
    return h, monitored


def cmd_simulate(cfg) -> int:
    try:
        h, monitored = _build_system(cfg)
        if cfg["q"] is None or cfg["p"] is None:
            raise _Error("simulate needs --q and --p")
        if cfg["dt"] <= 0 or cfg["t_end"] <= 0:
            raise _Error("dt and t-end must be positive")
        x0 = PhasePoint(cfg["q"], cfg["p"])
    except ValueError as err:
        raise _Error(str(err)) from err
    if x0.dim != cfg["n"]:
        raise _Error("initial state dimension mismatch")

    truncated = False
    message = None
    try:
        traj = integrate(
            h, x0, cfg["t_end"], cfg["dt"], cfg["method"], cfg["keep_every"]
        )
    except IntegrationError as err:
        traj = err.partial
        truncated = True
        message = str(err)
    except (EvaluationDomainError, OutOfChartError) as err:
        raise _Error(str(err), EXIT_NUMERICAL) from err
    except ValueError as err:
        raise _Error(str(err)) from err

    header, rows = trajectory_table(traj, monitored)
    content = _csv(header, rows, cfg)
    if truncated:
        content += f"# truncated: {message}\n"
    _write(cfg["output"], content)

    drifts = (
        conservation_report(traj, monitored).drifts
        if len(traj) > 1 and not truncated
        else {}
    )
    results = {
        "drift": drifts,
        "steps": len(traj) - 1,
        "truncated": truncated,
        "final_time": float(traj.times[-1]),
        "solver": dataclasses.asdict(traj.solver),
    }
    if message:
        results["message"] = message
    meta = _json_report(cfg, results, {"max_drift": max(drifts.values(), default=0.0)})
    if cfg["metadata"]:
        _write(cfg["metadata"], meta)
    if truncated:
        raise _Error(message, EXIT_NUMERICAL)
    return EXIT_OK


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def cmd_curvature(cfg) -> int:
    n, z = cfg["n"], cfg["z"]
    chart = cfg["chart"]
    if n not in (2, 3):
        raise _Error("curvature grids support n = 2 or 3")
    if cfg["grid_points"] < 1:
        raise _Error("grid-points must be >= 1")
    lo = cfg["grid_min"] if cfg["grid_min"] is not None else (0.3 if chart == "polar" else -1.0)
    hi = cfg["grid_max"] if cfg["grid_max"] is not None else (1.1 if chart == "polar" else 1.0)
    if not math.isfinite(hi - lo):
        raise _Error("the grid span grid-max - grid-min is not finite")
    cfg["grid_min"], cfg["grid_max"] = lo, hi

    check = [
        PhasePoint([0.31] * n, [0.41] * n)
        if chart == "cartesian"
        else PhasePoint([0.71, 0.62, 0.53], [0.2, 0.3, 0.4])
    ]
    # a metric that cannot be built is a numerical failure, reported by main
    h, _ = _hamiltonian(cfg, cfg["metric"])
    if chart == "cartesian":
        g = line_element_from_hamiltonian(h, n, check)
    else:
        g = metric_from_hamiltonian(h, 3, check)

    axis = _linspace(lo, hi, cfg["grid_points"])
    names = ["q1", "q2", "q3"][:n] if chart == "cartesian" else ["rho", "theta", "phi"]
    pair_names = {(0, 1): "K12", (0, 2): "K13", (1, 2): "K23"}
    header = list(names)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    header += [pair_names[p] for p in pairs]
    header += ["K"]
    with_ref = chart == "cartesian" or cfg["metric"] == "superintegrable"
    if with_ref:
        header += ["ref_" + pair_names[p] for p in pairs] + ["ref_K"]
        header += ["res_" + pair_names[p] for p in pairs] + ["res_K"]

    rows = []
    try:
        for q in map(list, itertools.product(axis, repeat=n)):
            ks, scal = curvature_summary(g, q)
            row = q + [ks[p] for p in pairs] + [scal]
            if with_ref:
                if cfg["metric"] == "superintegrable":
                    ref = {p: z for p in pairs}
                    ref_scal = (6.0 if n == 3 else 2.0) * z
                elif n == 3:
                    ref = variable_curvature_sectionals(z, q)
                    ref_scal = variable_curvature_scalar(z, q)
                else:
                    ref = {(0, 1): gaussian_curvature_variable_2d(z, q)}
                    ref_scal = 2.0 * ref[(0, 1)]
                row += [ref[p] for p in pairs] + [ref_scal]
                row += [abs(ks[p] - ref[p]) for p in pairs] + [abs(scal - ref_scal)]
            rows.append(row)
    except (
        MetricDegenerateError,
        EvaluationDomainError,
        ZeroDivisionError,
        OverflowError,
    ) as err:
        raise _Error(f"metric not usable on the grid: {err}", EXIT_NUMERICAL) from err
    _write(cfg["output"], _csv(header, rows, cfg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def cmd_transform(cfg) -> int:
    z, kappa2 = cfg["z"], cfg["kappa2"]
    if cfg["q"] is None:
        raise _Error("transform needs --q")
    if len(cfg["q"]) != 3:
        raise _Error("the polar chart is three-dimensional")
    if cfg["p"] is not None and len(cfg["p"]) != 3:
        raise _Error("p must have three components, like q")
    to_polar = cfg["direction"] == "to-polar"
    norm = cfg["normalization"]
    p = cfg["p"] if cfg["p"] is not None else [0.0, 0.0, 0.0]
    # one chart pass at the polar point of q, run when first read: by the
    # momentum map or the round trip, and by the canonicity check, which
    # needs its Hessians
    order = 2 if cfg["canonicity"] else 1
    results = {}
    try:
        if to_polar:
            point = PhasePoint(cfg["q"], p)
            chart = ChartPass(cart_to_polar(point.q, z, kappa2), z, kappa2, order)
            polar = transform_to_polar(point, z, kappa2, norm, chart)
            results["polar"] = dataclasses.asdict(polar)
        else:
            polar = PolarPoint(*cfg["q"], *p)
            point = transform_to_cartesian(polar, z, kappa2, norm)
            results["cartesian"] = {
                "q": _json_vector(point.q),
                "p": _json_vector(point.p),
            }
            if cfg["roundtrip"] or cfg["canonicity"]:
                chart = ChartPass(cart_to_polar(point.q, z, kappa2), z, kappa2, order)
        resid = chart_relation_residuals(point.q, polar.position(), z, kappa2)
        if cfg["with_r"]:
            results["r"] = rho_to_r(polar.rho, z)
        if cfg["roundtrip"]:
            if to_polar:
                back = transform_to_cartesian(polar, z, kappa2, norm, chart)
                err = _max_distance(back.flat(), point.flat())
            else:
                back = transform_to_polar(point, z, kappa2, norm, chart)
                # at rho = 0 the angles are undetermined: compare positions
                # by their Cartesian images there
                pos = (
                    (polar_to_cart(back.position(), z, kappa2), point.q)
                    if polar.rho == 0.0
                    else (back.position(), polar.position())
                )
                err = _worst(
                    [_max_distance(*pos), _max_distance(back.momentum(), polar.momentum())]
                )
            results["roundtrip_error"] = float(err)
        residuals = {"chart_relations": [float(r) for r in resid]}
        if cfg["canonicity"]:
            mat = fundamental_bracket_residuals(point, z, kappa2, chart)
            residuals["canonicity_max"] = _worst([v for row in mat for v in row])
    except OutOfChartError as err:
        rel = f" (relation {err.relation})" if err.relation else ""
        raise _Error(f"out of chart{rel}: {err}", EXIT_NUMERICAL) from err
    _write(cfg["output"], _json_report(cfg, results, residuals))
    # written as not (x < tol), so that a nan residual fails too
    failures = [
        f"{name} {value:.3e} is not below {tol:g}"
        for name, value, tol in (
            ("roundtrip_error", results.get("roundtrip_error"), ROUNDTRIP_TOLERANCE),
            ("canonicity_max", residuals.get("canonicity_max"), CANONICITY_TOLERANCE),
        )
        if value is not None and not value < tol
    ]
    if failures:
        raise _Error("; ".join(failures), EXIT_NUMERICAL)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process (parsing does not change it).

    ``parser.subcommands`` is its subparsers Action, which ``_read_plain``
    reads with each subcommand's ``options`` table.
    """
    parser = _Parser(prog="zgeoflow", description=_DESCRIPTION)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.subcommands = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=None):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--z", type=float, builtin=0.3, help="deformation parameter")
        p.add_argument("--output", builtin=output, help="output path ('-' for stdout)")

    pv = sub.add_parser("verify", help="run the algebraic identity suite")
    add_common(pv)
    pv.add_argument("--n", type=int, builtin=3, help="phase-space dimension")
    pv.add_argument("--samples", type=int, builtin=200, help="random sample count")
    pv.add_argument("--seed", type=int, builtin=0, help="sampling seed")
    pv.add_argument("--threshold", type=float, builtin=1e-9, help="residual threshold")
    pv.add_argument("--format", choices=("text", "json"), builtin="text", help="report format")

    ps = sub.add_parser("simulate", help="integrate a geodesic flow")
    add_common(ps, "trajectory.csv")
    ps.add_argument("--n", type=int, builtin=3)
    ps.add_argument("--kappa2", type=float, builtin=1.0)
    ps.add_argument(
        "--hamiltonian",
        choices=("integrable", "superintegrable", *(f"family:{k}" for k in FAMILY_REGISTRY)),
        builtin="integrable",
    )
    ps.add_argument("--chart", choices=("cartesian", "polar"), builtin="cartesian")
    ps.add_argument("--q", type=_vector, help="initial positions, comma separated")
    ps.add_argument("--p", type=_vector, help="initial momenta, comma separated")
    ps.add_argument("--t-end", dest="t_end", type=float, builtin=10.0)
    ps.add_argument("--dt", type=float, builtin=1e-3)
    ps.add_argument("--method", choices=METHODS, builtin="implicit-midpoint")
    ps.add_argument("--keep-every", dest="keep_every", type=int, builtin=1)
    ps.add_argument("--metadata", help="also write a JSON metadata file here")

    pc = sub.add_parser("curvature", help="curvature values on a grid")
    add_common(pc, "curvature.csv")
    pc.add_argument("--n", type=int, builtin=3)
    pc.add_argument("--kappa2", type=float, builtin=1.0)
    pc.add_argument("--metric", choices=("integrable", "superintegrable"), builtin="integrable")
    pc.add_argument("--chart", choices=("cartesian", "polar"), builtin="cartesian")
    # unset, the grid bounds depend on the chart: cmd_curvature fills them
    pc.add_argument("--grid-min", dest="grid_min", type=float)
    pc.add_argument("--grid-max", dest="grid_max", type=float)
    pc.add_argument("--grid-points", dest="grid_points", type=int, builtin=5)

    pt = sub.add_parser("transform", help="map a phase point between charts")
    add_common(pt)
    pt.add_argument("--kappa2", type=float, builtin=1.0)
    pt.add_argument("--q", type=_vector, help="source-chart positions")
    pt.add_argument("--p", type=_vector, help="source-chart momenta")
    pt.add_argument("--direction", choices=("to-polar", "to-cartesian"), builtin="to-polar")
    pt.add_argument("--normalization", choices=("canonical", "chart"), builtin="canonical")
    pt.add_argument("--with-r", dest="with_r", action="store_const", const=True, builtin=False)
    pt.add_argument("--roundtrip", action="store_const", const=True, builtin=False)
    pt.add_argument("--canonicity", action="store_const", const=True, builtin=False)
    return parser


def _read_plain(argv):
    """The Namespace ``build_parser().parse_args(argv)`` gives, or None.

    It reads a subcommand followed only by its exact option strings as
    ``--name=value``, ``--name value`` (value not starting with ``-``) or a
    bare ``--flag``, each value through its option's type and choices.  Any
    other argv (help, ``--version``, an abbreviation, ``--``, a positional,
    ``--flag=value``, a bad value) gives None, for argparse to parse with
    its own messages.  The tables hold only one-value store options
    (``nargs`` None) and ``store_const`` flags (``nargs`` 0), none required.
    """
    commands = build_parser().subcommands
    sub = commands.choices.get(argv[0]) if argv else None
    if sub is None:
        return None
    options = sub.options
    found = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, text = token.partition("=")
        action = options.get(name)
        if action is None:
            return None
        if action.nargs == 0:
            if eq:
                return None
            found[action.dest] = action.const
            continue
        if not eq:
            text = next(tokens, "-")  # a missing value reads as one turned down
            if text.startswith("-"):
                return None
        elif text == "--":  # argparse drops a '--' value
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        found[action.dest] = value
    ns = argparse.Namespace(**{commands.dest: argv[0]})
    for a in options.values():
        setattr(ns, a.dest, found.get(a.dest, a.default))
    return ns


_COMMANDS = {
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "curvature": cmd_curvature,
    "transform": cmd_transform,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    command = args.command
    try:
        cfg = _resolve(args, build_parser().subcommands.choices[command])
        cfg.pop("command", None)
        cfg["command"] = command
        _load(_NEEDS[command])
        return _COMMANDS[command](cfg)
    except _Error as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except BrokenPipeError:
        return EXIT_OK
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArithmeticError, ValueError) as err:  # includes EvaluationDomainError
        print(f"error: {err or type(err).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
