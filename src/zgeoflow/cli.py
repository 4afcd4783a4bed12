"""Command-line interface: verify, simulate, curvature, transform.

Exit codes: 0 success, 1 configuration error (bad flags, config file or
output path), 2 numerical/verification failure (including overflow and
domain errors from the evaluation).  Identical configuration (seed
included) produces byte-identical output files; every output embeds the
fully resolved configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__, dual, jsontext
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
# perfbench/tracing.py binds each of these names in this module; keep them
from .brackets import (
    bracket_residual,
    check_algebra,
    check_involution,
    independence_rank,
    sample_points,
)
from .charts import (
    ChartPass,
    OutOfChartError,
    PolarPoint,
    cart_to_polar,
    chart_relation_residuals,
    fundamental_bracket_residuals,
    integrable_polar_system,
    polar_to_cart,
    rho_to_r,
    superintegrable_polar_system,
    transform_to_cartesian,
    transform_to_polar,
)
from .dynamics import (
    METHODS,
    IntegrationError,
    conservation_report,
    integrate,
    trajectory_table,
)
from .geometry import (
    MetricDegenerateError,
    curvature_summary,
    gaussian_curvature_variable_2d,
    line_element_from_hamiltonian,
    metric_from_hamiltonian,
    variable_curvature_scalar,
    variable_curvature_sectionals,
)
from .phase import EvaluationDomainError, PhasePoint

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


class _Parser(argparse.ArgumentParser):
    """argparse variant whose configuration errors exit with code 1."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _vector(text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad vector {text!r}") from err


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


#: config keys by the JSON type they must resolve to; every other key is text
_NUMBER_KEYS = {"z", "kappa2", "threshold", "t_end", "dt", "grid_min", "grid_max"}
_INTEGER_KEYS = {"n", "samples", "seed", "keep_every", "grid_points"}
_VECTOR_KEYS = {"q", "p"}
_FLAG_KEYS = {"with_r", "roundtrip", "canonicity"}


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _has_type(key, val) -> bool:
    if val is None:  # optional setting left unset
        return True
    if key in _NUMBER_KEYS:
        return _is_number(val)
    if key in _INTEGER_KEYS:
        return isinstance(val, int) and not isinstance(val, bool)
    if key in _VECTOR_KEYS:
        return isinstance(val, list) and all(_is_number(v) for v in val)
    if key in _FLAG_KEYS:
        return isinstance(val, bool)
    return isinstance(val, str)


def _resolve(args, parser_defaults):
    """Merge precedence: explicit flags > config file > built-in defaults.

    Returns None, after printing the error, when the file cannot be read or
    holds no JSON object, a setting has the wrong type, z or kappa2 is not a
    finite number, or kappa2 is zero.
    """
    cfg = vars(args).copy()
    path = cfg.pop("config", None)
    if path:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"error: cannot read config file: {err}", file=sys.stderr)
            return None
        if not isinstance(file_cfg, dict):
            print("error: config file must hold a JSON object", file=sys.stderr)
            return None
        for key, val in file_cfg.items():
            key = key.replace("-", "_")
            if key in cfg and cfg[key] is None:
                cfg[key] = val
    for key, val in parser_defaults.items():
        if cfg.get(key) is None:
            cfg[key] = val
    for key, val in cfg.items():
        if not _has_type(key, val):
            print(f"error: {key} has the wrong type: {val!r}", file=sys.stderr)
            return None
    for key in ("z", "kappa2"):
        val = cfg.get(key, 0.0)  # verify has no kappa2
        if not math.isfinite(val):
            print(f"error: {key} must be a finite number, got {val!r}", file=sys.stderr)
            return None
    if cfg.get("kappa2") == 0:
        print("error: kappa2 must be nonzero", file=sys.stderr)
        return None
    return cfg


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_DEFAULTS = dict(
    n=3, z=0.3, samples=200, seed=0, output=None, format="text", threshold=1e-9
)


def cmd_verify(cfg) -> int:
    n, z = cfg["n"], cfg["z"]
    samples, seed = cfg["samples"], cfg["seed"]
    threshold = cfg["threshold"]
    if n < 1:
        print("error: dimension must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if samples < 1:
        print("error: need at least one sample", file=sys.stderr)
        return EXIT_CONFIG

    failures = []
    results = {}

    algebra = check_algebra(n, z, samples, seed)
    results["bracket_relations"] = {
        "j3_jplus": algebra.residual_j3_jplus,
        "j3_jminus": algebra.residual_j3_jminus,
        "jminus_jplus": algebra.residual_jminus_jplus,
    }
    if not algebra.passed:
        failures.append(f"bracket relations (max {algebra.max_residual:.3e})")

    pts = sample_points(n, min(samples, 50), seed)
    c1 = casimir_one(z, n)
    c1_max = float(np.max([abs(float(c1(x))) for x in pts]))
    results["casimir_one"] = c1_max
    if not (c1_max < 1e-12):
        failures.append(f"1-site Casimir not zero ({c1_max:.3e})")

    # every bracket check reads a block of one residual table over
    # [J-, J+, J3, C(2..n), H_int] + [H_sup, I(2), I(3)] (n >= 3), which
    # puts C(m) at index m + 1, H_int at n + 2 and H_sup at n + 3
    gen = realize_generators(n, z)
    casimirs = [casimir_m(m, n, z) for m in range(2, n + 1)]
    h_int = hamiltonian_integrable(n, z)
    tower = [h_int, *casimirs]
    fns = [*gen.as_tuple(), *casimirs, h_int]
    if n >= 3:
        h_sup = hamiltonian_superintegrable(n, z)
        i2, i3 = integral_extra_2(z, n), integral_extra_3(z, n)
        fns += [h_sup, i2, i3]
    res = check_involution(fns, min(samples, 50), seed, threshold).residuals
    # np.max keeps a NaN, and every gate is written to fail on one
    centrality = float(np.max(res[3 : n + 2, :3], initial=0.0))
    results["casimir_centrality"] = centrality
    if n >= 2 and not (centrality < threshold):
        failures.append(f"Casimir centrality ({centrality:.3e})")

    tower_res = float(np.max(res[3 : n + 3, 3 : n + 3]))
    results["integrable_involution"] = tower_res
    if not (tower_res < threshold):
        failures.append(f"integrable involution ({tower_res:.3e})")
    worst = [algebra.max_residual, centrality, tower_res]

    if n >= 3:
        sup_set = [h_sup, casimirs[0], casimirs[1], i2, i3]
        # each constant commutes with H; the triples {H,C2,C3} and {H,I2,I3}
        # are mutually in involution (all five together cannot be).  The two
        # triple blocks hold H's row against C2, C3, I2 and I3.
        h = n + 3
        sup_res = float(np.max([res[np.ix_(t, t)] for t in ([h, 3, 4], [h, h + 1, h + 2])]))
        results["superintegrable_involution"] = sup_res
        worst.append(sup_res)
        if not (sup_res < threshold):
            failures.append(f"superintegrable involution ({sup_res:.3e})")
        # rank per point, and its margin: the smallest kept singular-value
        # ratio, how far the rank decision was from the tolerance
        for key, funcs, want in (("superintegrable", sup_set, 5), ("integrable", tower, n)):
            ranks = [independence_rank(funcs, x) for x in pts[: min(10, len(pts))]]
            results[f"{key}_rank"] = [r.rank for r in ranks]
            results[f"{key}_rank_margin"] = [r.margin for r in ranks]
            if any(r.rank != want for r in ranks):
                failures.append(f"{key} rank != {want} (got {results[f'{key}_rank']})")

    passed = not failures
    results["passed"] = passed
    residuals = {"max": float(np.max(worst)), "threshold": threshold}
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

SIMULATE_DEFAULTS = dict(
    n=3,
    z=0.3,
    kappa2=1.0,
    hamiltonian="integrable",
    chart="cartesian",
    q=None,
    p=None,
    t_end=10.0,
    dt=1e-3,
    method="implicit-midpoint",
    keep_every=1,
    output="trajectory.csv",
    metadata=None,
)


def _build_system(cfg):
    """Returns (hamiltonian, monitored dict) for the selected system."""
    n, z = cfg["n"], cfg["z"]
    selector = cfg["hamiltonian"]
    chart = cfg["chart"]
    if chart == "polar":
        if n != 3:
            raise ValueError("polar charts are three-dimensional")
        if selector == "integrable":
            system = integrable_polar_system(z, cfg["kappa2"])
        elif selector == "superintegrable":
            system = superintegrable_polar_system(z, cfg["kappa2"])
        else:
            raise ValueError("polar chart supports integrable/superintegrable only")
        monitored = {"H": system.hamiltonian, **system.constants}
        return system.hamiltonian, monitored
    if selector == "integrable":
        h = hamiltonian_integrable(n, z)
    elif selector == "superintegrable":
        h = hamiltonian_superintegrable(n, z)
    elif selector.startswith("family:"):
        key = selector.split(":", 1)[1]
        if key not in FAMILY_REGISTRY:
            raise ValueError(
                f"unknown family {key!r}; registered: {sorted(FAMILY_REGISTRY)}"
            )
        fn, label = FAMILY_REGISTRY[key]
        h = hamiltonian_family(n, z, fn, label)
    else:
        raise ValueError(f"unknown hamiltonian selector {selector!r}")
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
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg["q"] is None or cfg["p"] is None:
        print("error: simulate needs --q and --p", file=sys.stderr)
        return EXIT_CONFIG
    if cfg["dt"] <= 0 or cfg["t_end"] <= 0:
        print("error: dt and t-end must be positive", file=sys.stderr)
        return EXIT_CONFIG
    if cfg["method"] not in METHODS:
        print(f"error: unknown method {cfg['method']}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        x0 = PhasePoint(cfg["q"], cfg["p"])
        if x0.dim != cfg["n"]:
            print("error: initial state dimension mismatch", file=sys.stderr)
            return EXIT_CONFIG
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

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
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG

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
        print(f"error: {message}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

CURVATURE_DEFAULTS = dict(
    n=3,
    z=0.3,
    kappa2=1.0,
    metric="integrable",
    chart="cartesian",
    grid_min=None,
    grid_max=None,
    grid_points=5,
    output="curvature.csv",
)


def cmd_curvature(cfg) -> int:
    n, z = cfg["n"], cfg["z"]
    chart = cfg["chart"]
    if n not in (2, 3):
        print("error: curvature grids support n = 2 or 3", file=sys.stderr)
        return EXIT_CONFIG
    if chart not in ("cartesian", "polar"):
        print("error: chart must be cartesian or polar", file=sys.stderr)
        return EXIT_CONFIG
    if cfg["metric"] not in ("integrable", "superintegrable"):
        print("error: metric must be integrable or superintegrable", file=sys.stderr)
        return EXIT_CONFIG
    if cfg["grid_points"] < 1:
        print("error: grid-points must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    lo = cfg["grid_min"] if cfg["grid_min"] is not None else (0.3 if chart == "polar" else -1.0)
    hi = cfg["grid_max"] if cfg["grid_max"] is not None else (1.1 if chart == "polar" else 1.0)
    cfg["grid_min"], cfg["grid_max"] = lo, hi

    check = [
        PhasePoint([0.31] * n, [0.41] * n)
        if chart == "cartesian"
        else PhasePoint([0.71, 0.62, 0.53], [0.2, 0.3, 0.4])
    ]
    # a metric that cannot be built is a numerical failure, reported by main
    if chart == "cartesian":
        h = (
            hamiltonian_integrable(n, z)
            if cfg["metric"] == "integrable"
            else hamiltonian_superintegrable(n, z)
        )
        g = line_element_from_hamiltonian(h, n, check)
    else:
        if n != 3:
            print("error: polar charts are three-dimensional", file=sys.stderr)
            return EXIT_CONFIG
        system = (
            integrable_polar_system(z, cfg["kappa2"])
            if cfg["metric"] == "integrable"
            else superintegrable_polar_system(z, cfg["kappa2"])
        )
        g = metric_from_hamiltonian(system.hamiltonian, 3, check)

    axes = [np.linspace(lo, hi, cfg["grid_points"]) for _ in range(n)]
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
        for idx in np.ndindex(*(len(a) for a in axes)):
            q = [float(axes[d][i]) for d, i in enumerate(idx)]
            ks, scal = curvature_summary(g, q)
            row = list(q) + [ks[p] for p in pairs] + [scal]
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
        print(f"error: metric not usable on the grid: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    _write(cfg["output"], _csv(header, rows, cfg))
    return EXIT_OK


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

TRANSFORM_DEFAULTS = dict(
    z=0.3,
    kappa2=1.0,
    q=None,
    p=None,
    direction="to-polar",
    normalization="canonical",
    with_r=False,
    roundtrip=False,
    canonicity=False,
    output=None,
)


def cmd_transform(cfg) -> int:
    z, kappa2 = cfg["z"], cfg["kappa2"]
    if cfg["q"] is None:
        print("error: transform needs --q", file=sys.stderr)
        return EXIT_CONFIG
    if len(cfg["q"]) != 3:
        print("error: the polar chart is three-dimensional", file=sys.stderr)
        return EXIT_CONFIG
    if cfg["p"] is not None and len(cfg["p"]) != 3:
        print("error: p must have three components, like q", file=sys.stderr)
        return EXIT_CONFIG
    if cfg["direction"] not in ("to-polar", "to-cartesian"):
        print("error: direction must be to-polar or to-cartesian", file=sys.stderr)
        return EXIT_CONFIG
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
                "q": [str(v) for v in point.q] if np.iscomplexobj(point.q) else list(point.q),
                "p": [str(v) for v in point.p] if np.iscomplexobj(point.p) else list(point.p),
            }
            if cfg["roundtrip"] or cfg["canonicity"]:
                chart = ChartPass(cart_to_polar(point.q, z, kappa2), z, kappa2, order)
        resid = chart_relation_residuals(point.q, polar.position(), z, kappa2)
        if cfg["with_r"]:
            results["r"] = rho_to_r(polar.rho, z)
        if cfg["roundtrip"]:
            if to_polar:
                back = transform_to_cartesian(polar, z, kappa2, norm, chart)
                err = max(
                    np.max(np.abs(back.q - point.q)), np.max(np.abs(back.p - point.p))
                )
            else:
                back = transform_to_polar(point, z, kappa2, norm, chart)
                # at rho = 0 the angles are undetermined: compare positions
                # by their Cartesian images there
                pos = (
                    polar_to_cart(back.position(), z, kappa2) - point.q
                    if polar.rho == 0.0
                    else back.position() - polar.position()
                )
                err = max(
                    np.max(np.abs(pos)),
                    np.max(np.abs(back.momentum() - polar.momentum())),
                )
            results["roundtrip_error"] = float(err)
        residuals = {"chart_relations": [float(r) for r in resid]}
        if cfg["canonicity"]:
            mat = fundamental_bracket_residuals(point, z, kappa2, chart)
            residuals["canonicity_max"] = float(mat.max())
    except OutOfChartError as err:
        rel = f" (relation {err.relation})" if err.relation else ""
        print(f"error: out of chart{rel}: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
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
        print("error: " + "; ".join(failures), file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process (parsing does not change it)."""
    parser = _Parser(prog="zgeoflow", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--z", type=float, help="deformation parameter")
        p.add_argument("--output", help="output path ('-' for stdout)")

    pv = sub.add_parser("verify", help="run the algebraic identity suite")
    add_common(pv)
    pv.add_argument("--n", type=int, help="phase-space dimension")
    pv.add_argument("--samples", type=int, help="random sample count")
    pv.add_argument("--seed", type=int, help="sampling seed")
    pv.add_argument("--threshold", type=float, help="residual threshold")
    pv.add_argument("--format", choices=("text", "json"), help="report format")

    ps = sub.add_parser("simulate", help="integrate a geodesic flow")
    add_common(ps)
    ps.add_argument("--n", type=int)
    ps.add_argument("--kappa2", type=float)
    ps.add_argument(
        "--hamiltonian",
        help="integrable | superintegrable | family:<one|exp|one-plus>",
    )
    ps.add_argument("--chart", choices=("cartesian", "polar"))
    ps.add_argument("--q", type=_vector, help="initial positions, comma separated")
    ps.add_argument("--p", type=_vector, help="initial momenta, comma separated")
    ps.add_argument("--t-end", dest="t_end", type=float)
    ps.add_argument("--dt", type=float)
    ps.add_argument("--method", choices=METHODS)
    ps.add_argument("--keep-every", dest="keep_every", type=int)
    ps.add_argument("--metadata", help="also write a JSON metadata file here")

    pc = sub.add_parser("curvature", help="curvature values on a grid")
    add_common(pc)
    pc.add_argument("--n", type=int)
    pc.add_argument("--kappa2", type=float)
    pc.add_argument("--metric", choices=("integrable", "superintegrable"))
    pc.add_argument("--chart", choices=("cartesian", "polar"))
    pc.add_argument("--grid-min", dest="grid_min", type=float)
    pc.add_argument("--grid-max", dest="grid_max", type=float)
    pc.add_argument("--grid-points", dest="grid_points", type=int)

    pt = sub.add_parser("transform", help="map a phase point between charts")
    add_common(pt)
    pt.add_argument("--kappa2", type=float)
    pt.add_argument("--q", type=_vector, help="source-chart positions")
    pt.add_argument("--p", type=_vector, help="source-chart momenta")
    pt.add_argument("--direction", choices=("to-polar", "to-cartesian"))
    pt.add_argument("--normalization", choices=("canonical", "chart"))
    pt.add_argument("--with-r", dest="with_r", action="store_const", const=True)
    pt.add_argument("--roundtrip", action="store_const", const=True)
    pt.add_argument("--canonicity", action="store_const", const=True)
    return parser


_DEFAULTS = {
    "verify": VERIFY_DEFAULTS,
    "simulate": SIMULATE_DEFAULTS,
    "curvature": CURVATURE_DEFAULTS,
    "transform": TRANSFORM_DEFAULTS,
}

_COMMANDS = {
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "curvature": cmd_curvature,
    "transform": cmd_transform,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    cfg = _resolve(args, _DEFAULTS[command])
    if cfg is None:
        return EXIT_CONFIG
    cfg.pop("command", None)
    cfg["command"] = command
    try:
        return _COMMANDS[command](cfg)
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
