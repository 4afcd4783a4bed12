"""simulate, curvature and transform run without importing numpy; verify
imports it (the sample draws, the residual table, the rank's SVD)."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import zgeoflow
from zgeoflow.phase import PhasePoint

#: one unit of every geodesic shape: each system of the geodesic workload,
#: with both implicit steppers
_CART = "--t-end=0.01 --q=0.3,0.2,0.1 --p=0.1,-0.2,0.3"
_POLAR = "--t-end=0.01 --chart=polar --q=0.7,0.6,0.5 --p=0.2,0.3,0.4"
GEODESIC_UNITS = [
    f"simulate {_CART} --hamiltonian=integrable",
    f"simulate {_CART} --hamiltonian=superintegrable --method=gauss4",
    f"simulate {_CART} --hamiltonian=family:exp",
    f"simulate {_CART} --hamiltonian=family:one-plus --method=gauss4",
    f"simulate {_POLAR} --hamiltonian=integrable",
    f"simulate {_POLAR} --hamiltonian=superintegrable --method=gauss4",
]
_FLAGS = "--with-r --roundtrip --canonicity"
#: one unit of every curvature shape: grids and both transform directions
CURVATURE_UNITS = [
    "curvature --n=2 --grid-points=2",
    "curvature --n=3 --grid-points=2 --metric=superintegrable",
    "curvature --chart=polar --grid-points=2",
    "curvature --chart=polar --grid-points=2 --metric=superintegrable --kappa2=-1",
    f"transform --q=0.5,0.4,0.6 --p=0.2,-0.3,0.45 {_FLAGS}",
    f"transform --direction=to-cartesian --q=0.7,0.6,0.5 --p=0.2,0.3,0.4 {_FLAGS}",
    f"transform --direction=to-cartesian --kappa2=-1 --q=0.7,0.6,0.5 --p=0.2,0.3,0.4 {_FLAGS}",
    f"transform --direction=to-cartesian --kappa2=-1 --normalization=chart --z=-0.4"
    f" --q=0.5,0.8,0.9 --p=-0.3,0.1,0.2 {_FLAGS}",
]
#: a failing unit on each error path, with its exit code
FAILING_UNITS = [
    ("curvature --grid-points=x", 1),  # argparse
    ("curvature --grid-points=0", 1),  # the handler's range check
    ("simulate --t-end=0.01 --q=1,1 --p=1,1,1", 1),  # PhasePoint's check
    ("curvature --z=nan", 1),  # the config check
    ("transform --direction=to-polar --kappa2=-1 --q=0.5,0.4,0.6 --p=0.1,0.2,0.3", 2),
    ("transform --q=1,1,1 --z=1e300", 2),  # overflow in the chart map
    ("curvature --chart=polar --grid-min=0 --grid-max=0 --grid-points=1", 2),
    ("curvature --z=1e300 --grid-points=2", 2),
    ("simulate --t-end=0.01 --z=1e300 --q=1,1,1 --p=1,1,1", 2),  # truncated trajectory
]
#: what each of FAILING_UNITS writes on stderr
FAILING_MESSAGES = [
    "zgeoflow curvature: error: argument --grid-points: invalid int value: 'x'\n",
    "error: grid-points must be >= 1\n",
    "error: q and p must have identical length\n",
    "error: z must be a finite number, got nan\n",
    "error: out of chart (relation 3): sin^2(l2 theta)/kappa2 < 0 (wrong relativistic octant)\n",
    "error: out of chart: polar coordinates not finite (overflow)\n",
    "error: metric not usable on the grid: chart-boundary singularity: sinh(l1 rho)/l1 = 0\n",
    "error: math range error\n",
    "error: phase velocity of H_int(3) overflows at t = 0.001\n",
]

_SCRIPT = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("zgeoflow."))
from zgeoflow.cli import main
imported = loaded()
codes, errors = [], []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()) as err:
        codes.append(main(argv))
    errors.append(err.getvalue())
print(json.dumps({"codes": codes, "errors": errors, "numpy": "numpy" in sys.modules,
                  "imported": imported, "loaded": loaded()}))
"""

#: the modules that only some runs need, which importing the CLI loads none of
_COMMAND_MODULES = {
    "zgeoflow.brackets", "zgeoflow.charts", "zgeoflow.dynamics", "zgeoflow.geometry",
    "zgeoflow.taylor",
}


def _fresh(script, *args):
    """The JSON that ``script`` prints last, run with ``args`` in a fresh
    process on this checkout's sources."""
    env = dict(os.environ)
    src = str(Path(zgeoflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _run_fresh(argvs, tmp_path):
    """Exit codes of ``argvs`` run through ``main`` in one fresh process,
    whether that process imported numpy, and the ``zgeoflow`` modules it
    had loaded after importing the CLI and after the last run."""
    out = tmp_path / "unit.out"
    argvs = [[*a.split(), f"--output={out}"] for a in argvs]
    return _fresh(_SCRIPT, json.dumps(argvs))


def test_simulate_curvature_and_transform_never_import_numpy(tmp_path):
    units = GEODESIC_UNITS + CURVATURE_UNITS + [argv for argv, _ in FAILING_UNITS]
    got = _run_fresh(units, tmp_path)
    want = [0] * (len(GEODESIC_UNITS) + len(CURVATURE_UNITS)) + [c for _, c in FAILING_UNITS]
    assert (got["codes"], got["numpy"]) == (want, False)
    assert got["errors"][-len(FAILING_UNITS):] == FAILING_MESSAGES
    assert not _COMMAND_MODULES & set(got["imported"])


def test_verify_imports_numpy(tmp_path):
    got = _run_fresh(["verify --n=2 --samples=2"], tmp_path)
    assert (got["codes"], got["numpy"]) == ([0], True)
    assert "zgeoflow.brackets" in got["loaded"]


#: the module each command loads on its first run, and those it never loads
_COMMAND_LOADS = {
    "simulate": ("zgeoflow.dynamics", {"zgeoflow.geometry", "zgeoflow.brackets"}),
    "curvature": ("zgeoflow.geometry", {"zgeoflow.dynamics", "zgeoflow.brackets"}),
    "transform": ("zgeoflow.charts", _COMMAND_MODULES - {"zgeoflow.charts", "zgeoflow.taylor"}),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_LOADS))
def test_each_command_loads_only_its_own_module(command, tmp_path):
    units = [
        (argv, code)
        for argv, code in [(u, 0) for u in GEODESIC_UNITS + CURVATURE_UNITS] + FAILING_UNITS
        if argv.split()[0] == command
    ]
    got = _run_fresh([argv for argv, _ in units], tmp_path)
    assert got["codes"] == [code for _, code in units]
    assert not _COMMAND_MODULES & set(got["imported"])
    own, idle = _COMMAND_LOADS[command]
    assert not idle & set(got["loaded"])
    assert own in got["loaded"]


_CHARTS, _TAYLOR = "zgeoflow.charts", "zgeoflow.taylor"


#: one run of each command and chart, the chart and Taylor modules it loads,
#: and those it leaves unloaded
@pytest.mark.parametrize("argv, loads, idle", [
    ("verify --n=2 --samples=2", set(), {_CHARTS, _TAYLOR}),
    (f"simulate {_CART}", set(), {_CHARTS, _TAYLOR}),
    (f"simulate {_POLAR}", {_CHARTS}, set()),
    ("curvature --n=2 --grid-points=2", {_TAYLOR}, {_CHARTS}),
    ("curvature --chart=polar --grid-points=2", {_CHARTS, _TAYLOR}, set()),
    (f"transform --q=0.5,0.4,0.6 --p=0.2,-0.3,0.45 {_FLAGS}", {_CHARTS, _TAYLOR}, set()),
], ids=["verify", "simulate", "simulate-polar", "curvature", "curvature-polar", "transform"])
def test_charts_and_taylor_load_only_where_a_run_reaches_them(argv, loads, idle, tmp_path):
    got = _run_fresh([argv], tmp_path)
    assert got["codes"] == [0]
    assert not {_CHARTS, _TAYLOR} & set(got["imported"])
    assert loads <= set(got["loaded"]) and not idle & set(got["loaded"])


def test_dual_resolves_the_taylor_functions_as_their_own_objects():
    got = _fresh("""
import json, sys
from zgeoflow import dual
before = "zgeoflow.taylor" in sys.modules
names = ("jet", "compiled_jet", "taylor2", "hessian", "compiled_values")
from zgeoflow import taylor
same = all(getattr(dual, name) is getattr(taylor, name) for name in names)
print(json.dumps({"before": before, "same": same, "private": hasattr(dual, "_emit2")}))
""")
    assert got == {"before": False, "same": True, "private": False}


def test_package_exports_resolve_on_first_access():
    got = _fresh("""
import importlib, json, sys
import zgeoflow
before = sorted(m for m in sys.modules if m.startswith("zgeoflow."))
homes = {name: home for home, names in zgeoflow._EXPORTS.items() for name in names}
same = all(
    getattr(zgeoflow, name) is getattr(importlib.import_module("zgeoflow." + homes[name]), name)
    for name in zgeoflow.__all__[:-1]
)
scope = {}
exec("from zgeoflow import *", scope)
modules = all(getattr(zgeoflow, m) is sys.modules["zgeoflow." + m] for m in ("dual", *zgeoflow._EXPORTS))
print(json.dumps({"before": before, "same": same, "star": sorted(set(scope) - {"__builtins__"}),
                  "dir": dir(zgeoflow), "all": zgeoflow.__all__, "modules": modules}))
""")
    assert got["before"] == []  # importing the package loads none of its modules
    assert got["same"] and got["modules"]
    assert got["all"][-1] == "__version__" and got["all"][:-1] == sorted(got["all"][:-1])
    assert got["star"] == sorted(got["all"])
    assert set(got["all"]) <= set(got["dir"])
    with pytest.raises(AttributeError):
        zgeoflow.no_such_export


_REBINDING = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
import zgeoflow.cli as cli

targets = [(m, a) for m, a, _ in tracing.SPAN_TARGETS]
targets += [(m, "realize_generators") for m in tracing.GENERATOR_BINDINGS]
targets += [("zgeoflow.dynamics", "gradient_lists"), ("zgeoflow.brackets", "gradient")]
# resolving binds every name, so the rebinding runs in a process of its own
if sys.argv[3] == "resolve":
    unresolved = [t for t in targets if not callable(getattr(importlib.import_module(t[0]), t[1]))]
    print(json.dumps(unresolved))
    sys.exit()

from zgeoflow import charts, dynamics, geometry
calls = []

def spying(label, fn):
    def spy(*args, **kwargs):
        calls.append(label)
        return fn(*args, **kwargs)
    return spy

runs = {}
for argv, name, fn in (
    (["simulate", "--t-end=0.01", "--q=0.3,0.2,0.1", "--p=0.1,-0.2,0.3"],
     "integrate", dynamics.integrate),
    (["curvature", "--n=2", "--grid-points=2"], "curvature_summary", geometry.curvature_summary),
    (["transform", "--q=0.5,0.4,0.6", "--p=0.2,-0.3,0.45"],
     "transform_to_polar", charts.transform_to_polar),
):
    for when in ("before", "after"):  # the command's first run, and a later one
        setattr(cli, name, spying(when, fn))
        calls.clear()
        runs[f"{name} {when}"] = [cli.main([*argv, "--output=" + sys.argv[2]]), sorted(set(calls))]
runs["others bound"] = cli.trajectory_table is dynamics.trajectory_table
print(json.dumps(runs))
"""


def test_tracer_targets_resolve_and_rebinding_survives_the_first_run(tmp_path):
    """Every (module, name) that perfbench/tracing.py rebinds resolves in a
    fresh process, and a command calls the CLI name as rebound, whether it
    was rebound (without a read) before or after the command first ran."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    out = str(tmp_path / "unit.out")
    assert _fresh(_REBINDING, perfbench, out, "resolve") == []
    assert _fresh(_REBINDING, perfbench, out, "rebind") == {
        "integrate before": [0, ["before"]],
        "integrate after": [0, ["after"]],
        "curvature_summary before": [0, ["before"]],
        "curvature_summary after": [0, ["after"]],
        "transform_to_polar before": [0, ["before"]],
        "transform_to_polar after": [0, ["after"]],
        "others bound": True,
    }


def test_phase_point_holds_python_scalars():
    x = PhasePoint(np.array([1, 2]), [np.float64(0.5), np.complex128(1j)])
    assert x.q == (1.0, 2.0) and all(type(v) is float for v in x.q)
    # one complex entry makes the whole vector complex, as a complex array was
    assert x.p == (0.5, 1j) and all(type(v) is complex for v in x.p)
    assert x.flat() == (*x.q, *x.p) and PhasePoint.from_flat(x.flat()) == x
    for q, p in (([], []), ([[1.0, 2.0]], [[1.0, 2.0]]), (1.0, 1.0), ([1.0], [1.0, 2.0]),
                 ([math.nan], [0.0]), ([0.0], [complex(math.inf, 0.0)])):
        with pytest.raises(ValueError):
            PhasePoint(q, p)
