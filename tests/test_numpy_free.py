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

_SCRIPT = """
import contextlib, io, json, sys
from zgeoflow.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def _run_fresh(argvs, tmp_path):
    """Exit codes of ``argvs`` run through ``main`` in one fresh process,
    and whether that process imported numpy."""
    env = dict(os.environ)
    src = str(Path(zgeoflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    out = tmp_path / "unit.out"
    argvs = [[*a.split(), f"--output={out}"] for a in argvs]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_simulate_curvature_and_transform_never_import_numpy(tmp_path):
    units = GEODESIC_UNITS + CURVATURE_UNITS + [argv for argv, _ in FAILING_UNITS]
    got = _run_fresh(units, tmp_path)
    want = [0] * (len(GEODESIC_UNITS) + len(CURVATURE_UNITS)) + [c for _, c in FAILING_UNITS]
    assert got == {"codes": want, "numpy": False}


def test_verify_imports_numpy(tmp_path):
    assert _run_fresh(["verify --n=2 --samples=2"], tmp_path) == {"codes": [0], "numpy": True}


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
