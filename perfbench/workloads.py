"""Seeded unit lists for the three benchmark workloads.

A unit is the argv of one ``zgeoflow.cli.main`` call, without ``--output``
and ``--metadata`` (the harness appends those).  Values are written as
``--flag=value``, so that a vector starting with a minus sign is not read
as an option.  The seed fixes every value
in the list and the program sees nothing else.

Every workload has a fixed shape: the number of units, the mix of
commands, dimensions, grid sizes, step counts and sample counts do not
depend on the seed.  The seed draws only the continuous inputs (z, initial
states, grid bounds, sample seeds) from the domains that the README and
``tests/test_acceptance.py`` exercise, so that the cost of a pass barely
moves between seeds while the inputs do.
"""

from __future__ import annotations

import random

WORKLOADS = ("geodesic", "identities", "curvature")

#: why each workload is in the benchmark (copied into BENCHMARK.json)
WHY = {
    "geodesic": (
        "simulate at n=3: dependent steps, cost = RHS evals per step x one "
        "gradient; loads dynamics and brackets.gradient_lists, leaves "
        "geometry and verify idle"
    ),
    "identities": (
        "verify at n=2..8: many independent gradients and brackets, cost "
        "steep in n (O(n^2) J+, Casimir tower); dynamics, geometry, charts idle"
    ),
    "curvature": (
        "curvature grids and chart transforms: second-order nested duals, "
        "small units so cli overhead shows; dynamics idle"
    ),
}

GEODESIC_UNITS = 100
GEODESIC_SYSTEMS = (
    ("cartesian", "integrable"),
    ("cartesian", "superintegrable"),
    ("cartesian", "family:exp"),
    ("cartesian", "family:one-plus"),
    ("polar", "integrable"),
    ("polar", "superintegrable"),
)
#: 24 steps of 0.001; every 5th unit uses gauss4, so the six systems get
#: near-equal shares of gauss4 units (5 and 6 are coprime).  Step size and
#: speeds (|p_i| <= 0.08) are those of the README example and acceptance
#: criterion 8, the regime where the 1e-8 drift tolerance is pinned.
GEODESIC_DT = "0.001"
GEODESIC_T_END = "0.024"
GEODESIC_KEEP_EVERY = "4"

#: (n, units, samples per unit).  The median falls in the middle of the n=3
#: units and the 90th percentile inside the n=8 units (the slowest 12%), not
#: on the edge between two dimensions, where it would jump between them.
IDENTITY_MIX = ((2, 38, 2), (3, 25, 2), (5, 25, 1), (8, 12, 1))
#: |z| of verify units; at n=8 the integrable-rank check needs |z| well
#: below 0.5 (see perfbench/README.md)
IDENTITY_Z = (0.05, 0.3)

CURVATURE_UNITS = 100
CURVATURE_GRIDS = (
    # (n, chart, grid points)
    (2, "cartesian", 3),
    (3, "cartesian", 2),
    (3, "polar", 2),
)
TRANSFORM_KINDS = (
    # (direction, kappa2); kappa2 < 0 has no real Cartesian point in the
    # chart, so that family is entered from the polar side only
    ("to-polar", "1"),
    ("to-cartesian", "1"),
    ("to-cartesian", "-1"),
)


def _num(x: float) -> str:
    return f"{x:.6g}"


def _vec(values) -> str:
    return ",".join(_num(v) for v in values)


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    """Magnitude in [lo, hi] with a random sign."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _simulate(rng: random.Random, chart: str, hamiltonian: str, method: str):
    z = _signed(rng, 0.1, 0.6)
    if chart == "cartesian":
        q = [_signed(rng, 0.1, 0.5) for _ in range(3)]
    else:  # (rho, theta, phi) away from the chart's coordinate singularities
        q = [rng.uniform(0.4, 0.9), rng.uniform(0.4, 1.2), rng.uniform(0.2, 1.2)]
    p = [rng.uniform(-0.08, 0.08) for _ in range(3)]
    return [
        "simulate", "--n=3", f"--z={_num(z)}", f"--chart={chart}",
        f"--hamiltonian={hamiltonian}", f"--method={method}",
        f"--q={_vec(q)}", f"--p={_vec(p)}", f"--t-end={GEODESIC_T_END}",
        f"--dt={GEODESIC_DT}", f"--keep-every={GEODESIC_KEEP_EVERY}",
    ]


def _verify(rng: random.Random, n: int, samples: int):
    return [
        "verify", f"--n={n}", f"--z={_num(_signed(rng, *IDENTITY_Z))}",
        f"--samples={samples}", f"--seed={rng.randrange(1_000_000)}",
    ]


def _curvature(rng: random.Random, metric: str, n: int, chart: str, points: int):
    z = rng.uniform(0.2, 1.0) if rng.random() < 0.5 else -rng.uniform(0.2, 0.5)
    if chart == "cartesian":
        b = rng.uniform(0.5, 1.0)
        lo, hi = -b, b
    else:
        lo, hi = rng.uniform(0.3, 0.5), rng.uniform(0.8, 1.1)
    return [
        "curvature", f"--n={n}", f"--z={_num(z)}", f"--metric={metric}",
        f"--chart={chart}", f"--grid-points={points}",
        f"--grid-min={_num(lo)}", f"--grid-max={_num(hi)}",
    ]


def _transform(rng: random.Random, direction: str, kappa2: str):
    z = rng.uniform(0.2, 0.8)
    if direction == "to-polar":
        q = [rng.uniform(0.15, 0.9) for _ in range(3)]
    else:
        q = [rng.uniform(0.35, 0.7), rng.uniform(0.3, 0.8), rng.uniform(0.3, 1.2)]
    p = [rng.uniform(-1.0, 1.0) for _ in range(3)]
    return [
        "transform", f"--direction={direction}", f"--kappa2={kappa2}",
        f"--z={_num(z)}", f"--q={_vec(q)}", f"--p={_vec(p)}",
        "--with-r", "--roundtrip", "--canonicity",
    ]


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"zgeoflow-bench:{workload}:{part}:{seed}")


def units(workload: str, seed: int) -> list:
    """The argv list of one pass over ``workload`` for ``seed``."""
    rng = _rng(workload, seed, "units")
    if workload == "geodesic":
        out = []
        for k in range(GEODESIC_UNITS):
            chart, hamiltonian = GEODESIC_SYSTEMS[k % len(GEODESIC_SYSTEMS)]
            method = "gauss4" if k % 5 == 4 else "implicit-midpoint"
            out.append(_simulate(rng, chart, hamiltonian, method))
        return out
    if workload == "identities":
        shapes = [(n, s) for n, count, s in IDENTITY_MIX for _ in range(count)]
        rng.shuffle(shapes)
        return [_verify(rng, n, s) for n, s in shapes]
    if workload == "curvature":
        out = []
        for k in range(CURVATURE_UNITS):
            if k % 2 == 0:
                j = k // 2
                n, chart, points = CURVATURE_GRIDS[j % len(CURVATURE_GRIDS)]
                metric = ("integrable", "superintegrable")[(j // 3) % 2]
                out.append(_curvature(rng, metric, n, chart, points))
            else:
                kind = TRANSFORM_KINDS[(k // 2) % len(TRANSFORM_KINDS)]
                out.append(_transform(rng, *kind))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warmup(workload: str, seed: int) -> list:
    """The uncounted warm-up unit run during set-up; same shape for every seed."""
    rng = _rng(workload, seed, "warmup")
    if workload == "geodesic":
        return _simulate(rng, "cartesian", "integrable", "implicit-midpoint")
    if workload == "identities":
        return _verify(rng, 2, 4)
    if workload == "curvature":
        return _transform(rng, "to-polar", "1")
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
