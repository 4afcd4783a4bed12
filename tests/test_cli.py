"""CLI: exit codes, file outputs, determinism, config precedence."""

import cmath
import contextlib
import dataclasses
import io
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zgeoflow import brackets, charts, cli, dual, jsontext
from zgeoflow.algebra import (
    casimir_m,
    hamiltonian_integrable,
    hamiltonian_superintegrable,
    integral_extra_2,
    integral_extra_3,
    realize_generators,
    sinhc,
)
from zgeoflow.brackets import (
    bracket_matrix,
    bracket_residual,
    check_involution,
    gradient,
    gradient_rows,
    independence_rank,
    sample_points,
)
from zgeoflow.cli import main
from zgeoflow.phase import PhaseFunction


def run(args):
    return main(args)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# --------------------------------------------------------------------------
# exit-code contract
# --------------------------------------------------------------------------


def test_verify_passes_small(tmp_path):
    out = tmp_path / "report.txt"
    code = run(
        ["verify", "--n", "2", "--z", "0", "--samples", "20", "--seed", "3",
         "--output", str(out)]
    )
    assert code == 0
    assert b"status = pass" in read(out)


def test_verify_full_scale(tmp_path):
    out = tmp_path / "full.txt"
    code = run(
        ["verify", "--n", "3", "--z", "0.3", "--samples", "200", "--seed", "42",
         "--output", str(out)]
    )
    assert code == 0
    content = read(out)
    assert b"status = pass" in content
    assert b"superintegrable_rank = [5, 5, 5, 5, 5, 5, 5, 5, 5, 5]" in content
    assert b'"seed": 42' in content  # resolved config embedded for provenance


def test_verify_n8_draw_reads_superintegrable_rank_5(tmp_path):
    # this n = 8 draw read as rank 3 before the gradient rows were scaled
    out = tmp_path / "report.txt"
    code = run(["verify", "--n=8", "--z=0.7", "--samples=1", "--seed=4",
                "--output", str(out)])
    assert code == 0
    assert b"superintegrable_rank = [5]" in read(out)


def test_verify_rejects_bad_dimension(capsys):
    assert run(["verify", "--n", "0", "--z", "0.3"]) == 1
    assert "dimension" in capsys.readouterr().err


def test_verify_threshold_violation_is_numerical_failure(tmp_path):
    out = tmp_path / "report.txt"
    code = run(
        ["verify", "--n", "2", "--z", "0.5", "--samples", "10", "--seed", "1",
         "--threshold", "1e-30", "--output", str(out)]
    )
    assert code == 2
    assert b"FAIL" in read(out)


def test_verify_threshold_gates_the_bracket_relations(tmp_path, capsys):
    # at n = 1 only the bracket relations can exceed a tiny threshold: the
    # centrality check needs n >= 2, and the 1-site Casimir keeps its 1e-12
    out = tmp_path / "report.json"
    argv = ["verify", "--n=1", "--samples=4", "--threshold=1e-30", "--format=json"]
    assert run(argv + [f"--output={out}"]) == 2
    doc = json.loads(read(out))
    assert doc["residuals"]["max"] > 1e-30 and doc["results"]["passed"] is False
    err = capsys.readouterr().err
    assert err.startswith("verification failed: ") and "bracket relations (max " in err


def test_verify_takes_one_gradient_per_function_and_point(monkeypatch):
    calls = []
    counted = brackets.gradient

    def counting(f, x):
        calls.append(f.label)
        return counted(f, x)

    tags = []
    drawn = dual.fresh_tag

    def counting_tags():
        tags.append(None)
        return drawn()

    monkeypatch.setattr(brackets, "gradient", counting)
    monkeypatch.setattr(dual, "fresh_tag", counting_tags)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["verify", "--n=3", "--samples=4", "--output=-"]) == 0
    # per point, one gradient of each of J-, J+, J3, C2, C3, H_int, H_sup,
    # I2 and I3, and each function built once: one recorded pass each, its
    # later gradients run the compiled code, which draws no tag
    assert len(calls) == 4 * 9
    assert len(tags) == 9


#: the pair that a FAIL line names for a nan at each pair of the test below:
#: the block's first nan, row by row
_NAN_ORIGIN = {(3, 1): "C(2), J+(3)", (5, 4): "C(3), H_int(3)", (6, 8): "H_sup(3), I(3)"}


@pytest.mark.parametrize(
    "pair, check, key",
    [
        # rows of [J-, J+, J3, C2, C3, H_int, H_sup, I2, I3] at n = 3
        ((3, 1), "Casimir centrality", "casimir_centrality"),
        ((5, 4), "integrable involution", "integrable_involution"),
        ((6, 8), "superintegrable involution", "superintegrable_involution"),
    ],
)
def test_verify_fails_on_a_nan_bracket(pair, check, key, tmp_path, monkeypatch, capsys):
    table = cli.check_involution

    def with_nan(dq, dp):
        report = table(dq, dp)
        a, b = pair
        report.samples[1, a, b] = report.samples[1, b, a] = math.nan
        report.residuals[a, b] = report.residuals[b, a] = math.nan
        return report

    monkeypatch.setattr(cli, "check_involution", with_nan)
    out = tmp_path / "report.txt"
    assert run(["verify", "--n=3", "--samples=2", f"--output={out}"]) == 2
    err = capsys.readouterr().err
    assert f"{check} (nan, first at sample 1 in {{{_NAN_ORIGIN[pair]}}})" in err
    assert err.count("nan") == 1  # only its block
    lines = read(out).decode().splitlines()
    assert f"{key} = NaN" in lines and lines[-1] == "status = fail"
    out = tmp_path / "report.json"
    assert run(["verify", "--n=3", "--samples=2", "--format=json", f"--output={out}"]) == 2
    assert math.isnan(json.loads(read(out))["residuals"]["max"])


def test_verify_bracket_table_does_not_overflow(tmp_path, capsys):
    # finite gradient rows up to 1.4e284, whose products overflowed to
    # inf - inf before each function's rows were scaled by a power of two.
    # The residuals are finite now, and the checks that fail do so for real:
    # at z = 300 the float C(2) has lost every digit (its p1 slope reads
    # 1.4e281 where commuting with J- needs about 5e216)
    out = tmp_path / "report.txt"
    assert run(["verify", "--n=2", "--z=300", "--samples=1", f"--output={out}"]) == 2
    fails = ["Casimir centrality (1.000e+00)", "integrable involution (3.318e-01)"]
    assert capsys.readouterr().err == f"verification failed: {'; '.join(fails)}\n"
    lines = read(out).decode().splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [f"FAIL: {f}" for f in fails]
    assert "NaN" not in "\n".join(lines) and lines[-1] == "status = fail"
    out = tmp_path / "report.json"
    assert run(["verify", "--n=2", "--z=300", "--samples=1", "--format=json",
                f"--output={out}"]) == 2
    assert json.loads(read(out))["residuals"]["max"] == 1.0


def _rank(funcs, x):
    """independence_rank of the rows of one ``gradient`` per function at ``x``."""
    grads = [gradient(f, x) for f in funcs]
    return independence_rank(np.array([g.dq for g in grads]), np.array([g.dp for g in grads]))


def _per_pair_brackets(n, z, samples, seed):
    """verify's checks per function: the bracket relations from bracket_matrix
    on fresh generators, per-pair loops and separate tables, and ranks from
    per-point gradient rows."""
    pts = sample_points(n, min(samples, 50), seed)
    gens = jm, jp, j3 = realize_generators(n, z).as_tuple()
    worst = [0.0, 0.0, 0.0]
    for x in sample_points(n, samples, seed):
        vals, scales = bracket_matrix(gens, x)
        m, p, t = (float(f(x)) for f in gens)
        targets = (2.0 * p * np.cosh(z * m), -2.0 * m * sinhc(z * m), 4.0 * t)
        for k, ((a, b), target) in enumerate(zip(((2, 1), (2, 0), (0, 1)), targets)):
            res = abs(vals[a, b] - target) / max(1.0, abs(target), scales[a, b])
            worst[k] = max(worst[k], float(res))
    casimirs = [casimir_m(m, n, z) for m in range(2, n + 1)]
    tower = [hamiltonian_integrable(n, z), *casimirs]
    out = {
        "bracket_relations": dict(zip(("j3_jplus", "j3_jminus", "jminus_jplus"), worst)),
        "casimir_centrality": max(
            [bracket_residual(c, g, x) for c in casimirs for g in gens for x in pts]
        ),
        "integrable_involution": check_involution(*gradient_rows(tower, pts)).max_residual,
    }
    if n >= 3:
        h = hamiltonian_superintegrable(n, z)
        extra = [integral_extra_2(z, n), integral_extra_3(z, n)]
        pairs = [bracket_residual(h, c, x) for c in casimirs[:2] + extra for x in pts]
        triples = [
            check_involution(*gradient_rows(t, pts)).max_residual
            for t in ([h, *casimirs[:2]], [h, *extra])
        ]
        out["superintegrable_involution"] = max(pairs + triples)
        for key, funcs in (("superintegrable", [h, *casimirs[:2], *extra]), ("integrable", tower)):
            ranks = [_rank(funcs, x) for x in pts[:10]]
            out[f"{key}_rank"] = [r.rank for r in ranks]
            out[f"{key}_rank_margin"] = [r.margin for r in ranks]
    return out


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_verify_table_matches_per_pair_brackets(n, seed, tmp_path):
    out = tmp_path / "report.json"
    z, samples = -0.3, 3
    assert run(["verify", f"--n={n}", f"--z={z}", f"--samples={samples}",
                f"--seed={seed}", "--format=json", f"--output={out}"]) == 0
    results = json.loads(read(out))["results"]
    oracle = _per_pair_brackets(n, z, samples, seed)
    assert {key: results[key] for key in oracle} == oracle


def test_help_is_for_users(capsys):
    # it names the commands, the --name=value form and the exit codes, and
    # no module of the package and nothing of how a process loads them
    assert run(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for word in ("verify", "simulate", "curvature", "transform", "--name=value",
                 "0 success, 1 configuration error, 2 numerical"):
        assert word in text
    assert not re.search(r"zgeoflow\.\w|\bmodules?\b|\bloads?\b|\bimport|numpy", text)


def test_unknown_flag_values_exit_one():
    assert run(["simulate", "--method", "verlet"]) == 1
    assert run(["curvature", "--metric", "bogus"]) == 1
    assert run(["transform", "--direction", "sideways"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--q", "0.5,0.4,0.6", "--z", "nan"],
        ["transform", "--q", "0.5,0.4,0.6", "--z", "inf"],
        ["transform", "--q", "0.5,0.4,0.6", "--kappa2", "0"],
        ["verify", "--n", "2", "--samples", "2", "--z", "nan"],
        ["verify", "--n", "2", "--samples", "2", "--z=-inf"],
        ["curvature", "--n", "2", "--kappa2", "nan"],
        ["simulate", "--q", "0.1,0.2,0.3", "--p", "0,0,0", "--z", "inf"],
        # every number setting is checked, not only z and kappa2
        ["simulate", "--q=0.1,0.2,0.3", "--p=0,0,0", "--t-end=inf"],
        ["simulate", "--q=0.1,0.2,0.3", "--p=0,0,0", "--dt=nan"],
        ["curvature", "--grid-min=nan", "--grid-points=1"],
        ["curvature", "--grid-max=inf", "--grid-points=2"],
        ["verify", "--n=2", "--samples=2", "--threshold=nan"],
        # finite settings whose span or step count is not
        ["curvature", "--grid-min=-1e308", "--grid-max=1e308", "--grid-points=3"],
        ["simulate", "--q=0.1,0.2,0.3", "--p=0,0,0", "--t-end=1e300", "--dt=1e-300"],
    ],
)
def test_non_finite_or_zero_parameters_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--output", str(out)]) == 1
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["transform"], ["simulate", "--p=0,0,0", "--t-end=0.01"],
])
@pytest.mark.parametrize("flag, config", [
    ("--q=inf,0,0", None),
    (None, '{"q": [1e400, 0, 0]}'),
    (None, '{"q": [1' + 400 * "0" + ', 0, 0]}'),  # an int beyond float range
])
def test_non_finite_vector_entries_exit_one(command, flag, config, tmp_path, capsys):
    # a vector entry that is no finite float is a configuration error, as for a number
    argv = [*command, flag or f"--config={tmp_path / 'cfg.json'}", f"--output={tmp_path / 'out'}"]
    if config:
        (tmp_path / "cfg.json").write_text(config)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: q must have finite entries, got [")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, config, code",
    [
        (["verify", "--n", "2", "--samples", "2", "--z", "1e308"], None, 2),
        (["transform", "--q", "0.5,0.4,0.6", "--z", "800"], None, 2),
        (["verify", "--samples", "2"], {"n": "3"}, 1),
        (["verify", "--samples", "2"], [1, 2], 1),
        (["simulate", "--q", "0.1,0.2,0.3"], {"p": [0.1, "x", 0.2]}, 1),
        (["transform", "--q", "0.5,0.4,0.6"], {"roundtrip": 1}, 1),
        (["verify", "--n", "2", "--samples", "2", "--output", "MISSING"], None, 1),
        (["simulate", "--q", "0.1,0.2,0.3", "--p", "0,0,0", "--t-end", "0.01",
          "--output", "MISSING"], None, 1),
        (["curvature", "--n", "2", "--grid-points", "2", "--output", "MISSING"],
         None, 1),
        (["transform", "--q", "0.5,0.4,0.6", "--output", "MISSING"], None, 1),
        (["simulate", "--q", "0.1,0.2,0.3", "--p", "0,0,0"], {"dt": math.inf}, 1),
        (["verify", "--samples", "2"], {"z": 10**400}, 1),  # beyond float range
    ],
)
def test_contract_errors_exit_without_traceback(argv, config, code, tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "out")
    argv = [missing if a == "MISSING" else a for a in argv]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    assert run(argv) == code
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


#: (argv, what its message names): the function or chart relation that overflowed
OVERFLOW_CASES = [
    (["verify", "--z=800", "--n=2", "--samples=2"], "error: J+(2) is not finite at "),
    (["verify", "--n=8", "--z=50", "--samples=1"], "error: gradient of C(4) not finite"),
    (["transform", "--z=1e308", "--q=0,0,1"], "error: out of chart (relation 1)"),
    (["curvature", "--z=-22", "--metric=superintegrable", "--grid-points=2",
      "--grid-min=0", "--grid-max=2"], "curvature of 2.0*g[H_sup(3)] not finite"),
    (["verify", "--n=3", "--z=1e308", "--samples=1"], "error: J+(3) overflows at Phase"),
    (["simulate", "--hamiltonian=superintegrable", "--z=400", "--q=1,1,1",
      "--p=0.1,0.1,0.1", "--t-end=0.01", "--dt=0.001"],
     "error: phase velocity of H_sup(3) overflows at t = 0.001"),
]


@pytest.mark.parametrize(
    "argv, names",
    [pytest.param(argv, names, id=f"argv{i}") for i, (argv, names) in enumerate(OVERFLOW_CASES)],
)
def test_overflow_is_exit_two_without_warnings(argv, names, tmp_path, capsys):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + [f"--output={out}"]) == 2
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Warning" not in err and "Traceback" not in err
    assert names in err


def test_transform_origin_at_huge_z_is_finite(tmp_path):
    # 2 (z q_i^2) stays 0 at q = 0; it was inf * 0 = nan with exit 0
    out = tmp_path / "t.json"
    assert run(["transform", "--z=1e308", "--q=0,0,0", f"--output={out}"]) == 0
    assert "nan" not in out.read_text().lower()


def test_simulate_requires_initial_state(capsys):
    assert run(["simulate", "--n", "3", "--z", "0.3"]) == 1
    assert "--q and --p" in capsys.readouterr().err


def test_transform_out_of_chart_is_exit_two(tmp_path, capsys):
    code = run(
        ["transform", "--q", "0.5,0.4,0.6", "--z", "0.3", "--kappa2", "-1",
         "--output", str(tmp_path / "t.json")]
    )
    assert code == 2
    assert "relation" in capsys.readouterr().err


def test_simulate_domain_exit_writes_partial(tmp_path, capsys):
    csv = tmp_path / "infall.csv"
    code = run(
        ["simulate", "--chart", "polar", "--hamiltonian", "integrable",
         "--n", "3", "--z", "0.3", "--q", "0.8,0.0,0.5", "--p", "0.1,0.0,0.2",
         "--t-end", "0.1", "--dt", "0.001", "--output", str(csv)]
    )
    assert code == 2
    content = read(csv)
    assert b"# truncated" in content
    assert "singularity" in capsys.readouterr().err


def test_simulate_truncated_table_writes_nan(tmp_path):
    # theta = 0 is the chart boundary: H and C(3) cannot be evaluated there
    csv = tmp_path / "edge.csv"
    code = run(
        ["simulate", "--chart", "polar", "--hamiltonian", "integrable",
         "--n", "3", "--z", "0.3", "--q", "0.8,0.0,0.5", "--p", "0.1,0.0,0.2",
         "--t-end", "0.1", "--dt", "0.001", "--output", str(csv)]
    )
    assert code == 2
    lines = read(csv).decode().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert (row["H"], row["C(3)"]) == ("nan", "nan")
    assert float(row["C(2)"]) == pytest.approx(0.04)


def test_simulate_completed_run_with_unevaluable_constant_is_exit_two(tmp_path, monkeypatch, capsys):
    # the run completes, but a monitored value is not finite after the
    # first state: the table says nan and no drift is written
    build = cli._build_system

    def with_bad_constant(cfg):
        h, monitored = build(cfg)
        q1 = cfg["q"][0]
        bad = PhaseFunction(3, lambda q, p: 1.0 if q[0] == q1 else math.inf, "bad")
        return h, {**monitored, "bad": bad}

    monkeypatch.setattr(cli, "_build_system", with_bad_constant)
    csv, meta = tmp_path / "t.csv", tmp_path / "m.json"
    code = run(["simulate", "--n", "3", "--z", "0.3", "--q", "0.25,0.15,0.35",
                "--p", "0.05,-0.04,0.06", "--t-end", "0.005", "--dt", "0.001",
                "--output", str(csv), "--metadata", str(meta)])
    assert code == 2
    assert "bad is not finite" in capsys.readouterr().err
    lines = read(csv).decode().splitlines()
    assert [line.split(",")[-1] for line in lines[2:]] == ["1", *["nan"] * 5]
    assert not meta.exists()


def test_simulate_evaluates_each_monitored_value_once(tmp_path, monkeypatch):
    calls = {}
    call = PhaseFunction.__call__

    def counted(f, x):
        calls[f.label] = calls.get(f.label, 0) + 1
        return call(f, x)

    monkeypatch.setattr(PhaseFunction, "__call__", counted)
    csv = tmp_path / "t.csv"
    code = run(["simulate", "--n", "3", "--z", "0.3", "--hamiltonian", "superintegrable",
                "--q", "0.25,0.15,0.35", "--p", "0.05,-0.04,0.06", "--t-end", "0.02",
                "--dt", "0.001", "--keep-every", "4", "--output", str(csv),
                "--metadata", str(tmp_path / "m.json")])
    assert code == 0
    states = len(read(csv).decode().splitlines()) - 2
    assert states == 6
    assert sorted(calls.values()) == [states] * 5


def test_curvature_degenerate_grid_is_exit_two(tmp_path):
    code = run(
        ["curvature", "--chart", "polar", "--metric", "integrable", "--z", "0.3",
         "--grid-min", "0", "--grid-max", "1", "--grid-points", "3",
         "--output", str(tmp_path / "c.csv")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["curvature", "--z=-22", "--metric=superintegrable", "--grid-min=2",
          "--grid-max=2", "--grid-points=1"],
         "curvature of 2.0*g[H_sup(3)] not finite at q=[2.0, 2.0, 2.0]"),
        (["curvature", "--z", "50", "--grid-points", "2"],
         "metric 2.0*g[H_int(3)] degenerate at q=[-1.0, -1.0, -1.0]"),
    ],
)
def test_curvature_grid_error_names_metric_and_point(argv, message, tmp_path, capsys):
    assert run(argv + [f"--output={tmp_path / 'c.csv'}"]) == 2
    assert capsys.readouterr().err == f"error: metric not usable on the grid: {message}\n"
    assert not (tmp_path / "c.csv").exists()


# --------------------------------------------------------------------------
# outputs
# --------------------------------------------------------------------------


def test_simulate_flat_straight_line(tmp_path):
    csv = tmp_path / "flat.csv"
    meta = tmp_path / "flat.json"
    code = run(
        ["simulate", "--n", "3", "--z", "0", "--q", "0,0,0", "--p", "1,0,0",
         "--t-end", "1", "--dt", "0.01", "--output", str(csv),
         "--metadata", str(meta)]
    )
    assert code == 0
    lines = read(csv).decode().strip().splitlines()
    assert lines[1].split(",")[0] == "t"
    last = [float(v) for v in lines[-1].split(",")]
    t, q1 = last[0], last[1]
    assert t == 1.0
    assert abs(q1 - t) < 1e-10
    doc = json.loads(read(meta))
    assert doc["version"]
    assert doc["results"]["drift"]["H"] < 1e-12
    assert doc["config"]["z"] == 0.0


def test_simulate_monitors_constants(tmp_path):
    csv = tmp_path / "sup.csv"
    meta = tmp_path / "sup.json"
    code = run(
        ["simulate", "--n", "3", "--z", "0.3", "--hamiltonian", "superintegrable",
         "--q", "0.25,0.15,0.35", "--p", "0.2,-0.15,0.3",
         "--t-end", "0.2", "--dt", "0.001", "--keep-every", "10",
         "--output", str(csv), "--metadata", str(meta)]
    )
    assert code == 0
    header = read(csv).decode().splitlines()[1].split(",")
    assert header == ["t", "q1", "q2", "q3", "p1", "p2", "p3",
                      "H", "C(2)", "C(3)", "I(2)", "I(3)"]
    doc = json.loads(read(meta))
    assert doc["residuals"]["max_drift"] < 1e-8


def test_curvature_constant_family_column(tmp_path):
    csv = tmp_path / "k.csv"
    code = run(
        ["curvature", "--metric", "superintegrable", "--z", "0.4",
         "--grid-points", "3", "--output", str(csv)]
    )
    assert code == 0
    lines = read(csv).decode().strip().splitlines()
    header = lines[1].split(",")
    k_col = header.index("K")
    res_cols = [i for i, h in enumerate(header) if h.startswith("res_")]
    for row in lines[2:]:
        vals = [float(v) for v in row.split(",")]
        assert abs(vals[k_col] - 2.4) < 1e-8
        assert all(vals[i] < 1e-6 for i in res_cols)


def test_curvature_polar_chart_grid(tmp_path):
    csv = tmp_path / "polar_k.csv"
    code = run(
        ["curvature", "--chart", "polar", "--metric", "superintegrable",
         "--z", "0.3", "--grid-min", "0.4", "--grid-max", "1.0",
         "--grid-points", "3", "--output", str(csv)]
    )
    assert code == 0
    lines = read(csv).decode().strip().splitlines()
    header = lines[1].split(",")
    assert header[:3] == ["rho", "theta", "phi"]
    k_col = header.index("K")
    for row in lines[2:]:
        vals = [float(v) for v in row.split(",")]
        assert abs(vals[k_col] - 1.8) < 1e-7  # 6z


@pytest.mark.parametrize("argv", [
    ["curvature", "--chart=polar", "--n=2"],
    ["simulate", "--chart=polar", "--n=2", "--q=0.5,0.6", "--p=0.1,0.2"],
])
def test_polar_charts_are_three_dimensional(argv, tmp_path, capsys):
    # both commands choose their Hamiltonian through one selector
    out = tmp_path / "out"
    assert run([*argv, f"--output={out}"]) == 1
    assert capsys.readouterr().err == "error: polar charts are three-dimensional\n"
    assert not out.exists()


def test_transform_relativistic_complex_output(tmp_path):
    out = tmp_path / "rel.json"
    code = run(
        ["transform", "--direction", "to-cartesian", "--q", "0.6,0.5,0.7",
         "--p", "0.2,0.1,-0.3", "--z", "0.3", "--kappa2", "-1",
         "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(read(out))
    q = doc["results"]["cartesian"]["q"]
    assert all(isinstance(v, str) and "j" in v for v in q[:2])  # imaginary pair
    assert max(doc["residuals"]["chart_relations"]) < 1e-10


def test_curvature_flat_all_zero(tmp_path):
    csv = tmp_path / "flat_k.csv"
    assert run(
        ["curvature", "--metric", "integrable", "--z", "0",
         "--grid-points", "2", "--output", str(csv)]
    ) == 0
    lines = read(csv).decode().strip().splitlines()
    header = lines[1].split(",")
    cols = [header.index(c) for c in ("K12", "K13", "K23", "K")]
    for row in lines[2:]:
        vals = [float(v) for v in row.split(",")]
        assert all(abs(vals[c]) < 1e-10 for c in cols)


def test_transform_origin_and_r(tmp_path):
    out = tmp_path / "origin.json"
    code = run(
        ["transform", "--q", "0,0,0", "--z", "0.3", "--with-r",
         "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(read(out))
    assert doc["results"]["polar"]["rho"] == 0.0
    assert doc["results"]["r"] == 0.0


def test_transform_roundtrip_flag(tmp_path):
    out = tmp_path / "round.json"
    code = run(
        ["transform", "--q", "0.5,0.4,0.6", "--p", "0.2,-0.3,0.45",
         "--z", "0.3", "--roundtrip", "--canonicity", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(read(out))
    assert doc["results"]["roundtrip_error"] < 1e-10
    assert doc["residuals"]["canonicity_max"] < 1e-9
    assert max(doc["residuals"]["chart_relations"]) < 1e-10


def test_transform_to_cartesian_direction(tmp_path):
    out = tmp_path / "back.json"
    code = run(
        ["transform", "--direction", "to-cartesian", "--q", "1.0,0.7,0.8",
         "--p", "0.3,0.2,0.1", "--z", "0.3", "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(read(out))
    q = doc["results"]["cartesian"]["q"]
    assert len(q) == 3 and all(isinstance(v, float) for v in q)


@pytest.mark.parametrize(
    "argv, key",
    [
        (["transform", "--q=0.3,0.4,0.5", "--p=1e-9,0,0", "--roundtrip"], "polar"),
        (["transform", "--direction=to-cartesian", "--q=0.5,0.6,0.7", "--p=5e-9,0,0",
          "--roundtrip"], "cartesian"),
    ],
)
def test_transform_keeps_small_momenta(argv, key, tmp_path):
    # only an exactly zero momentum skips the chart pass: |p| ~ 1e-9 is
    # mapped, and its round trip closes
    out = tmp_path / "small.json"
    assert run(argv + [f"--output={out}"]) == 0
    doc = json.loads(read(out))
    res = doc["results"][key]
    mom = [res["p_rho"], res["p_theta"], res["p_phi"]] if key == "polar" else res["p"]
    assert all(1e-10 < abs(v) < 1e-8 for v in mom)
    assert doc["results"]["roundtrip_error"] < 1e-15


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--q=0,0,0", "--roundtrip", "--with-r"],
        ["transform", "--q=0,0,0", "--p=0,0,0", "--roundtrip"],
        ["transform", "--direction=to-cartesian", "--q=0,0,0", "--roundtrip"],
    ],
)
def test_transform_zero_momentum_at_the_origin(argv, tmp_path):
    # a zero momentum needs no Jacobian, so the singular origin still maps
    out = tmp_path / "origin.json"
    assert run(argv + [f"--output={out}"]) == 0
    assert json.loads(read(out))["results"]["roundtrip_error"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--q=0,0,0", "--p=0,0,0", "--roundtrip"],
        ["transform", "--direction=to-cartesian", "--q=0,0.5,0.5", "--p=0,0,0", "--roundtrip"],
        ["transform", "--direction=to-cartesian", "--kappa2=-1", "--q=0,1.2,0.3", "--roundtrip"],
    ],
)
def test_transform_roundtrip_at_rho_zero(argv, tmp_path):
    # the angles are undetermined at rho = 0, where cart_to_polar reads
    # (0, 0, 0): the round trip compares the Cartesian images there
    out = tmp_path / "origin.json"
    assert run(argv + [f"--output={out}"]) == 0
    assert json.loads(read(out))["results"]["roundtrip_error"] == 0.0


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--q=0,0,0", "--p=0,0.2,0", "--roundtrip"],
        ["transform", "--direction=to-cartesian", "--q=0,0.5,0.5", "--p=0.1,0,0", "--roundtrip"],
    ],
)
def test_transform_momenta_at_rho_zero_are_out_of_chart(argv, tmp_path, capsys):
    assert run(argv + [f"--output={tmp_path / 't.json'}"]) == 2
    assert capsys.readouterr().err == "error: out of chart: singular Jacobian (chart boundary)\n"


def test_curvature_at_large_z_passes_the_relative_kinetic_check(tmp_path):
    # h at the kinetic check point is 1.9e184 here, so its roundoff is far
    # above 1e-10 in absolute terms; the closed forms hold to criterion 4
    out = tmp_path / "c.csv"
    argv = ["curvature", "--n=3", "--z=1500", "--grid-min=0.01", "--grid-max=0.01",
            "--grid-points=1", f"--output={out}"]
    assert run(argv) == 0
    header, row = read(out).decode().splitlines()[1:]
    cells = dict(zip(header.split(","), map(float, row.split(","))))
    for name in ("K12", "K13", "K23", "K"):
        assert abs(cells[name] - cells[f"ref_{name}"]) < 1e-6 * abs(cells[f"ref_{name}"])
    assert cells["K"] == pytest.approx(-3490.065, rel=1e-6)


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", "--q=0,0,0.5", "--p=0.1,0,0"],
        ["transform", "--direction=to-cartesian", "--q=0,0.5,0.5", "--p=0.1,0.1,0.1"],
        ["transform", "--q=0,0,0", "--canonicity"],
    ],
)
def test_transform_at_a_chart_singularity_is_exit_two(argv, tmp_path, capsys):
    # the chart pass divides by zero there; that is the chart boundary
    assert run(argv + [f"--output={tmp_path / 't.json'}"]) == 2
    assert capsys.readouterr().err == "error: out of chart: singular Jacobian (chart boundary)\n"


@pytest.mark.parametrize("direction", ["to-polar", "to-cartesian"])
def test_transform_rejects_a_short_momentum(direction, tmp_path, capsys):
    argv = ["transform", f"--direction={direction}", "--q=0.5,0.6,0.7", "--p=0.1,0.2",
            f"--output={tmp_path / 't.json'}"]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: p must have three components, like q\n"
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize(
    "direction, kappa2, passes",
    [("to-polar", "1", 2), ("to-cartesian", "1", 3), ("to-cartesian", "-1", 3)],
)
def test_transform_passes_per_unit(direction, kappa2, passes, tmp_path, monkeypatch):
    # one chart pass per polar point, read by the momentum map, the round
    # trip and the canonicity check, plus the check's own pass of the
    # forward map: to-polar has one polar point, to-cartesian two (its
    # input and the image of its Cartesian output)
    tags = []
    fresh_tag = dual.fresh_tag

    def counted():
        tags.append(None)
        return fresh_tag()

    monkeypatch.setattr(dual, "fresh_tag", counted)
    q = "0.4,0.5,0.6" if direction == "to-polar" else "0.5,0.6,0.7"
    argv = ["transform", f"--direction={direction}", f"--kappa2={kappa2}", "--z=0.4",
            f"--q={q}", "--p=0.3,-0.2,0.5", "--with-r", "--roundtrip", "--canonicity",
            f"--output={tmp_path / 't.json'}"]
    assert run(argv) == 0
    assert len(tags) == passes


def test_to_cartesian_roundtrip_compares_momenta(tmp_path, monkeypatch):
    # a momentum-only error in polar -> Cartesian -> polar must be reported
    exact = cli.transform_to_polar

    def momentum_off(point, z, kappa2, norm, chart):
        back = exact(point, z, kappa2, norm, chart)
        return dataclasses.replace(back, p_theta=back.p_theta + 1e-6)

    monkeypatch.setattr(cli, "transform_to_polar", momentum_off)
    out = tmp_path / "trip.json"
    code = run(
        ["transform", "--direction", "to-cartesian", "--q", "1.0,0.7,0.8",
         "--p", "0.3,0.2,0.1", "--z", "0.3", "--roundtrip", "--output", str(out)]
    )
    assert code == 2  # the round-trip gate (1e-10) catches it, after writing
    trip = json.loads(read(out))["results"]["roundtrip_error"]
    assert trip == pytest.approx(1e-6, rel=1e-6)


_SMALL_Z_COMPLEX_OCTANT = [
    "transform", "--direction=to-cartesian", "--kappa2=-1", "--q=0.6,0.5,0.7",
    "--p=0.3,-0.8,0.5", "--roundtrip", "--canonicity",
]


def test_transform_gates_its_residuals(tmp_path, monkeypatch, capsys):
    # log(1 + x) formed in complex arithmetic, as dual.log1p once did, and
    # divided by z with no series, loses the small complex arguments of the
    # kappa2 < 0 chart at z = 1e-13: round trip 6.2e-3 and canonicity
    # 1.2e-2; the command must exit 2
    rounded_log1p = dual._elementary(
        "log1p",
        math.log1p,
        lambda x: cmath.log(1.0 + x),
        lambda x, v: 1.0 / (1.0 + x),
        lambda x, v, g: -g * g,
    )
    monkeypatch.setattr(charts, "kappa_log1p", lambda k, x: rounded_log1p(k * x) / k)
    out = tmp_path / "gate.json"
    assert run(_SMALL_Z_COMPLEX_OCTANT + ["--z=1e-13", f"--output={out}"]) == 2
    err = capsys.readouterr().err
    assert "error: roundtrip_error" in err and "canonicity_max" in err
    doc = json.loads(read(out))  # the report is written before the gate
    assert doc["results"]["roundtrip_error"] > 1e-3
    assert doc["residuals"]["canonicity_max"] > 1e-3


@pytest.mark.parametrize("z", ["1e-9", "1e-12", "1e-13"])
def test_transform_complex_octant_at_small_z(tmp_path, z):
    out = tmp_path / "small.json"
    assert run(_SMALL_Z_COMPLEX_OCTANT + [f"--z={z}", f"--output={out}"]) == 0
    doc = json.loads(read(out))
    assert doc["results"]["roundtrip_error"] <= 1e-12
    assert doc["residuals"]["canonicity_max"] <= 1e-12


def test_transform_with_r_near_the_origin_at_small_z(tmp_path):
    # r = rho - O(z rho^3); an arccos(1/cosh) radial map cancels to r = 0 here
    out = tmp_path / "r.json"
    assert run(["transform", "--direction=to-polar", "--z=1e-12", "--q=0.004,0.004,0.004",
                "--p=0.1,0.2,0.3", "--with-r", f"--output={out}"]) == 0
    results = json.loads(read(out))["results"]
    assert results["r"] == pytest.approx(results["polar"]["rho"], rel=1e-15)


def test_grid_axis_is_numpy_linspace_bit_for_bit():
    import numpy as np

    rng = np.random.default_rng(19)
    cases = [(-0.0, 1.0, 1), (-0.0, -1.0, 1), (0.0, 5e-324, 3), (0.0, 1.5e-323, 11),
             (1.0, 1.0, 4), (1.0, -1.0, 5), (3, 7, 2)]
    for _ in range(2000):
        lo, hi = rng.uniform(-2.0, 2.0, 2) * 10.0 ** rng.integers(-310, 300, 2)
        cases.append((float(lo), float(hi), int(rng.integers(1, 12))))
    for lo, hi, k in cases:
        if not math.isfinite(hi - lo):
            continue
        got = cli._linspace(lo, hi, k)
        assert all(type(v) is float for v in got)
        want = np.linspace(lo, hi, k).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in want], (lo, hi, k)


def test_simulate_metadata_has_solver_stats(tmp_path):
    meta = tmp_path / "m.json"
    args = ["simulate", "--n", "3", "--z", "0.3", "--q", "0.25,0.15,0.35",
            "--p", "0.05,-0.04,0.06", "--t-end", "0.05", "--dt", "0.001",
            "--output", str(tmp_path / "t.csv"), "--metadata", str(meta)]
    assert run(args) == 0
    first = read(meta)
    solver = json.loads(first)["results"]["solver"]
    assert set(solver) == {"rhs_evals", "iterations", "max_update", "max_update_step"}
    assert sum(solver["iterations"].values()) == 50
    assert solver["rhs_evals"] <= 2 * 50
    assert run(args) == 0 and read(meta) == first  # no timings: reruns identical


# --------------------------------------------------------------------------
# determinism and config precedence
# --------------------------------------------------------------------------


def test_byte_identical_reruns(tmp_path):
    args_sets = [
        ["curvature", "--metric", "integrable", "--z", "0.3", "--grid-points", "2"],
        ["simulate", "--n", "2", "--z", "0.2", "--q", "0.3,0.4", "--p", "0.2,-0.1",
         "--t-end", "0.1", "--dt", "0.01"],
        ["verify", "--n", "2", "--z", "0.3", "--samples", "10", "--seed", "5",
         "--format", "json"],
        ["transform", "--q", "0.5,0.4,0.6", "--p", "0.1,0.2,0.3", "--z", "0.7"],
    ]
    for i, args in enumerate(args_sets):
        out = tmp_path / f"run{i}.out"
        assert run(args + ["--output", str(out)]) == 0
        first = read(out)
        assert run(args + ["--output", str(out)]) == 0
        assert read(out) == first, args[0]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "z": 0.5, "samples": 12, "seed": 9}))
    out = tmp_path / "rep.json"
    code = run(
        ["verify", "--config", str(cfg), "--z", "0.25", "--format", "json",
         "--output", str(out)]
    )
    assert code == 0
    doc = json.loads(read(out))
    assert doc["config"]["z"] == 0.25  # flag wins
    assert doc["config"]["n"] == 2  # from file
    assert doc["config"]["samples"] == 12


@pytest.mark.parametrize(
    "argv",
    [
        ["curvature", "--n=2", "--grid-points=1"],
        ["verify", "--n=2", "--samples=2", "--format=json"],
        ["transform", "--roundtrip"],
        ["simulate", "--t-end=0.002"],
    ],
)
def test_config_file_numbers_are_embedded_as_their_flags_write_them(argv, tmp_path):
    # one configuration writes one file: an integer in the config file for a
    # float setting or a vector entry is embedded as the flag's float
    options = cli.build_parser().subcommands.choices[argv[0]].options
    values = {"z": 1, "kappa2": 2, "q": [1, 1, 1], "p": [0, 1, 0]}
    values = {k: v for k, v in values.items() if f"--{k}" in options}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    flags = [f"--{k}={','.join(map(str, v)) if isinstance(v, list) else v}"
             for k, v in values.items()]
    out, meta = tmp_path / "out", tmp_path / "meta"
    if argv[0] == "simulate":
        argv = argv + [f"--metadata={meta}"]
    outputs = []
    for extra in [f"--config={cfg}"], flags:
        assert run(argv + extra + [f"--output={out}"]) == 0
        outputs.append([read(p) for p in (out, meta) if p.exists()])
    assert outputs[0] == outputs[1]
    assert b'"z": 1.0' in outputs[0][0]


#: each command's required flags, and a small run of it
_REQUIRED = {
    "verify": [],
    "simulate": ["--q=0.1,0.2,0.3", "--p=0,0,0"],
    "curvature": [],
    "transform": ["--q=0.5,0.4,0.6"],
}
_SMALL = {
    "verify": ["--n=2", "--samples=1"],
    "simulate": ["--t-end=0.01"],
    "curvature": ["--n=2", "--grid-points=1"],
    "transform": [],
}


@pytest.mark.parametrize(
    "command, key, choices",
    [
        pytest.param(command, action.dest, action.choices, id=f"{command}-{action.dest}")
        for command, sub in cli.build_parser().subcommands.choices.items()
        for action in sub.options.values()
        if action.choices is not None
    ],
)
def test_config_value_outside_choices_exits_one(command, key, choices, tmp_path, capsys):
    # a config file is checked against each option's choices, as a flag is
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "bogus"}))
    out = tmp_path / "out"
    argv = [command, *_REQUIRED[command], *_SMALL[command], f"--config={cfg}", f"--output={out}"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be one of ") and err.endswith(", got 'bogus'\n")
    assert all(repr(c) in err for c in choices)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key",
    [*((c, "grid_pionts") for c in sorted(_REQUIRED)), ("curvature", "samples"),
     ("verify", "grid-points")],
)
def test_unknown_config_key_exits_one(command, key, tmp_path, capsys):
    # a config key that names no setting of the subcommand is turned down,
    # as a misspelt flag is, and nothing is written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 9}))
    out = tmp_path / "out"
    argv = [command, *_REQUIRED[command], *_SMALL[command], f"--config={cfg}", f"--output={out}"]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
    assert not out.exists()


def test_embedded_config_reads_back_as_config_file(tmp_path):
    # the resolved configuration an output embeds ("command" included) is a
    # valid config file for the same command
    out, again = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify", "--n=2", "--samples=3", "--format=json", f"--output={out}"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(json.loads(read(out))["config"]))
    assert run(["verify", f"--config={cfg}", f"--output={again}"]) == 0
    assert json.loads(read(again))["results"] == json.loads(read(out))["results"]


#: the config each command resolves from its required flags alone
_BUILTIN_CONFIGS = {
    "verify": {"command": "verify", "format": "text", "n": 3, "output": None,
               "samples": 200, "seed": 0, "threshold": 1e-9, "z": 0.3},
    "simulate": {"chart": "cartesian", "command": "simulate", "dt": 0.001,
                 "hamiltonian": "integrable", "kappa2": 1.0, "keep_every": 1,
                 "metadata": None, "method": "implicit-midpoint", "n": 3,
                 "output": "trajectory.csv", "p": [0.0, 0.0, 0.0], "q": [0.1, 0.2, 0.3],
                 "t_end": 10.0, "z": 0.3},
    # the grid bounds stay unset here: cmd_curvature fills them by chart
    "curvature": {"chart": "cartesian", "command": "curvature", "grid_max": None,
                  "grid_min": None, "grid_points": 5, "kappa2": 1.0,
                  "metric": "integrable", "n": 3, "output": "curvature.csv", "z": 0.3},
    "transform": {"canonicity": False, "command": "transform", "direction": "to-polar",
                  "kappa2": 1.0, "normalization": "canonical", "output": None,
                  "p": None, "q": [0.5, 0.4, 0.6], "roundtrip": False, "with_r": False,
                  "z": 0.3},
}


@pytest.mark.parametrize("command", sorted(_BUILTIN_CONFIGS))
def test_builtin_config_of_each_command(command, monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg: seen.append(cfg) or 0)
    assert run([command, *_REQUIRED[command]]) == 0
    # compared as embedded, so that 1.0 and 1 differ
    assert [json.dumps(cfg, sort_keys=True) for cfg in seen] == [
        json.dumps(_BUILTIN_CONFIGS[command], sort_keys=True)
    ]


def test_bad_config_file(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    for content in (b"{not json", b"\xff\xfe{}"):  # not JSON; not UTF-8
        cfg.write_bytes(content)
        assert run(["verify", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read config file: ")


def test_family_hamiltonians_selectable(tmp_path):
    for fam in ("family:one", "family:exp", "family:one-plus"):
        csv = tmp_path / f"{fam.split(':')[1]}.csv"
        code = run(
            ["simulate", "--n", "2", "--z", "0.2", "--hamiltonian", fam,
             "--q", "0.3,0.2", "--p", "0.1,-0.2", "--t-end", "0.1",
             "--dt", "0.01", "--output", str(csv)]
        )
        assert code == 0
    assert run(
        ["simulate", "--n", "2", "--z", "0.2", "--hamiltonian", "family:zeta",
         "--q", "0.3,0.2", "--p", "0.1,-0.2", "--t-end", "0.1", "--dt", "0.01"]
    ) == 1


# --------------------------------------------------------------------------
# CLI fuzz: the exit-code contract over all four commands
# --------------------------------------------------------------------------

_coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_z = st.builds(
    lambda sign, mag: sign * mag,
    st.sampled_from((1.0, -1.0)),
    st.one_of(st.floats(min_value=1e-15, max_value=1e3), st.just(1e308)),
)


def _vec(values):
    return ",".join(repr(v) for v in values)


@st.composite
def _cli_argv(draw):
    """One argv over verify/simulate/curvature/transform at small sizes.

    Values go in as --flag=value, so that a negative number is not read as
    an option."""
    command = draw(st.sampled_from(("verify", "simulate", "curvature", "transform")))
    argv = [command, f"--z={draw(_z)!r}"]
    if command != "verify":
        argv.append(f"--kappa2={draw(st.sampled_from((1.0, -1.0, 0.0, 2.0)))!r}")
    n = draw(st.integers(min_value=1, max_value=4))
    if command == "verify":
        argv += [f"--n={n}", "--samples=1", f"--seed={draw(st.integers(0, 99))}"]
    elif command == "simulate":
        dt = draw(st.sampled_from((1e-3, 1e-2, 0.1)))
        steps = draw(st.integers(min_value=1, max_value=5))
        argv += [
            f"--n={n}",
            f"--chart={draw(st.sampled_from(('cartesian', 'polar')))}",
            "--hamiltonian=" + draw(st.sampled_from(
                ("integrable", "superintegrable", "family:exp", "family:one-plus")
            )),
            f"--method={draw(st.sampled_from(cli.METHODS))}",
            f"--q={_vec(draw(st.lists(_coord, min_size=n, max_size=n)))}",
            f"--p={_vec(draw(st.lists(_coord, min_size=n, max_size=n)))}",
            f"--dt={dt!r}",
            f"--t-end={steps * dt!r}",
        ]
    elif command == "curvature":
        lo, hi = sorted(draw(st.lists(_coord, min_size=2, max_size=2)))
        argv += [
            f"--n={n}",
            f"--metric={draw(st.sampled_from(('integrable', 'superintegrable')))}",
            f"--chart={draw(st.sampled_from(('cartesian', 'polar')))}",
            f"--grid-points={draw(st.integers(min_value=1, max_value=2))}",
            f"--grid-min={lo!r}",
            f"--grid-max={hi!r}",
        ]
    else:
        argv += [
            f"--direction={draw(st.sampled_from(('to-polar', 'to-cartesian')))}",
            f"--normalization={draw(st.sampled_from(('canonical', 'chart')))}",
            f"--q={_vec(draw(st.lists(_coord, min_size=3, max_size=3)))}",
            f"--p={_vec(draw(st.lists(_coord, min_size=3, max_size=3)))}",
        ]
        argv += [f for f in ("--with-r", "--roundtrip", "--canonicity") if draw(st.booleans())]
    return argv


@settings(max_examples=1000, deadline=None)
@given(argv=_cli_argv())
def test_cli_fuzz_keeps_the_exit_code_contract(argv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "out"
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv + [f"--output={out}"])
    text = err.getvalue()
    assert code in (0, 1, 2), text
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in text and "Warning" not in text, text
    if code == 0:
        assert "nan" not in out.read_text().lower()


# --------------------------------------------------------------------------
# argv reading: the plain reader against argparse
# --------------------------------------------------------------------------

#: token groups spliced into an argv; each is read exactly as argparse reads
#: it, or makes the plain reader turn the argv down
_SPLICES = (
    ["--with-r=1"], ["-h"], ["--help"], ["--version"], ["--"], ["stray"],
    ["--n=x"], ["--n=2.5"], ["--n"], ["--seed", "7"], ["--metric=bogus"],
    ["--chart=polar"], ["--format", "xml"], ["--q=1,x"], ["--p="],
    ["--output=--"], ["--output", "-"], ["--z", "-0.5"], ["--z", "0.5"],
    ["--kappa2=-1"], ["--samples", ""], ["--canonicity"], ["verify"],
)


@st.composite
def _maybe_mutated_argv(draw):
    """(argv, mutated): a ``_cli_argv`` draw, perhaps with one change: an
    option in the ``--name value`` form, abbreviated or repeated, or a
    ``_SPLICES`` group inserted anywhere."""
    argv = draw(_cli_argv()) + ["--output=out"]
    kind = draw(st.sampled_from((None, "split", "abbreviate", "repeat", "splice")))
    k = draw(st.integers(1, len(argv) - 1))
    name, eq, value = argv[k].partition("=")
    if kind == "split":
        argv[k : k + 1] = [name, value] if eq else [name]
    elif kind == "abbreviate":
        argv[k] = name[: draw(st.integers(2, len(name)))] + eq + value
    elif kind == "repeat":
        argv.insert(draw(st.integers(1, len(argv))), argv[k])
    elif kind == "splice":
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = draw(st.sampled_from(_SPLICES))
    return argv, kind is not None


@settings(max_examples=600, deadline=None)
@given(case=_maybe_mutated_argv())
def test_plain_reader_reads_as_argparse_or_turns_down(case):
    argv, mutated = case
    ns = cli._read_plain(argv)
    if not mutated:
        assert ns is not None, argv
    if ns is not None:
        ref = cli.build_parser().parse_args(argv)
        assert list(vars(ns).items()) == list(vars(ref).items()), argv


def test_plain_reader_table_is_every_declared_option():
    # each subcommand's table holds the Actions add_argument returned, for
    # every option string but help's, and only of the kinds the reader reads
    for sub in cli.build_parser().subcommands.choices.values():
        assert set(sub.options) | {"-h", "--help"} == set(sub._option_string_actions)
        for option, action in sub.options.items():
            assert type(action).__name__ in ("_StoreAction", "_StoreConstAction"), option
            assert not action.required, option


def _readme_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("zgeoflow ")]


def test_plain_argv_never_reaches_argparse(tmp_path, monkeypatch):
    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"argparse parsed {args}")

    monkeypatch.setattr(cli._Parser, "parse_args", refuse)
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) == 4
    for argv in [*([*u, "--output=out"] for u in _UNITS.values()), *examples]:
        assert main(argv) == 0, argv


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["-h"], 0, ""),
        (["--version"], 0, ""),
        (["curvature", "-h"], 0, ""),
        ([], 1, "zgeoflow: error: the following arguments are required: command"),
        (["bogus"], 1, "zgeoflow: error: argument command: invalid choice: 'bogus' "
                       "(choose from 'verify', 'simulate', 'curvature', 'transform')"),
        (["curvature", "--n=2", "--grid-p=1", "--output=out"], 0, ""),
        (["curvature", "--n=2", "--grid-points=1", "--", "--z=0.5"], 1,
         "zgeoflow: error: unrecognized arguments: -- --z=0.5"),
        (["curvature", "--n=2", "--grid-points=1", "stray"], 1,
         "zgeoflow: error: unrecognized arguments: stray"),
        (["transform", "--q=0.5,0.4,0.6", "--with-r=1"], 1,
         "zgeoflow transform: error: argument --with-r: ignored explicit argument '1'"),
        (["curvature", "--n=2", "--grid-points=1", "--z", "-0.5", "--output=out"], 0, ""),
        (["simulate", "--q=0.1,0.2,0.3", "--p", "-0.05,0.04,0.06"], 1,
         "zgeoflow simulate: error: argument --p: expected one argument"),
        (["curvature", "--grid-points=x"], 1,
         "zgeoflow curvature: error: argument --grid-points: invalid int value: 'x'"),
        (["curvature", "--metric=bogus"], 1,
         "zgeoflow curvature: error: argument --metric: invalid choice: 'bogus' "
         "(choose from 'integrable', 'superintegrable')"),
        (["transform", "--q=0.5,x,0.6"], 1,
         "zgeoflow transform: error: argument --q: bad vector '0.5,x,0.6'"),
        (["curvature", "--output=out", "--n"], 1,
         "zgeoflow curvature: error: argument --n: expected one argument"),
        (["curvature", "--output=--"], 1, "error: output has the wrong type: []"),
        (["curvature", "--n=2", "--grid-points=1", "--output", "-"], 0, ""),
        (["verify", "--n=2", "--format", "json", "--format=xml"], 1,
         "zgeoflow verify: error: argument --format: invalid choice: 'xml' "
         "(choose from 'text', 'json')"),
    ],
)
def test_turned_down_argv_keeps_its_argparse_result(argv, code, err, tmp_path, monkeypatch, capsys):
    # argparse parses these as before: the exit code and the whole stderr
    monkeypatch.chdir(tmp_path)
    assert cli._read_plain(argv) is None
    assert main(argv) == code
    assert capsys.readouterr().err == (err + "\n" if err else "")


_UNITS = {
    "verify": ["verify", "--n=3", "--z=0.3", "--samples=2", "--seed=4", "--format=json"],
    "simulate": ["simulate", "--n=3", "--z=-0.4", "--q=0.25,-0.15,0.35",
                 "--p=0.05,-0.04,0.06", "--t-end=0.01", "--dt=0.001", "--metadata=meta.json"],
    "curvature": ["curvature", "--n=3", "--z=0.6", "--grid-points=2"],
    "transform": ["transform", "--q=0.5,0.4,0.6", "--p=0.1,-0.3,0.2", "--z=0.3",
                  "--with-r", "--roundtrip", "--canonicity"],
}


@pytest.mark.parametrize("command", sorted(_UNITS))
def test_json_reports_are_the_standard_encoding(command, tmp_path, monkeypatch):
    # every document a command writes as JSON, and the config a CSV header
    # carries, encodes byte for byte as json.dumps with an indent of 2
    docs = []
    report, csv = cli._json_report, cli._csv

    def spy_report(config, results, residuals):
        docs.append({"config": config, "results": results, "residuals": residuals,
                     "version": cli.__version__})
        return report(config, results, residuals)

    def spy_csv(header, rows, config):
        docs.append(config)
        return csv(header, rows, config)

    monkeypatch.setattr(cli, "_json_report", spy_report)
    monkeypatch.setattr(cli, "_csv", spy_csv)
    monkeypatch.chdir(tmp_path)
    assert main([*_UNITS[command], "--output=out"]) == 0
    assert docs
    for doc in docs:
        assert jsontext.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2, default=float)
    written = [tmp_path / "out"] if command in ("verify", "transform") else []
    written += [tmp_path / "meta.json"] if command == "simulate" else []
    for path, doc in zip(written, docs[-len(written):]):
        assert read(path).decode() == json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n"


def test_json_encoding_of_edge_values():
    doc = {"b": [1e-320, -0.0, math.inf, -math.inf, math.nan, True, None, 2**70, "é\n"],
           "a": {"x": [], "y": {}, "z": ()}, "c": {3: [1.5, {"k": [[]]}], 2.5: False, True: 1}}
    for value in (doc, [], {}, 0.1, "s", None, [doc, doc]):
        got = jsontext.dumps(value)
        assert got == json.dumps(value, sort_keys=True, indent=2, default=float)


def test_one_simulate_unit_leaves_no_garbage(tmp_path, monkeypatch):
    # nothing a unit allocates waits for the cyclic collector
    import gc

    monkeypatch.chdir(tmp_path)
    argv = [*_UNITS["simulate"], "--output=out"]
    assert main(argv) == 0  # warm: the first unit of a process compiles its gradient
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []
