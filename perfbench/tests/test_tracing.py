"""Self-time arithmetic, exact counters and the output checks."""

import pytest

import checks
import run
import tracing
import workloads


def test_self_time_subtracts_the_time_children_cover():
    # 0: [0, 100) with children 1: [10, 30) and 2: [40, 90);
    # 2 has child 3: [50, 60); 4 is a second root [100, 110)
    start = [0, 10, 40, 50, 100]
    end = [100, 30, 90, 60, 110]
    parent = [-1, 0, 0, 2, -1]
    assert tracing.self_times(start, end, parent) == [30, 20, 40, 10, 10]


def test_self_time_merges_overlapping_children_and_clips_to_the_parent():
    # children 1: [10, 50) and 2: [30, 70) overlap on [30, 50); 3: [90, 120)
    # runs past its parent's end at 100
    start = [0, 10, 30, 90]
    end = [100, 50, 70, 120]
    parent = [-1, 0, 0, 0]
    assert tracing.self_times(start, end, parent) == [30, 40, 40, 30]


def test_summarize_adds_calls_and_times_per_name():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    root = tracer.wrap("root", lambda: (leaf(), leaf()))
    root()
    root()
    summary = tracing.summarize(tracer)
    assert summary["root"]["calls"] == 2 and summary["leaf"]["calls"] == 4
    assert summary["root"]["self_ns"] == summary["root"]["incl_ns"] - summary["leaf"]["incl_ns"]
    assert summary["leaf"]["self_ns"] == summary["leaf"]["incl_ns"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_across_traced_runs(workload, monkeypatch):
    monkeypatch.chdir(run.ROOT)
    first = run.trace_run(workload, 3, 0.0, specs_filter=lambda s: s[:6])
    second = run.trace_run(workload, 3, 0.0, specs_filter=lambda s: s[:6])
    for record, _ in (first, second):
        assert record["failures"] == [] and record["errors"] == []
    assert first[0]["exact_counts_per_pass"] == second[0]["exact_counts_per_pass"]
    for name in run.EXACT_COUNTERS:
        assert first[1][name] == second[1][name], name
    assert first[1]["dual.passes"] > 0


def test_tracing_leaves_the_program_as_it_was():
    import zgeoflow.brackets
    import zgeoflow.cli
    import zgeoflow.dual
    import zgeoflow.phase

    before = (
        zgeoflow.cli.integrate,
        zgeoflow.brackets.gradient,
        zgeoflow.dual.fresh_tag,
        zgeoflow.phase.PhaseFunction.__call__,
    )
    with tracing.installed(tracing.Tracer()):
        assert zgeoflow.cli.integrate is not before[0]
    after = (
        zgeoflow.cli.integrate,
        zgeoflow.brackets.gradient,
        zgeoflow.dual.fresh_tag,
        zgeoflow.phase.PhaseFunction.__call__,
    )
    assert after == before


def test_checks_flag_non_finite_values_and_failed_verification():
    assert checks.non_finite(b"x,1.5,nan\n") == "nan"
    assert checks.non_finite(b'{"a": -Infinity}') == "Infinity"
    assert checks.non_finite(b"integrable,information\n") is None
    report = b"status = fail\n"
    assert checks.check_outputs(["verify", "--n=2"], report, None)


def test_checks_flag_a_curvature_residual_above_tolerance():
    argv = ["curvature", "--n=2", "--metric=superintegrable", "--grid-points=1"]
    good = b"# config: {}\nq1,q2,K12,K,ref_K12,ref_K,res_K12,res_K\n0,0,0.3,0.6,0.3,0.6,1e-12,1e-12\n"
    bad = good.replace(b"1e-12,1e-12", b"1e-12,1e-6")
    assert checks.check_outputs(argv, good, None) is None
    assert "residual" in checks.check_outputs(argv, bad, None)
