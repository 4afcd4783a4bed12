"""zgeoflow benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload geodesic --seed 1 --seconds 55 --trace 0

One process, one thread, a closed loop with one client: each unit is one
in-process call of ``zgeoflow.cli.main(argv)``, the entry point users run,
with an argv generated from ``--seed`` (see ``workloads.py``).  Units run
back to back in passes over the workload's unit list until ``--seconds``
is spent (at least two passes, so every unit's output is byte-compared with
its earlier run).  Every unit's output is checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics.  Unit times are each unit's
best over the run's passes; set-up is also measured in a fresh child
process after every other pass.  ``--trace 1`` alternates untraced
and traced passes (``tracing.py``) and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record (environment, every failure with its argv, pass times) goes to
``perfbench/out/``.  Timing uses only this process's own clocks and
``getrusage``: no machine-wide tracing and no change to machine settings.
"""

from __future__ import annotations

import os

# one thread: keep any BLAS call (the SVD in independence_rank) single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import collections  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path("perfbench") / "out"  # relative to ROOT, so outputs embed no absolute path

#: set-ups per run (the run's own and fresh child processes that repeat
#: it) whose median is setup_s
MIN_SETUPS = 6
MIN_PASSES = 2

#: (name, unit) of each end-to-end metric, as in BENCHMARK.json
END_TO_END = (
    ("wall_s", "s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit, end-to-end metric it should move, on which workloads,
#: predicted no change on); every metric is better lower
PER_LAYER = (
    ("dual.passes", "count/unit", "unit_ms_p50", "geodesic identities", "-"),
    ("dual.eval_ratio", "ratio", "unit_ms_p50", "geodesic identities", "-"),
    ("phase.calls", "count/unit", "wall_s", "geodesic", "curvature"),
    ("phase.call_us", "us/call", "wall_s", "geodesic", "curvature"),
    ("algebra.build_ms", "ms/unit", "unit_ms_p90", "identities", "curvature"),
    ("algebra.jplus_us.n3", "us/call", "unit_ms_p90", "identities", "curvature"),
    ("algebra.jplus_us.n8", "us/call", "unit_ms_p90", "identities", "curvature"),
    ("brackets.gradient.calls", "count/unit", "wall_s unit_ms_p90", "identities", "geodesic"),
    ("brackets.gradient.us", "us/call", "wall_s unit_ms_p90", "identities", "geodesic"),
    ("brackets.check_algebra.ms", "ms/call", "wall_s unit_ms_p90", "identities", "geodesic"),
    ("brackets.check_involution.ms", "ms/call", "wall_s unit_ms_p90", "identities", "geodesic"),
    ("brackets.independence_rank.ms", "ms/call", "wall_s unit_ms_p90", "identities", "geodesic"),
    ("brackets.gradient_lists.calls", "count/unit", "wall_s unit_ms_p50", "geodesic", "identities curvature"),
    ("brackets.gradient_lists.us", "us/call", "wall_s unit_ms_p50", "geodesic", "identities curvature"),
    ("brackets.poisson_bracket.calls", "count/unit", "unit_ms_p50", "curvature", "geodesic"),
    ("dynamics.steps", "steps/unit", "wall_s unit_ms_p50", "geodesic", "identities curvature"),
    ("dynamics.step_us", "us/step", "wall_s unit_ms_p50", "geodesic", "identities curvature"),
    ("dynamics.rhs_per_step", "rhs/step", "wall_s unit_ms_p50", "geodesic", "identities curvature"),
    ("dynamics.conservation_report.ms", "ms/call", "wall_s unit_ms_p50", "geodesic", "identities curvature"),
    ("dynamics.trajectory_table.ms", "ms/call", "wall_s unit_ms_p50", "geodesic", "identities curvature"),
    ("geometry.metric_build.ms", "ms/call", "wall_s unit_ms_p90", "curvature", "geodesic identities"),
    ("geometry.curvature_summary.us", "us/call", "wall_s unit_ms_p90", "curvature", "geodesic identities"),
    ("geometry.riemann.us", "us/call", "wall_s unit_ms_p90", "curvature", "geodesic identities"),
    ("geometry.points", "points/unit", "wall_s unit_ms_p90", "curvature", "geodesic identities"),
    ("charts.transform.us", "us/call", "unit_ms_p50", "curvature geodesic", "identities"),
    ("charts.relations.us", "us/call", "unit_ms_p50", "curvature", "identities"),
    ("charts.canonicity.ms", "ms/call", "unit_ms_p50", "curvature", "identities"),
    ("charts.polar_system.build_us", "us/call", "unit_ms_p50", "curvature geodesic", "identities"),
    ("cli.self_ms", "ms/unit", "unit_ms_p50", "curvature", "-"),
    ("cli.output_bytes", "bytes/unit", "unit_ms_p50", "curvature", "-"),
    ("trace.overhead_s", "s", "-", "-", "-"),
)

#: per-layer counters that must repeat exactly between runs with one seed
EXACT_COUNTERS = (
    "dual.passes",
    "phase.calls",
    "brackets.gradient.calls",
    "brackets.gradient_lists.calls",
    "brackets.poisson_bracket.calls",
    "dynamics.steps",
    "dynamics.rhs_per_step",
    "geometry.points",
    "cli.output_bytes",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no program to measure)."""


def import_cli():
    """Import ``zgeoflow.cli`` from this checkout's ``src``, never an installed copy."""
    if not (SRC / "zgeoflow" / "cli.py").is_file():
        raise BenchError(f"no zgeoflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import zgeoflow.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"imported zgeoflow from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# running units
# ---------------------------------------------------------------------------


def _paths(workdir: Path, key):
    return workdir / f"u{key}.out", workdir / f"u{key}.meta"


def _argv(spec, workdir, key):
    out, meta = _paths(workdir, key)
    argv = list(spec) + [f"--output={out}"]
    if spec[0] == "simulate":
        argv.append(f"--metadata={meta}")
    return argv


def _call(main, argv):
    """Run one unit; returns (latency ns, failure reason or None)."""
    t0 = time.perf_counter_ns()
    try:
        code = main(argv)
    except (Exception, SystemExit) as err:
        return time.perf_counter_ns() - t0, f"raised {type(err).__name__}: {err}"
    elapsed = time.perf_counter_ns() - t0
    return elapsed, None if code == 0 else f"exit code {code}"


class Pass:
    """One pass over the unit list: the wall time, each unit's latency and errors."""

    def __init__(self, wall_ns, latencies, errors):
        self.wall_ns = wall_ns
        self.latencies = latencies
        self.errors = errors


def run_pass(main, specs, workdir, tracer=None) -> Pass:
    argvs = [_argv(s, workdir, k) for k, s in enumerate(specs)]
    for k in range(len(specs)):
        for path in _paths(workdir, k):
            path.unlink(missing_ok=True)
    latencies, errors = [], {}
    t0 = time.perf_counter_ns()
    for k, argv in enumerate(argvs):
        if tracer is not None:
            tracer.unit_id = k
        ns, err = _call(main, argv)
        latencies.append(ns)
        if err:
            errors[k] = err
    return Pass(time.perf_counter_ns() - t0, latencies, errors)


class Checker:
    """Checks unit outputs; remembers each unit's first output to byte-compare reruns."""

    def __init__(self, specs, workdir):
        self.specs = specs
        self.workdir = workdir
        self.first = {}  # unit -> (digest, reason)
        self.failures = []
        self.attempted = 0
        self.bytes_per_pass = []

    def _read(self, key):
        out, meta = _paths(self.workdir, key)
        output = out.read_bytes()
        metadata = meta.read_bytes() if meta.exists() else None
        return output, metadata

    def check(self, label, key, spec, error):
        """Check one unit run; returns the bytes it wrote."""
        self.attempted += 1
        written = 0
        reason = error
        if reason is None:
            try:
                output, meta = self._read(key)
            except OSError as err:
                reason = f"output not readable: {err}"
            else:
                written = len(output) + len(meta or b"")
                digest = hashlib.sha256(output + b"\0" + (meta or b"")).hexdigest()
                if key not in self.first:
                    self.first[key] = (digest, checks.check_outputs(spec, output, meta))
                first_digest, reason = self.first[key]
                if digest != first_digest:
                    reason = "output differs from the same argv's earlier output"
        if reason:
            argv = _argv(spec, self.workdir, key)
            self.failures.append({"pass": label, "unit": key, "argv": argv, "reason": reason})
        return written

    def check_pass(self, label, run: Pass):
        total = sum(
            self.check(label, k, spec, run.errors.get(k))
            for k, spec in enumerate(self.specs)
        )
        self.bytes_per_pass.append(total)


def set_up(workload, seed, workdir):
    """Everything before the first timed unit, timed from the import of the CLI.

    Returns (cli module, unit specs, warm-up spec, warm-up error or None,
    seconds).
    """
    t0 = time.perf_counter()
    cli = import_cli()
    specs = workloads.units(workload, seed)
    warm = workloads.warmup(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for path in _paths(workdir, "warmup"):
        path.unlink(missing_ok=True)
    _, err = _call(cli.main, _argv(warm, workdir, "warmup"))
    return cli, specs, warm, err, time.perf_counter() - t0


def probe_setup(workload, seed) -> float:
    """Set-up time of a fresh child process running the same code path."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if doc["error"]:
        raise BenchError(f"set-up probe warm-up unit failed: {doc['error']}")
    return doc["setup_s"]


# ---------------------------------------------------------------------------
# statistics and records
# ---------------------------------------------------------------------------


def best_latencies(passes):
    """Each unit's lowest latency (ns) over the given passes."""
    return [min(column) for column in zip(*(p.latencies for p in passes))]


def percentile(values, q):
    """The q-th percentile, linear between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values):
    """Interquartile range over the median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(pass_walls):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "pass_wall_spread": spread(pass_walls),
        "timing": (
            "perf_counter and getrusage of this process and its own children "
            "only; no machine-wide tracing, no change to machine settings"
        ),
    }


def _finish(workload, seed, trace, record, metrics, units, human):
    """Write the full record, print the summary and the final JSON line."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    record["metrics"] = metrics
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    failures = record["failures"]
    for line in human:
        print(line)
    print(f"  units_failed {len(failures)} of {record['attempted']} attempted")
    for f in failures[:20]:
        print(f"    FAIL pass {f['pass']} unit {f['unit']}: {f['reason']}: {' '.join(f['argv'])}")
    env = record["environment"]
    print(
        f"  env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
        f"cpu {env['cpu_model']}, commit {env['commit']}, "
        f"pass spread {env['pass_wall_spread']:.4f}; record {path}"
    )
    result = {
        "correct": not failures and not record.get("errors"),
        "attempted": record["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def run_untraced(workload, seed, seconds):
    workdir = OUT / f"work-{workload}"
    cli, specs, warm, warm_err, setup0 = set_up(workload, seed, workdir)
    checker = Checker(specs, workdir)
    checker.check("warmup", "warmup", warm, warm_err)
    passes, setups = [], [setup0]
    t_start = time.perf_counter_ns()
    while len(passes) < MIN_PASSES or (
        (time.perf_counter_ns() - t_start) * (1 + 1 / len(passes)) <= seconds * 1e9
    ):
        run = run_pass(cli.main, specs, workdir)
        checker.check_pass(len(passes), run)
        passes.append(run)
        # a fresh-process set-up after every other pass, so that the
        # set-ups sample the same stretch of time as the passes
        if len(passes) % 2 == 0:
            setups.append(probe_setup(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < MIN_SETUPS:
        setups.append(probe_setup(workload, seed))
    shutil.rmtree(workdir, ignore_errors=True)

    walls = [p.wall_ns / 1e9 for p in passes]
    # each unit's best latency over the run's passes: the machine's speed
    # swings between two states, about 2x apart, for seconds at a time,
    # which only adds time, so a unit's minimum is its steady cost
    best_ms = [ns / 1e6 for ns in best_latencies(passes)]
    metrics = {
        "wall_s": sum(best_ms) / 1e3,
        "unit_ms_p50": percentile(best_ms, 50),
        "unit_ms_p90": percentile(best_ms, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": 0,
        "units_per_pass": len(specs), "passes": len(passes), "pass_walls_s": walls,
        "median_pass_wall_s": statistics.median(walls), "unit_best_ms": best_ms,
        "setup_samples_s": setups, "attempted": checker.attempted,
        "failures": checker.failures, "environment": environment(walls),
    }
    human = [
        f"zgeoflow benchmark, workload {workload}, seed {seed}, untraced: "
        f"{len(passes)} passes x {len(specs)} units; unit times are each unit's "
        f"best over the {len(passes)} passes",
        f"  wall_s       {metrics['wall_s']:.6f} s   (one pass at best unit times; "
        f"median pass {record['median_pass_wall_s']:.6f} s)",
        f"  unit_ms_p50  {metrics['unit_ms_p50']:.6f} ms  ({len(best_ms)} units)",
        f"  unit_ms_p90  {metrics['unit_ms_p90']:.6f} ms  ({len(best_ms)} units)",
        f"  setup_s      {metrics['setup_s']:.6f} s   (median of {len(setups)} set-ups)",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.3f} MB",
    ]
    _finish(workload, seed, 0, record, metrics, END_TO_END, human)


def traced_pass(main, specs, workdir, checker, tracer, label):
    """One traced pass; returns (Pass, the counts that must repeat exactly)."""
    lo, tags, steps = len(tracer), tracer.fresh_tags, tracer.steps
    with tracing.installed(tracer):
        run = run_pass(main, specs, workdir, tracer)
    checker.check_pass(label, run)
    counts = collections.Counter(tracer.name[lo:])
    exact = {tracer.names[k]: v for k, v in sorted(counts.items())}
    exact["fresh_tag"] = tracer.fresh_tags - tags
    exact["steps"] = tracer.steps - steps
    exact["output_bytes"] = checker.bytes_per_pass[-1]
    return run, exact


def layer_metrics(summary, units, steps, fresh_tags, output_bytes, ratio, overhead_s):
    """The per-layer metrics from a span summary and the run's counters."""

    def calls(name):
        return summary[name]["calls"] if name in summary else 0

    def per_call(name, scale):
        s = summary.get(name)
        return s["incl_ns"] / s["calls"] / scale if s else 0.0

    def self_per_unit(name, scale):
        s = summary.get(name)
        return s["self_ns"] / units / scale if s else 0.0

    integrate_ns = summary["dynamics.integrate"]["incl_ns"] if steps else 0
    return {
        "dual.passes": fresh_tags / units,
        "dual.eval_ratio": ratio,
        "phase.calls": calls("phase.call") / units,
        "phase.call_us": per_call("phase.call", 1e3),
        "algebra.build_ms": self_per_unit("algebra.build", 1e6),
        "algebra.jplus_us.n3": per_call("algebra.jplus.n3", 1e3),
        "algebra.jplus_us.n8": per_call("algebra.jplus.n8", 1e3),
        "brackets.gradient.calls": calls("brackets.gradient") / units,
        "brackets.gradient.us": per_call("brackets.gradient", 1e3),
        "brackets.check_algebra.ms": per_call("brackets.check_algebra", 1e6),
        "brackets.check_involution.ms": per_call("brackets.check_involution", 1e6),
        "brackets.independence_rank.ms": per_call("brackets.independence_rank", 1e6),
        "brackets.gradient_lists.calls": calls("brackets.gradient_lists") / units,
        "brackets.gradient_lists.us": per_call("brackets.gradient_lists", 1e3),
        "brackets.poisson_bracket.calls": calls("brackets.poisson_bracket") / units,
        "dynamics.steps": steps / units,
        "dynamics.step_us": integrate_ns / steps / 1e3 if steps else 0.0,
        "dynamics.rhs_per_step": calls("brackets.gradient_lists") / steps if steps else 0.0,
        "dynamics.conservation_report.ms": per_call("dynamics.conservation_report", 1e6),
        "dynamics.trajectory_table.ms": per_call("dynamics.trajectory_table", 1e6),
        "geometry.metric_build.ms": per_call("geometry.metric_build", 1e6),
        "geometry.curvature_summary.us": per_call("geometry.curvature_summary", 1e3),
        "geometry.riemann.us": per_call("geometry.riemann", 1e3),
        "geometry.points": calls("geometry.curvature_summary") / units,
        "charts.transform.us": per_call("charts.transform", 1e3),
        "charts.relations.us": per_call("charts.relations", 1e3),
        "charts.canonicity.ms": per_call("charts.canonicity", 1e6),
        "charts.polar_system.build_us": per_call("charts.polar_system.build", 1e3),
        "cli.self_ms": self_per_unit("cli.main", 1e6),
        "cli.output_bytes": output_bytes / units,
        "trace.overhead_s": overhead_s,
    }


def trace_run(workload, seed, seconds, specs_filter=None):
    """A traced run.  Returns (record, metrics); ``specs_filter`` trims the
    unit list (tests use it to keep runs short)."""
    workdir = OUT / f"work-{workload}-trace"
    cli, specs, warm, warm_err, setup0 = set_up(workload, seed, workdir)
    if specs_filter is not None:
        specs = specs_filter(specs)
    checker = Checker(specs, workdir)
    checker.check("warmup", "warmup", warm, warm_err)
    tracer = tracing.Tracer()
    main = tracer.wrap("cli.main", cli.main)
    # untraced and traced passes alternate, so that both see the same
    # machine conditions; the tracing overhead is the difference of their
    # wall_s, each taken from per-unit best latencies as in untraced runs
    plain, passes = [], []
    t_start = time.perf_counter_ns()
    while not passes or (
        time.perf_counter_ns() - t_start + plain[-1].wall_ns + passes[-1][0].wall_ns
        <= seconds * 1e9
    ):
        plain.append(run_pass(cli.main, specs, workdir))
        checker.check_pass(f"untraced {len(plain) - 1}", plain[-1])
        passes.append(traced_pass(main, specs, workdir, checker, tracer,
                                  f"traced {len(passes)}"))
    ratio = tracing.eval_ratio(tracer)
    shutil.rmtree(workdir, ignore_errors=True)

    errors = [
        f"exact counters of traced pass {k} differ from traced pass 0"
        for k, (_, exact) in enumerate(passes) if exact != passes[0][1]
    ]
    units = len(passes) * len(specs)
    walls = [run.wall_ns / 1e9 for run, _ in passes]
    plain_walls = [run.wall_ns / 1e9 for run in plain]
    summary = tracing.summarize(tracer)
    metrics = layer_metrics(
        summary, units, tracer.steps, tracer.fresh_tags,
        sum(exact["output_bytes"] for _, exact in passes), ratio,
        (sum(best_latencies([r for r, _ in passes])) - sum(best_latencies(plain))) / 1e9,
    )
    OUT.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(tracer, OUT / f"spans-{workload}.npz")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": 1,
        "units_per_pass": len(specs), "traced_passes": len(passes),
        "untraced_walls_s": plain_walls, "traced_walls_s": walls,
        "spans": len(tracer), "span_summary": summary,
        "exact_counts_per_pass": passes[0][1], "errors": errors,
        "attempted": checker.attempted, "failures": checker.failures,
        "environment": environment(walls), "setup_s": setup0,
    }
    return record, metrics


def run_traced(workload, seed, seconds):
    record, metrics = trace_run(workload, seed, seconds)
    human = [
        f"zgeoflow benchmark, workload {workload}, seed {seed}, traced: "
        f"{record['traced_passes']} traced passes x {record['units_per_pass']} units, "
        f"{record['spans']} spans",
        f"  tracing overhead {metrics['trace.overhead_s']:.6f} s per pass "
        f"(traced minus untraced wall_s, from per-unit best latencies)",
    ]
    for name, unit, moves, on, same in PER_LAYER:
        human.append(
            f"  {name:34s} {metrics[name]:14.6f} {unit:11s} moves {moves} on {on}; "
            f"no change on {same}"
        )
    human += [f"  ERROR {e}" for e in record["errors"]]
    _finish(workload, seed, 1, record, metrics, [(n, u) for n, u, *_ in PER_LAYER], human)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        if args.setup_probe:
            workdir = OUT / f"work-{args.workload}-probe"
            *_, err, seconds = set_up(args.workload, args.seed, workdir)
            shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup_s": seconds, "error": err}))
        elif args.trace:
            run_traced(args.workload, args.seed, args.seconds)
        else:
            run_untraced(args.workload, args.seed, args.seconds)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
