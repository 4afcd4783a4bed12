"""Span tracing for the traced benchmark run, installed from outside the package.

``installed(tracer)`` rebinds, for the duration of a ``with`` block, the
public names that each zgeoflow module looks up when it calls into another
layer (``zgeoflow.cli.integrate``, ``zgeoflow.dynamics.gradient_lists``,
``zgeoflow.brackets.gradient``, ...) to wrappers that record a span: name,
start, end, parent span and unit id.  Nothing inside ``src/`` changes.
Spans are kept in compact in-memory arrays and written out once, at the end
of the run.  ``zgeoflow.dual.fresh_tag`` is counted rather than spanned,
since it is far cheaper than a span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import statistics
import time
import timeit
from array import array
from contextlib import contextmanager

#: (module, attribute, span name).  Every name ``zgeoflow.cli`` calls in
#: another module is listed, so that the self time of ``cli.main`` is the
#: CLI's own work: parsing, config, formatting and writing.
SPAN_TARGETS = (
    ("zgeoflow.cli", "integrate", "dynamics.integrate"),
    ("zgeoflow.cli", "conservation_report", "dynamics.conservation_report"),
    ("zgeoflow.cli", "trajectory_table", "dynamics.trajectory_table"),
    ("zgeoflow.cli", "check_algebra", "brackets.check_algebra"),
    ("zgeoflow.cli", "check_involution", "brackets.check_involution"),
    ("zgeoflow.cli", "independence_rank", "brackets.independence_rank"),
    ("zgeoflow.cli", "bracket_residual", "brackets.bracket_residual"),
    ("zgeoflow.cli", "sample_points", "brackets.sample_points"),
    ("zgeoflow.cli", "casimir_m", "algebra.build"),
    ("zgeoflow.cli", "casimir_one", "algebra.build"),
    ("zgeoflow.cli", "hamiltonian_family", "algebra.build"),
    ("zgeoflow.cli", "hamiltonian_integrable", "algebra.build"),
    ("zgeoflow.cli", "hamiltonian_superintegrable", "algebra.build"),
    ("zgeoflow.cli", "integral_extra_2", "algebra.build"),
    ("zgeoflow.cli", "integral_extra_3", "algebra.build"),
    ("zgeoflow.cli", "line_element_from_hamiltonian", "geometry.metric_build"),
    ("zgeoflow.cli", "metric_from_hamiltonian", "geometry.metric_build"),
    ("zgeoflow.cli", "curvature_summary", "geometry.curvature_summary"),
    ("zgeoflow.cli", "variable_curvature_sectionals", "geometry.reference"),
    ("zgeoflow.cli", "variable_curvature_scalar", "geometry.reference"),
    ("zgeoflow.cli", "gaussian_curvature_variable_2d", "geometry.reference"),
    ("zgeoflow.cli", "transform_to_polar", "charts.transform"),
    ("zgeoflow.cli", "transform_to_cartesian", "charts.transform"),
    ("zgeoflow.cli", "chart_relation_residuals", "charts.relations"),
    ("zgeoflow.cli", "fundamental_bracket_residuals", "charts.canonicity"),
    ("zgeoflow.cli", "integrable_polar_system", "charts.polar_system.build"),
    ("zgeoflow.cli", "superintegrable_polar_system", "charts.polar_system.build"),
    ("zgeoflow.cli", "rho_to_r", "charts.rho_to_r"),
    ("zgeoflow.geometry", "riemann", "geometry.riemann"),
    ("zgeoflow.brackets", "poisson_bracket", "brackets.poisson_bracket"),
)
#: bindings of realize_generators; the wrapper also times the returned J+
GENERATOR_BINDINGS = ("zgeoflow.cli", "zgeoflow.brackets", "zgeoflow.algebra")

#: functions whose Dual-seeded cost over float cost gives dual.eval_ratio
MAX_RATIO_SAMPLES = 24


class Tracer:
    """In-memory spans plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.unit = array("i")
        self._stack = [-1]
        self._on = [True]
        self.unit_id = -1
        self.fresh_tags = 0
        self.steps = 0
        #: label -> (function, q, p) of the first gradient taken of it
        self.samples = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def paused(self):
        """Run without recording (wrappers stay installed)."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        nid = self.name_id(name)
        names, starts, ends = self.name, self.start, self.end
        parents, units, stack, on = self.parent, self.unit, self._stack, self._on
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            units.append(self.unit_id)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def __len__(self):
        return len(self.start)


def self_times(start, end, parent) -> list:
    """Each span's duration minus the part of it that its child spans cover.

    Overlapping children are merged, and a child's part outside its parent
    is ignored, so the result never double-counts.
    """
    n = len(start)
    covered = [0] * n
    reach = list(start)  # furthest point of each parent already covered
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [end[i] - start[i] - covered[i] for i in range(n)]


@contextmanager
def installed(tracer: Tracer):
    """Install the span wrappers and counters; restore every binding on exit."""
    from zgeoflow import dual
    from zgeoflow.phase import PhaseFunction

    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module, attr, span in SPAN_TARGETS:
            mod = importlib.import_module(module)
            rebind(mod, attr, tracer.wrap(span, getattr(mod, attr)))

        cli = importlib.import_module("zgeoflow.cli")
        rebind(cli, "integrate", _counting_steps(tracer, cli.integrate))
        dynamics = importlib.import_module("zgeoflow.dynamics")
        rebind(dynamics, "gradient_lists", _sampling(
            tracer, "brackets.gradient_lists", dynamics.gradient_lists,
            lambda f, q, p: (f, list(q), list(p))))
        brackets = importlib.import_module("zgeoflow.brackets")
        rebind(brackets, "gradient", _sampling(
            tracer, "brackets.gradient", brackets.gradient,
            lambda f, x: (f, list(x.q), list(x.p))))

        for module in GENERATOR_BINDINGS:
            mod = importlib.import_module(module)
            rebind(mod, "realize_generators",
                   _tracing_generators(tracer, mod.realize_generators))

        rebind(PhaseFunction, "__call__", tracer.wrap("phase.call", PhaseFunction.__call__))

        fresh_tag = dual.fresh_tag
        on = tracer._on

        def counted_fresh_tag():
            if on[0]:
                tracer.fresh_tags += 1
            return fresh_tag()

        rebind(dual, "fresh_tag", counted_fresh_tag)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _counting_steps(tracer, integrate):
    """Count the steps of each completed integration (t_end / dt)."""

    @functools.wraps(integrate)
    def counted(h, x0, t_end, dt, *args, **kwargs):
        traj = integrate(h, x0, t_end, dt, *args, **kwargs)
        if tracer._on[0]:
            tracer.steps += int(round(t_end / dt))
        return traj

    return counted


def _sampling(tracer, span, fn, sample):
    """A span wrapper that also keeps the first (f, q, p) seen per label."""
    traced = tracer.wrap(span, fn)
    samples = tracer.samples

    @functools.wraps(fn)
    def sampled(f, *args):
        if f.label not in samples and len(samples) < MAX_RATIO_SAMPLES:
            samples[f.label] = sample(f, *args)
        return traced(f, *args)

    return sampled


def _tracing_generators(tracer, realize):
    """Wrap realize_generators: a build span, and a span per J+ evaluation."""
    from zgeoflow.phase import PhaseFunction

    @functools.wraps(realize)
    def realize_traced(n, z):
        gen = realize(n, z)
        jp = gen.j_plus
        timed = tracer.wrap(f"algebra.jplus.n{n}", jp.fn)
        return dataclasses.replace(gen, j_plus=PhaseFunction(jp.arity, timed, jp.label))

    return tracer.wrap("algebra.build", realize_traced)


def eval_ratio(tracer: Tracer, repeats: int = 10, rounds: int = 3):
    """Median over sampled functions of (Dual-seeded raw cost) / (float raw cost).

    The first coordinate is seeded, as one pass of a gradient does.  Timed
    with recording paused; returns 0.0 when no gradient was taken.
    """
    from zgeoflow import dual

    def best(call):
        return min(timeit.repeat(call, number=repeats, repeat=rounds))

    ratios = []
    with tracer.paused():
        for f, q, p in tracer.samples.values():
            seeded = [dual.Dual(dual.fresh_tag(), q[0], 1.0)] + q[1:]
            ratios.append(best(lambda: f.raw(seeded, p)) / best(lambda: f.raw(q, p)))
    return statistics.median(ratios) if ratios else 0.0


def summarize(tracer: Tracer, lo: int = 0, hi: int | None = None) -> dict:
    """Per span name: calls, inclusive ns and self ns of spans ``lo:hi``.

    The range must hold whole span trees (one or more complete units).
    """
    hi = len(tracer) if hi is None else hi
    start = tracer.start[lo:hi]
    end = tracer.end[lo:hi]
    parent = [p - lo if p >= lo else -1 for p in tracer.parent[lo:hi]]
    own = self_times(start, end, parent)
    out = {}
    for k in range(hi - lo):
        row = out.setdefault(tracer.names[tracer.name[lo + k]], [0, 0, 0])
        row[0] += 1
        row[1] += end[k] - start[k]
        row[2] += own[k]
    return {
        name: {"calls": c, "incl_ns": t, "self_ns": s}
        for name, (c, t, s) in out.items()
    }


def write_spans(tracer: Tracer, path) -> None:
    """Write every span as compressed arrays (numpy .npz)."""
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(tracer.names),
        name=np.frombuffer(tracer.name, dtype=np.int32),
        start_ns=np.frombuffer(tracer.start, dtype=np.int64),
        end_ns=np.frombuffer(tracer.end, dtype=np.int64),
        parent=np.frombuffer(tracer.parent, dtype=np.int32),
        unit=np.frombuffer(tracer.unit, dtype=np.int32),
    )
