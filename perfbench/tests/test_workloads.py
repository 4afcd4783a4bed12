"""The seeded unit generator and the benchmark's description of itself."""

import collections
import json

import pytest

import run
import workloads


def shape(argv):
    """The argv with its seeded values removed."""
    drawn = ("--z=", "--q=", "--p=", "--seed=", "--grid-min=", "--grid-max=")
    return tuple(a for a in argv if not a.startswith(drawn))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_the_same_units(workload):
    assert workloads.units(workload, 7) == workloads.units(workload, 7)
    assert workloads.warmup(workload, 7) == workloads.warmup(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_another_seed_gives_other_units_of_the_same_shape(workload):
    a, b = workloads.units(workload, 7), workloads.units(workload, 8)
    assert a != b
    assert collections.Counter(map(shape, a)) == collections.Counter(map(shape, b))
    assert workloads.warmup(workload, 7) != workloads.warmup(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_enough_units_for_the_90th_percentile(workload):
    assert len(workloads.units(workload, 1)) >= 100


def test_benchmark_json_matches_the_harness():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for w in doc["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (name, unit) for name, unit, *_ in run.PER_LAYER
    ]
    assert all(m["better"] == "lower" for m in doc["per_layer"])
