"""BENCHMARK.json and perf/reference.json agree with each other, with the
benchmark's code and with the limits the benchmark format sets."""

import json
import re

import pytest

import ledger
import run
import workloads

ROOT, PERF_DIR = run.ROOT, run.PERF_DIR
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    return json.loads((PERF_DIR / "reference.json").read_text())


def test_top_level_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perf/run.py"]
    assert spec["paths"] == ["perf"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    names = [one["name"] for one in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for one in spec["workloads"]:
        assert set(one) == {"name", "why"}
        assert 0 < len(one["why"]) <= 200 and "\n" not in one["why"]


def test_metrics(spec):
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(metric for metric in spec["end_to_end"]
                 if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"]
                                 for metric in spec["end_to_end"])
    assert {metric["name"] for metric in spec["end_to_end"]} \
        == set(run.E2E_SAMPLES)


def test_names_are_valid_and_unique(spec):
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in spec[group]]
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))


def test_every_layer_has_a_self_time_metric(spec):
    per_layer = {metric["name"] for metric in spec["per_layer"]}
    assert {f"{layer}.self_s" for layer in ledger.LAYERS} <= per_layer


def test_every_layer_metric_names_what_it_should_move(spec, reference):
    end_to_end = {metric["name"] for metric in spec["end_to_end"]}
    names = {one["name"] for one in spec["workloads"]}
    moves = reference["moves"]
    assert set(moves) == {metric["name"] for metric in spec["per_layer"]}
    for metric, target in moves.items():
        assert target["metric"] in end_to_end, metric
        assert target["workloads"] and set(target["workloads"]) <= names, \
            metric


def test_every_workload_has_a_pinned_digest(spec, reference):
    assert reference["seed"] == run.DEFAULT_SEED
    assert set(reference["digests"]) == {one["name"]
                                         for one in spec["workloads"]}
    assert all(re.fullmatch(r"[0-9a-f]{64}", value)
               for value in reference["digests"].values())
