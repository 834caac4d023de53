"""The profile fold puts each frame in its layer and loses no time."""

import cProfile
import json
import os
import pstats

import pytest

import ledger

PACKAGE = os.path.join(os.sep, "checkout", "src", "repro")
PERF = os.path.join(os.sep, "checkout", "perf")


@pytest.mark.parametrize("filename, layer", [
    (os.path.join(PACKAGE, "sim", "kernel.py"), "sim"),
    (os.path.join(PACKAGE, "core", "annotator", "nodejs_annotator.py"),
     "core"),
    (os.path.join(PACKAGE, "metrics.py"), "metrics"),
    (os.path.join(PACKAGE, "config.py"), "config"),
    (os.path.join(PACKAGE, "errors.py"), "repro"),
    (os.path.join(PACKAGE, "serve", "app.py"), "repro"),
    (os.path.join(PERF, "worker.py"), "perf"),
    (os.path.join(os.sep, "usr", "lib", "python3", "json", "encoder.py"),
     "other"),
    (os.path.join(os.sep, "checkout", "src", "reprox", "sim.py"), "other"),
    ("~", "other"),
])
def test_layer_of(filename, layer):
    assert ledger.layer_of(filename, PACKAGE, PERF) == layer


def _profiled_work(spans: int) -> pstats.Stats:
    from repro.sim.kernel import Simulation

    def body():
        sim = Simulation(seed=1)

        def proc():
            for step in range(200):
                with sim.tracer.span("step", kind="test"):
                    yield sim.timeout(1.0)
                json.dumps({"step": step, "values": list(range(50))})

        sim.process(proc())
        sim.run()
        for _ in range(spans - 200):
            sim.tracer.add_span("extra", 0.0, 1.0)

    profile = cProfile.Profile()
    profile.runcall(body)
    return pstats.Stats(profile)


def test_fold_buckets_a_synthetic_profile():
    import repro
    stats = _profiled_work(spans=250).stats
    folded = ledger.fold(stats, os.path.dirname(repro.__file__),
                         os.path.dirname(ledger.__file__))
    assert set(folded) == set(ledger.LAYERS)
    assert folded["sim"] > 0 and folded["trace"] > 0
    assert folded["other"] > 0            # json, built-ins, this test
    assert folded["mem"] == folded["platforms"] == 0
    total = sum(entry[2] for entry in stats.values())
    assert sum(folded.values()) == pytest.approx(total, rel=0.01)


def test_layer_metrics_reads_counts_from_the_profile():
    metrics = ledger.layer_metrics(_profiled_work(spans=250))
    assert metrics["trace.spans"] == 250
    assert metrics["policy.decisions"] == 0
    assert metrics["bench.encode_s"] == 0
    self_times = sum(value for name, value in metrics.items()
                     if name.endswith(".self_s"))
    assert self_times == pytest.approx(metrics["profile.total_s"], rel=0.01)
