"""Unit tests for the lazy restore policy (chunk prefetch + demand faults)."""

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.core import FireworksPlatform
from repro.snapshot.prefetch import ReapRecorder
from repro.snapshot.restorer import POLICY_LAZY, POLICY_REAP
from repro.workloads import faasdom_spec


@pytest.fixture
def lazy_platform():
    platform = fresh_platform(FireworksPlatform, restore_policy=POLICY_LAZY)
    spec = faasdom_spec("faas-fact", "nodejs")
    install_all(platform, [spec])
    return platform, spec


def _restorer(platform):
    return platform.manager_for(platform.cluster.hosts[0]).restorer


class TestColdLazy:
    def test_first_restore_demand_faults_everything(self, lazy_platform):
        platform, spec = lazy_platform
        record = invoke_once(platform, spec.name)
        restore = record.span.find("restore")
        assert restore.find("prefetch") is None
        fault = restore.find("demand-fault")
        assert fault is not None
        assert fault.attrs["mb"] > 0
        assert fault.attrs["faults"] >= 1
        assert restore.attrs["prefetched_mb"] == 0.0
        assert restore.attrs["demand_faulted_mb"] == fault.attrs["mb"]
        assert restore.attrs["bytes_moved_mb"] == fault.attrs["mb"]


class TestWarmLazy:
    def test_second_restore_prefetches_recorded_chunks(self, lazy_platform):
        platform, spec = lazy_platform
        invoke_once(platform, spec.name)
        record = invoke_once(platform, spec.name)
        restore = record.span.find("restore")
        prefetch = restore.find("prefetch")
        assert prefetch is not None
        assert prefetch.attrs["mb"] > 0
        assert prefetch.attrs["chunks"] >= 1
        image = platform.image_for(spec.name)
        # Far fewer bytes than a whole-image prefetch would move.
        assert restore.attrs["bytes_moved_mb"] < image.size_mb / 2

    def test_warm_lazy_faster_than_cold(self, lazy_platform):
        platform, spec = lazy_platform
        first = invoke_once(platform, spec.name)
        second = invoke_once(platform, spec.name)
        assert second.startup_ms < first.startup_ms

    def test_warm_lazy_beats_whole_image_prefetch_latency(self,
                                                          lazy_platform):
        platform, spec = lazy_platform
        invoke_once(platform, spec.name)
        warm = invoke_once(platform, spec.name)
        restorer = _restorer(platform)
        image = platform.image_for(spec.name)
        # The acceptance headline: the profile-guided lazy restore is at
        # least as fast as REAP's no-profile whole-image prefetch while
        # moving a fraction of the bytes.
        restorer.recorder = ReapRecorder()   # no profile recorded
        whole_image_ms = restorer.restore_ms(image, POLICY_REAP)
        assert warm.span.find("restore").duration_ms <= whole_image_ms

    def test_ledger_exact(self, lazy_platform):
        platform, spec = lazy_platform
        invoke_once(platform, spec.name)
        restorer = _restorer(platform)
        plan = restorer.lazy_plan(platform.image_for(spec.name))
        assert plan.covered_mb + plan.faulted_mb == plan.touched_mb
        assert plan.prefetch_mb >= plan.covered_mb
        assert plan.bytes_moved_mb == plan.prefetch_mb + plan.faulted_mb

    def test_spans_sum_to_restore_duration(self, lazy_platform):
        platform, spec = lazy_platform
        invoke_once(platform, spec.name)
        record = invoke_once(platform, spec.name)
        restore = record.span.find("restore")
        children_ms = sum(
            child.duration_ms for child in restore.children
            if child.name in ("prefetch", "demand-fault"))
        base_ms = platform.params.snapshot.restore_base_ms
        assert base_ms + children_ms == pytest.approx(restore.duration_ms)


class TestGenerationBump:
    def test_regeneration_falls_back_to_demand_faulting(self, lazy_platform):
        platform, spec = lazy_platform
        invoke_once(platform, spec.name)
        sim = platform.sim
        new_image = sim.run(sim.process(
            platform.regenerate_snapshot(spec.name)))
        assert platform.recorder.profile_for(new_image) is None
        record = invoke_once(platform, spec.name)
        restore = record.span.find("restore")
        assert restore.find("prefetch") is None
        assert restore.find("demand-fault") is not None
        # ... and the new generation's profile is recorded for next time.
        assert platform.recorder.profile_for(new_image) is not None
