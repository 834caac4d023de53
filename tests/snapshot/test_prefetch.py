"""Unit tests for REAP working-set recording."""

import pytest

from repro.bench import fresh_platform, install_all, invoke_once
from repro.core import FireworksPlatform
from repro.errors import StateError
from repro.snapshot.chunks import ChunkMap
from repro.snapshot.prefetch import ReapRecorder
from repro.snapshot.restorer import POLICY_DEMAND, POLICY_REAP
from repro.workloads import faasdom_spec


@pytest.fixture
def reap_platform():
    platform = fresh_platform(FireworksPlatform,
                              restore_policy=POLICY_REAP)
    spec = faasdom_spec("faas-fact", "nodejs")
    install_all(platform, [spec])
    return platform, spec


class TestRecording:
    def test_profile_recorded_after_invocation(self, reap_platform):
        platform, spec = reap_platform
        assert len(platform.recorder) == 0
        invoke_once(platform, spec.name)
        assert len(platform.recorder) == 1
        profile = platform.recorder.profile_for(
            platform.image_for(spec.name))
        assert profile is not None
        assert profile.working_set_mb > 0

    def test_second_restore_prefetches_less(self, reap_platform):
        platform, spec = reap_platform
        first = invoke_once(platform, spec.name)
        second = invoke_once(platform, spec.name)
        assert second.startup_ms < first.startup_ms

    def test_recorded_ws_smaller_than_image(self, reap_platform):
        platform, spec = reap_platform
        invoke_once(platform, spec.name)
        image = platform.image_for(spec.name)
        profile = platform.recorder.profile_for(image)
        assert profile.working_set_mb < image.size_mb / 2

    def test_regeneration_invalidates_profile(self, reap_platform):
        """§6 ASLR regeneration changes the page layout: a stale profile
        must not be used for the new generation."""
        platform, spec = reap_platform
        invoke_once(platform, spec.name)
        sim = platform.sim
        new_image = sim.run(sim.process(
            platform.regenerate_snapshot(spec.name)))
        assert platform.recorder.profile_for(new_image) is None
        # The next invocation falls back to full prefetch, then re-records.
        record = invoke_once(platform, spec.name)
        assert record.mode == "snapshot"
        assert platform.recorder.profile_for(new_image) is not None

    def test_record_before_invocation_raises(self, reap_platform):
        platform, spec = reap_platform
        platform.retain_workers = True
        record = invoke_once(platform, spec.name)
        fresh = ReapRecorder()
        worker = record.worker
        worker.invocations = 0
        # "No invocation ran yet" is a state error, not a store miss.
        with pytest.raises(StateError):
            fresh.record(platform.image_for(spec.name), worker)


class TestChunkSetReuse:
    """A profile is a pure function of the image generation, the chunk
    size and the working set: a record that matches the last profile on
    all three returns that profile, anything else derives a new one."""

    @pytest.fixture
    def recorded(self, reap_platform, monkeypatch):
        platform, spec = reap_platform
        platform.retain_workers = True
        spreads = []
        spread = ChunkMap.spread

        def counting_spread(cmap, want_mb):
            spreads.append(want_mb)
            return spread(cmap, want_mb)

        monkeypatch.setattr(ChunkMap, "spread", counting_spread)
        worker = invoke_once(platform, spec.name).worker
        first = platform.recorder.profile_for(platform.image_for(spec.name))
        assert len(spreads) == 1
        return platform, spec, worker, first, spreads

    def test_same_working_set_reuses_the_tuple(self, recorded):
        platform, spec, worker, first, spreads = recorded
        second = platform.recorder.record(
            platform.image_for(spec.name), worker)
        assert second is first
        assert len(spreads) == 1

    def test_next_invocation_reuses_the_tuple(self, recorded):
        platform, spec, _worker, first, spreads = recorded
        invoke_once(platform, spec.name)
        second = platform.recorder.profile_for(platform.image_for(spec.name))
        assert second is first
        assert len(spreads) == 1

    def test_regenerated_image_recomputes(self, recorded):
        platform, spec, worker, first, spreads = recorded
        sim = platform.sim
        new_image = sim.run(sim.process(
            platform.regenerate_snapshot(spec.name)))
        second = platform.recorder.record(new_image, worker)
        assert second is not first
        assert platform.recorder.profile_for(new_image) is second
        assert second.generation == first.generation + 1
        assert second.chunks == first.chunks
        assert len(spreads) == 2

    def test_changed_working_set_recomputes(self, recorded):
        platform, spec, worker, first, spreads = recorded
        worker.sandbox.space.grow_mb("heap", 8.0)
        second = platform.recorder.record(
            platform.image_for(spec.name), worker)
        assert second is not first
        assert second.working_set_mb > first.working_set_mb
        assert spreads[-1] == second.working_set_mb
        assert len(spreads) == 2

    def test_changed_chunk_size_recomputes(self, recorded):
        platform, spec, worker, first, spreads = recorded
        platform.recorder.chunk_size_mb = 2 * first.chunk_size_mb
        second = platform.recorder.record(
            platform.image_for(spec.name), worker)
        assert second is not first
        assert platform.recorder.profile_for(
            platform.image_for(spec.name)) is second
        assert second.chunk_size_mb == 2 * first.chunk_size_mb
        assert len(spreads) == 2


class TestPolicyInteraction:
    def test_demand_policy_ignores_profiles(self):
        platform = fresh_platform(FireworksPlatform,
                                  restore_policy=POLICY_DEMAND)
        spec = faasdom_spec("faas-fact", "nodejs")
        install_all(platform, [spec])
        first = invoke_once(platform, spec.name)
        second = invoke_once(platform, spec.name)
        assert second.startup_ms == pytest.approx(first.startup_ms)
