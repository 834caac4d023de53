"""Unit tests for snapshot images."""

import dataclasses

import pytest

from repro.errors import SnapshotNotFoundError
from repro.net.address import IpAddress, MacAddress
from repro.snapshot.image import (STAGE_OS, STAGE_POST_JIT, SnapshotImage)

GUEST_IP = IpAddress.parse("10.0.0.2")
GUEST_MAC = MacAddress(0x02F17E000001)


def _image(stage=STAGE_POST_JIT, regions=None):
    return SnapshotImage(
        key="fn", language="nodejs", stage=stage,
        regions_mb=regions or {"kernel": 60, "runtime": 55, "app": 25,
                               "heap": 20, "jit_code": 10},
        guest_ip=GUEST_IP, guest_mac=GUEST_MAC)


class TestImage:
    def test_size_is_region_sum(self):
        assert _image().size_mb == pytest.approx(170)

    def test_size_is_summed_like_the_regions(self):
        # The same sum() over the same dict: restore latencies and
        # image_mb attributes stay bit-identical.
        regions = {"kernel": 60.1, "runtime": 55.3, "app": 0.7, "heap": 0.2}
        assert _image(regions=regions).size_mb == sum(regions.values())

    def test_size_stays_out_of_repr_and_equality(self):
        image, twin = _image(), _image()
        assert "size_mb" not in repr(image)
        twin.size_mb = 1.0
        assert image == twin

    def test_replace_sums_the_new_regions(self):
        image = dataclasses.replace(_image(), regions_mb={"kernel": 60,
                                                          "heap": 5})
        assert image.size_mb == 65

    def test_invalid_stage_raises(self):
        with pytest.raises(SnapshotNotFoundError):
            _image(stage="mid-air")

    def test_materialize_pins_page_cache(self, host):
        image = _image()
        segments = image.materialize(host)
        assert set(segments) == {"kernel", "runtime", "app", "heap",
                                 "jit_code"}
        assert host.used_mb == pytest.approx(170)
        assert image.materialized

    def test_materialize_idempotent(self, host):
        image = _image()
        first = image.materialize(host)
        second = image.materialize(host)
        assert first == second
        assert host.used_mb == pytest.approx(170)

    def test_eviction_releases_page_cache(self, host):
        image = _image()
        image.materialize(host)
        image.on_evicted()
        assert host.used_mb == 0
        assert not image.materialized

    def test_eviction_with_live_mappers_keeps_copies(self, host):
        image = _image()
        segments = image.materialize(host)
        mapper = segments["kernel"].attach()
        image.on_evicted()
        # kernel segment still has a mapper -> stays resident; others drop.
        assert host.used_mb == pytest.approx(60)
        segments["kernel"].detach(mapper)
        assert host.used_mb == 0


class TestRegeneration:
    def test_clone_bumps_generation(self):
        image = _image()
        regenerated = image.clone_for_regeneration()
        assert regenerated.generation == 2
        assert regenerated.key == image.key
        assert regenerated.size_mb == image.size_mb

    def test_transfer_replica_keeps_the_size(self):
        image = _image()
        assert image.clone_for_transfer().size_mb == image.size_mb

    def test_clone_has_independent_jit_state(self, host):
        from repro.runtime.jit import FunctionJitState
        image = _image()
        image.jit_state["main"] = FunctionJitState("main")
        regenerated = image.clone_for_regeneration()
        regenerated.jit_state["main"].hotness_units = 999
        assert image.jit_state["main"].hotness_units == 0

    def test_clone_segments_are_fresh(self, host):
        image = _image()
        image.materialize(host)
        regenerated = image.clone_for_regeneration()
        new_segments = regenerated.materialize(host)
        old_segments = image.materialize(host)
        assert new_segments["kernel"] is not old_segments["kernel"]
