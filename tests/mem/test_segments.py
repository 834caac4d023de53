"""Unit tests for private blocks and shared CoW segments."""

import pytest

from repro.config import HostConfig
from repro.errors import MemoryError_
from repro.mem.host_memory import HostMemory


@pytest.fixture
def host():
    return HostMemory(HostConfig(dram_mb=4096))


class TestPrivateBlock:
    def test_allocation_accounted(self, host):
        block = host.allocate_block(100, "heap")
        assert host.used_mb == pytest.approx(100)
        assert block.pages == 100 * 256

    def test_free_returns_pages(self, host):
        block = host.allocate_block(100, "heap")
        block.free()
        assert host.used_mb == 0

    def test_double_free_raises(self, host):
        block = host.allocate_block(10, "heap")
        block.free()
        with pytest.raises(MemoryError_):
            block.free()

    def test_grow(self, host):
        block = host.allocate_block(10, "heap")
        block.grow(256)  # 1 MiB
        assert host.used_mb == pytest.approx(11)

    def test_grow_after_free_raises(self, host):
        block = host.allocate_block(10, "heap")
        block.free()
        with pytest.raises(MemoryError_):
            block.grow(1)

    def test_negative_size_raises(self, host):
        with pytest.raises(MemoryError_):
            host.allocate_block(-1, "heap")


class TestSharedSegment:
    def test_segment_resident_once(self, host):
        segment = host.create_segment(100, "kernel")
        segment.attach()
        segment.attach()
        assert host.used_mb == pytest.approx(100)

    def test_dirty_allocates_private_copies(self, host):
        segment = host.create_segment(100, "kernel")
        mapper = segment.attach()
        segment.dirty(mapper, 256 * 10)  # 10 MiB
        assert host.used_mb == pytest.approx(110)
        assert segment.dirty_pages(mapper) == 2560

    def test_dirty_returns_the_pages_it_newly_broke(self, host):
        segment = host.create_segment(10, "kernel")
        mapper = segment.attach()
        assert segment.dirty(mapper, 1000) == 1000
        assert segment.dirty(mapper, 2000) == segment.pages - 1000
        assert segment.dirty(mapper, 1) == 0  # saturated
        assert segment.dirty(mapper, 0) == 0
        assert segment.dirty_pages(mapper) == segment.pages

    def test_dirty_saturates_at_segment_size(self, host):
        segment = host.create_segment(10, "kernel")
        mapper = segment.attach()
        segment.dirty(mapper, 10**9)
        assert segment.dirty_pages(mapper) == segment.pages
        assert host.used_mb == pytest.approx(20)

    def test_detach_frees_copies(self, host):
        segment = host.create_segment(10, "kernel")
        mapper = segment.attach()
        segment.dirty(mapper, 256)
        segment.detach(mapper)
        assert host.used_mb == 0  # no pins, no mappers -> released

    def test_pin_keeps_segment_resident(self, host):
        segment = host.create_segment(10, "kernel")
        segment.pin()
        mapper = segment.attach()
        segment.detach(mapper)
        assert host.used_mb == pytest.approx(10)
        segment.unpin()
        assert host.used_mb == 0

    def test_unpin_unpinned_raises(self, host):
        segment = host.create_segment(10, "kernel")
        with pytest.raises(MemoryError_):
            segment.unpin()

    def test_detach_unknown_mapper_raises(self, host):
        segment = host.create_segment(10, "kernel")
        with pytest.raises(MemoryError_):
            segment.detach(99)

    def test_released_segment_refaults_on_attach(self, host):
        segment = host.create_segment(10, "kernel")
        mapper = segment.attach()
        segment.detach(mapper)
        assert host.used_mb == 0
        segment.attach()
        assert host.used_mb == pytest.approx(10)


class TestPssAccounting:
    def test_single_mapper_pss_is_full_size(self, host):
        segment = host.create_segment(100, "kernel")
        mapper = segment.attach()
        assert segment.pss_pages(mapper) == pytest.approx(segment.pages)

    def test_two_clean_mappers_split_pss(self, host):
        segment = host.create_segment(100, "kernel")
        m1, m2 = segment.attach(), segment.attach()
        assert segment.pss_pages(m1) == pytest.approx(segment.pages / 2)
        assert segment.pss_pages(m2) == pytest.approx(segment.pages / 2)

    def test_n_mappers_each_get_1_over_n(self, host):
        segment = host.create_segment(100, "kernel")
        mappers = [segment.attach() for _ in range(10)]
        for mapper in mappers:
            assert segment.pss_pages(mapper) == \
                pytest.approx(segment.pages / 10)

    def test_dirty_pages_charged_fully(self, host):
        segment = host.create_segment(100, "kernel")
        m1, m2 = segment.attach(), segment.attach()
        segment.dirty(m1, segment.pages)  # m1 fully private
        assert segment.pss_pages(m1) == pytest.approx(segment.pages)
        # m2's clean pages are now shared only with the page cache copy.
        assert segment.pss_pages(m2) == pytest.approx(segment.pages)

    def test_uss_is_dirty_pages(self, host):
        segment = host.create_segment(100, "kernel")
        mapper = segment.attach()
        segment.dirty(mapper, 512)
        assert segment.uss_pages(mapper) == 512

    def test_pss_sums_to_at_most_resident(self, host):
        segment = host.create_segment(64, "kernel")
        mappers = [segment.attach() for _ in range(4)]
        for index, mapper in enumerate(mappers):
            segment.dirty(mapper, index * 500)
        total_pss = sum(segment.pss_pages(m) for m in mappers)
        assert total_pss <= segment.resident_pages() + 1e-6


class TestDirtyAggregate:
    """The running total-dirty aggregate that makes pss_pages O(1)."""

    def _reference_pss(self, segment, mapper_id):
        """The pre-aggregate formula: explicit sum over the other mappers."""
        dirty = segment.dirty_pages(mapper_id)
        clean = segment.pages - dirty
        if clean == 0:
            return float(dirty)
        expected_other_sharers = sum(
            1.0 - segment.dirty_pages(other) / segment.pages
            for other in segment._dirty_by_mapper if other != mapper_id)
        return dirty + clean / (1.0 + expected_other_sharers)

    def test_aggregate_tracks_explicit_sum(self, host):
        segment = host.create_segment(100, "kernel")
        mappers = [segment.attach() for _ in range(8)]
        for index, mapper in enumerate(mappers):
            segment.dirty(mapper, index * 700)
        segment.detach(mappers.pop(3))
        segment.dirty(mappers[0], 123)
        assert segment.total_dirty_pages == sum(
            segment.dirty_pages(m) for m in mappers)

    def test_pss_matches_explicit_sum(self, host):
        segment = host.create_segment(100, "kernel")
        mappers = [segment.attach() for _ in range(6)]
        for index, mapper in enumerate(mappers):
            segment.dirty(mapper, index * 900)
        for mapper in mappers:
            assert segment.pss_pages(mapper) == pytest.approx(
                self._reference_pss(segment, mapper), rel=1e-12)

    def test_pss_matches_after_detach_and_saturation(self, host):
        segment = host.create_segment(50, "kernel")
        mappers = [segment.attach() for _ in range(5)]
        segment.dirty(mappers[1], segment.pages + 999)  # saturates
        segment.detach(mappers.pop(1))
        segment.dirty(mappers[2], 777)
        for mapper in mappers:
            assert segment.pss_pages(mapper) == pytest.approx(
                self._reference_pss(segment, mapper), rel=1e-12)

    def test_aggregate_zero_when_all_detached(self, host):
        segment = host.create_segment(10, "kernel")
        segment.pin()
        mapper = segment.attach()
        segment.dirty(mapper, 1000)
        segment.detach(mapper)
        assert segment.total_dirty_pages == 0
        assert segment.resident_pages() == segment.pages
