"""Unit tests for guest address spaces."""

import pytest

from repro.config import HostConfig
from repro.errors import MemoryError_
from repro.mem.address_space import AddressSpace, CloneMap
from repro.mem.host_memory import HostMemory
from tests.helpers import write_shared_mb


@pytest.fixture
def host():
    return HostMemory(HostConfig(dram_mb=8192))


class TestPrivateRegions:
    def test_map_and_measure(self, host):
        space = AddressSpace(host, "vm1")
        space.map_private("kernel", 60)
        space.map_private("heap", 20)
        assert space.rss_mb() == pytest.approx(80)
        assert space.pss_mb() == pytest.approx(80)
        assert space.uss_mb() == pytest.approx(80)

    def test_duplicate_region_raises(self, host):
        space = AddressSpace(host, "vm1")
        space.map_private("kernel", 60)
        with pytest.raises(MemoryError_):
            space.map_private("kernel", 60)

    def test_dirty_private_is_noop(self, host):
        space = AddressSpace(host, "vm1")
        space.map_private("heap", 20)
        space.touch([("heap", 1.0)], "heap", 0)
        assert space.pss_mb() == pytest.approx(20)

    def test_grow_private(self, host):
        space = AddressSpace(host, "vm1")
        space.map_private("heap", 20)
        space.grow_mb("heap", 5)
        assert space.rss_mb() == pytest.approx(25)

    def test_unknown_region_raises(self, host):
        space = AddressSpace(host, "vm1")
        with pytest.raises(MemoryError_):
            space.grow_mb("nope", 1)

    def test_unmap_all_idempotent(self, host):
        space = AddressSpace(host, "vm1")
        space.map_private("heap", 20)
        space.unmap_all()
        space.unmap_all()
        assert host.used_mb == 0

    def test_map_after_close_raises(self, host):
        space = AddressSpace(host, "vm1")
        space.unmap_all()
        with pytest.raises(MemoryError_):
            space.map_private("heap", 10)


class TestSharedRegions:
    def test_clones_share_pss(self, host):
        segment = host.create_segment(100, "kernel")
        spaces = [AddressSpace(host, f"vm{i}") for i in range(4)]
        for space in spaces:
            space.map_segment("kernel", segment)
        for space in spaces:
            assert space.pss_mb() == pytest.approx(25)
        assert host.used_mb == pytest.approx(100)

    def test_dirty_breaks_sharing(self, host):
        segment = host.create_segment(100, "heap")
        a = AddressSpace(host, "a")
        b = AddressSpace(host, "b")
        a.map_segment("heap", segment)
        b.map_segment("heap", segment)
        a.touch([("heap", 0.5)], "heap", 0)
        assert a.uss_mb() == pytest.approx(50)
        assert host.used_mb == pytest.approx(150)
        # b remains clean; its PSS rises as fewer pages are co-mapped.
        assert b.uss_mb() == 0

    def test_dirty_overflow_spills_to_anon(self, host):
        segment = host.create_segment(10, "heap")
        space = AddressSpace(host, "a")
        space.map_segment("heap", segment)
        space.touch([("heap", 0.5)], "heap", 0)  # 5 CoW
        # 10 written again: 5 more CoW, and 5 spill into fresh anon
        space.touch([("heap", 1.0)], "heap", 0)
        assert space.rss_mb() == pytest.approx(15)
        assert space.uss_mb() == pytest.approx(15)

    def test_grow_shared_region(self, host):
        segment = host.create_segment(10, "heap")
        space = AddressSpace(host, "a")
        space.map_segment("heap", segment)
        space.grow_mb("heap", 7)
        assert space.rss_mb() == pytest.approx(17)

    def test_unmap_releases_overflow_and_copies(self, host):
        segment = host.create_segment(10, "heap")
        segment.pin()
        space = AddressSpace(host, "a")
        space.map_segment("heap", segment)
        write_shared_mb(space, "heap", 10, 15)
        space.unmap_all()
        assert host.used_mb == pytest.approx(10)  # only the pinned segment

    def test_region_pss_mb(self, host):
        segment = host.create_segment(60, "kernel")
        a = AddressSpace(host, "a")
        b = AddressSpace(host, "b")
        a.map_segment("kernel", segment)
        b.map_segment("kernel", segment)
        assert a.region_pss_mb("kernel") == pytest.approx(30)

    def test_mixed_private_and_shared(self, host):
        segment = host.create_segment(50, "kernel")
        space = AddressSpace(host, "vm")
        space.map_segment("kernel", segment)
        space.map_private("vmm", 8)
        other = AddressSpace(host, "vm2")
        other.map_segment("kernel", segment)
        assert space.pss_mb() == pytest.approx(25 + 8)
        assert space.rss_mb() == pytest.approx(58)


class TestCloneMap:
    """A clone map and the write plan it precomputes for fresh clones."""

    FRACTIONS = (("heap", 0.4), ("jit_code", 0.1), ("kernel", 0.04))

    def _clone_map(self, host):
        return CloneMap(8, [("kernel", host.create_segment(40, "kernel")),
                            ("heap", host.create_segment(20.3, "heap"))])

    def test_plan_is_what_touch_writes_on_a_fresh_clone(self, host):
        clone_map = self._clone_map(host)
        planned, touched = AddressSpace(host, "a"), AddressSpace(host, "b")
        planned.map_clone(clone_map)
        touched.map_clone(clone_map)
        assert planned.fresh and touched.fresh
        plan = clone_map.plan(self.FRACTIONS, "heap", 6)
        # 40 MiB is 10 240 pages: 409.6 rounds up; no jit_code is mapped.
        assert plan.dirty == (("heap", 2079), ("kernel", 410))
        before = host.used_pages
        planned.write(plan)
        planned_pages = host.used_pages - before
        touched.touch(self.FRACTIONS, "heap", 6)
        assert host.used_pages - before == 2 * planned_pages
        assert planned.uss_mb() == touched.uss_mb()
        assert not planned.fresh and not touched.fresh

    def test_any_write_or_mapping_ends_freshness(self, host):
        clone_map = self._clone_map(host)
        for write in (lambda s: s.touch([("kernel", 0.5)], "heap", 1),
                      lambda s: s.grow_mb("heap", 1),
                      lambda s: s.touch((), "heap", 0),
                      lambda s: s.map_private("app", 4),
                      lambda s: s.unmap_all()):
            space = AddressSpace(host, "vm")
            space.map_clone(clone_map)
            write(space)
            assert not space.fresh

    def test_no_plan_where_touch_must_run(self, host):
        clone_map = self._clone_map(host)
        # An out-of-range fraction of a mapped region raises in touch;
        # one of an unmapped region is skipped, as touch skips it.
        assert clone_map.plan((("heap", 1.5),), "heap", 6) is None
        assert clone_map.plan((("app", 1.5),), "heap", 6) is not None
        # A region written twice may spill on its second write.
        assert clone_map.plan((("heap", 0.4), ("heap", 0.9)),
                              "heap", 6) is None

    def test_map_clone_keeps_the_new_region_checks(self, host):
        clone_map = self._clone_map(host)
        space = AddressSpace(host, "vm")
        space.map_clone(clone_map)
        with pytest.raises(MemoryError_, match="already mapped"):
            space.map_clone(clone_map)
        space.unmap_all()
        with pytest.raises(MemoryError_, match="closed"):
            space.map_clone(clone_map)
