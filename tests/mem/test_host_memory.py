"""Unit tests for host memory accounting and swapping."""

import pytest

from repro.config import HostConfig
from repro.errors import MemoryError_, OutOfMemoryError
from repro.mem.host_memory import HostMemory, mb_to_pages, pages_to_mb
from repro.mem.segments import PrivateBlock


class TestConversions:
    def test_round_trip(self):
        assert pages_to_mb(mb_to_pages(170)) == pytest.approx(170)

    def test_one_mb_is_256_pages(self):
        assert mb_to_pages(1) == 256


class TestHostMemory:
    def test_paper_host_threshold(self):
        """128 GB at swappiness 60 -> swap threshold ~76.8 GB."""
        host = HostMemory(HostConfig())
        assert pages_to_mb(host.swap_threshold_pages) == \
            pytest.approx(131072 * 0.6)

    def test_swapping_flag(self):
        host = HostMemory(HostConfig(dram_mb=1000,
                                     swappiness_threshold=0.6))
        host.allocate_block(600, "x")
        assert not host.is_swapping
        host.allocate_block(1, "x")
        assert host.is_swapping

    def test_oom_beyond_swap_budget(self):
        host = HostMemory(HostConfig(dram_mb=1000))
        host.allocate_block(1400, "x")
        with pytest.raises(OutOfMemoryError):
            host.allocate_block(200, "x")

    def test_oom_at_one_page_past_the_ceiling(self):
        """DRAM plus half of it in swap is the last page that fits."""
        host = HostMemory(HostConfig(dram_mb=1000))
        ceiling = int(host.total_pages * 1.5)
        PrivateBlock(host, ceiling - 1, "x")
        PrivateBlock(host, 1, "x")
        with pytest.raises(OutOfMemoryError):
            PrivateBlock(host, 1, "x")
        assert host.used_pages == host.peak_pages == ceiling

    def test_peak_tracking(self):
        host = HostMemory(HostConfig(dram_mb=1000))
        block = host.allocate_block(500, "x")
        block.free()
        assert host.used_mb == 0
        assert pages_to_mb(host.peak_pages) == pytest.approx(500)

    def test_free_more_than_used_raises(self):
        host = HostMemory(HostConfig(dram_mb=1000))
        with pytest.raises(MemoryError_):
            host._account_free(10)

    def test_utilization(self):
        host = HostMemory(HostConfig(dram_mb=1000))
        host.allocate_block(250, "x")
        assert host.utilization() == pytest.approx(0.25)

    def test_free_pages_before_swap(self):
        host = HostMemory(HostConfig(dram_mb=1000,
                                     swappiness_threshold=0.5))
        host.allocate_block(400, "x")
        assert pages_to_mb(host.free_pages_before_swap) == pytest.approx(100)
