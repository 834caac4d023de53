"""Unit tests for smem-style PSS, RSS and USS accounting: the figures
``smem`` reports per sandbox, read from each address space."""

import pytest

from repro.config import HostConfig
from repro.mem.address_space import AddressSpace
from repro.mem.host_memory import HostMemory


@pytest.fixture
def host():
    return HostMemory(HostConfig(dram_mb=4096))


def test_report_rows_match_spaces(host):
    segment = host.create_segment(100, "kernel")
    spaces = []
    for i in range(3):
        space = AddressSpace(host, f"vm{i}")
        space.map_segment("kernel", segment)
        space.map_private("vmm", 8)
        spaces.append(space)
    for space in spaces:
        assert space.pss_mb() == pytest.approx(100 / 3 + 8)
        assert space.rss_mb() == pytest.approx(108)
        assert space.uss_mb() == pytest.approx(8)


def test_report_totals(host):
    space = AddressSpace(host, "vm")
    space.map_private("heap", 64)
    assert space.pss_mb() == pytest.approx(64)
    assert host.used_mb == pytest.approx(64)
    assert not host.is_swapping


def test_region_breakdown(host):
    segment = host.create_segment(40, "kernel")
    a = AddressSpace(host, "a")
    b = AddressSpace(host, "b")
    a.map_segment("kernel", segment)
    b.map_segment("kernel", segment)
    a.map_private("heap", 10)
    assert a.region_pss_mb("kernel") + b.region_pss_mb("kernel") == \
        pytest.approx(40)
    assert a.region_pss_mb("heap") == pytest.approx(10)
    assert not b.has_region("heap")
