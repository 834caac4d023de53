"""Property-based tests: memory-model invariants under arbitrary workloads."""

from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import HostConfig, default_parameters
from repro.errors import MemoryError_
from repro.mem.address_space import AddressSpace
from repro.mem.host_memory import HostMemory
from repro.sandbox.container import Container
from repro.sim.kernel import Simulation
from tests.helpers import write_shared_mb

# Generous host so random workloads never hit the OOM ceiling.
_HOST = HostConfig(dram_mb=1 << 20)


@st.composite
def dirty_sequences(draw):
    """A segment size plus a sequence of (mapper, pages) dirty operations."""
    pages = draw(st.integers(min_value=1, max_value=50000))
    n_mappers = draw(st.integers(min_value=1, max_value=8))
    ops = draw(st.lists(
        st.tuples(st.integers(0, n_mappers - 1),
                  st.integers(0, 60000)),
        max_size=20))
    return pages, n_mappers, ops


class TestSegmentInvariants:
    @given(dirty_sequences())
    @settings(max_examples=100)
    def test_accounting_invariants(self, case):
        pages, n_mappers, ops = case
        host = HostMemory(_HOST)
        segment = host.create_segment(pages / 256, "x")
        segment_pages = segment.pages
        mappers = [segment.attach() for _ in range(n_mappers)]
        for mapper_index, dirty_pages in ops:
            segment.dirty(mappers[mapper_index], dirty_pages)

        # Invariant 1: dirty never exceeds the segment size.
        for mapper in mappers:
            assert 0 <= segment.dirty_pages(mapper) <= segment_pages

        # Invariant 2: resident = segment + sum of private copies.
        expected = segment_pages + sum(segment.dirty_pages(m)
                                       for m in mappers)
        assert segment.resident_pages() == expected

        # Invariant 3: PSS of each mapper is between USS and RSS.
        for mapper in mappers:
            pss = segment.pss_pages(mapper)
            assert segment.uss_pages(mapper) - 1e-9 <= pss \
                <= segment_pages + segment.dirty_pages(mapper) + 1e-9

        # Invariant 4: total PSS never exceeds resident memory.
        total_pss = sum(segment.pss_pages(m) for m in mappers)
        assert total_pss <= segment.resident_pages() + 1e-6

        # Invariant 5: detaching everyone frees everything (no pins).
        for mapper in mappers:
            segment.detach(mapper)
        assert host.used_pages == 0

    @given(st.integers(1, 64), st.integers(1, 500))
    @settings(max_examples=50)
    def test_clean_sharing_splits_evenly(self, n_mappers, mb):
        host = HostMemory(_HOST)
        segment = host.create_segment(mb, "x")
        mappers = [segment.attach() for _ in range(n_mappers)]
        for mapper in mappers:
            assert segment.pss_pages(mapper) == \
                pytest.approx(segment.pages / n_mappers)


class TestAddressSpaceInvariants:
    @given(st.lists(st.tuples(st.sampled_from(["private", "shared"]),
                              st.integers(1, 200)),
                    min_size=1, max_size=6),
           st.floats(0.0, 1.0))
    @settings(max_examples=60)
    def test_pss_bounded_by_rss(self, regions, fraction):
        host = HostMemory(_HOST)
        space = AddressSpace(host, "vm")
        other = AddressSpace(host, "other")
        for index, (kind, mb) in enumerate(regions):
            name = f"r{index}"
            if kind == "private":
                space.map_private(name, mb)
            else:
                segment = host.create_segment(mb, name)
                space.map_segment(name, segment)
                other.map_segment(name, segment)
        space.touch([(f"r{index}", fraction)
                     for index, _ in enumerate(regions)], "r0", 0)
        assert space.uss_mb() - 1e-9 <= space.pss_mb() \
            <= space.rss_mb() + 1e-9

    @given(st.lists(st.tuples(st.sampled_from(["private", "shared"]),
                              st.integers(1, 200), st.integers(0, 120_000)),
                    min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_one_walk_equals_rss_and_uss(self, regions):
        host = HostMemory(_HOST)
        space = AddressSpace(host, "vm")
        for index, (kind, mb, pages) in enumerate(regions):
            name = f"r{index}"
            if kind == "private":
                space.map_private(name, mb)
            else:
                space.map_segment(name, host.create_segment(mb, name))
                # Past the segment size the writes spill into overflow.
                write_shared_mb(space, name, mb, pages / 256)
        assert space.rss_uss_mb() == (space.rss_mb(), space.uss_mb())

    @given(st.lists(st.integers(1, 100), min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_unmap_restores_host(self, sizes):
        host = HostMemory(_HOST)
        space = AddressSpace(host, "vm")
        for index, mb in enumerate(sizes):
            space.map_private(f"r{index}", mb)
        space.unmap_all()
        assert host.used_pages == 0


# ---------------------------------------------------------------------------
# One-pass writes: a sandbox's execution accounting against the region loop
# ---------------------------------------------------------------------------
_REGIONS = ("vmm", "kernel", "runtime", "app", "heap", "jit_code")
# Mostly valid fractions, sometimes one the range check must refuse.
_FRACTIONS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.25, 1.5]))


def _first_execution_by_region(space, layout) -> None:
    """The region-by-region loop ``account_first_execution`` replaced."""
    for region, fraction in (
            ("heap", layout.exec_dirty_heap_fraction),
            ("jit_code", layout.exec_dirty_jit_fraction),
            ("kernel", layout.exec_dirty_text_fraction),
            ("runtime", layout.exec_dirty_text_fraction),
            ("app", layout.exec_dirty_text_fraction)):
        if space.has_region(region):
            space.touch([(region, fraction)], region, 0)
    if space.has_region("heap"):
        space.grow_mb("heap", layout.exec_extra_anon_mb)


def _steady_state_by_region(space, layout) -> None:
    """The region-by-region loop ``account_steady_state`` replaced."""
    for region in ("kernel", "runtime", "app", "heap", "jit_code"):
        if space.has_region(region):
            space.touch([(region, layout.steady_state_dirty_fraction)],
                        region, 0)
    if space.has_region("heap"):
        space.grow_mb("heap", layout.steady_state_extra_anon_mb)


@st.composite
def execution_cases(draw):
    """Mapped regions (private or shared with other, already-dirtied
    mappers), the clone's own earlier writes (past a segment's size they
    overflow), a layout's fractions, the accounting steps and the host."""
    regions = {}
    for name in _REGIONS:
        kind = draw(st.sampled_from(["absent", "private", "shared"]))
        if kind != "absent":
            mb = draw(st.integers(1, 120))
            others = draw(st.lists(st.integers(0, 2 * 256 * mb),
                                   max_size=3))
            own = draw(st.integers(0, 2 * 256 * mb))
            regions[name] = (kind, mb, others, own)
    layout = dict(
        exec_dirty_heap_fraction=draw(_FRACTIONS),
        exec_dirty_jit_fraction=draw(_FRACTIONS),
        exec_dirty_text_fraction=draw(_FRACTIONS),
        exec_extra_anon_mb=draw(st.integers(0, 60)),
        steady_state_dirty_fraction=draw(_FRACTIONS),
        steady_state_extra_anon_mb=draw(st.integers(0, 60)))
    steps = draw(st.sampled_from(
        [("first",), ("steady",), ("first", "steady")]))
    # Small hosts OOM part-way through the writes.
    dram_mb = draw(st.sampled_from([1 << 20, 1200, 700]))
    return regions, layout, steps, dram_mb


def _clone(case):
    """A container whose address space is set up as *case* says."""
    regions, layout, _steps, dram_mb = case
    host = HostMemory(HostConfig(dram_mb=dram_mb))
    sandbox = Container(Simulation(), default_parameters(), host, "nodejs")
    sandbox.layout = replace(sandbox.layout, **layout)
    segments = []
    for name, (kind, mb, others, own) in regions.items():
        if kind == "private":
            sandbox.space.map_private(name, mb)
            sandbox.space.grow_mb(name, own / 256)
        else:
            segment = host.create_segment(mb, name)
            sandbox.space.map_segment(name, segment)
            for pages in others:
                segment.dirty(segment.attach(), pages)
            write_shared_mb(sandbox.space, name, mb, own / 256)
            segments.append(segment)
    return host, sandbox, segments


def _run_steps(steps, run) -> object:
    """Run each step; the error class that stopped them, or None."""
    try:
        for step in steps:
            run(step)
    except MemoryError_ as exc:
        return type(exc)
    return None


def _accounting(host, sandbox, segments):
    space = sandbox.space
    return (host.used_pages, host.peak_pages,
            [(dict(segment._dirty_by_mapper), segment.total_dirty_pages)
             for segment in segments],
            space.rss_mb(), space.uss_mb(), space.pss_pages())


class TestOnePassWrites:
    @given(execution_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_region_by_region_loop(self, case):
        """Same per-mapper dirty pages, segment aggregates, host used and
        peak pages, RSS/USS/PSS, and the same error at the same point."""
        steps = case[2]
        try:
            host, sandbox, segments = _clone(case)
            twin_host, twin, twin_segments = _clone(case)
        except MemoryError_:
            assume(False)  # the set-up alone outgrew the host

        def one_pass(step):
            if step == "first":
                sandbox.account_first_execution()
            else:
                sandbox.account_steady_state()

        def by_region(step):
            if step == "first":
                _first_execution_by_region(twin.space, twin.layout)
            else:
                _steady_state_by_region(twin.space, twin.layout)

        assert _run_steps(steps, one_pass) == _run_steps(steps, by_region)
        assert _accounting(host, sandbox, segments) == \
            _accounting(twin_host, twin, twin_segments)
