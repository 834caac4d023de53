"""Property tests: chunk maps, recorded working sets, and the lazy ledger.

Four invariants must hold for *any* image geometry and working-set size,
not just the calibrated defaults:

* the chunk geometry is exact: ``n_chunks`` and ``bytes_mb`` equal
  (``==``) the per-chunk formulas they replace;
* the recorded chunk set is always a subset of the image's chunks, and it
  covers at least the recorded working set;
* a lazy restore's byte ledger is exact — ``covered + faulted ==
  touched``, bitwise, not approximately;
* a generation bump (ASLR regeneration, §6) invalidates the profile.
"""

import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import fresh_platform, install_all, invoke_once
from repro.core import FireworksPlatform
from repro.snapshot.chunks import ChunkMap
from repro.snapshot.prefetch import WorkingSetProfile
from repro.snapshot.restorer import POLICY_LAZY
from repro.workloads import faasdom_spec

sizes_mb = st.floats(min_value=0.125, max_value=4096.0,
                     allow_nan=False, allow_infinity=False)
chunk_sizes_mb = st.floats(min_value=0.125, max_value=64.0,
                           allow_nan=False, allow_infinity=False)


def _reference_n_chunks(size, chunk):
    return max(1, int(math.ceil(size / chunk - 1e-12)))


def _reference_bytes_mb(size, chunk, indices):
    """One ``fsum`` term per distinct chunk, the last one partial."""
    n = _reference_n_chunks(size, chunk)
    return math.fsum(chunk if i < n - 1 else size - chunk * (n - 1)
                     for i in set(indices))


class TestChunkGeometryIsExact:
    @given(size=sizes_mb, chunk=chunk_sizes_mb, data=st.data())
    @settings(max_examples=400)
    def test_bytes_mb_equals_the_per_chunk_fsum(self, size, chunk, data):
        cmap = ChunkMap(size, chunk)
        n = cmap.n_chunks
        assert n == _reference_n_chunks(size, chunk)
        indices = data.draw(st.lists(st.integers(0, n - 1), max_size=200))
        if data.draw(st.booleans()):
            indices.append(n - 1)  # the partial tail chunk
        assert cmap.bytes_mb(indices) == _reference_bytes_mb(size, chunk,
                                                             indices)

    @given(count=st.integers(min_value=1, max_value=4096),
           chunk=st.sampled_from([0.1, 0.3, 1 / 3, 0.7, 1.1, 3.3]),
           tail=st.floats(min_value=0.01, max_value=0.99),
           data=st.data())
    @settings(max_examples=300)
    def test_bytes_mb_exact_where_products_round(self, count, chunk, tail,
                                                 data):
        # Decimal chunk sizes make ``k * chunk`` inexact, the case where a
        # closed form with the tail chunk would round twice.
        size = (count + tail) * chunk
        cmap = ChunkMap(size, chunk)
        n = cmap.n_chunks
        k = data.draw(st.integers(1, n))
        indices = list(range(n - k, n)) if data.draw(st.booleans()) \
            else list(range(k))
        assert cmap.bytes_mb(indices) == _reference_bytes_mb(size, chunk,
                                                             indices)
        assert cmap.bytes_mb(cmap.all_chunks()) == _reference_bytes_mb(
            size, chunk, range(n))


class TestChunkMapProperties:
    @given(size=sizes_mb, chunk=chunk_sizes_mb)
    @settings(max_examples=120)
    def test_chunk_sizes_ledger_to_image_size(self, size, chunk):
        cmap = ChunkMap(size, chunk)
        import pytest
        assert cmap.bytes_mb(cmap.all_chunks()) == pytest.approx(size)

    @given(size=sizes_mb, chunk=chunk_sizes_mb,
           want=st.floats(min_value=0.0, max_value=8192.0,
                          allow_nan=False, allow_infinity=False))
    @settings(max_examples=120)
    def test_spread_is_a_subset_of_the_image_chunks(self, size, chunk, want):
        cmap = ChunkMap(size, chunk)
        chunks = cmap.spread(want)
        assert set(chunks) <= set(cmap.all_chunks())
        assert list(chunks) == sorted(set(chunks))

    @given(size=sizes_mb, chunk=chunk_sizes_mb,
           want=st.floats(min_value=0.001, max_value=8192.0,
                          allow_nan=False, allow_infinity=False))
    @settings(max_examples=120)
    def test_spread_covers_the_want(self, size, chunk, want):
        cmap = ChunkMap(size, chunk)
        covered = cmap.bytes_mb(cmap.spread(want))
        # Coverage is capped by the image itself, otherwise >= want.
        assert covered >= min(want, size) - 1e-9


@functools.lru_cache(maxsize=1)
def _lazy_fixture():
    """One installed lazy-policy platform, built once for the module."""
    platform = fresh_platform(FireworksPlatform, restore_policy=POLICY_LAZY)
    spec = faasdom_spec("faas-fact", "nodejs")
    install_all(platform, [spec])
    invoke_once(platform, spec.name)  # record a real profile
    return platform, spec


def _plan_for_working_set(working_set_mb, chunk_size_mb):
    """The lazy plan with a synthetic profile of *working_set_mb* injected
    (exercises the ledger across arbitrary working-set geometries)."""
    platform, spec = _lazy_fixture()
    image = platform.image_for(spec.name)
    restorer = platform.manager.restorer
    profile = WorkingSetProfile(
        image_key=image.key,
        generation=image.generation,
        working_set_mb=working_set_mb,
        chunks=image.chunk_map(chunk_size_mb).spread(working_set_mb),
        chunk_size_mb=chunk_size_mb,
    )
    original = platform.recorder._profiles.get(image.key)
    platform.recorder._profiles[image.key] = profile
    try:
        return restorer.lazy_plan(image)
    finally:
        if original is None:
            platform.recorder._profiles.pop(image.key, None)
        else:
            platform.recorder._profiles[image.key] = original


class TestLazyLedgerProperties:
    @given(working_set=st.floats(min_value=0.0, max_value=512.0,
                                 allow_nan=False, allow_infinity=False),
           chunk=chunk_sizes_mb)
    @settings(max_examples=80, deadline=None)
    def test_ledger_is_exact(self, working_set, chunk):
        plan = _plan_for_working_set(working_set, chunk)
        # Bitwise equality, by construction — not approx.
        assert plan.covered_mb + plan.faulted_mb == plan.touched_mb
        assert plan.bytes_moved_mb == plan.prefetch_mb + plan.faulted_mb

    @given(working_set=st.floats(min_value=0.0, max_value=512.0,
                                 allow_nan=False, allow_infinity=False),
           chunk=chunk_sizes_mb)
    @settings(max_examples=80, deadline=None)
    def test_prefetch_covers_at_least_covered(self, working_set, chunk):
        plan = _plan_for_working_set(working_set, chunk)
        assert plan.prefetch_mb >= plan.covered_mb
        assert plan.faulted_mb >= 0.0
        assert plan.n_faults == 0 or plan.faulted_mb > 0.0


class TestGenerationInvalidation:
    @given(bumps=st.integers(min_value=1, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_generation_bump_invalidates_profile(self, bumps):
        platform, spec = _lazy_fixture()
        image = platform.image_for(spec.name)
        assert platform.recorder.profile_for(image) is not None
        regenerated = image
        for _ in range(bumps):
            regenerated = regenerated.clone_for_regeneration()
        assert platform.recorder.profile_for(regenerated) is None
