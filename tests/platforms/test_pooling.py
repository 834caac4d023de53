"""Unit tests for warm-pool management."""

from types import SimpleNamespace

import pytest

from repro.errors import PlatformError
from repro.mem.host_memory import pages_to_mb
from repro.platforms.pooling import WarmEntry, WarmPool, require_warm


class FakeWorker:
    pass


def _parked(pss_pages, expires_at_ms=1000.0):
    """A parked clone whose address space reports *pss_pages*."""
    worker = FakeWorker()
    worker.sandbox = SimpleNamespace(
        space=SimpleNamespace(pss_pages=lambda: pss_pages))
    return WarmEntry(worker, expires_at_ms, paused=False)


@pytest.fixture
def pool():
    return WarmPool()


class TestWarmPool:
    def test_take_from_empty_is_none(self, pool):
        assert pool.take("fn", now_ms=0.0) is None

    def test_add_and_take(self, pool):
        worker = FakeWorker()
        pool.add("fn", WarmEntry(worker, expires_at_ms=100.0, paused=True))
        entry = pool.take("fn", now_ms=50.0)
        assert entry.worker is worker
        assert pool.take("fn", now_ms=50.0) is None  # consumed

    def test_expired_entries_not_returned(self, pool):
        pool.add("fn", WarmEntry(FakeWorker(), 100.0, paused=True))
        assert pool.take("fn", now_ms=100.0) is None

    def test_expired_entries_drained_for_teardown(self, pool):
        worker = FakeWorker()
        pool.add("fn", WarmEntry(worker, 100.0, paused=False))
        pool.take("fn", now_ms=200.0)
        expired = pool.drain_expired()
        assert [e.worker for e in expired] == [worker]
        assert pool.drain_expired() == []  # drained once

    def test_freshest_entry_taken_first(self, pool):
        old, new = FakeWorker(), FakeWorker()
        pool.add("fn", WarmEntry(old, 1000.0, paused=True))
        pool.add("fn", WarmEntry(new, 2000.0, paused=True))
        assert pool.take("fn", 0.0).worker is new

    def test_pools_are_per_function(self, pool):
        pool.add("a", WarmEntry(FakeWorker(), 100.0, paused=True))
        assert pool.take("b", 0.0) is None
        assert pool.size("a", 0.0) == 1

    def test_size_expires_lazily(self, pool):
        pool.add("fn", WarmEntry(FakeWorker(), 100.0, paused=True))
        assert pool.size("fn", now_ms=150.0) == 0

    def test_expire_all_sweeps_every_function(self, pool):
        stale_a, stale_b = FakeWorker(), FakeWorker()
        pool.add("a", WarmEntry(stale_a, 100.0, paused=True))
        pool.add("a", WarmEntry(FakeWorker(), 500.0, paused=True))
        pool.add("b", WarmEntry(stale_b, 200.0, paused=False))
        pool.expire_all(now_ms=300.0)
        # Both stale entries land in one drain batch; live entry stays.
        assert {e.worker for e in pool.drain_expired()} == {stale_a, stale_b}
        assert pool.size("a", 300.0) == 1
        assert pool.size("b", 300.0) == 0

    def test_expire_all_then_take_does_not_redrain(self, pool):
        """Entries expired by the sweep are not queued for teardown twice
        when a later take() expires the (now-empty) pool again."""
        pool.add("fn", WarmEntry(FakeWorker(), 100.0, paused=True))
        pool.expire_all(now_ms=150.0)
        assert len(pool.drain_expired()) == 1
        assert pool.take("fn", now_ms=200.0) is None
        assert pool.drain_expired() == []

    def test_live_entries_excludes_expired(self, pool):
        live = FakeWorker()
        pool.add("a", WarmEntry(FakeWorker(), 100.0, paused=True))
        pool.add("b", WarmEntry(live, 1000.0, paused=True))
        assert [e.worker for e in pool.live_entries(now_ms=500.0)] == [live]
        assert len(pool.drain_expired()) == 1

    def test_total_pss_sums_live_parked_clones(self, pool):
        assert pool.total_pss_mb(now_ms=0.0) == 0.0
        pool.add("a", _parked(256.0))
        pool.add("b", _parked(512.5))
        pool.add("a", _parked(1024.0, expires_at_ms=10.0))  # expired
        assert pool.total_pss_mb(now_ms=50.0) == pages_to_mb(256.0 + 512.5)


class TestRequireWarm:
    def test_passes_through_entry(self):
        entry = WarmEntry(FakeWorker(), 1.0, paused=True)
        assert require_warm(entry, "fn", "p") is entry

    def test_none_raises_clear_error(self):
        with pytest.raises(PlatformError, match="warm pool is empty"):
            require_warm(None, "fn", "p")
