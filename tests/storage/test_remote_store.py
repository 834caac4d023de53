"""Unit tests for the tiered remote snapshot store (§6)."""

import pytest

from repro.errors import SnapshotNotFoundError, StorageError
from repro.storage.disk import BlockDevice
from repro.storage.remote_store import RemoteObjectStore, TieredSnapshotStore


class FakeImage:
    def __init__(self, size_mb: float) -> None:
        self.size_mb = size_mb
        self.evicted = False

    def on_evicted(self) -> None:
        self.evicted = True


@pytest.fixture
def tiered():
    return TieredSnapshotStore(BlockDevice(10000), RemoteObjectStore(),
                               local_capacity_images=2)


class TestRemoteObjectStore:
    def test_upload_download_roundtrip(self):
        remote = RemoteObjectStore(rtt_ms=8.0, bandwidth_mb_per_ms=2.0)
        image = FakeImage(100)
        upload_ms = remote.upload("fn", image)
        assert upload_ms == pytest.approx(8.0 + 50.0)
        fetched, download_ms = remote.download("fn")
        assert fetched is image
        assert download_ms == pytest.approx(58.0)

    def test_missing_key_raises(self):
        with pytest.raises(SnapshotNotFoundError):
            RemoteObjectStore().download("ghost")

    def test_bad_bandwidth_raises(self):
        with pytest.raises(StorageError):
            RemoteObjectStore(bandwidth_mb_per_ms=0)


class TestTieredStore:
    def test_local_hit_is_free(self, tiered):
        image = FakeImage(170)
        tiered.put("fn", image)
        fetched, extra_ms = tiered.get("fn")
        assert fetched is image
        assert extra_ms == 0.0

    def test_local_miss_fetches_from_remote(self, tiered):
        image = FakeImage(170)
        tiered.put("fn", image)
        tiered.evict_local("fn")
        fetched, extra_ms = tiered.get("fn")
        assert fetched is image
        assert extra_ms > 0
        # Now cached locally again.
        _, second_ms = tiered.get("fn")
        assert second_ms == 0.0

    def test_capacity_pressure_falls_back_to_remote(self, tiered):
        images = {k: FakeImage(100) for k in ("a", "b", "c")}
        for key, image in images.items():
            tiered.put(key, image)
        # Local capacity 2: "a" was evicted locally, but survives remotely.
        assert not tiered.local.contains("a")
        assert tiered.contains("a")
        _, extra_ms = tiered.get("a")
        assert extra_ms > 0

    def test_missing_everywhere_raises(self, tiered):
        with pytest.raises(SnapshotNotFoundError):
            tiered.get("ghost")

    def test_put_writes_through(self, tiered):
        total_ms = tiered.put("fn", FakeImage(50))
        assert total_ms > 0
        assert tiered.local.contains("fn")
        assert tiered.remote.contains("fn")
